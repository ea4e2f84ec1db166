"""Shared benchmark helpers and the paper-claims ledger.

The ``bench_*`` modules E1-E12 are the paper's experiments (each
module's docstring names its artifact); ``bench_guardrails.py`` is the
one wall-clock bench and claims nothing.  Each experiment states its
headline check as a :func:`claim`, which asserts the claim and records
it, and prints its regenerated table with ``-s``.

At the end of a session that made claims, the ledger is written at the
repo root: ``CLAIMS.json`` (one row per claim id; a partial run
replaces only the rows it ran) and ``REPRODUCTION.md``, a table
generated from it.  A row holds counters, rule sets and verdicts, never
seconds, so a full run reproduces both committed files byte for byte.
"""

from __future__ import annotations

import json
import operator
import re
import string
from pathlib import Path
from typing import Dict, List

from repro import Variable
from repro.core.provenance import RewrittenProgram

_REPO_ROOT = Path(__file__).resolve().parent.parent
CLAIMS_JSON = _REPO_ROOT / "CLAIMS.json"
REPRODUCTION_MD = _REPO_ROOT / "REPRODUCTION.md"
PAPER = (
    'C. Beeri and R. Ramakrishnan, "On the Power of Magic", PODS 1987'
)

RELATIONS = {
    "=": operator.eq,
    "<": operator.lt,
    "≤": operator.le,
    ">": operator.gt,
}
COLUMNS = ("id", "section", "metric", "relation", "expected", "observed")

_CLAIMS: Dict[str, dict] = {}


def claim(id, section, metric, relation, expected, observed) -> None:
    """Assert ``observed <relation> expected`` and record it in the
    ledger under ``id``.  Values must be JSON: counts, ratios, strings,
    booleans or lists of them (a rule set is its sorted canonical
    rules)."""
    assert id not in _CLAIMS, f"claim id {id} made twice"
    holds = bool(RELATIONS[relation](observed, expected))
    row = dict(zip(COLUMNS, (id, section, metric, relation, expected, observed)))
    row["holds"] = holds
    _CLAIMS[id] = row
    assert holds, (
        f"{id} ({section}): {metric}: observed {observed!r}, "
        f"expected {relation} {expected!r}"
    )


def _id_order(row):
    parts = re.split(r"(\d+)", row["id"])
    return [int(p) if i % 2 else p for i, p in enumerate(parts)]


def _cell(value) -> str:
    if isinstance(value, list):
        text = ", ".join(map(str, value)) or "none"
        if len(text) > 40:
            return f"{len(value)} items"
        value = text
    return str(value).replace("|", "\\|")


def _write_ledger(rows: List[dict]) -> None:
    CLAIMS_JSON.write_text(
        '{\n  "paper": '
        + json.dumps(PAPER)
        + ',\n  "claims": [\n'
        + ",\n".join(
            "    " + json.dumps(row, ensure_ascii=False) for row in rows
        )
        + "\n  ]\n}\n",
        encoding="utf-8",
    )
    lines = [
        "# Reproduction ledger",
        "",
        f"The claims of {PAPER}, as this repository reproduces them.",
        "Generated from `CLAIMS.json` by `benchmarks/conftest.py` at the",
        "end of `python -m pytest benchmarks`; do not edit by hand. A long",
        "list (a rule set) shows as its length here and in full in",
        "`CLAIMS.json`.",
        "",
        "| claim | section | metric | relation | expected | observed "
        "| verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        cells = [_cell(row[column]) for column in COLUMNS]
        cells.append("pass" if row["holds"] else "**fail**")
        lines.append("| " + " | ".join(cells) + " |")
    REPRODUCTION_MD.write_text("\n".join(lines) + "\n", encoding="utf-8")


def pytest_sessionfinish(session, exitstatus):
    if not _CLAIMS:
        return
    rows: Dict[str, dict] = {}
    if CLAIMS_JSON.exists():
        try:
            previous = json.loads(CLAIMS_JSON.read_text(encoding="utf-8"))
            rows = {row["id"]: row for row in previous["claims"]}
        except (ValueError, KeyError, TypeError):
            rows = {}
    rows.update(_CLAIMS)
    _write_ledger(sorted(rows.values(), key=_id_order))


def canonical_rule(rule) -> str:
    names = list(string.ascii_uppercase) + [f"V{i}" for i in range(100)]
    mapping = {}
    for var in rule.variables():
        mapping[var] = Variable(names[len(mapping)])
    return str(rule.substitute(mapping))


def canonical_rules(program) -> List[str]:
    if isinstance(program, RewrittenProgram):
        rules = [rr.rule for rr in program.rules]
    else:
        rules = [getattr(r, "rule", r) for r in program.rules]
    return sorted(canonical_rule(rule) for rule in rules)


def print_table(title: str, headers: List[str], rows: List[List[object]]) -> None:
    print()
    print(f"== {title}")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print(
            "  "
            + "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
