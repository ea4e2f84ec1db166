"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one of the paper's evaluation artifacts
(each module's docstring names its artifact; README.md's repository
layout lists the modules).  Besides timing via
pytest-benchmark, each bench *asserts the shape* of the paper's claim
and prints the regenerated table with ``-s``.

Machine-readable perf trajectory
--------------------------------

Every ``bench_<name>.py`` run additionally emits ``BENCH_<name>.json``
at the repo root (CI uploads them as artifacts), so the perf numbers
accumulate across commits instead of scrolling away in logs.  Three
sources feed each file, keyed by test:

* every :func:`print_table` call (the regenerated table itself --
  workload parameters live in the titles, tuple counts and wall-clock
  in the rows);
* explicit :func:`record_bench` calls for structured entries
  (workload params, tuple counts, per-engine seconds);
* the per-test wall clock and outcome, recorded automatically.

Set ``BENCH_JSON=0`` to disable the files (e.g. for scratch runs).
"""

from __future__ import annotations

import json
import os
import string
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro import Variable
from repro.core.provenance import RewrittenProgram

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_ENTRIES: Dict[str, List[dict]] = {}
_CURRENT: Dict[str, Optional[str]] = {"bench": None, "test": None}


def _bench_json_enabled() -> bool:
    return os.environ.get("BENCH_JSON", "1") != "0"


def _bench_name(path: str) -> Optional[str]:
    stem = Path(path).stem
    if stem.startswith("bench_"):
        return stem[len("bench_"):]
    return None


def record_bench(entry: dict, bench: Optional[str] = None) -> None:
    """Append one machine-readable entry to the current bench's JSON.

    ``bench`` defaults to the bench module of the currently running
    test; the current test name is attached automatically.
    """
    bench = bench or _CURRENT["bench"]
    if bench is None:
        return
    payload = {"test": _CURRENT["test"]}
    payload.update(entry)
    _BENCH_ENTRIES.setdefault(bench, []).append(payload)


@pytest.fixture(autouse=True)
def _bench_json_context(request):
    """Track which bench module/test is running for the recorders."""
    bench = _bench_name(str(request.node.fspath))
    _CURRENT["bench"] = bench
    _CURRENT["test"] = request.node.name
    yield
    _CURRENT["bench"] = None
    _CURRENT["test"] = None


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    bench = _bench_name(report.nodeid.split("::", 1)[0])
    if bench is None:
        return
    _BENCH_ENTRIES.setdefault(bench, []).append(
        {
            "test": report.nodeid.split("::")[-1],
            "outcome": report.outcome,
            "wall_clock_seconds": round(report.duration, 6),
        }
    )


def _merge_entries(existing: List[dict], fresh: List[dict]) -> List[dict]:
    """Replace re-run tests' entries, keep the rest of the module's.

    A partial run (``pytest benchmarks/bench_x.py -k one``) must not
    discard the recorded entries of the module's other tests.
    """
    fresh_tests = {entry.get("test") for entry in fresh}
    kept = [e for e in existing if e.get("test") not in fresh_tests]
    return kept + fresh


def pytest_sessionfinish(session, exitstatus):
    if not _bench_json_enabled():
        return
    for bench, entries in sorted(_BENCH_ENTRIES.items()):
        path = _REPO_ROOT / f"BENCH_{bench}.json"
        if path.exists():
            try:
                previous = json.loads(path.read_text()).get("entries", [])
            except (ValueError, OSError):
                previous = []
            entries = _merge_entries(previous, entries)
        payload = {
            "bench": bench,
            "schema": 1,
            "entries": entries,
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


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
    record_bench(
        {
            "table": {
                "title": title,
                "headers": [str(h) for h in headers],
                "rows": [[str(v) for v in row] for row in rows],
            }
        }
    )
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
