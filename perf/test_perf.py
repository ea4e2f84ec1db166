"""Checks of the benchmark itself, at ``--smoke`` scale.

    python -m pytest perf -q

Outside tier-1's ``testpaths``: these time nothing worth reading, they
check that the harness measures what it says.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import run  # noqa: E402  (first: it puts src/ on sys.path)

import compare  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402


def _child(workload: str, trace: int) -> list:
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(wl.WORKLOADS)
    assert run.SPEC["paths"] == ["perf"]
    assert "setup_s" in run.END_TO_END


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_contract_metric_is_printed_with_its_unit(workload, trace):
    lines = _child(workload, trace)
    result = json.loads(lines[-1])
    contract = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(contract)
    printed = {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 3
    }
    for name, spec in contract.items():
        assert result["metrics"][name]["unit"] == spec["unit"]
        assert printed[f"{workload}/{name}"] == spec["unit"]
    if not trace:
        assert printed[f"{workload}/error_rate"] == "ratio"
        assert all(result["metrics"][m]["value"] > 0 for m in contract)


def test_same_seed_repeats_and_another_seed_differs():
    for generate in wl.WORKLOADS.values():
        first = generate(3, 1, True).schedule_digest()
        assert first == generate(3, 1, True).schedule_digest()
        assert first != generate(4, 1, True).schedule_digest()
    counters = ("facts_derived_per_read", "tuples_scanned_per_read")
    a, b, c = (
        run.run_workload("samegen-fixpoint", seed, 1, True)
        for seed in (3, 3, 4)
    )
    assert a["schedule"] == b["schedule"] != c["schedule"]
    assert [a["metrics"][m] for m in counters] == [
        b["metrics"][m] for m in counters
    ]
    assert [a["metrics"][m] for m in counters] != [
        c["metrics"][m] for m in counters
    ]
    assert a["samples"] == b["samples"] == c["samples"]


def test_a_planted_wrong_expected_answer_raises_error_rate():
    inst = wl.WORKLOADS["point-tree"](1, 1, True)
    ops = inst.streams[0]
    victim = next(i for i, op in enumerate(ops) if op.kind == "read")
    ops[victim] = replace(ops[victim], expect=frozenset({("nobody",)}))
    target = wl.build(inst)
    try:
        samples, walls, bursts = run.timed_section(inst, target)
        failures = run.check_samples(inst, samples, target)
    finally:
        target.close()
    assert len(failures) == 1 and "wrong answer" in failures[0]
    metrics, _, _ = run.end_to_end(
        samples, walls, bursts, [1.0], 1.0, failures
    )
    assert metrics["error_rate"] == pytest.approx(1 / len(samples))


def test_stage_spans_nest_and_account_for_the_session_read():
    metrics, extra, attempted, failures, spans_path = layers.trace_workload(
        wl.WORKLOADS["point-tree"], 1, 2, True
    )
    assert failures == [] and attempted >= 4
    spans = json.loads(Path(spans_path).read_text())["spans"]
    staged = [i for i, row in enumerate(spans) if row[0] == "read.staged"]
    assert staged
    for _name, start, end, parent, _op, _scale in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    stages = {spans[i][0] for i, row in enumerate(spans) if row[3] in staged}
    assert {
        "parser.parse_query", "adornment.adorn",
        "rewrite.supplementary_magic", "provenance.seed_db",
        "engine.evaluate", "provenance.extract",
    } <= stages
    # at smoke scale a read is ~1 ms, so the Session's own bookkeeping is a
    # larger share than on the full tree (where the gate is 10%)
    assert abs(extra["session.self_s"]) <= 0.25 * metrics["session.query_s"]


def _summary(values):
    return {"workloads": {"w": {"metrics": values}}}


def test_compare_verdicts():
    spec = {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": 0.1}
            for name, unit, better in (
                ("read_p50_s", "s", "lower"),
                ("read_p90_s", "s", "lower"),
                ("ops_per_s", "1/s", "higher"),
            )
        ]
    }
    base = {
        "read_p50_s": [1.0, 1.01, 0.99, 1.0],
        "read_p90_s": [2.0, 2.6, 1.5, 2.1],
        "ops_per_s": [10.0, 10.1, 9.9, 10.0],
        "facts_derived_per_read": [5.0, 5.0, 5.0, 5.0],
        "error_rate": [0.0, 0.0, 0.0, 0.0],
    }
    rows, broken = compare.compare(_summary(base), _summary(base), spec)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert not broken
    assert verdicts == {
        "read_p50_s": "unchanged",
        "read_p90_s": "unresolved",  # its own quartiles are wider than 10%
        "ops_per_s": "unchanged",
        "facts_derived_per_read": "identical",
        "error_rate": "unchanged",
    }
    worse = dict(
        base,
        read_p50_s=[1.3, 1.31, 1.29, 1.3],
        ops_per_s=[8.0, 8.1, 7.9, 8.0],
        facts_derived_per_read=[5.0, 5.0, 5.0, 6.0],
        error_rate=[0.0, 0.0, 0.01, 0.0],
    )
    rows, broken = compare.compare(_summary(base), _summary(worse), spec)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert broken
    assert verdicts["read_p50_s"] == "WORSE"
    assert verdicts["ops_per_s"] == "WORSE"
    assert verdicts["facts_derived_per_read"] == "CHANGED"
    assert verdicts["error_rate"] == "ROSE"
    assert "WORSE" in compare.render(rows)
