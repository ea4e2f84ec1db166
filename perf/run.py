#!/usr/bin/env python3
"""The repo's benchmark: four workloads, host-calibrated, one command.

    python3 perf/run.py                      # all four workloads, one run each
    python3 perf/run.py --workload point-tree --seed 3 --seconds 15 --trace 0
    python3 perf/run.py --workload point-tree --seed 3 --seconds 15 --trace 1
    python3 perf/run.py --runs 5 --out perf/out/mine.json   # for compare.py
    python3 perf/run.py --sets 2 --runs 5    # A/A check of the same code

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Every run also prints ``workload/metric value unit``
lines and writes a full record (raw and calibrated values, sample counts,
p99, served-class shares, host calibration) under ``perf/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        "perf/run.py: src/repro is missing; run from a checkout of the "
        "repository\n"
    )
    raise SystemExit(2)
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(PERF_DIR))

import calib  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: set-ups per run; a build under a second (every workload but point-tree)
#: is mostly process and import noise, so those are repeated more
SETUP_BUILDS = 3
CHEAP_SETUP_BUILDS = 7


# ----------------------------------------------------------------------
# the timed section
# ----------------------------------------------------------------------
class Sample:
    """One executed op: where it ran, how long the caller waited."""

    __slots__ = ("stream", "index", "op", "raw", "slice", "outcome")

    def __init__(self, stream, index, op, raw, slice_, outcome):
        self.stream = stream
        self.index = index
        self.op = op
        self.raw = raw
        self.slice = slice_
        self.outcome = outcome


def _execute(client, op: wl.Op) -> Tuple[float, wl.Outcome]:
    started = time.perf_counter()
    try:
        return client.execute(op)
    except Exception as exc:  # a failed op is a result, not a crash
        return time.perf_counter() - started, wl.Outcome(
            False, error=f"{type(exc).__name__}: {exc}"
        )


def timed_section(inst: wl.Instance, target):
    """Run every stream of ``inst`` closed-loop, slice by slice.

    Each stream runs on its own thread; between slices all of them are
    parked at a barrier while the main thread times a calibration burst, so
    no op is in flight during a burst.  Returns the samples, the wall time
    of each slice and the bursts around them (one more than slices).
    """
    clients = target.clients(len(inst.streams))
    sliced = [calib.split_slices(stream) for stream in inst.streams]
    n_slices = max(len(slices) for slices in sliced)
    barrier = threading.Barrier(len(clients) + 1)
    samples: List[List[Sample]] = [[] for _ in clients]

    def worker(which: int) -> None:
        client, slices, out = clients[which], sliced[which], samples[which]
        index = 0
        try:
            for number in range(n_slices):
                barrier.wait()
                for op in slices[number] if number < len(slices) else ():
                    raw, outcome = _execute(client, op)
                    out.append(
                        Sample(which, index, op, raw, number, outcome)
                    )
                    index += 1
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException:
            barrier.abort()
            raise

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"perf-client-{i}")
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    bursts = [calib.burst()]
    walls = []
    try:
        for _ in range(n_slices):
            barrier.wait()
            started = time.perf_counter()
            barrier.wait()
            walls.append(time.perf_counter() - started)
            bursts.append(calib.burst())
    except threading.BrokenBarrierError:
        raise RuntimeError("a client thread died mid-run") from None
    finally:
        for thread in threads:
            thread.join()
    return [s for stream in samples for s in stream], walls, bursts


def setup_builds(generate, seed: int, seconds: float, smoke: bool):
    """Build the system under test 3 times (7 when cheap); keep the last.

    A build is input generation, construction (parse, materialize or server
    launch), warm-up ops and a collection.  Each is timed between two
    bursts; the previous build is released and collected before the next.
    """
    raws, cals = [], []
    inst = target = None
    builds = SETUP_BUILDS
    while len(raws) < builds:
        if target is not None:
            target.close()
            inst = target = None
            gc.collect()

        def one_build():
            generated = generate(seed, seconds, smoke)
            return generated, wl.build(generated)

        (inst, target), raw, cal = calib.calibrated(one_build)
        raws.append(raw)
        cals.append(cal)
        if raw < 1.0:
            builds = CHEAP_SETUP_BUILDS
    return inst, target, raws, cals


def check_samples(inst: wl.Instance, samples: List[Sample], target):
    """Failed ops (exceptions, refused, wrong route, wrong answer)."""
    failures: List[str] = []
    answers = {}
    for s in samples:
        if not s.outcome.ok:
            failures.append(f"op {s.stream}:{s.index} {s.outcome.error}")
        elif s.op.expect is not None and s.outcome.rows != s.op.expect:
            failures.append(f"op {s.stream}:{s.index} {s.op.query}: wrong answer")
        elif s.op.check:
            answers[(s.stream, s.index)] = s.outcome.rows
    failures.extend(wl.oracle_failures(inst, answers, target))
    if not target.consistent():
        failures.append("maintained views diverged from a cold evaluation")
    return failures


def end_to_end(samples, walls, bursts, setup_cal, peak_rss, failures):
    """The run's metrics: contract names first, extras after."""
    scales = [
        calib.scale_between(bursts[i], bursts[i + 1])
        for i in range(len(walls))
    ]
    metrics: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for kind in ("read", "write"):
        chosen = [s for s in samples if s.op.kind == kind]
        counts[kind] = len(chosen)
        cal_values = [s.raw * scales[s.slice] for s in chosen]
        raw_values = [s.raw for s in chosen]
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            metrics[f"{kind}_{label}_s"] = calib.percentile(cal_values, q)
            raw[f"{kind}_{label}_s"] = calib.percentile(raw_values, q)
    metrics["ops_per_s"] = len(samples) / sum(
        wall * scale for wall, scale in zip(walls, scales)
    )
    raw["ops_per_s"] = len(samples) / sum(walls)
    metrics["setup_s"] = statistics.median(setup_cal)
    metrics["peak_rss_mib"] = peak_rss
    reads = [s for s in samples if s.op.kind == "read"]
    if any(s.outcome.facts_derived for s in reads):
        metrics["facts_derived_per_read"] = sum(
            s.outcome.facts_derived for s in reads
        ) / len(reads)
        metrics["tuples_scanned_per_read"] = sum(
            s.outcome.tuples_scanned for s in reads
        ) / len(reads)
    metrics["error_rate"] = min(1.0, len(failures) / len(samples))
    metrics["host_calib_s"] = statistics.median(bursts)
    return metrics, raw, counts


def served_shares(samples) -> Dict[str, float]:
    reads = [s for s in samples if s.op.kind == "read" and s.outcome.served]
    shares: Dict[str, float] = {}
    for s in reads:
        shares[s.outcome.served] = shares.get(s.outcome.served, 0) + 1
    return {k: v / len(reads) for k, v in sorted(shares.items())}


# ----------------------------------------------------------------------
# one run of one workload (this process)
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "c_ref_s": calib.C_REF,
    }


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER):
        if name in table:
            return table[name]["unit"]
    # the rest (p99s, work counters, error_rate, workload-specific layers)
    # is printed and recorded but is not part of BENCHMARK.json
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_rate", "_over_serial")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    """One untraced run: the end-to-end metrics and the full record."""
    inst, target, setup_raw, setup_cal = setup_builds(
        wl.WORKLOADS[name], seed, seconds, smoke
    )
    try:
        samples, walls, bursts = timed_section(inst, target)
        peak_rss = target.peak_rss_mib()
        failures = check_samples(inst, samples, target)
        server_stats = target.stats() if inst.served else None
    finally:
        target.close()
    metrics, raw, counts = end_to_end(
        samples, walls, bursts, setup_cal, peak_rss, failures
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": 0,
        "host": fingerprint(),
        "schedule": inst.schedule_digest(),
        "attempted": len(samples),
        "failed": min(len(failures), len(samples)),
        "failures": failures[:20],
        "samples": counts,
        "timed_section_s": sum(walls),
        "metrics": metrics,
        "raw": dict(raw, setup_s=statistics.median(setup_raw)),
        "setup_builds_s": setup_cal,
        "bursts_s": bursts,
        "served_shares": served_shares(samples),
        "server_stats": server_stats,
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    import layers

    metrics, extra, attempted, failures, spans_path = layers.trace_workload(
        wl.WORKLOADS[name], seed, seconds, smoke
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": 1,
        "host": fingerprint(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": dict(metrics, **extra),
        "spans_file": spans_path,
    }


def emit(record: Dict, contract: Dict[str, Dict]) -> None:
    """Print the metric lines, write the record, end with the JSON line."""
    name = record["workload"]
    for metric, value in record["metrics"].items():
        print(f"{name}/{metric} {value:.6g} {unit_of(metric)}")
    for kind, count in record.get("samples", {}).items():
        print(f"{name}/{kind}_samples {count} count")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"run-{name}-s{record['seed']}-t{record['trace']}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    missing = [m for m in contract if m not in record["metrics"]]
    if missing:
        raise SystemExit(f"{name}: metrics not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m: {
                        "value": record["metrics"][m],
                        "unit": contract[m]["unit"],
                    }
                    for m in contract
                },
            }
        )
    )


# ----------------------------------------------------------------------
# many runs: each workload in its own process
# ----------------------------------------------------------------------
def child_run(name, seed, seconds, smoke, trace) -> Dict:
    command = [
        sys.executable, str(PERF_DIR / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"{name}: run exited with {done.returncode}")
    path = OUT_DIR / f"run-{name}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


def summarise(records: List[Dict], traces: Dict[str, Dict]) -> Dict:
    """The file compare.py reads: per workload and metric, every run's
    value; plus one traced breakdown per workload when there is one."""
    out: Dict[str, Dict] = {}
    for record in records:
        entry = out.setdefault(
            record["workload"],
            {"metrics": {}, "seeds": [], "samples": record["samples"]},
        )
        entry["seeds"].append(record["seed"])
        for metric, value in record["metrics"].items():
            entry["metrics"].setdefault(metric, []).append(value)
    for name, record in traces.items():
        out[name]["per_layer"] = record["metrics"]
    return {"host": fingerprint(), "claim": None, "workloads": out}


def many_runs(args) -> int:
    import compare

    names = list(wl.WORKLOADS)
    sets: List[List[Dict]] = [[] for _ in range(args.sets)]
    for run in range(args.runs):
        for records in sets:
            for name in names:
                records.append(
                    child_run(name, args.seed + run, args.seconds, args.smoke, 0)
                )
    traces = (
        {
            name: child_run(name, args.seed, args.seconds, args.smoke, 1)
            for name in names
        }
        if args.runs > 1
        else {}
    )
    summaries = [summarise(records, traces) for records in sets]
    out = Path(args.out) if args.out else OUT_DIR / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summaries[0], indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    failed = any(r["failed"] for records in sets for r in records)
    if args.sets < 2:
        return 1 if failed else 0
    rows, broken = compare.compare(summaries[0], summaries[1], SPEC)
    print(compare.render(rows))
    aa = OUT_DIR / "aa.json"
    aa.write_text(
        json.dumps(
            {"host": fingerprint(), "rows": rows, "sets": summaries},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {aa}")
    return 1 if broken or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs, for perf/test_perf.py; not comparable",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="without --workload: runs per workload, seeds seed..seed+runs-1",
    )
    parser.add_argument(
        "--sets", type=int, default=1, choices=(1, 2),
        help="2: two interleaved sets of the same code, compared (A/A)",
    )
    parser.add_argument("--out", help="where --runs writes its summary")
    args = parser.parse_args(argv)
    if args.workload is None:
        return many_runs(args)
    if args.trace:
        record = run_traced(args.workload, args.seed, args.seconds, args.smoke)
        emit(record, PER_LAYER)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, args.smoke)
        emit(record, END_TO_END)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
