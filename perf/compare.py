#!/usr/bin/env python3
"""Compare two summaries written by ``perf/run.py --runs N --out FILE``.

    python3 perf/compare.py perf/baseline/seed.json perf/out/mine.json

One row per workload and metric with each side's median and quartiles.
Exits non-zero when a work counter differs at all, when ``error_rate``
rises, or when a bounded metric of ``BENCHMARK.json`` is worse by more than
its bound.  A metric inside its bound reads ``unresolved`` rather than
``unchanged`` when either side's own quartile spread exceeds the bound:
the runs cannot tell.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402

#: deterministic work counters: any difference fails
EXACT = ("facts_derived_per_read", "tuples_scanned_per_read")


def _row(workload, metric, unit, a: List[float], b: List[float]) -> Dict:
    a_q1, a_med, a_q3 = calib.quartiles(a)
    b_q1, b_med, b_q3 = calib.quartiles(b)
    return {
        "workload": workload,
        "metric": metric,
        "unit": unit,
        "a": [a_q1, a_med, a_q3],
        "b": [b_q1, b_med, b_q3],
        "change": (b_med - a_med) / a_med if a_med else 0.0,
        "bound": None,
        "verdict": "info",
    }


def compare(a: Dict, b: Dict, spec: Dict) -> Tuple[List[Dict], bool]:
    """Rows for every workload and metric both sides have, and whether any
    of them breaks a gate."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    rows: List[Dict] = []
    broken = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a = a["workloads"][workload]["metrics"]
        side_b = b["workloads"][workload]["metrics"]
        for metric, values_a in side_a.items():
            values_b = side_b.get(metric)
            if not values_b:
                continue
            gate = bounded.get(metric)
            unit = gate["unit"] if gate else ""
            row = _row(workload, metric, unit, values_a, values_b)
            if metric in EXACT:
                row["bound"] = 0.0
                same = values_a == values_b
                row["verdict"] = "identical" if same else "CHANGED"
                broken |= not same
            elif metric == "error_rate":
                row["bound"] = 0.0
                rose = max(values_b) > max(values_a)
                row["verdict"] = "ROSE" if rose else "unchanged"
                broken |= rose
            elif gate:
                bound = gate["bound"]
                worse = row["change"]
                if gate["better"] == "higher":
                    worse = -worse
                row["bound"] = bound
                if worse > bound:
                    row["verdict"] = "WORSE"
                    broken = True
                elif worse < -bound:
                    row["verdict"] = "better"
                elif max(calib.spread(values_a), calib.spread(values_b)) > bound:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "unchanged"
            rows.append(row)
    return rows, broken


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload/metric':44} {'A q1':>10} {'A median':>10} {'A q3':>10}"
        f" {'B q1':>10} {'B median':>10} {'B q3':>10} {'change':>8}"
        f" {'bound':>6}  verdict"
    ]
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        cells = " ".join(f"{v:10.4g}" for v in row["a"] + row["b"])
        lines.append(
            f"{row['workload'] + '/' + row['metric']:44} {cells}"
            f" {row['change']:+8.1%} {bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    rows, broken = compare(a, b, spec)
    print(render(rows))
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
