"""Host calibration and the statistics every perf/ module shares.

The container this benchmark was sized on switches between a fast and a
slow regime every 0.3 to 3 seconds (a fixed integer loop takes 2.7 ms in
one and 3.5 ms in the other; CPU time tracks wall time, so it is host
speed, not scheduling), and for tens of seconds at a time its memory slows
down as well: the same reads then take 30 to 40% longer.  Latencies follow
a fixed kernel almost in proportion (log-log slope 0.8 to 0.9).  Every
timed section is therefore cut into 100 short slices, the kernel is timed
before the first slice and after each one, and each latency is multiplied
by ``C_REF / mean(burst before, burst after)``: seconds as the seed host
would have measured them.  Pairing each op with the bursts right next to
it is what counts: scaled by one factor per second-long slice, a p50
ranged 5% over four 15 s windows of one process; scaled op by op, 1.8%.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: the seed host's median burst (seconds); the one calibration constant.
#: BENCHMARK.json admits no key for it, so it lives here.
C_REF = 0.0040

#: slices per timed section (a burst on either side of each): 100 to 250 ms
#: of ops apiece at the seed commit, shorter than the host's regimes
SLICES = 100

_TABLE_SIZE = 1 << 17
_STEPS = 3_000

#: a hash table well past the 4 MiB L2, keyed by tuples of ints as the
#: engine's own row maps are
_TABLE = {(i, i * 7919 % _TABLE_SIZE): i for i in range(_TABLE_SIZE)}


class _Kernel:
    """Fixed work: integer arithmetic, tuple building and hash probes.

    Each run walks its own stretch of a scattered key sequence, so the
    probes find the table as cold as the program left it; a loop that
    re-probed the same keys would run from L2 and miss the slow-memory
    regime.  An integer loop alone tracks the program less well: over
    twelve 12 s windows of one process a read p50 divided by it ranged 7
    to 12%, divided by integer work and cold probes together 4 to 7%
    (raw: 27 to 36%).
    """

    def __init__(self) -> None:
        self._at = 1

    def run(self) -> float:
        """Seconds one run of the kernel takes."""
        table, size = _TABLE, _TABLE_SIZE
        j, x, found = self._at, 0, []
        started = time.perf_counter()
        for _ in range(_STEPS):
            j = (j * 48273 + 11) % size  # full period: every key in turn
            value = table.get((j, j * 7919 % size))
            x = (x + value * value) & 0xFFFF
            found.append((value, x))
        elapsed = time.perf_counter() - started
        self._at = j
        return elapsed


_KERNEL = _Kernel()


def burst(runs: int = 3) -> float:
    """Median seconds of ``runs`` runs of the fixed kernel (3 ms each)."""
    return statistics.median(_KERNEL.run() for _ in range(runs))


def scale_between(before: float, after: float) -> float:
    """The factor that turns raw seconds into seed-host seconds."""
    return C_REF / ((before + after) / 2.0)


def calibrated(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``fn`` between two 7-run bursts: (result, raw s, calibrated s)."""
    before = burst(7)
    started = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - started
    return result, raw, raw * scale_between(before, burst(7))


def split_slices(items: Sequence, slices: int = SLICES) -> List[Sequence]:
    """``items`` cut into ``slices`` contiguous runs of near-equal length."""
    slices = max(1, min(slices, len(items)))
    base, extra = divmod(len(items), slices)
    out, start = [], 0
    for i in range(slices):
        end = start + base + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
