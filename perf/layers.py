"""The traced run: per-layer metrics from spans the benchmark records itself.

Nothing in ``src/`` is instrumented.  A sample of a workload's ops is
replayed on in-process Sessions built from the same text, in four passes:

* A: untraced, for the base of ``trace.overhead_ratio``;
* B: traced, one span around each op, collector pauses recorded as child
  spans through ``gc.callbacks``;
* C: staged -- each read's cold path re-enacted call by call through the
  layers' public functions (``parse_query``, ``adorn_program``, ``rewrite``,
  ``seeded_database``, ``evaluate``, ``extract_answers``), one span each,
  plus isolated probes (``Database.copy``, ``compiled_program_for``,
  ``CompiledProgram.register_indexes``) and a shadow database that
  receives the same writes directly;
* D: a tenth of the reads through the other rewrites and QSQ.

Spans are ``[name, start, end, parent, op, scale]`` rows kept in memory and
written to ``perf/out/`` at exit.  A calibration burst follows every op, so
span durations are scaled like latencies.  Every reported time is a span's
*busy* time, its scaled duration minus the collector pauses inside it;
``runtime.gc_pause_s`` reports those on their own.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.adornment import adorn_program
from repro.core.pipeline import rewrite
from repro.core.sips import build_full_sip
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.ivm import MaterializedProgram
from repro.datalog.parser import parse_literal, parse_program, parse_query
from repro.datalog.planner import compiled_program_for

import calib
import workloads as wl

COLD_METHOD = "supplementary_magic"


class Tracer:
    """In-memory spans with parent links, and collector pauses as spans.

    A span is ``[name, start, end, parent, op, scale]``; ``scale`` is the
    host calibration of :mod:`calib`, set by :meth:`calibrate` from the
    bursts on either side of the op the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._gc_started = 0.0
        self._scaled = 0
        self._last_burst = calib.burst()

    def calibrate(self) -> float:
        """Time a burst and scale every span recorded since the last call by
        the bursts on either side of them; returns that scale."""
        burst = calib.burst()
        scale = calib.scale_between(self._last_burst, burst)
        for row in self.spans[self._scaled:]:
            row[5] = scale
        self._scaled = len(self.spans)
        self._last_burst = burst
        return scale

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        row = [name, 0.0, 0.0, parent, op, 1.0]
        self.spans.append(row)
        self._stack.append(index)
        row[1] = time.perf_counter()
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [
                f"runtime.gc{info['generation']}",
                self._gc_started,
                time.perf_counter(),
                parent,
                self.spans[parent][4] if parent >= 0 else None,
                1.0,
            ]
        )

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- analysis ------------------------------------------------------
    @staticmethod
    def seconds(row: list) -> float:
        """A span's calibrated duration."""
        return (row[2] - row[1]) * row[5]

    def busy(self) -> List[float]:
        """Per span: its calibrated duration minus every collector pause
        inside it."""
        pauses = [0.0] * len(self.spans)
        for row in self.spans:
            if not row[0].startswith("runtime.gc"):
                continue
            parent = row[3]
            while parent >= 0:
                pauses[parent] += self.seconds(row)
                parent = self.spans[parent][3]
        return [
            self.seconds(row) - pause
            for row, pause in zip(self.spans, pauses)
        ]

    def means(self) -> Dict[str, float]:
        """Mean busy seconds per span name."""
        totals: Dict[str, List[float]] = {}
        for row, busy in zip(self.spans, self.busy()):
            totals.setdefault(row[0], []).append(busy)
        return {name: sum(v) / len(v) for name, v in totals.items()}

    def write(self, path) -> None:
        path.write_text(
            json.dumps(
                {"columns": ["name", "start", "end", "parent", "op", "scale"],
                 "spans": self.spans}
            )
            + "\n"
        )


def sample_ops(inst: wl.Instance, seconds: float) -> List[wl.Op]:
    """The first 60 reads and 30 writes of stream 0, in stream order.

    Reads past the quota are dropped (that leaves the state untouched);
    writes are never skipped, because each retract names the fact the
    previous write of that part asserted.
    """
    want_reads = max(4, round(60 * seconds / wl.NOMINAL_SECONDS))
    want_writes = max(2, round(30 * seconds / wl.NOMINAL_SECONDS))
    reads = writes = 0
    out: List[wl.Op] = []
    for op in inst.streams[0]:
        if reads >= want_reads and writes >= want_writes:
            break
        if op.kind == "read":
            if reads >= want_reads:
                continue
            reads += 1
        else:
            writes += 1
        out.append(op)
    return out


def _untraced_seconds(inst: wl.Instance, ops: List[wl.Op]) -> float:
    """Calibrated seconds the sample takes with no tracer anywhere."""
    target = wl.SessionTarget(inst)
    total, before = 0.0, calib.burst()
    try:
        for op in ops:
            elapsed = target.execute(op)[0]
            after = calib.burst()
            total += elapsed * calib.scale_between(before, after)
            before = after
        return total
    finally:
        target.close()
        gc.collect()


def _staged_read(tracer, session, op, index, counters, seen) -> List[int]:
    """Re-enact one cold read through the layers' public calls.

    Returns the spans of the stages a Session would have run for this read
    (it caches adorn and rewrite per query literal, so those count only the
    first time a text is seen)."""
    program, database = session.program, session.database
    cache = session.plan_cache
    marks = []
    with tracer.span("read.staged", op=index):
        with tracer.span("parser.parse_query") as s:
            query = parse_query(op.query)
        marks.append(s)
        with tracer.span("adornment.adorn") as s_adorn:
            adorned = adorn_program(program, query, build_full_sip)
        with tracer.span("rewrite.supplementary_magic") as s_rewrite:
            rewritten = rewrite(
                program, query, method=COLD_METHOD, adorned=adorned
            )
        with tracer.span("provenance.seed_db") as s:
            seeded = rewritten.seeded_database(database)
        marks.append(s)
        with tracer.span("engine.evaluate") as s:
            result = evaluate(rewritten.program, seeded, plan_cache=cache)
        marks.append(s)
        with tracer.span("provenance.extract") as s:
            rewritten.extract_answers(result)
        marks.append(s)
    if op.query not in seen:
        seen.add(op.query)
        marks.extend((s_adorn, s_rewrite))
    stats = result.stats
    for name in ENGINE_COUNTERS:
        counters[f"engine.{name}"].append(getattr(stats, name))
    copied = database.total_facts()
    if result.database is not seeded:  # the engine works on its own copy
        copied += seeded.total_facts()
    counters["database.rows_copied_per_read"].append(copied)
    # isolated probes of what seed_db and evaluate do inside
    with tracer.span("database.copy", op=index):
        scratch = database.copy()
    with tracer.span("planner.compile", op=index):
        compiled, hit = compiled_program_for(rewritten.program, cache)
    counters["planner.plan_cache_hit_ratio"].append(1.0 if hit else 0.0)
    with tracer.span("planner.register_indexes", op=index):
        compiled.register_indexes(scratch)
    return marks


#: reads through the other methods, where the program admits them and a
#: read is cheap enough to repeat (counting on samegen takes seconds)
METHOD_PROBES = {
    "point-tree": ("counting", "supplementary_counting", "qsq"),
    "samegen-fixpoint": ("qsq",),
}

#: spans and counters only some workloads produce: reported as extras
EXTRA_SPANS = (
    "rewrite.counting.read", "rewrite.supplementary_counting.read",
    "topdown.qsq.read", "parallel.w2.read", "ivm.initial", "ivm.maintain",
    "session.materialized_relations",
)
EXTRA_COUNTERS = (
    "rewrite.counting.", "rewrite.supplementary_counting.", "topdown.",
    "parallel.", "ivm.",
)

ENGINE_COUNTERS = (
    "iterations", "rule_firings", "facts_derived",
    "duplicate_derivations", "join_probes", "tuples_scanned",
)


def trace_workload(generate, seed: int, seconds: float, smoke: bool):
    """Per-layer metrics for one workload; see the module docstring.

    Returns ``(metrics, extra, attempted, failures, spans path)``:
    ``metrics`` are the names every workload produces (BENCHMARK.json's
    ``per_layer``), ``extra`` what only this workload exercises.
    """
    inst = generate(seed, seconds, smoke)
    ops = sample_ops(inst, seconds)
    if inst.served:
        # the server's memo is keyed by snapshot version, a Session's by
        # query: replayed in-process, a repeated cold text may be a memo hit
        ops = [
            replace(op, cls="hot") if op.cls == "cold" else op for op in ops
        ]
    reads = [i for i, op in enumerate(ops) if op.kind == "read"]
    failures: List[str] = []
    counters: Dict[str, List[float]] = defaultdict(list)
    tracer = Tracer()

    # pass A: untraced, the base of trace.overhead_ratio
    untraced = _untraced_seconds(inst, ops)

    # pass B: the same ops on a fresh build, one span each; collector
    # pauses here are the ones the workload itself sees
    target = wl.SessionTarget(inst)
    session = target.session
    traced = 0.0
    route: Dict[int, str] = {}
    seen_cold: set = set()
    try:
        with tracer:
            tracer.calibrate()
            for index, op in enumerate(ops):
                with tracer.span(f"op.{op.kind}", op=index):
                    elapsed, outcome = target.execute(op)
                route[index] = outcome.served
                if not outcome.ok:
                    failures.append(f"op {index}: {outcome.error}")
                if outcome.served == "cold":
                    _memo_hit(tracer, session, op, index, op.method, failures)
                traced += elapsed * tracer.calibrate()
        pass_b_spans = len(tracer.spans)

        # pass C: staged replays and probes on the state pass B left, and
        # the same writes on a shadow database built from the parsed text
        tracer.calibrate()
        with tracer.span("parser.parse_program"):
            parsed = parse_program(inst.source)
        tracer.calibrate()
        shadow = Database()
        shadow.add_facts(parsed.facts)
        shadow_views = None
        if inst.materialize:
            with tracer.span("ivm.initial"):
                shadow_views = MaterializedProgram(parsed.program, shadow)
        del parsed
        tracer.calibrate()
        seen: set = set()
        staged: Dict[int, List[int]] = {}
        with tracer:
            for index, op in enumerate(ops):
                if op.kind == "write":
                    _shadow_write(
                        tracer, op, index, shadow, shadow_views, session,
                        counters, inst.served,
                    )
                    tracer.calibrate()
                    continue
                staged[index] = _staged_read(
                    tracer, session, op, index, counters, seen
                )
                if route[index] != "cold" and op.query not in seen_cold:
                    # the workload serves this read from a view or a memo:
                    # ask for the cold route (a text's first asking is
                    # cold, nothing writes in this pass), then repeat it
                    seen_cold.add(op.query)
                    with tracer.span("session.query", op=index):
                        session.query(op.query, method=COLD_METHOD)
                    _memo_hit(
                        tracer, session, op, index, COLD_METHOD, failures
                    )
                tracer.calibrate()
            # pass D: a tenth of the sample through the other methods.  QSQ
            # goes last: it registers indexes on the live database, and
            # every later copy of it would carry them
            tenth = [ops[i] for i in reads[::10]]
            methods = ("magic",) + METHOD_PROBES.get(inst.workload, ())
            for method in methods:
                name = "topdown.qsq" if method == "qsq" else f"rewrite.{method}"
                for op in {op.query: op for op in tenth}.values():
                    with tracer.span(f"{name}.read"):
                        result = session.query(op.query, method=method)
                    counters[f"{name}.facts_derived"].append(
                        result.stats.facts_derived
                    )
                    if method == "qsq":
                        counters["topdown.qsq.subqueries"].append(
                            result.qsq.subqueries_generated
                        )
                    del result
                    tracer.calibrate()
                if method == "magic" and inst.workload == "samegen-fixpoint":
                    _parallel_reads(tracer, session, tenth, counters)
        if shadow_views is not None:
            shadow_views.close()
        extra = _server_extras(inst, ops, tracer) if inst.served else {}
    finally:
        target.close()

    spans, busy, means = tracer.spans, tracer.busy(), tracer.means()
    # the cold read as the Session runs it: the workload's own read where
    # that is cold (pass B), else pass C's first asking of the text
    cold_ops = [
        i for i in range(pass_b_spans)
        if spans[i][0] == "op.read" and route[spans[i][4]] == "cold"
    ]
    cold = cold_ops + [
        i for i, row in enumerate(spans) if row[0] == "session.query"
    ]
    query_s = _mean([busy[i] for i in cold])
    self_s = _mean(
        [busy[i] - sum(busy[m] for m in staged[spans[i][4]]) for i in cold]
    )
    # collector pauses the workload itself sees: inside pass B's ops, the
    # writes between the reads included
    pauses = [
        row for row in spans[:pass_b_spans]
        if row[0].startswith("runtime.gc")
        and row[3] >= 0
        and spans[row[3]][0].startswith("op.")
    ]
    metrics = {
        "parser.parse_program_s": means["parser.parse_program"],
        "parser.parse_query_s": means["parser.parse_query"],
        "adornment.adorn_s": means["adornment.adorn"],
        "rewrite.supplementary_magic_s": means["rewrite.supplementary_magic"],
        "rewrite.magic.read_s": means["rewrite.magic.read"],
        "provenance.seed_db_s": means["provenance.seed_db"],
        "provenance.extract_s": means["provenance.extract"],
        "planner.compile_s": means["planner.compile"],
        "planner.register_indexes_s": means["planner.register_indexes"],
        "engine.evaluate_s": means["engine.evaluate"],
        "database.copy_s": means["database.copy"],
        "database.mutate_s": means["database.mutate"],
        "session.query_s": query_s,
        "session.memo_hit_s": means["session.memo_hit"],
        "session.write_s": means["op.write"],
        "runtime.gc_pause_s": sum(map(tracer.seconds, pauses)) / len(reads),
        "runtime.gc2_per_read": sum(r[0] == "runtime.gc2" for r in pauses)
        / len(reads),
        "trace.overhead_ratio": traced / untraced,
    }
    for name in (
        "rewrite.magic.facts_derived", "planner.plan_cache_hit_ratio",
        "database.rows_copied_per_read",
        *(f"engine.{counter}" for counter in ENGINE_COUNTERS),
    ):
        metrics[name] = _mean(counters[name])
    metrics["engine.dup_ratio"] = metrics["engine.duplicate_derivations"] / max(
        1.0, metrics["engine.rule_firings"]
    )

    extra.update(
        {
            "session.staged_s": means["read.staged"],
            # the cold read minus the stages a Session would have run
            "session.self_s": self_s,
            "session.write_self_s": means["op.write"]
            - means["database.mutate"]
            - means.get("ivm.maintain", 0.0),
            "runtime.gc2_pause_s": _mean(
                [tracer.seconds(r) for r in pauses if r[0] == "runtime.gc2"]
            ),
            "parser.parse_fact_s": means["parser.parse_fact"],
            "trace.sample_reads": len(reads),
            "trace.sample_writes": len(ops) - len(reads),
        }
    )
    if not cold_ops:
        extra["session.view_select_s"] = means["op.read"]
    for name in EXTRA_SPANS:
        if name in means:
            extra[name + "_s"] = means[name]
    for name, values in counters.items():
        if name.startswith(EXTRA_COUNTERS):
            extra[name] = _mean(values)
    if "parallel.w2.read" in means:
        extra["parallel.w2_over_serial"] = (
            means["parallel.w2.read"] / means["parallel.serial.read"]
        )

    wl.OUT_DIR.mkdir(exist_ok=True)
    spans_path = wl.OUT_DIR / f"spans-{inst.workload}-s{seed}.json"
    tracer.write(spans_path)
    return metrics, extra, len(ops), failures, str(spans_path)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _shadow_write(
    tracer, op, index, shadow, shadow_views, session, counters, served
):
    """Apply the same write straight to a shadow database (and a shadow
    ``MaterializedProgram``), timing the layers under ``Session.batch``."""
    with tracer.span("parser.parse_fact", op=index):
        old = parse_literal(op.retract)
        new = parse_literal(op.assert_)
    with tracer.span("database.mutate", op=index):
        shadow.retract_fact(old)
        shadow.add_fact(new)
    if shadow_views is None:
        return
    with tracer.span("ivm.maintain", op=index):
        done = shadow_views.maintain()
    counters["ivm.facts_added"].append(done.facts_added)
    counters["ivm.facts_removed"].append(done.facts_removed)
    counters["ivm.rounds"].append(done.rounds)
    counters["ivm.strata_skipped"].append(done.strata_skipped)
    counters["ivm.tuples_scanned"].append(done.stats.tuples_scanned)
    if served:  # what the server's writer publishes after each batch
        with tracer.span("session.materialized_relations", op=index):
            session.materialized_relations()


def _memo_hit(tracer, session, op, index, method, failures) -> None:
    """Repeat a read that was just answered cold: a memo hit."""
    with tracer.span("session.memo_hit", op=index):
        again = session.query(op.query, method=method)
    if not again.from_memo:
        failures.append(f"op {index}: repeat was not a memo hit")


def _parallel_reads(tracer, session, reads, counters) -> None:
    """The same cold reads with ``workers=2`` and serial, side by side."""
    for index, op in enumerate(reads):
        with tracer.span("parallel.w2.read", op=index):
            result = session.query(op.query, method=COLD_METHOD, workers=2)
        counters["parallel.w2.rows_shipped"].append(
            result.stats.parallel_rows_shipped
        )
        del result
        # workers is part of the memo key, so this is a cold serial run
        with tracer.span("parallel.serial.read", op=index):
            session.query(op.query, method=COLD_METHOD)
        tracer.calibrate()


def _server_extras(inst, ops, tracer) -> Dict[str, float]:
    """serve-mixed only: the same sample through an in-process server.

    ``ServerHandle.request`` times scheduler + snapshot + session without a
    socket; the same memo-hit request over TCP gives the transport share;
    the protocol codecs and the snapshot manager are timed directly.
    """
    from repro.server import ReproClient, ServerConfig, ServerHandle
    from repro.server.protocol import (
        decode_line,
        encode_message,
        sorted_rows,
    )
    from repro.server.snapshot import SnapshotManager

    handle = ServerHandle.start(
        inst.source,
        config=ServerConfig(reader_threads=2),
        materialize=["clean"],
    )
    try:
        replies = []
        tracer.calibrate()
        for op in ops:
            if op.kind == "write":
                with tracer.span("scheduler.request.write"):
                    handle.request(
                        {"op": "retract", "facts": [op.retract + "."]}
                    )
                    handle.request(
                        {"op": "assert", "facts": [op.assert_ + "."]}
                    )
            else:
                request = {"op": "query", "query": op.query}
                if op.method != "auto":
                    request["options"] = {"method": op.method}
                with tracer.span("scheduler.request") as span:
                    reply = handle.request(request)
                tracer.spans[span][0] += "." + reply["served"]
                replies.append(reply)
            tracer.calibrate()
        stats = handle.stats()
        # one memoized request, in process and over TCP, side by side
        hot = {"op": "query", "query": replies[0]["query"]}
        with ReproClient(*handle.address) as client:
            client.request(hot)
            for _ in range(200):
                with tracer.span("server.request.in_process"):
                    handle.request(hot)
                with tracer.span("server.request.tcp"):
                    client.request(dict(hot))
                tracer.calibrate()
        for reply in replies:
            with tracer.span("protocol.encode"):
                line = encode_message(reply)
            with tracer.span("protocol.decode"):
                decode_line(line)
            rows = [tuple(row) for row in reply["rows"]]
            with tracer.span("protocol.sorted_rows"):
                sorted_rows(rows)
        session = handle.server.session
        manager = SnapshotManager(session.database)
        for _ in range(50):
            views = session.materialized_relations()
            with tracer.span("snapshot.publish"):
                manager.publish(views)
            with tracer.span("snapshot.current"):
                manager.current().release()
        tracer.calibrate()
    finally:
        handle.close()
    means = tracer.means()
    out = {
        name.replace("request.", "request_s."): mean
        for name, mean in means.items()
        if name.startswith("scheduler.request.")
    }
    out.update(
        {
            "scheduler.memo_hits": stats["memo_hits"],
            "scheduler.view_serves": stats["view_serves"],
            "scheduler.cold_evaluations": stats["cold_evaluations"],
            "scheduler.coalesced": stats["coalesced"],
            "snapshot.published": stats["snapshots_published"],
            "snapshot.live": stats["snapshots_live"],
            "server.transport_s": means["server.request.tcp"]
            - means["server.request.in_process"],
            "protocol.encode_s": means["protocol.encode"],
            "protocol.decode_s": means["protocol.decode"],
            "protocol.sorted_rows_s": means["protocol.sorted_rows"],
            "snapshot.publish_s": means["snapshot.publish"],
            "snapshot.current_s": means["snapshot.current"],
        }
    )
    return out
