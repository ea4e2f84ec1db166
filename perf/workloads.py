"""The four workloads: generated inputs, op streams, targets and oracles.

A workload is generated from a seed as plain text: one ``.dl`` source and
streams of :class:`Op` strings.  The program under test only ever sees that
text -- through :class:`repro.Session` (``point-tree``, ``samegen-fixpoint``,
``bom-churn``) or through a ``repro serve`` subprocess and
:class:`repro.server.ReproClient` connections (``serve-mixed``).

Constants are lowercase on purpose: ``repro.workloads.samegen`` emits
``L0_3``, which the parser reads as a *variable* once rendered to text.
Every build asserts that the parsed fact count equals the generated one.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro import Session
from repro.server import ReproClient
from repro.workloads import (
    ANCESTOR,
    NONLINEAR_SAMEGEN,
    bom_exceptions,
    bom_parts,
    bom_source,
    bom_subpart_edges,
    samegen_edges,
)

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

#: op counts below are sized so a timed section lasts about this long at
#: the seed commit; ``--seconds`` scales them linearly
NOMINAL_SECONDS = 15

Rows = FrozenSet[Tuple[object, ...]]


@dataclass
class Op:
    """One operation, as text.  ``cls`` names the op class a read belongs
    to (``cold`` must not come from a memo, ``view`` must be served from a
    maintained view, ``hot`` may come from anywhere)."""

    kind: str  # "read" | "write"
    cls: str  # "cold" | "hot" | "view" | "move"
    query: str = ""
    method: str = "auto"
    retract: str = ""
    assert_: str = ""
    #: the exact answer, when the generator can know it (point-tree)
    expect: Optional[Rows] = None
    #: keep the answer so the post-run oracle replay can compare it
    check: bool = False


@dataclass
class Outcome:
    """What one executed op produced, reduced to what the checks need."""

    ok: bool
    served: str = ""
    rows: Optional[Rows] = None
    facts_derived: int = 0
    tuples_scanned: int = 0
    error: str = ""


@dataclass
class Instance:
    workload: str
    seed: int
    source: str
    #: distinct facts the generator rendered into ``source``
    fact_count: int
    #: one op stream per client connection (Session workloads have one)
    streams: List[List[Op]]
    warmup: List[Op]
    materialize: bool = False
    served: bool = False
    #: queries answered after the load and compared with a replay oracle
    final_checks: List[Op] = field(default_factory=list)

    def schedule_digest(self) -> str:
        """A stable fingerprint of the op schedule (for the repeat test)."""
        h = hashlib.sha256(self.source.encode())
        for stream in self.streams:
            for op in stream:
                h.update(
                    f"{op.kind}|{op.cls}|{op.query}|{op.method}|"
                    f"{op.retract}|{op.assert_}\n".encode()
                )
        return h.hexdigest()[:16]


def _level(level: int) -> range:
    """Heap indexes of one level of a complete binary tree."""
    return range(2**level - 1, 2 ** (level + 1) - 1)


def _count(nominal: int, seconds: float, floor: int) -> int:
    return max(floor, round(nominal * seconds / NOMINAL_SECONDS))


# ----------------------------------------------------------------------
# point-tree
# ----------------------------------------------------------------------
def generate_point_tree(seed: int, seconds: float, smoke: bool) -> Instance:
    """ANCESTOR over a complete binary tree; distinct bound point queries.

    Every read is a memo miss on a fresh constant, so the cost is the
    per-query front end (adorn, rewrite, seed, copy, index build) over a
    large EDB with a 30-node cone.  After every 2nd read one leaf is
    re-parented, so anything retained across queries has to survive writes.
    """
    depth = 9 if smoke else 15
    query_level = depth - 4
    reads = _count(300, seconds, 8)
    rng = random.Random(seed)
    nodes = 2 ** (depth + 1) - 1
    parent = {c: (c - 1) // 2 for c in range(1, nodes)}
    children: Dict[int, set] = {}
    for c, p in parent.items():
        children.setdefault(p, set()).add(c)
    lines = [ANCESTOR.strip()]
    lines.extend(f"par(t{p}, t{c})." for c, p in parent.items())

    def descendants(root: int) -> Rows:
        out, stack = [], list(children.get(root, ()))
        while stack:
            node = stack.pop()
            out.append((f"t{node}",))
            stack.extend(children.get(node, ()))
        return frozenset(out)

    candidates = list(_level(query_level))
    picks = rng.sample(candidates, min(reads + 1, len(candidates)))
    warm, picks = picks[0], picks[1:]
    leaves = list(_level(depth))
    new_parents = list(_level(depth - 1))
    ops: List[Op] = []
    for i, k in enumerate(picks):
        ops.append(
            Op("read", "cold", query=f"anc(t{k}, Y)?", expect=descendants(k))
        )
        if i % 2 == 1:
            leaf = rng.choice(leaves)
            old = parent[leaf]
            new = rng.choice(new_parents)
            while new == old:
                new = rng.choice(new_parents)
            ops.append(
                Op(
                    "write",
                    "move",
                    retract=f"par(t{old}, t{leaf})",
                    assert_=f"par(t{new}, t{leaf})",
                )
            )
            parent[leaf] = new
            children[old].discard(leaf)
            children.setdefault(new, set()).add(leaf)
    return Instance(
        "point-tree",
        seed,
        "\n".join(lines) + "\n",
        nodes - 1,
        [ops],
        [Op("read", "cold", query=f"anc(t{warm}, Y)?")],
    )


# ----------------------------------------------------------------------
# samegen-fixpoint
# ----------------------------------------------------------------------
def generate_samegen(seed: int, seconds: float, smoke: bool) -> Instance:
    """Nonlinear same-generation on layered data; every read is cold.

    A write rewires one ``flat`` edge before each read, so the memo never
    serves and the fixpoint (planner, engine, dedup, index probes) does
    nearly all the work: the mirror image of point-tree.
    """
    layers, width, flat_edges = (4, 8, 8) if smoke else (7, 32, 32)
    reads = _count(200, seconds, 8)
    rng = random.Random(seed)
    edges = samegen_edges(layers, width, flat_edges, seed)
    facts = {
        rel: {(a.lower(), b.lower()) for a, b in pairs}
        for rel, pairs in edges.items()
    }
    lines = [NONLINEAR_SAMEGEN.strip()]
    for rel in ("up", "flat", "down"):
        lines.extend(f"{rel}({a}, {b})." for a, b in sorted(facts[rel]))
    flat = sorted(facts["flat"])
    live = set(flat)
    ops: List[Op] = []
    for i in range(reads):
        j = rng.randrange(len(flat))
        a, b = flat[j]
        layer = a.split("_")[0]
        new = f"{layer}_{rng.randrange(width)}"
        while (a, new) in live:
            new = f"{layer}_{rng.randrange(width)}"
        ops.append(
            Op(
                "write",
                "move",
                retract=f"flat({a}, {b})",
                assert_=f"flat({a}, {new})",
            )
        )
        live.discard((a, b))
        live.add((a, new))
        flat[j] = (a, new)
        ops.append(
            Op(
                "read",
                "cold",
                query=f"sg(l0_{i % width}, Y)?",
                check=i % 20 == 0,
            )
        )
    return Instance(
        "samegen-fixpoint",
        seed,
        "\n".join(lines) + "\n",
        sum(len(rows) for rows in facts.values()),
        [ops],
        [Op("read", "cold", query="sg(l0_0, Y)?")],
    )


# ----------------------------------------------------------------------
# bom-churn and serve-mixed share the BOM data
# ----------------------------------------------------------------------
def _bom_fact_count(depth: int, rate: float, seed: int) -> int:
    return (
        len(bom_subpart_edges(depth, 2))
        + len(bom_parts(depth, 2))
        + len(bom_exceptions(depth, 2, rate, seed))
    )


class _BomMover:
    """Moves parts of one level under other parents of the level above,
    tracking the current parent so every retract names a live fact."""

    def __init__(self, depth: int, level: int, rng: random.Random):
        nodes = 2 ** (depth + 1) - 1
        self.parent = {c: (c - 1) // 2 for c in range(1, nodes)}
        self.parents = list(_level(level - 1))
        self.rng = rng

    def move(self, part: int) -> Op:
        old = self.parent[part]
        new = self.rng.choice(self.parents)
        while new == old:
            new = self.rng.choice(self.parents)
        self.parent[part] = new
        return Op(
            "write",
            "move",
            retract=f"subpart(p{old}, p{part})",
            assert_=f"subpart(p{new}, p{part})",
        )


def generate_bom_churn(seed: int, seconds: float, smoke: bool) -> Instance:
    """The write path: in-place IVM under a stream of subtree moves.

    Four writes, then one view-served read.  Each write is one batch (one
    DRed delete plus one semi-naive insert through 4 strata), so the write
    class is homogeneous.
    """
    depth = 7 if smoke else 11
    total = _count(1250, seconds, 20)
    rng = random.Random(seed)
    mover = _BomMover(depth, depth - 3, rng)
    movable = list(_level(depth - 3))
    readable = list(_level(depth - 6))
    ops: List[Op] = []
    reads = 0
    for i in range(total):
        if i % 5 == 4:
            q = rng.choice(readable)
            ops.append(
                Op(
                    "read",
                    "view",
                    query=f"clean(p{q}, S)?",
                    check=reads % 40 == 0,
                )
            )
            reads += 1
        else:
            ops.append(mover.move(rng.choice(movable)))
    return Instance(
        "bom-churn",
        seed,
        bom_source(depth, 2, 0.05, seed),
        _bom_fact_count(depth, 0.05, seed),
        [ops],
        [Op("read", "view", query="clean(p1, S)?")],
        materialize=True,
    )


def generate_serve_mixed(seed: int, seconds: float, smoke: bool) -> Instance:
    """Protocol, scheduler, snapshots and transport under a mixed load.

    Two closed-loop connections; per connection 8% writes (retract then
    assert, timed as one op), 30% hot reads (4 fixed texts), 30% cold reads
    (``supplementary_magic`` bypasses the views) and 32% view reads.
    """
    depth = 6 if smoke else 9
    per_conn = _count(1250, seconds, 25)
    read_level = depth - 4
    hot = [f"component(p{q}, S)?" for q in list(_level(read_level))[:4]]
    readable = list(_level(read_level))
    streams: List[List[Op]] = []
    movers = []
    for conn in range(2):
        rng = random.Random(seed * 2 + conn)
        mover = _BomMover(depth, depth - 1, rng)
        owned = [c for c in _level(depth - 1) if c % 2 == conn]
        writes = round(per_conn * 0.08)
        hots = round(per_conn * 0.30)
        colds = round(per_conn * 0.30)
        classes = (
            ["move"] * writes
            + ["hot"] * hots
            + ["cold"] * colds
            + ["view"] * (per_conn - writes - hots - colds)
        )
        rng.shuffle(classes)
        ops: List[Op] = []
        for cls in classes:
            if cls == "move":
                ops.append(mover.move(rng.choice(owned)))
            elif cls == "hot":
                ops.append(Op("read", "hot", query=rng.choice(hot)))
            elif cls == "cold":
                ops.append(
                    Op(
                        "read",
                        "cold",
                        query=f"component(p{rng.choice(readable)}, S)?",
                        method="supplementary_magic",
                    )
                )
            else:
                ops.append(
                    Op(
                        "read",
                        "view",
                        query=f"clean(p{rng.choice(readable)}, S)?",
                    )
                )
        streams.append(ops)
        movers.append(mover)
    rng = random.Random(seed)
    final = []
    for i in range(20):
        q = rng.choice(readable)
        if i % 2:
            final.append(Op("read", "view", query=f"clean(p{q}, S)?"))
        else:
            final.append(
                Op(
                    "read",
                    "cold",
                    query=f"component(p{q}, S)?",
                    method="supplementary_magic",
                )
            )
    return Instance(
        "serve-mixed",
        seed,
        bom_source(depth, 2, 0.05, seed),
        _bom_fact_count(depth, 0.05, seed),
        streams,
        [
            Op("read", "view", query="clean(p1, S)?"),
            Op(
                "read",
                "cold",
                query="component(p1, S)?",
                method="supplementary_magic",
            ),
        ],
        materialize=True,
        served=True,
        final_checks=final,
    )


#: name -> generator ``(seed, seconds, smoke) -> Instance``; why each
#: exists is in BENCHMARK.json and perf/README.md
WORKLOADS: Dict[str, Callable[[int, float, bool], Instance]] = {
    "point-tree": generate_point_tree,
    "samegen-fixpoint": generate_samegen,
    "bom-churn": generate_bom_churn,
    "serve-mixed": generate_serve_mixed,
}


# ----------------------------------------------------------------------
# targets: the system under test, behind execute(op)
# ----------------------------------------------------------------------
def _route_error(op: Op, cached: bool, from_view: bool) -> str:
    """Why a read took a route its class forbids ("" when it did not)."""
    if op.cls == "cold" and cached:
        return "cold read served from a memo or a view"
    if op.cls == "view" and not from_view:
        return "view read not served from a maintained view"
    return ""


def apply_write(session: Session, op: Op) -> Tuple[bool, bool]:
    """One write op: retract and assert in one batch (one maintenance pass)."""
    with session.batch():
        return session.retract(op.retract), session.assert_(op.assert_)


class SessionTarget:
    """An in-process :class:`repro.Session` built from the instance text."""

    def __init__(self, inst: Instance):
        self.session = Session(inst.source)
        parsed = self.session.database.total_facts()
        if parsed != inst.fact_count:
            raise RuntimeError(
                f"{inst.workload}: parsed {parsed} facts, generated "
                f"{inst.fact_count} (an uppercase constant reads as a "
                "variable)"
            )
        self.view = self.session.materialize() if inst.materialize else None
        for op in inst.warmup:
            self.execute(op)
        gc.collect()

    def clients(self, count: int) -> List["SessionTarget"]:
        if count != 1:
            raise ValueError("a Session serves one closed-loop caller")
        return [self]

    def execute(self, op: Op) -> Tuple[float, Outcome]:
        """Run one op; (seconds the caller waited, outcome)."""
        session = self.session
        if op.kind == "write":
            started = time.perf_counter()
            removed, added = apply_write(session, op)
            elapsed = time.perf_counter() - started
            ok = bool(removed) and bool(added)
            return elapsed, Outcome(ok, error="" if ok else "no-op write")
        started = time.perf_counter()
        result = session.query(op.query, method=op.method)
        elapsed = time.perf_counter() - started
        error = _route_error(
            op, result.from_memo or result.maintained, result.maintained
        )
        stats = result.stats
        outcome = Outcome(
            not error,
            served="view"
            if result.maintained
            else ("memo" if result.from_memo else "cold"),
            rows=frozenset(result.values())
            if (op.check or op.expect is not None)
            else None,
            facts_derived=stats.facts_derived if stats else 0,
            tuples_scanned=stats.tuples_scanned if stats else 0,
            error=error,
        )
        # a caller in a loop also pays for releasing the previous answer
        # (two database copies on the cold path), so that is timed too
        started = time.perf_counter()
        del result, stats
        elapsed += time.perf_counter() - started
        return elapsed, outcome

    def consistent(self) -> bool:
        """Every maintained relation equals a cold evaluation (untimed)."""
        if self.view is None:
            return True
        from repro.datalog.engine import evaluate

        session = self.session
        cold = evaluate(session.program, session.database).database
        return all(
            self.view.tuples(pred) == cold.tuples(pred)
            for pred in self.view.predicates
        )

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.session.close()


class _Connection:
    """One blocking ``ReproClient`` connection: the serve-mixed caller."""

    def __init__(self, host: str, port: int):
        self.client = ReproClient(host, port)

    def execute(self, op: Op) -> Tuple[float, Outcome]:
        client = self.client
        if op.kind == "write":
            started = time.perf_counter()
            removed = client.retract_facts([op.retract + "."])
            added = client.assert_facts([op.assert_ + "."])
            elapsed = time.perf_counter() - started
            ok = removed["changed"] == 1 and added["changed"] == 1
            return elapsed, Outcome(ok, error="" if ok else "no-op write")
        options = {} if op.method == "auto" else {"method": op.method}
        started = time.perf_counter()
        reply = client.query(op.query, **options)
        elapsed = time.perf_counter() - started
        served = reply["served"]
        # the server memo is keyed by snapshot version, so a memo or
        # coalesced reply to a cold-class read shares one fresh evaluation;
        # only the method tells a wrong route
        from_view = reply["method"] == "materialized"
        error = _route_error(op, from_view, from_view)
        rows = None
        if op.check or op.expect is not None:
            rows = frozenset(tuple(row) for row in reply["rows"])
        return elapsed, Outcome(not error, served, rows, error=error)

    def close(self) -> None:
        self.client.close()


class ServerTarget:
    """A ``python -m repro serve`` subprocess over the instance text."""

    def __init__(self, inst: Instance):
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{inst.workload}-{os.getpid()}"
        self.source_path = stem.with_suffix(".dl")
        self.log_path = stem.with_suffix(".log")
        self.source_path.write_text(inst.source)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                str(self.source_path), "--port", "0",
                "--materialize", "clean", "--readers", "2",
            ],
            env=env,
            stdout=self._log,
            stderr=self._log,
        )
        self._connections: List[_Connection] = []
        try:
            self.port = self._await_port()
            control = self._connect()
            for op in inst.warmup:
                control.execute(op)
            self.control = control
        except BaseException:
            self.close()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        marker = "listening on "
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            text = self.log_path.read_text()
            if marker in text:
                line = text.split(marker, 1)[1].splitlines()[0]
                return int(line.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError(
            "repro serve did not start: " + self.log_path.read_text()[-400:]
        )

    def _connect(self) -> _Connection:
        connection = _Connection("127.0.0.1", self.port)
        self._connections.append(connection)
        return connection

    def clients(self, count: int) -> List[_Connection]:
        return [self._connect() for _ in range(count)]

    def execute(self, op: Op) -> Tuple[float, Outcome]:
        return self.control.execute(op)

    def stats(self) -> Dict[str, object]:
        return self.control.client.stats()

    def consistent(self) -> bool:
        return True  # the final-state oracle replay covers the views

    def peak_rss_mib(self) -> float:
        """The server's resident high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """Stop the server and wait until it has ended."""
        process = self.process
        try:
            for number, connection in enumerate(self._connections):
                try:
                    if number == 0 and process.poll() is None:
                        connection.client.shutdown()
                    connection.close()
                except OSError:
                    pass
            self._connections = []
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.terminate()
        finally:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            self._log.close()
            self.source_path.unlink(missing_ok=True)
            self.log_path.unlink(missing_ok=True)


def build(inst: Instance):
    """One fresh system under test for ``inst`` (part of ``setup_s``)."""
    return ServerTarget(inst) if inst.served else SessionTarget(inst)


# ----------------------------------------------------------------------
# oracles (all untimed, all after the load)
# ----------------------------------------------------------------------
def oracle_failures(
    inst: Instance, answers: Dict[Tuple[int, int], Rows], target
) -> List[str]:
    """Compare recorded answers with a semi-naive oracle.

    ``answers`` maps ``(stream, op index)`` to the rows a checked read
    returned.  Single-stream workloads are replayed op by op on a fresh
    unmaterialized Session.  Two streams interleave unpredictably, so there
    the *final* state is checked: both write logs are replayed (they touch
    disjoint facts) and ``inst.final_checks`` are asked of the target.
    """
    failures: List[str] = []
    if not inst.final_checks and not any(
        op.check for stream in inst.streams for op in stream
    ):
        return failures
    oracle = Session(inst.source)
    if oracle.database.total_facts() != inst.fact_count:
        failures.append("oracle parsed a different fact count")

    def expected(op: Op) -> Rows:
        return frozenset(oracle.query(op.query, method="seminaive").values())

    if len(inst.streams) == 1:
        for index, op in enumerate(inst.streams[0]):
            if op.kind == "write":
                apply_write(oracle, op)
            elif op.check:
                got = answers.get((0, index))
                if got is not None and got != expected(op):
                    failures.append(f"op {index} {op.query}: wrong answer")
    else:
        for stream in inst.streams:
            for op in stream:
                if op.kind == "write":
                    apply_write(oracle, op)
    for op in inst.final_checks:
        _, outcome = target.execute(
            Op(op.kind, op.cls, op.query, op.method, check=True)
        )
        if not outcome.ok or outcome.rows != expected(op):
            failures.append(f"final {op.query}: wrong answer")
    oracle.close()
    return failures
