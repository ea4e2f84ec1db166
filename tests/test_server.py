"""The query server (repro.server): MVCC snapshots, scheduling, wire.

Five layers of guarantees:

* **Copy-on-write.**  ``Database.snapshot()`` is O(#relations) and
  shares ``Relation`` objects until a side mutates; the first mutation
  through either database's methods clones the touched relation for
  the mutating side only, and ``check_integrity()`` stays clean on
  both sides throughout.
* **Scheduling.**  Reads run against pinned refcounted snapshots and
  release them on every exit; only cold evaluations reach the reader
  pool; identical in-flight cold queries coalesce into exactly one
  evaluation; mutations serialize through one writer and publish
  atomically; budgets are capped by server config.
* **Snapshot isolation.**  A reader pinned at version V observes
  identical rows before/during/after a concurrent writer advances to
  V+1 -- across compiled semi-naive, supplementary-magic, and
  view-served paths, including a hypothesis property over random
  mutation scripts.
* **Writer atomicity.**  A mutation batch that fails mid-way (parse
  error, injected fault) is rolled back via the mutation log's
  inverse: the live database returns to its pre-batch state, no new
  version is published, and published snapshots never show a partial
  batch.
* **The wire.**  Request validation, structured errors carrying
  CLI-compatible exit codes, the TCP client, stats, graceful drain,
  oversized request lines and clients that disconnect mid-query.
"""

import contextlib
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from conftest import refcount_only, reference_scan
from repro import PlanCache, parse_program
from repro.datalog import planner
from repro.datalog.database import Database, Relation
from repro.session import Session
from repro.server import (
    ERROR_EXIT_CODES,
    ProtocolError,
    ReproClient,
    ServerConfig,
    ServerError,
    ServerHandle,
    SnapshotManager,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_message,
    normalize_options,
    sorted_rows,
    validate_request,
)
from repro.server.scheduler import MutationScheduler
from repro.workloads import bom_source

ANCESTOR = """
par(john, alice). par(alice, ted). par(ted, zoe).
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
"""

BOM = """
part(engine). part(piston). part(bolt).
sub(engine, piston). sub(piston, bolt).
uses(X, Y) :- sub(X, Y).
uses(X, Z) :- sub(X, Y), uses(Y, Z).
banned(bolt).
ok(X) :- part(X), not banned(X).
"""


def chain_db(depth):
    db = Database()
    db.add_values("par", [(f"n{i}", f"n{i + 1}") for i in range(depth)])
    return db


def _pins(server):
    """References on the current snapshot beyond the manager's own."""
    return server.snapshots._current.refs - 1


# ----------------------------------------------------------------------
# copy-on-write snapshots (Database.snapshot)
# ----------------------------------------------------------------------
class TestCopyOnWrite:
    def test_snapshot_shares_relation_objects(self):
        db = chain_db(3)
        snap = db.snapshot()
        assert snap.get("par") is db.get("par")
        assert snap.version == db.version

    def test_write_clones_only_touched_relation(self):
        db = chain_db(3)
        db.add_values("lab", [("n0", "x")])
        snap = db.snapshot()
        shared_par = snap.get("par")
        db.add_values("par", [("n3", "n4")])
        # par was cloned for the writer; lab is still the same object
        assert db.get("par") is not shared_par
        assert snap.get("par") is shared_par
        assert snap.get("lab") is db.get("lab")

    def test_snapshot_is_frozen_under_writes(self):
        db = chain_db(3)
        snap = db.snapshot()
        before = snap.tuples("par")
        db.add_values("par", [("n3", "n4")])
        db.retract_values("par", [("n0", "n1")])
        assert snap.tuples("par") == before
        assert len(db.get("par")) == 3

    def test_snapshot_side_write_clones_for_snapshot(self):
        db = chain_db(3)
        snap = db.snapshot()
        snap.add_values("par", [("m0", "m1")])
        assert len(snap.get("par")) == 4
        assert len(db.get("par")) == 3
        assert snap.get("par") is not db.get("par")

    def test_integrity_clean_on_both_sides(self):
        db = chain_db(3)
        snap = db.snapshot()
        db.add_values("par", [("n3", "n4")])
        snap.retract_values("par", [("n0", "n1")])
        assert db.check_integrity()
        assert snap.check_integrity()

    def test_chained_snapshots(self):
        db = chain_db(2)
        snap1 = db.snapshot()
        db.add_values("par", [("a", "b")])
        snap2 = db.snapshot()
        db.add_values("par", [("c", "d")])
        assert len(snap1.get("par")) == 2
        assert len(snap2.get("par")) == 3
        assert len(db.get("par")) == 4
        for side in (db, snap1, snap2):
            assert side.check_integrity()

    def test_new_relation_invisible_to_snapshot(self):
        db = chain_db(2)
        snap = db.snapshot()
        db.add_values("extra", [("e",)])
        assert "extra" not in snap
        assert db.check_integrity()

    def test_copy_starts_unshared(self):
        db = chain_db(2)
        snap = db.snapshot()
        dup = db.copy()
        before = dup.get("par")
        dup.add_values("par", [("x", "y")])
        # the copy shares nothing, so its write is in place
        assert dup.get("par") is before
        assert len(snap.get("par")) == len(db.get("par")) == 2
        assert dup.check_integrity()


class TestSnapshotManager:
    def test_refcounting_retires_old_versions(self):
        db = chain_db(2)
        manager = SnapshotManager(db)
        manager.publish()
        first = manager.current()
        assert manager.live_count == 1
        db.add_values("par", [("x", "y")])
        manager.publish()
        # the old version survives while the reader still holds it
        assert manager.live_count == 2
        assert len(first.db.tuples("par")) == 2
        first.release()
        assert manager.live_count == 1

    def test_acquire_after_retire_is_an_error(self):
        db = chain_db(1)
        manager = SnapshotManager(db)
        manager.publish()
        snap = manager.current()
        manager.publish()
        snap.release()
        with pytest.raises(RuntimeError):
            snap.acquire()

    def test_current_tracks_database_version(self):
        db = chain_db(1)
        manager = SnapshotManager(db)
        manager.publish()
        v0 = manager.current_version
        db.add_values("par", [("x", "y")])
        manager.publish()
        assert manager.current_version == v0 + 1


# ----------------------------------------------------------------------
# protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        msg = {"op": "query", "query": "anc(john, X)?", "id": 7}
        assert decode_line(encode_message(msg).strip()) == msg

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_line(b"{nope")
        assert err.value.code == "parse_error"
        assert err.value.exit_code == 2

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            validate_request({"op": "frobnicate"})
        assert err.value.code == "bad_request"

    def test_query_requires_text(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "query", "query": ""})

    def test_facts_must_be_strings(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "assert", "facts": [1, 2]})
        with pytest.raises(ProtocolError):
            validate_request({"op": "retract", "facts": []})

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError) as err:
            normalize_options({"max_fact": 10})
        assert "max_fact" in str(err.value)

    def test_engine_is_not_an_option(self):
        """Rewrites always run semi-naive: a served request cannot pick
        another bottom-up strategy."""
        with pytest.raises(ProtocolError) as err:
            normalize_options({"engine": "naive"})
        assert err.value.code == "bad_request"
        assert "engine" in str(err.value)

    @pytest.mark.parametrize(
        "request_,extra",
        [
            ({"op": "query", "query": "q(X)?", "method": "magic"}, "method"),
            ({"op": "query", "query": "q(X)?", "timeout": 1.0}, "timeout"),
            ({"op": "assert", "facts": ["p(a)."], "query": "q(X)?"}, "query"),
            ({"op": "retract", "facts": ["p(a)."], "options": {}}, "options"),
            ({"op": "stats", "verbose": True}, "verbose"),
            ({"op": "ping", "facts": []}, "facts"),
        ],
    )
    def test_unknown_top_level_field_rejected(self, request_, extra):
        with pytest.raises(ProtocolError) as err:
            validate_request(request_)
        assert err.value.code == "bad_request"
        assert repr(extra) in str(err.value)

    def test_a_misplaced_query_option_points_to_options(self):
        with ServerHandle.start(ANCESTOR, listen=False) as handle:
            handle.request({"op": "query", "query": "anc(john, X)?"})
            out = handle.request(
                {"op": "query", "query": "anc(john, X)?",
                 "method": "supplementary_magic"}
            )
            assert not out["ok"]
            assert out["error"]["code"] == "bad_request"
            assert "'method'" in out["error"]["message"]
            assert '"options"' in out["error"]["message"]

    def test_option_types_checked(self):
        with pytest.raises(ProtocolError):
            normalize_options({"timeout": -1})
        with pytest.raises(ProtocolError):
            normalize_options({"max_facts": True})
        assert normalize_options({"timeout": 2})["timeout"] == 2.0

    @pytest.mark.parametrize("timeout", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_timeout_is_a_bad_request(self, timeout):
        """``json.loads`` reads these literals; a NaN deadline never
        trips, and ``min(nan, cap)`` is NaN, so it would escape a
        server's ``max_timeout``."""
        options = decode_line(f'{{"timeout": {timeout}}}'.encode())
        with pytest.raises(ProtocolError) as err:
            normalize_options(options)
        assert err.value.code == "bad_request"
        assert "finite" in str(err.value)

    def test_exit_codes_match_cli_conventions(self):
        assert ERROR_EXIT_CODES["budget_exceeded"] == 4
        assert ERROR_EXIT_CODES["evaluation_error"] == 1
        assert ERROR_EXIT_CODES["bad_request"] == 2

    def test_sorted_rows_deterministic(self):
        rows = {("b", 2), ("a", 1), ("a", 0)}
        assert sorted_rows(rows) == [["a", 0], ["a", 1], ["b", 2]]


# ----------------------------------------------------------------------
# the served surface (in-process handle + TCP)
# ----------------------------------------------------------------------
class TestServerHandle:
    def test_cold_then_memo(self):
        with ServerHandle.start(ANCESTOR) as handle:
            first = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert first["ok"] and first["served"] == "cold"
            assert first["row_count"] == 3
            again = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert again["served"] == "memo"
            assert again["rows"] == first["rows"]

    def test_mutation_advances_version_and_invalidates(self):
        with ServerHandle.start(ANCESTOR) as handle:
            first = handle.request({"op": "query", "query": "anc(john, X)?"})
            done = handle.request(
                {"op": "assert", "facts": ["par(zoe, ann)."]}
            )
            assert done["ok"] and done["changed"] == 1
            assert done["version"] > first["version"]
            after = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert after["served"] == "cold"
            assert after["row_count"] == 4

    def test_retract(self):
        with ServerHandle.start(ANCESTOR) as handle:
            done = handle.request(
                {"op": "retract", "facts": ["par(ted, zoe)."]}
            )
            assert done["changed"] == 1
            rows = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert rows["row_count"] == 2

    def test_error_payload_carries_exit_code(self):
        with ServerHandle.start(ANCESTOR) as handle:
            bad = handle.request({"op": "query", "query": "anc(john, X)?",
                                  "options": {"method": "nope"}})
            assert not bad["ok"]
            assert bad["error"]["code"] == "bad_request"
            assert bad["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "method,tripped",
        [
            # the rewrite trips, degrades once, and semi-naive trips too
            ("auto", "seminaive"),
            # an explicit rewrite does not degrade
            ("magic", "magic"),
        ],
    )
    def test_budget_cap_applies_server_side(self, method, tripped):
        config = ServerConfig(max_facts=1)
        with ServerHandle.start(ANCESTOR, config=config) as handle:
            out = handle.request(
                {"op": "query", "query": "anc(john, X)?",
                 "options": {"max_facts": 10_000_000, "method": method}}
            )
            assert not out["ok"]
            assert out["error"]["code"] == "budget_exceeded"
            assert out["error"]["exit_code"] == 4
            assert out["error"]["detail"]["method"] == tripped

    def test_a_query_without_a_budget_gets_the_cap(self):
        config = ServerConfig(max_facts=1)
        with ServerHandle.start(ANCESTOR, config=config) as handle:
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert not out["ok"]
            assert out["error"]["code"] == "budget_exceeded"
            assert out["error"]["detail"]["limit"] == "max_facts"

    def test_a_rejected_shape_is_adorned_once(
        self, front_end_calls, monkeypatch
    ):
        """``par`` is a base predicate: adornment rejects the shape, and
        the rejection is cached with it, so cold ``auto`` reads of the
        shape answer semi-naive without adorning it again."""
        monkeypatch.setattr(planner, "_SHARED_PLAN_CACHE", PlanCache())
        with ServerHandle.start(
            program=parse_program(ANCESTOR).program, database=chain_db(20)
        ) as handle:
            for k in range(20):
                out = handle.request(
                    {"op": "query", "query": f"par(n{k}, Y)?"}
                )
                assert out["served"] == "cold"
                assert out["method"] == "seminaive"
                assert out["rows"] == [[f"n{k + 1}"]]
        assert front_end_calls == {"adorn": 1, "rewrite": 0}

    def test_stats_surface(self):
        with ServerHandle.start(ANCESTOR) as handle:
            handle.request({"op": "query", "query": "anc(john, X)?"})
            handle.request({"op": "query", "query": "anc(john, X)?"})
            stats = handle.stats()
            for key in (
                "qps", "latency_p50", "latency_p95", "memo_hits",
                "coalesced", "cold_evaluations", "snapshots_live",
                "snapshots_published", "view_serves", "version",
            ):
                assert key in stats, key
            assert stats["queries"] == 2
            assert stats["memo_hits"] == 1

    def test_a_retired_version_is_freed_without_the_collector(self):
        """A cold read leaves no cycle behind: nothing it built may keep
        the version's database, the evaluation's snapshot of it or
        their holder registrations alive until a collector pass."""
        with refcount_only(), ServerHandle.start(
            ANCESTOR, listen=False
        ) as handle:
            pinned = handle.server.snapshots.current()
            version_db = weakref.ref(pinned.db)
            par = pinned.db.get("par")
            pinned.release()
            del pinned
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert out["served"] == "cold" and out["row_count"] == 3
            # the write clones par for the live database and retires
            # the version the read ran on
            handle.request({"op": "assert", "facts": ["par(zoe, ann)."]})
            live_par = handle.server.session.database.get("par")
            assert live_par is not par
            # the reader thread may still be unwinding; with the
            # collector off, a cycle would never pass this wait
            deadline = time.monotonic() + 5
            while (
                version_db() is not None or par._holders
            ) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert version_db() is None
            assert not par._holders
            assert len(live_par._holders) == 1

    def test_a_failed_cold_read_frees_its_snapshot(self, monkeypatch):
        """A cold read that trips its budget leaves no cycle behind
        either: once a write retires its version, the snapshot's
        database is freed by reference count, and the writes after it
        recycle the released version instead of cloning."""
        copies = []
        copy = Relation.copy

        def counting_copy(relation):
            copies.append(relation.name)
            return copy(relation)

        config = ServerConfig(max_facts=1)
        with refcount_only(), ServerHandle.start(
            ANCESTOR, config=config, listen=False
        ) as handle:
            pinned = handle.server.snapshots.current()
            version_db = weakref.ref(pinned.db)
            pinned.release()
            del pinned
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert out["error"]["code"] == "budget_exceeded"
            handle.request({"op": "assert", "facts": ["par(zoe, ann)."]})
            # the reader thread may still be unwinding; with the
            # collector off, a cycle would never pass this wait
            deadline = time.monotonic() + 5
            while version_db() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert version_db() is None
            assert handle.stats()["snapshots_live"] == 1
            monkeypatch.setattr(Relation, "copy", counting_copy)
            for fact in ("par(ann, bo).", "par(bo, cy).", "par(cy, di)."):
                handle.request({"op": "assert", "facts": [fact]})
            assert copies == []

    def test_drain_refuses_new_requests(self):
        with ServerHandle.start(ANCESTOR) as handle:
            # enter drain mode without stopping (deterministic window)
            handle.server._draining = True
            out = handle.request({"op": "ping"})
            assert not out["ok"]
            assert out["error"]["code"] == "shutting_down"
            assert out["error"]["exit_code"] == 5
            # stats stays observable while draining
            assert handle.request({"op": "stats"})["ok"]
            handle.server._draining = False
            assert handle.request({"op": "ping"})["ok"]

    def test_shutdown_op_stops_cleanly(self):
        handle = ServerHandle.start(ANCESTOR)
        out = handle.request({"op": "shutdown"})
        assert out["ok"] and out["stopping"]
        handle._thread.join(timeout=5)
        assert not handle._thread.is_alive()
        handle.close()  # idempotent after self-stop

    def test_coalescing_counts_one_evaluation(self):
        # N identical cold queries in flight together -> 1 evaluation
        with ServerHandle.start(ANCESTOR) as handle:
            n = 8
            results = [None] * n
            barrier = threading.Barrier(n)

            def fire(i):
                barrier.wait()
                results[i] = handle.request(
                    {"op": "query", "query": "anc(john, X)?",
                     "options": {"method": "seminaive"}}
                )

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r["ok"] and r["row_count"] == 3 for r in results)
            stats = handle.stats()
            assert stats["cold_evaluations"] == 1
            served = {r["served"] for r in results}
            assert "cold" in served
            assert (
                stats["coalesced"] + stats["memo_hits"] == n - 1
            ), stats


class TestTcp:
    def test_client_roundtrip(self):
        with ServerHandle.start(ANCESTOR) as handle:
            host, port = handle.address
            with ReproClient(host, port) as client:
                out = client.query("anc(john, X)?")
                assert out["row_count"] == 3
                client.assert_facts(["par(zoe, ann)."])
                assert client.query("anc(john, X)?")["row_count"] == 4
                assert client.ping()["pong"] is True
                assert "qps" in client.stats()

    def test_server_error_raises(self):
        with ServerHandle.start(ANCESTOR) as handle:
            host, port = handle.address
            with ReproClient(host, port) as client:
                with pytest.raises(ServerError) as err:
                    client.query("anc(john, X", method="auto")
                assert err.value.exit_code in (1, 2)

    def test_negation_program_served(self):
        with ServerHandle.start(BOM) as handle:
            host, port = handle.address
            with ReproClient(host, port) as client:
                out = client.query("ok(X)?")
                assert sorted(r[0] for r in out["rows"]) == [
                    "engine", "piston"
                ]

    def test_readers_and_a_writer_share_the_server_over_tcp(self):
        """Four readers (view-covered and cold reads) and one writer on
        real sockets: no error, every serving mode is used, the writer
        publishes new versions, and retired versions are released."""
        depth = 16
        source = "".join(
            f"par(n{i}, n{i + 1}).\n" for i in range(depth)
        ) + ANCESTOR
        config = ServerConfig(reader_threads=4)
        with ServerHandle.start(
            source, config=config, materialize=["anc"]
        ) as handle:
            stop = threading.Event()
            errors = []

            def writer():
                with ReproClient(*handle.address) as client:
                    step = 0
                    while not stop.is_set():
                        client.assert_facts([f"par(m{step}, m{step + 1})."])
                        step += 1
                        time.sleep(0.002)

            def reader(seed):
                try:
                    with ReproClient(*handle.address) as client:
                        for i in range(30):
                            if i % 3 == 0:
                                client.query(f"anc(n{seed}, X)?")
                            else:
                                client.query(
                                    f"anc(n{(seed + i) % depth}, X)?",
                                    method="seminaive",
                                )
                except Exception as exc:  # surfaced in the main thread
                    errors.append(exc)

            writer_thread = threading.Thread(target=writer)
            readers = [
                threading.Thread(target=reader, args=(seed,))
                for seed in range(4)
            ]
            writer_thread.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join()
            stop.set()
            writer_thread.join()
            stats = handle.stats()
        assert not errors, errors
        assert stats["errors"] == 0
        assert stats["mutations_applied"] > 0
        assert stats["snapshots_published"] > 1
        assert stats["view_serves"] > 0 and stats["cold_evaluations"] > 0
        assert stats["snapshots_live"] <= 2

    def test_a_nan_timeout_is_refused_under_a_timeout_cap(self):
        line = (
            b'{"id": 1, "op": "query", "query": "anc(john, X)?", '
            b'"options": {"timeout": NaN}}\n'
        )
        config = ServerConfig(max_timeout=5.0)
        with ServerHandle.start(ANCESTOR, config=config) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                sock.sendall(line)
                stream = sock.makefile("rb")
                reply = decode_line(stream.readline())
                stream.close()
            assert reply["id"] == 1 and not reply["ok"]
            assert reply["error"]["code"] == "bad_request"
            assert reply["error"]["exit_code"] == 2
            assert handle.stats()["cold_evaluations"] == 0

    def test_an_oversized_line_is_refused_then_the_connection_closes(
        self, caplog
    ):
        facts = [f"par(x{i}, x{i + 1})." for i in range(8000)]
        line = encode_message({"id": 1, "op": "assert", "facts": facts})
        assert len(line) > MAX_LINE_BYTES
        with ServerHandle.start(ANCESTOR) as handle:
            version = handle.server.snapshots.current_version
            with socket.create_connection(handle.address, timeout=30) as sock:
                sock.sendall(line)
                stream = sock.makefile("rb")
                reply = decode_line(stream.readline())
                assert stream.readline() == b""  # end of file, not a reset
                stream.close()
            assert not reply["ok"]
            assert reply["error"]["code"] == "bad_request"
            assert reply["error"]["exit_code"] == 2
            assert str(MAX_LINE_BYTES) in reply["error"]["message"]
            # a fresh connection is served; the assert was never applied
            with ReproClient(*handle.address) as client:
                assert client.ping()["version"] == version
                assert client.query("anc(john, X)?")["row_count"] == 3
                assert client.stats()["errors"] == 1
            assert handle.server.snapshots.current_version == version
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_clients_that_disconnect_mid_query_release_their_snapshots(self):
        depth = 400
        source = "".join(
            f"par(n{i}, n{i + 1}).\n" for i in range(depth)
        ) + ANCESTOR
        with ServerHandle.start(source) as handle:
            baseline = handle.stats()["snapshots_live"]
            for k in range(5):
                request = {
                    "id": k, "op": "query", "query": f"anc(n{k * 50}, X)?",
                    "options": {"method": "seminaive"},
                }
                with socket.create_connection(handle.address) as sock:
                    sock.sendall(encode_message(request))
            deadline = time.monotonic() + 60
            while (
                handle.stats()["cold_evaluations"] < 5
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = handle.stats()
            assert stats["cold_evaluations"] == 5
            assert stats["snapshots_live"] == baseline
            assert _pins(handle.server) == 0
            with ReproClient(*handle.address) as client:
                out = client.query("anc(n390, X)?")
            assert out["row_count"] == depth - 390


# ----------------------------------------------------------------------
# view serving
# ----------------------------------------------------------------------
class TestViewServing:
    def test_view_served_and_maintained_across_writes(self):
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert out["served"] == "view"
            assert out["row_count"] == 3
            done = handle.request(
                {"op": "assert", "facts": ["par(zoe, ann)."]}
            )
            assert done["views_published"] == ["anc"]
            after = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert after["served"] == "view"
            assert after["row_count"] == 4

    def test_view_selection_is_exact(self):
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            bound = handle.request(
                {"op": "query", "query": "anc(john, zoe)?"}
            )
            assert bound["served"] == "view"
            assert bound["rows"] == [[]]  # boolean yes: one empty row
            miss = handle.request({"op": "query", "query": "anc(zoe, X)?"})
            assert miss["served"] == "view"
            assert miss["row_count"] == 0

    def test_explicit_materialized_method_without_view_is_an_error(self):
        with ServerHandle.start(ANCESTOR) as handle:
            out = handle.request(
                {"op": "query", "query": "anc(john, X)?",
                 "options": {"method": "materialized"}}
            )
            assert not out["ok"]
            assert out["error"]["code"] == "bad_request"

    def test_stale_views_fall_back_cold(self):
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            os.environ["REPRO_FAULT_INJECT"] = "any:1"
            try:
                done = handle.request(
                    {"op": "assert", "facts": ["par(zoe, ann)."]}
                )
            finally:
                del os.environ["REPRO_FAULT_INJECT"]
            # the maintenance pass aborted: the write committed, but no
            # stale view was published with the new version
            assert done["ok"]
            assert done["views_published"] == []
            out = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert out["served"] == "cold"
            assert out["row_count"] == 4

    def test_published_reads_never_reach_the_reader_pool(self, monkeypatch):
        """Memo hits, view reads and requests that fail before any
        evaluation are answered on the event loop; only a cold
        evaluation is submitted to the reader pool.  Every one of them
        releases the snapshot it pinned."""
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"], listen=False
        ) as handle:
            server = handle.server
            pool = server.queries._pool
            submitted = []
            submit = pool.submit

            def counting(fn, *args, **kwargs):
                submitted.append(fn)
                return submit(fn, *args, **kwargs)

            monkeypatch.setattr(pool, "submit", counting)
            baseline = handle.stats()["snapshots_live"]
            for query, served, rows in (
                ("anc(X, Y)?", "view", 6),  # free
                ("anc(john, X)?", "view", 3),  # bound
                ("anc(john, zoe)?", "view", 1),  # boolean yes
                ("anc(zoe, john)?", "view", 0),  # boolean no
                ("anc(john, X)?", "memo", 3),
            ):
                out = handle.request({"op": "query", "query": query})
                assert out["ok"], out
                assert (out["served"], out["row_count"]) == (served, rows)
                assert _pins(server) == 0, query
                assert handle.stats()["snapshots_live"] == baseline
            for query, method, code in (
                ("anc(john, X", "auto", "parse_error"),
                ("par(john, X)?", "materialized", "bad_request"),
                ("anc(john, X)?", "nope", "bad_request"),
            ):
                out = handle.request(
                    {"op": "query", "query": query,
                     "options": {"method": method}}
                )
                assert not out["ok"] and out["error"]["code"] == code, out
                assert _pins(server) == 0, query
                assert handle.stats()["snapshots_live"] == baseline
            assert submitted == []
            out = handle.request(
                {"op": "query", "query": "anc(john, X)?",
                 "options": {"method": "seminaive"}}
            )
            assert out["served"] == "cold" and out["row_count"] == 3
            assert len(submitted) == 1
            assert _pins(server) == 0
            stats = handle.stats()
            assert stats["snapshots_live"] == baseline
            assert (
                stats["view_serves"], stats["memo_hits"],
                stats["cold_evaluations"], stats["coalesced"],
                stats["errors"],
            ) == (4, 1, 1, 0, 3)


# ----------------------------------------------------------------------
# writer atomicity under failure
# ----------------------------------------------------------------------
class TestWriterAtomicity:
    def test_bad_fact_mid_batch_rolls_back(self):
        with ServerHandle.start(ANCESTOR) as handle:
            server = handle.server
            before_rows = handle.request(
                {"op": "query", "query": "anc(john, X)?"}
            )
            version = server.snapshots.current_version
            live_version = server.session.database.version
            out = handle.request(
                {"op": "assert",
                 "facts": ["par(x1, x2).", "par(x2, x3).", "@@@ bad"]}
            )
            assert not out["ok"]
            assert out["error"]["exit_code"] == 2
            # no new version published; the live database rolled back
            assert server.snapshots.current_version == version
            from repro.core.pipeline import unwrap_values

            assert unwrap_values(
                server.session.database.tuples("par")
            ) == {("john", "alice"), ("alice", "ted"), ("ted", "zoe")}
            assert server.session.database.check_integrity()
            # rollback itself bumps the monotone counter (never rewinds)
            assert server.session.database.version >= live_version
            after_rows = handle.request(
                {"op": "query", "query": "anc(john, X)?"}
            )
            assert after_rows["rows"] == before_rows["rows"]
            assert handle.stats()["mutations_rolled_back"] == 1

    def test_fault_injected_writer_abort_leaves_snapshots_intact(self):
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            server = handle.server
            baseline = handle.request(
                {"op": "query", "query": "anc(john, X)?"}
            )
            os.environ["REPRO_FAULT_INJECT"] = "any:1"
            try:
                done = handle.request(
                    {"op": "assert", "facts": ["par(zoe, ann)."]}
                )
            finally:
                del os.environ["REPRO_FAULT_INJECT"]
            assert done["ok"]
            assert server.session.database.check_integrity()
            snap = server.snapshots.current()
            try:
                assert snap.db.check_integrity()
                # the snapshot shows the whole committed batch
                from repro.core.pipeline import unwrap_values

                assert ("zoe", "ann") in unwrap_values(
                    snap.db.tuples("par")
                )
            finally:
                snap.release()
            after = handle.request({"op": "query", "query": "anc(john, X)?"})
            assert after["row_count"] == baseline["row_count"] + 1


# ----------------------------------------------------------------------
# snapshot isolation
# ----------------------------------------------------------------------
def _rows(database, query, method):
    session = Session(program=_PROGRAM, database=database, memo_size=1)
    return session.query(_QUERY_TEXT, method=method).rows


_PROGRAM = None
_QUERY_TEXT = "anc(n0, X)?"


def _isolation_fixture(depth=6):
    from repro.datalog.parser import parse_program

    global _PROGRAM
    source = (
        "anc(X, Y) :- par(X, Y).\n"
        "anc(X, Z) :- par(X, Y), anc(Y, Z).\n"
    )
    parsed = parse_program(source)
    _PROGRAM = parsed.program
    db = chain_db(depth)
    session = Session(program=parsed.program, database=db)
    return session, db


class TestSnapshotIsolation:
    @pytest.mark.parametrize("method", ["seminaive", "supplementary_magic"])
    def test_pinned_reader_sees_frozen_rows(self, method):
        session, db = _isolation_fixture()
        manager = SnapshotManager(db)
        manager.publish()
        pinned = manager.current()
        expected = _rows(pinned.db, _QUERY_TEXT, method)
        # the writer advances several versions under the reader
        for step in range(3):
            session.assert_("par", f"x{step}", f"x{step + 1}")
            manager.publish()
            assert _rows(pinned.db, _QUERY_TEXT, method) == expected
        session.retract("par", "n0", "n1")
        manager.publish()
        assert _rows(pinned.db, _QUERY_TEXT, method) == expected
        # a fresh reader sees the new version
        fresh = manager.current()
        assert _rows(fresh.db, _QUERY_TEXT, method) != expected
        fresh.release()
        pinned.release()

    def test_pinned_reader_concurrent_with_writer_thread(self):
        session, db = _isolation_fixture(depth=30)
        manager = SnapshotManager(db)
        manager.publish()
        pinned = manager.current()
        expected = _rows(pinned.db, _QUERY_TEXT, "seminaive")
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                got = _rows(pinned.db, _QUERY_TEXT, "seminaive")
                if got != expected:
                    failures.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for step in range(40):
            if step % 3 == 2:
                session.retract("par", f"m{step - 1}", f"m{step}")
            else:
                session.assert_("par", f"m{step}", f"m{step + 1}")
            manager.publish()
        stop.set()
        for t in threads:
            t.join()
        assert not failures
        assert _rows(pinned.db, _QUERY_TEXT, "seminaive") == expected
        assert db.check_integrity()
        pinned.release()

    def test_cold_readers_share_a_published_snapshot_with_the_writer(self):
        """Two readers cold-evaluate on whatever snapshot is current --
        building indexes on, and registering their evaluation snapshots
        with, relations the live database still shares -- while the
        writer commits through ``Database`` methods.  Every read must
        equal the serial oracle for the version it pinned."""
        _, db = _isolation_fixture(depth=12)
        # a second chain hanging off n12 grows two edges and loses the
        # newest one, over and over: every write changes the answer
        script = [("assert", ("n12", "m0"))]
        tip = 0
        for step in range(30):
            if step % 3 == 2:
                script.append(("retract", (f"m{tip - 1}", f"m{tip}")))
                tip -= 1
            else:
                script.append(("assert", (f"m{tip}", f"m{tip + 1}")))
                tip += 1

        def commit(database, op, row):
            if op == "assert":
                database.add_values("par", [row])
            else:
                database.retract_values("par", [row])

        # serial oracle: replay the script on a private copy
        replay = db.copy()
        oracle = {replay.version: _rows(replay, _QUERY_TEXT, "seminaive")}
        for op, row in script:
            commit(replay, op, row)
            oracle[replay.version] = _rows(replay, _QUERY_TEXT, "seminaive")

        manager = SnapshotManager(db)
        manager.publish()
        baseline = manager.live_count
        stop = threading.Event()
        failures = []
        versions_read = []

        def reader():
            try:
                while not stop.is_set():
                    pinned = manager.current()
                    try:
                        got = _rows(
                            pinned.db, _QUERY_TEXT, "supplementary_magic"
                        )
                        if got != oracle[pinned.version]:
                            failures.append((pinned.version, got))
                            return
                        versions_read.append(pinned.version)
                    finally:
                        pinned.release()
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with refcount_only():
                for t in threads:
                    t.start()
                for op, row in script:
                    # let a read finish between consecutive commits
                    done = len(versions_read)
                    deadline = time.monotonic() + 5
                    while (
                        len(versions_read) == done
                        and not failures
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.0005)
                    commit(db, op, row)
                    manager.publish()
                stop.set()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert not failures
                assert len(set(versions_read)) > len(script) // 2
                assert manager.live_count == baseline
                current = manager.current()
                assert current.db.check_integrity()
                assert db.check_integrity()
                assert _rows(
                    current.db, _QUERY_TEXT, "supplementary_magic"
                ) == oracle[db.version]
                current.release()
        finally:
            stop.set()
            sys.setswitchinterval(interval)

    def test_view_served_path_is_isolated(self):
        with ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            server = handle.server
            pinned = server.snapshots.current()
            try:
                frozen_view = pinned.views.get("anc")
                before = set(frozen_view)
                handle.request(
                    {"op": "assert", "facts": ["par(zoe, ann)."]}
                )
                # the pinned version's frozen view is untouched by the
                # maintenance pass that produced the next version
                assert set(frozen_view) == before
                out = handle.request(
                    {"op": "query", "query": "anc(john, X)?"}
                )
                assert out["served"] == "view"
                assert out["row_count"] == 4  # new version sees the write
            finally:
                pinned.release()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["assert", "retract"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_mutation_scripts_never_leak(self, script):
        """Property: whatever the writer does, a pinned reader's rows
        never change, on the cold paths and the view-served path."""
        session, db = _isolation_fixture(depth=5)
        view_session = Session(program=_PROGRAM, database=db)
        view_session.materialize("anc")
        manager = SnapshotManager(db)
        manager.publish(view_session.materialized_relations())
        pinned = manager.current()
        expected = {
            method: _rows(pinned.db, _QUERY_TEXT, method)
            for method in ("seminaive", "supplementary_magic")
        }
        from repro.datalog.parser import parse_query

        query = parse_query(_QUERY_TEXT).literal
        expected_view = reference_scan(pinned.views.get("anc"), query)
        assert expected_view == expected["seminaive"]
        for op, a, b in script:
            fact = ("par", f"p{a}", f"p{b}")
            if op == "assert":
                view_session.assert_(*fact)
            else:
                view_session.retract(*fact)
            manager.publish(view_session.materialized_relations())
            for method, rows in expected.items():
                assert _rows(pinned.db, _QUERY_TEXT, method) == rows
            assert (
                reference_scan(pinned.views.get("anc"), query)
                == expected_view
            )
            assert pinned.views.get("anc").answers(query) == expected_view
        assert db.check_integrity()
        assert pinned.db.check_integrity()
        pinned.release()


# ----------------------------------------------------------------------
# views published by copy-on-write
# ----------------------------------------------------------------------
TWO_VIEWS = ANCESTOR + """
likes(john, tea). likes(zoe, mate).
fan(X, Y) :- likes(X, Y).
"""


class TestCowPublishedViews:
    """``Session.materialized_relations`` is a ``Database.snapshot`` of
    the maintained relations and ``Snapshot.views`` holds it: views are
    shared with the writer exactly as base relations are."""

    def test_pinned_view_never_observes_later_writes(self):
        with refcount_only(), ServerHandle.start(
            ANCESTOR, materialize=["anc"]
        ) as handle:
            server = handle.server
            baseline = handle.stats()["snapshots_live"]
            pinned = server.snapshots.current()
            view = pinned.views.get("anc")
            before, version = set(view), view.version
            for step in range(3):
                handle.request(
                    {"op": "assert", "facts": [f"par(zoe, k{step})."]}
                )
                handle.request(
                    {"op": "retract", "facts": ["par(john, alice)."]}
                    if step == 1
                    else {"op": "assert", "facts": [f"par(k{step}, john)."]}
                )
                assert pinned.views.get("anc") is view
                assert set(view) == before and view.version == version
            assert server.session._materializer.working.get("anc") is not view
            assert pinned.views.check_integrity()
            assert handle.stats()["snapshots_live"] == baseline + 1
            pinned.release()
            assert handle.stats()["snapshots_live"] == baseline

    def test_indexes_and_untouched_views_survive_a_publish(self, monkeypatch):
        builds = []
        build_index = Relation._build_index

        def recording(self, positions):
            builds.append((self.name, positions))
            return build_index(self, positions)

        with ServerHandle.start(
            TWO_VIEWS, materialize=["anc", "fan"]
        ) as handle:
            snapshots = handle.server.snapshots
            monkeypatch.setattr(Relation, "_build_index", recording)
            for query in ("anc(X, zoe)?", "fan(X, tea)?"):
                out = handle.request({"op": "query", "query": query})
                assert out["served"] == "view"
            # evaluation probes neither view on its second column
            assert sorted(builds) == [("anc", (1,)), ("fan", (1,))]
            older = snapshots.current()
            anc, fan = older.views.get("anc"), older.views.get("fan")
            done = handle.request(
                {"op": "assert", "facts": ["par(zoe, ann)."]}
            )
            assert done["views_published"] == ["anc", "fan"]
            newer = snapshots.current()
            # the write touched anc: cloned for the writer, index and all
            assert newer.views.get("anc") is not anc
            assert (1,) in newer.views.get("anc")._indexes
            # it did not touch fan: the same object is published again
            assert newer.views.get("fan") is fan
            for query, rows in (
                ("anc(X, ann)?", [["alice"], ["john"], ["ted"], ["zoe"]]),
                ("anc(X, zoe)?", [["alice"], ["john"], ["ted"]]),
                ("fan(X, tea)?", [["john"]]),
            ):
                out = handle.request({"op": "query", "query": query})
                assert out["served"] == "view" and out["rows"] == rows
            # the carried index answered the new version: nothing rebuilt
            assert len(builds) == 2
            assert len(anc) == 6 and len(newer.views.get("anc")) == 10
            older.release()
            newer.release()

    def test_a_move_deriving_nothing_for_a_view_leaves_it_shared(self):
        """Maintenance fetches a head for writing only once it has rows
        to write: ``tainted``'s rules are reached by every ``subpart``
        delta, but moving an exception-free subtree derives nothing for
        it, so it must not be cloned away from the published snapshot."""
        from repro.workloads import bom_source

        source = bom_source(4, 2, 0.0, 0) + "exception(p2).\n"
        with ServerHandle.start(source, materialize=["clean"]) as handle:
            snapshots = handle.server.snapshots
            older = snapshots.current()
            tainted, clean = older.views.get("tainted"), older.views.get("clean")
            assert {str(row[0]) for row in tainted} == {"p0", "p2"}
            for op, fact in (
                ("retract", "subpart(p3, p7)."),
                ("assert", "subpart(p4, p7)."),
            ):
                done = handle.request({"op": op, "facts": [fact]})
                assert done["changed"] == 1
            newer = snapshots.current()
            assert newer.views.get("tainted") is tainted
            assert newer.views.get("clean") is not clean
            out = handle.request({"op": "query", "query": "clean(p4, S)?"})
            assert out["served"] == "view"
            assert ["p7"] in out["rows"] and ["p15"] in out["rows"]
            assert handle.server.session._materializer.check_consistency()
            older.release()
            newer.release()

    def test_a_publish_clones_only_what_the_move_touched(self):
        """One served subtree move over BOM, every version along it
        retained: each still reads the rows pinned when it was published
        and passes ``check_integrity()``.  What the move never writes --
        ``part`` and ``exception`` in the base, ``buildable`` while the
        pass derives nothing for it -- is the same object in
        consecutive versions; only the relations it writes are clones."""
        from repro.workloads import bom_source

        def state(snap):
            return {
                side: {
                    key: set(database.get(key).id_rows())
                    for key in database.predicate_keys()
                }
                for side, database in (("db", snap.db), ("views", snap.views))
            }

        source = bom_source(4, 2, 0.0, 0) + "exception(p2).\n"
        with ServerHandle.start(
            source, materialize=["buildable"], listen=False
        ) as handle:
            snapshots = handle.server.snapshots
            pinned = [snapshots.current()]
            expected = [state(pinned[0])]
            for op, fact in (
                ("retract", "subpart(p3, p7)."),
                ("assert", "subpart(p4, p7)."),
            ):
                done = handle.request({"op": op, "facts": [fact]})
                assert done["changed"] == 1
                assert "buildable" in done["views_published"]
                pinned.append(snapshots.current())
                expected.append(state(pinned[-1]))
            for step in range(3):
                out = handle.request(
                    {"op": "query", "query": f"clean(p{step + 3}, S)?"}
                )
                assert out["served"] == "view"
            for snap, rows in zip(pinned, expected):
                assert state(snap) == rows
                assert snap.db.check_integrity()
                assert snap.views.check_integrity()
            assert len({snap.version for snap in pinned}) == 3
            moved = ("p3", "p7"), ("p4", "p7")
            subpart = [
                {tuple(map(str, row)) for row in snap.db.get("subpart")}
                for snap in pinned
            ]
            assert moved[0] in subpart[0] and moved[1] not in subpart[0]
            assert moved[0] not in subpart[2] and moved[1] in subpart[2]
            for older, newer in zip(pinned, pinned[1:]):
                for key in ("part", "exception"):
                    assert newer.db.get(key) is older.db.get(key), key
                assert newer.db.get("subpart") is not older.db.get("subpart")
                assert newer.views.get("buildable") is older.views.get(
                    "buildable"
                )
                for key in ("component", "clean"):
                    assert newer.views.get(key) is not older.views.get(key)
            for snap in pinned:
                snap.release()

    def test_every_pinned_version_survives_the_moves_after_it(self):
        """The writer's clones share index buckets with the versions
        they were cloned from -- the indexes served reads built on them
        included.  Every version published during 30 subtree moves stays
        pinned to the end, and must then still be what it was."""
        from repro.datalog.parser import parse_query
        from repro.workloads import bom_program, bom_source

        program = bom_program()
        probes = ("clean(p1, S)?", "component(p2, S)?")

        def cold(database):
            with Session(program=program, database=database) as session:
                return [
                    session.query(query, method="seminaive").rows
                    for query in probes
                ]

        rng = random.Random(22)
        parent = {part: (part - 1) // 2 for part in range(7, 15)}
        with ServerHandle.start(
            bom_source(4, 2, 0.2, 3), materialize=["clean"], listen=False
        ) as handle:
            snapshots = handle.server.snapshots
            replay = handle.server.session.database.copy()
            baseline = handle.stats()["snapshots_live"]
            pinned = [(snapshots.current(), cold(replay))]
            for _ in range(30):
                part = rng.choice(sorted(parent))
                old = parent[part]
                new = parent[part] = rng.choice(
                    [p for p in range(3, 7) if p != old]
                )
                for op, change, at in (
                    ("retract", replay.retract_values, old),
                    ("assert", replay.add_values, new),
                ):
                    # reads on either column of both views: the indexes
                    # they build belong to the version being cloned next
                    for query in (
                        f"clean(p{at}, S)?",
                        f"clean(P, p{part})?",
                        f"component(p{at}, S)?",
                        f"component(P, p{part})?",
                    ):
                        out = handle.request({"op": "query", "query": query})
                        assert out["served"] in ("view", "memo")
                    done = handle.request(
                        {"op": op, "facts": [f"subpart(p{at}, p{part})."]}
                    )
                    assert done["changed"] == 1
                    change("subpart", [(f"p{at}", f"p{part}")])
                    pinned.append((snapshots.current(), cold(replay)))
            assert len({snap.version for snap, _ in pinned}) == 61
            assert handle.stats()["snapshots_live"] == baseline + 60
            assert len({tuple(map(frozenset, rows)) for _, rows in pinned}) > 20
            literals = [parse_query(query).literal for query in probes]
            for snap, expected in pinned:
                assert snap.db.check_integrity()
                assert snap.views.check_integrity()
                assert [
                    snap.views.answers(literal) for literal in literals
                ] == expected
                assert cold(snap.db) == expected
                snap.release()
            assert handle.stats()["snapshots_live"] == baseline
            assert handle.server.session._materializer.check_consistency()

    def test_the_writer_recycles_what_readers_released(self):
        """Each write hands off the relations it touches; the version
        handed out is the one before the current, caught up, once no
        reader pins it.  A pinned version forces clones around it and
        still answers as at pin time; the writer's handoffs then
        alternate between two objects per relation.  Every view read
        answers as a cold evaluation at its version."""
        from repro.workloads import bom_program, bom_source

        program = bom_program()

        def cold(database, query):
            with Session(program=program, database=database) as session:
                return sorted_rows(
                    session.query(query, method="seminaive").values()
                )

        def state(snap):
            return {
                side: {
                    key: set(database.get(key).id_rows())
                    for key in database.predicate_keys()
                }
                for side, database in (("db", snap.db), ("views", snap.views))
            }

        def read(query):
            current = snapshots.current()
            out = handle.request({"op": "query", "query": query})
            assert out["served"] == "view" and out["version"] == current.version
            assert out["rows"] == cold(current.db, query)
            current.release()

        rng = random.Random(5)
        parent = {part: (part - 1) // 2 for part in range(7, 15)}
        with refcount_only(), ServerHandle.start(
            bom_source(4, 2, 0.2, 3), materialize=["clean"], listen=False
        ) as handle:
            server = handle.server
            snapshots = server.snapshots
            working = server.session._materializer.working
            live = server.session.database
            assert handle.stats()["snapshots_live"] == 1
            pinned = snapshots.current()
            frozen = state(pinned)
            probes = ("clean(p1, S)?", "component(p2, S)?")
            answers = [cold(pinned.db, query) for query in probes]
            handed = []
            for _ in range(3):
                part = rng.choice(sorted(parent))
                old = parent[part]
                new = parent[part] = rng.choice(
                    [p for p in range(3, 7) if p != old]
                )
                for op, at in (("retract", old), ("assert", new)):
                    done = handle.request(
                        {"op": op, "facts": [f"subpart(p{at}, p{part})."]}
                    )
                    assert done["changed"] == 1
                    handed.append(
                        (live.get("subpart"), working.get("component"))
                    )
                    read(f"clean(p{at}, S)?")
                    read(f"component(p{part // 2}, S)?")
            # the pinned version: what it was, at every relation
            assert state(pinned) == frozen
            assert [cold(pinned.db, query) for query in probes] == answers
            assert pinned.db.check_integrity()
            assert pinned.views.check_integrity()
            held = pinned.db.get("subpart"), pinned.views.get("component")
            # the first two writes cloned (the spare was pinned), the
            # others alternated between those two clones
            for objects in zip(*handed):
                assert not set(objects) & set(held)
                assert len(set(objects)) == 2
                assert all(
                    objects[i] is objects[i % 2] for i in range(len(objects))
                )
            assert handle.stats()["snapshots_live"] == 2
            # released, the pinned version is freed: no spare keeps it
            freed = [weakref.ref(pinned.db), weakref.ref(pinned.views)]
            pinned.release()
            del pinned, held
            handle.request({"op": "assert", "facts": ["subpart(p3, p14)."]})
            read("clean(p3, S)?")
            assert handle.stats()["snapshots_live"] == 1
            assert all(ref() is None for ref in freed)
            for relation, objects in zip(
                (live.get("subpart"), working.get("component")), zip(*handed)
            ):
                assert relation in objects and relation._spare in objects
            assert server.session._materializer.check_consistency()
            assert live.check_integrity() and working.check_integrity()

    def test_no_holder_outlives_the_last_published_view(self):
        with refcount_only():
            session = Session(TWO_VIEWS)
            session.materialize()
            working = session._materializer.working
            manager = SnapshotManager(session.database)
            manager.publish(session.materialized_relations())
            held = working.get("anc")
            # (these first writes also give ``working`` its own copy of
            # each base relation it shared with the live database)
            session.assert_("par(zoe, ann)")
            session.assert_("likes(ann, tea)")
            # the current snapshot holds the views: anc was cloned
            assert working.get("anc") is not held
            current = manager.current()
            assert current.views.get("anc") is held
            current.release()
            del current
            # the last snapshot holding views goes away
            manager.publish()
            relations = {
                key: working.get(key) for key in working.predicate_keys()
            }
            indexes = {
                key: dict(rel._indexes) for key, rel in relations.items()
            }
            session.assert_("par(ann, bob)")
            session.retract("likes(zoe, mate)")
            assert session._materializer.fresh
            for key, rel in relations.items():
                assert working.get(key) is rel, key
                assert all(
                    rel._indexes[positions] is index
                    for positions, index in indexes[key].items()
                )
            assert ("zoe", "bob") in {
                tuple(term.value for term in row) for row in relations["anc"]
            }
            assert working.check_integrity()

    def test_bound_view_reads_race_the_writer(self):
        from repro.datalog.parser import parse_query

        _, db = _isolation_fixture(depth=12)
        view_session = Session(program=_PROGRAM, database=db)
        view_session.materialize("anc")
        literal = parse_query(_QUERY_TEXT).literal
        script = [("assert", ("n12", "m0"))]
        tip = 0
        for step in range(30):
            if step % 3 == 2:
                script.append(("retract", (f"m{tip - 1}", f"m{tip}")))
                tip -= 1
            else:
                script.append(("assert", (f"m{tip}", f"m{tip + 1}")))
                tip += 1

        # serial oracle: replay the script on a private copy
        replay = db.copy()
        oracle = {replay.version: _rows(replay, _QUERY_TEXT, "seminaive")}
        for op, row in script:
            if op == "assert":
                replay.add_values("par", [row])
            else:
                replay.retract_values("par", [row])
            oracle[replay.version] = _rows(replay, _QUERY_TEXT, "seminaive")

        manager = SnapshotManager(db)
        manager.publish(view_session.materialized_relations())
        baseline = manager.live_count
        stop = threading.Event()
        failures = []
        versions_read = []

        def reader():
            try:
                while not stop.is_set():
                    pinned = manager.current()
                    try:
                        got = pinned.views.get("anc").answers(literal)
                        if got != oracle[pinned.version]:
                            failures.append((pinned.version, got))
                            return
                        versions_read.append(pinned.version)
                    finally:
                        pinned.release()
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with refcount_only():
                for t in threads:
                    t.start()
                for op, row in script:
                    # let a read finish between consecutive commits
                    done = len(versions_read)
                    deadline = time.monotonic() + 5
                    while (
                        len(versions_read) == done
                        and not failures
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.0005)
                    if op == "assert":
                        view_session.assert_("par", *row)
                    else:
                        view_session.retract("par", *row)
                    manager.publish(view_session.materialized_relations())
                stop.set()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert not failures
                assert len(set(versions_read)) > len(script) // 2
                assert manager.live_count == baseline
                current = manager.current()
                assert current.views.check_integrity()
                assert current.db.check_integrity()
                assert db.check_integrity()
                working = view_session._materializer.working
                assert working.check_integrity()
                assert current.views.get("anc") is working.get("anc")
                assert (
                    current.views.get("anc").answers(literal)
                    == oracle[db.version]
                )
                current.release()
        finally:
            stop.set()
            sys.setswitchinterval(interval)

    def test_aborted_maintenance_publishes_no_views(self):
        with ServerHandle.start(
            TWO_VIEWS, materialize=["anc", "fan"]
        ) as handle:
            server = handle.server
            pinned = server.snapshots.current()
            before = {
                key: set(pinned.views.get(key))
                for key in pinned.views.predicate_keys()
            }
            assert set(before) == {"anc", "fan"}
            os.environ["REPRO_FAULT_INJECT"] = "any:1"
            try:
                done = handle.request(
                    {"op": "assert", "facts": ["par(zoe, ann)."]}
                )
            finally:
                del os.environ["REPRO_FAULT_INJECT"]
            assert done["ok"] and done["views_published"] == []
            aborted = server.snapshots.current()
            assert aborted.views.predicate_keys() == set()
            for key, rows in before.items():
                assert set(pinned.views.get(key)) == rows
            working = server.session._materializer.working
            for side in (
                server.session.database,
                working,
                pinned.views,
                pinned.db,
                aborted.views,
                aborted.db,
            ):
                assert side.check_integrity()
            # the next clean write rebuilds and publishes views again
            done = handle.request(
                {"op": "assert", "facts": ["par(ann, bob)."]}
            )
            assert done["views_published"] == ["anc", "fan"]
            out = handle.request({"op": "query", "query": "anc(zoe, X)?"})
            assert out["served"] == "view"
            assert out["rows"] == [["ann"], ["bob"]]
            for key, rows in before.items():
                assert set(pinned.views.get(key)) == rows
            assert pinned.views.check_integrity()
            pinned.release()
            aborted.release()


# ----------------------------------------------------------------------
# writer rollback unit (no asyncio)
# ----------------------------------------------------------------------
class TestRollbackUnit:
    def test_inverse_replay_restores_contents(self):
        session, db = _isolation_fixture(depth=3)
        before = db.tuples("par")
        log = db.start_mutation_log()
        session.assert_("par", "q1", "q2")
        session.retract("par", "n0", "n1")
        db.stop_mutation_log(log)
        MutationScheduler._rollback(db, log)
        assert db.tuples("par") == before
        assert db.check_integrity()


# ----------------------------------------------------------------------
# repro serve in its own process, over TCP
# ----------------------------------------------------------------------
ANC_ABCD = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b). par(b, c). par(c, d).
"""


@contextlib.contextmanager
def repro_serve(tmp_path, source, *options):
    """``repro serve`` on a loopback port: yields its address; the body
    stops it through the ``shutdown`` op, after which it must exit 0."""
    path = tmp_path / "program.dl"
    path.write_text(source)
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(path),
         "--port", "0", *options],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = proc.stderr.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, banner
        yield match.group(1), int(match.group(2))
        assert proc.wait(timeout=30) == 0, proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def _move(client, rng, parent):
    """Move one level-4 part of a depth-7 BOM under another level-3
    part; return the part's new parent."""
    part = rng.choice(sorted(parent))
    old = parent[part]
    new = parent[part] = rng.choice([p for p in range(7, 15) if p != old])
    client.retract_facts([f"subpart(p{old}, p{part})."])
    client.assert_facts([f"subpart(p{new}, p{part})."])
    return new


class TestServeProcess:
    def test_identical_cold_queries_coalesce_into_one_evaluation(
        self, tmp_path
    ):
        with repro_serve(tmp_path, ANC_ABCD) as address:
            n = 8
            barrier = threading.Barrier(n, timeout=30)
            results = [None] * n

            def fire(i):
                with ReproClient(*address) as client:
                    barrier.wait()
                    results[i] = client.query("anc(a, Y)?")

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(r is not None for r in results)
            # every waiter saw the same answer
            assert len({tuple(map(tuple, r["rows"])) for r in results}) == 1
            assert all(r["row_count"] == 3 for r in results)
            with ReproClient(*address) as client:
                stats = client.stats()
                assert stats["cold_evaluations"] == 1, stats
                assert stats["coalesced"] + stats["memo_hits"] == n - 1, stats
                client.shutdown()

    def test_a_published_view_serves_reads_and_an_oversized_line_is_refused(
        self, tmp_path
    ):
        with repro_serve(tmp_path, ANC_ABCD, "--materialize", "anc") as address:
            with ReproClient(*address) as client:
                done = client.assert_facts(["par(d, e)."])
                assert done["views_published"] == ["anc"], done
                reply = client.query("anc(a, Y)?")
                assert reply["served"] == "view", reply
                assert ["e"] in reply["rows"] and reply["row_count"] == 4
                stats = client.stats()
                assert stats["view_serves"] >= 1, stats
                assert stats["snapshots_live"] == 1, stats
            facts = [f"par(x{i}, x{i + 1})." for i in range(8000)]
            line = json.dumps({"op": "assert", "facts": facts}) + "\n"
            assert len(line) > 64 * 1024
            with socket.create_connection(address, timeout=30) as sock:
                sock.sendall(line.encode())
                stream = sock.makefile("rb")
                refused = json.loads(stream.readline())
                assert stream.readline() == b"", "expected end of file"
                stream.close()
            assert refused["error"]["code"] == "bad_request", refused
            with ReproClient(*address) as client:
                assert client.query("anc(a, Y)?")["row_count"] == 4
                stats = client.stats()
                assert stats["errors"] == 1, stats
                assert stats["version"] == done["version"], stats
                client.shutdown()

    def test_a_maintained_view_answers_as_a_cold_read_after_every_move(
        self, tmp_path
    ):
        # the writer's clones share index buckets with the versions they
        # were cloned from; retired versions must not pile up
        with repro_serve(
            tmp_path, bom_source(7), "--materialize", "clean"
        ) as address:
            rng = random.Random(22)
            parent = {part: (part - 1) // 2 for part in range(15, 31)}
            with ReproClient(*address) as client:
                for move in range(30):
                    new = _move(client, rng, parent)
                    query = f"clean(p{(new - 1) // 2}, S)?"
                    view = client.query(query)
                    cold = client.query(query, method="supplementary_magic")
                    assert view["served"] == "view", view
                    assert cold["served"] == "cold", cold
                    assert view["rows"] == cold["rows"] and view["rows"]
                stats = client.stats()
                assert stats["snapshots_live"] <= 2, stats
                client.shutdown()

    def test_cold_reads_of_one_shape_miss_the_plan_cache_once(self, tmp_path):
        # 40 supplementary-magic reads on distinct constants, moves
        # between them, each answered as the same server's semi-naive
        with repro_serve(tmp_path, bom_source(7)) as address:
            rng = random.Random(24)
            parent = {part: (part - 1) // 2 for part in range(15, 31)}
            parts = rng.sample(range(1, 63), 40)
            misses = []
            with ReproClient(*address) as client:
                for read, part in enumerate(parts):
                    query = f"component(p{part}, S)?"
                    cold = client.query(query, method="supplementary_magic")
                    assert cold["served"] == "cold", cold
                    misses.append(client.stats()["plan_cache_misses"])
                    oracle = client.query(query, method="seminaive")
                    assert cold["rows"] == oracle["rows"], (read, query)
                    if read % 2:
                        _move(client, rng, parent)
                stats = client.stats()
                assert stats["cold_evaluations"] == 80, stats
                # the semi-naive oracle compiles the original program
                # once, right after the first read; then: hits only
                assert len(set(misses[1:])) == 1, misses
                assert misses[1] - misses[0] <= 1, misses
                client.shutdown()
