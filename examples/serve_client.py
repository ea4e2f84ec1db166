"""Serving queries: a TCP client against a live ``repro serve`` server.

Scenario: an ancestry service answers closure queries over TCP while
facts keep arriving.  The server pins every read to an immutable MVCC
snapshot version, so answers are consistent even while the writer is
publishing the next version.

What this shows:

* starting the server in-process (:class:`repro.server.ServerHandle`
  runs the same asyncio app that ``repro serve`` runs standalone);
* :class:`repro.server.ReproClient` -- connect, query, read stats;
* the serving modes: a first query evaluates cold, an identical
  re-query is a memo hit, and after ``--materialize`` a maintained
  view answers by pure selection;
* asserting facts through the server: the writer bumps the snapshot
  version, memoized answers for the old version stop matching, and a
  re-query sees the new facts.

Run::

    python examples/serve_client.py
"""

from repro.server import ReproClient, ServerHandle

PROGRAM = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).

par(ada, beth). par(beth, cora). par(cora, dina).
"""


def main() -> None:
    # One call boots the full server -- snapshot manager, reader pool,
    # single writer -- on a background thread and binds a loopback port.
    with ServerHandle.start(PROGRAM, materialize=["anc"]) as handle:
        host, port = handle.address
        print(f"server listening on {host}:{port}")

        with ReproClient(host, port) as client:
            pong = client.ping()
            print(f"ping: snapshot version {pong['version']}")

            # anc is materialized, so this is answered by selection
            # from the published view -- no evaluation at all.
            first = client.query("anc(ada, X)?")
            print(
                f"anc(ada, X) -> {first['rows']}  "
                f"(served={first['served']}, version={first['version']})"
            )
            assert first["row_count"] == 3

            # Force a cold evaluation, then repeat it: the repeat is a
            # memo hit keyed on (query, method, version).
            cold = client.query("anc(beth, X)?", method="seminaive")
            again = client.query("anc(beth, X)?", method="seminaive")
            print(
                f"anc(beth, X) cold served={cold['served']}, "
                f"repeat served={again['served']}"
            )
            assert cold["served"] == "cold" and again["served"] == "memo"

            # Mutate through the server: the single writer applies the
            # batch, maintains the anc view incrementally, and
            # publishes the next snapshot version atomically.
            applied = client.assert_facts(["par(dina, edna)."])
            print(
                f"asserted 1 fact -> version {applied['version']}, "
                f"views republished: {applied['views_published']}"
            )

            # Same query text, new version: the old memo entry no
            # longer matches, and the fresh view already contains the
            # new descendant.
            after = client.query("anc(ada, X)?")
            print(
                f"anc(ada, X) -> {after['rows']}  "
                f"(served={after['served']}, version={after['version']})"
            )
            assert after["row_count"] == 4
            assert ["edna"] in after["rows"]
            assert after["version"] > first["version"]

            stats = client.stats()
            print(
                "stats: "
                f"{stats['queries']} queries, "
                f"{stats['cold_evaluations']} cold, "
                f"{stats['memo_hits']} memo hits, "
                f"{stats['view_serves']} view serves, "
                f"{stats['snapshots_published']} versions published"
            )


if __name__ == "__main__":
    main()
