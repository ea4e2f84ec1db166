"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``rewrite``   print the rewritten program for a query
    python -m repro rewrite program.dl --query "anc(john, Y)?" \
        --method supplementary_magic [--sip chain] [--semijoin]

``query``     answer a query (facts may live in the .dl file or a CSV-ish
              facts file given with --facts); runs through a
              :class:`repro.Session`, so ``--method auto`` dispatches
              per query and ``--repeat N`` exercises the answer memo
    python -m repro query program.dl --query "anc(john, Y)?" --method magic
    python -m repro query program.dl --method auto --repeat 3 --stats

``adorn``     print the adorned program P^ad
``safety``    print the Section 10 safety verdicts (plus the safe-negation
              and stratification verdicts when the program uses ``not``)
``explain``   answer a query and print one derivation tree per answer
``workload``  generate a synthetic workload as a .dl file on stdout
    python -m repro workload bom --depth 5 --fanout 2 \
        --exception-rate 0.15 --seed 7 > bom.dl

``serve``     serve the program over TCP: a concurrent query server
              where readers run against frozen MVCC snapshots while
              one writer applies mutations and publishes the next
              version (line-oriented JSON; see repro.server)
    python -m repro serve program.dl --port 7471 --readers 4 \
        --max-timeout 5 --materialize anc

The program file uses the surface syntax of ``repro.datalog.parser``:
rules, ground facts, ``%`` comments, and optionally queries (a query
given with --query overrides queries in the file).  Body literals may be
negated (``not p(X)`` or ``\\+ p(X)``); such programs evaluate under the
stratified semantics with the bottom-up baselines (``--method naive`` /
``seminaive``) and with the magic rewrites (``--method magic`` /
``supplementary_magic``, or ``auto``), which handle negation
conservatively; the counting rewrites and ``qsq`` are positive-only and
report an error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from .core.adornment import adorn_program
from .core.pipeline import BASELINE_METHODS, REWRITE_METHODS, rewrite
from .core.safety import counting_safety, magic_safety, negation_safety
from .core.sips import build_chain_sip, build_empty_sip, build_full_sip
from .datalog.analysis import stratify
from .datalog.database import Database
from .core.limits import BudgetExceeded, EvaluationBudget
from .datalog.errors import ReproError
from .datalog.parser import parse_program, parse_query
from .session import Session
from .workloads.bom import bom_source

__all__ = ["main", "build_parser"]

_SIP_BUILDERS = {
    "full": build_full_sip,
    "chain": build_chain_sip,
    "empty": build_empty_sip,
}


def _worker_count(text: str) -> int:
    """The ``--workers`` type: an int >= 1 (argparse reports anything
    else as a usage error, exit 2)."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"invalid worker count {text!r}; expected an int >= 1"
        )
    return workers


def _seconds(text: str) -> float:
    """The ``--timeout`` / ``--max-timeout`` type: a positive finite
    number of seconds (a NaN or infinite deadline never trips, a
    negative one trips at once; argparse reports each as a usage error,
    exit 2)."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid timeout {text!r}; expected a positive finite number "
            "of seconds"
        )
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Magic-sets rewriting for recursive queries "
        "(Beeri & Ramakrishnan, 'On the Power of Magic').",
        epilog="Programs may negate body literals -- 'not p(X)' or "
        "'\\+ p(X)' -- under the stratified semantics: the bottom-up "
        "engines evaluate stratum by stratum with anti-joins, and the "
        "magic rewrites (--method magic/supplementary_magic, what "
        "--method auto picks) handle negation conservatively, so "
        "selective queries stay query-directed; the counting rewrites "
        "and qsq are positive-only and report an error.  Negation must "
        "be safe: every negated variable needs a positive binder in "
        "the same rule.  Try: repro workload bom | repro query "
        "/dev/stdin --method auto --stats",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_method=True):
        p.add_argument("program", help="path to a .dl program file")
        p.add_argument(
            "--query",
            help='query text, e.g. "anc(john, Y)?" (defaults to the '
            "first query in the file)",
        )
        p.add_argument(
            "--sip",
            choices=sorted(_SIP_BUILDERS),
            default="full",
            help="sip family: full left-to-right (default), chain "
            "(no-memory partial), or empty (no information passing)",
        )
        if with_method:
            p.add_argument(
                "--method",
                choices=("auto",) + REWRITE_METHODS + BASELINE_METHODS,
                default="supplementary_magic",
                help="rewrite method, a baseline (plain bottom-up "
                "naive/seminaive or top-down qsq), or auto: magic-"
                "family rewriting for positive and stratified "
                "programs alike, compiled stratified semi-naive only "
                "when adornment rejects the program; the counting "
                "rewrites and qsq reject negation",
            )
            p.add_argument(
                "--semijoin",
                action="store_true",
                help="apply the Section 8 semijoin optimization "
                "(counting methods only)",
            )
            p.add_argument(
                "--no-optimize",
                action="store_true",
                help="keep the redundant magic/counting literals "
                "(disable Prop. 4.2 / Lemma 6.2 pruning)",
            )

    p_rewrite = sub.add_parser("rewrite", help="print the rewritten program")
    add_common(p_rewrite)

    p_query = sub.add_parser("query", help="answer a query")
    add_common(p_query)
    p_query.add_argument(
        "--facts", help="extra facts file (same .dl syntax)", default=None
    )
    p_query.add_argument(
        "--max-iterations", type=int, default=None, metavar="N",
        help="fixpoint-round budget for the evaluation (rounds summed "
        "over strata); overrun aborts cleanly (exit code 4) without "
        "mutating the database",
    )
    p_query.add_argument(
        "--timeout", type=_seconds, default=None, metavar="SECONDS",
        help="wall-clock budget for the evaluation; overrun aborts "
        "cleanly (exit code 4) without mutating the database",
    )
    p_query.add_argument(
        "--max-facts", type=int, default=None, metavar="N",
        help="derived-fact budget for the evaluation; overrun aborts "
        "cleanly (exit code 4) without mutating the database",
    )
    p_query.add_argument(
        "--stats", action="store_true", help="print work counters"
    )
    p_query.add_argument(
        "--stats-json", action="store_true",
        help="print one JSON object on stdout (rows, method, work and "
        "cache counters) instead of the human-readable bindings -- the "
        "machine-readable twin of --stats",
    )
    p_query.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="evaluate bottom-up strata on N pool workers (sharded "
        "semi-naive rounds; answers and counters identical to serial; "
        "default 1 = in-process serial)",
    )
    p_query.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="answer the query N times through one session: repeats "
        "after the first are served from the cross-evaluation answer "
        "memo (see --stats for the hit counters)",
    )

    p_adorn = sub.add_parser("adorn", help="print the adorned program")
    add_common(p_adorn, with_method=False)

    p_safety = sub.add_parser(
        "safety", help="print the Section 10 safety verdicts"
    )
    add_common(p_safety, with_method=False)

    p_explain = sub.add_parser(
        "explain", help="answer a query and print derivation trees"
    )
    add_common(p_explain, with_method=False)
    p_explain.add_argument("--facts", default=None)
    p_explain.add_argument(
        "--limit", type=int, default=3,
        help="maximum number of answers to explain",
    )

    p_workload = sub.add_parser(
        "workload",
        help="generate a synthetic workload (.dl source on stdout)",
        description="Generate a synthetic workload as a self-contained "
        ".dl file: rules, facts, and a default query.  Pipe or redirect "
        "it into the query command.",
    )
    p_workload.add_argument(
        "family",
        choices=("bom",),
        help="workload family: bom = bill-of-materials with exception "
        "lists (stratified negation, 4 strata)",
    )
    p_workload.add_argument(
        "--depth", type=int, default=4,
        help="part-tree depth (default 4)",
    )
    p_workload.add_argument(
        "--fanout", type=int, default=2,
        help="subparts per assembly (default 2)",
    )
    p_workload.add_argument(
        "--exception-rate", type=float, default=0.1,
        help="per-part exception probability (default 0.1)",
    )
    p_workload.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the exception list (default 0)",
    )
    p_workload.add_argument(
        "--query", default=None,
        help='query to embed (default "buildable(P)?")',
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve the program as a concurrent query server",
        description="Start a line-oriented JSON query server over TCP. "
        "Readers evaluate against frozen copy-on-write snapshots while "
        "one writer serializes mutations and publishes new versions; "
        "identical in-flight cold queries coalesce into one "
        "evaluation.  The bound address is printed on stderr as "
        "'repro serve: listening on HOST:PORT'.",
    )
    p_serve.add_argument("program", help="path to a .dl program file")
    p_serve.add_argument(
        "--facts", help="extra facts file (same .dl syntax)", default=None
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: let the OS pick; the bound port is "
        "printed on stderr)",
    )
    p_serve.add_argument(
        "--readers", type=int, default=4, metavar="N",
        help="reader threads for cold evaluations (default 4; memo "
        "hits and view-covered reads are answered on the event loop)",
    )
    p_serve.add_argument(
        "--max-timeout", type=_seconds, default=None, metavar="SECONDS",
        help="cap on the per-request wall-clock budget clients may ask "
        "for (and the default when they ask for none)",
    )
    p_serve.add_argument(
        "--max-facts", type=int, default=None, metavar="N",
        help="cap on the per-request derived-fact budget",
    )
    p_serve.add_argument(
        "--memo-size", type=int, default=256, metavar="N",
        help="server answer-memo capacity (default 256)",
    )
    p_serve.add_argument(
        "--materialize", action="append", default=None, metavar="PRED",
        help="materialize this predicate (repeatable): the program is "
        "then maintained incrementally, and reads of any derived "
        "predicate are served from the frozen views",
    )
    return parser


def _load_database(args) -> tuple:
    """``(parsed program file, database)``: the program file's facts
    plus those of the optional ``--facts`` file, which may not contain
    rules."""
    with open(args.program) as handle:
        parsed = parse_program(handle.read())
    database = Database()
    database.add_fact_rows(parsed.fact_rows)
    if getattr(args, "facts", None):
        with open(args.facts) as handle:
            extra = parse_program(handle.read())
        if extra.program.rules:
            raise ReproError(
                f"facts file {args.facts} contains rules; put rules in "
                "the program file"
            )
        database.add_fact_rows(extra.fact_rows)
    return parsed, database


def _load(args) -> tuple:
    parsed, database = _load_database(args)
    if args.query:
        query = parse_query(args.query)
    elif parsed.queries:
        query = parsed.queries[0]
    else:
        raise ReproError(
            "no query: pass --query or put one in the program file"
        )
    return parsed.program, database, query


def _cmd_rewrite(args) -> int:
    program, _, query = _load(args)
    if args.method in BASELINE_METHODS + ("auto",):
        raise ReproError(
            f"--method {args.method} is an evaluation strategy, not a "
            "rewrite; use it with the query command"
        )
    rewritten = rewrite(
        program,
        query,
        method=args.method,
        sip_builder=_SIP_BUILDERS[args.sip],
        optimize=not args.no_optimize,
        semijoin=args.semijoin,
    )
    print(rewritten)
    return 0


def _cmd_query(args) -> int:
    program, database, query = _load(args)
    session = Session(
        program=program,
        database=database,
        sip_builder=_SIP_BUILDERS[args.sip],
    )
    budget = EvaluationBudget(
        max_iterations=args.max_iterations,
        timeout=args.timeout,
        max_facts=args.max_facts,
    )
    if budget == EvaluationBudget():
        budget = None  # no limit flag: the query runs ungoverned
    repeat = max(1, args.repeat)
    result = None
    for _ in range(repeat):
        result = session.query(
            query,
            method=args.method,
            semijoin=args.semijoin,
            optimize=not args.no_optimize,
            workers=args.workers,
            budget=budget,
        )
    free_vars = [v.name for v in query.free_variables()]
    if args.stats_json:
        # machine-readable: exactly one JSON object on stdout, nothing
        # else (tooling and the server bench consume this)
        from .server.protocol import sorted_rows

        stats = result.stats
        payload = {
            "query": str(query),
            "free_variables": free_vars,
            "rows": sorted_rows(result.values()),
            "row_count": len(result.rows),
            "method": result.method,
            "from_memo": result.from_memo,
            "degraded": result.degraded,
            "maintained": result.maintained,
            "db_version": session.version,
            "elapsed": result.elapsed,
            "repeat": repeat,
            "memo_hits": session.memo_hits,
            "memo_misses": session.memo_misses,
            "facts_derived": (
                stats.facts_derived if stats is not None else None
            ),
            "iterations": stats.iterations if stats is not None else None,
            "rule_firings": (
                stats.rule_firings if stats is not None else None
            ),
            "join_probes": stats.join_probes if stats is not None else None,
            "tuples_scanned": (
                stats.tuples_scanned if stats is not None else None
            ),
            "plan_cache_hits": (
                stats.plan_cache_hits if stats is not None else None
            ),
            "plan_cache_misses": (
                stats.plan_cache_misses if stats is not None else None
            ),
            "workers": (
                stats.parallel_workers if stats is not None else None
            ),
            "parallel_tasks": (
                stats.parallel_tasks if stats is not None else None
            ),
            "parallel_rows_shipped": (
                stats.parallel_rows_shipped if stats is not None else None
            ),
        }
        import json as _json

        print(_json.dumps(payload, sort_keys=True))
        return 0
    if not free_vars:
        print("yes" if result.rows else "no")
    else:
        header = ", ".join(free_vars)
        print(f"% bindings for ({header})")
        for row in sorted(result.rows, key=str):
            print(", ".join(str(term) for term in row))
    if args.stats and result.stats is not None:
        stats = result.stats
        work = (
            f"facts={stats.facts_derived} "
            f"firings={stats.rule_firings} "
            f"iterations={stats.iterations} "
            f"probes={stats.join_probes}"
        )
        if result.method == "qsq":
            work += f" subqueries={result.qsq.subqueries_generated}"
        elif stats.parallel_workers:
            work += (
                f" workers={stats.parallel_workers}"
                f" parallel_tasks={stats.parallel_tasks}"
                f" rows_shipped={stats.parallel_rows_shipped}"
            )
        # on a memo-served result the work counters describe the cold
        # evaluation that produced the rows, hence the memo= label
        print(
            f"% method={result.method} "
            f"memo={'hit' if result.from_memo else 'miss'} {work} "
            f"plan_cache_hits={stats.plan_cache_hits} "
            f"plan_cache_misses={stats.plan_cache_misses} "
            f"memo_hits={session.memo_hits} "
            f"memo_misses={session.memo_misses} "
            f"db_version={session.version}",
            file=sys.stderr,
        )
    return 0


def _cmd_adorn(args) -> int:
    program, _, query = _load(args)
    adorned = adorn_program(
        program, query, sip_builder=_SIP_BUILDERS[args.sip]
    )
    print(adorned)
    return 0


def _cmd_safety(args) -> int:
    program, _, query = _load(args)

    def show(family, report):
        verdict = {True: "SAFE", False: "DIVERGES", None: "UNKNOWN"}[
            report.safe
        ]
        label = report.theorem
        if label and label[0].isdigit():
            label = f"Theorem {label}"
        print(f"{family:<18} {verdict:<9} ({label})")
        print(f"                   {report.reason}")

    if program.has_negation():
        show("safe negation", negation_safety(program))
        from .datalog.errors import StratificationError

        try:
            strat = stratify(program)
        except StratificationError as exc:
            print(f"{'stratification':<18} {'REJECTED':<9}")
            print(f"                   {exc}")
            print(
                "% magic/counting verdicts skipped: no stratified "
                "model, so no rewrite applies"
            )
            return 0
        print(
            f"{'stratification':<18} {'OK':<9} "
            f"({len(strat)} strata)"
        )
        for line in str(strat).splitlines():
            print(f"                   {line}")
    adorned = adorn_program(
        program, query, sip_builder=_SIP_BUILDERS[args.sip]
    )
    show("magic methods", magic_safety(adorned))
    if program.has_negation():
        print(
            "% counting verdicts skipped: the counting rewrites are "
            "positive-only (use the magic family or --method auto)"
        )
        return 0
    show("counting methods", counting_safety(adorned))
    return 0


def _cmd_workload(args) -> int:
    # only one family today; the choices list keeps the CLI honest
    try:
        source = bom_source(
            depth=args.depth,
            fanout=args.fanout,
            exception_rate=args.exception_rate,
            seed=args.seed,
            query=args.query,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(source)
    return 0


def _cmd_explain(args) -> int:
    from .datalog.derivation import explain_answers

    program, database, query = _load(args)
    count, trees = explain_answers(program, database, query.literal, args.limit)
    if not count:
        print("no answers")
    for tree in trees:
        print(tree.render())
        print()
    if count > len(trees):
        print(f"... ({count - len(trees)} more answers)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .server import ReproServer, ServerConfig

    parsed, database = _load_database(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        reader_threads=args.readers,
        memo_size=args.memo_size,
        max_timeout=args.max_timeout,
        max_facts=args.max_facts,
    )
    server = ReproServer(
        program=parsed.program,
        database=database,
        config=config,
        materialize=args.materialize,
    )

    async def run() -> None:
        host, port = await server.start()
        # stderr, flushed: scripts wait for this line to learn the port
        print(f"repro serve: listening on {host}:{port}", file=sys.stderr)
        sys.stderr.flush()
        assert server._stopped is not None
        await server._stopped.wait()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # second interrupt during drain still exits 0: the server's
        # pools are daemon-threaded and the database is in-memory
        pass
    return 0


_COMMANDS = {
    "rewrite": _cmd_rewrite,
    "query": _cmd_query,
    "adorn": _cmd_adorn,
    "safety": _cmd_safety,
    "explain": _cmd_explain,
    "workload": _cmd_workload,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # flush inside the try: a downstream pipe closed early would
        # otherwise surface as an unhandled BrokenPipeError during
        # interpreter-exit flush (exit status 120)
        sys.stdout.flush()
        return code
    except BudgetExceeded as exc:
        # a tripped --timeout/--max-facts budget is an expected,
        # clean outcome: one structured line, a distinct exit code,
        # and (by the transactional evaluation) an unmutated database
        print(str(exc), file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. `repro query ... | head`) closed the
        # pipe; exit quietly instead of tracebacking on flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
