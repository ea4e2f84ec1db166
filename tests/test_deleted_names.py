"""Deleted code stays deleted, and the CI workflow stays a thin runner.

Each row of :data:`GUARDS` keeps a name (or a line shape) out of the
tree after the change that removed it: the number of that change's
entry in ``CHANGES.md`` (or, for the paper-claims ledger, its name),
the pattern as ``grep`` spelled it (``BRE`` or ``ERE``), whether it
matches a whole word or anywhere in a line, the files or directories it
scans, and the files allowed to match (none, except for the collector
pause, which exactly one module may import).  :data:`DELETED_FILES`
lists modules that must not come back.  The scan skips ``__pycache__``
and this file, which spells every pattern.
"""

import re
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THIS_FILE = Path(__file__).resolve()

Guard = namedtuple(
    "Guard", "change syntax by pattern paths owners", defaults=((),)
)

SRC, TESTS, BENCHMARKS = "src", "tests", "benchmarks"
DATALOG = "src/repro/datalog/"

GUARDS = [
    # row-at-a-time IVM matcher
    Guard(21, "BRE", "line", r"_delta_solutions\|_LitSpec\|_derive_rec\|_OldView",
          (DATALOG + "ivm.py",)),
    # bucket-level copy-on-write: no per-bucket deep copy
    Guard(22, "BRE", "line", r"bucket\[:\] for key, bucket",
          (DATALOG + "database.py",)),
    # the query shape cache replaced the per-literal FIFO dicts
    Guard(24, "BRE", "line", r"self\._rewritten\b\|self\._adorned\b",
          ("src/repro/session.py",)),
    # one join executor: no row-at-a-time path, no A/B flags
    Guard(26, "BRE", "word",
          r"use_planner\|vectorized\|no_planner\|_evaluate_rule\|_literal_rows"
          r"\|_qsq_evaluate_legacy\|_solve_rule", (SRC,)),
    Guard(26, "BRE", "line", r"def execute(", (DATALOG + "planner.py",)),
    # one round driver (engine.fixpoint): no copy of the round loop
    Guard(27, "BRE", "line",
          r"_run_seminaive\|_run_naive\|def _propagate\|evaluate_parallel", (SRC,)),
    Guard(27, "BRE", "line", r"meter.check_round(\|iterations +=",
          (DATALOG + "parallel.py", DATALOG + "derivation.py",
           DATALOG + "topdown.py")),
    # one query pipeline: cold reads call answer_query, not a Session
    Guard(31, "BRE", "line", r"Session(", ("src/repro/server/scheduler.py",)),
    Guard(31, "ERE", "line", r"def _execute|_auto_choice|def _signature",
          ("src/repro/session.py",)),
    Guard(31, "BRE", "line", r"from ..session", ("src/repro/core/pipeline.py",)),
    # QSQ on the one round driver
    Guard(32, "ERE", "line", r"pending_inputs|answer_deltas|answer_total",
          (DATALOG + "topdown.py",)),
    # one row representation (ID rows), one insert and one retract path
    Guard(33, "ERE", "line",
          r"_term_rows|maybe_unground|generic_pairs|_run_generic|_window_lookup"
          r"|def _insert\b|def _discard_id_row|merged_with", (SRC,)),
    # one worker pool: the fork backend and its knobs
    Guard(34, "ERE", "line",
          r"multiprocessing|_ForkBackend|_WorkerState|_worker_main|resolve_backend"
          r"|parallel_backend|plan_interns_terms|ensure_state"
          r"|parallel_ship_seconds|parallel_fallback", (SRC, TESTS, BENCHMARKS)),
    # one join executor: QSQ's adorned rules run as JoinPlans
    Guard(35, "ERE", "word",
          r"SubqueryPlan|SubqueryStep|_QSQExecutor|_run_entry|_run_batch|ENTRY",
          (SRC, TESTS, BENCHMARKS)),
    Guard(35, "ERE", "line", r"_batch_keys|_scan_batch_step", (SRC,)),
    # one sip rewriter (core/rewrites.py)
    Guard(36, "ERE", "word",
          r"magic_rewrite|supplementary_magic_rewrite|counting_rewrite"
          r"|supplementary_counting_rewrite|IndexScheme|StructuralIndexScheme"
          r"|ensure_fresh", (SRC, TESTS, BENCHMARKS)),
    # the collector pause lives in engine.py alone
    Guard(37, "BRE", "word", r"import gc", (SRC,),
          owners=(DATALOG + "engine.py",)),
    # one op set in the planner, no two-way unifier
    Guard(38, "ERE", "word",
          r"_batch_key_ops|_batch_row_ops|_attach_batch_ops|b_key_ops|b_row_ops"
          r"|b_store_slots|b_carry_out|b_store_out|b_merge|b_head_ops"
          r"|b_head_slots|n_slots|unify_sequences|_unify_into|_unify_linexpr",
          (SRC, TESTS, BENCHMARKS)),
    Guard(38, "ERE", "line", r"^def (unify|compose)\(", (DATALOG + "unify.py",)),
    # a clone copies its dicts with dict.copy(): the dict constructor
    # re-inserts every entry of a dict with deletion holes
    Guard(40, "ERE", "line", r"dict\((self\._rowmap|index)\)",
          (DATALOG + "database.py",)),
    # the claims ledger: benches read no knob and write no timing file
    Guard("ledger", "ERE", "word", r"environ|getenv|record_bench", (BENCHMARKS,)),
    Guard("ledger", "ERE", "line", r"BENCH_", (".github",)),
]

DELETED_FILES = [
    (36, "src/repro/core/" + module + ".py")
    for module in ("magic", "supplementary", "counting", "supplementary_counting")
] + [
    ("ledger", "benchmarks/bench_" + module + ".py")
    for module in (
        "engine", "join_planning", "qsq_planning", "memoization", "ivm",
        "server", "rewrite_scaling", "negation", "magic_negation", "parallel",
    )
]

def _swap_bre(match):
    escaped, bare = match.groups()
    if bare:
        return "\\" + bare
    return escaped if escaped in "|(){}?+" else "\\" + escaped


def python_regex(guard):
    """The guard's pattern as a Python regex: GNU BRE swaps escaped and
    bare ``| ( ) { } ? +``; ERE reads the same in both."""
    pattern = guard.pattern
    if guard.syntax == "BRE":
        pattern = re.sub(r"\\(.)|([|(){}?+])", _swap_bre, pattern)
    if guard.by == "word":
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    return re.compile(pattern)


def scanned_files(paths):
    for name in paths:
        path = ROOT / name
        assert path.exists(), f"{name} is gone: update the guard's paths"
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if (
                file.is_file()
                and "__pycache__" not in file.parts
                and file.resolve() != THIS_FILE
            ):
                yield file


def matching_lines(guard):
    regex = python_regex(guard)
    hits = {}
    for file in scanned_files(guard.paths):
        text = file.read_text(encoding="utf-8", errors="replace")
        lines = [
            f"{number}: {line}"
            for number, line in enumerate(text.splitlines(), 1)
            if regex.search(line)
        ]
        if lines:
            hits[file.relative_to(ROOT).as_posix()] = lines
    return hits


@pytest.mark.parametrize(
    "guard", GUARDS, ids=[f"{g.change}-{g.pattern[:32]}" for g in GUARDS]
)
def test_deleted_names_stay_deleted(guard):
    hits = matching_lines(guard)
    assert sorted(hits) == sorted(guard.owners), hits


@pytest.mark.parametrize("change,path", DELETED_FILES, ids=str)
def test_deleted_modules_stay_deleted(change, path):
    assert not (ROOT / path).exists(), (change, path)


def test_the_workflow_runs_tests_not_inline_checks():
    """A new check is a test: CI holds no heredoc, no inline Python and
    no grep guard."""
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    if not workflow.exists():
        pytest.skip("no CI workflow in this checkout")
    lines = workflow.read_text(encoding="utf-8").splitlines()
    inline = [
        line for line in lines
        if not line.lstrip().startswith("#")
        and ("<<" in line or re.search(r"\bgrep\b|python3? -c\b", line))
    ]
    assert not inline, inline
