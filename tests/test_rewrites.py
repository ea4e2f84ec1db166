"""Pinned outputs of the four sip rewrites (Sections 4-7, plus Section 8).

Every rewrite of a fixed set of programs, sips and options is dumped to
text -- rules, provenance, seeds, answer extraction metadata, index
arity and registry, or the error raised -- and each method's dump is
pinned by one SHA-256 digest.  A change to the rewrite layer that is
meant to keep its output has to keep these digests.

On a mismatch, diff the dumps of the two versions::

    PYTHONPATH=src python tests/test_rewrites.py counting > new.txt
"""

import hashlib
import sys

import pytest

from repro import parse_program, parse_query, rewrite
from repro.core.adornment import adorn_program
from repro.core.sips import (
    HEAD,
    Sip,
    SipArc,
    build_chain_sip,
    build_empty_sip,
    build_full_sip,
    build_right_to_left_sip,
)
from repro.datalog.errors import ReproError
from repro.datalog.terms import Variable
from repro.workloads import (
    ancestor_program,
    ancestor_query,
    integer_list,
    list_reverse_program,
    nested_samegen_program,
    nested_samegen_query,
    nonlinear_ancestor_program,
    nonlinear_samegen_program,
    reverse_query,
    samegen_query,
    synthetic_chain_program,
)

METHODS = ("magic", "supplementary_magic", "counting", "supplementary_counting")

SIPS = {
    "full": build_full_sip,
    "chain": build_chain_sip,
    "right_to_left": build_right_to_left_sip,
    "empty": build_empty_sip,
}


def _parsed(source):
    return parse_program(source).program


def _programs():
    """(name, program, query) of every dumped problem."""
    return [
        ("ancestor", ancestor_program(), ancestor_query("john")),
        (
            "nonlinear_ancestor",
            nonlinear_ancestor_program(),
            ancestor_query("john"),
        ),
        (
            "nested_samegen",
            nested_samegen_program(),
            nested_samegen_query("a"),
        ),
        ("nonlinear_samegen", nonlinear_samegen_program(), samegen_query("a")),
        (
            "synthetic_chain",
            synthetic_chain_program(3),
            parse_query("p0(n0, Y)?"),
        ),
        (
            "list_reverse",
            list_reverse_program(),
            reverse_query(integer_list(3)),
        ),
        (
            "negation",
            _parsed(
                """
                reach(X, Y) :- e(X, Y).
                reach(X, Y) :- e(X, Z), reach(Z, Y).
                blocked(Y) :- bad(Y).
                ok(X, Y) :- reach(X, Y), not blocked(Y).
                """
            ),
            parse_query("ok(a, Y)?"),
        ),
        (
            "ternary_bound",
            _parsed(
                """
                t(X, Y, Z) :- base(X, Y, Z).
                t(X, Y, Z) :- up(X, U), t(U, Y, W), down(W, Z).
                """
            ),
            parse_query("t(a, Y, b)?"),
        ),
        (
            "multi_literal_body",
            _parsed(
                """
                r(X, Y) :- e(X, Y).
                r(X, Y) :- e(X, Z), r(Z, Y).
                q(X, Y) :- a(X, U), r(U, V), b(V, W), r(W, Z), c(Z, Y).
                """
            ),
            parse_query("q(a, Y)?"),
        ),
        (
            "two_derived_free_query",
            _parsed(
                """
                r(X, Y) :- e(X, Y).
                s(X, Y) :- f(X, Y).
                s(X, Y) :- f(X, Z), s(Z, Y).
                q(X, Y) :- r(X, Z), s(Z, Y).
                """
            ),
            parse_query("q(X, Y)?"),
        ),
    ]


def _two_arc_builder(rule, adornment, is_derived):
    """The sip of ``test_magic.py::TestMultipleArcs``: two arcs into r."""
    if rule.head.pred != "q":
        return build_full_sip(rule, adornment, is_derived)
    U, V, W, X, Y = (Variable(n) for n in "UVWXY")
    return Sip(
        rule,
        adornment,
        (
            SipArc({HEAD}, 0, {X}),
            SipArc({HEAD}, 1, {Y}),
            SipArc({0, 3}, 2, {W}),
            SipArc({1, 4}, 2, {W}),
        ),
    )


_TWO_ARC_PROGRAM = """
r(X, Y) :- e(X, Y).
q(X, Y, Z) :- a(X, U), b(Y, V), r(W, Z), c(U, W), d(V, W).
"""


def _cases(method):
    """(label, program, query, sip builder, rewrite options) per case."""
    semijoins = (False, True) if "counting" in method else (False,)
    for name, program, query in _programs():
        for sip_name, builder in SIPS.items():
            for optimize in (True, False):
                for semijoin in semijoins:
                    label = (
                        f"{name}/{sip_name}/optimize={optimize}"
                        f"/semijoin={semijoin}"
                    )
                    yield label, program, query, builder, optimize, semijoin
    program = _parsed(_TWO_ARC_PROGRAM)
    query = parse_query("q(a, b, Z)?")
    for optimize in (True, False):
        yield (
            f"two_arcs/custom/optimize={optimize}/semijoin=False",
            program,
            query,
            _two_arc_builder,
            optimize,
            False,
        )


def _dump_rewritten(rewritten):
    lines = [f"method {rewritten.method}"]
    for rr in rewritten.rules:
        prov = rr.provenance
        origins = " ".join(
            f"{o.kind}:{o.position}" for o in prov.body_origins
        )
        lines.append(f"rule {rr.rule!r}")
        lines.append(
            f"  role={prov.role} source={prov.source_rule} "
            f"target={prov.target_position} origins=[{origins}]"
        )
    for seed in rewritten.seed_facts:
        lines.append(f"seed {seed!r}")
    lines.append(f"answer_key {rewritten.answer_pred_key}")
    lines.append(f"selection {rewritten.answer_selection!r}")
    lines.append(f"projection {rewritten.answer_projection!r}")
    lines.append(f"index_arity {rewritten.index_arity}")
    for name in sorted(rewritten.registry):
        lines.append(f"registry {name} {rewritten.registry[name]!r}")
    return lines


def dump(method):
    """The canonical text dump of every rewrite by ``method``."""
    lines = []
    for label, program, query, builder, optimize, semijoin in _cases(method):
        lines.append(f"== {method} {label}")
        try:
            adorned = adorn_program(program, query, builder)
            rewritten = rewrite(
                program,
                query,
                method=method,
                sip_builder=builder,
                optimize=optimize,
                semijoin=semijoin,
                adorned=adorned,
            )
        except ReproError as exc:
            lines.append(f"error {type(exc).__name__}: {exc}")
            continue
        lines.extend(_dump_rewritten(rewritten))
    return "\n".join(lines) + "\n"


#: SHA-256 of ``dump(method)``
DIGESTS = {
    "magic": "6427cc0b233053f8b2af0cbfa3fb50b10da77ec00bb31e49b822affadb7f98eb",
    "supplementary_magic": (
        "c20315e75563942d787a302a1906863e2a5589615d23b2758b072b819a5e0562"
    ),
    "counting": (
        "14030680c9d753692b57fb6dfc40ad6eb344c3d64a8de9e6ea9455a98dfd1462"
    ),
    "supplementary_counting": (
        "f858bc57f7b7ef96ea4a1e29656474bf410d5f4df8b68cb6f1e30d4b5f2bd242"
    ),
}


def test_case_count():
    assert sum(len(list(_cases(m))) for m in METHODS) == 488


@pytest.mark.parametrize("method", METHODS)
def test_rewrite_output_is_pinned(method):
    digest = hashlib.sha256(dump(method).encode()).hexdigest()
    assert digest == DIGESTS[method], (
        f"the {method} rewrite output changed; diff "
        f"`python tests/test_rewrites.py {method}` against the old dump"
    )


@pytest.mark.parametrize("depth", [4, 16, 64])
@pytest.mark.parametrize("method", ["magic", "supplementary_magic", "counting"])
def test_rewrite_size_is_linear_in_the_program(method, depth):
    """Each adorned rule of the layered synthetic chain (2 * depth
    source rules) yields at most four rewritten rules."""
    program = synthetic_chain_program(depth)
    query = parse_query("p0(n0, Y)?")
    rewritten = rewrite(program, query, method=method)
    assert len(rewritten.rules) <= 4 * len(adorn_program(program, query).rules)


if __name__ == "__main__":
    for method in sys.argv[1:] or METHODS:
        sys.stdout.write(dump(method))
