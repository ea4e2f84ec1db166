"""Bill-of-materials explosion: where the choice of sip matters.

Scenario: ``uses(P, Q)`` says product P directly incorporates part Q.
``needs(P, Q)`` is the transitive closure.  Two realistic queries:

* ``needs(widget9000, Q)?``  -- which parts does a product pull in?
  (binds the FIRST argument; the natural left-to-right sip fits)
* ``needs(P, chip_x)?``      -- which products are affected by a part
  recall?  (binds the SECOND argument; a left-to-right sip passes
  nothing, but a greedy, binding-maximizing order inverts the join)

A :class:`repro.Session` is configured with one sip family for all its
queries, so the comparison runs two sessions over the *same* database:
the default left-to-right session and a greedy-sip session.  The
fact-count gap between them is the paper's point that the *sip* is a
real degree of freedom, independent of control (Sections 2 and 11).

Run::

    python examples/bill_of_materials.py
"""

from repro import Session
from repro.core.sips import build_full_sip, greedy_order, sip_builder_with_order
from repro.workloads import load_edges, tree_edges


def show(title, result):
    print(
        f"{title:<34} answers={len(result.rows):>4}  "
        f"facts={result.stats.facts_derived:>5}  "
        f"firings={result.stats.rule_firings:>6}"
    )


PROGRAM = """
    needs(P, Q) :- uses(P, Q).
    needs(P, Q) :- uses(P, R), needs(R, Q).
"""


def main() -> None:
    # a product tree: every assembly uses 3 sub-assemblies, 5 levels deep
    database = load_edges(tree_edges(5, fanout=3), relation="uses")
    session = Session(PROGRAM, database=database)

    forward = "needs(r, Q)?"
    print("== forward query (explode a product):", forward)
    baseline = session.query(forward, method="seminaive")
    show("semi-naive (whole closure)", baseline)
    magic = session.query(forward, method="magic")
    assert magic.rows == baseline.rows
    show("magic, left-to-right sip", magic)
    print()

    recall = "needs(P, r_0_0_0)?"
    print("== recall query (who uses this part?):", recall)
    baseline = session.query(recall, method="seminaive")
    show("semi-naive (whole closure)", baseline)

    # left-to-right sip: the binding on the SECOND argument cannot be
    # passed to `uses(P, R)` first, so the rewrite degenerates
    ltr = session.query(recall, method="magic")
    assert ltr.rows == baseline.rows
    show("magic, left-to-right sip", ltr)

    # greedy order evaluates needs(R, Q) first (Q is bound), inverting
    # the traversal: only the recalled part's cone is explored.  The sip
    # family is session-level configuration, so this runs in a second
    # session over the same database.
    greedy = Session(
        PROGRAM,
        database=database,
        sip_builder=sip_builder_with_order(build_full_sip, greedy_order),
    )
    inverted = greedy.query(recall, method="magic")
    assert inverted.rows == baseline.rows
    show("magic, greedy (inverted) sip", inverted)

    print()
    print(
        "The greedy sip turns the recall query into an upward walk from "
        "the recalled part; the left-to-right sip cannot use the binding "
        "and recomputes far more."
    )


if __name__ == "__main__":
    main()
