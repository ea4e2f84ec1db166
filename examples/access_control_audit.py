"""Access-control audit: recursive authorization with explanations.

Scenario: users are granted roles; roles inherit from other roles
(recursively); roles hold permissions on resources.  The question
"can alice read the ledger?" is a recursive query, and an *audit*
must justify every positive answer.

This combines two pieces of the library through one
:class:`repro.Session`:

* the magic rewrite (chosen explicitly here; ``method="auto"`` would
  pick the supplementary variant) restricts evaluation to alice's role
  cone, not the whole company's, and
* ``session.explain(query)`` prints the chain of grants behind each
  authorization (derivation trees, Section 1.1 of the paper);
* revoking a grant (:meth:`Session.retract`) invalidates the memoized
  answers, and the re-query reflects the revocation.

Run::

    python examples/access_control_audit.py
"""

from repro import Session


def main() -> None:
    session = Session(
        """
        % role reachability: a user holds a role directly or through
        % role inheritance
        holds(U, R) :- granted(U, R).
        holds(U, R) :- holds(U, S), inherits(S, R).
        % authorization: some held role carries the permission
        can(U, A, Res) :- holds(U, R), permits(R, A, Res).
        """
    )

    with session.batch():
        for user, role in [
            ("alice", "accountant"),
            ("bob", "intern"),
            ("carol", "cfo"),
        ]:
            session.assert_("granted", user, role)
        for role, sub in [
            ("cfo", "controller"),
            ("controller", "accountant"),
            ("accountant", "clerk"),
            ("intern", "visitor"),
        ]:
            session.assert_("inherits", role, sub)
        for role, action, resource in [
            ("clerk", "read", "ledger"),
            ("accountant", "write", "ledger"),
            ("controller", "approve", "payments"),
            ("visitor", "read", "lobby_screen"),
        ]:
            session.assert_("permits", role, action, resource)

    print("query: can(alice, A, Res)?")
    answer = session.query("can(alice, A, Res)?", method="magic")
    print("alice may:")
    for action, resource in sorted(answer.values()):
        print(f"   {action} {resource}")
    print()

    # audit: one proof tree per authorization, for the result's query
    print("audit trail:")
    for tree in session.explain(answer.query):
        print(tree.render(indent="   "))
        print()

    # the magic rewrite stays inside alice's cone: carol's cfo chain is
    # never explored
    magic_facts = answer.evaluation.database.tuples("magic_holds_bf")
    explored = {str(row[0]) for row in magic_facts}
    print("users/roles explored by the magic rewrite:", sorted(explored))
    assert "carol" not in explored

    # revoke alice's grant: the memo drops, the re-query reflects it
    session.retract("granted(alice, accountant)")
    revoked = session.query("can(alice, A, Res)?", method="magic")
    print()
    print("after revoking accountant:", sorted(revoked.values()) or "nothing")
    assert not revoked.rows


if __name__ == "__main__":
    main()
