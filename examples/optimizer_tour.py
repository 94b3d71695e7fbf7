#!/usr/bin/env python3
"""A guided tour of the seven equivalence rules (paper Section 3.3).

For each rule (10)-(16) this builds the smallest system exhibiting it,
shows the naive plan, every rewrite the rule proposes, the measured cost
of each, and the machine-checked equivalence verdict — the executable
version of the paper's rule catalogue.  A closing section runs one plan
through all three registered cost models (oracle / analytic / hybrid)
to show that pricing changes the speed of the search, not its outcome.

Run:  python examples/optimizer_tour.py
"""

import time

from repro import Session
from repro.core import (
    BeamSearchStrategy,
    DelegateExpression,
    DocDest,
    DocExpr,
    Plan,
    PushQueryOverCall,
    PushSelection,
    QueryApply,
    QueryDelegation,
    QueryRef,
    RelocateCall,
    Reroute,
    Send,
    ServiceCallExpr,
    TransferReuse,
    TreeExpr,
)
from repro.peers import AXMLSystem
from repro.xmlcore import element, parse
from repro.xquery import Query


def catalog(n=80):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price>"
            f"<desc>{'text ' * 6}</desc></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


def fresh_system():
    system = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=80_000.0
    )
    system.peer("data").install_document("cat", catalog())
    system.peer("data").install_query_service(
        "all-items",
        "declare variable $d external; <all>{$d//item}</all>",
        params=("d",),
    )
    return system


def selection_query():
    return Query(
        "for $i in $d//item where $i/price > 75 return <r>{$i/name/text()}</r>",
        params=("d",),
        name="sel",
    )


def show(rule, plan, system):
    """One report per rule: a single-rule, depth-1 session explains the
    plan, so the trace lists exactly the alternatives that rule proposes.

    With ``verify=True`` every kept rewrite is machine-checked ≡ the
    original — a non-equivalent proposal would be dropped from the trace
    (and a `≠(!)` would never survive into the report).
    """
    session = Session(
        system,
        strategy=BeamSearchStrategy(depth=1, beam=16),
        rules=[rule],
        verify=True,
        trace=True,
    )
    report = session.explain(plan)
    print(f"\n=== {rule.name} ===")
    if report.explored == 1:
        print(f"  naive: {plan.describe()}")
        if rule.apply(plan, system):
            # matched, but every proposal was unevaluable or non-equivalent
            print("  (no rewrite survived scoring/verification)")
        else:
            print("  (rule does not match this plan)")
        return
    print(report.describe(include_trace=True))


def main():
    # (10) query delegation --------------------------------------------------
    system = fresh_system()
    plan10 = Plan(
        QueryApply(QueryRef(selection_query(), "client"), (DocExpr("cat", "data"),)),
        "client",
    )
    show(QueryDelegation(all_peers=True), plan10, system)

    # (11) pushing selections (Example 1) -------------------------------------
    show(PushSelection(), plan10, system)

    # (12) rerouting a transfer ------------------------------------------------
    system = fresh_system()
    plan12 = Plan(Send(DocDest("copy", "helper"), DocExpr("cat", "data")), "data")
    show(Reroute(), plan12, system)

    # (13) transfer reuse ----------------------------------------------------------
    system = fresh_system()
    both = Query(
        "declare variable $a external; declare variable $b external; "
        "count($a//item) + count($b//item)",
        params=("a", "b"),
        name="both",
    )
    plan13 = Plan(
        QueryApply(
            QueryRef(both, "client"),
            (DocExpr("cat", "data"), DocExpr("cat", "data")),
        ),
        "client",
    )
    show(TransferReuse(), plan13, system)

    # (14) whole-expression delegation ------------------------------------------------
    show(DelegateExpression(), plan10, fresh_system())

    # (15) relocating a call with a forward list ----------------------------------------
    system = fresh_system()
    inbox = element("inbox")
    system.peer("helper").install_document("acc", inbox)
    params = parse("<catalog><item><name>x</name><price>9</price></item></catalog>")
    plan15 = Plan(
        ServiceCallExpr(
            "data", "all-items", (TreeExpr(params, "client"),), (inbox.node_id,)
        ),
        "client",
    )
    show(RelocateCall(), plan15, system)

    # (16) pushing a query over a service call ---------------------------------------------
    system = fresh_system()
    consumer = Query(
        "for $i in $r//item where $i/price > 77 return $i/name",
        params=("r",),
        name="consumer",
    )
    plan16 = Plan(
        QueryApply(
            QueryRef(consumer, "client"),
            (ServiceCallExpr("data", "all-items", (DocExpr("cat", "data"),)),),
        ),
        "client",
    )
    show(PushQueryOverCall(), plan16, system)

    # cost models: same search, three ways of pricing candidates -----------------
    print("\n=== cost models (oracle / analytic / hybrid) ===")
    for mode in ("oracle", "analytic", "hybrid"):
        system = fresh_system()
        session = Session(system, cost_model=mode)
        started = time.perf_counter()
        report = session.explain(plan10)
        wall = (time.perf_counter() - started) * 1000
        print(
            f"  {mode:9s} best {report.best_cost.describe():32s} "
            f"plan {report.plan.describe()}  ({wall:.1f}ms wall)"
        )
        # what the search left in the session's plan cache: the oracle's
        # query memo, the estimator's memo, or (hybrid) both
        print(f"  {'':9s} {session.plan_cache.describe()}")
    print(
        "  (analytic prices candidates from the catalog and samples,\n"
        "   hybrid oracle-checks only the chosen plan — same best plan,\n"
        "   a fraction of the search wall time)"
    )


if __name__ == "__main__":
    main()
