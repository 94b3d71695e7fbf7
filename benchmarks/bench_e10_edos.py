"""E10 — the eDos software-distribution application, end to end.

The paper's Section 4 points to a "real-life software distribution
application" in the extended version; this bench reproduces its shape
synthetically: a package catalog replicated on mirrors, a population of
clients resolving dependencies, and a continuous update feed.

Two deployments are compared on the same workload:

* **stacked-naive** — what the intro calls "stacking several systems
  together": every client downloads the whole catalog from the first
  registered mirror and evaluates locally;
* **algebraic** — the paper's framework: generic documents with
  nearest-mirror picks and the selection pushed to the mirror.

Expected shape: the algebraic deployment ships at least an order of
magnitude less and finishes the whole client wave faster.
"""

import pytest

from repro.core import (
    DocExpr,
    ExpressionEvaluator,
    GenericDoc,
    Plan,
    PushSelection,
    QueryApply,
    QueryRef,
    measure,
)
from repro.peers import AXMLSystem, FirstPolicy, NearestPolicy
from repro.xmlcore import parse
from repro.xquery import Query

from common import emit, format_table

N_PACKAGES = 500
N_CLIENTS = 6


def build_world():
    mirrors = ["mirror-0", "mirror-1"]
    clients = [f"client-{i}" for i in range(N_CLIENTS)]
    system = AXMLSystem.with_peers(
        ["hub", *mirrors, *clients], bandwidth=150_000.0, latency=0.02
    )
    # each client is close to one mirror
    for index, client in enumerate(clients):
        near = mirrors[index % 2]
        far = mirrors[(index + 1) % 2]
        system.network.add_link(client, near, latency=0.005, bandwidth=150_000.0)
        system.network.add_link(client, far, latency=0.20, bandwidth=150_000.0)
    catalog = parse(
        "<packages>"
        + "".join(
            f"<pkg><name>pkg-{i}</name><section>{'apps' if i % 10 == 0 else 'libs'}</section>"
            f"<size>{(i * 97) % 4096}</size><blurb>{'d ' * 10}</blurb></pkg>"
            for i in range(N_PACKAGES)
        )
        + "</packages>"
    )
    for mirror in mirrors:
        system.peer(mirror).install_document("packages", catalog.copy())
        system.registry.register_document("packages", "packages", mirror)
    return system, clients


def resolution_query(client):
    return Query(
        "for $p in $d//pkg where $p/section = 'apps' "
        "return <get name='{$p/name}' size='{$p/size}'/>",
        params=("d",),
        name=f"resolve-{client}",
    )


def run_wave(system, clients, optimized: bool):
    """Run all clients' resolutions; returns (bytes, messages, makespan)."""
    twin = system.clone()
    policy = NearestPolicy() if optimized else FirstPolicy()
    makespan = 0.0
    answers = 0
    for client in clients:
        query = resolution_query(client)
        if optimized:
            # definition (9): pick first, then optimize the concrete plan —
            # resolving the generic name is what lets the selection push
            # to the chosen mirror.
            member = twin.registry.pick_document("packages", client, twin, policy)
            plan = Plan(
                QueryApply(
                    QueryRef(query, client),
                    (DocExpr(member.name, member.peer),),
                ),
                client,
            )
            rewrites = PushSelection().apply(plan, system)
            if rewrites:
                plan = rewrites[0].plan
        else:
            plan = Plan(
                QueryApply(QueryRef(query, client), (GenericDoc("packages"),)),
                client,
            )
        evaluator = ExpressionEvaluator(twin, policy)
        outcome = evaluator.eval(plan.expr, plan.site)
        answers += len(outcome.items)
        makespan = max(makespan, outcome.completed_at)
    stats = twin.network.stats
    return stats.bytes, stats.messages, makespan, answers


def test_e10_edos(benchmark):
    system, clients = build_world()
    naive = run_wave(system, clients, optimized=False)
    smart = run_wave(system, clients, optimized=True)

    emit(
        "E10",
        f"eDos distribution: {N_CLIENTS} clients resolving over "
        f"{N_PACKAGES} packages on 2 mirrors",
        format_table(
            ["deployment", "bytes", "messages", "makespan ms", "answers"],
            [
                ("stacked-naive", naive[0], naive[1], naive[2] * 1000, naive[3]),
                ("algebraic", smart[0], smart[1], smart[2] * 1000, smart[3]),
            ],
        ),
    )

    assert naive[3] == smart[3]           # same resolutions
    assert smart[0] < naive[0] / 5        # order-of-magnitude-ish traffic cut
    assert smart[2] < naive[2]            # faster wave completion

    benchmark.pedantic(
        lambda: run_wave(system, clients[:2], optimized=True),
        rounds=3,
        iterations=1,
    )
