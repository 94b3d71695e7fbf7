"""A1 — ablation: which cost-model terms matter?

The optimizer is driven by four cost functions: the measured oracle, the
full static estimator, and the estimator with its byte term or time term
switched off.  Each drives the same search; every chosen plan is then
judged by the *oracle*.

Expected shape: oracle-driven search is the reference; the full estimator
matches its plan choice; single-term estimators can be misled (bytes-only
ignores round-trip latency, time-only under-penalizes bulk shipping on
fast links) — the gap is the value of the respective term.
"""

import pytest

from repro.core import (
    CostEstimator,
    DocExpr,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    Statistics,
    measure,
)
from repro.peers import AXMLSystem
from repro.xquery import Query

from common import emit, format_table, make_catalog


def build():
    system = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=80_000.0, latency=0.02
    )
    system.peer("data").install_document("cat", make_catalog(350))
    query = Query(
        "for $i in $d//item where $i/price > 340 "
        "return <r>{$i/name/text()}</r>",
        params=("d",),
        name="sel",
    )
    plan = Plan(
        QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)),
        "client",
    )
    return system, plan


def run_sweep():
    system, plan = build()
    stats = Statistics(selectivity={"sel": 0.05, "sel-inner": 0.05, "sel-outer": 1.0})
    drivers = [
        ("oracle (measure)", lambda p: measure(p, system)),
        ("estimator full", CostEstimator(system, stats)),
        ("estimator bytes-only", CostEstimator(system, stats, count_time=False)),
        ("estimator time-only", CostEstimator(system, stats, count_bytes=False)),
    ]
    rows = []
    for name, driver in drivers:
        result = Optimizer(system, cost_model=driver).optimize_with(
            "beam", plan, depth=2, beam=8
        )
        judged = measure(result.best, system)  # judge by the oracle
        rows.append(
            (name, judged.bytes, judged.time * 1000, judged.scalar() * 1000)
        )
    rows.append(
        ("naive (no optimizer)",
         measure(plan, system).bytes,
         measure(plan, system).time * 1000,
         measure(plan, system).scalar() * 1000)
    )
    return rows


def test_a1_cost_ablation(benchmark):
    rows = run_sweep()
    emit(
        "A1",
        "cost-model ablation: plan chosen by each driver, judged by the oracle",
        format_table(
            ["driver", "judged bytes", "judged ms", "judged scalar"], rows
        ),
    )

    by_name = {row[0]: row for row in rows}
    oracle = by_name["oracle (measure)"]
    naive = by_name["naive (no optimizer)"]
    # every driver's plan beats doing nothing
    for name, *_judged in rows[:-1]:
        assert by_name[name][3] <= naive[3] * 1.001
    # the full estimator is competitive with the oracle
    assert by_name["estimator full"][3] <= oracle[3] * 1.5
    # single-term drivers are never better than the oracle's choice
    assert by_name["estimator bytes-only"][3] >= oracle[3] * 0.999
    assert by_name["estimator time-only"][3] >= oracle[3] * 0.999

    system, plan = build()
    estimator = CostEstimator(system)
    benchmark.pedantic(lambda: estimator.estimate(plan), rounds=5, iterations=1)
