"""A3 — ablation: the cost of machine-checked equivalence.

The verifier (``check_equivalence``) evaluates both plans on clones of Σ
and compares values plus observable state — soundness bought with
compute.  This bench measures how that price scales with document size,
and what it adds to an optimizer run (``verify=True``).

Expected shape: verification time scales roughly linearly with Σ size
(two clones + two evaluations + canonicalization); verified optimization
costs a small multiple of unverified.
"""

import time

import pytest

from repro.core import (
    DocExpr,
    EvalAt,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    check_equivalence,
)
from repro.peers import AXMLSystem
from repro.xquery import Query

from common import emit, format_table, make_catalog


def build(n_items):
    system = AXMLSystem.with_peers(["client", "data"], bandwidth=1e6)
    system.peer("data").install_document("cat", make_catalog(n_items))
    query = Query(
        "for $i in $d//item where $i/price > 5 return $i/name",
        params=("d",),
        name="sel",
    )
    plan = Plan(
        QueryApply(QueryRef(query, "client"), (DocExpr("cat", "data"),)),
        "client",
    )
    rewritten = Plan(EvalAt("data", plan.expr), "client")
    return system, plan, rewritten


def run_sweep():
    rows = []
    for n_items in (25, 100, 400):
        system, plan, rewritten = build(n_items)
        started = time.perf_counter()
        verdict = check_equivalence(plan, rewritten, system)
        verify_ms = (time.perf_counter() - started) * 1000
        assert verdict.equivalent
        rows.append((n_items, verify_ms))
    return rows


def optimizer_overhead():
    system, plan, _ = build(150)
    started = time.perf_counter()
    Optimizer(system).optimize_with("beam", plan, depth=2, beam=4)
    plain_ms = (time.perf_counter() - started) * 1000
    verifier = lambda a, b: check_equivalence(a, b, system).equivalent
    started = time.perf_counter()
    Optimizer(system, verifier=verifier).optimize_with(
        "beam", plan, depth=2, beam=4, verify=True
    )
    verified_ms = (time.perf_counter() - started) * 1000
    return plain_ms, verified_ms


def test_a3_verification_overhead(benchmark):
    rows = run_sweep()
    plain_ms, verified_ms = optimizer_overhead()
    table_rows = [(*row, "") for row in rows]
    table_rows.append(("-", plain_ms, "optimizer, unverified"))
    table_rows.append(("-", verified_ms, "optimizer, verify=True"))
    emit(
        "A3",
        "verification overhead: one check by doc size; optimizer with/without",
        format_table(["items", "wall ms", "note"], table_rows),
    )

    # scales sub-quadratically: 16x the doc costs < 64x the time
    assert rows[-1][1] < max(rows[0][1], 0.5) * 64
    # verified optimization costs a bounded multiple of unverified
    assert verified_ms < plain_ms * 10

    system, plan, rewritten = build(100)
    benchmark.pedantic(
        lambda: check_equivalence(plan, rewritten, system),
        rounds=3,
        iterations=1,
    )
