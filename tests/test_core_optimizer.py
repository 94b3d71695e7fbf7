"""Unit tests for cost model, optimizer, and equivalence verifier."""

import pytest

from repro.core import (
    Cost,
    CostEstimator,
    DocDest,
    DocExpr,
    EvalAt,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    Send,
    Statistics,
    TreeExpr,
    check_equivalence,
    measure,
    observable_state,
)
from repro.core.rules import PushSelection
from repro.errors import OptimizerError
from repro.peers import AXMLSystem, DeclarativeService
from repro.xmlcore import parse
from repro.xquery import Query


def catalog(n=80):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>nm{i}</name><price>{i}</price>"
            f"<blurb>{'pad ' * 8}</blurb></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


@pytest.fixture()
def system():
    # slow network so data shipping dominates and optimization matters
    sys = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=50_000.0
    )
    sys.peer("data").install_document("cat", catalog())
    return sys


def naive_plan(name="sel", threshold=75):
    q = Query(
        f"for $i in $d//item where $i/price > {threshold} "
        "return <r>{$i/name/text()}</r>",
        params=("d",),
        name=name,
    )
    return Plan(
        QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)), "client"
    )


class TestCost:
    def test_scalar_ordering(self):
        cheap = Cost(bytes=10, messages=1, time=0.01)
        pricey = Cost(bytes=10, messages=1, time=0.5)
        assert cheap < pricey

    def test_bytes_break_time_ties(self):
        lean = Cost(bytes=100, messages=1, time=0.1)
        fat = Cost(bytes=1_000_000, messages=1, time=0.1)
        assert lean < fat

    def test_describe(self):
        text = Cost(1024, 3, 0.25).describe()
        assert "1024B" in text and "3 msgs" in text

    def test_measure_leaves_system_untouched(self, system):
        before = system.snapshot()
        measure(naive_plan(), system)
        assert system.snapshot() == before
        assert system.network.stats.messages == 0

    def test_measure_counts_real_traffic(self, system):
        cost = measure(naive_plan(), system)
        doc_bytes = system.peer("data").document("cat").serialized_size()
        assert cost.bytes >= doc_bytes * 0.9
        assert cost.messages >= 1
        assert cost.time > 0


class TestCostEstimator:
    def test_estimates_doc_shipping(self, system):
        estimator = CostEstimator(system)
        cost = estimator.estimate(naive_plan())
        doc_bytes = system.peer("data").document("cat").serialized_size()
        assert cost.bytes >= doc_bytes * 0.8

    def test_agrees_with_measurement_on_ranking(self, system):
        estimator = CostEstimator(
            system, Statistics(selectivity={"sel": 0.05, "sel-inner": 0.05})
        )
        plan = naive_plan()
        delegated = Plan(EvalAt("data", plan.expr), plan.site)
        est_naive = estimator.estimate(plan)
        est_deleg = estimator.estimate(delegated)
        mea_naive = measure(plan, system)
        mea_deleg = measure(delegated, system)
        assert (est_deleg.bytes < est_naive.bytes) == (
            mea_deleg.bytes < mea_naive.bytes
        )

    def test_empty_envelope_is_priced_at_its_wire_size(self, system):
        # a pushed selection that selects nothing ships <q-inner-result/>:
        # 17 bytes on the wire, and the estimator agrees to the byte
        (pushed,) = PushSelection().apply(naive_plan(threshold=10_000), system)
        measured = measure(pushed.plan, system)
        estimated = CostEstimator(system).estimate(pushed.plan)
        assert (estimated.bytes, estimated.messages) == (
            measured.bytes,
            measured.messages,
        )

    def test_multi_item_activation_is_priced_to_the_byte(self, system):
        # three responses replace the sc under a (non-empty) <results>
        # wrapper; the activated document then ships to the client
        helper = system.peer("helper")
        helper.install_document("src", parse("<l><i>1</i><i>2</i><i>3</i></l>"))
        helper.install_service(
            DeclarativeService("items", Query('doc("src")//i', name="items"))
        )
        system.peer("data").install_document("ax", parse(
            "<root><keep>x</keep>"
            "<sc><peer>helper</peer><service>items</service></sc></root>"
        ))
        plan = Plan(DocExpr("ax", "data"), "client")
        assert CostEstimator(system).estimate(plan) == measure(plan, system)

    def test_statistics_override_default(self, system):
        # explicit per-query statistics take precedence over the sampled
        # application, so tightening the hint shrinks the estimate
        tight = CostEstimator(system, Statistics(selectivity={"sel": 0.01}))
        loose = CostEstimator(system, Statistics(selectivity={"sel": 0.9}))
        plan = Plan(EvalAt("data", naive_plan().expr), "client")
        assert tight.estimate(plan).bytes < loose.estimate(plan).bytes

    def test_result_bytes_hint_wins(self):
        stats = Statistics(result_bytes={"q": 7}, selectivity={"q": 0.9})
        assert stats.query_output_bytes("q", 1_000_000) == 7


class TestOptimizer:
    def test_finds_cheaper_plan(self, system):
        result = Optimizer(system).optimize_with("beam", naive_plan(), depth=2, beam=6)
        assert result.best_cost.scalar() <= result.original_cost.scalar()
        assert result.best_cost.bytes < result.original_cost.bytes

    def test_improvement_ratio(self, system):
        result = Optimizer(system).optimize_with("beam", naive_plan(), depth=2)
        assert result.improvement >= 1.0

    def test_best_plan_verified_equivalent(self, system):
        plan = naive_plan()
        result = Optimizer(system).optimize_with("beam", plan, depth=2)
        assert check_equivalence(plan, result.best, system).equivalent

    def test_trace_sorted_by_cost(self, system):
        result = Optimizer(system).optimize_with("beam", naive_plan(), depth=2)
        scalars = [cost.scalar() for _, cost, _ in result.trace]
        assert scalars == sorted(scalars)

    def test_greedy_never_worse_than_original(self, system):
        result = Optimizer(system).optimize_with("greedy", naive_plan())
        assert result.best_cost.scalar() <= result.original_cost.scalar()

    def test_greedy_vs_exhaustive(self, system):
        plan = naive_plan()
        greedy = Optimizer(system).optimize_with("greedy", plan)
        full = Optimizer(system).optimize_with("beam", plan, depth=3, beam=8)
        assert full.best_cost.scalar() <= greedy.best_cost.scalar() * 1.001

    def test_estimator_driven_search(self, system):
        estimator = CostEstimator(
            system, Statistics(selectivity={"sel": 0.05})
        )
        result = Optimizer(system, cost_model=estimator).optimize_with(
            "beam", naive_plan(), depth=2
        )
        # judged by *measured* cost, the estimator's pick must still win
        assert measure(result.best, system).bytes <= measure(
            naive_plan(), system
        ).bytes

    def test_verify_mode_filters_nonequivalent(self, system):
        plan = naive_plan()
        optimizer = Optimizer(
            system,
            verifier=lambda a, b: check_equivalence(a, b, system).equivalent,
        )
        result = optimizer.optimize_with("beam", plan, depth=2, verify=True)
        assert check_equivalence(plan, result.best, system).equivalent

    def test_unevaluable_plan_rejected(self, system):
        bad = Plan(DocExpr("missing-doc", "data"), "client")
        with pytest.raises(OptimizerError):
            Optimizer(system).optimize_with("beam", bad)

    def test_describe_mentions_costs(self, system):
        result = Optimizer(system).optimize_with("beam", naive_plan(), depth=1)
        text = result.describe()
        assert "original:" in text and "best:" in text


class TestVerifier:
    def test_equivalent_plans(self, system):
        plan = naive_plan()
        delegated = Plan(EvalAt("data", plan.expr), plan.site)
        verdict = check_equivalence(plan, delegated, system)
        assert verdict.equivalent

    def test_different_values_detected(self, system):
        a = Plan(TreeExpr(parse("<x>1</x>"), "client"), "client")
        b = Plan(TreeExpr(parse("<x>2</x>"), "client"), "client")
        verdict = check_equivalence(a, b, system)
        assert not verdict.equivalent
        assert "values differ" in verdict.reason

    def test_state_divergence_detected(self, system):
        a = Plan(Send(DocDest("new1", "helper"), DocExpr("cat", "data")), "data")
        b = Plan(Send(DocDest("new2", "helper"), DocExpr("cat", "data")), "data")
        verdict = check_equivalence(a, b, system)
        assert not verdict.equivalent
        assert "state differs" in verdict.reason

    def test_artifacts_ignored(self, system):
        # a plan that installs only a tmp- document equals a no-op plan
        a = Plan(
            Seq := __import__("repro.core", fromlist=["Seq"]).Seq(
                (
                    Send(DocDest("tmp-x", "helper"), DocExpr("cat", "data")),
                    TreeExpr(parse("<v/>"), "data"),
                )
            ),
            "data",
        )
        b = Plan(TreeExpr(parse("<v/>"), "data"), "data")
        verdict = check_equivalence(a, b, system)
        assert verdict.equivalent, verdict.reason

    def test_failing_plan_reported(self, system):
        bad = Plan(DocExpr("missing", "data"), "client")
        good = Plan(TreeExpr(parse("<v/>"), "client"), "client")
        verdict = check_equivalence(bad, good, system)
        assert not verdict.equivalent
        assert "failed" in verdict.reason

    def test_observable_state_hides_artifacts(self, system):
        system.peer("helper").install_document("tmp-secret", parse("<t/>"))
        state = observable_state(system)
        docs = dict(state["helper"][0])
        assert "tmp-secret" not in docs


class TestPlanDerivedEstimates:
    """The estimator consults the logical algebra for unregistered queries."""

    def test_unknown_selective_query_estimated_below_default(self, system):
        from repro.xquery.algebra import compile_query

        # equality predicate -> the plan compiler assigns ~5% selectivity,
        # far below the 25% statistics default
        q = Query(
            "for $i in $d//item where $i/name = 'nm3' return $i",
            params=("d",),
            name=None,  # unregistered: forces the plan path
        )
        plan = Plan(
            QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)),
            "client",
        )
        delegated = Plan(EvalAt("data", plan.expr), "client")
        estimator = CostEstimator(system)
        assert estimator.estimate(delegated).bytes < estimator.estimate(plan).bytes

    def test_aggregate_estimated_tiny(self, system):
        q = Query(
            "for $i in $d//item return count($i)", params=("d",), name=None
        )
        delegated = Plan(
            EvalAt("data", QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),))),
            "client",
        )
        cost = CostEstimator(system).estimate(delegated)
        # result shipped back is a single tiny item, not a doc-sized blob
        doc_bytes = system.peer("data").document("cat").serialized_size()
        assert cost.bytes < doc_bytes / 3

    def test_uncompilable_query_falls_back(self, system):
        q = Query("count($d//item) + 1", params=("d",), name=None)
        plan = Plan(
            QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)),
            "client",
        )
        cost = CostEstimator(system).estimate(plan)  # must not raise
        assert cost.bytes > 0
