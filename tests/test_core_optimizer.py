"""Unit tests for cost model, optimizer, and equivalence verifier."""

import pytest

from repro.core import (
    AnalyticCostModel,
    Cost,
    CostEstimator,
    DocDest,
    DocExpr,
    EvalAt,
    Optimizer,
    Plan,
    PlanCache,
    QueryApply,
    QueryRef,
    Send,
    ServiceCallExpr,
    TreeExpr,
    check_equivalence,
    measure,
    observable_state,
)
from repro.core import verify
from repro.core.cost import DEFAULT_SELECTIVITY
from repro.core.evaluator import ExpressionEvaluator
from repro.core.rules import PushSelection
from repro.core.serialize import expression_size
from repro.errors import OptimizerError
from repro.net import wire_size
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

    def test_estimate_leaves_system_untouched(self, system):
        # an AXML read: its embedded call is priced by running it on a
        # clone, so neither the live reads nor the service count move
        helper = system.peer("helper")
        helper.install_query_service("names", 'doc("cat")//name', replace=True)
        helper.install_document("cat", catalog(4))
        system.peer("data").install_document("ax", parse(
            "<r><sc><peer>helper</peer><service>names</service></sc></r>"
        ))

        def state():
            return (
                system.snapshot(),
                system.stats_snapshot(),
                system.clock,
                [link.busy_until for link in system.network.links()],
                (system.network.stats.bytes, system.network.stats.messages),
                helper.service("names").invocations,
            )

        before = state()
        for plan in (naive_plan(), Plan(DocExpr("ax", "data"), "client")):
            assert CostEstimator(system).estimate(plan).bytes > 0
        assert state() == before

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
        estimator = CostEstimator(system)
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
        cache = PlanCache()
        model = AnalyticCostModel(system, cache=cache)
        result = Optimizer(system, cost_model=model, cache=cache).optimize_with(
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
        result = optimizer.optimize_with("beam", plan, depth=2)
        assert check_equivalence(plan, result.best, system).equivalent

    def test_unevaluable_plan_rejected(self, system):
        bad = Plan(DocExpr("missing-doc", "data"), "client")
        with pytest.raises(OptimizerError):
            Optimizer(system).optimize_with("beam", bad)


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
        assert verdict.reason.startswith("left plan failed: ")

    def test_untyped_crash_propagates(self, system, monkeypatch):
        # only a typed ReproError is a verdict: a bug while evaluating
        # either side must not read as "not equivalent"
        good = Plan(TreeExpr(parse("<v/>"), "client"), "client")
        broken = Plan(TreeExpr(parse("<v/>"), "client"), "client")

        class Planted(ExpressionEvaluator):
            def eval(self, expr, at, *args, **kwargs):
                if expr is broken.expr:
                    raise AttributeError("planted")
                return super().eval(expr, at, *args, **kwargs)

        monkeypatch.setattr(verify, "ExpressionEvaluator", Planted)
        for left, right in ((good, broken), (broken, good)):
            with pytest.raises(AttributeError, match="planted"):
                check_equivalence(left, right, system)

    def test_observable_state_hides_artifacts(self, system):
        system.peer("helper").install_document("tmp-secret", parse("<t/>"))
        state = observable_state(system)
        docs = dict(state["helper"][0])
        assert "tmp-secret" not in docs


#: Query shapes an apply sample prices, from a plain scan to no FLWOR
#: at all.
SAMPLED_SHAPES = {
    "full-pipeline": "for $i in $d//item where $i/price > 3 "
                     "order by $i/name return <r>{$i/name}</r>",
    "no-where": "for $i in $d//item return $i",
    "count": "for $i in $d//item return count($i)",
    "sum": "for $i in $d//item return sum($i/price)",
    "let": "for $i in $d//item let $n := $i/name "
           "where $i/price > 1 return $n",
    "equality": "for $i in $d//item where $i/name = 'nm3' return $i",
    "range": "for $i in $d//item where $i/name > 'nm3' return $i",
    "projection": "for $i in $d//item where $i/price > 1 return $i/name",
    "order-by": "for $i in $d//item order by $i/name return $i",
    "nested-for": "for $a in $d//item, $b in $a/name return $b",
    "computed-source": "for $i in (1, 2, 3) return $i",
    "non-flwor": "count($d//item) + 1",
    "empty": "for $i in $d//item where $i/price > 10000 return $i",
}


def delegated_apply(source, name=None):
    """``source`` applied to the catalog, evaluated at its home."""
    q = Query(source, params=("d",), name=name)
    return Plan(
        EvalAt("data", QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),))),
        "client",
    )


class TestApplySampledEstimates:
    """An application over a materializable argument is priced by running
    it once (an apply sample), whatever its shape and with no name."""

    @pytest.mark.parametrize(
        "source", list(SAMPLED_SHAPES.values()), ids=list(SAMPLED_SHAPES)
    )
    def test_sampled_estimate_is_the_oracle(self, system, source):
        plan = delegated_apply(source)
        est = CostEstimator(system).estimate(plan)
        exact = measure(plan, system)
        assert (est.bytes, est.messages) == (exact.bytes, exact.messages)
        assert est.time == pytest.approx(exact.time)

    def test_equality_pickier_than_range(self, system):
        estimator = CostEstimator(system)
        equality = estimator.estimate(delegated_apply(SAMPLED_SHAPES["equality"]))
        range_ = estimator.estimate(delegated_apply(SAMPLED_SHAPES["range"]))
        assert equality.bytes < range_.bytes

    def test_projection_shrinks_the_estimate(self, system):
        estimator = CostEstimator(system)
        projected = estimator.estimate(
            delegated_apply("for $i in $d//item where $i/price > 1 return $i/name")
        )
        whole = estimator.estimate(
            delegated_apply("for $i in $d//item where $i/price > 1 return $i")
        )
        assert projected.bytes < whole.bytes

    def test_estimate_never_reads_the_query_name(self, system):
        # names of one width serialize alike, and nothing else sees them
        source = SAMPLED_SHAPES["full-pipeline"]
        estimates = {
            CostEstimator(system).estimate(delegated_apply(source, name))
            for name in ("sel", "les", "xyz")
        }
        assert len(estimates) == 1

    def test_unknown_selective_query_estimated_below_default(self, system):
        # one item of eighty survives the equality predicate, far below
        # the 25% default selectivity
        q = Query(
            "for $i in $d//item where $i/name = 'nm3' return $i",
            params=("d",),
            name=None,
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


class TestDefaultSelectivity:
    """What cannot be sampled keeps DEFAULT_SELECTIVITY of its input."""

    @pytest.mark.parametrize(
        "outer_source",
        [
            "for $i in $d return $i/name",
            "for $i in $d order by $i/price return $i",
            "count($d)",
            "for $i in $d where $i/name = 'nm50' return $i",
        ],
        ids=["projection", "order-by", "aggregate", "equality"],
    )
    def test_unsampled_application_returns_the_default_share(
        self, system, outer_source
    ):
        # outer's argument is itself an application: it has no static
        # value, so outer is priced by the default, whatever its shape
        inner = Query(
            "for $i in $d//item where $i/price > 40 return $i",
            params=("d",), name="inner",
        )
        outer = Query(outer_source, params=("d",), name="outer")
        nested = QueryApply(
            QueryRef(outer, "data"),
            (QueryApply(QueryRef(inner, "data"), (DocExpr("cat", "data"),)),),
        )
        cost = CostEstimator(system).estimate(
            Plan(EvalAt("data", nested), "client")
        )
        # the inner application is sampled: its output is exact
        input_bytes = sum(
            item.serialized_size()
            for item in inner.run(system.peer("data").documents["cat"])
        )
        expected = max(1, int(input_bytes * DEFAULT_SELECTIVITY))
        # one message ships the expression to data, one the value back
        assert (cost.bytes, cost.messages) == (
            wire_size(expression_size(nested), {}) + wire_size(expected, {}),
            2,
        )

    def test_doc_reading_application_returns_the_default_share(self, system):
        # doc() resolves at the evaluation site, so the query is not run
        # ahead of time even though its argument is a stored document
        q = Query(
            'for $i in $d//item where $i/price > count(doc("cat")//item) - 5 '
            "return $i",
            params=("d",), name="reads-doc",
        )
        apply = QueryApply(QueryRef(q, "data"), (DocExpr("cat", "data"),))
        cost = CostEstimator(system).estimate(Plan(EvalAt("data", apply), "client"))
        doc_bytes = system.peer("data").documents["cat"].serialized_size()
        expected = max(1, int(doc_bytes * DEFAULT_SELECTIVITY))
        assert (cost.bytes, cost.messages) == (
            wire_size(expression_size(apply), {}) + wire_size(expected, {}),
            2,
        )

    def test_call_over_computed_parameters_returns_the_default_share(
        self, system
    ):
        # the parameter is a document, not a literal: the call is not run
        # ahead of time, and its response is the default share of it
        system.peer("helper").install_query_service(
            "names", "$d//name", params=("d",)
        )
        call = ServiceCallExpr("helper", "names", (DocExpr("cat", "data"),))
        cost = CostEstimator(system).estimate(Plan(call, "client"))
        doc_bytes = system.peer("data").documents["cat"].serialized_size()
        expected = max(1, int(doc_bytes * DEFAULT_SELECTIVITY))
        # the document to the caller, the CALL to helper, the response back
        assert (cost.bytes, cost.messages) == (
            wire_size(doc_bytes, {})
            + wire_size(doc_bytes, {"service": "names"})
            + wire_size(expected, {}),
            3,
        )
