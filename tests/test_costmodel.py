"""The CostModel API: registry, shims, parity, hybrid safety, cache salts,
and how many simulations each model spends planning.

The fast parity subset runs in tier-1; the full generated sweep is
marked ``generated`` and runs on demand:

    python -m pytest -m generated tests/test_costmodel.py
"""

import warnings

import pytest

from repro.core import (
    AnalyticCostModel,
    CallableCostModel,
    Cost,
    CostEstimator,
    DocExpr,
    EvalAt,
    Optimizer,
    OracleCostModel,
    Plan,
    PlanCache,
    QueryApply,
    QueryRef,
    SearchSpace,
    Statistics,
    available_cost_models,
    make_cost_model,
    measure,
    register_cost_model,
)
from repro.core import costmodel
from repro.core.costmodel import COST_MODELS
from repro.engine import LoadGenerator
from repro.errors import DifferentialMismatchError, OptimizerError, SessionError
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.peers import AXMLSystem
from repro.session import Session
from repro.workloads import (
    DifferentialHarness,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.xmlcore import parse
from repro.xquery import Query


def catalog(n=60):
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>nm{i}</name><price>{i}</price></item>"
            for i in range(n)
        )
        + "</catalog>"
    )


@pytest.fixture()
def system():
    sys = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=50_000.0
    )
    sys.peer("data").install_document("cat", catalog())
    return sys


def naive_plan(name="sel", threshold=55):
    q = Query(
        f"for $i in $d//item where $i/price > {threshold} "
        "return <r>{$i/name/text()}</r>",
        params=("d",),
        name=name,
    )
    return Plan(
        QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)), "client"
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"oracle", "analytic", "hybrid"} <= set(available_cost_models())

    def test_duplicate_name_rejected(self):
        with pytest.raises(OptimizerError, match="already registered"):
            register_cost_model("oracle", OracleCostModel)

    def test_replace_allows_override(self, system):
        register_cost_model("_cm_test", OracleCostModel)
        try:
            register_cost_model("_cm_test", AnalyticCostModel, replace=True)
            model = make_cost_model("_cm_test", system)
            assert isinstance(model, AnalyticCostModel)
        finally:
            COST_MODELS.pop("_cm_test", None)

    def test_unknown_name_lists_available(self, system):
        with pytest.raises(OptimizerError, match="analytic.*hybrid.*oracle"):
            make_cost_model("psychic", system)

    def test_instance_passes_through(self, system):
        model = OracleCostModel(system)
        assert make_cost_model(model, system) is model

    def test_instance_plus_options_rejected(self, system):
        with pytest.raises(OptimizerError, match="model \\*name\\*"):
            make_cost_model(OracleCostModel(system), system, count_time=False)

    def test_callable_wrapped_as_anonymous_model(self, system):
        model = make_cost_model(lambda plan: measure(plan, system), system)
        assert isinstance(model, CallableCostModel)
        assert model.name == "custom"
        assert model.cache_token() == ""

    def test_non_callable_rejected(self, system):
        with pytest.raises(OptimizerError, match="not a cost model"):
            make_cost_model(42, system)

    def test_estimator_instance_is_usable(self, system):
        # a bare CostEstimator is a plan -> Cost callable: it wraps
        result = Optimizer(
            system, cost_model=CostEstimator(system)
        ).optimize_with("beam", naive_plan(), depth=2)
        assert result.best_cost.scalar() <= result.original_cost.scalar()


class TestCostFnShim:
    def test_no_warning_on_modern_spelling(self, system):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(system, cost_model="hybrid")
            Optimizer(system, cost_model="analytic")


class TestTraceTracerSplit:
    def test_trace_stays_the_bool_flag(self, system):
        session = Session(system, trace=True)
        assert session.trace is True and session.tracer is None

    def test_tracer_kwarg_installs_tracer(self, system):
        tracer = Tracer()
        session = Session(system, tracer=tracer)
        assert session.tracer is tracer and session.trace is False

    def test_non_bool_trace_rejected(self, system):
        with pytest.raises(SessionError, match="tracer="):
            Session(system, trace=Tracer())


class _ExplodingRule:
    name = "exploding"

    def apply(self, plan, system):
        raise RuntimeError("boom")


class TestRuleErrors:
    def test_rule_failure_is_counted_not_fatal(self, system):
        registry = MetricsRegistry()
        space = SearchSpace(
            system, rules=[_ExplodingRule()], registry=registry
        )
        assert space.expand(naive_plan()) == []
        assert registry.counter_value("rule_errors", rule="exploding") == 1

    def test_search_survives_a_broken_rule(self, system):
        from repro.core.rules import DEFAULT_RULES

        optimizer = Optimizer(
            system, rules=list(DEFAULT_RULES) + [_ExplodingRule()]
        )
        result = optimizer.optimize_with("beam", naive_plan(), depth=2)
        assert result.best_cost.scalar() <= result.original_cost.scalar()
        # every expansion level hit the broken rule and counted it
        assert (
            optimizer.registry.counter_value("rule_errors", rule="exploding")
            > 0
        )


class _MisleadingModel:
    """Adversarial hybrid: ranks candidates *inversely* to their true cost."""

    name = "misleading"
    final_check = True

    def __init__(self, system):
        self.system = system

    def score(self, plan):
        exact = measure(plan, self.system)
        return Cost(bytes=0, messages=0, time=1.0 / (1.0 + exact.scalar()))

    def check(self, plan):
        return measure(plan, self.system)

    def cache_token(self):
        return "misleading"


class TestHybridSafetyNet:
    def test_hybrid_costs_are_oracle_true(self, system):
        plan = naive_plan()
        result = Optimizer(system, cost_model="hybrid").optimize_with(
            "beam", plan, depth=2
        )
        assert result.original_cost == measure(plan, system)
        assert result.best_cost == measure(result.best, system)

    def test_misleading_estimates_never_beat_not_optimizing(self, system):
        plan = naive_plan()
        result = Optimizer(
            system, cost_model=_MisleadingModel(system)
        ).optimize_with("beam", plan, depth=2)
        # the adversarial frontier picked the worst plan; the oracle
        # check rejected it and kept the original
        assert result.best.describe() == plan.describe()
        assert result.best_cost == measure(plan, system)
        assert result.improvement == 1.0

    def test_hybrid_never_worse_than_original(self, system):
        plan = naive_plan()
        result = Optimizer(system, cost_model="hybrid").optimize_with(
            "beam", plan, depth=3
        )
        assert (
            measure(result.best, system).scalar()
            <= measure(plan, system).scalar() + 1e-9
        )


class TestCacheTokens:
    def test_models_never_share_score_entries(self, system):
        cache = PlanCache()
        plan = naive_plan()
        oracle_space = SearchSpace(
            system, cost_model=OracleCostModel(system), cache=cache
        )
        analytic_space = SearchSpace(
            system,
            cost_model=AnalyticCostModel(system, cache=cache),
            cache=cache,
        )
        assert oracle_space.score(plan) == measure(plan, system)
        assert analytic_space.score(plan) == CostEstimator(system).estimate(plan)
        assert cache.stats.plans_scored == 2

    def test_different_statistics_do_not_share(self, system):
        cache = PlanCache()
        plan = naive_plan()
        for selectivity in (0.1, 0.9):
            statistics = Statistics(selectivity={"sel": selectivity})
            model = AnalyticCostModel(system, statistics=statistics, cache=cache)
            score = SearchSpace(system, cost_model=model, cache=cache).score(plan)
            # the memo both models write to never replays the other's deltas
            assert score == CostEstimator(system, statistics).estimate(plan)
        assert cache.stats.plans_scored == 2


class TestAnalyticAgreesWithOracle:
    def test_estimator_matches_oracle_on_local_plans(self, system):
        # with sampled statistics the estimate of a fully-static plan is
        # not merely correlated with the oracle — it is the same number
        plan = Plan(EvalAt("data", naive_plan().expr), "client")
        est = CostEstimator(system).estimate(plan)
        exact = measure(plan, system)
        assert est.bytes == exact.bytes
        assert est.time == pytest.approx(exact.time)

    def test_all_models_pick_equally_good_plans(self, system):
        plan = naive_plan()
        judged = {}
        for mode in ("oracle", "analytic", "hybrid"):
            result = Optimizer(system, cost_model=mode).optimize_with(
                "beam", plan, depth=2
            )
            judged[mode] = measure(result.best, system).scalar()
        assert judged["analytic"] == pytest.approx(judged["oracle"])
        assert judged["hybrid"] == pytest.approx(judged["oracle"])


class TestEstimationAvoidsSimulation:
    """A mesh with replicated documents, planned cold and then served
    under each model.  Cold planning (``explain`` of each distinct query
    on a fresh session) is what a model changes: a served job repeating a
    planned query skips the search under every model."""

    SPEC = ScenarioSpec(
        peers=6, topology="mesh", documents=4, axml_documents=1,
        items=20, services=2, replicas=2, queries=6,
    )

    def test_hybrid_simulates_a_fifth_of_the_oracle_and_answers_alike(
        self, monkeypatch
    ):
        simulated = []
        real_measure = costmodel.measure

        def counting(*args, **kwargs):
            simulated.append(args[0])
            return real_measure(*args, **kwargs)

        monkeypatch.setattr(costmodel, "measure", counting)
        simulations, served = {}, {}
        for mode in ("oracle", "analytic", "hybrid"):
            counts = set()
            for _ in range(2):  # an exact count: it repeats on a fresh session
                scenario = ScenarioGenerator(seed=7, spec=self.SPEC).scenario(0)
                session = Session(scenario.system, cost_model=mode)
                del simulated[:]
                for q in scenario.queries:
                    session.explain(q.source, q.at, q.bindings, q.name)
                counts.add(len(simulated))
            assert len(counts) == 1, (mode, counts)
            simulations[mode] = counts.pop()
            feed = LoadGenerator(scenario, seed=8).closed_loop(16, 4)
            report = Session(scenario.system, cost_model=mode).serve(feed=feed, seed=7)
            m = report.metrics
            assert m.failed == 0, mode
            served[mode] = (
                sorted((job.name, tuple(job.answers)) for job in report.jobs),
                (m.makespan, m.latency_p50, m.latency_p95, m.latency_p99),
            )
        assert simulations["analytic"] == 0
        assert simulations["oracle"] >= 5 * simulations["hybrid"], simulations
        # estimation changes what is simulated, never what is answered or
        # when: answers and virtual times are identical across models
        assert served["analytic"] == served["oracle"]
        assert served["hybrid"] == served["oracle"]


SMALL = ScenarioSpec(
    peers=4, documents=3, axml_documents=1, items=8, services=1,
    replicas=1, queries=4,
)

SWEEP = ScenarioSpec(
    peers=5, topology="mesh", documents=4, axml_documents=1, items=12,
    services=2, replicas=2, queries=5,
)


class TestCostModelParity:
    def test_parity_on_small_scenarios(self):
        harness = DifferentialHarness(
            ("beam", "greedy"), repro_dir=None, minimize=False
        )
        scenarios = ScenarioGenerator(seed=5, spec=SMALL).scenarios(2)
        report = harness.sweep("cost-model", scenarios, raise_on_failure=True)
        assert report.ok, report.describe()
        assert report.ratios, "no naive plans were priced"

    def test_raise_flag_fires_on_an_unmoored_estimate(self, monkeypatch):
        # a uniform x1000 keeps every ranking, so every model still
        # answers like the oracle: only the estimate-ratio bound can fail
        honest = CostEstimator.estimate

        def unmoored(self, plan):
            cost = honest(self, plan)
            return Cost(cost.bytes * 1000, cost.messages, cost.time * 1000)

        monkeypatch.setattr(CostEstimator, "estimate", unmoored)
        harness = DifferentialHarness(
            ("beam", "greedy"), repro_dir=None, minimize=False
        )
        scenarios = [ScenarioGenerator(seed=5, spec=SMALL).scenario(0)]
        report = harness.sweep("cost-model", scenarios)
        assert not report.ok
        assert not any(cell.failures for cell in report.cells)
        assert not all(cell.ratio_ok for cell in report.cells)
        assert "out of bounds" in report.describe()
        with pytest.raises(DifferentialMismatchError, match="estimate ratio"):
            harness.sweep("cost-model", scenarios, raise_on_failure=True)

    @pytest.mark.generated
    def test_parity_sweep_generated(self):
        harness = DifferentialHarness(repro_dir=None, minimize=False)
        scenarios = ScenarioGenerator(seed=7, spec=SWEEP).scenarios(8)
        report = harness.sweep("cost-model", scenarios, raise_on_failure=True)
        assert report.ok, report.describe()
        assert all(cell.ratio_ok for cell in report.cells), report.describe()
