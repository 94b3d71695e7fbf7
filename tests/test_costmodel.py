"""The CostModel API: name resolution, parity, hybrid safety, shared
caches, and how many simulations each model spends planning.

The fast parity subset runs in tier-1; the full generated sweep is
marked ``generated`` and runs on demand:

    python -m pytest -m generated tests/test_costmodel.py
"""

import warnings

import pytest

from repro.core import (
    AnalyticCostModel,
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
    make_cost_model,
    measure,
)
from repro.core import costmodel
from repro.core.costmodel import COST_MODELS
from repro.engine import LoadGenerator
from repro.errors import DifferentialMismatchError, OptimizerError, SessionError
from repro.obs import NO_TRACER, Tracer
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


class TestResolution:
    def test_unknown_name_lists_available(self, system):
        with pytest.raises(OptimizerError, match="analytic.*hybrid.*oracle"):
            make_cost_model("psychic", system)

    def test_instance_passes_through(self, system):
        model = OracleCostModel(system)
        assert make_cost_model(model, system) is model

    @pytest.mark.parametrize("name", ["oracle", "analytic", "hybrid"])
    def test_builtins_are_name_blind_by_class(self, name):
        # a class constant, not a property: no instance or setting of
        # the model can make it key prepared plans by exact name
        assert COST_MODELS[name].name_blind is True

    def test_non_callable_rejected(self, system):
        with pytest.raises(OptimizerError, match="not a cost model"):
            make_cost_model(42, system)

    def test_analytic_instance_is_usable(self, system):
        cache = PlanCache()
        result = Optimizer(
            system, cost_model=AnalyticCostModel(system, cache=cache), cache=cache
        ).optimize_with("beam", naive_plan(), depth=2)
        assert result.best_cost.scalar() <= result.original_cost.scalar()

    @pytest.mark.parametrize(
        "spec", ["lambda", "estimator", "unknown name", "no score"]
    )
    def test_session_rejects_what_is_not_a_model(self, system, spec):
        # a model is a name of COST_MODELS or an object with a name and a
        # score: a bare plan -> Cost callable is neither, and nothing
        # wraps it into one
        class NoScore:
            name = "no-score"

        cost_model = {
            "lambda": lambda plan: measure(plan, system),
            "estimator": CostEstimator(system),
            "unknown name": "psychic",
            "no score": NoScore(),
        }[spec]
        with pytest.raises(
            OptimizerError,
            match="one of the names analytic, hybrid, oracle "
            "or an object with a name and a score",
        ):
            Session(system, cost_model=cost_model)


class TestCostFnShim:
    def test_no_warning_on_modern_spelling(self, system):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(system, cost_model="hybrid")
            Optimizer(system, cost_model="analytic")


class TestTraceTracerSplit:
    def test_trace_stays_the_bool_flag(self, system):
        session = Session(system, trace=True)
        assert session.trace is True and session.tracer is NO_TRACER

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
        space = SearchSpace(system, rules=[_ExplodingRule()])
        assert space.expand(naive_plan()) == []
        assert space.registry.counter_value("rule_errors", rule="exploding") == 1

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

    def __init__(self, system):
        self.system = system

    def score(self, plan):
        exact = measure(plan, self.system)
        return Cost(bytes=0, messages=0, time=1.0 / (1.0 + exact.scalar()))

    def check(self, plan):
        return measure(plan, self.system)


class _Exact:
    """An oracle-priced model that counts what it scores and checks."""

    name = "exact"

    def __init__(self, system):
        self.system = system
        self.scored = 0

    def score(self, plan):
        self.scored += 1
        return measure(plan, self.system)


class _ExactChecked(_Exact):
    checked = 0

    def check(self, plan):
        self.checked += 1
        return measure(plan, self.system)


class TestFinalCheck:
    def test_a_model_without_check_is_judged_by_its_scores(self, system):
        model = _Exact(system)
        result = Optimizer(system, cost_model=model).optimize_with(
            "beam", naive_plan(), depth=2
        )
        assert result.cache.plans_scored == model.scored

    def test_a_model_with_check_is_final_checked(self, system):
        plan = naive_plan()
        model = _ExactChecked(system)
        result = Optimizer(system, cost_model=model).optimize_with(
            "beam", plan, depth=2
        )
        # the original and the pick, each judged once more by check()
        assert model.checked == (1 if result.best is plan else 2)
        assert result.cache.plans_scored == model.scored + model.checked
        assert result.original_cost == measure(plan, system)


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


class TestAnalyticAgreesWithOracle:
    def test_estimator_matches_oracle_on_local_plans(self, system):
        # with the application sampled, the estimate of a fully-static
        # plan is not merely correlated with the oracle — it is the same
        # number
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
        self, monkeypatch, no_bound
    ):
        # The oracle's count is of its searches with nothing pruned (every
        # candidate simulated, the reference hybrid is judged against);
        # pruned by its bound, it simulates fewer still.
        simulated = []
        real_measure = costmodel.measure

        def counting(*args, **kwargs):
            simulated.append(args[0])
            return real_measure(*args, **kwargs)

        def explained(mode):
            scenario = ScenarioGenerator(seed=7, spec=self.SPEC).scenario(0)
            session = Session(scenario.system, cost_model=mode)
            del simulated[:]
            for q in scenario.queries:
                session.explain(q.source, q.at, q.bindings, q.name)
            return scenario, len(simulated)

        monkeypatch.setattr(costmodel, "measure", counting)
        simulations, served = {}, {}
        for mode in ("oracle", "analytic", "hybrid"):
            counts = set()
            for _ in range(2):  # an exact count: it repeats on a fresh session
                if mode == "oracle":
                    with no_bound():
                        scenario, count = explained(mode)
                else:
                    scenario, count = explained(mode)
                counts.add(count)
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
        assert explained("oracle")[1] < simulations["oracle"]
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
