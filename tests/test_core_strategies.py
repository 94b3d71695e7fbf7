"""Tests for the optimizer strategy protocol, registry, and result types."""

import pytest

from repro.core import (
    BeamSearchStrategy,
    Cost,
    DocExpr,
    ExhaustiveStrategy,
    GreedyStrategy,
    OptimizationResult,
    Optimizer,
    Plan,
    QueryApply,
    QueryRef,
    SearchSpace,
    available_strategies,
    make_strategy,
    register_strategy,
)
from repro.core import costmodel
from repro.core.strategies import STRATEGIES
from repro import connect
from repro.errors import (
    EvaluationUndefinedError,
    OptimizerError,
    UnknownDocumentError,
)
from repro.peers import AXMLSystem
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
    sys = AXMLSystem.with_peers(
        ["client", "data", "helper"], bandwidth=50_000.0
    )
    sys.peer("data").install_document("cat", catalog())
    return sys


def naive_plan():
    q = Query(
        "for $i in $d//item where $i/price > 75 "
        "return <r>{$i/name/text()}</r>",
        params=("d",),
        name="sel",
    )
    return Plan(
        QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)), "client"
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert {"beam", "greedy", "exhaustive"} <= set(names)

    def test_unknown_name_error_lists_available(self):
        with pytest.raises(OptimizerError) as excinfo:
            make_strategy("simulated-annealing")
        message = str(excinfo.value)
        assert "simulated-annealing" in message
        assert "beam" in message and "greedy" in message

    def test_make_strategy_forwards_options(self):
        strategy = make_strategy("beam", depth=5, beam=2)
        assert strategy.depth == 5 and strategy.beam == 2

    def test_instance_passes_through(self):
        instance = GreedyStrategy(max_steps=3)
        assert make_strategy(instance) is instance

    def test_instance_with_options_rejected(self):
        with pytest.raises(OptimizerError, match="options"):
            make_strategy(GreedyStrategy(), max_steps=3)

    def test_non_strategy_rejected(self):
        with pytest.raises(OptimizerError, match="not an optimizer strategy"):
            make_strategy(42)

    def test_custom_strategy_registration(self, system):
        class FirstRewriteStrategy:
            """Degenerate search: take the first scorable rewrite, if any."""

            name = "first-rewrite"

            def search(self, plan, space):
                original_cost = space.score_original(plan)
                best, best_cost, explored = plan, original_cost, 1
                for rewrite in space.expand(plan):
                    cost = space.score(rewrite.plan)
                    if cost is None:
                        continue
                    best, best_cost, explored = rewrite.plan, cost, 2
                    break
                return OptimizationResult(
                    best=best,
                    best_cost=best_cost,
                    original_cost=original_cost,
                    explored=explored,
                    strategy=self.name,
                )

        register_strategy("first-rewrite", FirstRewriteStrategy)
        try:
            assert "first-rewrite" in available_strategies()
            result = Optimizer(system).optimize_with(
                "first-rewrite", naive_plan()
            )
            assert result.strategy == "first-rewrite"
            assert result.explored == 2
        finally:
            STRATEGIES.pop("first-rewrite", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(OptimizerError, match="already registered"):
            register_strategy("beam", BeamSearchStrategy)

    def test_replace_allows_override(self):
        original = STRATEGIES["beam"]
        try:
            register_strategy("beam", GreedyStrategy, replace=True)
            assert STRATEGIES["beam"] is GreedyStrategy
        finally:
            STRATEGIES["beam"] = original


class TestStrategyParity:
    """``optimize_with(name)`` must match ``Strategy().search`` run directly."""

    def test_beam_by_name_matches_direct_search(self, system):
        plan = naive_plan()
        by_name = Optimizer(system).optimize_with("beam", plan, depth=2, beam=6)
        space = SearchSpace(system)
        direct = BeamSearchStrategy(depth=2, beam=6).search(plan, space)
        assert direct.best.describe() == by_name.best.describe()
        assert direct.best_cost == by_name.best_cost
        assert direct.explored == by_name.explored

    def test_greedy_by_name_matches_the_strategy_searched_directly(self, system):
        plan = naive_plan()
        by_name = Optimizer(system).optimize_with("greedy", plan)
        direct = GreedyStrategy().search(plan, SearchSpace(system))
        assert direct.best.describe() == by_name.best.describe()
        assert direct.best_cost == by_name.best_cost
        assert direct.explored == by_name.explored

    def test_exhaustive_at_least_as_good_as_beam(self, system):
        plan = naive_plan()
        space = SearchSpace(system)
        beam = BeamSearchStrategy(depth=2, beam=4).search(plan, space)
        full = ExhaustiveStrategy(depth=2).search(plan, space)
        assert full.best_cost.scalar() <= beam.best_cost.scalar() * 1.001
        assert full.explored >= beam.explored

    def test_exhaustive_budget_bounds_exploration(self, system):
        result = ExhaustiveStrategy(depth=3, max_plans=5).search(
            naive_plan(), SearchSpace(system)
        )
        assert result.explored <= 5
        assert result.best_cost.scalar() <= result.original_cost.scalar()

    def test_greedy_verify_gates_trace_like_beam(self, system):
        # with a verifier, rejected rewrites must not leak into the trace
        # or the explored count (parity with beam/exhaustive accounting)
        plan = naive_plan()
        rejecting = SearchSpace(system, verifier=lambda a, b: False)
        result = GreedyStrategy().search(plan, rejecting)
        assert result.explored == 1
        assert [rule for _, _, rule in result.trace] == ["original"]
        assert result.best.describe() == plan.describe()

    def test_space_checks_exactly_when_it_has_a_verifier(self, system):
        plan = naive_plan()
        asked = []

        def verifier(original, candidate):
            asked.append(candidate)
            return True

        checked = GreedyStrategy().search(
            plan, SearchSpace(system, verifier=verifier)
        )
        assert asked and checked.explored > 1
        unchecked = GreedyStrategy().search(plan, SearchSpace(system))
        # an admitting verifier changes nothing but the checks it makes
        assert unchecked.best.describe() == checked.best.describe()
        assert unchecked.explored == checked.explored

    def test_strategy_name_recorded(self, system):
        plan = naive_plan()
        for name in ("beam", "greedy", "exhaustive"):
            result = Optimizer(system).optimize_with(name, plan)
            assert result.strategy == name


class TestScoringFailures:
    """A typed failure is a verdict on the candidate; an untyped one is a bug."""

    def planted(self, monkeypatch, error):
        """The naive plan, with every other plan's ``measure`` raising ``error``."""
        plan = naive_plan()
        real = costmodel.measure

        def measuring(candidate, *args, **kwargs):
            if candidate is not plan:
                raise error
            return real(candidate, *args, **kwargs)

        monkeypatch.setattr(costmodel, "measure", measuring)
        return plan

    def test_an_untyped_crash_while_scoring_propagates(self, system, monkeypatch):
        plan = self.planted(monkeypatch, AttributeError("simulator bug"))
        with pytest.raises(AttributeError, match="simulator bug"):
            Optimizer(system).optimize_with("beam", plan)

    def test_a_typed_failure_drops_the_candidate(self, system, monkeypatch):
        plan = self.planted(monkeypatch, EvaluationUndefinedError("undefined send"))
        result = Optimizer(system).optimize_with("beam", plan)
        assert result.best is plan
        assert [rule for _, _, rule in result.trace] == ["original"]
        assert result.cache.plans_scored > 1  # candidates were scored, and dropped

    def test_an_unevaluable_original_names_and_chains_its_cause(self, system):
        # the document the plan reads does not exist: a typed verdict on Σ
        # that no search can route around
        with pytest.raises(OptimizerError, match="UnknownDocumentError") as excinfo:
            connect(system).explain(
                "for $i in $d//i return $i/p", at="client",
                bind={"d": "nope@data"},
            )
        assert "not evaluable" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, UnknownDocumentError)


class TestImprovementRatio:
    def _result(self, original, best):
        plan = Plan(DocExpr("d", "p"), "p")
        return OptimizationResult(
            best=plan, best_cost=best, original_cost=original, explored=1
        )

    def test_zero_over_zero_is_one(self):
        zero = Cost(bytes=0, messages=0, time=0.0)
        assert self._result(zero, zero).improvement == 1.0

    def test_zero_best_nonzero_original_is_inf(self):
        zero = Cost(bytes=0, messages=0, time=0.0)
        original = Cost(bytes=100, messages=1, time=0.5)
        assert self._result(original, zero).improvement == float("inf")

    def test_normal_ratio(self):
        original = Cost(bytes=0, messages=0, time=1.0)
        best = Cost(bytes=0, messages=0, time=0.5)
        assert self._result(original, best).improvement == pytest.approx(2.0)
