"""Beam and exhaustive search are one level-by-level walk; it searches as both did.

``core.strategies._walk_levels`` replaced the two ``search`` bodies below,
copied verbatim from the strategies as they were before the merge.  Over
generated searches of three scenario families, each reference and the
walk must pick the same plan at the same costs, explore the same count,
trace the same plans in the same order with the same rules, and do the
same planner work (every ``CacheStats`` counter).  Exhaustive runs at
budgets that trip mid-level, and the test checks that they did trip.
The loops scored every candidate, so the walk is compared with its
pruning off (the ``no_bound`` fixture); ``tests/test_bound.py`` compares
it with pruning on.
"""

from typing import List, Tuple

from repro import Session
from repro.core import BeamSearchStrategy, ExhaustiveStrategy, Optimizer
from repro.core.cost import Cost
from repro.core.planspace import plan_fingerprint
from repro.core.expressions import DocExpr
from repro.core.rules import Plan, Rewrite
from repro.core.strategies import OptimizationResult, SearchSpace
from repro.workloads import FRAGMENTED_SPEC, WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec

# ---------------------------------------------------------------------------
# The two loops the shared walk replaced, verbatim.
# ---------------------------------------------------------------------------


class ReferenceBeam:
    name = "beam"

    def __init__(self, depth: int = 3, beam: int = 8) -> None:
        self.depth = depth
        self.beam = beam

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        original_cost = space.score_original(plan)
        # visited is part of the algorithm (revisits waste beam slots),
        # keyed on canonical fingerprints so plans reached by different
        # rewrite orders — or differing only in tree-literal identity —
        # count as one.
        visited = {plan_fingerprint(plan)}
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        frontier: List[Tuple[Cost, Plan]] = [(original_cost, plan)]
        best_plan, best_cost = plan, original_cost
        explored = 1

        for _ in range(self.depth):
            candidates: List[Tuple[Cost, Plan, str]] = []
            for _, current in frontier:
                for rewrite in space.expand(current):
                    key = plan_fingerprint(rewrite.plan)
                    if key in visited:
                        space.note_dedup()
                        continue
                    # processed once, whatever the verdict: a candidate
                    # rejected here is rejected again if re-proposed
                    visited.add(key)
                    cost = space.score(rewrite.plan)
                    if cost is None:
                        continue
                    if not space.admissible(plan, rewrite.plan):
                        continue
                    explored += 1
                    candidates.append((cost, rewrite.plan, rewrite.rule))
                    trace.append((rewrite.plan, cost, rewrite.rule))
            if not candidates:
                break
            candidates.sort(key=lambda entry: entry[0].scalar())
            frontier = [
                (cost, candidate) for cost, candidate, _ in candidates[: self.beam]
            ]
            if frontier[0][0] < best_cost:
                best_cost, best_plan = frontier[0]

        trace.sort(key=lambda entry: entry[1].scalar())
        return OptimizationResult(
            best=best_plan,
            best_cost=best_cost,
            original_cost=original_cost,
            explored=explored,
            trace=trace,
            strategy=self.name,
        )


class ReferenceExhaustive:
    name = "exhaustive"

    def __init__(self, depth: int = 4, max_plans: int = 4096) -> None:
        self.depth = depth
        self.max_plans = max_plans

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        original_cost = space.score_original(plan)
        visited = {plan_fingerprint(plan)}
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        frontier: List[Plan] = [plan]
        best_plan, best_cost = plan, original_cost
        explored = 1

        for _ in range(self.depth):
            next_frontier: List[Plan] = []
            for current in frontier:
                if explored >= self.max_plans:
                    break
                for rewrite in space.expand(current):
                    if explored >= self.max_plans:
                        break
                    key = plan_fingerprint(rewrite.plan)
                    if key in visited:
                        space.note_dedup()
                        continue
                    # processed once, whatever the verdict: a candidate
                    # rejected here is rejected again if re-proposed
                    visited.add(key)
                    cost = space.score(rewrite.plan)
                    if cost is None:
                        continue
                    if not space.admissible(plan, rewrite.plan):
                        continue
                    explored += 1
                    trace.append((rewrite.plan, cost, rewrite.rule))
                    next_frontier.append(rewrite.plan)
                    if cost < best_cost:
                        best_cost, best_plan = cost, rewrite.plan
            frontier = next_frontier
            if not frontier or explored >= self.max_plans:
                break

        trace.sort(key=lambda entry: entry[1].scalar())
        return OptimizationResult(
            best=best_plan,
            best_cost=best_cost,
            original_cost=original_cost,
            explored=explored,
            trace=trace,
            strategy=self.name,
        )


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

FAMILIES = {
    "default": ScenarioSpec(items=20),
    "fragmented": FRAGMENTED_SPEC,
    "write-mix": WRITE_MIX_SPEC,
}

#: (label, the walk's strategy, the reference it must equal).
PAIRS = [
    *(
        (f"beam width {width}", BeamSearchStrategy(beam=width), ReferenceBeam(beam=width))
        for width in (1, 2, 8)
    ),
    *(
        (
            f"exhaustive budget {budget}",
            ExhaustiveStrategy(max_plans=budget),
            ReferenceExhaustive(max_plans=budget),
        )
        for budget in (5, 13, 4096)
    ),
]


def searched_plans(family):
    """The naive plan of every query of two generated scenarios, with its Σ."""
    for content_seed in (7, 11):
        generator = ScenarioGenerator(content_seed, FAMILIES[family])
        for scenario in generator.scenarios(2):
            session = Session(scenario.system)
            for query in scenario.queries:
                plan = session.plan(
                    query.source, at=query.at, bind=query.bindings, name=query.name
                )
                yield scenario.system, plan


def outcome(system, plan, strategy):
    """Everything a search hands out, with plans named by their fingerprint."""
    result = Optimizer(system).optimize_with(strategy, plan)
    return {
        "best": plan_fingerprint(result.best),
        "best_cost": result.best_cost,
        "original_cost": result.original_cost,
        "explored": result.explored,
        "trace": [(plan_fingerprint(p), cost, rule) for p, cost, rule in result.trace],
        "strategy": result.strategy,
        "cache": vars(result.cache),
    }


class ScriptedSpace:
    """A rewrite graph over named documents with scripted scalar costs."""

    def __init__(self, graph, costs):
        self.graph, self.costs = graph, costs

    def plan(self, name):
        return Plan(DocExpr(name, "p"), "p")

    def score(self, plan):
        return Cost(0, 0, self.costs[plan.expr.name])

    score_original = score

    def price(self, plan, limit):
        return self.score(plan), False  # no bound: every candidate is scored

    def expand(self, plan):
        return [Rewrite(self.plan(name), f"to-{name}") for name in self.graph.get(plan.expr.name, ())]

    def note_dedup(self):
        pass

    def admissible(self, original, candidate):
        return True


def test_a_tie_goes_to_the_first_proposed():
    # two plans of one level tie for cheapest: both loops keep the first
    space = ScriptedSpace({"o": ("c", "a", "b")}, {"o": 9.0, "a": 1.0, "b": 1.0, "c": 5.0})
    for strategy, reference in (
        (BeamSearchStrategy(), ReferenceBeam()),
        (ExhaustiveStrategy(), ReferenceExhaustive()),
    ):
        walked = strategy.search(space.plan("o"), space)
        assert walked.best.expr.name == reference.search(space.plan("o"), space).best.expr.name == "a"


def test_the_walk_searches_as_the_two_loops_did(no_bound):
    searches = 0
    tripped = {budget: 0 for budget in (5, 13)}
    for family in FAMILIES:
        for system, plan in searched_plans(family):
            for label, strategy, reference in PAIRS:
                with no_bound():
                    walked = outcome(system, plan, strategy)
                assert walked == outcome(system, plan, reference), (family, label)
                searches += 1
                budget = getattr(strategy, "max_plans", None)
                if budget in tripped and walked["explored"] == budget:
                    tripped[budget] += 1
    assert searches >= 3 * 6 * len(PAIRS)
    assert all(tripped.values()), tripped
