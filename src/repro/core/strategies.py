"""Pluggable plan-search strategies behind one protocol.

The optimizer (Section 3.3) is a search over the rewrite space induced by
equivalence rules (10)–(16).  *What* is searched — expansion via rules,
scoring via a cost function, optional admissibility via the equivalence
verifier — is captured once by :class:`SearchSpace`; *how* it is searched
is a :class:`OptimizerStrategy`:

* :class:`BeamSearchStrategy` — bounded best-first search keeping a beam
  of the cheapest frontier plans per level;
* :class:`GreedyStrategy` — hill climbing on the single best improving
  rewrite;
* :class:`ExhaustiveStrategy` — breadth-first enumeration of the whole
  rewrite space, bounded only by depth and a plan budget; the quality
  yardstick the cheaper strategies are judged against.

Strategies are registered by name (:func:`register_strategy`) so callers
can ask for ``Session(strategy="greedy")`` and third parties can plug in
their own search without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import FragmentUnavailableError, OptimizerError, PeerDownError
from ..obs.metrics import MetricsRegistry
from ..peers.system import AXMLSystem
from .cost import Cost
from .costmodel import CostModel, OracleCostModel
from .planspace import CacheStats, PlanCache, plan_fingerprint
from .rules import DEFAULT_RULES, Plan, Rewrite, RewriteRule

__all__ = [
    "CostFn",
    "OptimizationResult",
    "SearchSpace",
    "OptimizerStrategy",
    "BeamSearchStrategy",
    "GreedyStrategy",
    "ExhaustiveStrategy",
    "STRATEGIES",
    "register_strategy",
    "available_strategies",
    "make_strategy",
]

CostFn = Callable[[Plan], Cost]


def improvement_ratio(original: Cost, best: Cost) -> float:
    """Scalar cost ratio original/best (>1 means the optimizer won).

    A zero-cost plan that was already zero-cost is *unimproved*, not
    infinitely improved: 0/0 reports ``1.0``.
    """
    best_scalar = best.scalar()
    original_scalar = original.scalar()
    if best_scalar > 0:
        return original_scalar / best_scalar
    return 1.0 if original_scalar == 0 else float("inf")


@dataclass
class OptimizationResult:
    """Best plan found plus the search trace."""

    best: Plan
    best_cost: Cost
    original_cost: Cost
    explored: int
    #: (plan, cost, producing rule) for everything scored, best first.
    trace: List[Tuple[Plan, Cost, str]] = field(default_factory=list)
    #: Name of the strategy that produced this result.
    strategy: str = ""
    #: What this search did (plans scored, expanded, deduped, estimator
    #: memo traffic), filled in by :meth:`Optimizer.optimize_with
    #: <repro.core.optimizer.Optimizer.optimize_with>`; ``None`` on the
    #: result of a bare ``strategy.search``.
    cache: Optional[CacheStats] = None

    @property
    def improvement(self) -> float:
        """See :func:`improvement_ratio` (0/0 reports ``1.0``)."""
        return improvement_ratio(self.original_cost, self.best_cost)

    def describe(self) -> str:
        lines = [
            f"original: {self.original_cost.describe()}",
            f"best:     {self.best_cost.describe()}  (x{self.improvement:.2f})",
            f"explored: {self.explored} plans",
            f"plan:     {self.best.describe()}",
        ]
        if self.cache is not None:
            lines.append(self.cache.describe())
        return "\n".join(lines)


class SearchSpace:
    """The rewrite space one strategy searches: expand, score, admit.

    Bundles the system Σ, the rule set, the cost model and the
    (optional) equivalence verifier so every strategy sees the same
    space through the same three operations.  A space remembers nothing
    about plans: every :meth:`score` invokes the cost model and every
    :meth:`expand` runs the rules.  What one search must not do twice it
    keeps itself, for exactly as long as it runs — beam and exhaustive a
    ``visited`` set of plan fingerprints, greedy a score map over its
    overlapping neighbourhoods — which needs no salt (Σ does not change
    under a running search), no invalidation and no soundness argument.
    Whole searches are remembered in front of the space (the
    prepared-plan table of :mod:`repro.core.planspace`), Σ's statistics
    behind it (the estimator memo).

    ``stats`` is where this space counts — the
    :class:`~repro.core.planspace.PlanCache`'s lifetime counters, a
    private block without a cache; callers wanting one search's share
    take a :meth:`~repro.core.planspace.CacheStats.delta_since` window
    around it.  ``registry`` is the labeled
    :class:`~repro.obs.metrics.MetricsRegistry` rule-application
    failures are counted into (``rule_errors{rule=...}``).
    """

    def __init__(
        self,
        system: AXMLSystem,
        rules: Sequence[RewriteRule] = DEFAULT_RULES,
        verifier: Optional[Callable[[Plan, Plan], bool]] = None,
        verify: bool = False,
        cache: Optional[PlanCache] = None,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.system = system
        self.rules = list(rules)
        self.cost_model: CostModel = cost_model or OracleCostModel(system)
        self.verifier = verifier
        self.verify = verify
        self.stats = cache.stats if cache is not None else CacheStats()
        self.registry = registry if registry is not None else MetricsRegistry()

    def note_dedup(self) -> None:
        """A strategy skipped a candidate already processed this search."""
        self.stats.plans_deduped += 1

    def expand(self, plan: Plan) -> List[Rewrite]:
        """Every rewrite any rule proposes for ``plan``."""
        rewrites: List[Rewrite] = []
        for rule in self.rules:
            try:
                rewrites.extend(rule.apply(plan, self.system))
            except Exception:
                # a rule failing to match/apply must never kill the search,
                # but it must not vanish silently either: count it, labeled
                # by rule, so a buggy rule shows up in the metrics dump
                self.registry.counter(
                    "rule_errors", rule=getattr(rule, "name", type(rule).__name__)
                ).inc()
                continue
        self.stats.plans_expanded += 1
        return rewrites

    def _scored(
        self, plan: Plan, scorer: CostFn, strict: bool = False
    ) -> Optional[Cost]:
        """``scorer(plan)``, counted; ``None`` when the plan is unevaluable.

        ``strict`` is the original-plan contract: churn's *typed*
        verdicts surface (FragmentUnavailableError when the last copy
        died, PeerDownError when the site left) and any other failure is
        the classic optimizer-level "not evaluable".
        """
        self.stats.plans_scored += 1
        try:
            return scorer(plan)
        except (FragmentUnavailableError, PeerDownError):
            if strict:
                raise
        except Exception:
            pass  # unevaluable candidate (e.g. undefined send)
        if strict:
            raise OptimizerError("the original plan is not evaluable")
        return None

    def score(self, plan: Plan, strict: bool = False) -> Optional[Cost]:
        """Search-time cost of ``plan`` (``None`` when unevaluable)."""
        return self._scored(plan, self.cost_model.score, strict)

    def score_original(self, plan: Plan) -> Cost:
        """Cost of the plan a search starts from, which must be evaluable."""
        return self.score(plan, strict=True)

    def check_cost(self, plan: Plan, strict: bool = False) -> Optional[Cost]:
        """Exact post-search judgment of ``plan`` (hybrid's oracle check).

        Models with ``final_check`` expose a ``check(plan)`` scorer;
        others are judged by their own score.  ``strict`` is
        :meth:`score_original`'s contract.
        """
        checker = getattr(self.cost_model, "check", self.cost_model.score)
        return self._scored(plan, checker, strict)

    def admissible(self, original: Plan, candidate: Plan) -> bool:
        """Equivalence check gate, active only in ``verify`` mode."""
        if not self.verify or self.verifier is None:
            return True
        return self.verifier(original, candidate)


@runtime_checkable
class OptimizerStrategy(Protocol):
    """A search procedure over a :class:`SearchSpace`."""

    name: str

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        """Return the best plan found starting from ``plan``."""
        ...


class BeamSearchStrategy:
    """Bounded best-first search.

    ``depth`` bounds rewrite chain length; ``beam`` bounds how many
    frontier plans survive per level.
    """

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
                    cost = space.score(rewrite.plan)
                    if cost is None:
                        continue
                    if not space.admissible(plan, rewrite.plan):
                        continue
                    visited.add(key)
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


class GreedyStrategy:
    """Hill climbing: take the single cheapest improving rewrite."""

    name = "greedy"

    def __init__(self, max_steps: int = 8) -> None:
        self.max_steps = max_steps

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        original_cost = space.score_original(plan)
        current, current_cost = plan, original_cost
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        explored = 1
        # hill climbing deliberately re-visits its whole neighborhood each
        # step (a revisit is explored and traced again), and consecutive
        # neighborhoods overlap: the map keeps a revisit from being
        # re-scored
        scores: Dict[str, Optional[Cost]] = {plan_fingerprint(plan): original_cost}
        for _ in range(self.max_steps):
            best_step: Optional[Tuple[Cost, Plan, str]] = None
            for rewrite in space.expand(current):
                key = plan_fingerprint(rewrite.plan)
                if key not in scores:
                    scores[key] = space.score(rewrite.plan)
                cost = scores[key]
                if cost is None:
                    continue
                if not space.admissible(plan, rewrite.plan):
                    continue
                explored += 1
                trace.append((rewrite.plan, cost, rewrite.rule))
                if cost < current_cost and (
                    best_step is None or cost < best_step[0]
                ):
                    best_step = (cost, rewrite.plan, rewrite.rule)
            if best_step is None:
                break
            current_cost, current, _ = best_step
        trace.sort(key=lambda entry: entry[1].scalar())
        return OptimizationResult(
            best=current,
            best_cost=current_cost,
            original_cost=original_cost,
            explored=explored,
            trace=trace,
            strategy=self.name,
        )


class ExhaustiveStrategy:
    """Breadth-first enumeration of the whole rewrite space, bounded.

    No beam pruning: every rewrite reachable within ``depth`` steps is
    scored, up to a ``max_plans`` budget that keeps combinatorial rule
    sets from running away.  The budget is a safety rail, not a tuning
    knob — when it trips, the result is still the best of everything
    scored so far.

    A per-search visited set (canonical fingerprints) keeps the BFS on
    *distinct* plans whatever rewrite order reaches them — so the
    ``max_plans`` budget is spent on genuinely new plans, each scored
    and expanded once.  Nothing is carried to the next search: a
    repeated query is the prepared-plan table's business
    (:mod:`repro.core.planspace`), not the enumeration's.
    """

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
                    cost = space.score(rewrite.plan)
                    if cost is None:
                        continue
                    if not space.admissible(plan, rewrite.plan):
                        continue
                    visited.add(key)
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


# -- registry --------------------------------------------------------------------

#: Name → factory for every registered strategy.  Factories receive the
#: keyword options the caller passed (e.g. ``depth=2, beam=4``).
STRATEGIES: Dict[str, Callable[..., OptimizerStrategy]] = {}


def register_strategy(
    name: str, factory: Callable[..., OptimizerStrategy], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` for ``Session(strategy=name)``."""
    if name in STRATEGIES and not replace:
        raise OptimizerError(
            f"optimizer strategy {name!r} is already registered "
            "(pass replace=True to override)"
        )
    STRATEGIES[name] = factory


def available_strategies() -> List[str]:
    return sorted(STRATEGIES)


def make_strategy(
    spec: Union[str, OptimizerStrategy], **options
) -> OptimizerStrategy:
    """Resolve a strategy name (plus factory options) or pass through an instance."""
    if isinstance(spec, str):
        try:
            factory = STRATEGIES[spec]
        except KeyError:
            raise OptimizerError(
                f"unknown optimizer strategy {spec!r}; "
                f"available: {', '.join(available_strategies())}"
            ) from None
        return factory(**options)
    if callable(getattr(spec, "search", None)):
        if options:
            raise OptimizerError(
                "strategy options are only accepted with a strategy *name*; "
                f"got an instance plus options {sorted(options)}"
            )
        return spec
    raise OptimizerError(
        f"not an optimizer strategy: {spec!r} (need a registered name or an "
        "object with a search(plan, space) method)"
    )


register_strategy("beam", BeamSearchStrategy)
register_strategy("greedy", GreedyStrategy)
register_strategy("exhaustive", ExhaustiveStrategy)
