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

Beam and exhaustive are one level-synchronous walk (:func:`_walk_levels`)
that differs only in how many plans of a level go on to the next — the
``beam`` cheapest, or all of them — and in exhaustive's plan budget.

Every strategy scores the original plan first.  After that, where the
cost model has a ``bound`` (the oracle's
:func:`~repro.core.cost.lower_bound`), a candidate whose bound's scalar
is at least the best cost so far — lowered by every admitted candidate
scored before it in the same level or step — is *pruned*: it is not
scored, since its cost is at least its bound and so cannot beat that
best.  A pruned candidate is otherwise a candidate like any other: it
is gated by ``admissible``, counts in ``explored`` (so exhaustive's
budget means what it meant), and stays in its level, ranked by its
bound, so it can still be expanded.  It is listed, with its bound, on
:attr:`OptimizationResult.pruned`, apart from the scored ``trace``.

Strategies are registered by name (:func:`register_strategy`) so callers
can ask for ``Session(strategy="greedy")`` and third parties can plug in
their own search without touching this module.
"""

from __future__ import annotations

import math
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

from ..errors import (
    ActivationCycleError,
    FragmentUnavailableError,
    OptimizerError,
    PeerDownError,
    ReproError,
)
from ..obs.metrics import MetricsRegistry
from ..peers.system import AXMLSystem
from .cost import Cost, Simulation
from .costmodel import CostModel, OracleCostModel
from .planspace import CacheStats, PlanCache, plan_fingerprint
from .rules import DEFAULT_RULES, Plan, Rewrite, RewriteRule, idle_delegations

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
    #: (plan, bound, producing rule) for every candidate pruned unscored,
    #: lowest bound first.
    pruned: List[Tuple[Plan, Cost, str]] = field(default_factory=list)
    #: Name of the strategy that produced this result.
    strategy: str = ""
    #: What this search did (plans scored, expanded, deduped, estimator
    #: memo traffic), filled in by :meth:`Optimizer.optimize_with
    #: <repro.core.optimizer.Optimizer.optimize_with>`; ``None`` on the
    #: result of a bare ``strategy.search``.
    cache: Optional[CacheStats] = None
    #: The oracle's run of :attr:`best` (a
    #: :class:`~repro.core.cost.Simulation`) when the search made one,
    #: filled in by ``optimize_with``; it holds a whole clone of Σ, so
    #: whoever keeps a result for longer drops it (the session executes
    #: a lone job by it, see ``Session._pipeline``).
    simulation: Optional[Simulation] = field(default=None, repr=False, compare=False)

    @property
    def improvement(self) -> float:
        """See :func:`improvement_ratio` (0/0 reports ``1.0``)."""
        return improvement_ratio(self.original_cost, self.best_cost)


class SearchSpace:
    """The rewrite space one strategy searches: expand, bound, score, admit.

    Bundles the system Σ, the rule set, the cost model and the
    (optional) equivalence verifier so every strategy sees the same
    space through the same three operations.  The space holds no
    rewrite that adds an *idle delegation* — an ``EvalAt(p, e)``
    evaluated at ``p`` already, which costs what ``e`` costs or more —
    so no strategy, cost model or third-party rule ever pays to score
    one (:meth:`expand`).  A candidate is priced by :meth:`price`: its
    :meth:`bound` first, where the cost model has one, and its score
    only if that bound could still beat the best so far.  A space
    remembers nothing about plans: every :meth:`score` invokes the cost
    model and every :meth:`expand` runs the rules.  What one search must
    not do twice it keeps itself, for exactly as long as it runs — beam
    and exhaustive a ``visited`` set of plan fingerprints, greedy a price
    map over its overlapping neighbourhoods — which needs no salt (Σ does
    not change under a running search), no invalidation and no soundness
    argument.
    Whole searches are remembered in front of the space (the
    prepared-plan table of :mod:`repro.core.planspace`), Σ's statistics
    behind it (the estimator memo).

    ``stats`` is where this space counts — the
    :class:`~repro.core.planspace.PlanCache`'s lifetime counters, a
    private block without a cache; callers wanting one search's share
    take a :meth:`~repro.core.planspace.CacheStats.delta_since` window
    around it.  ``registry`` is the labeled
    :class:`~repro.obs.metrics.MetricsRegistry` rule-application
    failures are counted into (``rule_errors{rule=...}``), as are the
    dropped idle rewrites, by the rule that proposed them
    (``rewrites_dropped{rule=...}``).
    """

    def __init__(
        self,
        system: AXMLSystem,
        rules: Sequence[RewriteRule] = DEFAULT_RULES,
        verifier: Optional[Callable[[Plan, Plan], bool]] = None,
        cache: Optional[PlanCache] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.system = system
        self.rules = list(rules)
        self.cost_model: CostModel = cost_model or OracleCostModel(system)
        self.verifier = verifier
        self.stats = cache.stats if cache is not None else CacheStats()
        self.registry = MetricsRegistry()

    def note_dedup(self) -> None:
        """A strategy skipped a candidate already processed this search."""
        self.stats.plans_deduped += 1

    def expand(self, plan: Plan) -> List[Rewrite]:
        """Every rewrite any rule proposes for ``plan``, bar idle ones.

        A rewrite with more idle delegations than ``plan`` — an
        ``EvalAt(p, e)`` reached at site ``p``, see
        :func:`~repro.core.rules.idle_delegations` — is dropped before
        anyone scores it.  That is sound: the evaluator runs such a node
        as ``e`` (same value, effects, messages and clocks), and inside
        shipped code the wrapper only adds its own bytes, so the plan
        without it costs the same or less.  Where a rule proposes a plan
        only in its wrapped form (rule (14) around an inner ``EvalAt(p,
        ·)``, rule (11) under one), dropping it narrows the space; no
        chosen plan changed over the generated scenario families
        (``tests/test_idle_delegations.py``).  The comparison is against
        ``plan``'s own count, not against zero, so a plan that already
        carries an idle delegation still has rewrites to search.
        """
        idle = idle_delegations(plan)
        rewrites: List[Rewrite] = []
        for rule in self.rules:
            try:
                proposed = rule.apply(plan, self.system)
            except Exception:
                # a rule failing to match/apply must never kill the search,
                # but it must not vanish silently either: count it, labeled
                # by rule, so a buggy rule shows up in the metrics dump
                self.registry.counter(
                    "rule_errors", rule=getattr(rule, "name", type(rule).__name__)
                ).inc()
                continue
            for rewrite in proposed:
                if idle_delegations(rewrite.plan) > idle:
                    self.stats.idle_rewrites_dropped += 1
                    self.registry.counter("rewrites_dropped", rule=rewrite.rule).inc()
                else:
                    rewrites.append(rewrite)
        self.stats.plans_expanded += 1
        return rewrites

    def _scored(
        self, plan: Plan, scorer: CostFn, strict: bool = False
    ) -> Optional[Cost]:
        """``scorer(plan)``, counted; ``None`` when the plan is unevaluable.

        ``strict`` is the original-plan contract: verdicts on Σ rather
        than on the plan surface typed (FragmentUnavailableError when the
        last copy died, PeerDownError when the site left,
        ActivationCycleError when a service keeps calling itself) and any
        other typed failure is the classic optimizer-level "not
        evaluable", naming that failure and chained to it.  An untyped
        crash is a bug, not a verdict on the plan: it propagates.
        """
        self.stats.plans_scored += 1
        try:
            return scorer(plan)
        except (FragmentUnavailableError, PeerDownError, ActivationCycleError):
            if strict:
                raise
        except ReproError as exc:
            # unevaluable candidate (e.g. undefined send)
            if strict:
                raise OptimizerError(
                    "the original plan is not evaluable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        return None

    def score(self, plan: Plan, strict: bool = False) -> Optional[Cost]:
        """Search-time cost of ``plan`` (``None`` when unevaluable)."""
        return self._scored(plan, self.cost_model.score, strict)

    def bound(self, plan: Plan) -> Optional[Cost]:
        """The cost model's lower bound on :meth:`score`, or ``None``
        when the model has no ``bound`` (``analytic``, ``hybrid``).

        Raises the typed error the model raises for a plan it already
        sees to be unevaluable.
        """
        bound = getattr(self.cost_model, "bound", None)
        return None if bound is None else bound(plan)

    def price(self, plan: Plan, limit: float) -> Tuple[Optional[Cost], bool]:
        """``(cost, pruned)`` of a candidate that must beat ``limit``.

        ``limit`` is the scalar of the best cost so far.  When the
        candidate's :meth:`bound` has a scalar at least ``limit``, the
        candidate is not scored: the bound comes back, pruned.  A bound
        that raises a typed error makes the candidate unevaluable, as a
        failed score does: ``(None, False)``.
        """
        try:
            low = self.bound(plan)
        except ReproError:
            return None, False
        if low is not None and low.scalar() >= limit:
            self.stats.candidates_pruned += 1
            return low, True
        return self.score(plan), False

    def score_original(self, plan: Plan) -> Cost:
        """Cost of the plan a search starts from, which must be evaluable."""
        return self.score(plan, strict=True)

    def check_cost(self, plan: Plan, strict: bool = False) -> Optional[Cost]:
        """Exact post-search judgment of ``plan`` (hybrid's oracle check).

        Models with a ``check(plan)`` scorer are judged by it; others
        by their own score.  ``strict`` is
        :meth:`score_original`'s contract.
        """
        checker = getattr(self.cost_model, "check", self.cost_model.score)
        return self._scored(plan, checker, strict)

    def admissible(self, original: Plan, candidate: Plan) -> bool:
        """Equivalence check gate, active only with a ``verifier``."""
        if self.verifier is None:
            return True
        return self.verifier(original, candidate)


@runtime_checkable
class OptimizerStrategy(Protocol):
    """A search procedure over a :class:`SearchSpace`."""

    name: str

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        """Return the best plan found starting from ``plan``."""
        ...


def _entry_scalar(entry: Tuple[Cost, Plan]) -> float:
    return entry[0].scalar()


def _walk_levels(
    name: str,
    plan: Plan,
    space: SearchSpace,
    depth: int,
    width: Optional[int] = None,
    budget: float = math.inf,
) -> OptimizationResult:
    """The level-by-level walk of the rewrite graph beam and exhaustive share.

    Each of at most ``depth`` levels expands every frontier plan; a
    rewrite is priced and gated the first time this search sees its
    fingerprint, whatever the verdict (a candidate rejected here is
    rejected again if re-proposed), and the admitted ones make up the
    level.  Pricing (:meth:`SearchSpace.price`) prunes a rewrite whose
    bound is at least the level's running minimum — the best so far,
    lowered by each admitted rewrite scored earlier in the level — and
    a pruned rewrite joins the level at its bound.  With a ``width`` the
    level's ``width`` lowest go on (a stable sort by scalar, scored
    cost or bound); without one, all of them in proposal order.  The
    level's first lowest plan becomes the best when it beats the best
    so far.  ``budget`` caps ``explored``, pruned rewrites included: it
    is checked before each frontier plan is expanded and before each
    rewrite, and when it trips the result is the best of everything
    scored so far.
    """
    original_cost = space.score_original(plan)
    # keyed on canonical fingerprints so plans reached by different
    # rewrite orders — or differing only in tree-literal identity —
    # count as one
    visited = {plan_fingerprint(plan)}
    trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
    pruned: List[Tuple[Plan, Cost, str]] = []
    frontier: List[Tuple[Cost, Plan]] = [(original_cost, plan)]
    best_cost, best_plan = original_cost, plan
    explored = 1

    for _ in range(depth):
        level: List[Tuple[Cost, Plan]] = []
        limit = best_cost.scalar()
        for _, current in frontier:
            if explored >= budget:
                break
            for rewrite in space.expand(current):
                if explored >= budget:
                    break
                key = plan_fingerprint(rewrite.plan)
                if key in visited:
                    space.note_dedup()
                    continue
                visited.add(key)
                cost, skipped = space.price(rewrite.plan, limit)
                if cost is None or not space.admissible(plan, rewrite.plan):
                    continue
                explored += 1
                level.append((cost, rewrite.plan))
                if skipped:
                    pruned.append((rewrite.plan, cost, rewrite.rule))
                    continue
                trace.append((rewrite.plan, cost, rewrite.rule))
                scalar = cost.scalar()
                if scalar < limit:
                    limit = scalar
        if not level:
            break
        # A pruned entry never becomes the best: its bound is at least
        # the minimum when it was pruned — the best so far, or a scored
        # entry ahead of it in the level, which a stable order keeps
        # ahead on a tie.
        if width is None:
            top = min(level, key=_entry_scalar)
        else:
            level.sort(key=_entry_scalar)
            del level[width:]
            top = level[0]
        if top[0] < best_cost:
            best_cost, best_plan = top
        frontier = level

    return _result(name, best_plan, best_cost, original_cost, explored, trace, pruned)


def _result(name, best, best_cost, original_cost, explored, trace, pruned):
    """A strategy's result, its trace and pruned candidates lowest first."""
    trace.sort(key=_listed_scalar)
    pruned.sort(key=_listed_scalar)
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=original_cost,
        explored=explored,
        trace=trace,
        pruned=pruned,
        strategy=name,
    )


def _listed_scalar(entry: Tuple[Plan, Cost, str]) -> float:
    return entry[1].scalar()


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
        return _walk_levels(self.name, plan, space, self.depth, width=self.beam)


class GreedyStrategy:
    """Hill climbing: take the single cheapest improving rewrite."""

    name = "greedy"

    def __init__(self, max_steps: int = 8) -> None:
        self.max_steps = max_steps

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        original_cost = space.score_original(plan)
        current, current_cost = plan, original_cost
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        pruned: List[Tuple[Plan, Cost, str]] = []
        explored = 1
        # hill climbing deliberately re-visits its whole neighborhood each
        # step (a revisit is explored and listed again), and consecutive
        # neighborhoods overlap: the map keeps a revisit from being
        # re-priced.  A pruned revisit stays pruned: its bound is at
        # least the minimum it was pruned at, which is at least the cost
        # the step it was pruned in moved to, and every later step's
        # minimum is at most that cost.
        prices: Dict[str, Tuple[Optional[Cost], bool]] = {
            plan_fingerprint(plan): (original_cost, False)
        }
        for _ in range(self.max_steps):
            best_step: Optional[Tuple[Cost, Plan, str]] = None
            limit = current_cost.scalar()
            for rewrite in space.expand(current):
                key = plan_fingerprint(rewrite.plan)
                if key not in prices:
                    prices[key] = space.price(rewrite.plan, limit)
                cost, skipped = prices[key]
                if cost is None:
                    continue
                if not space.admissible(plan, rewrite.plan):
                    continue
                explored += 1
                if skipped:
                    pruned.append((rewrite.plan, cost, rewrite.rule))
                    continue
                trace.append((rewrite.plan, cost, rewrite.rule))
                if cost < current_cost and (
                    best_step is None or cost < best_step[0]
                ):
                    best_step = (cost, rewrite.plan, rewrite.rule)
                scalar = cost.scalar()
                if scalar < limit:
                    limit = scalar
            if best_step is None:
                break
            current_cost, current, _ = best_step
        return _result(
            self.name, current, current_cost, original_cost, explored, trace, pruned
        )


class ExhaustiveStrategy:
    """Breadth-first enumeration of the whole rewrite space, bounded.

    Beam's walk without a width: every rewrite reachable within
    ``depth`` steps is scored, up to a ``max_plans`` budget that keeps
    combinatorial rule sets from running away.  The budget is a safety
    rail, not a tuning knob — when it trips, the result is still the
    best of everything scored so far.

    The walk's per-search visited set keeps it on *distinct* plans
    whatever rewrite order reaches them — so the budget is spent on
    genuinely new plans, each scored and expanded once.  Nothing is
    carried to the next search: a repeated query is the prepared-plan
    table's business (:mod:`repro.core.planspace`), not the
    enumeration's.
    """

    name = "exhaustive"

    def __init__(self, depth: int = 4, max_plans: int = 4096) -> None:
        self.depth = depth
        self.max_plans = max_plans

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        return _walk_levels(self.name, plan, space, self.depth, budget=self.max_plans)


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
