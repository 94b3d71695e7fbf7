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
  yardstick the cheaper strategies are judged against (E12).

Strategies are registered by name (:func:`register_strategy`) so callers
can ask for ``Session(strategy="greedy")`` and third parties can plug in
their own search without touching this module.
"""

from __future__ import annotations

import sys
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
from .planspace import (
    CacheStats,
    PlanCache,
    doc_epoch_signature,
    plan_fingerprint,
)
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


def _model_token(model: CostModel) -> str:
    """The model's cache salt ("" for models without one, oracle included)."""
    token = getattr(model, "cache_token", None)
    return token() if callable(token) else ""


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
    #: Plan-cache traffic attributable to this search (hits, misses,
    #: dedup skips); ``None`` for strategies that do not report it.
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
    space through the same three operations — plus, when a
    :class:`~repro.core.planspace.PlanCache` is attached, the memoization
    layer: :meth:`score` and :meth:`expand` are answered from the
    transposition table when the plan's canonical fingerprint has been
    seen before (possibly by a *different* strategy sharing the cache),
    so each distinct plan is costed and rule-expanded at most once.
    Cost entries are salted with the model's
    :meth:`~repro.core.costmodel.CostModel.cache_token`, so several
    models can share one cache over the same Σ without replaying each
    other's scores (the oracle's token is empty — its keys stay
    byte-identical to the historical layout).

    ``metrics`` counts this space's cache traffic; strategies snapshot it
    around a search to report their own delta (shared caches make the
    cache's global counters span many searches).  ``registry`` is the
    labeled :class:`~repro.obs.metrics.MetricsRegistry` rule-application
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
        #: Salt of the expansions table: what a plan expands to depends on
        #: the rule set, and spaces with different ones may share a cache
        #: (same token as the session's prepared-plan key).
        self._rules_token = tuple(self.rules)
        self.cost_model: CostModel = cost_model or OracleCostModel(system)
        # computed once: spaces are constructed fresh per search
        self._cost_token = _model_token(self.cost_model)
        self.verifier = verifier
        self.verify = verify
        self.cache = cache
        self.metrics = CacheStats()
        self.registry = registry if registry is not None else MetricsRegistry()

    @property
    def memoized(self) -> bool:
        return self.cache is not None

    def plan_key(self, plan: Plan) -> str:
        """Canonical interned fingerprint (see :func:`plan_fingerprint`).

        When any document the plan reads has been written
        (:mod:`repro.writes`), the doc-epoch signature is folded in, so
        memo entries recorded before the mutation simply stop matching —
        entries for untouched documents keep their exact keys.
        """
        key = plan_fingerprint(plan)
        signature = doc_epoch_signature(self.system, plan.expr)
        if signature:
            key = sys.intern(f"{key}|{signature}")
        return key

    def note_dedup(self) -> None:
        """A strategy skipped a candidate already processed this search."""
        self.metrics.plans_deduped += 1
        if self.cache is not None:
            self.cache.stats.plans_deduped += 1

    def expand(self, plan: Plan, key: Optional[str] = None) -> List[Rewrite]:
        """Every rewrite any rule proposes for ``plan`` (memoized)."""
        if self.cache is not None:
            key = (key or self.plan_key(plan), self._rules_token)
            cached = self.cache.lookup_expansions(key)
            if cached is not None:
                self.metrics.expand_hits += 1
                self.cache.stats.expand_hits += 1
                return cached
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
        self.metrics.expand_misses += 1
        if self.cache is not None:
            self.cache.stats.expand_misses += 1
            self.cache.store_expansions(key, rewrites)
        return rewrites

    def _cost_key(self, key: str, token: str) -> str:
        """Cost-table key for ``key`` under a model's cache ``token``."""
        if not token:
            return key
        return sys.intern(f"{key}#{token}")

    def _scored(
        self, plan: Plan, key: Optional[str], token: str, scorer: CostFn
    ) -> Optional[Cost]:
        """Memoized ``scorer(plan)`` under ``token``-salted cache keys."""
        ckey = None
        if self.cache is not None:
            key = key or self.plan_key(plan)
            ckey = self._cost_key(key, token)
            hit, cached = self.cache.lookup_cost(ckey)
            if hit:
                self.metrics.cost_hits += 1
                self.cache.stats.cost_hits += 1
                return cached
        try:
            cost: Optional[Cost] = scorer(plan)
        except Exception:
            cost = None  # unevaluable candidate (e.g. undefined send)
        self.metrics.cost_misses += 1
        if self.cache is not None:
            self.cache.stats.cost_misses += 1
            self.cache.store_cost(ckey, cost)
        return cost

    def score(self, plan: Plan, key: Optional[str] = None) -> Optional[Cost]:
        """Cost of ``plan`` (``None`` when unevaluable), memoized.

        A table hit — including a hit on the "unevaluable" verdict — is a
        cost-function invocation saved.
        """
        return self._scored(plan, key, self._cost_token, self.cost_model.score)

    def score_original(self, plan: Plan) -> Cost:
        cost = self.score(plan)
        if cost is None:
            # Re-run the cost function outside the catch-all so churn's
            # *typed* verdicts surface (FragmentUnavailableError when the
            # last copy died, PeerDownError when the site left) — cached
            # unevaluable verdicts would otherwise swallow them.  Any
            # other failure keeps the classic optimizer-level verdict.
            try:
                self.cost_model.score(plan)
            except (FragmentUnavailableError, PeerDownError):
                raise
            except Exception:
                pass
            raise OptimizerError("the original plan is not evaluable")
        return cost

    def check_cost(self, plan: Plan, strict: bool = False) -> Optional[Cost]:
        """Exact post-search judgment of ``plan`` (hybrid's oracle check).

        Models with ``final_check`` expose a ``check(plan)`` scorer; its
        results are memoized under the checker's own cache token
        (``check_token``, the oracle's empty token for ``hybrid``), so a
        hybrid run's final checks share entries with pure-oracle runs
        over the same cache.  ``strict`` re-raises the checker's typed
        availability errors and turns any other failure into the classic
        "not evaluable" verdict — the original-plan contract.
        """
        checker = getattr(self.cost_model, "check", None)
        if checker is None:
            if strict:
                return self.score_original(plan)
            return self.score(plan)
        token = self.cost_model.check_token() if hasattr(
            self.cost_model, "check_token"
        ) else ""
        cost = self._scored(plan, None, token, checker)
        if cost is None and strict:
            try:
                checker(plan)
            except (FragmentUnavailableError, PeerDownError):
                raise
            except Exception:
                pass
            raise OptimizerError("the original plan is not evaluable")
        return cost

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
        metrics_baseline = space.metrics.copy()
        original_cost = space.score_original(plan)
        # visited is part of the algorithm (revisits waste beam slots),
        # keyed on canonical fingerprints so plans reached by different
        # rewrite orders — or differing only in tree-literal identity —
        # count as one.
        visited = {space.plan_key(plan)}
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        frontier: List[Tuple[Cost, Plan]] = [(original_cost, plan)]
        best_plan, best_cost = plan, original_cost
        explored = 1

        for _ in range(self.depth):
            candidates: List[Tuple[Cost, Plan, str]] = []
            for _, current in frontier:
                for rewrite in space.expand(current):
                    key = space.plan_key(rewrite.plan)
                    if key in visited:
                        space.note_dedup()
                        continue
                    cost = space.score(rewrite.plan, key)
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
            cache=space.metrics.delta_since(metrics_baseline),
        )


class GreedyStrategy:
    """Hill climbing: take the single cheapest improving rewrite."""

    name = "greedy"

    def __init__(self, max_steps: int = 8) -> None:
        self.max_steps = max_steps

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        metrics_baseline = space.metrics.copy()
        original_cost = space.score_original(plan)
        current, current_cost = plan, original_cost
        trace: List[Tuple[Plan, Cost, str]] = [(plan, original_cost, "original")]
        explored = 1
        for _ in range(self.max_steps):
            best_step: Optional[Tuple[Cost, Plan, str]] = None
            # hill climbing deliberately re-scores its whole neighborhood
            # each step; with a plan cache the heavy overlap between
            # consecutive neighborhoods becomes table hits.
            for rewrite in space.expand(current):
                cost = space.score(rewrite.plan)
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
            cache=space.metrics.delta_since(metrics_baseline),
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
    ``max_plans`` budget is spent on genuinely new plans and the chosen
    best is independent of memoization.  What the transposition table
    adds on top is cross-search reuse: a second strategy (or a second
    query over the same Σ) re-costs nothing the table already holds,
    while an unmemoized space pays the full cost function every time —
    the gap ``benchmarks/bench_p1_planspace.py`` quantifies.
    """

    name = "exhaustive"

    def __init__(self, depth: int = 4, max_plans: int = 4096) -> None:
        self.depth = depth
        self.max_plans = max_plans

    def search(self, plan: Plan, space: SearchSpace) -> OptimizationResult:
        metrics_baseline = space.metrics.copy()
        original_cost = space.score_original(plan)
        visited = {space.plan_key(plan)}
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
                    key = space.plan_key(rewrite.plan)
                    if key in visited:
                        space.note_dedup()
                        continue
                    cost = space.score(rewrite.plan, key)
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
            cache=space.metrics.delta_since(metrics_baseline),
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
