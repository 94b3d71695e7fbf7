"""Rule-driven plan search (the "optimization methodology" of Section 3).

The search algorithms themselves live in :mod:`repro.core.strategies`
behind the :class:`~repro.core.strategies.OptimizerStrategy` protocol,
and candidate pricing lives in :mod:`repro.core.costmodel` behind the
:class:`~repro.core.costmodel.CostModel` protocol; :class:`Optimizer`
binds a system, a rule set, a cost model and a plan cache into one
:class:`~repro.core.strategies.SearchSpace`, built once (a space
remembers nothing about plans, so one serves every search), and
:meth:`Optimizer.optimize_with` runs any strategy — by registered name
or instance — over that space.

Every strategy result passes through one finalize step: for models with
a ``check`` (``hybrid``), the chosen and original plans are re-judged
by the oracle, and the original is kept whenever the oracle disagrees
that the pick beats it — so an estimator mis-ranking can cost speedup,
never correctness or a regression versus not optimizing.

Given a ``verifier``, every explored plan is *verified* equivalent to
the original on a sample state, turning the paper's on-paper
equivalences into machine-checked ones.  New code should prefer
the :class:`repro.session.Session` façade, which wraps this search in a
full parse → optimize → verify → evaluate pipeline.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from ..peers.system import AXMLSystem
from .cost import Simulations
from .costmodel import CostModel, make_cost_model
from .planspace import PlanCache
from .rules import DEFAULT_RULES, Plan, RewriteRule
from .strategies import (
    OptimizationResult,
    OptimizerStrategy,
    SearchSpace,
    make_strategy,
)

__all__ = ["OptimizationResult", "Optimizer"]


class Optimizer:
    """Search over rule rewrites for a cheaper equivalent plan."""

    def __init__(
        self,
        system: AXMLSystem,
        rules: Sequence[RewriteRule] = DEFAULT_RULES,
        verifier: Optional[Callable[[Plan, Plan], bool]] = None,
        cache: Optional[PlanCache] = None,
        cost_model: Union[str, CostModel, None] = None,
        pick_policy=None,
    ) -> None:
        #: The planner's stores and counters (see planspace): the
        #: caller's, shared with whoever else holds it, or a private one.
        self.cache = cache or PlanCache()
        self.cost_model: CostModel = make_cost_model(
            cost_model if cost_model is not None else "oracle",
            system,
            pick_policy=pick_policy,
            cache=self.cache,
        )
        #: The rewrite space every search walks (see :class:`SearchSpace`).
        self.space = SearchSpace(
            system,
            rules=rules,
            cost_model=self.cost_model,
            verifier=verifier,
            cache=self.cache,
        )
        self.rules = self.space.rules
        #: Labeled metrics of every search (rule_errors etc.).
        self.registry = self.space.registry

    # -- finalize --------------------------------------------------------------
    def _finalize(self, plan: Plan, result: OptimizationResult) -> OptimizationResult:
        """Oracle-check the chosen plan for models with a ``check`` (``hybrid``).

        The frontier was ranked by estimates; the *reported* costs (and
        the improvement ratio) must be exact.  One oracle measurement of
        the original and one of the pick replace the analytic numbers —
        and if the oracle says the pick does not beat the original (or
        cannot run it at all), the original plan is kept, so hybrid
        search never does worse than not optimizing.
        """
        if not hasattr(self.space.cost_model, "check"):
            return result
        original_cost = self.space.check_cost(plan, strict=True)
        best_cost = (
            original_cost
            if result.best is plan
            else self.space.check_cost(result.best)
        )
        if best_cost is None or original_cost.scalar() <= best_cost.scalar():
            result.best = plan
            result.best_cost = original_cost
        else:
            result.best_cost = best_cost
        result.original_cost = original_cost
        return result

    # -- strategy entry point --------------------------------------------------
    def optimize_with(
        self,
        strategy: Union[str, OptimizerStrategy, None],
        plan: Plan,
        **options,
    ) -> OptimizationResult:
        """Run ``plan`` through a strategy named in the registry (or given).

        ``strategy=None`` searches nothing: the original plan is priced,
        in the same per-search scope, and returned as the pick (strategy
        ``"none"``).  ``result.simulation`` is the run
        :func:`~repro.core.cost.measure` offered for ``result.best``
        itself — by any oracle score of the search, ``hybrid``'s final
        check included — or ``None`` when the pick was never simulated.
        """
        before = self.cache.stats.copy()
        # the oracle's query memo is the cache's and outlives the search;
        # its cheapest simulations each hold a clone of Σ, and go with it
        runs = self.cache.simulations = Simulations()
        try:
            if strategy is None:
                cost = self.space.score_original(plan)
                result = OptimizationResult(
                    best=plan,
                    best_cost=cost,
                    original_cost=cost,
                    explored=1,
                    trace=[(plan, cost, "original")],
                    strategy="none",
                )
            else:
                result = make_strategy(strategy, **options).search(plan, self.space)
                result = self._finalize(plan, result)
        finally:
            del self.cache.simulations
        # the search's own share of the cache's lifetime counters,
        # final checks included
        result.cache = self.cache.stats.delta_since(before)
        if runs.winners:  # no oracle score, no lookup
            result.simulation = runs.simulation(result.best)
        return result
