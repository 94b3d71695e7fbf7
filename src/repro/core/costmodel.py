"""First-class cost models: ``oracle`` / ``analytic`` / ``hybrid``.

The optimizer's search needs one number per candidate plan.  The exact
one, :func:`~repro.core.cost.measure`, *clone-and-simulates* Σ for every
candidate, which is most of an oracle search's wall time; the models
trade that exactness for speed in different measures:

* :class:`CostModel` — the protocol: ``score(plan) -> Cost`` ranks
  candidates during the search; a model that also has ``check(plan)``
  has its chosen plan re-judged by that exact scorer after the search,
  and one that also has ``bound(plan)`` lets the search skip every
  candidate whose lower bound cannot beat the best so far;
* :class:`OracleCostModel` (``"oracle"``) — the historical exact model:
  every score is a full clone-and-simulate, and every candidate is
  first bounded by :func:`~repro.core.cost.lower_bound`, one walk of its
  expression, so a candidate that cannot win is never simulated.
  Perfectly informed where it simulates;
* :class:`AnalyticCostModel` (``"analytic"``) — System-R-style static
  estimation via :class:`~repro.core.cost.CostEstimator`: document
  sizes from Σ, fragment fan-outs from the catalog, replica resolution
  through the *actual* pick policy.  No plan is simulated: a service
  call site, or a query application, is run once, on its own, and its
  sample reused;
* :class:`HybridCostModel` (``"hybrid"``) — scores the whole search
  frontier analytically and oracle-checks only the final plan (plus the
  original, so the reported costs and the improvement ratio stay
  oracle-true, and the chosen plan is provably never worse than naive).

``cost_model=`` is one of the three names in :data:`COST_MODELS` or an
object with a ``name`` and a ``score``; :func:`make_cost_model` rejects
anything else.  A shared :class:`~repro.core.planspace.PlanCache` may
serve several sessions over the same Σ, each with its own model: the
prepared-plan key (``Session._prepared_key``) holds the model's name
beside the session's pick policy, so no model salts it further.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Union, runtime_checkable

from ..errors import OptimizerError
from ..peers.system import AXMLSystem
from .cost import Cost, CostEstimator, lower_bound, measure
from .planspace import PlanCache
from .rules import Plan

__all__ = [
    "CostModel",
    "OracleCostModel",
    "AnalyticCostModel",
    "HybridCostModel",
    "COST_MODELS",
    "make_cost_model",
]


@runtime_checkable
class CostModel(Protocol):
    """One way of pricing a plan during (and after) the search.

    ``score`` is the search-time ranking function — called once per
    distinct candidate of a search that is not pruned.  A model may also
    have ``check(plan)``, the expensive exact judgment the optimizer
    applies to the chosen plan only, and ``bound(plan)``, a cost no
    greater in any field than ``score(plan)``: a strategy simulates no
    candidate whose bound's scalar is at least the best so far
    (:mod:`repro.core.strategies`).  A model may declare
    ``name_blind = True``:
    its scores see a query's name only through the name's serialized
    width, so one prepared plan (:mod:`repro.core.planspace`) serves
    every equally wide job name; models that do not are keyed by the
    exact names.
    """

    name: str

    def score(self, plan: Plan) -> Cost:
        """Search-time cost of ``plan`` (lower scalar is better)."""
        ...


class OracleCostModel:
    """Exact measurement: clone Σ and actually evaluate a candidate.

    The historical default.  Perfectly informed — the score *is* the
    virtual completion time and real traffic — but each score costs a
    full simulation, which dominates serving wall time (see ROADMAP).
    So each candidate is first priced by :meth:`bound`
    (:func:`~repro.core.cost.lower_bound`: what the simulation certainly
    charges, from one walk of the expression, over the same memo and
    transcripts), and the search simulates only candidates whose bound
    could still beat the best plan so far.
    What it does not repeat is query evaluation: given a ``cache``,
    every simulation looks a query application (and an activated,
    installed or reassembled tree) up in ``cache.query_memo``
    (:class:`~repro.peers.service.QueryMemo`) before running it — the
    cache's store, so a later search over the same content hits what an
    earlier one evaluated.  Without a cache every score evaluates
    everything.  Nor is the chosen plan evaluated twice: the running
    search keeps its cheapest simulations (``cache.simulations``), and
    a session executes the pick by its own
    (``OptimizationResult.simulation``, ``CacheStats.executions_reused``).
    """

    name = "oracle"
    #: A simulated run ships the name (``name=`` on every ``x-query``,
    #: the names of deployed services) and never reads it.
    name_blind = True

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        # of the cache the oracle uses the query memo, and the running
        # search's simulations, which are gone when the search returns
        self.system = system
        self.pick_policy = pick_policy
        self.cache = cache

    def score(self, plan: Plan) -> Cost:
        cache = self.cache
        if cache is None:
            return measure(plan, self.system, self.pick_policy)
        return measure(
            plan, self.system, self.pick_policy, cache.query_memo, cache.simulations
        )

    def bound(self, plan: Plan) -> Cost:
        """A cost no greater in any field than :meth:`score`'s, unsimulated.

        Raises the typed error the simulation would raise where the walk
        sees it coming (an unevaluable candidate).
        """
        cache = self.cache
        if cache is None:
            return lower_bound(plan, self.system, pick_policy=self.pick_policy)
        runs = cache.simulations
        return lower_bound(
            plan,
            self.system,
            cache.query_memo,
            runs.transcripts if runs is not None else None,
            self.pick_policy,
        )


class AnalyticCostModel:
    """Static estimation: price plans from the catalog, never run them.

    Wraps :class:`~repro.core.cost.CostEstimator` (document sizes from
    Σ, fragment fan-out from the catalog, replica resolution through the
    pick policy, service calls and query applications from one run of
    each).  The estimator's memo — ``cache.estimates`` of the
    :class:`~repro.core.planspace.PlanCache` given, a private one
    otherwise — makes the walk incremental: the first score records
    per-(subexpression, site) deltas, and every candidate a rewrite
    derives from it re-walks only the rewritten spine (270 hits / 654
    misses over the 12 searches of the ``serve_scan`` workload).
    """

    name = "analytic"
    #: The estimator never reads a query's name.
    name_blind = True

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self.system = system
        self.estimator = CostEstimator(system, cache=cache, pick_policy=pick_policy)

    def score(self, plan: Plan) -> Cost:
        return self.estimator.estimate(plan)


class HybridCostModel:
    """Analytic search frontier, oracle-checked final plan.

    The paper-faithful compromise (Mariposa/System-R style): candidates
    are ranked by the static estimator — no simulation inside the search
    loop — and only the *chosen* plan (plus the original, for an honest
    improvement ratio) is measured exactly.  The oracle pass doubles as
    a safety net: if it disagrees that the analytic pick beats the
    original, the original plan is kept, so hybrid search is never worse
    than not optimizing at all, whatever the estimator mis-ranked.
    """

    name = "hybrid"
    name_blind = True

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self.analytic = AnalyticCostModel(system, pick_policy=pick_policy, cache=cache)
        self.oracle = OracleCostModel(system, pick_policy=pick_policy, cache=cache)

    def score(self, plan: Plan) -> Cost:
        return self.analytic.score(plan)

    def check(self, plan: Plan) -> Cost:
        """The exact final-plan judgment (one oracle simulation)."""
        return self.oracle.score(plan)


#: Name -> model class, for ``Session(cost_model=name)``.  Each is built
#: as ``(system, pick_policy=..., cache=...)``.
COST_MODELS: Dict[str, Callable[..., CostModel]] = {
    "oracle": OracleCostModel,
    "analytic": AnalyticCostModel,
    "hybrid": HybridCostModel,
}


def make_cost_model(
    spec: Union[str, CostModel],
    system: AXMLSystem,
    *,
    pick_policy=None,
    cache: Optional[PlanCache] = None,
) -> CostModel:
    """Build the model a name stands for, or pass a model through.

    The one resolver every entry point (``Session``, ``Optimizer``)
    shares.  A name of :data:`COST_MODELS` is instantiated with the
    caller's system, policy and cache; an object with a ``name`` and a
    callable ``score`` passes through untouched.  Anything else — a bare
    ``plan -> Cost`` callable included — is an :class:`OptimizerError`.
    """
    if isinstance(spec, str) and spec in COST_MODELS:
        return COST_MODELS[spec](system, pick_policy=pick_policy, cache=cache)
    if hasattr(spec, "name") and callable(getattr(spec, "score", None)):
        return spec
    raise OptimizerError(
        f"not a cost model: {spec!r}; pass one of the names "
        f"{', '.join(sorted(COST_MODELS))} or an object with a name and a "
        "score(plan) -> Cost method"
    )
