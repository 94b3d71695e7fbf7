"""First-class cost models: ``oracle`` / ``analytic`` / ``hybrid``.

The optimizer's search needs one number per candidate plan, and until
now the only way to get it was a bare ``cost_fn`` lambda — in practice
always :func:`~repro.core.cost.measure`, which *clone-and-simulates* Σ
for every candidate.  Profiling (ROADMAP "raw speed") showed that this
simulation is essentially the whole serving wall time: ~100% of the T1
bench is plan search, and inside it the per-candidate oracle.

This module redesigns the cost wiring as an API, mirroring the
:class:`~repro.core.strategies.OptimizerStrategy` registry:

* :class:`CostModel` — the protocol: ``score(plan) -> Cost`` ranks
  candidates during the search; ``final_check`` marks models whose
  chosen plan must be re-judged by the oracle after the search;
* :class:`OracleCostModel` (``"oracle"``) — the historical exact model:
  every score is a full clone-and-simulate.  Slow, perfectly informed;
* :class:`AnalyticCostModel` (``"analytic"``) — System-R-style static
  estimation from catalog statistics via
  :class:`~repro.core.cost.CostEstimator`: document sizes from Σ,
  fragment fan-outs from the catalog, replica resolution through the
  *actual* pick policy, selectivities from a statistics table or the
  compiled logical plan.  No simulation anywhere;
* :class:`HybridCostModel` (``"hybrid"``) — scores the whole search
  frontier analytically and oracle-checks only the final plan (plus the
  original, so the reported costs and the improvement ratio stay
  oracle-true, and the chosen plan is provably never worse than naive);
* :class:`CallableCostModel` — any bare ``plan -> Cost`` callable
  handed to ``cost_model=``, wrapped as an anonymous model.

Models are registered by name (:func:`register_cost_model`) so callers
write ``Session(cost_model="hybrid")`` and third parties can plug in
their own costing without touching the search code.

Cache tokens
------------

A shared :class:`~repro.core.planspace.PlanCache` may serve several
sessions over the same Σ, each with its own model.  Scores are never
stored per plan — only whole search outcomes are, in the prepared-plan
table — so every model exposes a ``cache_token()``: the salt the session
folds into the prepared-plan key next to the model's name.  The oracle's
token is ``""``; the analytic model's carries its statistics digest and
pick policy, so two differently informed searches never serve each
other's outcomes.  (The estimator salts its own memo the same way, see
:meth:`Statistics.memo_token <repro.core.cost.Statistics.memo_token>`.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Union, runtime_checkable

from ..errors import OptimizerError
from ..peers.system import AXMLSystem
from .cost import Cost, CostEstimator, Statistics, measure
from .planspace import PlanCache
from .rules import Plan

__all__ = [
    "CostModel",
    "OracleCostModel",
    "AnalyticCostModel",
    "HybridCostModel",
    "CallableCostModel",
    "COST_MODELS",
    "register_cost_model",
    "available_cost_models",
    "make_cost_model",
]


@runtime_checkable
class CostModel(Protocol):
    """One way of pricing a plan during (and after) the search.

    ``score`` is the search-time ranking function — called once per
    distinct candidate of a search.  Models with ``final_check = True``
    additionally expose ``check(plan)``, the expensive exact judgment
    the optimizer applies to the chosen plan only.  A model may declare
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
    """Exact measurement: clone Σ and actually evaluate every candidate.

    The historical default.  Perfectly informed — the score *is* the
    virtual completion time and real traffic — but each score costs a
    full simulation, which dominates serving wall time (see ROADMAP).
    What it does not repeat is query evaluation: given a ``cache``,
    every simulation of one ``Optimizer.optimize_with`` call looks a
    query application up in that search's ``cache.query_results``
    (:class:`~repro.peers.service.QueryMemo`) before running it.  Without
    a cache, or outside a search, every score evaluates everything.
    """

    name = "oracle"
    #: The score is already exact; nothing to re-check after the search.
    final_check = False
    #: A simulated run ships the name (``name=`` on every ``x-query``,
    #: the names of deployed services) and never reads it.
    name_blind = True

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        statistics: Optional[Statistics] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        # statistics are accepted for factory-signature uniformity: the
        # oracle consults Σ itself.  Of the cache it uses the running
        # search's query results, which are gone when the search returns.
        self.system = system
        self.pick_policy = pick_policy
        self.cache = cache

    def score(self, plan: Plan) -> Cost:
        memo = self.cache.query_results if self.cache is not None else None
        return measure(plan, self.system, self.pick_policy, memo)

    def cache_token(self) -> str:
        """Empty: the model's name says everything about an oracle search."""
        return ""

    def describe(self) -> str:
        return "oracle: clone-and-simulate every candidate"


class AnalyticCostModel:
    """Static estimation: price plans from catalog statistics, never run them.

    Wraps :class:`~repro.core.cost.CostEstimator` (document sizes from
    Σ, fragment fan-out from the catalog, replica resolution through the
    pick policy, selectivities from statistics or the compiled logical
    plan).  The estimator's memo — ``cache.estimates`` of the
    :class:`~repro.core.planspace.PlanCache` given, a private one
    otherwise — makes the walk incremental: the first score records
    per-(subexpression, site) deltas, and every candidate a rewrite
    derives from it re-walks only the rewritten spine (270 hits / 654
    misses over the 12 searches of the ``serve_scan`` workload).
    """

    name = "analytic"
    final_check = False

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        statistics: Optional[Statistics] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self.system = system
        self.statistics = statistics or Statistics()
        self.estimator = CostEstimator(
            system, self.statistics, cache=cache, pick_policy=pick_policy
        )

    @property
    def name_blind(self) -> bool:
        """False once the statistics table prices any query by its name."""
        return not (self.statistics.selectivity or self.statistics.result_bytes)

    def score(self, plan: Plan) -> Cost:
        return self.estimator.estimate(plan)

    def cache_token(self) -> str:
        """``analytic`` plus the statistics digest and pick-policy tag.

        Salts the prepared-plan key, so two analytic sessions with
        different statistics or pick policies sharing one cache never
        serve each other's search outcomes.
        """
        policy = self.estimator.pick_policy
        tag = type(policy).__name__ if policy is not None else ""
        digest = hash(self.statistics.memo_token()) & 0xFFFFFFFF
        return f"analytic:{tag}:{digest:08x}"

    def describe(self) -> str:
        return "analytic: static estimation from catalog statistics"


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
    #: The chosen plan is re-judged (and possibly rejected) by the oracle.
    final_check = True

    def __init__(
        self,
        system: AXMLSystem,
        pick_policy=None,
        statistics: Optional[Statistics] = None,
        cache: Optional[PlanCache] = None,
    ) -> None:
        self.analytic = AnalyticCostModel(
            system, pick_policy=pick_policy, statistics=statistics, cache=cache
        )
        self.oracle = OracleCostModel(system, pick_policy=pick_policy, cache=cache)

    @property
    def name_blind(self) -> bool:
        return self.analytic.name_blind

    def score(self, plan: Plan) -> Cost:
        return self.analytic.score(plan)

    def check(self, plan: Plan) -> Cost:
        """The exact final-plan judgment (one oracle simulation)."""
        return self.oracle.score(plan)

    def cache_token(self) -> str:
        return self.analytic.cache_token()

    def describe(self) -> str:
        return "hybrid: analytic frontier, oracle-checked final plan"


class CallableCostModel:
    """Anonymous model wrapping a bare ``plan -> Cost`` callable.

    What ``cost_model=<callable>`` resolves to: the callable becomes a
    model with an empty cache token.
    """

    final_check = False

    def __init__(self, fn: Callable[[Plan], Cost], name: Optional[str] = None) -> None:
        if not callable(fn):
            raise OptimizerError(
                f"a cost model callable must be plan -> Cost, got {fn!r}"
            )
        self.fn = fn
        self.name = name or getattr(fn, "__name__", None) or "custom"
        if self.name == "<lambda>":
            self.name = "custom"

    def score(self, plan: Plan) -> Cost:
        return self.fn(plan)

    def cache_token(self) -> str:
        return ""

    def describe(self) -> str:
        return f"custom callable ({self.name})"


# -- registry --------------------------------------------------------------------

#: Name -> factory for every registered cost model.  Factories receive
#: ``(system, pick_policy=..., statistics=..., cache=..., **options)``.
COST_MODELS: Dict[str, Callable[..., CostModel]] = {}


def register_cost_model(
    name: str, factory: Callable[..., CostModel], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` for ``Session(cost_model=name)``."""
    if name in COST_MODELS and not replace:
        raise OptimizerError(
            f"cost model {name!r} is already registered "
            "(pass replace=True to override)"
        )
    COST_MODELS[name] = factory


def available_cost_models() -> List[str]:
    return sorted(COST_MODELS)


def make_cost_model(
    spec: Union[str, CostModel, Callable[[Plan], Cost]],
    system: AXMLSystem,
    *,
    pick_policy=None,
    statistics: Optional[Statistics] = None,
    cache: Optional[PlanCache] = None,
    **options,
) -> CostModel:
    """Resolve a cost-model name, pass through an instance, wrap a callable.

    The one resolver every entry point (``Session``, ``Optimizer``,
    ``SearchSpace``) shares.  A registered *name* is instantiated with
    the caller's system/policy/statistics/cache plus any factory
    ``options``; a :class:`CostModel` instance passes through untouched
    (options are then rejected); any other callable is wrapped by the
    :class:`CallableCostModel` shim.
    """
    if isinstance(spec, str):
        try:
            factory = COST_MODELS[spec]
        except KeyError:
            raise OptimizerError(
                f"unknown cost model {spec!r}; "
                f"available: {', '.join(available_cost_models())}"
            ) from None
        return factory(
            system,
            pick_policy=pick_policy,
            statistics=statistics,
            cache=cache,
            **options,
        )
    if callable(getattr(spec, "score", None)) and hasattr(spec, "name"):
        if options:
            raise OptimizerError(
                "cost-model options are only accepted with a model *name*; "
                f"got an instance plus options {sorted(options)}"
            )
        return spec
    if callable(spec):
        if options:
            raise OptimizerError(
                "cost-model options are only accepted with a model *name*; "
                f"got a callable plus options {sorted(options)}"
            )
        return CallableCostModel(spec)
    raise OptimizerError(
        f"not a cost model: {spec!r} (need a registered name, a CostModel "
        "instance, or a plan -> Cost callable)"
    )


register_cost_model("oracle", OracleCostModel)
register_cost_model("analytic", AnalyticCostModel)
register_cost_model("hybrid", HybridCostModel)
