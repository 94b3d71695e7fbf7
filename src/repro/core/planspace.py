"""Plan-space memoization: canonical fingerprints and a transposition table.

The optimizer's rewrite space (Section 3.3) is a graph, not a tree: the
same plan is reachable through many rule orders (apply rule A at one
subexpression then B at another, or B then A — same plan).  Searching it
as a tree re-costs and re-expands structurally identical plans
exponentially often; the classic fix from cost-based optimizers (and from
decision-diagram packages: unique canonical representatives plus an
operation cache) is to key every plan by a *canonical fingerprint* and
memoize per key.

* :func:`plan_fingerprint` — a structural digest of a plan derived from
  the XML serialization of :mod:`repro.core.serialize` (never from object
  identity), interned so equal plans share one key object;
* :class:`PlanCache` — the transposition table: plan cost and rule
  expansions per fingerprint, plus the :class:`~repro.core.cost.CostEstimator`'s
  subtree/doc-size/compiled-query memos, with hit/miss/dedup counters —
  and, in front of the search, the *prepared-plan table*: whole search
  outcomes per (naive plan, search configuration), so a job that repeats
  an already-planned query skips the search (:func:`relabel` gives the
  stored plan the new job's query names);
* :class:`CacheStats` — the counter block, snapshot-diffable so each
  search can report exactly its own share of a shared cache's traffic.

One :class:`PlanCache` may be shared across strategies and across
searches (the :class:`~repro.session.Session` and the
:class:`~repro.workloads.harness.DifferentialHarness` both do), under one
contract: **the cached values are only valid while Σ's observable
statistics are stable**.  Costs are deterministic functions of (plan, Σ);
mutate the system and the table must be :meth:`~PlanCache.clear`-ed.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from ..xquery import Query
from ..xquery.decompose import DERIVED_SUFFIX
from .expressions import (
    DocExpr,
    Expression,
    FragmentedDoc,
    GenericDoc,
    QueryApply,
    QueryRef,
    transform,
    walk,
)
from .rules import Plan, Rewrite
from .serialize import expression_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cost import Cost

__all__ = [
    "plan_fingerprint",
    "doc_epoch_signature",
    "relabel",
    "CacheStats",
    "PlanCache",
]

#: Sentinel cached for plans the cost function cannot evaluate, so a
#: failing candidate is not re-measured on every re-reach.
UNEVALUABLE = object()

#: Prepared plans one cache keeps; the least recently served goes first.
PREPARED_PLANS = 256


def plan_fingerprint(plan: Plan, name_widths: bool = False) -> str:
    """Canonical, interned key for a plan: site + structural expression digest.

    Two plans share a key iff they have the same evaluation site and
    structurally equal expressions (tree literals compared by content).
    The string is interned so every holder of an equal plan carries the
    *same* key object and dict lookups degrade to pointer comparisons.
    ``name_widths`` keys query names by their serialized width only (see
    :func:`~repro.core.serialize.expression_fingerprint`).
    """
    return sys.intern(
        f"{plan.site}|{expression_fingerprint(plan.expr, name_widths)}"
    )


def doc_epoch_signature(system, expr) -> str:
    """Epoch salt for the documents an expression reads, ``""`` if none.

    Document-reference expressions (:class:`DocExpr`, :class:`GenericDoc`,
    :class:`FragmentedDoc`) fingerprint by *name* only, so a mutation
    (see :mod:`repro.writes`) would be invisible to :func:`plan_fingerprint`.
    This signature makes it visible: every referenced name with a
    non-zero epoch contributes ``name:epoch``, sorted and joined.  While
    nothing has ever been written (``system.doc_epochs`` empty) the
    signature is ``""`` — callers skip the salt entirely and every key
    stays byte-identical to the read-only regime.  Tree literals need no
    salting: their content fingerprint already changes under mutation.
    """
    epochs = getattr(system, "doc_epochs", None)
    if not epochs:
        return ""
    touched = set()
    for node in walk(expr):
        if isinstance(node, (DocExpr, GenericDoc, FragmentedDoc)):
            epoch = epochs.get(node.name)
            if epoch:
                touched.add(f"{node.name}:{epoch}")
    return ",".join(sorted(touched))


def _query_refs(expr: Expression) -> List[QueryRef]:
    """Every query reference of ``expr``, in traversal order."""
    refs: List[QueryRef] = []
    for node in walk(expr):
        if isinstance(node, QueryRef):
            refs.append(node)
        elif isinstance(node, QueryApply) and isinstance(node.query, QueryRef):
            refs.append(node.query)
    return refs


def relabel(chosen: Plan, planned: Plan, plan: Plan) -> Plan:
    """``chosen`` — the plan a search picked for ``planned`` — for ``plan``.

    ``plan`` is ``planned`` under other query names: the same naive
    plan up to how its queries are labelled.  The result is the plan a
    search of ``plan`` would have picked: ``chosen`` with every query of
    ``planned`` replaced by its counterpart in ``plan``, and every query
    the rewrite rules derived from one (``<name>-inner`` / ``-outer`` /
    ``-composed``) renamed after the counterpart, sharing its parsed
    module.
    """
    if chosen is planned:
        return plan
    queries: Dict[int, Query] = {}
    names: Dict[str, str] = {}
    for old, new in zip(_query_refs(planned.expr), _query_refs(plan.expr)):
        queries[id(old.query)] = new.query
        if old.query.name and old.query.name != new.query.name:
            names[old.query.name] = new.query.name
    if not names:
        return chosen

    # longest first: a derived name extends the name it came from
    olds = sorted(names, key=len, reverse=True)

    def renamed(query: Query) -> Query:
        twin = queries.get(id(query))
        if twin is None:
            twin = query
            name = query.name or ""
            for old in olds:
                if name.startswith(old) and DERIVED_SUFFIX.fullmatch(name, len(old)):
                    twin = query.copy(names[old] + name[len(old):])
                    break
            queries[id(query)] = twin
        return twin

    def visit(node: Expression) -> Optional[Expression]:
        if isinstance(node, QueryRef):
            twin = renamed(node.query)
            return None if twin is node.query else QueryRef(twin, node.home)
        if isinstance(node, QueryApply) and isinstance(node.query, QueryRef):
            head = visit(node.query)
            return None if head is None else QueryApply(head, node.args)
        return None

    return Plan(transform(chosen.expr, visit), chosen.site)


@dataclass
class CacheStats:
    """Hit/miss/dedup counters for one cache (or one search's delta).

    ``plans_deduped`` counts candidate plans a strategy skipped because
    their fingerprint was already processed this search; ``cost_hits``
    are cost lookups answered from the table (each one is a cost-function
    invocation saved); ``cost_misses`` are actual cost-function calls.
    """

    cost_hits: int = 0
    cost_misses: int = 0
    expand_hits: int = 0
    expand_misses: int = 0
    plans_deduped: int = 0
    estimator_hits: int = 0
    estimator_misses: int = 0
    #: Searches skipped / run (then stored) / stored outcomes evicted by
    #: the prepared-plan table.
    prepared_hits: int = 0
    prepared_misses: int = 0
    prepared_evictions: int = 0

    @property
    def cost_calls_saved(self) -> int:
        return self.cost_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of cost lookups answered without invoking the cost fn."""
        total = self.cost_hits + self.cost_misses
        return self.cost_hits / total if total else 0.0

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def delta_since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter-wise difference (per-search share of a shared cache)."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(baseline, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        return (
            f"cache: {self.cost_hits} cost hits / {self.cost_misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.plans_deduped} plans "
            f"deduped, {self.expand_hits} expansions reused, "
            f"{self.prepared_hits} searches skipped"
        )


class PlanCache:
    """Transposition table over canonical plan fingerprints.

    Stores, per plan key: the plan's cost (or an "unevaluable" verdict)
    and, per plan key and rule set, the full list of rule rewrites; and,
    for the static
    :class:`~repro.core.cost.CostEstimator`, per-(subexpression, site)
    cost deltas, per-(document, peer) sizes, and compiled logical plans
    per query source.  In front of all of these sits the prepared-plan
    table: per (naive plan with query names reduced to their widths,
    doc epochs, search configuration) the whole outcome of a search —
    at most :data:`PREPARED_PLANS` of them, least recently served
    evicted first.  It lives under the module's one contract (valid
    while Σ's observable statistics are stable) and :meth:`clear`
    empties it with the other tables.  ``stats`` accumulates over the
    cache's lifetime; callers wanting per-search numbers snapshot and
    diff via :meth:`CacheStats.delta_since`.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._costs: Dict[str, object] = {}
        #: (plan key, rule set) -> the rewrites those rules propose
        self._expansions: Dict[Hashable, Tuple[Rewrite, ...]] = {}
        #: prepared-plan key -> search outcome, least recently served first
        self._prepared: "OrderedDict[Hashable, object]" = OrderedDict()
        #: (statistics token, expression fingerprint, site) ->
        #: (value size, bytes, msgs, time); the token keeps estimators
        #: with different Statistics from replaying each other's deltas
        self.subtree_costs: Dict[Tuple, Tuple[int, int, int, float]] = {}
        #: (document name, home peer) -> serialized bytes; written
        #: documents gain an epoch component (name, home, epoch) so a
        #: mutation orphans the stale size instead of serving it
        self.doc_sizes: Dict[Tuple, int] = {}
        #: query source -> compiled logical plan (or None when uncompilable)
        self.compiled_queries: Dict[str, object] = {}
        #: (document name, home peer[, epoch]) -> tuple of embedded
        #: service-call profiles (the estimator's activation model);
        #: epoch-keyed like doc_sizes so writes orphan stale profiles
        self.doc_profiles: Dict[Tuple, Tuple] = {}
        #: (provider, service, params digest[, epochs]) -> sampled
        #: invocation (work units, per-item result bytes, result items);
        #: one deterministic sample per call site, amortized across every
        #: candidate plan
        self.service_samples: Dict[Tuple, Tuple] = {}
        #: doc key -> materialized *activated* document value (or False
        #: when the document cannot be materialized statically)
        self.doc_values: Dict[Tuple, object] = {}
        #: (query source, argument value keys) -> (result bytes, work
        #: units); one deterministic apply sample per distinct input
        self.apply_samples: Dict[Tuple, Tuple[int, int]] = {}

    # -- transposition table ------------------------------------------------
    def lookup_cost(self, key: str) -> Tuple[bool, Optional["Cost"]]:
        """``(hit, cost)``; a hit with ``None`` means "known unevaluable"."""
        entry = self._costs.get(key, _MISS)
        if entry is _MISS:
            return False, None
        return True, None if entry is UNEVALUABLE else entry

    def store_cost(self, key: str, cost: Optional["Cost"]) -> None:
        self._costs[key] = UNEVALUABLE if cost is None else cost

    def lookup_expansions(self, key: Hashable) -> Optional[List[Rewrite]]:
        cached = self._expansions.get(key)
        return None if cached is None else list(cached)

    def store_expansions(self, key: Hashable, rewrites: List[Rewrite]) -> None:
        self._expansions[key] = tuple(rewrites)

    # -- prepared plans ------------------------------------------------------
    def lookup_prepared(self, key: Hashable) -> Optional[object]:
        """The outcome stored under ``key`` (counted as a hit), or ``None``."""
        outcome = self._prepared.get(key)
        if outcome is None:
            self.stats.prepared_misses += 1
            return None
        self._prepared.move_to_end(key)
        self.stats.prepared_hits += 1
        return outcome

    def store_prepared(self, key: Hashable, outcome: object) -> int:
        """Keep ``outcome`` under ``key``; returns how many it evicted."""
        self._prepared[key] = outcome
        if len(self._prepared) <= PREPARED_PLANS:
            return 0
        self._prepared.popitem(last=False)
        self.stats.prepared_evictions += 1
        return 1

    # -- bookkeeping --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._costs)

    @property
    def distinct_plans(self) -> int:
        """Distinct plan fingerprints with a cached cost."""
        return len(self._costs)

    def clear(self) -> None:
        """Forget everything (call after mutating Σ); counters survive."""
        self._costs.clear()
        self._expansions.clear()
        self._prepared.clear()
        self.subtree_costs.clear()
        self.doc_sizes.clear()
        self.compiled_queries.clear()
        self.doc_profiles.clear()
        self.service_samples.clear()
        self.doc_values.clear()
        self.apply_samples.clear()

    def describe(self) -> str:
        return (
            f"{self.distinct_plans} plans cached, "
            f"{len(self._expansions)} expansions, "
            f"{len(self._prepared)} prepared plans, "
            f"{len(self.subtree_costs)} subtree estimates; "
            + self.stats.describe()
        )


_MISS = object()
