"""Plan keys and the planner's three stores.

The rewrite space of Section 3.3 is a graph, not a tree: the same plan
is reachable through many rule orders.  It is also *small* — the 272
searches of ``scripts/golden.py`` price 2 543 plans in all, originals
included, and none of their 495 levels admits more than 8 — so the
search itself keeps only what one search needs (a ``visited`` set,
greedy's price map; see :mod:`repro.core.strategies`), keyed by a
*canonical fingerprint* and
dropped with the search — as are the oracle's cheapest simulations,
each holding its clone of Σ (:attr:`PlanCache.simulations`).
What outlives a search is three stores, all on :class:`PlanCache`:

* the *prepared-plan table*, in front of the search: whole search
  outcomes per (naive plan, search configuration), so a job repeating an
  already-planned query skips the search (:func:`relabel` gives the
  stored plan the new job's query names);
* the *estimator memo*, behind the analytic cost model: everything
  :class:`~repro.core.cost.CostEstimator` learns about Σ — subtree cost
  deltas, document sizes and call profiles, service / query samples;
* the *query memo*, behind the oracle cost model: the query results and
  built trees of its simulations
  (:class:`~repro.peers.service.QueryMemo`), so a later search that
  activates the same AXML document or runs the same sub-query over the
  same content does not evaluate it again.

A fourth layer used to sit between the first two — a transposition
table of plan costs and rule expansions per fingerprint, after the
unique/computed tables of decision-diagram packages.  Measured on one
pass of each workload it took 1 537 + 928 stores and answered 0
lookups: ``visited`` already skips revisits inside a search, the
prepared table catches repeats across searches, and no strategy expands
a plan twice.  It is gone, with its four key salts.

* :func:`plan_fingerprint` — a structural digest of a plan derived from
  the XML serialization of :mod:`repro.core.serialize` (never from object
  identity), equal exactly for equal plans;
* :class:`CacheStats` — the planner's counters, each incremented at one
  site; a search (or a job) reports its own share of a cache's lifetime
  counters as a :meth:`~CacheStats.delta_since` window.

One :class:`PlanCache` may be shared across searches and sessions, under
one contract: **the stored values are only valid while Σ's observable
statistics are stable**.  The first two stores key written documents by
epoch (:func:`doc_epoch_signature`); any other mutation of the system
calls for :meth:`~PlanCache.clear`.  The query memo needs neither: its
keys are content- or identity-exact, so a changed Σ makes an entry miss,
never answer wrongly; ``clear()`` empties it with the rest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..peers.service import DeclarativeService, QueryMemo, _doc_references
from ..xquery import Query
from ..xquery.decompose import DERIVED_SUFFIX
from .expressions import (
    ANY,
    DocExpr,
    Expression,
    FragmentedDoc,
    GenericDoc,
    GenericService,
    QueryApply,
    QueryRef,
    ServiceCallExpr,
    transform,
    walk,
)
from .rules import Plan
from .serialize import expression_fingerprint

__all__ = [
    "plan_fingerprint",
    "doc_epoch_signature",
    "relabel",
    "CacheStats",
    "PlanCache",
]

#: Prepared plans one cache keeps; the least recently served goes first.
PREPARED_PLANS = 256


def plan_fingerprint(plan: Plan, name_widths: bool = False) -> str:
    """Canonical key for a plan: site + structural expression digest.

    Two plans share a key iff they have the same evaluation site and
    structurally equal expressions (tree literals compared by content).
    The digest is kept on each node of the expression (a Merkle fold,
    see :func:`~repro.core.serialize.expression_fingerprint`), so keying
    a rewrite hashes only the nodes it rebuilt; the site is not part of
    it, so one expression keyed at two sites is hashed once.
    Keys compare by equality.  They are not interned: an interned string
    lives as long as the process, and a serving session builds a key for
    every candidate it ever scores.
    ``name_widths`` keys query names by their serialized width only (see
    :func:`~repro.core.serialize.expression_fingerprint`).
    """
    return f"{plan.site}|{expression_fingerprint(plan.expr, name_widths)}"


def doc_epoch_signature(system, expr) -> str:
    """Epoch salt for the documents an expression reads, ``""`` if none.

    Document-reference expressions (:class:`DocExpr`, :class:`GenericDoc`,
    :class:`FragmentedDoc`) fingerprint by *name* only, so a mutation
    (see :mod:`repro.writes`) would be invisible to :func:`plan_fingerprint`.
    This signature makes it visible: every name the expression reads with
    a non-zero epoch contributes ``name:epoch``, sorted and joined.  The
    names read are the documents it names, and the ``doc()`` names of
    every query it can run: each query of a :class:`QueryRef` or
    :class:`QueryApply`, and the query of every declarative service a
    :class:`ServiceCallExpr` or an applied :class:`GenericService` can
    reach (``doc()`` there reads the provider's documents).  While
    nothing has ever been written
    (``system.doc_epochs`` empty) the signature is ``""`` — callers skip
    the salt entirely and every key stays byte-identical to the read-only
    regime.  Tree literals need no salting: their content fingerprint
    already changes under mutation.
    """
    epochs = getattr(system, "doc_epochs", None)
    if not epochs:
        return ""
    names = set()
    for node in walk(expr):
        if isinstance(node, (DocExpr, GenericDoc, FragmentedDoc)):
            names.add(node.name)
        elif isinstance(node, QueryRef):
            names.update(_doc_references(node.query))
        elif isinstance(node, QueryApply):
            if isinstance(node.query, QueryRef):
                names.update(_doc_references(node.query.query))
            else:
                names.update(_service_reads(system, ANY, node.query.name))
        elif isinstance(node, ServiceCallExpr):
            names.update(_service_reads(system, node.provider, node.service))
    touched = set()
    for name in names:
        epoch = epochs.get(name)
        if epoch:
            touched.add(f"{name}:{epoch}")
    return ",".join(sorted(touched))


def _service_reads(system, provider: str, service: str) -> List[str]:
    """The ``doc()`` names read by the declarative services a call of
    ``service`` on ``provider`` can reach: every member of the generic
    class when ``provider`` is ``ANY``."""
    if provider == ANY:
        members = [(m.peer, m.name) for m in system.registry.service_members(service)]
    else:
        members = [(provider, service)]
    names: List[str] = []
    for peer_id, name in members:
        peer = system.peers.get(peer_id)
        found = peer.services.get(name) if peer is not None else None
        if isinstance(found, DeclarativeService):
            names.extend(_doc_references(found.query))
    return names


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
    the rewrite rules derived from one (``<name>-inner`` / ``-outer``)
    renamed after the counterpart, sharing its parsed module.
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
    """The planner's counters, over a cache's lifetime or one window of it.

    ``plans_scored`` counts cost-model invocations (the original plan,
    every candidate, ``hybrid``'s final checks); ``plans_expanded``
    counts plans run through the rule set; ``plans_deduped`` counts
    candidates a strategy skipped because their fingerprint was already
    processed this search; ``idle_rewrites_dropped`` counts rewrites the
    rule set proposed and the search space dropped, because they add an
    idle delegation (:func:`~repro.core.rules.idle_delegations`);
    ``candidates_pruned`` counts candidates a strategy did not score
    because their lower bound could not beat the best so far.
    """

    plans_scored: int = 0
    candidates_pruned: int = 0
    plans_expanded: int = 0
    plans_deduped: int = 0
    idle_rewrites_dropped: int = 0
    #: Subtree deltas the estimator memo replayed / had to walk.
    estimator_hits: int = 0
    estimator_misses: int = 0
    #: Searches skipped / run (then stored) / stored outcomes evicted by
    #: the prepared-plan table.
    prepared_hits: int = 0
    prepared_misses: int = 0
    prepared_evictions: int = 0
    #: Query applications inside the oracle's simulations that the
    #: :class:`~repro.peers.service.QueryMemo` answered / had to evaluate.
    query_memo_hits: int = 0
    query_memo_misses: int = 0
    #: Trees the same memo handed out / had to build (activated values,
    #: installed documents, reassembled fragmented documents).
    tree_memo_hits: int = 0
    tree_memo_misses: int = 0
    #: Jobs a session executed by the search's simulation of
    #: their plan instead of evaluating it again.
    executions_reused: int = 0
    #: Activations of a stored AXML document the oracle recorded (the
    #: first in a search) / replayed into a later candidate's twin
    #: instead of firing its calls again.
    activation_records: int = 0
    activation_replays: int = 0

    # the counters are exactly the instance's attributes: reading them
    # through vars() costs the same however many counters there are
    def copy(self) -> "CacheStats":
        return CacheStats(**vars(self))

    def delta_since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter-wise difference: what happened since ``baseline``."""
        before = vars(baseline)
        return CacheStats(
            **{name: value - before[name] for name, value in vars(self).items()}
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))

    def describe(self) -> str:
        return (
            f"planner: {self.plans_scored} plans scored, "
            f"{self.candidates_pruned} pruned by their bound, "
            f"{self.plans_expanded} expanded, {self.plans_deduped} deduped, "
            f"{self.idle_rewrites_dropped} idle rewrites dropped; "
            f"estimator memo {self.estimator_hits} hits / "
            f"{self.estimator_misses} misses; "
            f"query memo {self.query_memo_hits} hits / "
            f"{self.query_memo_misses} misses; "
            f"tree memo {self.tree_memo_hits} hits / "
            f"{self.tree_memo_misses} misses; "
            f"activations {self.activation_records} recorded / "
            f"{self.activation_replays} replayed; "
            f"{self.prepared_hits} searches skipped; "
            f"{self.executions_reused} executions reused"
        )


class PlanCache:
    """The planner's three stores, and the counters of everything it did.

    ``_prepared`` — per (naive plan with query names reduced to their
    widths, doc epochs, search configuration) the whole outcome of a
    search: at most :data:`PREPARED_PLANS` of them, least recently
    served evicted first.  ``estimates`` — the one memo of the static
    :class:`~repro.core.cost.CostEstimator`, keyed by ``(kind, ...)``
    tuples (see there).  ``query_memo`` — the oracle's
    :class:`~repro.peers.service.QueryMemo`: query results and built
    trees of every simulation of every search through this cache.  The
    first two live under the module's one contract (valid while Σ's
    observable statistics are stable), the query memo's keys are exact,
    and :meth:`clear` empties all three.  ``stats`` accumulates over the
    cache's lifetime; callers wanting one search's numbers snapshot and
    diff via :meth:`CacheStats.delta_since`.
    """

    #: The running search's cheapest oracle runs
    #: (:class:`~repro.core.cost.Simulations`).  Not a store: each run
    #: holds a clone of Σ, so ``Optimizer.optimize_with`` sets it on the
    #: instance while it runs and deletes it again — no twin outlives the
    #: search that made it, and ``clear()`` has nothing to forget.
    simulations = None

    def __init__(self) -> None:
        self.stats = CacheStats()
        #: prepared-plan key -> search outcome, least recently served first
        self._prepared: "OrderedDict[Hashable, object]" = OrderedDict()
        #: estimator memo key -> whatever the estimator stored under it
        self.estimates: Dict[Tuple, object] = {}
        #: what the oracle's simulations evaluated and built
        self.query_memo = QueryMemo(self.stats)

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

    def store_prepared(self, key: Hashable, outcome: object) -> None:
        """Keep ``outcome`` under ``key``, evicting past :data:`PREPARED_PLANS`."""
        self._prepared[key] = outcome
        if len(self._prepared) > PREPARED_PLANS:
            self._prepared.popitem(last=False)
            self.stats.prepared_evictions += 1

    # -- bookkeeping --------------------------------------------------------
    @property
    def distinct_plans(self) -> int:
        """Plans scored through this cache's searches, over its lifetime."""
        return self.stats.plans_scored

    def clear(self) -> None:
        """Forget everything (call after editing Σ by hand); counters survive."""
        self._prepared.clear()
        self.estimates.clear()
        self.query_memo.clear()

    def describe(self) -> str:
        return (
            f"{len(self._prepared)} prepared plans, "
            f"{len(self.estimates)} estimator entries, "
            f"{len(self.query_memo)} query memo entries; "
            + self.stats.describe()
        )
