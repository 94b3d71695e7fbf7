"""Equivalence rules (10)–(16) of the paper, as expression rewrites.

Each rule is a :class:`RewriteRule` producing zero or more *alternative
plans* for a given plan (an expression plus the peer evaluating it).  The
definitional evaluator runs any of them; the claim — verified by
:mod:`repro.core.verify` and the property tests — is that all
alternatives leave Σ in the same state and produce the same value.

Paper-to-class map:

====  ==============================  =========================================
(10)  :class:`QueryDelegation`        ship query + args to another peer,
                                      evaluate there, ship the result back
(11)  :class:`PushSelection`          decompose q = q1(σ(q2)) and evaluate the
                                      selection where the data lives
                                      (Example 1: *pushing selections*)
(12)  :class:`Reroute`                add / remove an intermediary stop on a
                                      data transfer ("not always left-to-right")
(13)  :class:`TransferReuse`          materialize a twice-used remote tree as a
                                      local document; pays lost parallelism
(14)  :class:`DelegateExpression`     evaluate a whole expression tree at a
                                      different coordinator peer
(15)  :class:`RelocateCall`           move an sc evaluation site; results go
                                      straight to the forward list anyway
(16)  :class:`PushQueryOverCall`      evaluate q over a call's results at the
                                      *provider*, composing q with the
                                      service's implementing query q1
====  ==============================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from hashlib import blake2b
from typing import Callable, List, Optional, Tuple

from ..dist.pruning import fragment_can_match, selection_bounds
from ..errors import DecompositionError
from ..peers.service import DeclarativeService
from ..peers.system import AXMLSystem
from ..xquery.decompose import push_selection
from .expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    FragmentedDoc,
    Gather,
    GenericDoc,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
    transform,
)

__all__ = [
    "Plan",
    "Rewrite",
    "RewriteRule",
    "QueryDelegation",
    "PushSelection",
    "Reroute",
    "TransferReuse",
    "DelegateExpression",
    "RelocateCall",
    "PushQueryOverCall",
    "FragmentPushSelection",
    "FragmentPrune",
    "DEFAULT_RULES",
    "subexpression_contexts",
    "idle_delegations",
]


@dataclass(frozen=True)
class Plan:
    """An expression plus its evaluation site: ``eval@site(expr)``."""

    expr: Expression
    site: str

    def describe(self) -> str:
        return f"eval@{self.site}({self.expr.describe()})"


@dataclass(frozen=True)
class Rewrite:
    """One alternative produced by a rule."""

    plan: Plan
    rule: str
    note: str = ""

    def describe(self) -> str:
        suffix = f" [{self.note}]" if self.note else ""
        return f"{self.rule}{suffix}: {self.plan.describe()}"


ContextFn = Callable[[Expression], Expression]


def subexpression_contexts(
    expr: Expression,
) -> Tuple[Tuple[Expression, ContextFn], ...]:
    """Every sub-expression, in pre-order, with a function rebuilding the whole.

    ``rebuild(replacement)`` returns ``expr`` with that occurrence (by
    position) swapped for ``replacement`` — the generic plumbing all
    rules use to rewrite deep inside a plan.
    """
    found: List[Tuple[Expression, ContextFn]] = []
    _enumerate(expr, (), expr, found)
    return tuple(found)


def _contexts(plan: Plan) -> Tuple[Tuple[Expression, ContextFn], ...]:
    """``subexpression_contexts(plan.expr)``, made once per plan and kept
    on it: every rule expanding the plan reads the same enumeration.

    Kept on the plan, not on its root node: a rebuild function holds the
    root, and a node holding its own rebuilders would be a cycle.
    """
    contexts = plan.__dict__.get("_contexts")
    if contexts is None:
        contexts = plan.__dict__["_contexts"] = subexpression_contexts(plan.expr)
    return contexts


def _enumerate(
    node: Expression,
    path: Tuple[int, ...],
    root: Expression,
    found: List[Tuple[Expression, ContextFn]],
) -> None:
    found.append((node, partial(_replaced, root, path)))
    for index, child in enumerate(node.children()):
        _enumerate(child, path + (index,), root, found)


def _replaced(
    node: Expression, path: Tuple[int, ...], replacement: Expression
) -> Expression:
    """``node`` with its descendant at child-index ``path`` replaced."""
    if not path:
        return replacement
    kids = list(node.children())
    kids[path[0]] = _replaced(kids[path[0]], path[1:], replacement)
    return node.with_children(tuple(kids))


def idle_delegations(plan: Plan) -> int:
    """How many ``EvalAt(p, e)`` of ``plan`` are reached at site ``p``.

    The evaluation site starts at ``plan.site``, becomes ``p`` below every
    ``EvalAt(p, ·)`` and stays unchanged through every other node — as
    the evaluator's definitions carry it.  Such an *idle delegation* is
    the identity: ``eval@p(eval@p(e))`` evaluates as ``eval@p(e)``, with
    the same value, effects, messages and clocks.  The count is a fold
    over the children's counts, each kept on its node per entry site, so
    a rewrite recounts only the spine it rebuilt.
    """
    return _idle_at(plan.expr, plan.site)


def _idle_at(node: Expression, site: str) -> int:
    counts = node.__dict__.get("_idle")
    if counts is None:
        counts = node.__dict__["_idle"] = {}
    count = counts.get(site)
    if count is None:
        if isinstance(node, EvalAt):
            count = (node.peer == site) + _idle_at(node.expr, node.peer)
        else:
            count = 0
            for child in node.children():
                count += _idle_at(child, site)
        counts[site] = count
    return count


class RewriteRule:
    """Base class: enumerate alternative plans for one plan."""

    name = "rule"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        raise NotImplementedError

    def _peers(self, system: AXMLSystem) -> List[str]:
        return sorted(system.peers)


# ---------------------------------------------------------------------------
# Rule (10): query delegation
# ---------------------------------------------------------------------------

class QueryDelegation(RewriteRule):
    """``eval@p1(q(t)) ≡ send_{p2→p1}((send_{p1→p2} q)(send_{p1→p2} t))``.

    In expression form: wrap a :class:`QueryApply` in ``EvalAt(p2, ·)``.
    Definitions (5)/(7) then perform exactly the three sends of the rule.
    Candidate delegates: the home peers of the arguments (pushing the
    query to the data — the useful direction) and, when ``all_peers`` is
    set, every other peer (the optimizer prunes by cost).

    The guard compares candidates against ``plan.site``, not against the
    site the matched node is evaluated at: a ``QueryApply`` already under
    ``EvalAt(p, ·)`` still gets ``EvalAt(p, ·)`` proposed.  That rewrite
    is an idle delegation (:func:`idle_delegations`), and the search
    space drops it (:meth:`~repro.core.strategies.SearchSpace.expand`).
    """

    name = "query-delegation(10)"

    def __init__(self, all_peers: bool = False) -> None:
        self.all_peers = all_peers

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild in _contexts(plan):
            if not isinstance(node, QueryApply):
                continue
            candidates = set()
            for arg in node.args:
                if isinstance(arg, (DocExpr, TreeExpr)):
                    candidates.add(arg.home)
            if self.all_peers:
                candidates.update(self._peers(system))
            candidates.discard(plan.site)
            for peer in sorted(candidates):
                rewrites.append(
                    Rewrite(
                        Plan(rebuild(EvalAt(peer, node)), plan.site),
                        self.name,
                        f"delegate to {peer}",
                    )
                )
        return rewrites


# ---------------------------------------------------------------------------
# Rule (11) + Example 1: pushing selections
# ---------------------------------------------------------------------------

class PushSelection(RewriteRule):
    """Decompose ``q ≡ q1(σ(q2))`` and evaluate σ(q2) at the data's home.

    Matches ``QueryApply(q, (d@p2,))`` whose query splits via
    :func:`repro.xquery.decompose.push_selection`; produces::

        QueryApply(q1, (EvalAt(p2, QueryApply(σq2, (d@p2,))),))

    so only the selected subset travels (the paper's Example 1 chain of
    rules (11) then (10)).
    """

    name = "push-selection(11)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild in _contexts(plan):
            if not isinstance(node, QueryApply):
                continue
            if len(node.args) != 1 or not isinstance(node.args[0], (DocExpr, GenericDoc)):
                continue
            if not isinstance(node.query, QueryRef):
                continue
            arg = node.args[0]
            home = arg.home if isinstance(arg, DocExpr) else None
            try:
                decomposition = push_selection(node.query.query)
            except DecompositionError:
                continue
            inner_ref = QueryRef(decomposition.inner, plan.site)
            outer_ref = QueryRef(decomposition.outer, plan.site)
            inner_apply = QueryApply(inner_ref, (arg,))
            if home is not None and home != plan.site:
                inner_expr: Expression = EvalAt(home, inner_apply)
                note = f"selection pushed to {home}"
            else:
                inner_expr = inner_apply
                note = "selection split locally"
            rewritten = QueryApply(outer_ref, (inner_expr,))
            rewrites.append(
                Rewrite(Plan(rebuild(rewritten), plan.site), self.name, note)
            )
        return rewrites


# ---------------------------------------------------------------------------
# Rule (12): transfer rerouting
# ---------------------------------------------------------------------------

class Reroute(RewriteRule):
    """``send_{p1→p2}(eval@p0(send(p1, t@p0))) ≡ send_{p0→p2}(t@p0)``.

    Right-to-left: a transfer may stop at an intermediary; left-to-right:
    the stop can be elided.  We enumerate both directions on every
    :class:`Send`: adding each other peer as a one-hop relay, and
    stripping existing relays.  The paper stresses the rule is *not*
    always profitable left-to-right — the cost model decides.
    """

    name = "reroute(12)"

    def __init__(self, max_relays: int = 1) -> None:
        self.max_relays = max_relays

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild in _contexts(plan):
            if not isinstance(node, Send):
                continue
            dest_peer = _dest_peer(node.dest)
            if node.via:
                rewrites.append(
                    Rewrite(
                        Plan(rebuild(Send(node.dest, node.payload, ())), plan.site),
                        self.name,
                        "drop intermediary stops",
                    )
                )
            if len(node.via) < self.max_relays:
                for peer in self._peers(system):
                    if peer in (plan.site, dest_peer) or peer in node.via:
                        continue
                    rewrites.append(
                        Rewrite(
                            Plan(
                                rebuild(
                                    Send(node.dest, node.payload, node.via + (peer,))
                                ),
                                plan.site,
                            ),
                            self.name,
                            f"stop at {peer}",
                        )
                    )
        return rewrites


def _dest_peer(dest) -> Optional[str]:
    if isinstance(dest, PeerDest):
        return dest.peer
    if isinstance(dest, DocDest):
        return dest.peer
    if isinstance(dest, NodesDest) and dest.nodes:
        return dest.nodes[0].peer
    return None


# ---------------------------------------------------------------------------
# Rule (13): transfer reuse
# ---------------------------------------------------------------------------

class TransferReuse(RewriteRule):
    """Materialize a multiply-transferred remote tree as a local document.

    ``e1(e2(send_{p1→p}(t)), e3(send_{p1→p}(t)))`` becomes: first
    materialize ``t`` as ``d@p``, then evaluate the expression with both
    occurrences reading ``d@p``.  The :class:`Seq` makes the lost
    parallelism explicit: the body waits for the materialization, which
    "may be worth it if t is large" (paper's own caveat).
    """

    name = "transfer-reuse(13)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        occurrences: dict = {}
        for node, _ in _contexts(plan):
            if isinstance(node, DocExpr) and node.home != plan.site:
                occurrences[node] = occurrences.get(node, 0) + 1
        rewrites: List[Rewrite] = []
        for doc_expr, count in occurrences.items():
            if count < 2:
                continue
            # deterministic name: the same logical rewrite must produce the
            # same plan every time it is enumerated, or plan fingerprints
            # (and any caching keyed on them) would never match across
            # searches.  The digest keeps it injective over (name, home) —
            # a plain join would alias e.g. ("a-b","c") with ("a","b-c").
            pair = blake2b(
                f"{doc_expr.name}\x00{doc_expr.home}".encode("utf-8"),
                digest_size=6,
            ).hexdigest()
            local_name = f"tmp-reuse-{doc_expr.name}-{pair}"
            local = DocExpr(local_name, plan.site)

            def substitute(node: Expression) -> Optional[Expression]:
                if node == doc_expr:
                    return local
                return None

            body = transform(plan.expr, substitute)
            materialize = EvalAt(
                doc_expr.home,
                Send(DocDest(local_name, plan.site), doc_expr),
            )
            rewrites.append(
                Rewrite(
                    Plan(Seq((materialize, body)), plan.site),
                    self.name,
                    f"materialize {doc_expr.describe()} as {local_name}@{plan.site}",
                )
            )
        return rewrites


# ---------------------------------------------------------------------------
# Rule (14): whole-expression delegation
# ---------------------------------------------------------------------------

class DelegateExpression(RewriteRule):
    """``eval@p(e) ≡ eval@p1(send(p, eval@p(e)))`` — move the coordinator.

    Wraps the *top-level* expression in ``EvalAt(p1, ·)`` for each other
    peer: the expression tree ships to p1 (mutant-query-plan style), p1
    orchestrates, and the value returns to p.  Only applied at the top to
    keep the search space linear; inner delegation emerges from rule (10).
    """

    name = "delegate-expression(14)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        if isinstance(plan.expr, EvalAt):
            return []  # already delegated; avoid towers of EvalAt
        rewrites = []
        for peer in self._peers(system):
            if peer == plan.site:
                continue
            rewrites.append(
                Rewrite(
                    Plan(EvalAt(peer, plan.expr), plan.site),
                    self.name,
                    f"coordinate at {peer}",
                )
            )
        return rewrites


# ---------------------------------------------------------------------------
# Rule (15): relocating service calls
# ---------------------------------------------------------------------------

class RelocateCall(RewriteRule):
    """``eval@p(sc(...)) ≡ eval@p2(send_{p→p2}(sc(...)))``.

    Sound for calls with an explicit forward list: responses go straight
    to the targets, so "there is no need to ship results back".  The
    natural winner is relocating to the *provider* — parameters then ship
    once instead of twice.
    """

    name = "relocate-call(15)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild in _contexts(plan):
            if not isinstance(node, ServiceCallExpr) or not node.forwards:
                continue
            if any(not isinstance(p, TreeExpr) for p in node.params):
                continue  # params must be shippable values
            candidates = set(self._peers(system))
            if node.provider != ANY:
                candidates.add(node.provider)
            candidates.discard(plan.site)
            for peer in sorted(candidates):
                relocated_params = tuple(
                    TreeExpr(p.tree, peer) if isinstance(p, TreeExpr) and p.home == plan.site else p
                    for p in node.params
                )
                # Relocation ships the whole sc tree (params included) to
                # the new site; EvalAt's expression shipping models that.
                relocated = ServiceCallExpr(
                    node.provider, node.service, relocated_params, node.forwards
                )
                rewrites.append(
                    Rewrite(
                        Plan(rebuild(EvalAt(peer, relocated)), plan.site),
                        self.name,
                        f"evaluate sc at {peer}",
                    )
                )
        return rewrites


# ---------------------------------------------------------------------------
# Rule (16): pushing queries over service calls
# ---------------------------------------------------------------------------

class PushQueryOverCall(RewriteRule):
    """``q(sc(p1, s1, params)) ≡ eval@p1(q(q1(params)))`` with results
    forwarded from p1 — compose the consumer query with the service's
    implementing query at the provider.

    Requires ``s1@p1`` declarative (its query ``q1`` is visible); that
    visibility "enabl[ing] many optimizations" is exactly why the paper
    singles declarative services out.
    """

    name = "push-query-over-call(16)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild in _contexts(plan):
            if not isinstance(node, QueryApply):
                continue
            if len(node.args) != 1 or not isinstance(node.args[0], ServiceCallExpr):
                continue
            if not isinstance(node.query, QueryRef):
                continue
            call = node.args[0]
            if call.provider == ANY:
                continue
            provider = system.peer(call.provider)
            if not provider.has_service(call.service):
                continue
            service = provider.service(call.service)
            if not isinstance(service, DeclarativeService):
                continue
            q1_ref = QueryRef(service.query, call.provider)
            inner_apply = QueryApply(q1_ref, call.params)
            composed = QueryApply(node.query, (inner_apply,))
            if call.forwards:
                pushed: Expression = EvalAt(
                    call.provider, Send(NodesDest(call.forwards), composed)
                )
            else:
                pushed = EvalAt(call.provider, composed)
            rewrites.append(
                Rewrite(
                    Plan(rebuild(pushed), plan.site),
                    self.name,
                    f"compose with {service.name}@{call.provider}",
                )
            )
        return rewrites


# ---------------------------------------------------------------------------
# Fragment-aware rewrites (repro.dist): scatter below the union, prune
# ---------------------------------------------------------------------------

class _FragmentRuleBase(RewriteRule):
    """Shared matching for the two fragment rewrites.

    Both fire on ``QueryApply(q, (d@dist,))`` where ``q`` splits via
    :func:`~repro.xquery.decompose.push_selection` — rule (11) applied
    over a fragment union instead of a single remote document.
    """

    def _matches(self, plan: Plan, system: AXMLSystem):
        catalog = system.fragments
        if not len(catalog):
            return
        for node, rebuild in _contexts(plan):
            if not isinstance(node, QueryApply):
                continue
            if len(node.args) != 1 or not isinstance(node.args[0], FragmentedDoc):
                continue
            if not isinstance(node.query, QueryRef):
                continue
            if not catalog.is_fragmented(node.args[0].name):
                continue
            try:
                decomposition = push_selection(node.query.query)
            except DecompositionError:
                continue
            yield node, rebuild, catalog.info(node.args[0].name), decomposition

    def _scatter(self, plan: Plan, node: QueryApply, decomposition, fragments):
        """``q1(gather(eval@home_i(σq2(frag_i)), ...))`` over the fragments.

        The inner query is homed at each fragment's peer: the shipped
        ``EvalAt`` expression already carries the query text (mutant
        query plans — the code travels with the plan), so homing it
        remotely would only add a redundant second query transfer.
        Replicated fragments are read through their generic class, not
        pinned to the primary — the pick policy (e.g. queue-depth
        admission under the serving engine) chooses the copy at
        evaluation time, for optimized plans exactly as for reassembly.
        """
        outer_ref = QueryRef(decomposition.outer, plan.site)
        parts = []
        for fragment in fragments:
            if fragment.generic is not None:
                source: Expression = GenericDoc(fragment.generic)
            else:
                source = DocExpr(fragment.name, fragment.home)
            inner_apply = QueryApply(
                QueryRef(decomposition.inner, fragment.home), (source,)
            )
            if fragment.home != plan.site:
                parts.append(EvalAt(fragment.home, inner_apply))
            else:
                parts.append(inner_apply)
        return QueryApply(outer_ref, (Gather(tuple(parts)),))


class FragmentPushSelection(_FragmentRuleBase):
    """Push a selection below the fragment union (scatter-gather).

    ``q(d@dist) ≡ q1(gather(eval@p_i(σq2(f_i@p_i)), ...))`` — instead of
    reassembling the whole document at the evaluation site, each
    fragment-holding peer runs the selection locally and only the
    matching subset travels; the gather unions the per-fragment
    envelopes in ordinal order, so answers stay byte-identical.
    """

    name = "fragment-scatter(11f)"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild, info, decomposition in self._matches(plan, system):
            scattered = self._scatter(plan, node, decomposition, info.fragments)
            rewrites.append(
                Rewrite(
                    Plan(rebuild(scattered), plan.site),
                    self.name,
                    f"scatter σ to {len(info.fragments)} fragments of {info.doc}",
                )
            )
        return rewrites


class FragmentPrune(_FragmentRuleBase):
    """Contact only fragments whose catalog metadata can match.

    Combines the scatter with static pruning: a fragment whose recorded
    ``(min, max)`` range for the selection's key cannot satisfy the
    predicate is dropped from the gather entirely — no message, no
    compute, provably no lost answers (the ranges are invariants the
    :class:`~repro.dist.fragmenter.Fragmenter` computed at split time).
    Only emitted when it actually prunes something; the plain scatter is
    :class:`FragmentPushSelection`'s job.
    """

    name = "fragment-prune"

    def apply(self, plan: Plan, system: AXMLSystem) -> List[Rewrite]:
        rewrites: List[Rewrite] = []
        for node, rebuild, info, decomposition in self._matches(plan, system):
            bounds = selection_bounds(node.query.query)
            if bounds is None:
                continue
            kept = tuple(
                fragment
                for fragment in info.fragments
                if fragment_can_match(fragment, *bounds)
            )
            if len(kept) == len(info.fragments):
                continue
            pruned = self._scatter(plan, node, decomposition, kept)
            rewrites.append(
                Rewrite(
                    Plan(rebuild(pruned), plan.site),
                    self.name,
                    f"contact {len(kept)}/{len(info.fragments)} "
                    f"fragments of {info.doc}",
                )
            )
        return rewrites


#: The rule set the optimizer uses by default (paper order, then the
#: fragment-aware extensions).
DEFAULT_RULES: Tuple[RewriteRule, ...] = (
    QueryDelegation(),
    PushSelection(),
    Reroute(),
    TransferReuse(),
    DelegateExpression(),
    RelocateCall(),
    PushQueryOverCall(),
    FragmentPushSelection(),
    FragmentPrune(),
)
