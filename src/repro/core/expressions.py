"""The expression language E (paper Section 3.1).

Members of E, with their paper counterparts:

* :class:`TreeExpr` — ``t@p``: a literal tree hosted at a peer;
* :class:`DocExpr` — ``d@p``: a named document at a peer;
* :class:`GenericDoc` — ``d@any`` (Section 2.3);
* :class:`FragmentedDoc` — ``d@dist``: a horizontally fragmented document
  resolved through the fragment catalog (:mod:`repro.dist`);
* :class:`Gather` — order-preserving union of independent sub-plans, the
  gather half of scatter-gather evaluation over fragments;
* :class:`QueryRef` — ``q@p``: a query defined at a peer (shippable);
* :class:`GenericService` — ``s@any``;
* :class:`QueryApply` — ``q@p(t1, ..., tn)``;
* :class:`ServiceCallExpr` — an ``sc(...)``-rooted expression tree;
* :class:`Send` — the overloaded ``send(·)`` constructor, with the four
  destination flavours of the paper (peer, node list, named document,
  query deployment) plus an optional explicit ``via`` relay list
  (rule (12) materializes intermediary stops through it);
* :class:`EvalAt` — ``eval@p(e)`` embedded as a sub-expression, which the
  paper uses pervasively on the right-hand side of its rules (e.g. the
  ``send_{p1→p2}(e)`` shorthand *is* ``eval@p1(send(p2, e))``);
* :class:`Seq` — sequential composition (evaluate left to right, value of
  the last step), needed by rule (13) whose rewrite "is only enabled when
  d is available at p, which breaks the parallelism".

Expressions are frozen dataclasses: rewrites construct new trees, so plans
can be enumerated, compared and cached safely.  Section 3.1: "An
expression can be viewed (serialized) as an XML tree" — that serialization
lives in :mod:`repro.core.serialize`.

A rewrite rebuilds only the path from the changed node to the root
(:meth:`Expression.with_children`), so the candidates of one plan search
share most of their nodes.  What the planner derives from a node is
therefore computed once and kept on the node, in its instance
``__dict__`` (outside the dataclass fields, so equality, hashing and
``repr`` never see it), after hash-consing (Filliâtre & Conchon,
"Type-safe modular hash-consing", 2006):

* its structural digest, plain and with query names reduced to their
  widths, and its serialized size — two Merkle folds of the node's one
  XML form over its parts' kept values
  (:func:`~repro.core.serialize.expression_fingerprint`,
  :func:`~repro.core.serialize.expression_size`);
* its idle-delegation count per entry site
  (:func:`~repro.core.rules.idle_delegations`).

(A :class:`~repro.core.rules.Plan` likewise keeps the one enumeration
of its sub-expressions that every rule expanding it reads.)  Each is a
function of the node alone — never of Σ, of document epochs
or of a cost model — so a node shared by two plans, two searches or two
states Σ carries the same facts in all of them.  The digest and the size
also read tree literals; they are kept only once every
:class:`TreeExpr` tree under the node is frozen (freezing is one-way, so
a kept value never goes stale), and re-read on every call before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Union

from ..errors import ExpressionError
from ..xmlcore.model import Element, NodeId
from ..xquery import Query

__all__ = [
    "Expression",
    "TreeExpr",
    "DocExpr",
    "GenericDoc",
    "FragmentedDoc",
    "Gather",
    "QueryRef",
    "GenericService",
    "QueryApply",
    "ServiceCallExpr",
    "Destination",
    "PeerDest",
    "NodesDest",
    "DocDest",
    "Send",
    "EvalAt",
    "Seq",
    "walk",
    "transform",
    "ANY",
]

ANY = "any"


class Expression:
    """Base class for members of E."""

    __slots__ = ()

    def children(self) -> Tuple["Expression", ...]:
        """Direct sub-expressions (used by generic traversal/rewriting)."""
        return ()

    def with_children(self, children: Tuple["Expression", ...]) -> "Expression":
        """Rebuild this node with replacement sub-expressions."""
        if children:
            raise ExpressionError(f"{type(self).__name__} takes no children")
        return self

    def describe(self) -> str:
        """Compact, human-readable rendering (used in plan listings)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Data and query references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeExpr(Expression):
    """A literal tree at a peer: ``t@p``.

    The tree may contain ``sc`` nodes — evaluating it (definition (1) +
    (6)) activates them.  Frozen-ness is shallow; the evaluator always
    works on copies and never mutates the referenced tree in place (it
    freezes a root literal the first time it hands it on, after which
    the node's digest and size are kept).
    """

    tree: Element
    home: str

    def describe(self) -> str:
        return f"tree(<{self.tree.tag}>)@{self.home}"

    def __hash__(self) -> int:
        # structural, not id()-based: equal literals hash alike even when
        # the trees are distinct copies (e.g. across AXMLSystem.clone()),
        # so plan dedup works on content.  The fingerprint is cached on
        # the element, so this is O(1) on finished trees.
        return hash((self.tree.content_fingerprint(), self.home))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TreeExpr)
            and other.home == self.home
            and (
                other.tree is self.tree
                or other.tree.content_fingerprint()
                == self.tree.content_fingerprint()
            )
        )


@dataclass(frozen=True)
class DocExpr(Expression):
    """A named document at a peer: ``d@p``."""

    name: str
    home: str

    def describe(self) -> str:
        return f"{self.name}@{self.home}"


@dataclass(frozen=True)
class GenericDoc(Expression):
    """A generic document ``d@any`` — an equivalence class of replicas."""

    name: str

    def describe(self) -> str:
        return f"{self.name}@any"


@dataclass(frozen=True)
class FragmentedDoc(Expression):
    """A horizontally fragmented document: ``d@dist``.

    Resolved through the system's
    :class:`~repro.dist.catalog.FragmentCatalog`: evaluation fans out to
    every fragment-holding peer (replicated fragments go through the
    generic registry, so pick policies choose), then reassembles the
    fragments' children under the original root in ordinal order — the
    value is byte-identical to the whole document.  The fragment-aware
    rewrites replace the reassembly with pushed, pruned scatter-gather.
    """

    name: str

    def describe(self) -> str:
        return f"{self.name}@dist"


@dataclass(frozen=True)
class Gather(Expression):
    """Order-preserving union of independently evaluated parts.

    Evaluating ``Gather(e1, ..., ek)`` at ``p`` evaluates every part at
    ``p`` from the *same* ready instant (the parts are independent —
    scatter), and concatenates the value forests in part order (gather).
    Completion is the latest part's completion, so fan-out parallelism
    is visible in the virtual clock while per-link traffic is still
    charged for every transfer individually.
    """

    parts: Tuple[Expression, ...]

    def children(self) -> Tuple[Expression, ...]:
        return self.parts

    def with_children(self, children: Tuple[Expression, ...]) -> "Gather":
        return Gather(tuple(children))

    def describe(self) -> str:
        return "gather(" + " | ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class QueryRef(Expression):
    """A query defined at a peer: ``q@p`` (a shippable value)."""

    query: Query
    home: str

    def describe(self) -> str:
        label = self.query.name or "q"
        return f"{label}@{self.home}"

    def __hash__(self) -> int:
        return hash((self.query.source, self.home))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QueryRef)
            and other.query.source == self.query.source
            and other.home == self.home
        )


@dataclass(frozen=True)
class GenericService(Expression):
    """A generic service ``s@any``."""

    name: str

    def describe(self) -> str:
        return f"{self.name}@any"


# ---------------------------------------------------------------------------
# Application and calls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryApply(Expression):
    """``q(e1, ..., en)`` — apply a query to argument expressions."""

    query: Union[QueryRef, GenericService]
    args: Tuple[Expression, ...] = ()

    def children(self) -> Tuple[Expression, ...]:
        return self.args

    def with_children(self, children: Tuple[Expression, ...]) -> "QueryApply":
        return QueryApply(self.query, tuple(children))

    def describe(self) -> str:
        inner = ", ".join(a.describe() for a in self.args)
        return f"{self.query.describe()}({inner})"


@dataclass(frozen=True)
class ServiceCallExpr(Expression):
    """An ``sc``-rooted expression: provider, service, params, forwards.

    ``provider == ANY`` is a generic call resolved at evaluation time.
    An empty ``forwards`` means "results return to the evaluation site"
    (the default-target behaviour of the AXML model).
    """

    provider: str
    service: str
    params: Tuple[Expression, ...] = ()
    forwards: Tuple[NodeId, ...] = ()

    def children(self) -> Tuple[Expression, ...]:
        return self.params

    def with_children(self, children: Tuple[Expression, ...]) -> "ServiceCallExpr":
        return ServiceCallExpr(
            self.provider, self.service, tuple(children), self.forwards
        )

    def describe(self) -> str:
        inner = ", ".join(p.describe() for p in self.params)
        fw = ""
        if self.forwards:
            fw = ", fw=[" + ", ".join(str(f) for f in self.forwards) + "]"
        return f"sc({self.provider}, {self.service}, [{inner}]{fw})"


# ---------------------------------------------------------------------------
# Send destinations
# ---------------------------------------------------------------------------

class Destination:
    """Where a :class:`Send` delivers (Section 3.1 lists the flavours)."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PeerDest(Destination):
    """``send(p2, ·)`` — the landing spot is chosen by the receiver."""

    peer: str

    def describe(self) -> str:
        return self.peer


@dataclass(frozen=True)
class NodesDest(Destination):
    """``send([n2@p2, ..., nk@pk], ·)`` — append under specific nodes."""

    nodes: Tuple[NodeId, ...]

    def describe(self) -> str:
        return "[" + ", ".join(str(n) for n in self.nodes) + "]"


@dataclass(frozen=True)
class DocDest(Destination):
    """``send(d@p2, ·)`` — install as a new document named ``d`` at p2."""

    name: str
    peer: str

    def describe(self) -> str:
        return f"{self.name}@{self.peer}"


@dataclass(frozen=True)
class Send(Expression):
    """``send(dest, e)`` — evaluate ``e`` here, ship the result to dest.

    Evaluating a send returns ∅ at the sender (definition (3)); the copy
    crossing the network is a *side effect* on Σ.  ``via`` lists explicit
    intermediary peers the payload stops at (rule (12)): each hop is a
    separate store-and-forward transfer, observable in the accounting.
    """

    dest: Destination
    payload: Expression
    via: Tuple[str, ...] = ()

    def children(self) -> Tuple[Expression, ...]:
        return (self.payload,)

    def with_children(self, children: Tuple[Expression, ...]) -> "Send":
        (payload,) = children
        return Send(self.dest, payload, self.via)

    def describe(self) -> str:
        via = f" via {list(self.via)}" if self.via else ""
        return f"send({self.dest.describe()}{via}, {self.payload.describe()})"


@dataclass(frozen=True)
class EvalAt(Expression):
    """``eval@p(e)`` as a sub-expression.

    Evaluating ``EvalAt(p2, e)`` from peer ``p`` ships the expression tree
    to ``p2`` (code shipping — the expression itself travels, in the
    spirit of mutant query plans), evaluates there, and — unless the
    result is already routed by inner sends/forward lists — ships the
    value back to ``p``.  This single construct expresses the right-hand
    sides of rules (10), (14), (15) and (16).
    """

    peer: str
    expr: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.expr,)

    def with_children(self, children: Tuple[Expression, ...]) -> "EvalAt":
        (expr,) = children
        return EvalAt(self.peer, expr)

    def describe(self) -> str:
        return f"eval@{self.peer}({self.expr.describe()})"


@dataclass(frozen=True)
class Seq(Expression):
    """Sequential composition; the value is the last step's value.

    Steps are *strictly ordered in virtual time*: step ``i+1`` starts only
    after step ``i`` completed.  Rule (13) uses this to express the
    materialize-then-reuse plan whose cost is traded against the lost
    parallelism.
    """

    steps: Tuple[Expression, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ExpressionError("Seq requires at least one step")

    def children(self) -> Tuple[Expression, ...]:
        return self.steps

    def with_children(self, children: Tuple[Expression, ...]) -> "Seq":
        return Seq(tuple(children))

    def describe(self) -> str:
        return "seq(" + "; ".join(s.describe() for s in self.steps) + ")"


# ---------------------------------------------------------------------------
# Generic traversal and rewriting
# ---------------------------------------------------------------------------

def walk(expr: Expression) -> Iterator[Expression]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def transform(
    expr: Expression, visit: Callable[[Expression], Optional[Expression]]
) -> Expression:
    """Bottom-up rewriting: ``visit`` may return a replacement or None.

    Children are transformed first; then ``visit`` sees the (possibly
    rebuilt) node.  Returning ``None`` keeps the node.
    """
    children = expr.children()
    if children:
        new_children = tuple(transform(child, visit) for child in children)
        if any(n is not o for n, o in zip(new_children, children)):
            expr = expr.with_children(new_children)
    replacement = visit(expr)
    return expr if replacement is None else replacement
