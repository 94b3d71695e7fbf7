"""Expressions as XML trees (paper Section 3.1).

"An expression can be viewed (serialized) as an XML tree, whose root is
labeled with the expression constructor, and whose children are the
expression parameters."  This serialization is what :class:`EvalAt` ships
when delegating an expression to another peer, so expression size —
``expression_size()`` — is a real cost the optimizer weighs.

Round trip: ``from_xml(to_xml(e)) == e`` for every expression not
containing in-memory :class:`TreeExpr` literals with node identity (tree
literals round-trip by content).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Callable

from ..errors import ExpressionError
from ..xmlcore.model import Element, NodeId, element
from ..xmlcore.serializer import escape_attr
from ..xquery import Query
from .expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    FragmentedDoc,
    Gather,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
)

__all__ = [
    "to_xml",
    "from_xml",
    "expression_size",
    "expression_fingerprint",
]


def to_xml(expr: Expression) -> Element:
    """Serialize an expression into its XML-tree form."""
    if isinstance(expr, TreeExpr):
        node = element("x-tree", attrs={"home": expr.home})
        node.append(expr.tree.copy())
        return node
    if isinstance(expr, DocExpr):
        return element("x-doc", attrs={"name": expr.name, "home": expr.home})
    if isinstance(expr, GenericDoc):
        return element("x-doc", attrs={"name": expr.name, "home": ANY})
    if isinstance(expr, FragmentedDoc):
        return element("x-fragdoc", attrs={"name": expr.name})
    if isinstance(expr, Gather):
        node = element("x-gather")
        for part in expr.parts:
            node.append(to_xml(part))
        return node
    if isinstance(expr, QueryRef):
        node = element(
            "x-query",
            expr.query.source,
            attrs={
                "home": expr.home,
                "params": " ".join(expr.query.params),
                **({"name": expr.query.name} if expr.query.name else {}),
            },
        )
        return node
    if isinstance(expr, GenericService):
        return element("x-service", attrs={"name": expr.name, "home": ANY})
    if isinstance(expr, QueryApply):
        node = element("x-apply")
        node.append(to_xml(expr.query))
        args = element("x-args")
        for arg in expr.args:
            args.append(to_xml(arg))
        node.append(args)
        return node
    if isinstance(expr, ServiceCallExpr):
        node = element(
            "x-sc", attrs={"provider": expr.provider, "service": expr.service}
        )
        params = element("x-params")
        for param in expr.params:
            params.append(to_xml(param))
        node.append(params)
        for target in expr.forwards:
            node.append(element("x-forw", str(target)))
        return node
    if isinstance(expr, Send):
        node = element("x-send")
        node.append(_dest_to_xml(expr.dest))
        if expr.via:
            node.set_attr("via", " ".join(expr.via))
        node.append(to_xml(expr.payload))
        return node
    if isinstance(expr, EvalAt):
        node = element("x-eval", attrs={"peer": expr.peer})
        node.append(to_xml(expr.expr))
        return node
    if isinstance(expr, Seq):
        node = element("x-seq")
        for step in expr.steps:
            node.append(to_xml(step))
        return node
    raise ExpressionError(f"cannot serialize {type(expr).__name__}")


def _dest_to_xml(dest) -> Element:
    if isinstance(dest, PeerDest):
        return element("x-dest", attrs={"kind": "peer", "peer": dest.peer})
    if isinstance(dest, NodesDest):
        node = element("x-dest", attrs={"kind": "nodes"})
        for target in dest.nodes:
            node.append(element("x-node", str(target)))
        return node
    if isinstance(dest, DocDest):
        return element(
            "x-dest", attrs={"kind": "doc", "name": dest.name, "peer": dest.peer}
        )
    raise ExpressionError(f"cannot serialize destination {type(dest).__name__}")


def from_xml(node: Element) -> Expression:
    """Reconstruct an expression from its XML form."""
    tag = node.tag
    if tag == "x-tree":
        inner = node.element_children
        if len(inner) != 1:
            raise ExpressionError("x-tree must wrap exactly one tree")
        return TreeExpr(inner[0].copy(), node.attrs["home"])
    if tag == "x-doc":
        home = node.attrs["home"]
        if home == ANY:
            return GenericDoc(node.attrs["name"])
        return DocExpr(node.attrs["name"], home)
    if tag == "x-fragdoc":
        return FragmentedDoc(node.attrs["name"])
    if tag == "x-gather":
        return Gather(tuple(from_xml(c) for c in node.element_children))
    if tag == "x-query":
        params = tuple(p for p in node.attrs.get("params", "").split() if p)
        query = Query(
            node.string_value(), params=params, name=node.attrs.get("name")
        )
        return QueryRef(query, node.attrs["home"])
    if tag == "x-service":
        return GenericService(node.attrs["name"])
    if tag == "x-apply":
        children = node.element_children
        query = from_xml(children[0])
        if not isinstance(query, (QueryRef, GenericService)):
            raise ExpressionError("x-apply head must be a query or service ref")
        args_node = node.child_by_tag("x-args")
        args = tuple(from_xml(c) for c in args_node.element_children) if args_node else ()
        return QueryApply(query, args)
    if tag == "x-sc":
        params_node = node.child_by_tag("x-params")
        params = (
            tuple(from_xml(c) for c in params_node.element_children)
            if params_node
            else ()
        )
        forwards = tuple(
            NodeId.parse(f.string_value().strip())
            for f in node.children_by_tag("x-forw")
        )
        return ServiceCallExpr(
            node.attrs["provider"], node.attrs["service"], params, forwards
        )
    if tag == "x-send":
        dest_node = node.child_by_tag("x-dest")
        if dest_node is None:
            raise ExpressionError("x-send missing destination")
        payload_nodes = [
            c for c in node.element_children if c.tag != "x-dest"
        ]
        if len(payload_nodes) != 1:
            raise ExpressionError("x-send must have exactly one payload")
        via = tuple(node.attrs.get("via", "").split())
        return Send(_dest_from_xml(dest_node), from_xml(payload_nodes[0]), via)
    if tag == "x-eval":
        inner = node.element_children
        if len(inner) != 1:
            raise ExpressionError("x-eval must wrap exactly one expression")
        return EvalAt(node.attrs["peer"], from_xml(inner[0]))
    if tag == "x-seq":
        return Seq(tuple(from_xml(c) for c in node.element_children))
    raise ExpressionError(f"unknown expression element <{tag}>")


def _dest_from_xml(node: Element):
    kind = node.attrs.get("kind")
    if kind == "peer":
        return PeerDest(node.attrs["peer"])
    if kind == "nodes":
        return NodesDest(
            tuple(
                NodeId.parse(c.string_value().strip())
                for c in node.children_by_tag("x-node")
            )
        )
    if kind == "doc":
        return DocDest(node.attrs["name"], node.attrs["peer"])
    raise ExpressionError(f"unknown destination kind {kind!r}")


def expression_size(expr: Expression) -> int:
    """Bytes of the serialized expression — the code-shipping cost."""
    return to_xml(expr).serialized_size()


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

def expression_fingerprint(expr: Expression, name_widths: bool = False) -> str:
    """Digest of the expression's XML form, without building or copying it.

    Two expressions fingerprint equal iff their :func:`to_xml` serializations
    are structurally equal — the canonical identity the plan cache keys on.
    Unlike ``serialize(to_xml(expr))`` this never copies tree literals: it feeds
    the same constructor/attribute tokens ``to_xml`` would emit straight
    into a hash, and folds in the (cached) content fingerprint of each
    :class:`TreeExpr` subtree.  Cost is one walk of the expression, O(1)
    per already-fingerprinted tree literal.

    ``name_widths`` reduces every query name to the number of bytes its
    ``name=`` attribute serializes to.  Evaluation sees a query's name
    only as that many bytes on the wire, so expressions that differ only
    in how their queries are *labelled*, at equal width, then share a
    digest (the prepared-plan key of :mod:`repro.core.planspace`).
    """
    digest = blake2b(digest_size=12)
    _fingerprint_into(expr, digest.update, name_widths)
    return digest.hexdigest()


def _fingerprint_into(
    expr: Expression, feed: Callable[[bytes], None], name_widths: bool = False
) -> None:
    def token(*parts: str) -> None:
        for part in parts:
            feed(part.encode("utf-8"))
            feed(b"\x00")

    if isinstance(expr, TreeExpr):
        token("x-tree", expr.home, expr.tree.content_fingerprint())
    elif isinstance(expr, DocExpr):
        token("x-doc", expr.name, expr.home)
    elif isinstance(expr, GenericDoc):
        token("x-doc", expr.name, ANY)
    elif isinstance(expr, FragmentedDoc):
        token("x-fragdoc", expr.name)
    elif isinstance(expr, Gather):
        token("x-gather", str(len(expr.parts)))
        for part in expr.parts:
            _fingerprint_into(part, feed, name_widths)
    elif isinstance(expr, QueryRef):
        name = expr.query.name or ""
        if name and name_widths:
            name = str(len(escape_attr(name).encode("utf-8")))
        token(
            "x-query",
            expr.home,
            " ".join(expr.query.params),
            name,
            expr.query.source,
        )
    elif isinstance(expr, GenericService):
        token("x-service", expr.name, ANY)
    elif isinstance(expr, QueryApply):
        token("x-apply")
        _fingerprint_into(expr.query, feed, name_widths)
        token("x-args", str(len(expr.args)))
        for arg in expr.args:
            _fingerprint_into(arg, feed, name_widths)
    elif isinstance(expr, ServiceCallExpr):
        token("x-sc", expr.provider, expr.service, str(len(expr.params)))
        for param in expr.params:
            _fingerprint_into(param, feed, name_widths)
        for target in expr.forwards:
            token("x-forw", str(target))
    elif isinstance(expr, Send):
        token("x-send", " ".join(expr.via))
        _fingerprint_dest(expr.dest, token)
        _fingerprint_into(expr.payload, feed, name_widths)
    elif isinstance(expr, EvalAt):
        token("x-eval", expr.peer)
        _fingerprint_into(expr.expr, feed, name_widths)
    elif isinstance(expr, Seq):
        token("x-seq", str(len(expr.steps)))
        for step in expr.steps:
            _fingerprint_into(step, feed, name_widths)
    else:
        raise ExpressionError(f"cannot fingerprint {type(expr).__name__}")


def _fingerprint_dest(dest, token) -> None:
    if isinstance(dest, PeerDest):
        token("x-dest", "peer", dest.peer)
    elif isinstance(dest, NodesDest):
        token("x-dest", "nodes", *[str(n) for n in dest.nodes])
    elif isinstance(dest, DocDest):
        token("x-dest", "doc", dest.name, dest.peer)
    else:
        raise ExpressionError(
            f"cannot fingerprint destination {type(dest).__name__}"
        )
