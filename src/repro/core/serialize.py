"""Expressions as XML trees (paper Section 3.1).

"An expression can be viewed (serialized) as an XML tree, whose root is
labeled with the expression constructor, and whose children are the
expression parameters."  This serialization is what :class:`EvalAt` ships
when delegating an expression to another peer, so expression size —
``expression_size()`` — is a real cost the optimizer weighs.

Per-node facts: a plan search sizes and keys thousands of candidates that
share most of their nodes (see :mod:`repro.core.expressions`), so
:func:`expression_size` and :func:`expression_fingerprint` are computed
once per node and kept on it.  The digest is a Merkle fold — a node
hashes its own tokens and its parts' digests — so keying a rewrite
hashes only the spine it rebuilt.  *Sealing rule*: both read tree
literals, so a node keeps them only once every :class:`TreeExpr` tree
under it is frozen; a node over a still-mutable literal is re-read on
every call, and freezing, being one-way, never makes a kept value stale.
"""

from __future__ import annotations

from hashlib import blake2b

from ..errors import ExpressionError
from ..xmlcore.model import Element, element
from ..xmlcore.serializer import escape_attr
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


def expression_size(expr: Expression) -> int:
    """Bytes of the serialized expression — the code-shipping cost.

    Kept on ``expr`` once it is sealed (see the module docstring), so an
    ``EvalAt`` body shared by many candidates is serialized once.
    """
    size = expr.__dict__.get(_SIZE)
    if size is None:
        size = to_xml(expr).serialized_size()
        if _sealed(expr):
            expr.__dict__[_SIZE] = size
    return size


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

#: Where a node keeps its facts (instance ``__dict__`` keys).
_SIZE = "_size"
_DIGEST = "_digest"
_WIDTH_DIGEST = "_width_digest"


def expression_fingerprint(expr: Expression, name_widths: bool = False) -> str:
    """Digest of the expression's XML form, without building or copying it.

    Two expressions fingerprint equal iff their :func:`to_xml` serializations
    are structurally equal — the canonical identity the plan cache keys on.
    Unlike ``serialize(to_xml(expr))`` this never copies tree literals: a
    node hashes the constructor/attribute tokens ``to_xml`` would emit for
    it, then its parts' digests (a Merkle fold), and a :class:`TreeExpr`
    contributes the (cached) content fingerprint of its tree.  Every node
    keeps its digest once sealed (see the module docstring), so the cost
    is one hash per node the expression does not share with one already
    fingerprinted: for a rewrite, the spine it rebuilt.

    ``name_widths`` reduces every query name to the number of bytes its
    ``name=`` attribute serializes to.  Evaluation sees a query's name
    only as that many bytes on the wire, so expressions that differ only
    in how their queries are *labelled*, at equal width, then share a
    digest (the prepared-plan key of :mod:`repro.core.planspace`).  The
    two spellings are kept apart on the node.
    """
    return _digest(expr, _WIDTH_DIGEST if name_widths else _DIGEST)


def _sealed(expr: Expression) -> bool:
    """Whether every tree literal under ``expr`` is frozen.

    Exactly then its digest is kept, so a sealed node answers with one
    lookup.
    """
    _digest(expr, _DIGEST)
    return _DIGEST in expr.__dict__


def _digest(expr: Expression, slot: str) -> str:
    """The digest kept under ``slot``, computed (and kept, once sealed)."""
    known = expr.__dict__.get(slot)
    if known is not None:
        return known
    parts: tuple = ()
    sealed = True
    if isinstance(expr, TreeExpr):
        tokens = ["x-tree", expr.home, expr.tree.content_fingerprint()]
        sealed = expr.tree.frozen
    elif isinstance(expr, DocExpr):
        tokens = ["x-doc", expr.name, expr.home]
    elif isinstance(expr, GenericDoc):
        tokens = ["x-doc", expr.name, ANY]
    elif isinstance(expr, FragmentedDoc):
        tokens = ["x-fragdoc", expr.name]
    elif isinstance(expr, Gather):
        parts = expr.parts
        tokens = ["x-gather", str(len(parts))]
    elif isinstance(expr, QueryRef):
        name = expr.query.name or ""
        if name and slot == _WIDTH_DIGEST:
            name = str(len(escape_attr(name).encode("utf-8")))
        tokens = [
            "x-query",
            expr.home,
            " ".join(expr.query.params),
            name,
            expr.query.source,
        ]
    elif isinstance(expr, GenericService):
        tokens = ["x-service", expr.name, ANY]
    elif isinstance(expr, QueryApply):
        parts = (expr.query,) + expr.args
        tokens = ["x-apply", str(len(expr.args))]
    elif isinstance(expr, ServiceCallExpr):
        parts = expr.params
        tokens = ["x-sc", expr.provider, expr.service, str(len(parts))]
        tokens.extend([str(target) for target in expr.forwards])
    elif isinstance(expr, Send):
        parts = (expr.payload,)
        tokens = ["x-send", " ".join(expr.via), *_dest_tokens(expr.dest)]
    elif isinstance(expr, EvalAt):
        parts = (expr.expr,)
        tokens = ["x-eval", expr.peer]
    elif isinstance(expr, Seq):
        parts = expr.steps
        tokens = ["x-seq", str(len(parts))]
    else:
        raise ExpressionError(f"cannot fingerprint {type(expr).__name__}")
    for part in parts:
        tokens.append(_digest(part, slot))
        if slot not in part.__dict__:
            sealed = False
    digest = blake2b(
        "\x00".join(tokens).encode("utf-8"), digest_size=12
    ).hexdigest()
    if sealed:
        expr.__dict__[slot] = digest
    return digest


def _dest_tokens(dest) -> list:
    if isinstance(dest, PeerDest):
        return ["x-dest", "peer", dest.peer]
    if isinstance(dest, NodesDest):
        return ["x-dest", "nodes", *[str(n) for n in dest.nodes]]
    if isinstance(dest, DocDest):
        return ["x-dest", "doc", dest.name, dest.peer]
    raise ExpressionError(
        f"cannot fingerprint destination {type(dest).__name__}"
    )
