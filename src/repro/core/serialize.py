"""Expressions as XML trees (paper Section 3.1).

"An expression can be viewed (serialized) as an XML tree, whose root is
labeled with the expression constructor, and whose children are the
expression parameters."  This serialization is what :class:`EvalAt` ships
when delegating an expression to another peer, so expression size —
``expression_size()`` — is a real cost the optimizer weighs.

``_FORMS`` declares each E constructor's (and each :class:`Send`
destination's) XML form once: tag, attributes in the order they are
written, and parts — texts, tree literals, sub-expressions and the
nested forms of the ``x-args`` / ``x-params`` / ``x-dest`` / ``x-node`` /
``x-forw`` wrappers.  :func:`to_xml`, :func:`expression_fingerprint` and
:func:`expression_size` are three folds of it.  A plan search sizes and
keys thousands of candidates that share most of their nodes (see
:mod:`repro.core.expressions`), so the digest and the size are Merkle
folds kept on each node: a node combines its own markup with its parts'
kept values, and a rewrite reads only the spine it rebuilt.  *Sealing
rule*: both read tree literals, so a node keeps them only once every
:class:`TreeExpr` tree under it is frozen; a node over a still-mutable
literal is re-read on every call, and freezing, being one-way, never
makes a kept value stale.
"""

from __future__ import annotations

from hashlib import blake2b

from ..errors import ExpressionError
from ..xmlcore.model import Element, Text
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

#: ``(tag, attrs, parts)`` per constructor; a part is a text (``str``), a
#: tree literal (:class:`Element`), a sub-expression or a nested form.
_FORMS = {
    TreeExpr: lambda e: ("x-tree", {"home": e.home}, (e.tree,)),
    DocExpr: lambda e: ("x-doc", {"home": e.home, "name": e.name}, ()),
    GenericDoc: lambda e: ("x-doc", {"home": ANY, "name": e.name}, ()),
    FragmentedDoc: lambda e: ("x-fragdoc", {"name": e.name}, ()),
    Gather: lambda e: ("x-gather", {}, e.parts),
    QueryRef: lambda e: ("x-query", {
        "home": e.home,
        **({"name": e.query.name} if e.query.name else {}),
        "params": " ".join(e.query.params),
    }, (e.query.source,)),
    GenericService: lambda e: ("x-service", {"home": ANY, "name": e.name}, ()),
    QueryApply: lambda e: ("x-apply", {}, (e.query, ("x-args", {}, e.args))),
    ServiceCallExpr: lambda e: ("x-sc", {"provider": e.provider, "service": e.service}, (
        ("x-params", {}, e.params),
        *[("x-forw", {}, (str(target),)) for target in e.forwards],
    )),
    Send: lambda e: (
        "x-send", {"via": " ".join(e.via)} if e.via else {}, (_form(e.dest), e.payload)
    ),
    EvalAt: lambda e: ("x-eval", {"peer": e.peer}, (e.expr,)),
    Seq: lambda e: ("x-seq", {}, e.steps),
    PeerDest: lambda d: ("x-dest", {"kind": "peer", "peer": d.peer}, ()),
    NodesDest: lambda d: ("x-dest", {"kind": "nodes"}, tuple(
        [("x-node", {}, (str(target),)) for target in d.nodes]
    )),
    DocDest: lambda d: ("x-dest", {"kind": "doc", "name": d.name, "peer": d.peer}, ()),
}

#: Where a node keeps its facts (instance ``__dict__`` keys).
_SIZE = "_size"
_DIGEST = "_digest"
_WIDTH_DIGEST = "_width_digest"


def _form(node) -> tuple:
    """The XML form of an expression or a destination."""
    try:
        form = _FORMS[type(node)]
    except KeyError:
        raise ExpressionError(f"no XML form for {type(node).__name__}") from None
    return form(node)


def to_xml(expr: Expression) -> Element:
    """Serialize an expression into its XML-tree form."""
    return _build(_form(expr))


def _build(form: tuple) -> Element:
    tag, attrs, parts = form
    node = Element(tag, attrs)
    for part in parts:
        kind = type(part)
        if kind is str:
            node.append(Text(part))
        elif kind is Element:
            node.append(part.copy())
        else:
            node.append(_build(part if kind is tuple else _form(part)))
    return node


def expression_size(expr: Expression) -> int:
    """Bytes of the serialized expression — the code-shipping cost.

    ``len(serialize(to_xml(expr)).encode("utf-8"))``, without building
    the element; kept on ``expr`` once it is sealed, so an ``EvalAt``
    body shared by many candidates is sized once.
    """
    size = expr.__dict__.get(_SIZE)
    if size is None:
        size = _size(_form(expr))
        _digest(expr, _DIGEST)  # kept exactly when ``expr`` is sealed
        if _DIGEST in expr.__dict__:
            expr.__dict__[_SIZE] = size
    return size


def _size(form: tuple) -> int:
    """A form's own markup, sized on a childless element, plus its parts."""
    tag, attrs, parts = form
    size = Element(tag, attrs).serialized_size()
    if parts:
        size += len(tag) + 2  # <tag ...>...</tag> rather than <tag .../>
        for part in parts:
            kind = type(part)
            if kind is str:
                size += Text(part).serialized_size()
            elif kind is Element:
                size += part.serialized_size()
            elif kind is tuple:
                size += _size(part)
            else:
                size += expression_size(part)
    return size


def expression_fingerprint(expr: Expression, name_widths: bool = False) -> str:
    """Digest of the expression's XML form, without building or copying it.

    Two expressions fingerprint equal iff their :func:`to_xml` serializations
    are structurally equal — the canonical identity the plan cache keys on.
    A node hashes its form's tokens, then its parts' digests, a tree
    literal contributing its (cached) content fingerprint.  Kept once
    sealed, so the cost is one hash per node the expression does not
    share with one already fingerprinted: for a rewrite, the spine it
    rebuilt.

    ``name_widths`` reduces every query name to the number of bytes its
    ``name=`` attribute serializes to.  Evaluation sees a query's name
    only as that many bytes on the wire, so expressions that differ only
    in how their queries are *labelled*, at equal width, then share a
    digest (the prepared-plan key of :mod:`repro.core.planspace`).  The
    two spellings are kept apart on the node.
    """
    return _digest(expr, _WIDTH_DIGEST if name_widths else _DIGEST)


def _digest(expr: Expression, slot: str) -> str:
    """The digest kept under ``slot``, computed (and kept, once sealed)."""
    known = expr.__dict__.get(slot)
    if known is not None:
        return known
    data, sealed = _tokens(_form(expr), slot)
    digest = blake2b(data.encode("utf-8"), digest_size=12).hexdigest()
    if sealed:
        expr.__dict__[slot] = digest
    return digest


def _tokens(form: tuple, slot: str) -> tuple:
    """The text a form hashes to, and whether every part of it is sealed.

    The tag, then ``\\0a`` + name + ``\\0`` + value per attribute,
    ``\\0t`` + text, ``\\0c`` + digest per literal or sub-expression, and
    a nested form's own text between ``\\0(`` and ``\\0)``: every token is
    marked, so equal text means equal forms.
    """
    tag, attrs, parts = form
    if slot is _WIDTH_DIGEST and tag == "x-query" and "name" in attrs:
        width = len(escape_attr(attrs["name"]).encode("utf-8"))
        attrs = {**attrs, "name": str(width)}
    data = tag
    for name, value in attrs.items():
        data += "\x00a" + name + "\x00" + value
    sealed = True
    for part in parts:
        kind = type(part)
        if kind is str:
            data += "\x00t" + part
        elif kind is Element:
            data += "\x00c" + part.content_fingerprint()
            sealed = sealed and part.frozen
        elif kind is tuple:
            inner, inner_sealed = _tokens(part, slot)
            data += "\x00(" + inner + "\x00)"
            sealed = sealed and inner_sealed
        else:
            data += "\x00c" + _digest(part, slot)
            sealed = sealed and slot in part.__dict__
    return data, sealed
