"""Abstract syntax tree for the XQuery subset.

Nodes are small frozen dataclasses; the evaluator compiles them to closures.
``unparse(node)`` turns an AST back into source text — this is how queries
travel between peers (code shipping, rule (10)) and how the decomposer
(rule (11)) emits the inner/outer query pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..xmlcore.serializer import escape_attr, escape_text

__all__ = [
    "XQNode", "Literal", "VarRef", "ContextItem", "Sequence", "IfExpr",
    "QuantifiedExpr", "ForClause", "LetClause", "OrderSpec", "FLWORExpr",
    "BinaryOp", "UnaryOp", "ComparisonOp", "RangeExpr", "PathExpr",
    "FilterExpr", "Step",
    "NodeTest", "NameTest", "KindTest", "Predicate", "FunctionCall",
    "DirectElement", "DirectAttribute", "ComputedElement", "ComputedAttribute",
    "ComputedText", "EnclosedExpr", "VarDecl", "FunctionDecl", "Module",
    "unparse",
]


class XQNode:
    """Base class for all AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Primary expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal(XQNode):
    """String / integer / decimal literal; ``value`` is the Python value."""

    value: Union[str, int, float]


@dataclass(frozen=True)
class VarRef(XQNode):
    name: str


@dataclass(frozen=True)
class ContextItem(XQNode):
    """The '.' expression."""


@dataclass(frozen=True)
class Sequence(XQNode):
    """Comma operator: concatenation of item sequences."""

    items: Tuple[XQNode, ...]


@dataclass(frozen=True)
class IfExpr(XQNode):
    condition: XQNode
    then_branch: XQNode
    else_branch: XQNode


@dataclass(frozen=True)
class QuantifiedExpr(XQNode):
    """``some/every $v in e (, ...) satisfies cond``."""

    quantifier: str  # "some" | "every"
    bindings: Tuple[Tuple[str, XQNode], ...]
    condition: XQNode


# ---------------------------------------------------------------------------
# FLWOR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForClause(XQNode):
    variable: str
    source: XQNode
    position_variable: Optional[str] = None  # "at $i"


@dataclass(frozen=True)
class LetClause(XQNode):
    variable: str
    value: XQNode


@dataclass(frozen=True)
class OrderSpec(XQNode):
    key: XQNode
    descending: bool = False
    empty_least: bool = True


@dataclass(frozen=True)
class FLWORExpr(XQNode):
    clauses: Tuple[Union[ForClause, LetClause], ...]
    where: Optional[XQNode]
    order_by: Tuple[OrderSpec, ...]
    return_expr: XQNode


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryOp(XQNode):
    """Arithmetic / logical / set operators.

    ``op`` in { +, -, *, div, idiv, mod, and, or, union, intersect, except }.
    """

    op: str
    left: XQNode
    right: XQNode


@dataclass(frozen=True)
class UnaryOp(XQNode):
    op: str  # "-" | "+"
    operand: XQNode


@dataclass(frozen=True)
class ComparisonOp(XQNode):
    """General (=, !=, <, <=, >, >=), value (eq..ge) and node (is, <<, >>)."""

    op: str
    left: XQNode
    right: XQNode


@dataclass(frozen=True)
class RangeExpr(XQNode):
    """``a to b`` integer range."""

    start: XQNode
    end: XQNode


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

class NodeTest(XQNode):
    __slots__ = ()


@dataclass(frozen=True)
class NameTest(NodeTest):
    """Element/attribute name test; ``name == '*'`` is the wildcard."""

    name: str


@dataclass(frozen=True)
class KindTest(NodeTest):
    """``text()``, ``node()`` or ``element()`` (optionally ``element(nm)``)."""

    kind: str  # "text" | "node" | "element"
    name: Optional[str] = None


@dataclass(frozen=True)
class Predicate(XQNode):
    expr: XQNode


@dataclass(frozen=True)
class Step(XQNode):
    axis: str  # child, descendant, self, descendant-or-self, parent,
    #            ancestor, attribute, following-sibling, preceding-sibling
    test: NodeTest
    predicates: Tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class PathExpr(XQNode):
    """A path: optional initial expression, then steps.

    ``from_root`` marks a leading '/'; when ``start`` is None the path
    begins at the context item (or document root when ``from_root``).
    """

    start: Optional[XQNode]
    steps: Tuple[Step, ...]
    from_root: bool = False


@dataclass(frozen=True)
class FilterExpr(XQNode):
    """Postfix predicates on a primary expression, e.g. ``$seq[2]``.

    Unlike a :class:`Step` predicate, the position here ranges over the
    *whole base sequence*, not per-context-node axis candidates.
    """

    base: XQNode
    predicates: Tuple[Predicate, ...]


# ---------------------------------------------------------------------------
# Functions and constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionCall(XQNode):
    name: str
    args: Tuple[XQNode, ...]


@dataclass(frozen=True)
class EnclosedExpr(XQNode):
    """``{ expr }`` inside a direct constructor."""

    expr: XQNode


@dataclass(frozen=True)
class DirectAttribute(XQNode):
    """Attribute in a direct constructor; value alternates str / XQNode."""

    name: str
    value_parts: Tuple[Union[str, XQNode], ...]


@dataclass(frozen=True)
class DirectElement(XQNode):
    """``<tag attr="v">content</tag>`` with embedded ``{expr}`` parts."""

    tag: str
    attributes: Tuple[DirectAttribute, ...]
    content: Tuple[Union[str, XQNode], ...]


@dataclass(frozen=True)
class ComputedElement(XQNode):
    """``element {nameExpr} {contentExpr}`` or ``element name {content}``."""

    name: Union[str, XQNode]
    content: Optional[XQNode]


@dataclass(frozen=True)
class ComputedAttribute(XQNode):
    name: Union[str, XQNode]
    content: Optional[XQNode]


@dataclass(frozen=True)
class ComputedText(XQNode):
    content: Optional[XQNode]


# ---------------------------------------------------------------------------
# Prolog / module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarDecl(XQNode):
    """``declare variable $n external;`` or ``... := expr;``"""

    name: str
    value: Optional[XQNode]  # None => external (bound by the caller)


@dataclass(frozen=True)
class FunctionDecl(XQNode):
    """``declare function local:f($a, $b) { body };``"""

    name: str
    params: Tuple[str, ...]
    body: XQNode


@dataclass(frozen=True)
class Module(XQNode):
    """A full query: prolog declarations plus the body expression."""

    variables: Tuple[VarDecl, ...]
    functions: Tuple[FunctionDecl, ...]
    body: XQNode
    #: The module compiled to closures: set by the evaluator on the first
    #: run, for the module's life.  Not part of the query — equality,
    #: ``repr`` and :func:`unparse` ignore it.
    plan: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The literal ``doc()`` names the module reads, in walk order: set on
    #: first use by :func:`repro.peers.service._doc_references`, for the
    #: module's life, and ignored like :attr:`plan`.
    doc_names: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

def _unparse_string(value: str) -> str:
    return '"' + value.replace("&", "&amp;").replace('"', '""') + '"'


def _paren(node: XQNode) -> str:
    """Wrap sub-expressions whose precedence could bind wrongly."""
    text = unparse(node)
    if isinstance(
        node,
        (Literal, VarRef, ContextItem, FunctionCall, PathExpr,
         DirectElement, ComputedElement),
    ):
        return text
    return f"({text})"


def unparse(node: XQNode) -> str:
    """Render an AST node back to XQuery source.

    The output re-parses to an equal AST (tested property); it is used to
    ship queries between peers as text.
    """
    if isinstance(node, Module):
        parts = []
        for var in node.variables:
            if var.value is None:
                parts.append(f"declare variable ${var.name} external;")
            else:
                parts.append(
                    f"declare variable ${var.name} := {unparse(var.value)};"
                )
        for fn in node.functions:
            params = ", ".join(f"${p}" for p in fn.params)
            parts.append(
                f"declare function {fn.name}({params}) {{ {unparse(fn.body)} }};"
            )
        parts.append(unparse(node.body))
        return "\n".join(parts)

    if isinstance(node, Literal):
        if isinstance(node.value, str):
            return _unparse_string(node.value)
        return repr(node.value)
    if isinstance(node, VarRef):
        return f"${node.name}"
    if isinstance(node, ContextItem):
        return "."
    if isinstance(node, Sequence):
        return "(" + ", ".join(unparse(i) for i in node.items) + ")"
    if isinstance(node, IfExpr):
        return (
            f"if ({unparse(node.condition)}) then {_paren(node.then_branch)} "
            f"else {_paren(node.else_branch)}"
        )
    if isinstance(node, QuantifiedExpr):
        bindings = ", ".join(
            f"${name} in {_paren(src)}" for name, src in node.bindings
        )
        return (
            f"{node.quantifier} {bindings} satisfies {_paren(node.condition)}"
        )
    if isinstance(node, FLWORExpr):
        parts = []
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                at = f" at ${clause.position_variable}" if clause.position_variable else ""
                parts.append(f"for ${clause.variable}{at} in {_paren(clause.source)}")
            else:
                parts.append(f"let ${clause.variable} := {_paren(clause.value)}")
        if node.where is not None:
            parts.append(f"where {_paren(node.where)}")
        if node.order_by:
            keys = ", ".join(
                unparse(spec.key) + (" descending" if spec.descending else "")
                for spec in node.order_by
            )
            parts.append(f"order by {keys}")
        parts.append(f"return {_paren(node.return_expr)}")
        return " ".join(parts)
    if isinstance(node, BinaryOp):
        return f"{_paren(node.left)} {node.op} {_paren(node.right)}"
    if isinstance(node, UnaryOp):
        return f"{node.op}{_paren(node.operand)}"
    if isinstance(node, ComparisonOp):
        return f"{_paren(node.left)} {node.op} {_paren(node.right)}"
    if isinstance(node, RangeExpr):
        return f"{_paren(node.start)} to {_paren(node.end)}"
    if isinstance(node, PathExpr):
        return _unparse_path(node)
    if isinstance(node, FilterExpr):
        preds = "".join(f"[{unparse(p.expr)}]" for p in node.predicates)
        return _paren(node.base) + preds
    if isinstance(node, FunctionCall):
        return f"{node.name}({', '.join(unparse(a) for a in node.args)})"
    if isinstance(node, EnclosedExpr):
        return "{" + unparse(node.expr) + "}"
    if isinstance(node, DirectElement):
        return _unparse_direct(node)
    if isinstance(node, ComputedElement):
        name = node.name if isinstance(node.name, str) else "{" + unparse(node.name) + "}"
        content = unparse(node.content) if node.content is not None else ""
        return f"element {name} {{ {content} }}"
    if isinstance(node, ComputedAttribute):
        name = node.name if isinstance(node.name, str) else "{" + unparse(node.name) + "}"
        content = unparse(node.content) if node.content is not None else ""
        return f"attribute {name} {{ {content} }}"
    if isinstance(node, ComputedText):
        content = unparse(node.content) if node.content is not None else ""
        return f"text {{ {content} }}"
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _escape_braces(value: str) -> str:
    return value.replace("{", "{{").replace("}", "}}")


def _unparse_direct(node: DirectElement) -> str:
    attrs = []
    for attribute in node.attributes:
        rendered = []
        for part in attribute.value_parts:
            if isinstance(part, str):
                rendered.append(_escape_braces(escape_attr(part)))
            else:
                rendered.append(unparse(part))
        attrs.append(f' {attribute.name}="{"".join(rendered)}"')
    head = node.tag + "".join(attrs)
    if not node.content:
        return f"<{head}/>"
    body = []
    for part in node.content:
        if isinstance(part, str):
            body.append(_escape_braces(escape_text(part)))
        else:
            body.append(unparse(part))
    return f"<{head}>{''.join(body)}</{node.tag}>"


def _unparse_test(test: NodeTest) -> str:
    if isinstance(test, NameTest):
        return test.name
    assert isinstance(test, KindTest)
    inner = test.name or ""
    return f"{test.kind}({inner})"


_FORWARD_ABBREV = {"child", "attribute"}


def _unparse_step(step: Step) -> str:
    preds = "".join(f"[{unparse(p.expr)}]" for p in step.predicates)
    if step.axis == "child":
        return _unparse_test(step.test) + preds
    if step.axis == "attribute" and isinstance(step.test, NameTest):
        return "@" + step.test.name + preds
    if step.axis == "parent" and isinstance(step.test, KindTest) and step.test.kind == "node":
        return ".." + preds
    if step.axis == "self" and isinstance(step.test, KindTest) and step.test.kind == "node":
        return "." + preds
    return f"{step.axis}::{_unparse_test(step.test)}" + preds


def _unparse_path(path: PathExpr) -> str:
    parts: List[str] = []
    if path.start is not None:
        parts.append(_paren(path.start))
    prefix = "/" if path.from_root else ""
    rendered: List[str] = []
    for step in path.steps:
        if not isinstance(step, Step):
            rendered.append(_paren(step))  # expression segment
        # descendant-or-self::node() between steps renders as '//'
        elif (
            step.axis == "descendant-or-self"
            and isinstance(step.test, KindTest)
            and step.test.kind == "node"
            and not step.predicates
        ):
            rendered.append("")  # placeholder: join produces '//'
        else:
            rendered.append(_unparse_step(step))
    body = "/".join(rendered)
    if path.start is not None and body:
        return parts[0] + "/" + body
    if path.start is not None:
        return parts[0]
    return prefix + body if body else prefix
