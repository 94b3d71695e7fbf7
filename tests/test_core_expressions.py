"""Unit tests for the expression language E and its XML serialization."""

from dataclasses import fields, is_dataclass, replace

import pytest

from repro.core import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
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
    expression_fingerprint,
    expression_size,
    to_xml,
    transform,
    walk,
)
from repro.core.expressions import Destination, FragmentedDoc, Gather
from repro.errors import ExpressionError
from repro.xmlcore import Element, NodeId, element, parse, serialize
from repro.xquery import Query


#: What an empty tuple field grows by, per field name (else an expression).
_EXTRA = {"via": "p7", "forwards": NodeId("p7", 3), "nodes": NodeId("p7", 3)}


def _changes(name, value):
    """``(label, value)`` pairs, each ``value`` with one visible difference."""
    if isinstance(value, str):
        yield "renamed", value + "x"
    elif isinstance(value, tuple):
        if len(value) > 1:
            yield "reordered", value[::-1]
        if value:
            yield "shortened", value[:-1]
        yield "extended", value + (_EXTRA.get(name, DocExpr("extra", "p7")),)
    elif isinstance(value, Query):
        yield "query name", Query(value.source, params=value.params, name=(value.name or "") + "x")
        yield "query params", Query(value.source, params=value.params + ("z",), name=value.name)
        yield "query source", Query(f"({value.source})", params=value.params, name=value.name)
    elif isinstance(value, Element):
        edited = value.copy()
        edited.append(element("z"))
        yield "tree", edited
    elif isinstance(value, Destination):
        peer = getattr(value, "peer", "p2")
        for other in (PeerDest(peer), DocDest("copy", peer), NodesDest((NodeId(peer, 1),))):
            if type(other) is not type(value):
                yield f"kind {type(other).__name__}", other
        yield from one_field_changes(value)
    else:
        yield from one_field_changes(value)


def one_field_changes(expr):
    """Copies of ``expr`` (or a destination) with exactly one field changed."""
    for f in fields(expr):
        for label, changed in _changes(f.name, getattr(expr, f.name)):
            yield f"{type(expr).__name__}.{f.name} {label}", replace(expr, **{f.name: changed})


def rebuild(value):
    """A fresh, equal copy of an expression, built field by field."""
    if isinstance(value, tuple):
        return tuple(rebuild(part) for part in value)
    if isinstance(value, Query):
        return Query(value.source, params=value.params, name=value.name)
    if isinstance(value, Element):
        return value.copy()
    if is_dataclass(value):
        return type(value)(**{f.name: rebuild(getattr(value, f.name)) for f in fields(value)})
    return value


def q(name="q"):
    return QueryRef(Query("count($d)", params=("d",), name=name), "p0")


class TestConstruction:
    def test_doc_expr(self):
        expr = DocExpr("d", "p1")
        assert expr.describe() == "d@p1"

    def test_generic_doc(self):
        assert GenericDoc("cat").describe() == "cat@any"

    def test_query_apply_children(self):
        expr = QueryApply(q(), (DocExpr("d", "p1"),))
        assert expr.children() == (DocExpr("d", "p1"),)

    def test_with_children_rebuilds(self):
        expr = QueryApply(q(), (DocExpr("d", "p1"),))
        rebuilt = expr.with_children((DocExpr("d2", "p2"),))
        assert rebuilt.args[0] == DocExpr("d2", "p2")
        assert rebuilt.query == expr.query

    def test_leaf_with_children_rejects(self):
        with pytest.raises(ExpressionError):
            DocExpr("d", "p1").with_children((DocExpr("x", "p"),))

    def test_seq_requires_steps(self):
        with pytest.raises(ExpressionError):
            Seq(())

    def test_tree_expr_structural_equality(self):
        # equality (and hashing) is by content, not object identity: the
        # same serialized tree parsed twice is the same literal
        tree = parse("<a><b>x</b></a>")
        assert TreeExpr(tree, "p") == TreeExpr(tree, "p")
        assert TreeExpr(tree, "p") == TreeExpr(parse("<a><b>x</b></a>"), "p")
        assert TreeExpr(tree, "p") != TreeExpr(parse("<a><b>y</b></a>"), "p")
        assert TreeExpr(tree, "p") != TreeExpr(tree, "p2")

    def test_tree_expr_hash_structural_across_copies(self):
        # regression: __hash__ used to key on id(self.tree), so equal
        # literals on opposite sides of a deep copy (e.g. an
        # AXMLSystem.clone()) landed in different dict/set buckets
        tree = parse("<a><b>x</b></a>")
        original = TreeExpr(tree, "p")
        copied = TreeExpr(tree.copy(), "p")
        assert original == copied
        assert hash(original) == hash(copied)
        assert len({original, copied}) == 1

    def test_query_ref_equality_by_source(self):
        a = QueryRef(Query("1 + 1"), "p")
        b = QueryRef(Query("1 + 1"), "p")
        assert a == b

    def test_describe_nested(self):
        expr = EvalAt("p2", Send(PeerDest("p1"), DocExpr("d", "p2")))
        text = expr.describe()
        assert "eval@p2" in text and "send(p1" in text


class TestTraversal:
    def test_walk_preorder(self):
        expr = Seq((DocExpr("a", "p"), EvalAt("p2", DocExpr("b", "p"))))
        kinds = [type(e).__name__ for e in walk(expr)]
        assert kinds == ["Seq", "DocExpr", "EvalAt", "DocExpr"]

    def test_transform_replaces(self):
        expr = QueryApply(q(), (DocExpr("old", "p1"), DocExpr("keep", "p2")))

        def rename(node):
            if isinstance(node, DocExpr) and node.name == "old":
                return DocExpr("new", node.home)
            return None

        result = transform(expr, rename)
        assert result.args[0].name == "new"
        assert result.args[1].name == "keep"

    def test_transform_identity_preserves_nodes(self):
        expr = QueryApply(q(), (DocExpr("d", "p1"),))
        assert transform(expr, lambda n: None) is expr


class TestXMLSerialization:
    CASES = [
        DocExpr("d", "p1"),
        GenericDoc("mirror"),
        GenericService("svc"),
        QueryApply(
            QueryRef(Query("count($d)", params=("d",), name="cnt"), "p0"),
            (DocExpr("d", "p1"), GenericDoc("m")),
        ),
        ServiceCallExpr(
            "p1", "svc",
            (DocExpr("d", "p2"),),
            (NodeId("p3", 7), NodeId("p4", 9)),
        ),
        ServiceCallExpr(ANY, "generic-svc"),
        Send(PeerDest("p2"), DocExpr("d", "p1")),
        Send(DocDest("copy", "p2"), DocExpr("d", "p1"), via=("p3", "p4")),
        Send(
            NodesDest((NodeId("p2", 1), NodeId("p2", 2))),
            DocExpr("d", "p1"),
        ),
        EvalAt("p9", QueryApply(QueryRef(Query("1"), "p0"), ())),
        Seq((DocExpr("a", "p"), DocExpr("b", "p"))),
        TreeExpr(parse("<a><b>1</b></a>"), "p1"),
        Gather((FragmentedDoc("cat"), EvalAt("d0", DocExpr("cat.f0", "d0")))),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: type(e).__name__)
    def test_every_field_shows_in_the_text_and_the_fingerprint(self, expr):
        # to_xml loses no field: a copy with any one field changed writes
        # differently and keys differently
        text, key = serialize(to_xml(expr)), expression_fingerprint(expr)
        changes = list(one_field_changes(expr))
        assert changes
        for label, changed in changes:
            assert serialize(to_xml(changed)) != text, label
            assert expression_fingerprint(changed) != key, label

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: type(e).__name__)
    def test_an_equal_rebuild_writes_equal(self, expr):
        rebuilt = rebuild(expr)
        assert rebuilt == expr and rebuilt is not expr
        assert serialize(to_xml(rebuilt)) == serialize(to_xml(expr))
        assert expression_fingerprint(rebuilt) == expression_fingerprint(expr)

    def test_expression_size_positive_and_monotone(self):
        small = DocExpr("d", "p1")
        big = Seq((small, small, small))
        assert 0 < expression_size(small) < expression_size(big)
