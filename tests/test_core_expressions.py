"""Unit tests for the expression language E and its XML serialization."""

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
    expression_size,
    from_xml,
    to_xml,
    transform,
    walk,
)
from repro.errors import ExpressionError
from repro.xmlcore import NodeId, element, equivalent, parse, serialize
from repro.xquery import Query


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
    ]

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: type(e).__name__)
    def test_round_trip(self, expr):
        assert from_xml(to_xml(expr)) == expr

    def test_text_round_trip(self):
        expr = EvalAt("p2", Send(PeerDest("p1"), DocExpr("d", "p2")))
        assert from_xml(parse(serialize(to_xml(expr)))) == expr

    def test_tree_expr_round_trips_by_content(self):
        expr = TreeExpr(parse("<a><b>1</b></a>"), "p1")
        back = from_xml(parse(serialize(to_xml(expr))))
        assert isinstance(back, TreeExpr)
        assert back.home == "p1"
        assert equivalent(back.tree, expr.tree)

    def test_query_params_preserved(self):
        expr = QueryRef(Query("$a, $b", params=("a", "b")), "p")
        back = from_xml(to_xml(expr))
        assert back.query.params == ("a", "b")

    def test_expression_size_positive_and_monotone(self):
        small = DocExpr("d", "p1")
        big = Seq((small, small, small))
        assert 0 < expression_size(small) < expression_size(big)

    def test_unknown_element_rejected(self):
        with pytest.raises(ExpressionError):
            from_xml(element("x-mystery"))

    def test_malformed_send_rejected(self):
        bad = element("x-send")
        with pytest.raises(ExpressionError):
            from_xml(bad)
