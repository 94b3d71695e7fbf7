"""Unit tests for the XQuery parser and unparser."""

import pytest

from repro.errors import XQuerySyntaxError
from repro.xquery import parse_expression, parse_query, unparse
from repro.xquery.parser import MAX_NESTING
from repro.xquery.ast import (
    BinaryOp,
    ComparisonOp,
    ComputedElement,
    ContextItem,
    DirectElement,
    FilterExpr,
    FLWORExpr,
    ForClause,
    FunctionCall,
    IfExpr,
    KindTest,
    LetClause,
    Literal,
    Module,
    NameTest,
    PathExpr,
    QuantifiedExpr,
    RangeExpr,
    Sequence,
    Step,
    UnaryOp,
    VarRef,
)


class TestPrimaries:
    def test_literals(self):
        assert parse_expression("42") == Literal(42)
        assert parse_expression("3.5") == Literal(3.5)
        assert parse_expression('"hi"') == Literal("hi")

    def test_variable(self):
        assert parse_expression("$v") == VarRef("v")

    def test_context_item(self):
        assert parse_expression(".") == ContextItem()

    def test_empty_sequence(self):
        assert parse_expression("()") == Sequence(())

    def test_comma_sequence(self):
        expr = parse_expression("1, 2, 3")
        assert isinstance(expr, Sequence) and len(expr.items) == 3

    def test_parenthesized_keeps_inner(self):
        assert parse_expression("(1)") == Literal(1)

    def test_function_call(self):
        expr = parse_expression("concat($a, 'x')")
        assert expr == FunctionCall("concat", (VarRef("a"), Literal("x")))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("1 1")


class TestOperators:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expression("10 - 4 - 3")
        assert expr.op == "-" and isinstance(expr.left, BinaryOp)

    def test_comparison_binds_looser_than_arith(self):
        expr = parse_expression("1 + 1 = 2")
        assert isinstance(expr, ComparisonOp) and expr.op == "="

    def test_and_or_precedence(self):
        expr = parse_expression("1 or 2 and 3")
        assert expr.op == "or"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "and"

    def test_value_comparisons(self):
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            expr = parse_expression(f"1 {op} 2")
            assert isinstance(expr, ComparisonOp) and expr.op == op

    def test_node_comparisons(self):
        assert parse_expression("$a is $b").op == "is"
        assert parse_expression("$a << $b").op == "<<"

    def test_range(self):
        assert parse_expression("1 to 5") == RangeExpr(Literal(1), Literal(5))

    def test_unary_minus(self):
        expr = parse_expression("-3")
        assert isinstance(expr, UnaryOp) and expr.op == "-"

    def test_union_and_intersect(self):
        expr = parse_expression("$a union $b")
        assert expr.op == "union"
        assert parse_expression("$a | $b").op == "union"
        assert parse_expression("$a intersect $b").op == "intersect"
        assert parse_expression("$a except $b").op == "except"

    def test_div_mod_idiv(self):
        for op in ("div", "idiv", "mod"):
            assert parse_expression(f"6 {op} 4").op == op

    def test_star_is_multiplication_after_operand(self):
        expr = parse_expression("$a * 2")
        assert isinstance(expr, BinaryOp) and expr.op == "*"


class TestPaths:
    def test_child_step(self):
        expr = parse_expression("a")
        assert expr == PathExpr(None, (Step("child", NameTest("a")),))

    def test_multi_step(self):
        expr = parse_expression("a/b/c")
        assert len(expr.steps) == 3

    def test_descendant_shortcut(self):
        expr = parse_expression("a//b")
        assert expr.steps[1].axis == "descendant-or-self"

    def test_rooted_path(self):
        expr = parse_expression("/a/b")
        assert expr.from_root and len(expr.steps) == 2

    def test_double_slash_root(self):
        expr = parse_expression("//a")
        assert expr.from_root
        assert expr.steps[0].axis == "descendant-or-self"

    def test_attribute_abbreviation(self):
        expr = parse_expression("@id")
        assert expr.steps[0].axis == "attribute"

    def test_parent_abbreviation(self):
        expr = parse_expression("..")
        assert expr.steps[0].axis == "parent"

    def test_wildcard(self):
        expr = parse_expression("*")
        assert expr.steps[0].test == NameTest("*")

    def test_explicit_axes(self):
        for axis in (
            "child", "descendant", "self", "descendant-or-self", "parent",
            "ancestor", "ancestor-or-self", "attribute",
            "following-sibling", "preceding-sibling",
        ):
            expr = parse_expression(f"{axis}::x" if axis != "attribute" else "attribute::x")
            assert expr.steps[0].axis == axis

    def test_kind_tests(self):
        assert parse_expression("text()").steps[0].test == KindTest("text")
        assert parse_expression("node()").steps[0].test == KindTest("node")
        assert parse_expression("element(a)").steps[0].test == KindTest("element", "a")

    def test_predicates_on_steps(self):
        expr = parse_expression("a[1][@x]")
        assert len(expr.steps[0].predicates) == 2

    def test_path_from_primary(self):
        expr = parse_expression("$d/a/b")
        assert expr.start == VarRef("d") and len(expr.steps) == 2

    def test_filter_on_primary(self):
        expr = parse_expression("$s[2]")
        assert isinstance(expr, FilterExpr)

    def test_function_call_as_path_segment(self):
        expr = parse_expression("a/string()")
        assert isinstance(expr.steps[1], FunctionCall)

    def test_keyword_names_usable_as_steps(self):
        # XQuery keywords are not reserved
        expr = parse_expression("return/where/for")
        assert [s.test.name for s in expr.steps] == ["return", "where", "for"]


class TestFLWOR:
    def test_basic_for(self):
        expr = parse_expression("for $x in (1,2) return $x")
        assert isinstance(expr, FLWORExpr)
        assert isinstance(expr.clauses[0], ForClause)

    def test_for_with_at(self):
        expr = parse_expression("for $x at $i in (1,2) return $i")
        assert expr.clauses[0].position_variable == "i"

    def test_multiple_for_bindings(self):
        expr = parse_expression("for $x in (1), $y in (2) return $x + $y")
        assert len(expr.clauses) == 2

    def test_let(self):
        expr = parse_expression("let $x := 1 return $x")
        assert isinstance(expr.clauses[0], LetClause)

    def test_interleaved_for_let(self):
        expr = parse_expression(
            "for $x in (1,2) let $y := $x + 1 for $z in (3) return $y"
        )
        kinds = [type(c).__name__ for c in expr.clauses]
        assert kinds == ["ForClause", "LetClause", "ForClause"]

    def test_where(self):
        expr = parse_expression("for $x in (1,2) where $x > 1 return $x")
        assert expr.where is not None

    def test_order_by_multiple_keys(self):
        expr = parse_expression(
            "for $x in (1,2) order by $x descending, $x ascending return $x"
        )
        assert len(expr.order_by) == 2
        assert expr.order_by[0].descending and not expr.order_by[1].descending

    def test_missing_return_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("for $x in (1,2)")


class TestConditionalsAndQuantifiers:
    def test_if(self):
        expr = parse_expression("if (1) then 2 else 3")
        assert isinstance(expr, IfExpr)

    def test_if_requires_else(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("if (1) then 2")

    def test_some(self):
        expr = parse_expression("some $x in (1,2) satisfies $x = 2")
        assert isinstance(expr, QuantifiedExpr) and expr.quantifier == "some"

    def test_every_multi_binding(self):
        expr = parse_expression(
            "every $x in (1), $y in (2) satisfies $x < $y"
        )
        assert len(expr.bindings) == 2


class TestConstructors:
    def test_direct_empty(self):
        expr = parse_expression("<a/>")
        assert expr == DirectElement("a", (), ())

    def test_direct_with_text(self):
        expr = parse_expression("<a>hello</a>")
        assert expr.content == ("hello",)

    def test_direct_nested(self):
        expr = parse_expression("<a><b/></a>")
        assert isinstance(expr.content[0], DirectElement)

    def test_direct_enclosed_expr(self):
        expr = parse_expression("<a>{1 + 1}</a>")
        assert len(expr.content) == 1

    def test_direct_attribute_template(self):
        expr = parse_expression('<a x="v{$y}w"/>')
        attr = expr.attributes[0]
        assert attr.name == "x" and len(attr.value_parts) == 3

    def test_direct_brace_escapes(self):
        expr = parse_expression("<a>{{literal}}</a>")
        assert expr.content == ("{literal}",)

    def test_direct_entity(self):
        expr = parse_expression("<a>&lt;</a>")
        assert expr.content == ("<",)

    def test_mismatched_close_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expression("<a></b>")

    # constructor names are XML Names: no leading digit, "-" or "."
    @pytest.mark.parametrize("source", ["<1a/>", "<-a/>", "<.a/>", '<a 1b="x"/>', "<a></1a>"])
    def test_direct_name_must_be_a_name(self, source):
        with pytest.raises(XQuerySyntaxError):
            parse_expression(source)

    def test_direct_attribute_references_decoded(self):
        expr = parse_expression('<a b="x&amp;y&quot;{1}&#65;"/>')
        parts = expr.attributes[0].value_parts
        assert parts[0] == 'x&y"' and parts[2] == "A"

    # XQuery 1.0 §3.7.1.1 EscapeQuot / EscapeApos: the delimiting quote,
    # doubled, is one quote; the other quote is an ordinary character
    @pytest.mark.parametrize("source, value", [
        ('<a b="x""y"/>', 'x"y'), ("<a b='x''y'/>", "x'y"),
        ('<a b=""""/>', '"'), ("<a b=\"x''y\"/>", "x''y"),
        ('<a b="{1}""{2}"/>', None),
    ])
    def test_direct_attribute_doubled_quote(self, source, value):
        parts = parse_expression(source).attributes[0].value_parts
        if value is None:
            assert len(parts) == 3 and parts[1] == '"'
        else:
            assert parts == (value,)

    @pytest.mark.parametrize("source", ["<a>&#xZZ;</a>", "<a>&#99999999;</a>", '<a b="&#;"/>'])
    def test_bad_character_reference_rejected(self, source):
        with pytest.raises(XQuerySyntaxError) as exc:
            parse_expression(source)
        assert exc.value.column == source.index("&") + 1

    def test_computed_element_literal_name(self):
        expr = parse_expression("element foo { 1 }")
        assert isinstance(expr, ComputedElement) and expr.name == "foo"

    def test_computed_element_dynamic_name(self):
        expr = parse_expression('element {concat("a","b")} { 1 }')
        assert not isinstance(expr.name, str)

    def test_computed_text(self):
        parse_expression('text { "x" }')

    def test_computed_attribute(self):
        parse_expression('attribute id { "1" }')

    def test_parsing_continues_after_constructor(self):
        expr = parse_expression("(<a/>, <b/>)")
        assert isinstance(expr, Sequence) and len(expr.items) == 2


class TestProlog:
    def test_external_variable(self):
        module = parse_query("declare variable $in external; $in")
        assert module.variables[0].name == "in"
        assert module.variables[0].value is None

    def test_bound_variable(self):
        module = parse_query("declare variable $x := 1 + 1; $x")
        assert module.variables[0].value is not None

    def test_function_declaration(self):
        module = parse_query(
            "declare function local:add($a, $b) { $a + $b }; local:add(1, 2)"
        )
        assert module.functions[0].params == ("a", "b")

    def test_multiple_declarations(self):
        module = parse_query(
            "declare variable $a external;\n"
            "declare variable $b external;\n"
            "declare function local:id($x) { $x };\n"
            "local:id(($a, $b))"
        )
        assert len(module.variables) == 2 and len(module.functions) == 1


def _nested(levels):
    """``1`` inside ``levels`` expressions: the outermost and its parentheses."""
    return "(" * (levels - 1) + "1" + ")" * (levels - 1)


class TestNesting:
    def test_at_the_limit_parses(self):
        assert parse_query(_nested(MAX_NESTING)).body == Literal(1)

    @pytest.mark.parametrize("levels", (MAX_NESTING + 1, 66, 1000))
    def test_past_the_limit_is_a_syntax_error(self, levels):
        with pytest.raises(XQuerySyntaxError, match=f"deeper than the limit of {MAX_NESTING} levels"):
            parse_query(_nested(levels))

    def test_constructors_and_enclosed_expressions_count(self):
        # each <a>{ opens an element and an expression; the body is one more
        half = MAX_NESTING // 2
        fits = "<a>{" * (half - 1) + "<a/>" + "}</a>" * (half - 1)
        assert isinstance(parse_query(fits).body, DirectElement)
        with pytest.raises(XQuerySyntaxError, match="deeper than the limit"):
            parse_query("<a>{" * half + "<a/>" + "}</a>" * half)
        with pytest.raises(XQuerySyntaxError, match="deeper than the limit"):
            parse_query("<a>" * MAX_NESTING + "</a>" * MAX_NESTING)

    @staticmethod
    def _parses_inside_a_plan_search(monkeypatch, frames):
        """What a parse at the limit and one past it give, run ``frames``
        more frames down the stack each time rule (11) decomposes inside
        an exhaustive search."""
        import repro
        import repro.core.rules as rules
        from repro.workloads import ScenarioGenerator, ScenarioSpec

        outcomes = []

        def descend(frames):
            if frames:
                return descend(frames - 1)
            parse_query(_nested(MAX_NESTING))
            try:
                parse_query(_nested(MAX_NESTING + 1))
            except XQuerySyntaxError as error:
                return error
            return None

        def push_selection(query, *args):
            outcomes.append(descend(frames))
            return split(query, *args)

        split = rules.push_selection
        monkeypatch.setattr(rules, "push_selection", push_selection)
        scenario = ScenarioGenerator(7, ScenarioSpec()).scenario(0)
        query = next(q for q in scenario.queries if q.shape == "filter")
        repro.connect(scenario.system, strategy="exhaustive").query(**query.kwargs())
        return outcomes

    def test_the_limit_holds_deep_inside_a_plan_search(self, monkeypatch):
        """Rule (11) decomposes inside the search; a parse there, with 400
        more frames on the stack, still parses at the limit and still
        reports a typed error past it."""
        outcomes = self._parses_inside_a_plan_search(monkeypatch, 400)
        assert outcomes and all(isinstance(error, XQuerySyntaxError) for error in outcomes)

    def test_the_limit_holds_600_frames_deep_inside_a_plan_search(self, monkeypatch):
        """A parse at the limit takes about 200 frames (it took over 500
        when the parser had a function per precedence level), so it fits
        600 frames down as well."""
        outcomes = self._parses_inside_a_plan_search(monkeypatch, 600)
        assert outcomes and all(isinstance(error, XQuerySyntaxError) for error in outcomes)


class TestUnparseRoundTrip:
    CASES = [
        "1 + 2 * 3",
        '"string with ""quotes"""',
        "for $x at $i in $d//item where $x/p > 3 order by $x/n descending return <r>{$x}</r>",
        "let $y := (1, 2) return count($y)",
        "if ($a) then $b else ($c, $d)",
        "some $x in (1 to 9) satisfies $x mod 2 = 0",
        "//a/b[@id = '1']/text()",
        "$d/child::a/descendant::b/@x",
        "element foo { attribute bar { 1 }, text { 'z' } }",
        "(1, 2)[2]",
        "$a union $b intersect $c",
        "-(1 + 2)",
        "a/(b | c)/d",
        "declare variable $v external; declare function local:f($x) { $x * 2 }; local:f($v)",
        '"a&amp;b"',
        '<a b="x&amp;y&quot;{1}&#65;"/>',
        "<a>&lt;&amp;{{}}&#x41;</a>",
        '<a b="x""y" c=\'x\'\'y\'/>',
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_round_trip(self, source):
        first = parse_query(source)
        second = parse_query(unparse(first))
        assert first == second
