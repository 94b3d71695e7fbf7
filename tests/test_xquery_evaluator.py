"""Unit tests for XQuery dynamic evaluation."""

import math

import pytest

from repro.errors import (
    XQueryEvaluationError,
    XQueryTypeError,
)
from repro.xmlcore import Element, parse, serialize
from repro.xquery import Query, evaluate_query
from repro.xquery.runtime import AttributeNode


@pytest.fixture()
def catalog():
    return parse(
        "<catalog>"
        + "".join(
            f"<item cat='{'a' if i % 2 else 'b'}'>"
            f"<name>n{i}</name><price>{i * 10}</price></item>"
            for i in range(1, 6)
        )
        + "</catalog>"
    )


def strings(result):
    out = []
    for item in result:
        if isinstance(item, Element):
            out.append(item.string_value())
        elif isinstance(item, AttributeNode):
            out.append(item.value)
        else:
            out.append(item)
    return out


class TestArithmetic:
    def test_integer_ops(self):
        assert evaluate_query("2 + 3 * 4") == [14]
        assert evaluate_query("10 - 2 - 3") == [5]
        assert evaluate_query("7 mod 3") == [1]
        assert evaluate_query("7 idiv 2") == [3]
        assert evaluate_query("-7 idiv 2") == [-3]

    def test_div_produces_decimal(self):
        assert evaluate_query("1 div 4") == [0.25]

    def test_division_by_zero(self):
        with pytest.raises(XQueryEvaluationError):
            evaluate_query("1 div 0")
        with pytest.raises(XQueryEvaluationError):
            evaluate_query("1 idiv 0")

    def test_unary(self):
        assert evaluate_query("-(2 + 3)") == [-5]
        assert evaluate_query("--5") == [5]

    def test_empty_operand_propagates(self):
        assert evaluate_query("() + 1") == []

    def test_untyped_data_coerces(self, catalog):
        result = evaluate_query(
            "(//price)[1] + 5", context_item=catalog
        )
        assert result == [15]

    def test_non_numeric_rejected(self):
        with pytest.raises(XQueryTypeError):
            evaluate_query("'abc' + 1")

    def test_multi_item_operand_rejected(self):
        with pytest.raises(XQueryTypeError):
            evaluate_query("(1, 2) + 1")


class TestComparisons:
    def test_general_existential(self):
        assert evaluate_query("(1, 2, 3) = 2") == [True]
        assert evaluate_query("(1, 2, 3) = 9") == [False]
        assert evaluate_query("(1, 2) != (1, 2)") == [True]  # existential!

    def test_value_comparison_singleton(self):
        assert evaluate_query("2 eq 2") == [True]
        with pytest.raises(XQueryTypeError):
            evaluate_query("(1, 2) eq 2")

    def test_value_comparison_empty_is_empty(self):
        assert evaluate_query("() eq 1") == []

    def test_string_comparison(self):
        assert evaluate_query("'abc' < 'abd'") == [True]

    def test_node_identity(self, catalog):
        assert evaluate_query(
            "(//item)[1] is (//item)[1]", context_item=catalog
        ) == [True]
        assert evaluate_query(
            "(//item)[1] is (//item)[2]", context_item=catalog
        ) == [False]

    def test_node_order_comparison(self, catalog):
        assert evaluate_query(
            "(//item)[1] << (//item)[2]", context_item=catalog
        ) == [True]

    @pytest.mark.parametrize("text,expected", [
        ("1_000", []), ("infinity", []), ("\uff11\uff12\uff13", []), ("NaN", []),
        (" 200 ", ["p"]), ("INF", ["p"]), ("1e3", ["p"]),
    ])
    def test_node_against_a_number_casts_as_xs_double(self, text, expected):
        d = parse(f"<d><p>{text}</p></d>")
        for query in ("$d/p > 100", "$d/p[true()] > 100", "for $x in $d return $x/p > 100"):
            assert evaluate_query(query, variables={"d": [d]}) == [bool(expected)]
        found = evaluate_query("for $x in $d where $x/p > 100 return $x/p", variables={"d": [d]})
        assert [item.tag for item in found] == expected

    def test_boolean_cross_type_rejected(self):
        with pytest.raises(XQueryTypeError):
            evaluate_query("true() eq 1")


class TestLogic:
    def test_and_or(self):
        assert evaluate_query("1 = 1 and 2 = 2") == [True]
        assert evaluate_query("1 = 2 or 2 = 2") == [True]

    def test_short_circuit_and(self):
        # right side would divide by zero; 'and' must not evaluate it
        assert evaluate_query("1 = 2 and 1 div 0") == [False]

    def test_ebv_of_node_sequence(self, catalog):
        assert evaluate_query("if (//item) then 1 else 2", context_item=catalog) == [1]

    def test_ebv_of_multi_atomic_raises(self):
        with pytest.raises(XQueryTypeError):
            evaluate_query("if ((1, 2)) then 1 else 2")


class TestPaths:
    def test_child_and_descendant(self, catalog):
        assert len(evaluate_query("/catalog/item", context_item=catalog)) == 5
        assert len(evaluate_query("//price", context_item=catalog)) == 5

    def test_attribute_axis(self, catalog):
        values = strings(evaluate_query("//item/@cat", context_item=catalog))
        assert values == ["a", "b", "a", "b", "a"]

    def test_predicate_positional(self, catalog):
        assert strings(
            evaluate_query("//item[2]/name", context_item=catalog)
        ) == ["n2"]

    def test_predicate_last(self, catalog):
        assert strings(
            evaluate_query("//item[last()]/name", context_item=catalog)
        ) == ["n5"]

    def test_predicate_boolean(self, catalog):
        assert strings(
            evaluate_query("//item[@cat = 'b']/name", context_item=catalog)
        ) == ["n2", "n4"]

    def test_document_order_after_union(self, catalog):
        result = evaluate_query("//price union //name", context_item=catalog)
        tags = [n.tag for n in result]
        assert tags == ["name", "price"] * 5  # doc order, interleaved

    def test_dedup(self, catalog):
        result = evaluate_query("(//item, //item)/name", context_item=catalog)
        assert len(result) == 5

    def test_parent_axis(self, catalog):
        result = evaluate_query("//name/..", context_item=catalog)
        assert all(n.tag == "item" for n in result)
        assert len(result) == 5

    def test_ancestor_axis(self, catalog):
        result = evaluate_query("//name/ancestor::catalog", context_item=catalog)
        assert len(result) == 1

    def test_siblings(self, catalog):
        nxt = evaluate_query(
            "(//item)[2]/following-sibling::item/name/string()",
            context_item=catalog,
        )
        assert nxt == ["n3", "n4", "n5"]
        prev = evaluate_query(
            "(//item)[3]/preceding-sibling::item/name/string()",
            context_item=catalog,
        )
        assert prev == ["n1", "n2"]

    def test_preceding_sibling_positional_counts_backwards(self, catalog):
        first = evaluate_query(
            "(//item)[3]/preceding-sibling::item[1]/name/string()",
            context_item=catalog,
        )
        assert first == ["n2"]  # nearest preceding, per reverse-axis rules

    def test_text_kind_test(self, catalog):
        result = evaluate_query("//name/text()", context_item=catalog)
        assert [t.value for t in result] == ["n1", "n2", "n3", "n4", "n5"]

    def test_self_step_on_atomic_rejected(self):
        with pytest.raises(XQueryTypeError):
            evaluate_query("(1, 2)/a")

    def test_rooted_path_from_deep_node(self, catalog):
        deep = catalog.element_children[0].element_children[0]
        assert len(evaluate_query("//item", context_item=deep)) == 5


class TestFLWOR:
    def test_binding_and_return(self):
        assert evaluate_query("for $x in (1, 2, 3) return $x * 2") == [2, 4, 6]

    def test_cartesian_product(self):
        result = evaluate_query(
            "for $x in (1, 2), $y in (10, 20) return $x + $y"
        )
        assert result == [11, 21, 12, 22]

    def test_let_reuse(self):
        assert evaluate_query("let $x := (1, 2, 3) return count($x)") == [3]

    def test_where_filters(self, catalog):
        result = evaluate_query(
            "for $i in //item where $i/price > 30 return $i/name/string()",
            context_item=catalog,
        )
        assert result == ["n4", "n5"]

    def test_positional_variable(self):
        assert evaluate_query(
            "for $x at $i in ('a', 'b') return $i"
        ) == [1, 2]

    def test_order_by_numeric(self):
        assert evaluate_query(
            "for $x in (3, 1, 2) order by $x return $x"
        ) == [1, 2, 3]

    def test_order_by_descending(self):
        assert evaluate_query(
            "for $x in (3, 1, 2) order by $x descending return $x"
        ) == [3, 2, 1]

    def test_order_by_two_keys(self):
        result = evaluate_query(
            "for $p in ((1, 'b'), (1, 'a')) return $p"  # flat seq; simpler pair test below
        )
        result = evaluate_query(
            "for $x in (2, 1, 2, 1) order by $x descending, $x return $x"
        )
        assert result == [2, 2, 1, 1]

    def test_order_by_string_key(self, catalog):
        result = evaluate_query(
            "for $i in //item order by $i/name descending return $i/name/string()",
            context_item=catalog,
        )
        assert result == ["n5", "n4", "n3", "n2", "n1"]

    def test_nested_flwor(self):
        result = evaluate_query(
            "for $x in (1, 2) return (for $y in (1 to $x) return $y)"
        )
        assert result == [1, 1, 2]


class TestQuantifiers:
    def test_some(self):
        assert evaluate_query("some $x in (1, 2, 3) satisfies $x > 2") == [True]
        assert evaluate_query("some $x in (1, 2, 3) satisfies $x > 3") == [False]

    def test_every(self):
        assert evaluate_query("every $x in (1, 2, 3) satisfies $x > 0") == [True]
        assert evaluate_query("every $x in (1, 2, 3) satisfies $x > 1") == [False]

    def test_empty_domain(self):
        assert evaluate_query("some $x in () satisfies 1 = 1") == [False]
        assert evaluate_query("every $x in () satisfies 1 = 2") == [True]

    def test_multi_binding(self):
        assert evaluate_query(
            "some $x in (1, 2), $y in (2, 3) satisfies $x = $y"
        ) == [True]


class TestConstructors:
    def test_direct_element(self):
        (result,) = evaluate_query("<a x='1'>text</a>")
        assert serialize(result) == '<a x="1">text</a>'

    def test_enclosed_content(self):
        (result,) = evaluate_query("<a>{1 + 1}</a>")
        assert result.string_value() == "2"

    def test_sequence_content_space_joined(self):
        (result,) = evaluate_query("<a>{(1, 2, 3)}</a>")
        assert result.string_value() == "1 2 3"

    def test_node_content_copied(self, catalog):
        (result,) = evaluate_query(
            "<w>{(//name)[1]}</w>", context_item=catalog
        )
        inner = result.element_children[0]
        assert inner.tag == "name"
        original = catalog.element_children[0].element_children[0]
        assert inner is not original  # a copy, not the original node

    def test_attribute_value_template(self, catalog):
        (result,) = evaluate_query(
            "<a n='{count(//item)}'/>", context_item=catalog
        )
        assert result.attrs["n"] == "5"

    def test_computed_element_and_attribute(self):
        (result,) = evaluate_query(
            "element out { attribute id { 7 }, text { 'body' } }"
        )
        assert result.tag == "out"
        assert result.attrs["id"] == "7"
        assert result.string_value() == "body"

    def test_computed_element_dynamic_name(self):
        (result,) = evaluate_query("element {concat('a', 'b')} { 1 }")
        assert result.tag == "ab"

    # a computed name must be an XML Name, or the answer would not parse back
    @pytest.mark.parametrize("source", [
        'element {"a b"} {1}', 'element {""} {1}', "element {1} {1}",
        '<a>{attribute {"x y"} {1}}</a>',
    ])
    def test_computed_name_must_be_a_name(self, source):
        with pytest.raises(XQueryEvaluationError, match="XQDY0074"):
            evaluate_query(source)

    def test_direct_attribute_references_decoded(self):
        (result,) = evaluate_query('<a b="x&amp;y"/>')
        assert result.attrs["b"] == "x&y"
        assert parse(serialize(result)).attrs["b"] == "x&y"

    @pytest.mark.parametrize("source, value", [('<a b="x""y"/>', 'x"y'), ("<a b='x''y'/>", "x'y")])
    def test_direct_attribute_doubled_quote(self, source, value):
        (result,) = evaluate_query(source)
        assert result.attrs["b"] == value
        assert parse(serialize(result)).attrs["b"] == value

    def test_nested_constructors(self):
        (result,) = evaluate_query("<o>{for $i in (1, 2) return <i>{$i}</i>}</o>")
        assert [c.string_value() for c in result.element_children] == ["1", "2"]


class TestVariablesAndFunctions:
    def test_external_variable_binding(self):
        q = Query("declare variable $x external; $x + 1")
        assert q.run([41]) == [42]

    def test_unbound_external_rejected(self):
        q = Query("declare variable $x external; $x")
        with pytest.raises(XQueryEvaluationError):
            q.run()

    def test_unknown_variable(self):
        with pytest.raises(XQueryEvaluationError):
            evaluate_query("$nope")

    @pytest.mark.parametrize("source, expected", [
        ("let $x := 1 return ((let $x := 2 return $x), $x)", [2, 1]),
        ("let $x := 1 return ((some $x in (5, 6) satisfies $x = 6), $x)", [True, 1]),
        ("for $x in (1, 2) return ((for $x in (7) return $x), $x)", [7, 1, 7, 2]),
        ("declare function local:f($x) { (let $x := 9 return $x, $x) }; "
         "let $x := 3 return (local:f(4), $x)", [9, 4, 3]),
    ])
    def test_an_inner_binding_shadows_without_leaking(self, source, expected):
        assert evaluate_query(source) == expected

    def test_declared_function(self):
        assert evaluate_query(
            "declare function local:sq($x) { $x * $x }; local:sq(9)"
        ) == [81]

    def test_recursive_function(self):
        assert evaluate_query(
            "declare function local:fact($n) "
            "{ if ($n le 1) then 1 else $n * local:fact($n - 1) }; "
            "local:fact(6)"
        ) == [720]

    def test_runaway_recursion_bounded(self):
        with pytest.raises(XQueryEvaluationError, match="recursion"):
            evaluate_query(
                "declare function local:loop($n) { local:loop($n) }; local:loop(1)"
            )

    COUNTDOWN = (
        "declare function local:f($n) "
        "{ if ($n = 0) then 0 else local:f($n - 1) }; local:f(%d)"
    )

    @pytest.mark.parametrize("n", (200, 255))
    def test_deep_recursion_returns(self, n):
        # 256 nested calls, local:f(255) down to local:f(0), from a shallow
        # stack: each call level takes about two Python frames
        assert evaluate_query(self.COUNTDOWN % n) == [0]

    def test_deep_recursion_returns_under_a_deep_caller(self):
        # a plan search runs queries about 400 frames down the stack
        def descend(frames):
            return descend(frames - 1) if frames else evaluate_query(self.COUNTDOWN % 255)

        assert descend(400) == [0]

    def test_recursion_past_the_python_stack_is_a_typed_error(self):
        # 200 calls need about 400 frames; 600 frames down, with the
        # default limit of 1000, the Python stack runs out first
        def descend(frames):
            return descend(frames - 1) if frames else evaluate_query(self.COUNTDOWN % 200)

        with pytest.raises(XQueryEvaluationError, match="recursion limit 1000"):
            descend(600)

    @pytest.mark.parametrize("n", (256, 300))
    def test_recursion_past_the_limit_is_a_typed_error(self, n):
        with pytest.raises(XQueryEvaluationError, match=r"recursion limit exceeded in local:f\(\)"):
            evaluate_query(self.COUNTDOWN % n)

    def test_unknown_function(self):
        with pytest.raises(XQueryEvaluationError, match="unknown function"):
            evaluate_query("nosuchfn(1)")

    def test_query_params_positional(self, catalog):
        q = Query("count($d//item)", params=("d",))
        assert q(catalog) == [5]

    def test_query_source_round_trip(self, catalog):
        q1 = Query("for $i in $d//item return $i/name", params=("d",))
        q2 = Query(q1.source, params=q1.params)
        assert strings(q1(catalog)) == strings(q2(catalog))


class TestDocFunction:
    def test_doc_resolves(self, catalog):
        result = evaluate_query(
            'count(doc("cat")//item)', doc_resolver=lambda name: catalog
        )
        assert result == [5]

    def test_doc_without_resolver(self):
        with pytest.raises(XQueryEvaluationError):
            evaluate_query('doc("missing")')


class TestCompiledOnce:
    def test_first_run_compiles_and_copies_share_the_plan(self, catalog):
        q = Query("for $i in $d//item where $i/price > 20 return $i/name", params=("d",))
        assert q.module.plan is None  # parsing does not compile
        first = strings(q(catalog))
        plan = q.module.plan
        assert plan is not None
        copy = q.copy("other")
        assert strings(copy(catalog)) == first == ["n3", "n4", "n5"]
        assert copy.module.plan is plan and q.module.plan is plan

    def test_a_bare_expression_runs(self, catalog):
        from repro.xquery import Evaluator, parse_expression

        expr = parse_expression("count($d//item)")
        assert Evaluator().evaluate(expr, variables={"d": [catalog]}) == [5]

    def test_a_bound_list_is_not_handed_back(self):
        bound = [1, 2]
        result = Query("$x", params=("x",)).run(bound)
        assert result == bound and result is not bound
