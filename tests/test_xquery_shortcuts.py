"""The evaluator's shortcuts change no answer and no error.

Ordered steps, invariant ``for`` sources and the FLWOR hash join (see
:mod:`repro.xquery.evaluator`) each skip work whose result is known.  The
differentials here state that against a formulation the shortcut cannot
touch: a ``where`` join against the same test as an ``if`` in ``return``
(no ``where``, so no join), and ``//`` against the same path with a
predicate that keeps it two steps.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import XQueryError, XQueryTypeError
from repro.session import _SharedTexts
from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec
from repro.xmlcore import Element, element, parse
from repro.xquery import Query, evaluate_query, parse_query, unparse

#: Key texts that look alike as numbers but differ as strings.
KEY_TEXTS = ("1", "01", "1.0", "2", " 2", "a")


@st.composite
def keyed_documents(draw, tag, key):
    """``<r>`` with ``tag`` children carrying 0-3 ``key`` children each
    (missing, duplicate and multi-valued keys) and an ``n`` attribute."""
    root = element("r")
    for index in range(draw(st.integers(0, 6))):
        item = Element(tag, {"n": str(index % 3)})
        for text in draw(st.lists(st.sampled_from(KEY_TEXTS), max_size=3)):
            item.append(element(key, text))
        root.append(item)
    return root


def _outcome(query, d, e):
    """Items by identity, or the error's type and message."""
    try:
        return [id(item) for item in evaluate_query(query, variables={"d": [d], "e": [e]})]
    except XQueryError as exc:
        return (type(exc), str(exc))


#: The join's equality: both ways round, atomized through ``text()``, and
#: with a numeric side, where the join must fall back (the last two).
COMPARISONS = (
    "$a/k = $b/j",
    "$b/j = $a/k",
    "$a/k = $b/j/text()",
    "number($a/k[1]) = $b/j",
    "number($a/k[1]) = string($b/j[1])",
)


class TestHashJoin:
    @given(
        keyed_documents("p", "k"),
        keyed_documents("q", "j"),
        st.sampled_from(COMPARISONS),
        st.sampled_from(("", " and $a/@n != \"1\"", " and $b/@n = $a/@n")),
        st.sampled_from(("", " order by $b/@n descending")),
    )
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_where_join_equals_if_in_return(self, d, e, test, extra, order):
        joined = (
            f"for $a in $d/p, $b in $e/q where {test}{extra}{order} return ($a, $b)"
        )
        looped = (
            f"for $a in $d/p, $b in $e/q{order} "
            f"return if ({test}{extra}) then ($a, $b) else ()"
        )
        assert _outcome(joined, d, e) == _outcome(looped, d, e)

    def test_numeric_side_falls_back_to_the_nested_loop(self):
        d = parse("<r><p><k>01</k></p></r>")
        e = parse("<r><q><j>1</j></q></r>")
        # as strings "01" != "1"; as numbers 1 = 1
        assert _outcome("for $a in $d/p, $b in $e/q where $a/k = $b/j return $b", d, e) == []
        found = evaluate_query(
            "for $a in $d/p, $b in $e/q where number($a/k) = $b/j return $b",
            variables={"d": [d], "e": [e]},
        )
        assert [item.tag for item in found] == ["q"]

    def test_type_error_is_the_nested_loops(self):
        d = parse("<r><p><k>1</k><k>2</k></p></r>")
        e = parse("<r><q><j>1</j></q></r>")
        with pytest.raises(XQueryTypeError, match="expected a single item"):
            evaluate_query(
                "for $a in $d/p, $b in $e/q where number($a/k) = $b/j return $b",
                variables={"d": [d], "e": [e]},
            )

    def test_empty_outer_never_evaluates_the_inner_source(self):
        d = parse("<r/>")
        # the inner source would raise if it ran: exactly-one() of nothing
        assert evaluate_query(
            "for $a in $d/p, $b in exactly-one($d/zz) where $a/k = $b/j return $b",
            variables={"d": [d]},
        ) == []


class TestInvariantSources:
    def test_constructor_source_builds_a_node_per_iteration(self):
        first, second = evaluate_query("for $a in (1, 2), $b in <x/> return $b")
        assert first is not second

    def test_declared_function_source_is_evaluated_per_tuple(self):
        first, second = evaluate_query(
            "declare function local:f() { <x/> };\n"
            "for $a in (1, 2), $b in local:f() return $b"
        )
        assert first is not second

    @pytest.mark.parametrize("source", ("$d/@x", "$d/(@x)", "($d/@x)[1]", "$d/@x/self::node()"))
    def test_attribute_source_builds_an_attribute_per_iteration(self, source):
        d = parse('<r x="1"/>')
        variables = {"d": [d]}
        tuples = f"for $i in (1, 2), $b in {source} return $b"
        assert len(evaluate_query(f"({tuples}) | ()", variables=variables)) == 2
        assert evaluate_query(f"let $s := ({tuples}) return $s[1] is $s[2]", variables=variables) == [False]

    def test_attribute_source_is_not_joined(self):
        d = parse('<r><p><k>1</k></p><p><k>1</k></p></r>')
        e = parse('<r x="1"/>')
        found = evaluate_query(
            "(for $a in $d/p, $b in $e/@x where $a/k = $b return $b) | ()",
            variables={"d": [d], "e": [e]},
        )
        assert len(found) == 2

    def test_invariant_source_keeps_positions(self):
        assert evaluate_query(
            "for $a in (1, 2), $b at $i in ('x', 'y') return concat($a, $b, $i)"
        ) == ["1x1", "1y2", "2x1", "2y2"]


class TestOrderedSteps:
    def test_rooted_descendant_matches_the_two_step_path(self):
        doc = parse("<a><b><c/><b/></b><c><b/></c></a>")
        context = doc.children[1]
        fused = evaluate_query("//b", context_item=context)
        stepwise = evaluate_query("/descendant-or-self::node()/b[true()]", context_item=context)
        assert [id(n) for n in fused] == [id(n) for n in stepwise]
        assert len(fused) == 3

    def test_a_step_from_the_document_node_is_sorted(self):
        # `. | .` ranks the tree first; the document node above its root is
        # a tree of its own, ranked later, so it sorts after the tree's nodes
        doc = parse("<a><b/></a>")
        found = evaluate_query(
            "let $x := . | . return /descendant-or-self::node()", context_item=doc.children[0]
        )
        assert [item.tag for item in found] == ["a", "b", "#document"]

    def test_a_fused_step_that_finds_nothing_still_ranks_its_tree(self):
        # the trees rank d before e, as when //c ran as two sorted steps
        d, e = parse("<d><a/></d>"), parse("<e><b/></e>")
        found = evaluate_query(
            "(count($d//c), $e/* | $d/*)", variables={"d": [d], "e": [e]}
        )
        assert [getattr(item, "tag", item) for item in found] == [0, "a", "b"]


def _bench_sources():
    """Every query and service text of the benchmark's scenarios
    (content seed 7: ``bench/workloads.py``)."""
    serve = ScenarioSpec(
        peers=6, topology="mesh", documents=4, axml_documents=1,
        services=2, replicas=2, queries=6,
    )
    scenarios = [ScenarioGenerator(7, ScenarioSpec()).scenario(k) for k in range(12)]
    scenarios += [ScenarioGenerator(7, replace(serve, items=n)).scenario(0) for n in (20, 100)]
    scenarios.append(ScenarioGenerator(7, replace(WRITE_MIX_SPEC, items=60, writes=3)).scenario(1))
    sources = set()
    for scenario in scenarios:
        sources.update(q.source for q in scenario.queries)
        sources.update(s.source for s in scenario.services)
    return sorted(sources)


class TestShippedText:
    def test_running_leaves_every_bench_module_and_its_text_alone(self):
        sources = _bench_sources()
        assert len(sources) > 80
        for source in sources:
            shipped = Query(source, params=("d", "e"), doc_resolver=lambda name: element("r"))
            text = unparse(shipped.module)
            shipped.run(element("r"), element("r"))
            assert shipped.module.plan is not None
            assert unparse(shipped.module) == text == unparse(parse_query(source))
            assert parse_query(source) == shipped.module
            assert shipped.source_bytes == len(source.encode("utf-8"))
            assert "plan=" not in repr(shipped.module)


class TestSharedAnswerTexts:
    def test_equal_texts_come_back_as_one_object(self):
        table = _SharedTexts(max_chars=100)
        first = table.share("".join(["<a>", "x", "</a>"]))
        again = table.share("".join(["<a>", "x", "</a>"]))
        assert again is first

    def test_oldest_texts_go_first_past_the_bound(self):
        table = _SharedTexts(max_chars=10)
        old = table.share("".join(["aaa", "aa"]))
        newer = table.share("".join(["bbb", "bb"]))
        table.share("ccccc")  # 15 characters: "aaaaa" is evicted
        assert table.share("".join(["bbb", "bb"])) is newer
        assert table.share("".join(["aaa", "aa"])) is not old

    def test_report_answers_share_equal_texts(self):
        scenario = ScenarioGenerator(7, ScenarioSpec()).scenario(0)
        query = scenario.queries[0]
        session = repro.connect(scenario.system)
        first = session.query(**query.kwargs()).answers
        second = session.query(**query.kwargs()).answers
        assert first and first == second
        assert all(a is b for a, b in zip(first, second))
