"""Unit tests for query decomposition (rule 11 / Example 1)."""

import pytest

from repro.errors import DecompositionError
from repro.xmlcore import element, equivalent, parse, serialize
from repro.xquery import Query
from repro.xquery.decompose import (
    ENVELOPE_TAG,
    _levels,
    free_variables,
    push_selection,
)
from repro.xquery.parser import MAX_NESTING, parse_expression, parse_query


@pytest.fixture()
def catalog():
    return parse(
        "<catalog>"
        + "".join(
            f"<item><name>n{i}</name><price>{i}</price></item>"
            for i in range(20)
        )
        + "</catalog>"
    )


def results_equal(a, b):
    return len(a) == len(b) and all(equivalent(x, y) for x, y in zip(a, b))


class TestFreeVariables:
    def test_simple(self):
        assert free_variables(parse_expression("$a + $b")) == {"a", "b"}

    def test_flwor_binds(self):
        expr = parse_expression("for $x in $d return $x + $y")
        assert free_variables(expr) == {"d", "y"}

    def test_let_binds(self):
        expr = parse_expression("let $x := $d return $x")
        assert free_variables(expr) == {"d"}

    def test_positional_binds(self):
        expr = parse_expression("for $x at $i in $d return $i")
        assert free_variables(expr) == {"d"}

    def test_quantifier_scope(self):
        expr = parse_expression("some $x in $d satisfies $x = $y")
        assert free_variables(expr) == {"d", "y"}

    def test_nested_constructor(self):
        expr = parse_expression("<a>{$v}</a>")
        assert free_variables(expr) == {"v"}


class TestPushSelection:
    def test_basic_split_equivalence(self, catalog):
        q = Query(
            "for $i in $d//item where $i/price > 15 return <hit>{$i/name/text()}</hit>",
            params=("d",),
            name="q",
        )
        dec = push_selection(q)
        direct = q(catalog)
        (envelope,) = dec.inner(catalog)
        assert envelope.tag == ENVELOPE_TAG
        split = dec.outer(envelope)
        assert results_equal(direct, split)

    def test_inner_contains_only_selected(self, catalog):
        q = Query(
            "for $i in $d//item where $i/price > 17 return $i",
            params=("d",),
        )
        (envelope,) = push_selection(q).inner(catalog)
        assert len(envelope.element_children) == 2

    def test_with_order_by(self, catalog):
        q = Query(
            "for $i in $d//item where $i/price > 14 "
            "order by $i/price descending return $i/name",
            params=("d",),
        )
        dec = push_selection(q)
        direct = [serialize(x) for x in q(catalog)]
        split = [serialize(x) for x in dec.outer(dec.inner(catalog)[0])]
        assert direct == split

    def test_with_let_after_for(self, catalog):
        q = Query(
            "for $i in $d//item let $n := $i/name where $i/price > 16 "
            "return <r>{$n/text()}</r>",
            params=("d",),
        )
        dec = push_selection(q)
        assert results_equal(q(catalog), dec.outer(dec.inner(catalog)[0]))

    def test_empty_selection(self, catalog):
        q = Query(
            "for $i in $d//item where $i/price > 999 return $i",
            params=("d",),
        )
        dec = push_selection(q)
        (envelope,) = dec.inner(catalog)
        assert envelope.element_children == []
        assert dec.outer(envelope) == []

    def test_full_selection(self, catalog):
        q = Query(
            "for $i in $d//item where $i/price >= 0 return $i/name",
            params=("d",),
        )
        dec = push_selection(q)
        assert results_equal(q(catalog), dec.outer(dec.inner(catalog)[0]))

    def test_explicit_data_param(self, catalog):
        q = Query(
            "for $i in $src//item where $i/price = 3 return $i",
            params=("src",),
        )
        dec = push_selection(q, "src")
        assert dec.data_param == "src"
        assert results_equal(q(catalog), dec.outer(dec.inner(catalog)[0]))


class TestPushSelectionRejections:
    def test_unknown_param(self):
        q = Query("for $i in $d//item where $i/p > 1 return $i", params=("d",))
        with pytest.raises(DecompositionError, match="unknown parameter"):
            push_selection(q, "zz")

    def test_no_params(self):
        q = Query("1 + 1")
        with pytest.raises(DecompositionError, match="no parameters"):
            push_selection(q)

    def test_non_flwor(self):
        q = Query("count($d//item)", params=("d",))
        with pytest.raises(DecompositionError, match="FLWOR"):
            push_selection(q)

    def test_no_where(self):
        q = Query("for $i in $d//item return $i", params=("d",))
        with pytest.raises(DecompositionError, match="where"):
            push_selection(q)

    def test_where_leaks_other_variable(self):
        q = Query(
            "for $i in $d//item let $t := 5 where $i/price > $t return $i",
            params=("d",),
        )
        with pytest.raises(DecompositionError, match="references variables"):
            push_selection(q)

    def test_positional_predicate_not_pushed(self):
        q = Query(
            "for $i at $p in $d//item where $p > 2 return $i",
            params=("d",),
        )
        with pytest.raises(DecompositionError, match="[Pp]ositional"):
            push_selection(q)

    def test_for_not_over_param(self):
        q = Query(
            "for $i in (1, 2, 3) where $i > 1 return $i", params=("d",)
        )
        with pytest.raises(DecompositionError, match="does not range over"):
            push_selection(q)


class TestDerivedQueriesAreNotReparsed:
    def test_a_split_parses_nothing(self, monkeypatch):
        import repro.xquery as xquery

        q = Query("for $i in $d//item where $i/price < 3 return $i/name", params=("d",))
        calls = []
        monkeypatch.setattr(xquery, "parse_query", lambda source: calls.append(source))
        push_selection(q)
        assert calls == []

    def test_every_generated_split_is_its_source_parsed(self):
        from repro.workloads import (
            FRAGMENTED_SPEC, WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec,
        )

        splits = 0
        for spec in (ScenarioSpec(), FRAGMENTED_SPEC, WRITE_MIX_SPEC):
            for seed in (7, 11):
                for index in range(6):
                    scenario = ScenarioGenerator(seed, spec).scenario(index)
                    for generated in scenario.queries:
                        params = tuple(name for name, _ in generated.bind)
                        query = Query(generated.source, params=params, name=generated.name)
                        try:
                            split = push_selection(query)
                        except DecompositionError:
                            continue
                        for derived in (split.inner, split.outer):
                            assert parse_query(derived.source) == derived.module
                            # what the split's nesting bound assumes
                            assert _levels(derived.module) <= max(_levels(query.module) + 2, 6)
                            assert derived.source_bytes == len(derived.source.encode("utf-8"))
                        splits += 1
        assert splits > 50


def _selection(calls):
    """A filter query whose ``where`` nests ``calls`` ``not(...)`` deep."""
    condition = "not(" * calls + "$i/price > 1" + ")" * calls
    return Query(f"for $i in $d//item where {condition} return $i", params=("d",))


#: Queries mixing every construct unparse renders, nested a few deep.
DEEP_QUERIES = [
    "for $a in (for $b in $d//x return $b) where (if ($a) then (some $x in ($a, 1) "
    "satisfies ($x = 1)) else (every $y in (1 to 2) satisfies -($y) < 0)) "
    "order by $a/k descending return <r a=\"{$a}\">{ element e { text { ($a)[1] } } }</r>",
    "declare variable $v := (1, (2, (3))); declare function local:f($x) "
    "{ if ($x) then local:f(()) else ($x, <a><b>{ $x/c[d/(e|f)] }</b></a>) }; local:f($v)",
    "let $x := (let $y := 1 return $y + (2 * (3 - 4))) return attribute n { $x }",
    "element { concat('a', string(count((1, (2, 3))))) } { $d/a[1]/b[c = (1, 2)]/d }",
    " + ".join(["1"] * 20),
    "not(" * 12 + "1" + ")" * 12,
    "".join(f"some $q{k} in (" for k in range(6)) + "1"
    + "".join(f") satisfies $q{k}" for k in reversed(range(6))),
    # the worst case: each FLWOR in a where renders as "where (for ...)"
    "".join(f"for $x{k} in 1 where " for k in range(8)) + "1"
    + "".join(f" return $x{k}" for k in reversed(range(8))),
]


class TestDerivedNesting:
    """A derived query's text parses: ``_derived`` parses only the text of
    a module deep enough to nest past the parser's limit."""

    @pytest.mark.parametrize("source", DEEP_QUERIES)
    def test_unparsed_text_nests_two_levels_per_ast_level(self, source, monkeypatch):
        import repro.xquery.parser as parser
        from repro.xquery.ast import unparse

        module = parse_query(source)
        monkeypatch.setattr(parser, "MAX_NESTING", 2 * (_levels(module) - 1))
        assert parse_query(unparse(module)) == module

    def test_a_split_whose_text_fits_round_trips(self, catalog):
        # the inner query nests two levels deeper than the user's: at the limit
        q = _selection(MAX_NESTING - 4)
        split = push_selection(q)
        assert _levels(split.inner.module) == _levels(q.module) + 2
        assert parse_query(split.inner.source) == split.inner.module
        assert results_equal(split.outer(split.inner(catalog)), q(catalog))

    def test_a_split_whose_text_would_not_parse_is_refused(self, catalog):
        q = _selection(MAX_NESTING - 2)  # the user's query is at the limit
        assert len(q(catalog)) == 18
        with pytest.raises(DecompositionError, match=f"q-inner query would not parse.*limit of {MAX_NESTING}"):
            push_selection(q)
