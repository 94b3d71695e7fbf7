"""Unit tests for the builtin XQuery function library."""

import math

import pytest

from repro.errors import XQueryEvaluationError, XQueryTypeError
from repro.xmlcore import parse
from repro.xquery import evaluate_query as q


@pytest.fixture()
def doc():
    return parse("<r><a>1</a><a>2</a><b x='7'>three</b></r>")


class TestAccessors:
    def test_name(self, doc):
        assert q("name((//a)[1])", context_item=doc) == ["a"]
        assert q("name(//@x)", context_item=doc) == ["x"]
        assert q("name(())") == [""]

    def test_local_name_strips_prefix(self):
        tree = parse("<ns:tag/>")
        assert q("local-name(.)", context_item=tree) == ["tag"]

    def test_string_of_context(self, doc):
        assert q("(//b)[1]/string()", context_item=doc) == ["three"]

    def test_string_of_empty(self):
        assert q("string(())") == [""]

    def test_string_of_number(self):
        assert q("string(1.5)") == ["1.5"]
        assert q("string(2.0)") == ["2"]

    def test_data_atomizes(self, doc):
        assert q("data(//a)", context_item=doc) == ["1", "2"]

    def test_root(self, doc):
        assert q("name(root((//a)[1]))", context_item=doc) == ["r"]


class TestNumeric:
    def test_number(self):
        assert q("number('3.5')") == [3.5]
        assert math.isnan(q("number('abc')")[0])
        assert math.isnan(q("number(())")[0])

    @pytest.mark.parametrize("text,value", [
        (" 7 ", 7.0), ("\t-1.5e2\n", -150.0), (".5", 0.5), ("5.", 5.0), ("+3", 3.0),
        ("INF", math.inf), ("+INF", math.inf), ("-INF", -math.inf),
    ])
    def test_number_reads_the_xsd_double_lexical_space(self, text, value):
        assert q("number(.)", context_item=parse(f"<p>{text}</p>")) == [value]

    @pytest.mark.parametrize("text", [
        "1_000", "infinity", "inf", "nan", "\uff11\uff12", "\u00a012", "1 2", "0x10", "", " ",
    ])
    def test_number_of_any_other_spelling_is_nan(self, text):
        assert math.isnan(q("number(.)", context_item=parse(f"<p>{text}</p>"))[0])
        assert math.isnan(q(f"number('{text}')")[0])
        assert math.isnan(q("number(' NaN ')")[0])

    def test_abs_floor_ceiling_round(self):
        assert q("abs(-4)") == [4]
        assert q("floor(2.7)") == [2]
        assert q("ceiling(2.1)") == [3]
        assert q("round(2.5)") == [3]
        assert q("round(-2.5)") == [-2]  # round-half-up per XPath

    def test_count_sum_avg(self, doc):
        assert q("count(//a)", context_item=doc) == [2]
        assert q("sum(//a)", context_item=doc) == [3]
        assert q("avg((2, 4))") == [3.0]
        assert q("sum(())") == [0]
        assert q("avg(())") == []

    def test_min_max_numeric(self):
        assert q("min((3, 1, 2))") == [1]
        assert q("max((3, 1, 2))") == [3]

    def test_min_max_strings(self):
        assert q("min(('b', 'a'))") == ["a"]
        assert q("max(('b', 'c'))") == ["c"]

    def test_min_max_empty(self):
        assert q("min(())") == []


class TestStrings:
    def test_concat(self):
        assert q("concat('a', 1, 'b')") == ["a1b"]
        assert q("concat('a', (), 'b')") == ["ab"]

    def test_contains_starts_ends(self):
        assert q("contains('hello', 'ell')") == [True]
        assert q("starts-with('hello', 'he')") == [True]
        assert q("ends-with('hello', 'lo')") == [True]
        assert q("contains('hello', 'xyz')") == [False]

    def test_substring(self):
        assert q("substring('abcde', 2)") == ["bcde"]
        assert q("substring('abcde', 2, 3)") == ["bcd"]
        assert q("substring('abcde', 0)") == ["abcde"]

    def test_substring_before_after(self):
        assert q("substring-before('a=b', '=')") == ["a"]
        assert q("substring-after('a=b', '=')") == ["b"]
        assert q("substring-before('ab', 'x')") == [""]

    def test_string_length(self):
        assert q("string-length('abc')") == [3]
        assert q("string-length(())") == [0]

    def test_normalize_space(self):
        assert q("normalize-space('  a   b ')") == ["a b"]

    def test_case_functions(self):
        assert q("upper-case('aBc')") == ["ABC"]
        assert q("lower-case('AbC')") == ["abc"]

    def test_string_join(self, doc):
        assert q("string-join(//a, '-')", context_item=doc) == ["1-2"]

    def test_translate(self):
        assert q("translate('abcabc', 'abc', 'xy')") == ["xyxy"]

    def test_matches_replace_tokenize(self):
        assert q("matches('a123', '[0-9]+')") == [True]
        assert q("replace('a1b2', '[0-9]', '_')") == ["a_b_"]
        assert q("tokenize('a,b,,c', ',')") == ["a", "b", "c"]

    def test_bad_regex(self):
        with pytest.raises(XQueryEvaluationError):
            q("matches('x', '(')")


class TestBoolean:
    def test_not(self):
        assert q("not(1 = 1)") == [False]
        assert q("not(())") == [True]

    def test_boolean_true_false(self):
        assert q("boolean('x')") == [True]
        assert q("boolean('')") == [False]
        assert q("true()") == [True]
        assert q("false()") == [False]

    def test_empty_exists(self, doc):
        assert q("empty(//zzz)", context_item=doc) == [True]
        assert q("exists(//a)", context_item=doc) == [True]


class TestSequences:
    def test_distinct_values(self):
        assert q("distinct-values((1, 2, 1, 3))") == [1, 2, 3]
        assert q("distinct-values(('a', 'a', 'b'))") == ["a", "b"]
        assert q("distinct-values((1, 1.0))") == [1]

    def test_reverse(self):
        assert q("reverse((1, 2, 3))") == [3, 2, 1]

    def test_subsequence(self):
        assert q("subsequence((1, 2, 3, 4), 2)") == [2, 3, 4]
        assert q("subsequence((1, 2, 3, 4), 2, 2)") == [2, 3]

    def test_insert_remove(self):
        assert q("insert-before((1, 3), 2, 2)") == [1, 2, 3]
        assert q("remove((1, 2, 3), 2)") == [1, 3]

    def test_index_of(self):
        assert q("index-of((10, 20, 10), 10)") == [1, 3]
        assert q("index-of(('a', 'b'), 'c')") == []

    def test_head_tail(self):
        assert q("head((1, 2, 3))") == [1]
        assert q("tail((1, 2, 3))") == [2, 3]
        assert q("head(())") == []

    def test_cardinality_checks(self):
        assert q("zero-or-one(())") == []
        assert q("exactly-one(5)") == [5]
        assert q("one-or-more((1, 2))") == [1, 2]
        with pytest.raises(XQueryTypeError):
            q("zero-or-one((1, 2))")
        with pytest.raises(XQueryTypeError):
            q("exactly-one(())")
        with pytest.raises(XQueryTypeError):
            q("one-or-more(())")

    def test_position_last_outside_predicate(self):
        with pytest.raises(XQueryEvaluationError):
            q("position()")
        with pytest.raises(XQueryEvaluationError):
            q("last()")

    def test_fn_prefix_accepted(self):
        assert q("fn:count((1, 2))") == [2]
