"""Unit tests for the XQuery lexer (repro.xquery.tokens)."""

import pytest

from repro.errors import XQuerySyntaxError
from repro.xmlcore.parser import location
from repro.xquery.parser import parse_expression
from repro.xquery.tokens import Lexer, TokenType


def tokens_of(source):
    lexer = Lexer(source)
    out = []
    while True:
        token = lexer.next()
        if token.type == TokenType.EOF:
            return out
        out.append((token.type, token.value))


class TestBasicTokens:
    def test_names(self):
        assert tokens_of("foo bar") == [("NAME", "foo"), ("NAME", "bar")]

    def test_qname(self):
        assert tokens_of("local:fn") == [("NAME", "local:fn")]

    def test_qname_not_axis(self):
        # 'child::a' must lex as NAME, '::', NAME — not a QName
        assert tokens_of("child::a") == [
            ("NAME", "child"), ("SYMBOL", "::"), ("NAME", "a")
        ]

    def test_variables(self):
        assert tokens_of("$x $y2") == [("VARIABLE", "x"), ("VARIABLE", "y2")]

    def test_variable_requires_name(self):
        with pytest.raises(XQuerySyntaxError):
            tokens_of("$ 1")

    def test_integers_and_decimals(self):
        assert tokens_of("42 3.14 1e3 2.5E-2") == [
            ("INTEGER", "42"),
            ("DECIMAL", "3.14"),
            ("DECIMAL", "1e3"),
            ("DECIMAL", "2.5E-2"),
        ]

    def test_leading_dot_decimal(self):
        assert tokens_of(".5") == [("DECIMAL", ".5")]

    def test_digit_dotdot_is_range_ish(self):
        assert tokens_of("1..") == [("INTEGER", "1"), ("SYMBOL", "..")]

    def test_strings_double_and_single(self):
        assert tokens_of("\"hi\" 'ho'") == [("STRING", "hi"), ("STRING", "ho")]

    def test_string_doubled_quote_escape(self):
        assert tokens_of('"a""b"') == [("STRING", 'a"b')]

    def test_string_entities(self):
        assert tokens_of('"&lt;&amp;&#65;"') == [("STRING", "<&A")]

    def test_unterminated_string(self):
        with pytest.raises(XQuerySyntaxError):
            tokens_of('"oops')

    def test_unknown_entity_in_string(self):
        with pytest.raises(XQuerySyntaxError):
            tokens_of('"&nope;"')

    @pytest.mark.parametrize("literal", ['"&#;"', '"&#xZZ;"', '"&#99999999;"', "'&#xD800;'"])
    def test_bad_character_reference_in_string(self, literal):
        with pytest.raises(XQuerySyntaxError) as exc:
            tokens_of("1,\n " + literal)
        assert (exc.value.line, exc.value.column) == (2, 3)

    # Digits are ASCII [0-9], and an exponent's sign needs a digit after it
    @pytest.mark.parametrize("source", ["1e+", "1.5e-", "2E+x", "1\u00b2", "\u00b2", "\u0663 + 1"])
    def test_malformed_numbers_rejected(self, source):
        with pytest.raises(XQuerySyntaxError):
            tokens_of(source)

    def test_e_without_a_digit_or_sign_ends_the_number(self):
        assert tokens_of("1eq 2") == [("INTEGER", "1"), ("NAME", "eq"), ("INTEGER", "2")]


class TestSymbols:
    def test_multi_char_symbols_win(self):
        assert tokens_of("// .. := != <= >= << >>") == [
            ("SYMBOL", s) for s in ["//", "..", ":=", "!=", "<=", ">=", "<<", ">>"]
        ]

    def test_single_char_symbols(self):
        values = [v for _, v in tokens_of("( ) [ ] { } , ; / . @ = < > | + - * ?")]
        assert values == [
            "(", ")", "[", "]", "{", "}", ",", ";", "/", ".", "@",
            "=", "<", ">", "|", "+", "-", "*", "?",
        ]

    def test_assignment_after_name(self):
        assert tokens_of("a := 1") == [
            ("NAME", "a"), ("SYMBOL", ":="), ("INTEGER", "1")
        ]


class TestComments:
    def test_simple_comment(self):
        assert tokens_of("1 (: comment :) 2") == [
            ("INTEGER", "1"), ("INTEGER", "2")
        ]

    def test_nested_comment(self):
        assert tokens_of("(: a (: b :) c :) 7") == [("INTEGER", "7")]

    def test_unterminated_comment(self):
        with pytest.raises(XQuerySyntaxError):
            tokens_of("(: never ends")


class TestLexerMechanics:
    def test_peek_does_not_consume(self):
        lexer = Lexer("a b")
        assert lexer.peek().value == "a"
        assert lexer.peek(1).value == "b"
        assert lexer.next().value == "a"

    def test_sync_to_discards_lookahead(self):
        lexer = Lexer("abc def")
        lexer.peek(1)
        lexer.sync_to(4)
        assert lexer.next().value == "def"

    def test_token_positions(self):
        lexer = Lexer("a\n  bb")
        lexer.next()
        token = lexer.next()
        assert (token.line, token.column) == (2, 3)

    def test_positions_agree_with_the_xml_parsers(self):
        source = "\nfor $i in (1,\n  2)\nreturn\n\n  <a b='{$i}'>\n{$i}</a>\n"
        lexer = Lexer(source)
        for pos in range(len(source) + 1):
            assert lexer._location(pos) == location(source, pos), pos
        while True:
            token = lexer.next()
            assert (token.line, token.column) == location(source, token.pos)
            if token.type == TokenType.EOF:
                break

    def test_lexing_is_linear_in_the_query_length(self):
        # every search of the source a token's position costs is counted;
        # a count from offset 0 per token spans ~3e9 characters here
        source = SearchCounted("(" + "1,\n" * 31_999 + "1)")
        assert len(source) == 96_000
        lexer = Lexer(source)
        while (token := lexer.next()).type != TokenType.EOF:
            pass
        assert (token.line, token.column) == (32_000, 3)
        assert source.spanned <= 2 * len(source)

    def test_parsing_enclosed_expressions_is_linear_too(self):
        # each "{...}" of a direct constructor resumes tokenizing mid-source
        source = SearchCounted("<a>" + "{1}\n" * 20_000 + "</a>")
        parse_expression(source)
        assert source.spanned <= 2 * len(source)
        with pytest.raises(XQuerySyntaxError) as exc:
            parse_expression("<a>" + "{1}\n" * 3 + "{1 1}</a>")
        assert (exc.value.line, exc.value.column) == (4, 4)

    def test_unexpected_character(self):
        with pytest.raises(XQuerySyntaxError):
            tokens_of("#")


class SearchCounted(str):
    """A source that adds up the characters its ``count`` / ``find`` /
    ``rfind`` calls are asked to search."""

    spanned = 0

    def _searched(self, method, sub, start=0, end=None):
        end = len(self) if end is None else end
        self.spanned += max(0, end - start)
        return method(self, sub, start, end)

    def count(self, *args):
        return self._searched(str.count, *args)

    def find(self, *args):
        return self._searched(str.find, *args)

    def rfind(self, *args):
        return self._searched(str.rfind, *args)
