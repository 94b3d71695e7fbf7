"""Lexer for the XQuery subset.

XQuery has no reserved words — ``for``, ``and``, ``div`` are legal element
names — so the lexer emits every identifier as a ``NAME`` token and the
parser decides from context whether a name is a keyword or an operator.

The lexer is *on demand*: the parser pulls tokens one at a time and may
take over raw character scanning for direct element constructors
(``<a>{...}</a>``), whose interior follows XML rules, then hand control
back.  :meth:`Lexer.sync_to` supports that hand-off.

XML's lexical rules come from :mod:`repro.xmlcore.parser`, not from here:
a name is an NCName, optionally prefixed (``ns:local``), as
:func:`~repro.xmlcore.parser.name_end` reads it; a string literal's
``&...;`` references are decoded by
:func:`~repro.xmlcore.parser.read_reference`.  What is XQuery's own stays
here: ``""`` in a literal, ``(: comments :)``, and numbers, whose digits
are ASCII ``[0-9]`` only.  A token's line and column are looked up in
the source's line starts, found once per lexer, so lexing is linear in
the query's length.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import XQuerySyntaxError
from ..xmlcore.parser import name_end, read_reference

__all__ = ["Token", "Lexer", "TokenType"]


class TokenType:
    """Token kind constants (plain strings keep debugging output readable)."""

    NAME = "NAME"          # identifiers and QNames (ns:local)
    STRING = "STRING"      # quoted literal, quotes stripped, entities resolved
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    VARIABLE = "VARIABLE"  # $name (the '$' consumed, value = name)
    SYMBOL = "SYMBOL"      # punctuation / operators
    EOF = "EOF"


_SYMBOLS = (
    "//", "..", ":=", "!=", "<=", ">=", "<<", ">>", "::",
    "(", ")", "[", "]", "{", "}", ",", ";", "/", ".", "@",
    "=", "<", ">", "|", "+", "-", "*", "?", ":",
)
#: One alternation of every symbol, longest first, so that a prefix ("/")
#: never shadows a longer symbol ("//").
_SYMBOL = re.compile("|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))))
_SYMBOL_CHARS = frozenset("".join(_SYMBOLS))

#: A string literal's run up to a quote or a reference.
_STRING_RUNS = {'"': re.compile('[^"&]*'), "'": re.compile("[^'&]*")}
_DIGITS = frozenset("0123456789")
_NEWLINE = re.compile("\n")
# str.isspace's whitespace, which is what "\s" matches in a str pattern
_SPACE = re.compile(r"\s*")
_COMMENT_MARK = re.compile(r"\(:|:\)")
# digits, a fraction (not the first dot of "..") and an exponent; an "e"
# followed by neither a digit nor a sign is not an exponent
_NUMBER = re.compile(
    r"(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)(?:[eE](?=[0-9+-])[+-]?([0-9]*))?"
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based line/column)."""

    type: str
    value: str
    line: int
    column: int
    pos: int  # character offset of the token start in the source

    def __str__(self) -> str:
        return f"{self.type}({self.value!r})@{self.line}:{self.column}"


class Lexer:
    """Pull-based tokenizer over an XQuery source string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self._buffer: List[Token] = []
        self._line_starts = [0] + [m.end() for m in _NEWLINE.finditer(source)]

    # -- public API ---------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        """Look ahead without consuming; ``ahead=0`` is the next token."""
        while len(self._buffer) <= ahead:
            self._buffer.append(self._scan())
        return self._buffer[ahead]

    def next(self) -> Token:
        """Consume and return the next token."""
        if self._buffer:
            return self._buffer.pop(0)
        return self._scan()

    def sync_to(self, pos: int) -> None:
        """Reposition raw scanning at ``pos``, discarding lookahead.

        Used by the direct-element-constructor sub-parser, which consumes
        source characters itself and then resumes normal tokenizing.
        """
        self.pos = pos
        self._buffer.clear()

    def error(self, message: str, pos: Optional[int] = None) -> XQuerySyntaxError:
        return XQuerySyntaxError(message, *self._location(self.pos if pos is None else pos))

    def _location(self, pos: int) -> Tuple[int, int]:
        """(line, column), both 1-based, of offset ``pos``."""
        line = bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    # -- scanning -------------------------------------------------------------
    def _skip_trivia(self, pos: int) -> int:
        """The offset after the whitespace and (:..:) comments, which may
        nest, at ``pos``."""
        source = self.source
        pos = _SPACE.match(source, pos).end()
        while source[pos : pos + 2] == "(:":
            depth = 1
            pos += 2
            while depth:
                mark = _COMMENT_MARK.search(source, pos)
                if mark is None:
                    self.pos = len(source)
                    raise self.error("unterminated comment")
                pos = mark.end()
                depth += 1 if mark.group() == "(:" else -1
            pos = _SPACE.match(source, pos).end()
        return pos

    def _scan(self) -> Token:
        source = self.source
        start = self.pos = self._skip_trivia(self.pos)
        line, column = self._location(start)
        if start >= len(source):
            return Token(TokenType.EOF, "", line, column, start)
        ch = source[start]

        if ch == "$":
            self.pos += 1
            name = self._scan_qname()
            if not name:
                raise self.error("expected variable name after '$'")
            return Token(TokenType.VARIABLE, name, line, column, start)

        if ch in "\"'":
            return Token(
                TokenType.STRING, self._scan_string(ch), line, column, start
            )

        if ch in _DIGITS or (ch == "." and source[start + 1 : start + 2] in _DIGITS):
            return self._scan_number(line, column, start)

        # no name starts with a character symbols are made of, so the
        # order of these two tries does not matter
        if ch in _SYMBOL_CHARS:
            symbol = _SYMBOL.match(source, start)
            if symbol is not None:
                self.pos = symbol.end()
                return Token(TokenType.SYMBOL, symbol.group(), line, column, start)

        name = self._scan_qname()
        if name:
            return Token(TokenType.NAME, name, line, column, start)

        raise self.error(f"unexpected character {ch!r}")

    def _scan_qname(self) -> str:
        """An NCName, then an optional ``:NCName`` right after it (so
        ``a::b`` is an axis step and ``a :=`` lexes as NAME, SYMBOL)."""
        source, start = self.source, self.pos
        end = name_end(source, start, colons=False)
        if end > start and source.startswith(":", end):
            local = name_end(source, end + 1, colons=False)
            if local > end + 1:
                end = local
        self.pos = end
        return source[start:end]

    def _scan_string(self, quote: str) -> str:
        """The literal opening at ``self.pos``, one regex match per run."""
        source, run = self.source, _STRING_RUNS[quote]
        pos = self.pos + 1
        parts: List[str] = []
        while True:
            end = run.match(source, pos).end()
            parts.append(source[pos:end])
            if end == len(source):
                self.pos = end
                raise self.error("unterminated string literal")
            if source[end] == "&":
                value, pos = read_reference(source, end, self.error)
                parts.append(value)
            elif source.startswith(quote, end + 1):  # "" is an escaped quote
                parts.append(quote)
                pos = end + 2
            else:
                self.pos = end + 1
                return "".join(parts)

    def _scan_number(self, line: int, column: int, start: int) -> Token:
        match = _NUMBER.match(self.source, start)
        self.pos = match.end()
        if match.group(1) == "":
            raise self.error("expected a digit in the exponent")
        literal = match.group()
        kind = TokenType.INTEGER if literal.isdigit() else TokenType.DECIMAL
        return Token(kind, literal, line, column, start)
