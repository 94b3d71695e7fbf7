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

from repro.errors import XQuerySyntaxError
from repro.xmlcore.parser import name_end, read_reference

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


# Multi-character symbols, longest first so prefix symbols do not shadow.
_SYMBOLS = [
    "//", "..", ":=", "!=", "<=", ">=", "<<", ">>",
    "(", ")", "[", "]", "{", "}", ",", ";", "/", ".", "@",
    "=", "<", ">", "|", "+", "-", "*", "?", "::", ":",
]
_SYMBOLS.sort(key=len, reverse=True)

_DIGITS = frozenset("0123456789")
_NEWLINE = re.compile("\n")
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

    def is_name(self, *values: str) -> bool:
        """True when this is a NAME token equal to one of ``values``."""
        return self.type == TokenType.NAME and self.value in values

    def is_symbol(self, *values: str) -> bool:
        return self.type == TokenType.SYMBOL and self.value in values

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
    def _skip_trivia(self) -> None:
        """Skip whitespace and (:..:) comments, which may nest."""
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch.isspace():
                self.pos += 1
            elif self.source.startswith("(:", self.pos):
                depth = 1
                self.pos += 2
                while self.pos < len(self.source) and depth:
                    if self.source.startswith("(:", self.pos):
                        depth += 1
                        self.pos += 2
                    elif self.source.startswith(":)", self.pos):
                        depth -= 1
                        self.pos += 2
                    else:
                        self.pos += 1
                if depth:
                    raise self.error("unterminated comment")
            else:
                return

    def _scan(self) -> Token:
        self._skip_trivia()
        start = self.pos
        line, column = self._location(start)
        if start >= len(self.source):
            return Token(TokenType.EOF, "", line, column, start)
        ch = self.source[start]

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

        if ch in _DIGITS or (ch == "." and self.source[start + 1 : start + 2] in _DIGITS):
            return self._scan_number(line, column, start)

        name = self._scan_qname()
        if name:
            return Token(TokenType.NAME, name, line, column, start)

        for symbol in _SYMBOLS:
            if self.source.startswith(symbol, start):
                self.pos = start + len(symbol)
                return Token(TokenType.SYMBOL, symbol, line, column, start)

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
        self.pos += 1
        parts: List[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated string literal")
            ch = self.source[self.pos]
            if ch == quote:
                # doubled quote is an escaped quote in XQuery
                if self.source.startswith(quote * 2, self.pos):
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return "".join(parts)
            if ch == "&":
                value, self.pos = read_reference(self.source, self.pos, self.error)
                parts.append(value)
                continue
            parts.append(ch)
            self.pos += 1

    def _scan_number(self, line: int, column: int, start: int) -> Token:
        match = _NUMBER.match(self.source, start)
        self.pos = match.end()
        if match.group(1) == "":
            raise self.error("expected a digit in the exponent")
        literal = match.group()
        kind = TokenType.INTEGER if literal.isdigit() else TokenType.DECIMAL
        return Token(kind, literal, line, column, start)
