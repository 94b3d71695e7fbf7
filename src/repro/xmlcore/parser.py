"""A from-scratch XML 1.0 subset parser, and the one home of XML's lexical rules.

Supports the constructs the framework needs: elements, attributes
(single- or double-quoted), character data, CDATA sections, comments,
processing instructions (skipped), an XML declaration (skipped), and the
five predefined entities plus decimal / hexadecimal character references.

The XQuery front end (:mod:`repro.xquery`) reads XML's syntax through the
two rules defined here: :func:`name_end` reads a whole Name (or NCName)
per call, and :func:`read_reference` decodes a reference, checking a
character reference against XML's ``Char`` production (no ``&#0;``, no
surrogate, nothing past ``0x10FFFF``), so a parsed tree always
serializes.  Each reader raises its own typed error at its own position.
The parser holds raw text to the same production: a source character
outside ``Char`` is an :class:`XMLSyntaxError` at its line and column.

Not supported (not needed here and rejected loudly where relevant):
DTDs / internal subsets, namespaces-as-URIs (prefixes are kept verbatim
as part of the tag name), and external entities — their absence also keeps
the parser safe against entity-expansion attacks by construction.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DocumentTooDeepError, ReproError, XMLSyntaxError
from .model import Element, Node, Text

__all__ = [
    "MAX_DEPTH", "location", "name_end", "parse", "parse_fragment", "read_reference",
]

#: Deepest element nesting accepted (root = 1): what a recursive parser reached
#: under the default recursion limit, so the recursive copy/serialize walks cope.
MAX_DEPTH = 497

_PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
_CHAR_REFERENCE = re.compile(r"#(?:x([0-9a-fA-F]+)|([0-9]+))")
#: One character outside XML 1.0's Char production (§2.2).
_NOT_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

# A Name starts with a letter, "_" or ":" and goes on with letters, digits,
# "_", "-", "." and ":"; an NCName is a Name without ":".  Letters and
# digits are Unicode's: str.isalpha, and str.isalnum, which with "_" is
# what the regex "\w" matches.
_NAME_REST = re.compile(r"[\w.:-]*")
_NCNAME_REST = re.compile(r"[\w.-]*")


def name_end(source: str, pos: int, colons: bool = True) -> int:
    """Offset just past the Name (NCName if not ``colons``) at ``source[pos]``,
    or ``pos`` if none starts there.

    >>> name_end("ns:a-1 b", 0), name_end("ns:a-1 b", 0, colons=False), name_end("1a", 0)
    (6, 2, 0)
    """
    first = source[pos : pos + 1]
    if first.isalpha() or first == "_" or (colons and first == ":"):
        return (_NAME_REST if colons else _NCNAME_REST).match(source, pos + 1).end()
    return pos


def location(source: str, pos: int) -> Tuple[int, int]:
    """(line, column), both 1-based, of offset ``pos`` in ``source``."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def read_reference(
    source: str, pos: int, error: Callable[[str, int], ReproError]
) -> Tuple[str, int]:
    """The character the reference whose ``&`` is ``source[pos]`` stands for,
    and the offset after its ``;``.

    A malformed or unknown reference, or a character reference to a code
    point outside XML's ``Char``, raises ``error(message, pos)``.
    """
    semi = source.find(";", pos + 1, pos + 13)
    if semi < 0:
        raise error("malformed entity reference", pos)
    body = source[pos + 1 : semi]
    value = _PREDEFINED_ENTITIES.get(body)
    if value is not None:
        return value, semi + 1
    match = _CHAR_REFERENCE.fullmatch(body)
    if match is None:
        raise error(f"unknown or malformed reference &{body};", pos)
    digits, decimal = match.groups()
    code = int(digits, 16) if digits else int(decimal)
    if not (
        0x20 <= code <= 0xD7FF or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF
    ):
        raise error(f"&{body}; is not an XML character", pos)
    return chr(code), semi + 1


class _Cursor:
    """Tracks position within the source text, with line/column for errors."""

    __slots__ = ("source", "pos", "length")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < self.length else ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.pos)

    def error(self, message: str, pos: Optional[int] = None) -> XMLSyntaxError:
        return XMLSyntaxError(message, *location(self.source, self.pos if pos is None else pos))


class _Parser:
    def __init__(self, source: str) -> None:
        self.cursor = _Cursor(source)
        stray = _NOT_CHAR.search(source)
        if stray is not None:
            raise self.cursor.error(
                f"U+{ord(stray.group()):04X} is not an XML character", stray.start()
            )

    # -- top level ---------------------------------------------------------
    def parse_document(self) -> Element:
        self._skip_prolog()
        root = self._parse_element()
        self._skip_misc()
        if not self.cursor.at_end():
            raise self.cursor.error("content after document element")
        return root

    def parse_fragment(self) -> List[Node]:
        """Parse a sequence of top-level nodes (forest), e.g. stream payloads."""
        self._skip_prolog()
        nodes: List[Node] = []
        while not self.cursor.at_end():
            if self.cursor.startswith("<!--"):
                self._skip_comment()
            elif self.cursor.startswith("<?"):
                self._skip_pi()
            elif self.cursor.peek() == "<":
                nodes.append(self._parse_element())
            else:
                chunk = self._parse_text()
                if chunk.value.strip():
                    nodes.append(chunk)
        return nodes

    # -- prolog / misc -------------------------------------------------------
    def _skip_prolog(self) -> None:
        self._skip_whitespace()
        while True:
            if self.cursor.startswith("<?"):
                self._skip_pi()
            elif self.cursor.startswith("<!--"):
                self._skip_comment()
            elif self.cursor.startswith("<!DOCTYPE"):
                raise self.cursor.error("DOCTYPE declarations are not supported")
            else:
                break
            self._skip_whitespace()

    def _skip_misc(self) -> None:
        while True:
            self._skip_whitespace()
            if self.cursor.startswith("<!--"):
                self._skip_comment()
            elif self.cursor.startswith("<?"):
                self._skip_pi()
            else:
                break

    def _skip_whitespace(self) -> None:
        while not self.cursor.at_end() and self.cursor.peek().isspace():
            self.cursor.advance()

    def _skip_comment(self) -> None:
        end = self.cursor.source.find("-->", self.cursor.pos + 4)
        if end < 0:
            raise self.cursor.error("unterminated comment")
        self.cursor.pos = end + 3

    def _skip_pi(self) -> None:
        end = self.cursor.source.find("?>", self.cursor.pos + 2)
        if end < 0:
            raise self.cursor.error("unterminated processing instruction")
        self.cursor.pos = end + 2

    # -- elements ------------------------------------------------------------
    def _parse_element(self) -> Element:
        """An element and its content, kept on a stack rather than the call stack."""
        root, closed = self._parse_start_tag()
        stack = [] if closed else [root]
        while stack:
            parent = stack[-1]
            if self.cursor.at_end():
                raise self.cursor.error(f"unterminated element <{parent.tag}>")
            if self.cursor.startswith("</"):
                self.cursor.advance(2)
                close = self._parse_name()
                if close != parent.tag:
                    raise self.cursor.error(f"mismatched end tag: expected "
                                            f"</{parent.tag}>, found </{close}>")
                self._skip_whitespace()
                if self.cursor.peek() != ">":
                    raise self.cursor.error(f"malformed end tag </{close}>")
                self.cursor.advance()
                stack.pop()
                if stack:
                    stack[-1].append(parent)
            elif self.cursor.startswith("<!--"):
                self._skip_comment()
            elif self.cursor.startswith("<![CDATA["):
                parent.append(self._parse_cdata())
            elif self.cursor.startswith("<?"):
                self._skip_pi()
            elif self.cursor.peek() == "<":
                if len(stack) == MAX_DEPTH:
                    raise DocumentTooDeepError(MAX_DEPTH + 1, MAX_DEPTH)
                child, closed = self._parse_start_tag()
                if closed:
                    parent.append(child)
                else:
                    stack.append(child)
            else:
                chunk = self._parse_text()
                if chunk.value:
                    parent.append(chunk)
        return root

    def _parse_start_tag(self) -> Tuple[Element, bool]:
        if self.cursor.peek() != "<":
            raise self.cursor.error("expected '<'")
        self.cursor.advance()
        tag = self._parse_name()
        attrs = self._parse_attributes()
        self._skip_whitespace()
        closed = self.cursor.startswith("/>")
        if not closed and self.cursor.peek() != ">":
            raise self.cursor.error(f"malformed start tag <{tag}>")
        self.cursor.advance(2 if closed else 1)
        return Element(tag, attrs), closed

    def _parse_cdata(self) -> Text:
        self.cursor.advance(len("<![CDATA["))
        end = self.cursor.source.find("]]>", self.cursor.pos)
        if end < 0:
            raise self.cursor.error("unterminated CDATA section")
        value = self.cursor.source[self.cursor.pos : end]
        self.cursor.pos = end + 3
        return Text(value)

    def _parse_text(self) -> Text:
        end = self.cursor.source.find("<", self.cursor.pos)
        return Text(self._decoded(self.cursor.length if end < 0 else end))

    def _decoded(self, end: int) -> str:
        """The text up to ``end`` with its references decoded; the cursor moves to ``end``.

        No reference spans ``end`` (a ``<`` or the closing quote): a body
        holding one is refused.
        """
        source, pos = self.cursor.source, self.cursor.pos
        self.cursor.pos = end
        amp = source.find("&", pos, end)
        if amp < 0:
            return source[pos:end]
        parts: List[str] = []
        while amp >= 0:
            parts.append(source[pos:amp])
            value, pos = read_reference(source, amp, self.cursor.error)
            parts.append(value)
            amp = source.find("&", pos, end)
        parts.append(source[pos:end])
        return "".join(parts)

    # -- lexical pieces --------------------------------------------------------
    def _parse_name(self) -> str:
        start = self.cursor.pos
        end = name_end(self.cursor.source, start)
        if end == start:
            raise self.cursor.error("expected a name")
        self.cursor.pos = end
        return self.cursor.source[start:end]

    def _parse_attributes(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            ch = self.cursor.peek()
            if ch in (">", "/") or self.cursor.at_end():
                return attrs
            name = self._parse_name()
            self._skip_whitespace()
            if self.cursor.peek() != "=":
                raise self.cursor.error(f"attribute {name!r} missing '='")
            self.cursor.advance()
            self._skip_whitespace()
            quote = self.cursor.peek()
            if quote not in ('"', "'"):
                raise self.cursor.error(f"attribute {name!r} value must be quoted")
            self.cursor.advance()
            end = self.cursor.source.find(quote, self.cursor.pos)
            if end < 0:
                raise self.cursor.error(f"unterminated attribute {name!r}", self.cursor.length)
            value = self._decoded(end)
            self.cursor.advance()
            if name in attrs:
                raise self.cursor.error(f"duplicate attribute {name!r}")
            attrs[name] = value


def parse(source: str) -> Element:
    """Parse an XML document string into its root :class:`Element`.

    >>> parse("<a x='1'><b>hi</b></a>").tag
    'a'
    """
    return _Parser(source).parse_document()


def parse_fragment(source: str) -> List[Node]:
    """Parse a forest (zero or more top-level nodes).

    Whitespace-only text between top-level elements is dropped; this is the
    entry point used for streamed payloads carrying several trees at once.
    """
    return _Parser(source).parse_fragment()
