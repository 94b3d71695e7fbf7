"""A from-scratch XML 1.0 subset parser.

Supports the constructs the framework needs: elements, attributes
(single- or double-quoted), character data, CDATA sections, comments,
processing instructions (skipped), an XML declaration (skipped), and the
five predefined entities plus decimal / hexadecimal character references.

Not supported (not needed here and rejected loudly where relevant):
DTDs / internal subsets, namespaces-as-URIs (prefixes are kept verbatim
as part of the tag name), and external entities — their absence also keeps
the parser safe against entity-expansion attacks by construction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import XMLSyntaxError
from .model import Element, Node, Text

__all__ = ["parse", "parse_fragment"]

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:-."


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


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

    def location(self) -> Tuple[int, int]:
        """(line, column), both 1-based, of the current position."""
        consumed = self.source[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XMLSyntaxError:
        line, column = self.location()
        return XMLSyntaxError(message, line, column)


class _Parser:
    def __init__(self, source: str) -> None:
        self.cursor = _Cursor(source)

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
        if self.cursor.peek() != "<":
            raise self.cursor.error("expected '<'")
        self.cursor.advance()
        tag = self._parse_name()
        attrs = self._parse_attributes()
        self._skip_whitespace()
        if self.cursor.startswith("/>"):
            self.cursor.advance(2)
            return Element(tag, attrs)
        if self.cursor.peek() != ">":
            raise self.cursor.error(f"malformed start tag <{tag}>")
        self.cursor.advance()
        node = Element(tag, attrs)
        self._parse_content(node)
        close = self._parse_name()
        if close != tag:
            raise self.cursor.error(
                f"mismatched end tag: expected </{tag}>, found </{close}>"
            )
        self._skip_whitespace()
        if self.cursor.peek() != ">":
            raise self.cursor.error(f"malformed end tag </{close}>")
        self.cursor.advance()
        return node

    def _parse_content(self, parent: Element) -> None:
        while True:
            if self.cursor.at_end():
                raise self.cursor.error(f"unterminated element <{parent.tag}>")
            if self.cursor.startswith("</"):
                self.cursor.advance(2)
                return
            if self.cursor.startswith("<!--"):
                self._skip_comment()
            elif self.cursor.startswith("<![CDATA["):
                parent.append(self._parse_cdata())
            elif self.cursor.startswith("<?"):
                self._skip_pi()
            elif self.cursor.peek() == "<":
                parent.append(self._parse_element())
            else:
                chunk = self._parse_text()
                if chunk.value:
                    parent.append(chunk)

    def _parse_cdata(self) -> Text:
        self.cursor.advance(len("<![CDATA["))
        end = self.cursor.source.find("]]>", self.cursor.pos)
        if end < 0:
            raise self.cursor.error("unterminated CDATA section")
        value = self.cursor.source[self.cursor.pos : end]
        self.cursor.pos = end + 3
        return Text(value)

    def _parse_text(self) -> Text:
        parts: List[str] = []
        while not self.cursor.at_end() and self.cursor.peek() != "<":
            ch = self.cursor.peek()
            if ch == "&":
                parts.append(self._parse_entity())
            else:
                parts.append(ch)
                self.cursor.advance()
        return Text("".join(parts))

    # -- lexical pieces --------------------------------------------------------
    def _parse_name(self) -> str:
        start = self.cursor.pos
        if not _is_name_start(self.cursor.peek()):
            raise self.cursor.error("expected a name")
        self.cursor.advance()
        while _is_name_char(self.cursor.peek()):
            self.cursor.advance()
        return self.cursor.source[start : self.cursor.pos]

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
            parts: List[str] = []
            while self.cursor.peek() != quote:
                if self.cursor.at_end():
                    raise self.cursor.error(f"unterminated attribute {name!r}")
                if self.cursor.peek() == "&":
                    parts.append(self._parse_entity())
                else:
                    parts.append(self.cursor.peek())
                    self.cursor.advance()
            self.cursor.advance()
            if name in attrs:
                raise self.cursor.error(f"duplicate attribute {name!r}")
            attrs[name] = "".join(parts)

    def _parse_entity(self) -> str:
        semi = self.cursor.source.find(";", self.cursor.pos + 1)
        if semi < 0 or semi - self.cursor.pos > 12:
            raise self.cursor.error("malformed entity reference")
        body = self.cursor.source[self.cursor.pos + 1 : semi]
        self.cursor.pos = semi + 1
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        if body in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[body]
        raise self.cursor.error(f"unknown entity &{body};")


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
