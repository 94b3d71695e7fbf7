"""Serialization of the XML data model back to text.

Two modes: compact (no inserted whitespace — what goes on the wire, and
whose UTF-8 length :func:`repro.xmlcore.model.Element.serialized_size`
returns exactly, without building it) and pretty-printed (for humans,
README examples, and test failure output).
"""

from __future__ import annotations

from typing import List

from .model import Element, Node, Text

__all__ = ["serialize", "pretty", "escape_text", "escape_attr"]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


def _open_tag(node: Element, with_ids: bool) -> str:
    parts = [node.tag]
    if with_ids and node.node_id is not None:
        parts.append(f'__id="{node.node_id}"')
    for name in sorted(node.attrs):
        parts.append(f'{name}="{escape_attr(node.attrs[name])}"')
    return " ".join(parts)


def serialize(node: Node, with_ids: bool = False) -> str:
    """Serialize compactly (wire format).

    When ``with_ids`` is true, element node identifiers are emitted as a
    reserved ``__id`` attribute so identifiers survive a round trip — used
    when shipping subtrees whose nodes may appear in forward lists.

    One loop at any depth: the stack holds the nodes still to write, and
    each open element's closing tag, in reverse document order.
    """
    out: List[str] = []
    stack: List[object] = [node]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)  # a closing tag
        elif kind is Text:
            value = item.value
            if "&" in value or "<" in value or ">" in value:
                value = escape_text(value)
            out.append(value)
        else:
            tag = item.tag
            if item.attrs or (with_ids and item.node_id is not None):
                head = "<" + _open_tag(item, with_ids)
            else:
                head = "<" + tag
            children = item.children
            if not children:
                out.append(head + "/>")
            else:
                out.append(head + ">")
                stack.append("</" + tag + ">")
                stack.extend(reversed(children))
    return "".join(out)


def pretty(node: Node, indent: str = "  ") -> str:
    """Human-readable serialization with one element per line.

    Text-only elements are kept on a single line; mixed content is emitted
    compactly to avoid changing its string value.
    """
    out: List[str] = []
    # (node, depth) still to print, or (closing line, depth), in reverse
    stack: List[tuple] = [(node, 0)]
    while stack:
        item, depth = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        pad = indent * depth
        if type(item) is Text:
            if item.value.strip():
                out.append(pad + escape_text(item.value.strip()))
            continue
        open_tag = _open_tag(item, with_ids=False)
        if not item.children:
            out.append(f"{pad}<{open_tag}/>")
            continue
        if not any(isinstance(c, Element) for c in item.children):
            value = escape_text(item.string_value())
            out.append(f"{pad}<{open_tag}>{value}</{item.tag}>")
            continue
        out.append(f"{pad}<{open_tag}>")
        stack.append((f"{pad}</{item.tag}>", depth))
        stack.extend((child, depth + 1) for child in reversed(item.children))
    return "\n".join(out)
