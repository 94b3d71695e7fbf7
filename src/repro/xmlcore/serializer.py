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
    """
    out: List[str] = []
    _serialize_into(node, out, with_ids)
    return "".join(out)


def _serialize_into(node: Node, out: List[str], with_ids: bool) -> None:
    if isinstance(node, Text):
        out.append(escape_text(node.value))
        return
    assert isinstance(node, Element)
    open_tag = _open_tag(node, with_ids)
    if not node.children:
        out.append(f"<{open_tag}/>")
        return
    out.append(f"<{open_tag}>")
    for child in node.children:
        _serialize_into(child, out, with_ids)
    out.append(f"</{node.tag}>")


def pretty(node: Node, indent: str = "  ") -> str:
    """Human-readable serialization with one element per line.

    Text-only elements are kept on a single line; mixed content is emitted
    compactly to avoid changing its string value.
    """
    out: List[str] = []
    _pretty_into(node, out, 0, indent)
    return "\n".join(out)


def _pretty_into(node: Node, out: List[str], depth: int, indent: str) -> None:
    pad = indent * depth
    if isinstance(node, Text):
        if node.value.strip():
            out.append(pad + escape_text(node.value.strip()))
        return
    assert isinstance(node, Element)
    open_tag = _open_tag(node, with_ids=False)
    if not node.children:
        out.append(f"{pad}<{open_tag}/>")
        return
    has_element_child = any(isinstance(c, Element) for c in node.children)
    if not has_element_child:
        value = escape_text(node.string_value())
        out.append(f"{pad}<{open_tag}>{value}</{node.tag}>")
        return
    out.append(f"{pad}<{open_tag}>")
    for child in node.children:
        _pretty_into(child, out, depth + 1, indent)
    out.append(f"{pad}</{node.tag}>")

