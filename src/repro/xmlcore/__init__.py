"""XML substrate: data model, parser, serializer, canonical forms, schema.

This package is self-contained (stdlib only) and is the foundation every
other subsystem builds on.  Quick tour:

>>> from repro.xmlcore import parse, serialize, element, equivalent
>>> t = parse("<a><b>1</b><c/></a>")
>>> serialize(t)
'<a><b>1</b><c/></a>'
>>> equivalent(t, parse("<a><c/><b>1</b></a>"))  # unordered model
True
"""

from .model import (
    SC_LABEL,
    Element,
    Node,
    NodeId,
    NodeIdAllocator,
    Text,
    element,
    find_by_id,
    iter_elements,
    iter_nodes,
    text,
    tree_size,
)
from .canon import canonical_form, canonical_hash, equivalent, ordered_equal
from .parser import parse, parse_fragment
from .serializer import pretty, serialize
from .schema import (
    ANY,
    EMPTY,
    UNBOUNDED,
    AnyType,
    Choice,
    ContentModel,
    ElementType,
    Interleave,
    Occurs,
    Ref,
    Schema,
    Sequence,
    Signature,
    TextType,
)

__all__ = [
    "SC_LABEL",
    "Element",
    "Node",
    "NodeId",
    "NodeIdAllocator",
    "Text",
    "element",
    "text",
    "find_by_id",
    "iter_elements",
    "iter_nodes",
    "tree_size",
    "canonical_form",
    "canonical_hash",
    "equivalent",
    "ordered_equal",
    "parse",
    "parse_fragment",
    "pretty",
    "serialize",
    "ANY",
    "EMPTY",
    "UNBOUNDED",
    "AnyType",
    "Choice",
    "ContentModel",
    "ElementType",
    "Interleave",
    "Occurs",
    "Ref",
    "Schema",
    "Sequence",
    "Signature",
    "TextType",
]
