"""Schema-lite: the type system Θ of the paper, reduced to what it uses.

Section 2.1 assumes a set Θ of XML tree types "as expressed for instance in
XML Schema", used solely as service signatures ``(τ_in, τ_out)``.  We
implement a structural subset sufficient for signature checking:

* :class:`ElementType` — a root tag plus a content model;
* content models: :class:`Sequence`, :class:`Choice`, :class:`Interleave`
  (XML-Schema ``all``), :class:`Occurs` (min/max occurrence bounds),
  :class:`Ref` (named re-use, enabling recursion), :class:`TextType`,
  :class:`AnyType` (wildcard, the default for untyped services);
* a :class:`Schema` holding named types, with ``validate(tree, type)``.

Validation is a backtracking matcher over the child sequence — exponential
worst cases are possible with pathological choices but irrelevant at the
sizes signatures have.  Because the paper's trees are unordered,
:class:`Sequence` here means "these particles, in any order" when the
schema is constructed with ``ordered=False`` (the default matches ordered
XML semantics, which is what serialized messages use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence as Seq, Tuple

from ..errors import SchemaError, ValidationError
from .model import Element, Node, Text

__all__ = [
    "ContentModel",
    "TextType",
    "AnyType",
    "ElementType",
    "Sequence",
    "Choice",
    "Interleave",
    "Occurs",
    "Ref",
    "Schema",
    "Signature",
    "EMPTY",
    "ANY",
]

UNBOUNDED = -1


class ContentModel:
    """Abstract content-model particle."""

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        """Yield every position reachable by matching this particle at ``pos``."""
        raise NotImplementedError


@dataclass(frozen=True)
class TextType(ContentModel):
    """Matches exactly one text node (any character data)."""

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        if pos < len(nodes) and isinstance(nodes[pos], Text):
            yield pos + 1


@dataclass(frozen=True)
class AnyType(ContentModel):
    """Matches any single node (element or text) — the wildcard τ."""

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        if pos < len(nodes):
            yield pos + 1


@dataclass(frozen=True)
class ElementType(ContentModel):
    """Matches one element with tag ``tag`` whose content matches ``content``.

    ``content=None`` means any content; required attributes can be listed.
    """

    tag: str
    content: Optional[ContentModel] = None
    required_attrs: Tuple[str, ...] = ()

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        if pos >= len(nodes):
            return
        node = nodes[pos]
        if not isinstance(node, Element) or node.tag != self.tag:
            return
        for attr in self.required_attrs:
            if attr not in node.attrs:
                return
        if self.content is not None and not schema._content_matches(
            node.children, self.content
        ):
            return
        yield pos + 1


@dataclass(frozen=True)
class Sequence(ContentModel):
    """All particles, in order."""

    particles: Tuple[ContentModel, ...]

    def __init__(self, *particles: ContentModel) -> None:
        object.__setattr__(self, "particles", tuple(particles))

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        frontier = {pos}
        for particle in self.particles:
            next_frontier = set()
            for p in frontier:
                next_frontier.update(particle._match(nodes, p, schema))
            if not next_frontier:
                return
            frontier = next_frontier
        yield from frontier


@dataclass(frozen=True)
class Choice(ContentModel):
    """Exactly one of the alternatives."""

    alternatives: Tuple[ContentModel, ...]

    def __init__(self, *alternatives: ContentModel) -> None:
        object.__setattr__(self, "alternatives", tuple(alternatives))

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        seen = set()
        for alternative in self.alternatives:
            for end in alternative._match(nodes, pos, schema):
                if end not in seen:
                    seen.add(end)
                    yield end


@dataclass(frozen=True)
class Interleave(ContentModel):
    """All particles, in any order (XML-Schema ``all``; unordered trees)."""

    particles: Tuple[ContentModel, ...]

    def __init__(self, *particles: ContentModel) -> None:
        object.__setattr__(self, "particles", tuple(particles))

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        yield from self._match_remaining(nodes, pos, schema, frozenset(range(len(self.particles))))

    def _match_remaining(
        self, nodes: Seq[Node], pos: int, schema: "Schema", remaining: frozenset
    ) -> Iterable[int]:
        if not remaining:
            yield pos
            return
        seen = set()
        for index in remaining:
            for mid in self.particles[index]._match(nodes, pos, schema):
                for end in self._match_remaining(
                    nodes, mid, schema, remaining - {index}
                ):
                    if end not in seen:
                        seen.add(end)
                        yield end


@dataclass(frozen=True)
class Occurs(ContentModel):
    """Occurrence bounds: ``particle`` repeated min..max times.

    ``max=UNBOUNDED`` (−1) means unbounded, i.e. ``*`` when ``min=0`` and
    ``+`` when ``min=1``; ``min=0, max=1`` is ``?``.
    """

    particle: ContentModel
    min: int = 0
    max: int = UNBOUNDED

    def __post_init__(self) -> None:
        if self.min < 0:
            raise SchemaError("Occurs.min must be >= 0")
        if self.max != UNBOUNDED and self.max < self.min:
            raise SchemaError("Occurs.max must be >= min (or UNBOUNDED)")

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        seen = set()
        frontier = {pos}
        count = 0
        if self.min == 0:
            seen.add(pos)
            yield pos
        while frontier:
            next_frontier = set()
            for p in frontier:
                for end in self.particle._match(nodes, p, schema):
                    if end not in next_frontier and end > p:
                        next_frontier.add(end)
            count += 1
            if self.max != UNBOUNDED and count > self.max:
                return
            for end in next_frontier:
                if count >= self.min and end not in seen:
                    seen.add(end)
                    yield end
            frontier = next_frontier


@dataclass(frozen=True)
class Ref(ContentModel):
    """Reference to a named type in the enclosing :class:`Schema`."""

    name: str

    def _match(self, nodes: Seq[Node], pos: int, schema: "Schema") -> Iterable[int]:
        yield from schema.resolve(self.name)._match(nodes, pos, schema)


EMPTY = Sequence()
ANY = Occurs(AnyType(), 0, UNBOUNDED)


class Schema:
    """A collection of named types with validation.

    >>> s = Schema()
    >>> _ = s.define("item", ElementType("item", Sequence(ElementType("name"),
    ...                                                   ElementType("price"))))
    >>> from repro.xmlcore.model import element
    >>> s.is_valid(element("item", element("name"), element("price")), "item")
    True
    """

    def __init__(self) -> None:
        self._types: Dict[str, ContentModel] = {}

    def define(self, name: str, model: ContentModel) -> ContentModel:
        if name in self._types:
            raise SchemaError(f"type {name!r} already defined")
        self._types[name] = model
        return model

    def resolve(self, name: str) -> ContentModel:
        try:
            return self._types[name]
        except KeyError:
            raise SchemaError(f"unknown type {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._types)

    # -- validation ---------------------------------------------------------
    def _content_matches(self, nodes: Seq[Node], model: ContentModel) -> bool:
        meaningful = [
            n for n in nodes
            if not (isinstance(n, Text) and not n.value.strip())
        ]
        return any(
            end == len(meaningful) for end in model._match(meaningful, 0, self)
        )

    def is_valid(self, tree: Node, type_name: str) -> bool:
        """True iff ``tree`` (as a one-node forest) matches the named type."""
        return self._content_matches([tree], Ref(type_name))

    def validate(self, tree: Node, type_name: str) -> None:
        """Raise :class:`ValidationError` unless ``tree`` matches the type."""
        if not self.is_valid(tree, type_name):
            label = tree.tag if isinstance(tree, Element) else "#text"
            raise ValidationError(
                f"tree rooted at <{label}> does not conform to type {type_name!r}"
            )


@dataclass(frozen=True)
class Signature:
    """Service type signature ``(τ_in, τ_out)`` with input arity n.

    ``inputs`` is a tuple of type names (length = service arity) and
    ``output`` a single type name, both resolved against ``schema``.  A
    ``None`` schema means the untyped wildcard signature — the common case
    for ad-hoc declarative services.
    """

    inputs: Tuple[str, ...] = ()
    output: str = "any"
    schema: Optional[Schema] = None

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def check_inputs(self, params: Seq[Node]) -> None:
        """Validate an argument forest against τ_in; no-op when untyped."""
        if self.schema is None:
            return
        if len(params) != len(self.inputs):
            raise ValidationError(
                f"expected {len(self.inputs)} parameters, got {len(params)}"
            )
        for param, type_name in zip(params, self.inputs):
            self.schema.validate(param, type_name)

    def check_output(self, result: Node) -> None:
        """Validate one response tree against τ_out; no-op when untyped."""
        if self.schema is None:
            return
        self.schema.validate(result, self.output)
