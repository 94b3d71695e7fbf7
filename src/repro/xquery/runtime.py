"""Runtime values and coercions for the XQuery evaluator.

An XQuery *item* is either a node (:class:`~repro.xmlcore.model.Element`,
:class:`~repro.xmlcore.model.Text`, or the transient
:class:`AttributeNode`) or an atomic Python value (str, int, float, bool).
A *sequence* is a plain Python list of items — flat, as the XDM requires.

This module implements the coercion machinery the spec calls atomization,
effective boolean value, and the value/general comparison rules, plus
document-order utilities shared by path evaluation and node comparisons.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import XQueryTypeError
from ..xmlcore.model import Element, Node, Text

__all__ = [
    "AttributeNode",
    "Item",
    "is_node",
    "atomize",
    "atomize_single",
    "string_value",
    "effective_boolean_value",
    "value_compare",
    "general_compare",
    "DocumentOrder",
    "format_number",
    "to_number",
]


class AttributeNode:
    """Transient attribute node produced by the ``attribute`` axis.

    The data model stores attributes as a dict on their owner element;
    path evaluation materializes them as first-class items so predicates
    and comparisons can treat ``@name`` like any node.
    """

    __slots__ = ("name", "value", "owner")

    def __init__(self, name: str, value: str, owner: Optional[Element]) -> None:
        self.name = name
        self.value = value
        self.owner = owner

    def __repr__(self) -> str:
        return f"AttributeNode({self.name}={self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttributeNode)
            and other.name == self.name
            and other.value == self.value
            and other.owner is self.owner
        )

    def __hash__(self) -> int:
        return hash((self.name, self.value, id(self.owner)))


Item = Union[Node, AttributeNode, str, int, float, bool]


def is_node(item: Item) -> bool:
    """True for element, text and attribute nodes (not atomics)."""
    return isinstance(item, (Element, Text, AttributeNode))


def string_value(item: Item) -> str:
    """The string value of any item."""
    if type(item) is Element:
        children = item.children
        if len(children) == 1 and type(children[0]) is Text:  # a leaf's text
            return children[0].value
        return item.string_value()
    if isinstance(item, (Element, Text)):
        return item.string_value()
    if isinstance(item, AttributeNode):
        return item.value
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, (int, float)):
        return format_number(item)
    return str(item)


def format_number(value: Union[int, float]) -> str:
    """XQuery-style number formatting: integral doubles print without '.0'."""
    if isinstance(value, bool):  # bool is an int subclass; guard first
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Untyped(str):
    """Marker subclass: an atomized node value (xs:untypedAtomic).

    Untyped values coerce to the other operand's type in comparisons and
    to numbers in arithmetic; plain strings do not.
    """

    __slots__ = ()


def atomize(sequence: Iterable[Item]) -> List[Any]:
    """Atomize a sequence: nodes become their (untyped) string values."""
    result: List[Any] = []
    for item in sequence:
        if isinstance(item, (Element, Text, AttributeNode)):
            result.append(_Untyped(string_value(item)))
        else:
            result.append(item)
    return result


def atomize_single(
    sequence: Sequence[Item], context: str, allow_empty: bool = True
) -> Optional[Any]:
    """Atomize and require at most one item (None when empty and allowed)."""
    atoms = atomize(sequence)
    if not atoms:
        if allow_empty:
            return None
        raise XQueryTypeError(f"{context}: empty sequence not allowed")
    if len(atoms) > 1:
        raise XQueryTypeError(
            f"{context}: expected a single item, got {len(atoms)}"
        )
    return atoms[0]


def to_number(value: Any) -> float:
    """Cast an atomic value to xs:double; NaN on failure (like fn:number)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        return float("nan")


def effective_boolean_value(sequence: Sequence[Item]) -> bool:
    """The EBV rules of the spec (empty=false, first-node=true, ...)."""
    if not sequence:
        return False
    first = sequence[0]
    if is_node(first):
        return True
    if len(sequence) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence"
        )
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return bool(first) and not (
            isinstance(first, float) and math.isnan(first)
        )
    if isinstance(first, str):
        return len(first) > 0
    raise XQueryTypeError(f"no effective boolean value for {type(first).__name__}")


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _coerce_pair(left: Any, right: Any) -> Tuple[Any, Any]:
    """Apply untyped-atomic coercion for a value comparison."""
    left_untyped = isinstance(left, _Untyped)
    right_untyped = isinstance(right, _Untyped)
    if left_untyped and right_untyped:
        return str(left), str(right)
    if left_untyped:
        if isinstance(right, bool):
            return effective_boolean_value([str(left)]), right
        if isinstance(right, (int, float)):
            return to_number(left), right
        return str(left), str(right)
    if right_untyped:
        if isinstance(left, bool):
            return left, effective_boolean_value([str(right)])
        if isinstance(left, (int, float)):
            return left, to_number(right)
        return str(left), str(right)
    return left, right


_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_GENERAL_TO_VALUE = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}


def _compare_atoms(op: str, left: Any, right: Any) -> bool:
    left, right = _coerce_pair(left, right)
    if isinstance(left, bool) != isinstance(right, bool):
        raise XQueryTypeError("cannot compare boolean with non-boolean")
    if isinstance(left, str) != isinstance(right, str):
        # number vs string: numeric promotion of the string is not implicit
        raise XQueryTypeError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    try:
        return _OPERATORS[op](left, right)
    except TypeError as exc:  # pragma: no cover - defensive
        raise XQueryTypeError(str(exc)) from exc


def value_compare(op: str, left: Sequence[Item], right: Sequence[Item]) -> List[Item]:
    """Value comparison (eq, ne, ...): singleton semantics, empty propagates."""
    left_atom = atomize_single(left, f"left operand of '{op}'")
    right_atom = atomize_single(right, f"right operand of '{op}'")
    if left_atom is None or right_atom is None:
        return []
    return [_compare_atoms(op, left_atom, right_atom)]


def general_compare(op: str, left: Sequence[Item], right: Sequence[Item]) -> bool:
    """General comparison (=, !=, ...): existential over both sequences."""
    value_op = _GENERAL_TO_VALUE[op]
    left_atoms = atomize(left)
    right_atoms = atomize(right)
    for l in left_atoms:
        for r in right_atoms:
            if _compare_atoms(value_op, l, r):
                return True
    return False


# ---------------------------------------------------------------------------
# Document order
# ---------------------------------------------------------------------------

def _root_of(node: Union[Node, AttributeNode]) -> Node:
    if isinstance(node, AttributeNode):
        anchor: Node = node.owner if node.owner is not None else Text(node.value)
    else:
        anchor = node
    if isinstance(anchor, (Element, Text)):
        parent = anchor.parent
        while parent is not None:
            anchor, parent = parent, parent.parent
    return anchor


class DocumentOrder:
    """Lazily-built document-order index across one or more trees.

    Roots are numbered in first-seen order (stable within one evaluation);
    nodes get their pre-order rank within the root; attribute nodes sort
    right after their owner, alphabetically.  The index for a root is
    invalidated implicitly by building a fresh :class:`DocumentOrder` per
    query execution — documents may mutate between queries (streams!).
    """

    def __init__(self) -> None:
        self._root_ids: Dict[int, int] = {}
        self._indexes: Dict[int, Dict[int, int]] = {}
        self._roots: List[Node] = []

    def _rank(self, root: Node) -> int:
        key = id(root)
        rank = self._root_ids.get(key)
        if rank is None:
            rank = self._root_ids[key] = len(self._roots)
            self._roots.append(root)
        return rank

    def _index_for(self, root: Node) -> Dict[int, int]:
        key = id(root)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = {}
            counter = 0
            stack: List[Node] = [root]
            while stack:
                node = stack.pop()
                index[id(node)] = counter
                counter += 1
                if isinstance(node, Element):
                    stack.extend(reversed(node.children))
        return index

    def note(self, node: Union[Node, AttributeNode]) -> None:
        """Rank ``node``'s tree now, as computing its :meth:`key` would.

        Trees rank in the order their nodes are first keyed, so a caller
        that skips a sort it knows to be the identity notes what the sort
        would have keyed first, and later sorts across trees agree.
        """
        self._rank(_root_of(node))

    def key(self, node: Union[Node, AttributeNode]) -> Tuple:
        """Sort key implementing global document order."""
        root = _root_of(node)
        root_rank = self._rank(root)
        index = self._index_for(root)
        if isinstance(node, AttributeNode):
            owner_rank = index.get(id(node.owner), -1)
            return (root_rank, owner_rank, 1, node.name)
        return (root_rank, index.get(id(node), -1), 0, "")

    def sort_and_dedupe(
        self, nodes: Iterable[Union[Node, AttributeNode]]
    ) -> List[Union[Node, AttributeNode]]:
        """Sort nodes into document order and drop duplicates (by identity)."""
        seen = set()
        unique = []
        for node in nodes:
            marker = id(node)
            if marker not in seen:
                seen.add(marker)
                unique.append(node)
        unique.sort(key=self.key)
        return unique
