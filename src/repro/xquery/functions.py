"""Builtin function library for the XQuery subset (fn: namespace, unprefixed).

Each builtin receives the already-evaluated argument sequences plus the
calling :class:`~repro.xquery.evaluator.DynamicContext` and returns a
sequence.  Registration is by (name, arity); a few functions accept several
arities (e.g. ``substring``), registered once per arity.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import XQueryEvaluationError, XQueryTypeError
from ..xmlcore.model import Element
from .runtime import (
    AttributeNode,
    Item,
    atomize,
    atomize_single,
    effective_boolean_value,
    is_node,
    string_value,
    to_number,
)

__all__ = ["BUILTINS", "FunctionImpl", "lookup_builtin"]

FunctionImpl = Callable[..., List[Item]]

BUILTINS: Dict[Tuple[str, int], FunctionImpl] = {}


def _register(name: str, arity: int):
    def wrapper(impl: FunctionImpl) -> FunctionImpl:
        BUILTINS[(name, arity)] = impl
        return impl

    return wrapper


def lookup_builtin(name: str, arity: int) -> Optional[FunctionImpl]:
    """Find a builtin by name and arity; strips an ``fn:`` prefix."""
    if name.startswith("fn:"):
        name = name[3:]
    return BUILTINS.get((name, arity))


def _single_string(args: Sequence[Item], context: str) -> Optional[str]:
    atom = atomize_single(args, context)
    return None if atom is None else str(atom)


def _require_number(args: Sequence[Item], context: str) -> Optional[float]:
    atom = atomize_single(args, context)
    if atom is None:
        return None
    if isinstance(atom, bool) or not isinstance(atom, (int, float)):
        value = to_number(atom)
        if math.isnan(value) and not (isinstance(atom, str) and atom.strip() == "NaN"):
            raise XQueryTypeError(f"{context}: not a number: {atom!r}")
        return value
    return float(atom)


# ---------------------------------------------------------------------------
# Accessors
# ---------------------------------------------------------------------------

@_register("name", 1)
@_register("node-name", 1)
def _fn_name(args, ctx):
    (seq,) = args
    if not seq:
        return [""]
    item = seq[0]
    if isinstance(item, Element):
        return [item.tag]
    if isinstance(item, AttributeNode):
        return [item.name]
    return [""]


@_register("local-name", 1)
def _fn_local_name(args, ctx):
    (seq,) = args
    result = _fn_name(args, ctx)
    name = result[0]
    return [name.split(":")[-1] if name else ""]


@_register("string", 0)
def _fn_string_ctx(args, ctx):
    return [string_value(ctx.require_context_item("string()"))]


@_register("string", 1)
def _fn_string(args, ctx):
    (seq,) = args
    if not seq:
        return [""]
    if len(seq) > 1:
        raise XQueryTypeError("string(): more than one item")
    return [string_value(seq[0])]


@_register("data", 1)
def _fn_data(args, ctx):
    return [str(a) if isinstance(a, str) else a for a in atomize(args[0])]


@_register("root", 0)
def _fn_root_ctx(args, ctx):
    node = ctx.require_context_item("root()")
    return _fn_root([[node]], ctx)


@_register("root", 1)
def _fn_root(args, ctx):
    (seq,) = args
    if not seq:
        return []
    node = seq[0]
    if isinstance(node, AttributeNode):
        node = node.owner
    if not is_node(node):
        raise XQueryTypeError("root(): argument must be a node")
    while node.parent is not None:
        node = node.parent
    return [node]


# ---------------------------------------------------------------------------
# Numeric
# ---------------------------------------------------------------------------

@_register("number", 0)
def _fn_number_ctx(args, ctx):
    item = ctx.require_context_item("number()")
    return [to_number(atomize([item])[0])]


@_register("number", 1)
def _fn_number(args, ctx):
    atom = atomize_single(args[0], "number()")
    return [float("nan")] if atom is None else [to_number(atom)]


@_register("abs", 1)
def _fn_abs(args, ctx):
    value = _require_number(args[0], "abs()")
    if value is None:
        return []
    result = abs(value)
    return [int(result) if result == int(result) else result]


@_register("floor", 1)
def _fn_floor(args, ctx):
    value = _require_number(args[0], "floor()")
    return [] if value is None else [int(math.floor(value))]


@_register("ceiling", 1)
def _fn_ceiling(args, ctx):
    value = _require_number(args[0], "ceiling()")
    return [] if value is None else [int(math.ceil(value))]


@_register("round", 1)
def _fn_round(args, ctx):
    value = _require_number(args[0], "round()")
    if value is None:
        return []
    return [int(math.floor(value + 0.5))]


@_register("count", 1)
def _fn_count(args, ctx):
    return [len(args[0])]


@_register("sum", 1)
def _fn_sum(args, ctx):
    atoms = atomize(args[0])
    if not atoms:
        return [0]
    total = sum(to_number(a) for a in atoms)
    return [int(total) if total == int(total) else total]


@_register("avg", 1)
def _fn_avg(args, ctx):
    atoms = atomize(args[0])
    if not atoms:
        return []
    return [sum(to_number(a) for a in atoms) / len(atoms)]


def _extreme(args, picker, label):
    atoms = atomize(args[0])
    if not atoms:
        return []
    if all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in atoms):
        return [picker(atoms)]
    numbers = [to_number(a) for a in atoms]
    if any(math.isnan(n) for n in numbers):
        return [picker([str(a) for a in atoms])]
    return [picker(numbers)]


@_register("min", 1)
def _fn_min(args, ctx):
    return _extreme(args, min, "min()")


@_register("max", 1)
def _fn_max(args, ctx):
    return _extreme(args, max, "max()")


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------

@_register("concat", 2)
@_register("concat", 3)
@_register("concat", 4)
@_register("concat", 5)
@_register("concat", 6)
def _fn_concat(args, ctx):
    parts = []
    for seq in args:
        atom = atomize_single(seq, "concat()")
        parts.append("" if atom is None else string_value(atom))
    return ["".join(parts)]


@_register("contains", 2)
def _fn_contains(args, ctx):
    haystack = _single_string(args[0], "contains()") or ""
    needle = _single_string(args[1], "contains()") or ""
    return [needle in haystack]


@_register("starts-with", 2)
def _fn_starts_with(args, ctx):
    value = _single_string(args[0], "starts-with()") or ""
    prefix = _single_string(args[1], "starts-with()") or ""
    return [value.startswith(prefix)]


@_register("ends-with", 2)
def _fn_ends_with(args, ctx):
    value = _single_string(args[0], "ends-with()") or ""
    suffix = _single_string(args[1], "ends-with()") or ""
    return [value.endswith(suffix)]


@_register("substring", 2)
def _fn_substring2(args, ctx):
    value = _single_string(args[0], "substring()") or ""
    start = _require_number(args[1], "substring()")
    if start is None:
        return [""]
    begin = max(0, int(round(start)) - 1)
    return [value[begin:]]


@_register("substring", 3)
def _fn_substring3(args, ctx):
    value = _single_string(args[0], "substring()") or ""
    start = _require_number(args[1], "substring()")
    length = _require_number(args[2], "substring()")
    if start is None or length is None:
        return [""]
    begin = int(round(start)) - 1
    end = begin + int(round(length))
    begin = max(0, begin)
    return [value[begin:max(begin, end)]]


@_register("substring-before", 2)
def _fn_substring_before(args, ctx):
    value = _single_string(args[0], "substring-before()") or ""
    sep = _single_string(args[1], "substring-before()") or ""
    index = value.find(sep) if sep else -1
    return [value[:index] if index >= 0 else ""]


@_register("substring-after", 2)
def _fn_substring_after(args, ctx):
    value = _single_string(args[0], "substring-after()") or ""
    sep = _single_string(args[1], "substring-after()") or ""
    index = value.find(sep) if sep else -1
    return [value[index + len(sep):] if index >= 0 else ""]


@_register("string-length", 0)
def _fn_string_length_ctx(args, ctx):
    return [len(string_value(ctx.require_context_item("string-length()")))]


@_register("string-length", 1)
def _fn_string_length(args, ctx):
    value = _single_string(args[0], "string-length()")
    return [len(value or "")]


@_register("normalize-space", 1)
def _fn_normalize_space(args, ctx):
    value = _single_string(args[0], "normalize-space()") or ""
    return [" ".join(value.split())]


@_register("upper-case", 1)
def _fn_upper(args, ctx):
    return [(_single_string(args[0], "upper-case()") or "").upper()]


@_register("lower-case", 1)
def _fn_lower(args, ctx):
    return [(_single_string(args[0], "lower-case()") or "").lower()]


@_register("string-join", 2)
def _fn_string_join(args, ctx):
    sep = _single_string(args[1], "string-join()") or ""
    return [sep.join(string_value(a) for a in atomize(args[0]))]


@_register("translate", 3)
def _fn_translate(args, ctx):
    value = _single_string(args[0], "translate()") or ""
    source = _single_string(args[1], "translate()") or ""
    target = _single_string(args[2], "translate()") or ""
    table = {}
    for index, ch in enumerate(source):
        table[ch] = target[index] if index < len(target) else None
    out = []
    for ch in value:
        if ch in table:
            if table[ch] is not None:
                out.append(table[ch])
        else:
            out.append(ch)
    return ["".join(out)]


@_register("matches", 2)
def _fn_matches(args, ctx):
    value = _single_string(args[0], "matches()") or ""
    pattern = _single_string(args[1], "matches()") or ""
    try:
        return [re.search(pattern, value) is not None]
    except re.error as exc:
        raise XQueryEvaluationError(f"matches(): bad pattern: {exc}") from exc


@_register("replace", 3)
def _fn_replace(args, ctx):
    value = _single_string(args[0], "replace()") or ""
    pattern = _single_string(args[1], "replace()") or ""
    replacement = _single_string(args[2], "replace()") or ""
    try:
        return [re.sub(pattern, replacement, value)]
    except re.error as exc:
        raise XQueryEvaluationError(f"replace(): bad pattern: {exc}") from exc


@_register("tokenize", 2)
def _fn_tokenize(args, ctx):
    value = _single_string(args[0], "tokenize()")
    pattern = _single_string(args[1], "tokenize()") or ""
    if value is None:
        return []
    try:
        return [tok for tok in re.split(pattern, value) if tok != ""]
    except re.error as exc:
        raise XQueryEvaluationError(f"tokenize(): bad pattern: {exc}") from exc


# ---------------------------------------------------------------------------
# Boolean
# ---------------------------------------------------------------------------

@_register("not", 1)
def _fn_not(args, ctx):
    return [not effective_boolean_value(args[0])]


@_register("boolean", 1)
def _fn_boolean(args, ctx):
    return [effective_boolean_value(args[0])]


@_register("true", 0)
def _fn_true(args, ctx):
    return [True]


@_register("false", 0)
def _fn_false(args, ctx):
    return [False]


@_register("empty", 1)
def _fn_empty(args, ctx):
    return [not args[0]]


@_register("exists", 1)
def _fn_exists(args, ctx):
    return [bool(args[0])]


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------

@_register("distinct-values", 1)
def _fn_distinct_values(args, ctx):
    seen = []
    result = []
    for atom in atomize(args[0]):
        value = str(atom) if isinstance(atom, str) else atom
        key = ("n", float(value)) if isinstance(value, (int, float)) and not isinstance(value, bool) else ("v", value)
        if key not in seen:
            seen.append(key)
            result.append(value)
    return result


@_register("reverse", 1)
def _fn_reverse(args, ctx):
    return list(reversed(args[0]))


@_register("subsequence", 2)
def _fn_subsequence2(args, ctx):
    start = _require_number(args[1], "subsequence()")
    if start is None:
        return []
    begin = max(0, int(round(start)) - 1)
    return list(args[0][begin:])


@_register("subsequence", 3)
def _fn_subsequence3(args, ctx):
    start = _require_number(args[1], "subsequence()")
    length = _require_number(args[2], "subsequence()")
    if start is None or length is None:
        return []
    begin = int(round(start)) - 1
    end = begin + int(round(length))
    begin = max(0, begin)
    return list(args[0][begin:max(begin, end)])


@_register("insert-before", 3)
def _fn_insert_before(args, ctx):
    position = _require_number(args[1], "insert-before()")
    index = max(0, int(position or 1) - 1)
    base = list(args[0])
    return base[:index] + list(args[2]) + base[index:]


@_register("remove", 2)
def _fn_remove(args, ctx):
    position = _require_number(args[1], "remove()")
    index = int(position or 0) - 1
    return [item for i, item in enumerate(args[0]) if i != index]


@_register("index-of", 2)
def _fn_index_of(args, ctx):
    target = atomize_single(args[1], "index-of()")
    if target is None:
        return []
    result = []
    for position, atom in enumerate(atomize(args[0]), start=1):
        left = to_number(atom) if isinstance(target, (int, float)) and not isinstance(target, bool) else str(atom)
        right = float(target) if isinstance(target, (int, float)) and not isinstance(target, bool) else str(target)
        if left == right:
            result.append(position)
    return result


@_register("head", 1)
def _fn_head(args, ctx):
    return list(args[0][:1])


@_register("tail", 1)
def _fn_tail(args, ctx):
    return list(args[0][1:])


@_register("zero-or-one", 1)
def _fn_zero_or_one(args, ctx):
    if len(args[0]) > 1:
        raise XQueryTypeError("zero-or-one(): more than one item")
    return list(args[0])


@_register("one-or-more", 1)
def _fn_one_or_more(args, ctx):
    if not args[0]:
        raise XQueryTypeError("one-or-more(): empty sequence")
    return list(args[0])


@_register("exactly-one", 1)
def _fn_exactly_one(args, ctx):
    if len(args[0]) != 1:
        raise XQueryTypeError(f"exactly-one(): got {len(args[0])} items")
    return list(args[0])


@_register("position", 0)
def _fn_position(args, ctx):
    if ctx.position is None:
        raise XQueryEvaluationError("position() outside of a predicate/step")
    return [ctx.position]


@_register("last", 0)
def _fn_last(args, ctx):
    if ctx.size is None:
        raise XQueryEvaluationError("last() outside of a predicate/step")
    return [ctx.size]


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@_register("doc", 1)
def _fn_doc(args, ctx):
    name = _single_string(args[0], "doc()")
    if name is None:
        return []
    return [ctx.resolve_document(name)]
