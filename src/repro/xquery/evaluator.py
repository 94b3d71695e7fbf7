"""Dynamic evaluation of the XQuery subset.

The evaluator walks the AST (:mod:`repro.xquery.ast`) and produces item
sequences per the XDM rules in :mod:`repro.xquery.runtime`.  One
:class:`Evaluator` is configured once (document resolver, extra builtins)
and can run many queries; each run gets a fresh
:class:`~repro.xquery.runtime.DocumentOrder` so mutated documents (streams
accumulate!) are re-indexed.

Continuous queries: :meth:`Evaluator.evaluate` is deterministic over the
current state, so the AXML layer implements continuous semantics by
re-running queries when new input trees arrive, and the incremental path
(:class:`repro.axml.streams.IncrementalQuery`) evaluates only over the
delta when the query is distributive over its input forest — the common
case for the paper's service bodies.

Three shortcuts skip work whose result is already known.  Each changes no
answer and no error, and where it cannot be sure it is the plain
evaluation that runs:

* **Ordered steps.**  A step along a forward axis (``child``,
  ``descendant``, ``descendant-or-self``, ``self``, ``attribute``,
  ``following-sibling``, ``parent``) from one context node gathers its
  nodes in document order without duplicates, so it is not sorted.
  ``descendant-or-self::node()/child::T`` — what ``//T`` abbreviates —
  runs as one ``descendant::T`` step when ``T`` has no predicate.
* **Invariant sources.**  A ``for`` source that reads no variable bound
  earlier in its FLWOR and is *replayable* (see :func:`replayable`: no
  constructor, no declared function, no ``doc()``, no rooted path, no
  ``attribute`` step, no use of the outer focus) is evaluated once per
  FLWOR evaluation, not once per binding tuple.
* **Hash join.**  ``for $a in A, $b in B where L = R ...`` whose ``L``
  reads ``$a`` and ``R`` reads ``$b`` (either way round; both
  replayable), with ``B`` invariant and no ``at $j`` on ``$b``: ``R``'s
  keys are hashed once and probed with each ``$a``'s.  The tuples come
  out in nested-loop order and run the rest of ``where``; a key that is
  not a string, or any XQuery error, discards the join and the nested
  loop runs from the start.

Which shortcut applies where is worked out once per parsed module and
kept on it (:attr:`~repro.xquery.ast.Module.shortcuts`).  The shortcuts
also keep the order in which a run's ``DocumentOrder`` first ranks each
tree, which decides how nodes of different trees sort.
"""

from __future__ import annotations

import math
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union,
)

from ..errors import XQueryError, XQueryEvaluationError, XQueryTypeError
from ..xmlcore.model import Element, Node, Text
from .ast import (
    BinaryOp, ComparisonOp, ComputedAttribute, ComputedElement, ComputedText,
    ContextItem, DirectAttribute, DirectElement, EnclosedExpr, FilterExpr,
    FLWORExpr, ForClause, FunctionCall, FunctionDecl, IfExpr, KindTest,
    LetClause, Literal, Module, NameTest, NodeTest, OrderSpec, PathExpr,
    Predicate, QuantifiedExpr, RangeExpr, Sequence, Step, UnaryOp,
    VarRef, XQNode,
)
from .functions import lookup_builtin
from .parser import parse_query
from .runtime import (
    AttributeNode,
    DocumentOrder,
    Item,
    atomize,
    atomize_single,
    effective_boolean_value,
    general_compare,
    is_node,
    string_value,
    to_number,
    value_compare,
)

__all__ = ["Evaluator", "DynamicContext", "evaluate_query", "replayable"]

_MAX_RECURSION = 256

DocResolver = Callable[[str], Element]

#: Axes whose nodes, gathered from one context node, are already in
#: document order and free of duplicates.
_ORDERED_AXES = frozenset({
    "child", "descendant", "descendant-or-self", "self", "attribute",
    "following-sibling", "parent",
})

_ANY_NODE = KindTest("node")

_CONSTRUCTORS = (DirectElement, ComputedElement, ComputedAttribute, ComputedText)

#: Zero-argument builtins that do not read the focus.
_FOCUS_FREE = frozenset({"true", "false", "fn:true", "fn:false"})


class _DocumentNode(Element):
    """The document node a rooted path starts from.

    It holds the root element without adopting it (the root's ``parent``
    stays ``None``), so it is a tree of its own in document order: a step
    from it is always sorted.
    """

    __slots__ = ()


def replayable(
    node: XQNode,
    bound: Set[str],
    reads: Set[str],
    declared: FrozenSet[Tuple[str, int]] = frozenset(),
    focus: bool = True,
) -> bool:
    """Whether ``node`` is replayable; adds the variables it reads to ``reads``.

    ``reads`` gets every variable ``node`` reads that neither ``bound`` nor
    ``node`` itself binds.  *Replayable*: evaluated again in the same scope,
    ``node`` yields the same items and does nothing else.  So it has no
    constructor (fresh nodes), no call of a function in ``declared`` (its
    body may construct), no ``doc()`` (a counted read), no rooted path (a
    fresh document node), no ``attribute`` step (fresh attribute nodes,
    equal but not identical), and — while ``focus`` is true, i.e. outside the
    predicates and steps that set their own — no use of the focus: ``.``,
    a relative path, or a zero-argument call such as ``position()``.
    """
    if isinstance(node, VarRef):
        if node.name not in bound:
            reads.add(node.name)
        return True
    if isinstance(node, ContextItem):
        return not focus
    if isinstance(node, FLWORExpr):
        inner = set(bound)
        ok = True
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                ok &= replayable(clause.source, inner, reads, declared, focus)
                inner.add(clause.variable)
                if clause.position_variable:
                    inner.add(clause.position_variable)
            else:
                ok &= replayable(clause.value, inner, reads, declared, focus)
                inner.add(clause.variable)
        rest = [node.where] if node.where is not None else []
        rest += [spec.key for spec in node.order_by] + [node.return_expr]
        for expr in rest:
            ok &= replayable(expr, inner, reads, declared, focus)
        return ok
    if isinstance(node, QuantifiedExpr):
        inner = set(bound)
        ok = True
        for name, source in node.bindings:
            ok &= replayable(source, inner, reads, declared, focus)
            inner.add(name)
        return replayable(node.condition, inner, reads, declared, focus) and ok
    if isinstance(node, PathExpr):
        if node.start is not None:
            ok = replayable(node.start, bound, reads, declared, focus)
        else:
            ok = not node.from_root and not focus
        for step in node.steps:
            if isinstance(step, Step):
                ok &= step.axis != "attribute"
                parts = [p.expr for p in step.predicates]
            else:
                parts = [step]
            for part in parts:
                ok &= replayable(part, bound, reads, declared, False)
        return ok
    if isinstance(node, FilterExpr):
        ok = replayable(node.base, bound, reads, declared, focus)
        for predicate in node.predicates:
            ok &= replayable(predicate.expr, bound, reads, declared, False)
        return ok
    ok = not isinstance(node, _CONSTRUCTORS)
    if isinstance(node, FunctionCall):
        ok = (
            (node.name, len(node.args)) not in declared
            and node.name not in ("doc", "fn:doc")
            and (bool(node.args) or not focus or node.name in _FOCUS_FREE)
        )
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        for entry in value if isinstance(value, tuple) else (value,):
            if isinstance(entry, XQNode):
                ok &= replayable(entry, bound, reads, declared, focus)
    return ok


class _Descendants(NamedTuple):
    """``descendant-or-self::node()/child::T`` run as ``step``, i.e.
    ``descendant::T``."""

    step: Step


def _fuse(steps: Tuple[XQNode, ...]) -> Tuple[XQNode, ...]:
    """``steps`` with each predicate-free ``descendant-or-self::node()``
    ``/child::T`` pair as one :class:`_Descendants`."""
    out: List[XQNode] = []
    for step in steps:
        previous = out[-1] if out else None
        if (
            isinstance(step, Step) and step.axis == "child" and not step.predicates
            and isinstance(previous, Step) and previous.axis == "descendant-or-self"
            and previous.test == _ANY_NODE and not previous.predicates
        ):
            out[-1] = _Descendants(Step("descendant", step.test))
        else:
            out.append(step)
    return tuple(out)


class _FlworShape(NamedTuple):
    #: Indexes of the ``for`` clauses whose source is evaluated once per
    #: evaluation of the FLWOR: the first clause (it sees one tuple) and
    #: every invariant one.
    once: FrozenSet[int]
    #: The hash join's equality and whether its left operand is the outer
    #: (``$a``) key; ``None`` where no join applies.
    join: Optional[Tuple[ComparisonOp, bool]]


def _flwor_shape(node: FLWORExpr, declared: FrozenSet[Tuple[str, int]]) -> _FlworShape:
    once = set()
    bound: Set[str] = set()
    for index, clause in enumerate(node.clauses):
        if isinstance(clause, ForClause):
            reads: Set[str] = set()
            invariant = replayable(clause.source, set(), reads, declared)
            if index == 0 or (invariant and not reads & bound):
                once.add(index)
            bound.add(clause.variable)
            if clause.position_variable:
                bound.add(clause.position_variable)
        else:
            bound.add(clause.variable)
    return _FlworShape(frozenset(once), _join_of(node, once, declared))


def _join_of(
    node: FLWORExpr, once: Set[int], declared: FrozenSet[Tuple[str, int]]
) -> Optional[Tuple[ComparisonOp, bool]]:
    if len(node.clauses) != 2 or 1 not in once or node.where is None:
        return None
    outer, inner = node.clauses
    if not isinstance(outer, ForClause) or inner.position_variable:
        return None
    test = node.where
    while isinstance(test, BinaryOp) and test.op == "and":
        test = test.left
    if not (isinstance(test, ComparisonOp) and test.op == "="):
        return None
    outer_names = {outer.variable, outer.position_variable} - {None}
    sides = []
    for side in (test.left, test.right):
        reads: Set[str] = set()
        if not replayable(side, set(), reads, declared):
            return None
        sides.append((
            bool(reads & outer_names) and inner.variable not in reads,  # outer key
            inner.variable in reads and not reads & outer_names,  # inner key
        ))
    (left_outer, left_inner), (right_outer, right_inner) = sides
    if left_outer and right_inner:
        return test, True
    if left_inner and right_outer:
        return test, False
    return None


class _Shortcuts:
    """Which shortcuts apply where in one parsed module, worked out once.

    Filled lazily, one entry per path or FLWOR on its first evaluation,
    keyed by ``id(node)``: the module holds every node it keys, so no key
    is reused while the table lives, and it lives on the module
    (:attr:`~repro.xquery.ast.Module.shortcuts`), never longer.
    """

    __slots__ = ("declared", "_steps", "_flwors")

    def __init__(self, functions: Tuple[FunctionDecl, ...] = ()) -> None:
        self.declared = frozenset((f.name, len(f.params)) for f in functions)
        self._steps: Dict[int, Tuple[XQNode, ...]] = {}
        self._flwors: Dict[int, _FlworShape] = {}

    def steps(self, path: PathExpr) -> Tuple[XQNode, ...]:
        steps = self._steps.get(id(path))
        if steps is None:
            steps = self._steps[id(path)] = _fuse(path.steps)
        return steps

    def flwor(self, node: FLWORExpr) -> _FlworShape:
        shape = self._flwors.get(id(node))
        if shape is None:
            shape = self._flwors[id(node)] = _flwor_shape(node, self.declared)
        return shape


class DynamicContext:
    """Evaluation-time state: variables, focus, resolver, functions."""

    __slots__ = (
        "variables", "context_item", "position", "size",
        "doc_resolver", "functions", "order", "depth", "shortcuts",
    )

    def __init__(
        self,
        variables: Optional[Dict[str, List[Item]]] = None,
        context_item: Optional[Item] = None,
        doc_resolver: Optional[DocResolver] = None,
        functions: Optional[Dict[Tuple[str, int], FunctionDecl]] = None,
        order: Optional[DocumentOrder] = None,
        shortcuts: Optional[_Shortcuts] = None,
    ) -> None:
        self.variables: Dict[str, List[Item]] = variables or {}
        self.context_item = context_item
        self.position: Optional[int] = None
        self.size: Optional[int] = None
        self.doc_resolver = doc_resolver
        self.functions = functions or {}
        self.order = order or DocumentOrder()
        self.depth = 0
        self.shortcuts = shortcuts if shortcuts is not None else _Shortcuts()

    def child(self) -> "DynamicContext":
        """A shallow copy sharing resolver/functions/order; fresh focus."""
        ctx = DynamicContext(
            dict(self.variables), self.context_item,
            self.doc_resolver, self.functions, self.order, self.shortcuts,
        )
        ctx.position = self.position
        ctx.size = self.size
        ctx.depth = self.depth
        return ctx

    def require_context_item(self, who: str) -> Item:
        if self.context_item is None:
            raise XQueryEvaluationError(f"{who}: no context item")
        return self.context_item

    def resolve_document(self, name: str) -> Element:
        if self.doc_resolver is None:
            raise XQueryEvaluationError(
                f"doc({name!r}): no document resolver configured"
            )
        return self.doc_resolver(name)


class Evaluator:
    """Evaluates parsed queries (or query source text) to item sequences."""

    def __init__(self, doc_resolver: Optional[DocResolver] = None) -> None:
        self.doc_resolver = doc_resolver

    # -- public API ---------------------------------------------------------
    def evaluate(
        self,
        query: Union[str, Module, XQNode],
        variables: Optional[Dict[str, List[Item]]] = None,
        context_item: Optional[Item] = None,
    ) -> List[Item]:
        """Run a query; ``variables`` bind the prolog's external variables.

        Accepts source text, a parsed :class:`Module`, or a bare expression
        AST.  Returns the result sequence (list of nodes / atomics).
        """
        if isinstance(query, str):
            query = parse_query(query)
        shortcuts = None
        if isinstance(query, Module):
            shortcuts = query.shortcuts
            if shortcuts is None:
                shortcuts = _Shortcuts(query.functions)
                # a frozen node's cache slot, set once (see Module.shortcuts)
                object.__setattr__(query, "shortcuts", shortcuts)
        ctx = DynamicContext(
            variables=dict(variables) if variables else {},
            context_item=context_item,
            doc_resolver=self.doc_resolver,
            shortcuts=shortcuts,
        )
        if isinstance(query, Module):
            for decl in query.functions:
                ctx.functions[(decl.name, len(decl.params))] = decl
            for var in query.variables:
                if var.value is not None:
                    ctx.variables[var.name] = self._eval(var.value, ctx)
                elif var.name not in ctx.variables:
                    raise XQueryEvaluationError(
                        f"external variable ${var.name} not bound"
                    )
            body = query.body
        else:
            body = query
        return self._eval(body, ctx)

    # -- dispatch --------------------------------------------------------------
    def _eval(self, node: XQNode, ctx: DynamicContext) -> List[Item]:
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise XQueryEvaluationError(
                f"cannot evaluate AST node {type(node).__name__}"
            )
        return method(self, node, ctx)

    # -- primaries -------------------------------------------------------------
    def _eval_literal(self, node: Literal, ctx: DynamicContext) -> List[Item]:
        return [node.value]

    def _eval_var_ref(self, node: VarRef, ctx: DynamicContext) -> List[Item]:
        try:
            return list(ctx.variables[node.name])
        except KeyError:
            raise XQueryEvaluationError(f"unbound variable ${node.name}") from None

    def _eval_context_item(self, node: ContextItem, ctx: DynamicContext) -> List[Item]:
        return [ctx.require_context_item("'.'")]

    def _eval_sequence(self, node: Sequence, ctx: DynamicContext) -> List[Item]:
        result: List[Item] = []
        for item in node.items:
            result.extend(self._eval(item, ctx))
        return result

    def _eval_if(self, node: IfExpr, ctx: DynamicContext) -> List[Item]:
        if effective_boolean_value(self._eval(node.condition, ctx)):
            return self._eval(node.then_branch, ctx)
        return self._eval(node.else_branch, ctx)

    def _eval_quantified(self, node: QuantifiedExpr, ctx: DynamicContext) -> List[Item]:
        some = node.quantifier == "some"

        def recurse(index: int, scope: DynamicContext) -> bool:
            if index == len(node.bindings):
                return effective_boolean_value(self._eval(node.condition, scope))
            name, source = node.bindings[index]
            for item in self._eval(source, scope):
                inner = scope.child()
                inner.variables[name] = [item]
                hit = recurse(index + 1, inner)
                if some and hit:
                    return True
                if not some and not hit:
                    return False
            return not some

        return [recurse(0, ctx)]

    # -- FLWOR -------------------------------------------------------------------
    def _eval_flwor(self, node: FLWORExpr, ctx: DynamicContext) -> List[Item]:
        shape = ctx.shortcuts.flwor(node)
        sources: Dict[int, List[Item]] = {}
        tuples = None
        if shape.join is not None:
            tuples = self._hash_join(node, shape, ctx, sources)
        if tuples is None:
            tuples = self._nested_loop(node, shape.once, ctx, sources)

        if node.order_by:
            tuples = self._order_tuples(tuples, node.order_by)

        result: List[Item] = []
        for scope in tuples:
            result.extend(self._eval(node.return_expr, scope))
        return result

    def _nested_loop(
        self,
        node: FLWORExpr,
        once: FrozenSet[int],
        ctx: DynamicContext,
        sources: Dict[int, List[Item]],
    ) -> List[DynamicContext]:
        """The binding tuples that pass ``where``, by definition: each
        clause over every tuple so far, then ``where`` over each tuple."""
        tuples: List[DynamicContext] = [ctx.child()]
        for index, clause in enumerate(node.clauses):
            next_tuples: List[DynamicContext] = []
            if isinstance(clause, ForClause):
                for scope in tuples:
                    items = self._for_source(index, clause, scope, once, sources)
                    next_tuples.extend(self._bind(clause, scope, items))
            else:
                assert isinstance(clause, LetClause)
                for scope in tuples:
                    bound = scope.child()
                    bound.variables[clause.variable] = self._eval(
                        clause.value, bound
                    )
                    next_tuples.append(bound)
            tuples = next_tuples

        if node.where is not None:
            tuples = [
                scope for scope in tuples
                if effective_boolean_value(self._eval(node.where, scope))
            ]
        return tuples

    def _for_source(
        self,
        index: int,
        clause: ForClause,
        scope: DynamicContext,
        once: FrozenSet[int],
        sources: Dict[int, List[Item]],
    ) -> List[Item]:
        """``clause``'s items in ``scope``; a source in ``once`` is
        evaluated on its first use and remembered in ``sources``."""
        if index not in once:
            return self._eval(clause.source, scope)
        items = sources.get(index)
        if items is None:
            items = sources[index] = self._eval(clause.source, scope)
        return items

    @staticmethod
    def _bind(
        clause: ForClause, scope: DynamicContext, items: List[Item]
    ) -> List[DynamicContext]:
        """One tuple per item: ``scope`` with ``clause``'s variables bound."""
        tuples = []
        for position, item in enumerate(items, start=1):
            bound = scope.child()
            bound.variables[clause.variable] = [item]
            if clause.position_variable:
                bound.variables[clause.position_variable] = [position]
            tuples.append(bound)
        return tuples

    def _hash_join(
        self,
        node: FLWORExpr,
        shape: _FlworShape,
        ctx: DynamicContext,
        sources: Dict[int, List[Item]],
    ) -> Optional[List[DynamicContext]]:
        """What :meth:`_nested_loop` returns, with the inner keys hashed.

        The first outer tuple meets the inner ones pair by pair, evaluating
        the keys in the nested loop's order, so every tree is first ranked
        where the nested loop would rank it; its inner keys fill the table
        that every later outer tuple probes.  A pair whose keys share a
        string runs the rest of ``where``, in nested-loop order.  ``None``
        when the nested loop must decide: a key that is not a string (only
        strings compare by plain equality) or any XQuery error.
        """
        test, outer_left = shape.join
        outer_key, inner_key = (
            (test.left, test.right) if outer_left else (test.right, test.left)
        )
        outer_clause, inner_clause = node.clauses
        start = ctx.child()
        outers = self._bind(
            outer_clause, start,
            self._for_source(0, outer_clause, start, shape.once, sources),
        )
        if not outers:
            return []
        inner_items = self._for_source(1, inner_clause, outers[0], shape.once, sources)
        first_pairs = self._bind(inner_clause, outers[0], inner_items)
        if not first_pairs:
            return []

        def passes(pair: DynamicContext) -> bool:
            return node.where is test or effective_boolean_value(
                self._eval(node.where, pair)
            )

        table: Dict[str, List[int]] = {}
        kept: List[DynamicContext] = []
        try:
            probe = self._join_keys(outer_key, first_pairs[0]) if outer_left else None
            for position, pair in enumerate(first_pairs):
                keys = self._join_keys(inner_key, pair)
                if position == 0 and not outer_left:
                    probe = self._join_keys(outer_key, pair)
                if keys is None or probe is None:
                    return None
                for key in keys:
                    table.setdefault(key, []).append(position)
                if not probe.isdisjoint(keys) and passes(pair):
                    kept.append(pair)
            for scope in outers[1:]:
                probe = self._join_keys(outer_key, scope)
                if probe is None:
                    return None
                hits: Set[int] = set()
                for key in probe:
                    hits.update(table.get(key, ()))
                matched = [inner_items[position] for position in sorted(hits)]
                kept.extend(
                    pair for pair in self._bind(inner_clause, scope, matched)
                    if passes(pair)
                )
        except XQueryError:
            return None
        return kept

    def _join_keys(
        self, expr: XQNode, scope: DynamicContext
    ) -> Optional[FrozenSet[str]]:
        """The atomized values of ``expr``, or ``None`` if one is no string."""
        atoms = atomize(self._eval(expr, scope))
        if all(isinstance(atom, str) for atom in atoms):
            return frozenset(atoms)
        return None

    def _order_tuples(
        self, tuples: List[DynamicContext], specs: Tuple[OrderSpec, ...]
    ) -> List[DynamicContext]:
        def key_for(scope: DynamicContext) -> Tuple:
            keys = []
            for spec in specs:
                atom = atomize_single(
                    self._eval(spec.key, scope), "order by key"
                )
                if atom is None:
                    keys.append((0, 0, ""))  # empty sorts least
                    continue
                if isinstance(atom, bool):
                    keys.append((1, int(atom), ""))
                elif isinstance(atom, (int, float)):
                    keys.append((1, float(atom), ""))
                else:
                    keys.append((2, 0, str(atom)))
            return tuple(keys)

        decorated = [(key_for(scope), index, scope) for index, scope in enumerate(tuples)]
        # stable sort per key, honouring per-key direction
        for position in range(len(specs) - 1, -1, -1):
            reverse = specs[position].descending
            decorated.sort(key=lambda entry: entry[0][position], reverse=reverse)
        return [scope for _, _, scope in decorated]

    # -- operators ------------------------------------------------------------------
    def _eval_binary(self, node: BinaryOp, ctx: DynamicContext) -> List[Item]:
        op = node.op
        if op == "and":
            if not effective_boolean_value(self._eval(node.left, ctx)):
                return [False]
            return [effective_boolean_value(self._eval(node.right, ctx))]
        if op == "or":
            if effective_boolean_value(self._eval(node.left, ctx)):
                return [True]
            return [effective_boolean_value(self._eval(node.right, ctx))]
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        if op in ("union", "intersect", "except"):
            return self._eval_set_op(op, left, right, ctx)
        return self._eval_arithmetic(op, left, right)

    def _eval_set_op(
        self, op: str, left: List[Item], right: List[Item], ctx: DynamicContext
    ) -> List[Item]:
        for item in left + right:
            if not is_node(item):
                raise XQueryTypeError(f"{op}: operands must be nodes")
        right_ids = {id(n) for n in right}
        if op == "union":
            combined = list(left) + list(right)
        elif op == "intersect":
            combined = [n for n in left if id(n) in right_ids]
        else:  # except
            combined = [n for n in left if id(n) not in right_ids]
        return ctx.order.sort_and_dedupe(combined)

    def _eval_arithmetic(
        self, op: str, left: List[Item], right: List[Item]
    ) -> List[Item]:
        left_atom = atomize_single(left, f"left operand of '{op}'")
        right_atom = atomize_single(right, f"right operand of '{op}'")
        if left_atom is None or right_atom is None:
            return []
        a = self._arith_number(left_atom, op)
        b = self._arith_number(right_atom, op)
        try:
            if op == "+":
                result: Union[int, float] = a + b
            elif op == "-":
                result = a - b
            elif op == "*":
                result = a * b
            elif op == "div":
                result = a / b
            elif op == "idiv":
                if b == 0:
                    raise ZeroDivisionError
                result = int(a / b)  # idiv truncates toward zero
            elif op == "mod":
                result = math.fmod(a, b)
                if isinstance(a, int) and isinstance(b, int):
                    result = int(result)
            else:
                raise XQueryEvaluationError(f"unknown arithmetic operator {op!r}")
        except ZeroDivisionError:
            raise XQueryEvaluationError(f"division by zero in '{op}'") from None
        if isinstance(a, int) and isinstance(b, int) and op != "div":
            return [int(result)]
        if isinstance(result, float) and result.is_integer() and op != "div":
            return [int(result)]
        return [result]

    @staticmethod
    def _arith_number(atom: Any, op: str) -> Union[int, float]:
        if isinstance(atom, bool):
            raise XQueryTypeError(f"'{op}': boolean operand")
        if isinstance(atom, (int, float)):
            return atom
        value = to_number(atom)
        if math.isnan(value):
            raise XQueryTypeError(f"'{op}': cannot cast {str(atom)!r} to a number")
        if value.is_integer():
            return int(value)
        return value

    def _eval_comparison(self, node: ComparisonOp, ctx: DynamicContext) -> List[Item]:
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        op = node.op
        if op in ("is", "<<", ">>"):
            if len(left) != 1 or len(right) != 1 or not (
                is_node(left[0]) and is_node(right[0])
            ):
                if not left or not right:
                    return []
                raise XQueryTypeError(f"'{op}': operands must be single nodes")
            if op == "is":
                return [left[0] is right[0]]
            key_left = ctx.order.key(left[0])
            key_right = ctx.order.key(right[0])
            return [key_left < key_right if op == "<<" else key_left > key_right]
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            return value_compare(op, left, right)
        return [general_compare(op, left, right)]

    def _eval_range(self, node: RangeExpr, ctx: DynamicContext) -> List[Item]:
        start = atomize_single(self._eval(node.start, ctx), "range start")
        end = atomize_single(self._eval(node.end, ctx), "range end")
        if start is None or end is None:
            return []
        begin = int(to_number(start))
        finish = int(to_number(end))
        return list(range(begin, finish + 1))

    def _eval_unary(self, node: UnaryOp, ctx: DynamicContext) -> List[Item]:
        atom = atomize_single(self._eval(node.operand, ctx), "unary operand")
        if atom is None:
            return []
        value = self._arith_number(atom, node.op)
        return [-value if node.op == "-" else value]

    # -- paths ---------------------------------------------------------------------
    def _eval_path(self, node: PathExpr, ctx: DynamicContext) -> List[Item]:
        if node.start is not None:
            current: List[Item] = self._eval(node.start, ctx)
        elif node.from_root:
            item = ctx.require_context_item("rooted path")
            if isinstance(item, AttributeNode):
                anchor: Optional[Node] = item.owner
            elif isinstance(item, (Element, Text)):
                anchor = item
            else:
                raise XQueryTypeError("rooted path: context item is not a node")
            while anchor is not None and anchor.parent is not None:
                anchor = anchor.parent
            if anchor is None:
                current = []
            elif node.steps:
                # XPath evaluates rooted paths from the *document node*
                # above the root element; the data model has no document
                # node, so fabricate a transient wrapper.  Appending to
                # ``children`` directly leaves the real root's parent
                # pointer untouched.
                wrapper = _DocumentNode("#document")
                wrapper.children.append(anchor)
                current = [wrapper]
            else:
                current = [anchor]
        else:
            current = [ctx.require_context_item("relative path")]

        for step in ctx.shortcuts.steps(node):
            if isinstance(step, Step):
                current = self._eval_step(step, current, ctx)
            elif isinstance(step, _Descendants):
                current = self._eval_descendants(step.step, current, ctx)
            else:
                current = self._eval_expression_step(step, current, ctx)
        return current

    def _eval_descendants(
        self, step: Step, context_nodes: List[Item], ctx: DynamicContext
    ) -> List[Item]:
        """``descendant-or-self::node()/child::T`` as ``step``, i.e.
        ``descendant::T``: the same nodes, and the same trees ranked."""
        for item in context_nodes:
            if not is_node(item):
                raise XQueryTypeError(
                    "axis step 'descendant-or-self' applied to an atomic value"
                )
        # the skipped descendant-or-self step would have sorted every
        # context node (an attribute has none) and, under a document
        # node, its root element
        for item in context_nodes:
            if not isinstance(item, AttributeNode):
                ctx.order.note(item)
                if type(item) is _DocumentNode:
                    ctx.order.note(item.children[0])
        return self._eval_step(step, context_nodes, ctx)

    def _eval_expression_step(
        self, expr: XQNode, context_nodes: List[Item], ctx: DynamicContext
    ) -> List[Item]:
        """A non-axis path segment, e.g. ``a/string()`` or ``a/(b|c)``.

        Evaluated once per context item with the focus set; node results
        are merged in document order, atomic results keep arrival order
        (the spec allows atomics only as the final step).
        """
        gathered: List[Item] = []
        size = len(context_nodes)
        for position, item in enumerate(context_nodes, start=1):
            inner = ctx.child()
            inner.context_item = item
            inner.position = position
            inner.size = size
            gathered.extend(self._eval(expr, inner))
        if gathered and all(is_node(g) for g in gathered):
            return ctx.order.sort_and_dedupe(gathered)
        if any(is_node(g) for g in gathered):
            raise XQueryTypeError(
                "path step produced a mix of nodes and atomic values"
            )
        return gathered

    def _eval_step(
        self, step: Step, context_nodes: List[Item], ctx: DynamicContext
    ) -> List[Item]:
        gathered: List[Item] = []
        for item in context_nodes:
            if not is_node(item):
                raise XQueryTypeError(
                    f"axis step '{step.axis}' applied to an atomic value"
                )
            candidates = self._axis_candidates(step.axis, item)
            candidates = [
                c for c in candidates if self._test_matches(step.test, c, step.axis)
            ]
            candidates = self._apply_predicates(step.predicates, candidates, ctx)
            gathered.extend(candidates)
        if (
            len(context_nodes) == 1 and step.axis in _ORDERED_AXES
            and type(context_nodes[0]) is not _DocumentNode
        ):
            if gathered:  # rank its tree now, as the sort would have
                ctx.order.note(gathered[0])
            return gathered
        return ctx.order.sort_and_dedupe(gathered)

    def _axis_candidates(
        self, axis: str, node: Union[Node, AttributeNode]
    ) -> List[Union[Node, AttributeNode]]:
        if isinstance(node, AttributeNode):
            if axis == "self":
                return [node]
            if axis in ("parent", "ancestor", "ancestor-or-self"):
                owner = node.owner
                if owner is None:
                    return []
                out: List[Union[Node, AttributeNode]] = []
                if axis == "ancestor-or-self":
                    out.append(node)
                current: Optional[Node] = owner
                if axis == "parent":
                    return [owner]
                while current is not None:
                    out.append(current)
                    current = current.parent
                return out
            return []

        if axis == "child":
            return list(node.children) if isinstance(node, Element) else []
        if axis == "descendant" or axis == "descendant-or-self":
            out = [node] if axis == "descendant-or-self" else []
            if isinstance(node, Element):
                stack = list(reversed(node.children))
                while stack:
                    current = stack.pop()
                    out.append(current)
                    if isinstance(current, Element):
                        stack.extend(reversed(current.children))
            return out
        if axis == "self":
            return [node]
        if axis == "parent":
            return [node.parent] if node.parent is not None else []
        if axis in ("ancestor", "ancestor-or-self"):
            out = [node] if axis == "ancestor-or-self" else []
            current = node.parent
            while current is not None:
                out.append(current)
                current = current.parent
            return out
        if axis == "attribute":
            if isinstance(node, Element):
                return [
                    AttributeNode(name, value, node)
                    for name, value in sorted(node.attrs.items())
                ]
            return []
        if axis == "following-sibling" or axis == "preceding-sibling":
            parent = node.parent
            if parent is None:
                return []
            index = parent.index_of(node)
            if axis == "following-sibling":
                return list(parent.children[index + 1:])
            return list(reversed(parent.children[:index]))
        raise XQueryEvaluationError(f"unsupported axis {axis!r}")

    @staticmethod
    def _test_matches(
        test: NodeTest, node: Union[Node, AttributeNode], axis: str
    ) -> bool:
        if isinstance(test, NameTest):
            if isinstance(node, AttributeNode):
                return axis == "attribute" and (
                    test.name == "*" or node.name == test.name
                )
            if isinstance(node, Element):
                return test.name == "*" or node.tag == test.name
            return False
        assert isinstance(test, KindTest)
        if test.kind == "node":
            return True
        if test.kind == "text":
            return isinstance(node, Text)
        if test.kind == "element":
            if not isinstance(node, Element):
                return False
            return test.name is None or node.tag == test.name
        raise XQueryEvaluationError(f"unsupported kind test {test.kind!r}")

    def _apply_predicates(
        self,
        predicates: Tuple[Predicate, ...],
        items: List[Item],
        ctx: DynamicContext,
    ) -> List[Item]:
        current = items
        for predicate in predicates:
            kept: List[Item] = []
            size = len(current)
            for position, item in enumerate(current, start=1):
                inner = ctx.child()
                inner.context_item = item
                inner.position = position
                inner.size = size
                result = self._eval(predicate.expr, inner)
                if (
                    len(result) == 1
                    and isinstance(result[0], (int, float))
                    and not isinstance(result[0], bool)
                ):
                    if float(result[0]) == position:
                        kept.append(item)
                elif effective_boolean_value(result):
                    kept.append(item)
            current = kept
        return current

    def _eval_filter(self, node: FilterExpr, ctx: DynamicContext) -> List[Item]:
        base = self._eval(node.base, ctx)
        return self._apply_predicates(node.predicates, base, ctx)

    # -- functions ---------------------------------------------------------------
    def _eval_function_call(self, node: FunctionCall, ctx: DynamicContext) -> List[Item]:
        args = [self._eval(arg, ctx) for arg in node.args]
        declared = ctx.functions.get((node.name, len(args)))
        if declared is not None:
            return self._call_declared(declared, args, ctx)
        builtin = lookup_builtin(node.name, len(args))
        if builtin is not None:
            return builtin(args, ctx)
        raise XQueryEvaluationError(
            f"unknown function {node.name}#{len(args)}"
        )

    def _call_declared(
        self, decl: FunctionDecl, args: List[List[Item]], ctx: DynamicContext
    ) -> List[Item]:
        if ctx.depth >= _MAX_RECURSION:
            raise XQueryEvaluationError(
                f"recursion limit exceeded in {decl.name}()"
            )
        inner = DynamicContext(
            variables={},
            context_item=None,
            doc_resolver=ctx.doc_resolver,
            functions=ctx.functions,
            order=ctx.order,
            shortcuts=ctx.shortcuts,
        )
        inner.depth = ctx.depth + 1
        for param, value in zip(decl.params, args):
            inner.variables[param] = value
        return self._eval(decl.body, inner)

    # -- constructors --------------------------------------------------------------
    def _eval_direct_element(self, node: DirectElement, ctx: DynamicContext) -> List[Item]:
        built = Element(node.tag)
        for attribute in node.attributes:
            built.set_attr(attribute.name, self._attr_value(attribute, ctx))
        self._fill_content(built, node.content, ctx)
        return [built]

    def _attr_value(self, attribute: DirectAttribute, ctx: DynamicContext) -> str:
        parts: List[str] = []
        for part in attribute.value_parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                assert isinstance(part, EnclosedExpr)
                atoms = atomize(self._eval(part.expr, ctx))
                parts.append(" ".join(string_value(a) for a in atoms))
        return "".join(parts)

    def _fill_content(
        self,
        parent: Element,
        content: Tuple[Union[str, XQNode], ...],
        ctx: DynamicContext,
    ) -> None:
        for part in content:
            if isinstance(part, str):
                if part.strip():
                    parent.append(Text(part))
                continue
            if isinstance(part, EnclosedExpr):
                self._append_sequence(parent, self._eval(part.expr, ctx))
            else:
                self._append_sequence(parent, self._eval(part, ctx))

    @staticmethod
    def _append_sequence(parent: Element, items: List[Item]) -> None:
        """Copy nodes / stringify atomics into element content.

        Adjacent atomic values are joined with single spaces, per the
        XQuery content construction rules.
        """
        pending_atoms: List[str] = []

        def flush() -> None:
            if pending_atoms:
                parent.append(Text(" ".join(pending_atoms)))
                pending_atoms.clear()

        for item in items:
            if isinstance(item, (Element, Text)):
                flush()
                parent.append(item.copy())
            elif isinstance(item, AttributeNode):
                parent.set_attr(item.name, item.value)
            else:
                pending_atoms.append(string_value(item))
        flush()

    def _eval_computed_element(self, node: ComputedElement, ctx: DynamicContext) -> List[Item]:
        if isinstance(node.name, str):
            name = node.name
        else:
            atom = atomize_single(self._eval(node.name, ctx), "element name", allow_empty=False)
            name = string_value(atom)
        built = Element(name)
        if node.content is not None:
            self._append_sequence(built, self._eval(node.content, ctx))
        return [built]

    def _eval_computed_attribute(self, node: ComputedAttribute, ctx: DynamicContext) -> List[Item]:
        if isinstance(node.name, str):
            name = node.name
        else:
            atom = atomize_single(self._eval(node.name, ctx), "attribute name", allow_empty=False)
            name = string_value(atom)
        if node.content is None:
            value = ""
        else:
            atoms = atomize(self._eval(node.content, ctx))
            value = " ".join(string_value(a) for a in atoms)
        return [AttributeNode(name, value, None)]

    def _eval_computed_text(self, node: ComputedText, ctx: DynamicContext) -> List[Item]:
        if node.content is None:
            return [Text("")]
        atoms = atomize(self._eval(node.content, ctx))
        return [Text(" ".join(string_value(a) for a in atoms))]

    def _eval_enclosed(self, node: EnclosedExpr, ctx: DynamicContext) -> List[Item]:
        return self._eval(node.expr, ctx)

    _DISPATCH: Dict[type, Callable] = {}


Evaluator._DISPATCH = {
    Literal: Evaluator._eval_literal,
    VarRef: Evaluator._eval_var_ref,
    ContextItem: Evaluator._eval_context_item,
    Sequence: Evaluator._eval_sequence,
    IfExpr: Evaluator._eval_if,
    QuantifiedExpr: Evaluator._eval_quantified,
    FLWORExpr: Evaluator._eval_flwor,
    BinaryOp: Evaluator._eval_binary,
    ComparisonOp: Evaluator._eval_comparison,
    RangeExpr: Evaluator._eval_range,
    UnaryOp: Evaluator._eval_unary,
    PathExpr: Evaluator._eval_path,
    FilterExpr: Evaluator._eval_filter,
    FunctionCall: Evaluator._eval_function_call,
    DirectElement: Evaluator._eval_direct_element,
    ComputedElement: Evaluator._eval_computed_element,
    ComputedAttribute: Evaluator._eval_computed_attribute,
    ComputedText: Evaluator._eval_computed_text,
    EnclosedExpr: Evaluator._eval_enclosed,
}


def evaluate_query(
    source: str,
    variables: Optional[Dict[str, List[Item]]] = None,
    context_item: Optional[Item] = None,
    doc_resolver: Optional[DocResolver] = None,
) -> List[Item]:
    """One-shot convenience: parse and evaluate ``source``.

    >>> evaluate_query("1 + 2")
    [3]
    """
    return Evaluator(doc_resolver).evaluate(source, variables, context_item)
