"""Dynamic evaluation of the XQuery subset: compile once, then run.

The first run of a parsed :class:`~repro.xquery.ast.Module` compiles it to
a tree of closures, one per AST node, each taking the dynamic context and
returning an item sequence per the XDM rules in
:mod:`repro.xquery.runtime`.  The plan is kept on the module
(:attr:`~repro.xquery.ast.Module.plan`), so every later run, and every
:meth:`~repro.xquery.Query.copy` (which shares the module), skips parsing
and compiling.  Each run gets a fresh
:class:`~repro.xquery.runtime.DocumentOrder`, so mutated documents
(streams accumulate!) are re-indexed.  Queries are deterministic over the
current state; the AXML layer re-runs them as input trees arrive
(continuous queries, :class:`repro.axml.streams.IncrementalQuery`).

Compiling decides once what each evaluation would otherwise look up:
which function a call names, which test a step's candidates pass (a name
test is a tag compare), and the shortcuts below that skip work whose
result is already known.  None changes an answer or an error; where a
shortcut cannot be sure, the plain evaluation runs.

* **Ordered steps.**  A step along a forward axis (``child``,
  ``descendant``, ``descendant-or-self``, ``self``, ``attribute``,
  ``following-sibling``, ``parent``) from one context node gathers its
  nodes in document order without duplicates, so it is not sorted.
  ``descendant-or-self::node()/child::T`` — what ``//T`` abbreviates —
  runs as one ``descendant::T`` step when ``T`` has no predicate.
* **Columns of iterations.**  A FLWOR is loop-lifted: each variable it
  binds is a column with one item list per iteration, and each clause
  runs once over all iterations — a ``for`` turns every iteration into
  one per item of its source, a ``let`` adds a column, ``where`` yields a
  mask, ``order by`` a permutation and ``return`` one item list per
  iteration left.  Each operand gets a *lifted kernel* when its shape is
  covered (:meth:`_Compiler._lift`): a bound variable (its column), a
  path from one down child name tests, the last possibly ``text()``,
  without predicates (children read directly, tree noted once per
  parent), a general comparison of such an operand with a number in
  ``where``, and a direct constructor over such parts.  Any other
  operand runs its closure once per iteration, on a context that binds
  the iteration's variables, built the first time one is needed.
* **Invariant sources.**  A ``for`` source that reads no variable bound
  earlier in its FLWOR and is :func:`replayable` is evaluated once per
  FLWOR evaluation, not once per iteration.
* **Hash join.**  ``for $a in A, $b in B where L = R ...`` whose ``L``
  reads ``$a`` and ``R`` reads ``$b`` (either way round; both
  replayable), with ``B`` invariant and no ``at $j`` on ``$b``: ``R``'s
  keys are hashed once and probed with each ``$a``'s, each side's keys a
  column at a time.  The pairs come out in nested-loop order and run
  the rest of ``where``; a key that is not a string, or any XQuery
  error, discards the join and the clauses run from the start.

A plan evaluates in the order the definitions do: ``doc()`` reads are
counted, the first error raised is the one reported, and a run's
``DocumentOrder`` first ranks each tree where the definitions would,
which decides how nodes of different trees sort.  A kernel runs an
operand column by column only where at most one path in it can note a
tree or raise, so it notes and raises in the order row by row would.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..errors import XQueryError, XQueryEvaluationError, XQueryTypeError
from ..xmlcore.model import Element, Node, Text
from ..xmlcore.parser import name_end
from .ast import (
    BinaryOp, ComparisonOp, ComputedAttribute, ComputedElement, ComputedText,
    ContextItem, DirectElement, EnclosedExpr, FilterExpr, FLWORExpr, ForClause,
    FunctionCall, IfExpr, KindTest, Literal, Module, NameTest, NodeTest,
    PathExpr, Predicate, QuantifiedExpr, RangeExpr, Sequence, Step, UnaryOp,
    VarRef, XQNode,
)
from .functions import lookup_builtin
from .parser import parse_query
from .runtime import (
    XSD_DOUBLE, AttributeNode, DocumentOrder, Item, atomize, atomize_single,
    effective_boolean_value, general_compare, is_node, string_value,
    to_number, value_compare,
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
_TEXT = KindTest("text")

_is_double = XSD_DOUBLE.fullmatch

_CONSTRUCTORS = (DirectElement, ComputedElement, ComputedAttribute, ComputedText)

#: Zero-argument builtins that do not read the focus.
_FOCUS_FREE = frozenset({"true", "false", "fn:true", "fn:false"})

_GENERAL = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "div": operator.truediv, "idiv": lambda a, b: int(a / b),  # toward zero
    "mod": math.fmod,
}


class _DocumentNode(Element):
    """The document node a rooted path starts from.

    It holds the root element without adopting it (the root's ``parent``
    stays ``None``), so it is a tree of its own in document order: a step
    from it is always sorted.
    """

    __slots__ = ()


#: The classes of node items: ``is_node`` as a set lookup.
_NODE_TYPES = frozenset({Element, _DocumentNode, Text, AttributeNode})


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


def _flwor_shape(node: FLWORExpr, declared: FrozenSet[Tuple[str, int]]):
    """The indexes of the ``for`` clauses whose source is evaluated once
    per evaluation of ``node`` (the first, which sees one tuple, and every
    invariant one), and the hash join's equality with whether its left
    operand is the outer (``$a``) key, or ``None``."""
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
    if len(node.clauses) != 2 or 1 not in once or node.where is None:
        return once, None
    outer, inner = node.clauses
    if not isinstance(outer, ForClause) or inner.position_variable:
        return once, None
    test = node.where
    while isinstance(test, BinaryOp) and test.op == "and":
        test = test.left
    if not (isinstance(test, ComparisonOp) and test.op == "="):
        return once, None
    outer_names = {outer.variable, outer.position_variable} - {None}
    sides = []
    for side in (test.left, test.right):
        reads = set()
        if not replayable(side, set(), reads, declared):
            return once, None
        sides.append((
            bool(reads & outer_names) and inner.variable not in reads,  # outer key
            inner.variable in reads and not reads & outer_names,  # inner key
        ))
    (left_outer, left_inner), (right_outer, right_inner) = sides
    if left_outer and right_inner:
        return once, (test, True)
    if left_inner and right_outer:
        return once, (test, False)
    return once, None


class DynamicContext:
    """Evaluation-time state: variables, focus, resolver, document order.

    Builtins get the calling context.  A plan builds a run's first context
    (:meth:`_Plan.run`) and derives the others (per FLWOR iteration,
    predicate item, function call) with :func:`_frame`, field by field:
    the class has no constructor to run.  A context's ``variables`` are
    never changed once it is handed on, so contexts that differ only in
    focus share them.
    """

    __slots__ = (
        "variables", "context_item", "position", "size",
        "doc_resolver", "order", "depth",
    )

    def child(self) -> "DynamicContext":
        """A context like this one whose variables may be bound afresh."""
        return _frame(
            self, dict(self.variables), self.context_item, self.position,
            self.size, self.depth,
        )

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


def _frame(ctx: DynamicContext, variables, item, position, size, depth) -> DynamicContext:
    """A context sharing ``ctx``'s resolver and document order."""
    frame = DynamicContext()
    frame.variables, frame.context_item = variables, item
    frame.position, frame.size, frame.depth = position, size, depth
    frame.doc_resolver, frame.order = ctx.doc_resolver, ctx.order
    return frame


class _Loop:
    """The iterations of one FLWOR evaluation: a column per bound variable.

    ``columns`` maps each variable the FLWOR has bound so far to one item
    list per iteration (a ``for`` variable's holds its one item).  A loop
    is not changed once a kernel has seen it: binding a variable, keeping
    some iterations or reordering them makes a new one.  The operands no
    kernel covers run on :meth:`contexts`, built the first time one asks.
    """

    __slots__ = ("ctx", "columns", "size", "_contexts")

    def __init__(self, ctx: DynamicContext, columns: Dict[str, List[List[Item]]], size: int) -> None:
        self.ctx, self.columns, self.size = ctx, columns, size
        self._contexts: Optional[List[DynamicContext]] = None

    def contexts(self) -> List[DynamicContext]:
        """One context per iteration: the FLWOR's, its variables bound."""
        if self._contexts is None:
            ctx, columns = self.ctx, list(self.columns.items())
            contexts = [ctx] * self.size
            if columns:
                for row in range(self.size):
                    variables = {**ctx.variables}
                    for name, column in columns:
                        variables[name] = column[row]
                    contexts[row] = _frame(
                        ctx, variables, ctx.context_item, ctx.position, ctx.size, ctx.depth
                    )
            self._contexts = contexts
        return self._contexts

    def bind(self, name: str, at: Optional[str], results: List[List[Item]]) -> "_Loop":
        """A ``for`` clause: each row gives way to one row per item of its
        ``results`` entry, in order, ``$name`` bound to it (``$at`` to its
        position)."""
        rows: List[int] = []
        items: List[Item] = []
        positions: List[int] = []
        for row, found in enumerate(results):
            if found:
                count = len(found)
                rows += [row] * count
                items += found
                if at:
                    positions += range(1, count + 1)
        loop = self.select(rows)
        loop.columns[name] = [[item] for item in items]
        if at:
            loop.columns[at] = [[position] for position in positions]
        return loop

    def let(self, name: str, column: List[List[Item]]) -> "_Loop":
        """A ``let`` clause: ``$name`` bound to ``column``'s list per row."""
        return _Loop(self.ctx, {**self.columns, name: column}, self.size)

    def select(self, rows: Union[List[int], range]) -> "_Loop":
        """The iterations ``rows``, in that order."""
        return _Loop(
            self.ctx,
            {name: [column[row] for row in rows] for name, column in self.columns.items()},
            len(rows),
        )


Fn = Callable[[DynamicContext], List[Item]]
#: A path step: the context nodes and the context to the step's nodes.
StepFn = Callable[[List[Item], DynamicContext], List[Item]]
#: An operand over a FLWOR's iterations: one item list per iteration.
Kernel = Callable[[_Loop], List[List[Item]]]


class _Plan:
    """A module compiled once: its prolog variables and its body."""

    __slots__ = ("variables", "body")

    def __init__(self, module: Module) -> None:
        compiler = _Compiler(module)
        self.variables = [
            (var.name, None if var.value is None else compiler.expr(var.value))
            for var in module.variables
        ]
        self.body = compiler.expr(module.body)

    def run(self, variables, context_item, doc_resolver) -> List[Item]:
        ctx = DynamicContext()
        ctx.variables, ctx.context_item = dict(variables) if variables else {}, context_item
        ctx.position = ctx.size = None
        ctx.doc_resolver, ctx.order, ctx.depth = doc_resolver, DocumentOrder(), 0
        try:
            for name, value in self.variables:
                if value is not None:
                    ctx.variables[name] = value(ctx)
                elif name not in ctx.variables:
                    raise XQueryEvaluationError(f"external variable ${name} not bound")
            # a plan may hand back a bound variable's own list: return a copy
            return list(self.body(ctx))
        except RecursionError:
            # the closures recurse on the caller's stack, so how deep a
            # query may nest depends on how deep its caller already is
            raise XQueryEvaluationError(
                "query nests deeper than the Python stack left to it "
                f"(recursion limit {sys.getrecursionlimit()}; declared "
                f"functions nest at most {_MAX_RECURSION} calls deep)"
            ) from None


class _Compiler:
    """Compiles the expressions of one module to closures."""

    def __init__(self, module: Module) -> None:
        decls = {(decl.name, len(decl.params)): decl for decl in module.functions}
        self.declared = frozenset(decls)
        #: (name, arity) -> (parameters, compiled body); a call looks its
        #: callee up when it runs, so bodies may call each other.
        self.functions: Dict[Tuple[str, int], Tuple[Tuple[str, ...], Fn]] = {}
        for key, decl in decls.items():
            self.functions[key] = (decl.params, self.expr(decl.body))

    def expr(self, node: XQNode) -> Fn:
        compile_node = _COMPILERS.get(type(node))
        if compile_node is None:
            return _raiser(XQueryEvaluationError, f"cannot evaluate AST node {type(node).__name__}")
        return compile_node(self, node)

    # -- primaries and control ---------------------------------------------------
    def _literal(self, node: Literal) -> Fn:
        value = node.value
        return lambda ctx: [value]

    def _var_ref(self, node: VarRef) -> Fn:
        name = node.name

        def var_ref(ctx: DynamicContext) -> List[Item]:
            try:
                return ctx.variables[name]
            except KeyError:
                raise XQueryEvaluationError(f"unbound variable ${name}") from None
        return var_ref

    def _context_item(self, node: ContextItem) -> Fn:
        return lambda ctx: [ctx.require_context_item("'.'")]

    def _sequence(self, node: Sequence) -> Fn:
        parts = [self.expr(item) for item in node.items]

        def sequence(ctx: DynamicContext) -> List[Item]:
            result: List[Item] = []
            for part in parts:
                result += part(ctx)
            return result
        return sequence

    def _if(self, node: IfExpr) -> Fn:
        condition, then_branch, else_branch = map(
            self.expr, (node.condition, node.then_branch, node.else_branch)
        )
        return lambda ctx: (
            then_branch(ctx) if effective_boolean_value(condition(ctx)) else else_branch(ctx)
        )

    def _quantified(self, node: QuantifiedExpr) -> Fn:
        some = node.quantifier == "some"
        bindings = [(name, self.expr(source)) for name, source in node.bindings]
        condition = self.expr(node.condition)

        def recurse(index: int, scope: DynamicContext) -> bool:
            if index == len(bindings):
                return effective_boolean_value(condition(scope))
            name, source = bindings[index]
            for item in source(scope):
                inner = scope.child()
                inner.variables[name] = [item]
                if recurse(index + 1, inner) is some:
                    return some
            return not some
        return lambda ctx: [recurse(0, ctx)]

    # -- FLWOR -------------------------------------------------------------------
    def _flwor(self, node: FLWORExpr) -> Fn:
        once, join = _flwor_shape(node, self.declared)
        scope: Dict[str, bool] = {}
        clauses = []
        for index, clause in enumerate(node.clauses):
            if isinstance(clause, ForClause):
                clauses.append(self._for(clause, index, index in once, scope))
            else:
                clauses.append(_let(clause.variable, self._operand(clause.value, scope)))
                scope[clause.variable] = False
        where = self._test(node.where, scope) if node.where is not None else None
        order_by = self._order_by(node) if node.order_by else None
        return_expr = self._operand(node.return_expr, scope)
        hash_join = self._hash_join(node, *join) if join is not None else None

        def flwor(ctx: DynamicContext) -> List[Item]:
            sources: Dict[int, List[Item]] = {}
            loop = hash_join(ctx, sources) if hash_join is not None else None
            if loop is None:
                loop = _Loop(ctx, {}, 1)
                for clause in clauses:
                    loop = clause(loop, sources)
                if where is not None:
                    mask = where(loop)
                    if False in mask:
                        loop = loop.select([row for row, keep in enumerate(mask) if keep])
            if order_by is not None:
                loop = loop.select(order_by(loop))
            result: List[Item] = []
            for items in return_expr(loop):
                result += items
            return result
        return flwor

    def _for(self, clause: ForClause, index: int, is_once: bool, scope: Dict[str, bool]):
        """A ``for`` clause: its source per iteration, or once per FLWOR
        evaluation (on the FLWOR's context: the source reads no variable
        the FLWOR binds) when some iteration reaches it."""
        name, at = clause.variable, clause.position_variable
        if is_once:
            source = self.expr(clause.source)

            def bind(loop: _Loop, sources: Dict[int, List[Item]]) -> _Loop:
                if not loop.size:
                    return loop.bind(name, at, [])
                items = sources.get(index)
                if items is None:
                    items = sources[index] = source(loop.ctx)
                return loop.bind(name, at, [items] * loop.size)
        else:
            each = self._operand(clause.source, scope)

            def bind(loop: _Loop, sources: Dict[int, List[Item]]) -> _Loop:
                return loop.bind(name, at, each(loop))
        scope[name] = True
        if at:
            scope[at] = True
        return bind

    def _hash_join(self, node: FLWORExpr, test: ComparisonOp, outer_left: bool):
        """The iterations the nested loop keeps, with the inner keys hashed.

        The first outer row meets the inner rows in the nested loop's
        order, so every tree is first ranked where the nested loop would
        rank it; its inner keys fill the table that every later outer row
        probes.  Without a rest of ``where`` the keys are evaluated a
        column at a time (the inner rows', then the later outer rows');
        with one, a row at a time, the rest running on each pair whose
        keys share a string, in nested-loop order.  ``None`` when the
        nested loop must decide: a key that is not a string (only strings
        compare by plain equality) or any XQuery error.
        """
        outer, inner = node.clauses
        outer_scope = {outer.variable: True}
        if outer.position_variable:
            outer_scope[outer.position_variable] = True
        outer_side, inner_side = (test.left, test.right) if outer_left else (test.right, test.left)
        outer_key = _join_keys(self._operand(outer_side, outer_scope))
        inner_key = _join_keys(self._operand(inner_side, {inner.variable: True}))
        outer_source, inner_source = self.expr(outer.source), self.expr(inner.source)
        rest = None if node.where is test else self.expr(node.where)
        inner_name = inner.variable

        def hash_join(ctx: DynamicContext, sources: Dict[int, List[Item]]) -> Optional[_Loop]:
            items = sources[0] = outer_source(ctx)
            outers = _Loop(ctx, {}, 1).bind(outer.variable, outer.position_variable, [items])
            if not outers.size:
                return outers.bind(inner_name, None, [])
            items = sources[1] = inner_source(ctx)
            inners = _Loop(ctx, {}, 1).bind(inner_name, None, [items])
            if not inners.size:
                return outers.bind(inner_name, None, [[]] * outers.size)

            def passes(row: int, position: int) -> bool:
                if rest is None:
                    return True
                pair = outers.select([row])
                pair.columns[inner_name] = inners.columns[inner_name][position:position + 1]
                return effective_boolean_value(rest(pair.contexts()[0]))

            table: Dict[str, List[int]] = {}
            outer_rows: List[int] = []
            inner_rows: List[int] = []
            try:
                first = outers.select([0])
                probe = outer_key(first)[0] if outer_left else None
                position = 0
                while position < inners.size:
                    # a row at a time where a rest of ``where`` runs between
                    # keys; for ``R = L`` the first inner key comes alone
                    if rest is not None or not (outer_left or position):
                        stop = position + 1
                    else:
                        stop = inners.size
                    for keys in inner_key(inners.select(range(position, stop))):
                        if not (outer_left or position):
                            probe = outer_key(first)[0]
                        if keys is None or probe is None:
                            return None
                        for key in keys:
                            table.setdefault(key, []).append(position)
                        if not probe.isdisjoint(keys) and passes(0, position):
                            outer_rows += [0]
                            inner_rows += [position]
                        position += 1
                row, get = 1, table.get
                while row < outers.size:
                    stop = outers.size if rest is None else row + 1
                    for probe in outer_key(outers.select(range(row, stop))):
                        if probe is None:
                            return None
                        matched: Any = ()
                        for key in probe:
                            found = get(key, ())
                            matched = found if not matched else sorted({*matched, *found})
                        if rest is not None:
                            matched = [position for position in matched if passes(row, position)]
                        outer_rows += [row] * len(matched)
                        inner_rows += matched
                        row += 1
            except XQueryError:
                return None
            joined = outers.select(outer_rows)
            column = inners.columns[inner_name]
            joined.columns[inner_name] = [column[position] for position in inner_rows]
            return joined
        return hash_join

    def _order_by(self, node: FLWORExpr) -> Callable[[_Loop], List[int]]:
        """The rows in ``order by`` order.  The keys run row by row, each
        row's in turn, on the closures: atomizing a key may raise, so a
        lifted key's later rows must not run before an earlier row's
        atomization."""
        specs = [(self.expr(spec.key), spec.descending) for spec in node.order_by]

        def order_by(loop: _Loop) -> List[int]:
            decorated = [
                (row, [_sort_key(key(ctx)) for key, _ in specs])
                for row, ctx in enumerate(loop.contexts())
            ]
            # stable sort per key, honouring per-key direction
            for position in range(len(specs) - 1, -1, -1):
                decorated.sort(key=lambda entry: entry[1][position], reverse=specs[position][1])
            return [row for row, _ in decorated]
        return order_by

    # -- lifted kernels -----------------------------------------------------------
    def _operand(self, node: XQNode, scope: Dict[str, bool]) -> Kernel:
        """``node`` over a FLWOR's iterations: its lifted kernel, or its
        closure run once per iteration on that iteration's context."""
        return self._lift(node, scope) or _per_iteration(self.expr(node))

    def _lift(self, node: XQNode, scope: Dict[str, bool]) -> Optional[Kernel]:
        """The lifted kernel of ``node``, or ``None`` where none covers it:
        a variable the FLWOR binds (its column), a path from one
        (:meth:`_lift_path`), or a direct constructor over such parts."""
        if isinstance(node, VarRef) and node.name in scope:
            name = node.name
            return lambda loop: loop.columns[name]
        if isinstance(node, PathExpr):
            return self._lift_path(node, scope)
        if isinstance(node, DirectElement) and not node.attributes:
            return self._lift_element(node, scope)
        return None

    def _lift_element(self, node: DirectElement, scope: Dict[str, bool]) -> Optional[Kernel]:
        """A direct constructor without attributes whose enclosed parts are
        lifted variables and paths, at most one a path: column by column
        it then notes trees and raises errors in the order row by row
        would.  Each row's element copies its parts as the closure does."""
        content: List[Union[str, Kernel]] = []
        paths = 0
        for part in node.content:
            if isinstance(part, str):
                if part.strip():
                    content.append(part)
                continue
            expr = part.expr if isinstance(part, EnclosedExpr) else None
            kernel = self._lift(expr, scope) if isinstance(expr, (VarRef, PathExpr)) else None
            if kernel is None:
                return None
            content.append(kernel)
            paths += isinstance(expr, PathExpr)
        if paths > 1:
            return None
        tag = node.tag

        def direct_element(loop: _Loop) -> List[List[Item]]:
            columns = [part if isinstance(part, str) else part(loop) for part in content]
            built_all: List[List[Item]] = []
            for row in range(loop.size):
                built = Element(tag)
                for part in columns:
                    if type(part) is str:
                        built.append(Text(part))
                    else:
                        _append_sequence(built, part[row])
                built_all += [[built]]
            return built_all
        return direct_element

    def _lift_path(self, node: PathExpr, scope: Dict[str, bool]) -> Optional[Kernel]:
        """A relative path from a bound variable down child name tests
        (the last step possibly ``text()``), without predicates.

        A row whose start is one element walks the children directly: a
        chain of child steps from one node gathers nodes of one depth, so
        each step's nodes are in document order without duplicates.  The
        first step notes the tree, as ``axis_step`` would, unless the
        previous row's element had the same parent (its tree is ranked).
        Any other start (several items, a document node, an atomic value)
        runs the compiled steps, so it sorts, notes and raises as they do.
        """
        start, steps = node.start, node.steps
        if not (isinstance(start, VarRef) and start.name in scope) or not steps:
            return None
        tags: List[Optional[str]] = []
        for index, step in enumerate(steps):
            if not isinstance(step, Step) or step.axis != "child" or step.predicates:
                return None
            if isinstance(step.test, NameTest) and step.test.name != "*":
                tags.append(step.test.name)
            elif step.test == _TEXT and index == len(steps) - 1:
                tags.append(None)
            else:
                return None
        name, single = start.name, scope[start.name]
        first, later = tags[0], tags[1:]
        compiled = [self._step(step) for step in steps]

        def path(loop: _Loop) -> List[List[Item]]:
            ctx = loop.ctx
            out: List[List[Item]] = []
            ranked = None  # a parent whose children's tree is ranked
            for items in loop.columns[name]:
                if (single or len(items) == 1) and type(items[0]) is Element:
                    item = items[0]
                    if first is None:
                        found = [c for c in item.children if type(c) is Text]
                    else:
                        found = [c for c in item.children if type(c) is Element and c.tag == first]
                    if found:
                        parent = item.parent
                        if parent is None or parent is not ranked:
                            ctx.order.note(found[0])
                            ranked = parent
                    for tag in later:
                        if not found:
                            break
                        if tag is None:
                            found = [c for n in found for c in n.children if type(c) is Text]
                        else:
                            found = [
                                c for n in found for c in n.children
                                if type(c) is Element and c.tag == tag
                            ]
                else:
                    found = items
                    for step in compiled:
                        found = step(found, ctx)
                out += [found]
            return out
        return path

    def _test(self, node: XQNode, scope: Dict[str, bool]) -> Callable[[_Loop], List[bool]]:
        """``where``: one effective boolean value per iteration.  A general
        comparison of a lifted operand with a number runs
        :func:`_against_number` on each iteration's items."""
        if (
            isinstance(node, ComparisonOp) and node.op in _GENERAL
            and isinstance(node.right, Literal) and type(node.right.value) in (int, float)
        ):
            left = self._lift(node.left, scope)
            if left is not None:
                op, number = node.op, node.right.value
                return lambda loop: [_against_number(items, op, number) for items in left(loop)]
        operand = self._lift(node, scope)
        if operand is not None:
            return lambda loop: [effective_boolean_value(items) for items in operand(loop)]
        compiled = self.expr(node)
        # a row's effective boolean value may raise before the next row runs
        return lambda loop: [effective_boolean_value(compiled(ctx)) for ctx in loop.contexts()]

    # -- operators ------------------------------------------------------------------
    def _binary(self, node: BinaryOp) -> Fn:
        op = node.op
        left, right = self.expr(node.left), self.expr(node.right)
        if op in ("and", "or"):
            stop = op == "or"  # the left value that decides alone
            return lambda ctx: (
                [stop] if effective_boolean_value(left(ctx)) is stop
                else [effective_boolean_value(right(ctx))]
            )
        if op in ("union", "intersect", "except"):
            return lambda ctx: _set_op(op, left(ctx), right(ctx), ctx)
        return lambda ctx: _arithmetic(op, left(ctx), right(ctx))

    def _comparison(self, node: ComparisonOp) -> Fn:
        op = node.op
        left, right = self.expr(node.left), self.expr(node.right)
        if op in ("is", "<<", ">>"):
            return lambda ctx: _node_compare(op, left(ctx), right(ctx), ctx)
        if op in ("eq", "ne", "lt", "le", "gt", "ge"):
            return lambda ctx: value_compare(op, left(ctx), right(ctx))
        number = node.right.value if isinstance(node.right, Literal) else None
        if type(number) not in (int, float):
            return lambda ctx: [general_compare(op, left(ctx), right(ctx))]
        return lambda ctx: [_against_number(left(ctx), op, number)]

    def _range(self, node: RangeExpr) -> Fn:
        start, end = self.expr(node.start), self.expr(node.end)

        def range_expr(ctx: DynamicContext) -> List[Item]:
            first = atomize_single(start(ctx), "range start")
            last = atomize_single(end(ctx), "range end")
            if first is None or last is None:
                return []
            return list(range(int(to_number(first)), int(to_number(last)) + 1))
        return range_expr

    def _unary(self, node: UnaryOp) -> Fn:
        op, operand = node.op, self.expr(node.operand)

        def unary(ctx: DynamicContext) -> List[Item]:
            atom = atomize_single(operand(ctx), "unary operand")
            if atom is None:
                return []
            value = _arith_number(atom, op)
            return [-value if op == "-" else value]
        return unary

    # -- paths ---------------------------------------------------------------------
    def _path(self, node: PathExpr) -> Fn:
        steps: List[StepFn] = []
        raw, index = node.steps, 0
        while index < len(raw):
            step = raw[index]
            following = raw[index + 1] if index + 1 < len(raw) else None
            if (
                isinstance(step, Step) and step.axis == "descendant-or-self"
                and step.test == _ANY_NODE and not step.predicates
                and isinstance(following, Step) and following.axis == "child"
                and not following.predicates
            ):  # //T as descendant::T
                steps.append(_descendants(self._step(Step("descendant", following.test))))
                index += 1
            elif isinstance(step, Step):
                steps.append(self._step(step))
            else:
                steps.append(self._expression_step(step))
            index += 1
        if node.start is not None:
            start = self.expr(node.start)
        elif node.from_root:
            start = _root_start(bool(node.steps))
        else:
            start = _relative_start
        if len(steps) == 1:
            only = steps[0]
            return lambda ctx: only(start(ctx), ctx)

        def path(ctx: DynamicContext) -> List[Item]:
            current = start(ctx)
            for step in steps:
                current = step(current, ctx)
            return current
        return path

    def _step(self, step: Step) -> StepFn:
        axis, test = step.axis, step.test
        predicates = self._predicates(step.predicates)
        if (
            axis in ("child", "descendant") and isinstance(test, NameTest)
            and test.name != "*" and not predicates
        ):
            candidates = (_children_named if axis == "child" else _descendants_named)(test.name)
        else:
            candidates = _candidates(axis, _matcher(test, axis))
        ordered = axis in _ORDERED_AXES
        message = f"axis step '{axis}' applied to an atomic value"

        def axis_step(context_nodes: List[Item], ctx: DynamicContext) -> List[Item]:
            gathered: List[Item] = []
            for item in context_nodes:
                if type(item) not in _NODE_TYPES and not is_node(item):
                    raise XQueryTypeError(message)
                found = candidates(item)
                gathered += found if predicates is None else predicates(found, ctx)
            if ordered and len(context_nodes) == 1 and type(context_nodes[0]) is not _DocumentNode:
                if gathered:  # rank its tree now, as the sort would have
                    ctx.order.note(gathered[0])
                return gathered
            return ctx.order.sort_and_dedupe(gathered)
        return axis_step

    def _expression_step(self, expr: XQNode) -> StepFn:
        """A non-axis path segment, e.g. ``a/string()`` or ``a/(b|c)``:
        evaluated once per context item with the focus set; node results
        are merged in document order, atomic results keep arrival order
        (the spec allows atomics only as the final step)."""
        compiled = self.expr(expr)

        def expression_step(context_nodes: List[Item], ctx: DynamicContext) -> List[Item]:
            gathered: List[Item] = []
            size = len(context_nodes)
            for position, item in enumerate(context_nodes, start=1):
                gathered += compiled(_frame(ctx, ctx.variables, item, position, size, ctx.depth))
            nodes = [item for item in gathered if is_node(item)]
            if gathered and len(nodes) == len(gathered):
                return ctx.order.sort_and_dedupe(gathered)
            if nodes:
                raise XQueryTypeError("path step produced a mix of nodes and atomic values")
            return gathered
        return expression_step

    def _predicates(self, predicates: Tuple[Predicate, ...]):
        """The filter ``predicates`` apply in turn, or ``None`` for none."""
        if not predicates:
            return None
        filters = [_filter(self.expr(predicate.expr)) for predicate in predicates]
        if len(filters) == 1:
            return filters[0]

        def apply(items: List[Item], ctx: DynamicContext) -> List[Item]:
            for keep in filters:
                items = keep(items, ctx)
            return items
        return apply

    def _filter_expr(self, node: FilterExpr) -> Fn:
        base, predicates = self.expr(node.base), self._predicates(node.predicates)
        return base if predicates is None else lambda ctx: predicates(base(ctx), ctx)

    # -- functions and constructors ------------------------------------------------
    def _function_call(self, node: FunctionCall) -> Fn:
        name, key = node.name, (node.name, len(node.args))
        args = [self.expr(arg) for arg in node.args]
        if key in self.declared:
            functions, message = self.functions, f"recursion limit exceeded in {name}()"

            def call_declared(ctx: DynamicContext) -> List[Item]:
                values = [arg(ctx) for arg in args]
                if ctx.depth >= _MAX_RECURSION:
                    raise XQueryEvaluationError(message)
                params, body = functions[key]
                return body(_frame(ctx, dict(zip(params, values)), None, None, None, ctx.depth + 1))
            return call_declared
        builtin = lookup_builtin(name, len(args))
        if builtin is None:
            fail = _raiser(XQueryEvaluationError, f"unknown function {name}#{len(args)}")
            return lambda ctx: fail([arg(ctx) for arg in args])
        if len(args) == 1:
            only = args[0]
            return lambda ctx: builtin([only(ctx)], ctx)
        return lambda ctx: builtin([arg(ctx) for arg in args], ctx)

    def _direct_element(self, node: DirectElement) -> Fn:
        tag = node.tag
        attributes = [
            (attribute.name, [
                part if isinstance(part, str) else _joined(self.expr(part.expr))
                for part in attribute.value_parts
            ])
            for attribute in node.attributes
        ]
        content = [
            part if isinstance(part, str) else self.expr(part)
            for part in node.content if not isinstance(part, str) or part.strip()
        ]

        def direct_element(ctx: DynamicContext) -> List[Item]:
            built = Element(tag)
            for name, parts in attributes:
                built.set_attr(name, "".join(
                    part if isinstance(part, str) else part(ctx) for part in parts
                ))
            for part in content:
                if isinstance(part, str):
                    built.append(Text(part))
                else:
                    _append_sequence(built, part(ctx))
            return [built]
        return direct_element

    def _name(self, name: Union[str, XQNode], what: str) -> Callable[[DynamicContext], str]:
        if isinstance(name, str):
            return lambda ctx: name
        compiled = self.expr(name)

        def computed_name(ctx: DynamicContext) -> str:
            value = string_value(atomize_single(compiled(ctx), what, allow_empty=False))
            if not value or name_end(value, 0) != len(value):
                raise XQueryEvaluationError(f"{what} {value!r} is not an XML name (err:XQDY0074)")
            return value
        return computed_name

    def _computed_element(self, node: ComputedElement) -> Fn:
        name = self._name(node.name, "element name")
        content = self.expr(node.content) if node.content is not None else None

        def computed_element(ctx: DynamicContext) -> List[Item]:
            built = Element(name(ctx))
            if content is not None:
                _append_sequence(built, content(ctx))
            return [built]
        return computed_element

    def _computed_attribute(self, node: ComputedAttribute) -> Fn:
        name = self._name(node.name, "attribute name")
        text = _joined(self.expr(node.content)) if node.content is not None else None
        return lambda ctx: [AttributeNode(name(ctx), "" if text is None else text(ctx), None)]

    def _computed_text(self, node: ComputedText) -> Fn:
        if node.content is None:
            return lambda ctx: [Text("")]
        text = _joined(self.expr(node.content))
        return lambda ctx: [Text(text(ctx))]

    def _enclosed(self, node: EnclosedExpr) -> Fn:
        return self.expr(node.expr)


_COMPILERS: Dict[type, Callable[[_Compiler, Any], Fn]] = {
    Literal: _Compiler._literal,
    VarRef: _Compiler._var_ref,
    ContextItem: _Compiler._context_item,
    Sequence: _Compiler._sequence,
    IfExpr: _Compiler._if,
    QuantifiedExpr: _Compiler._quantified,
    FLWORExpr: _Compiler._flwor,
    BinaryOp: _Compiler._binary,
    ComparisonOp: _Compiler._comparison,
    RangeExpr: _Compiler._range,
    UnaryOp: _Compiler._unary,
    PathExpr: _Compiler._path,
    FilterExpr: _Compiler._filter_expr,
    FunctionCall: _Compiler._function_call,
    DirectElement: _Compiler._direct_element,
    ComputedElement: _Compiler._computed_element,
    ComputedAttribute: _Compiler._computed_attribute,
    ComputedText: _Compiler._computed_text,
    EnclosedExpr: _Compiler._enclosed,
}


# -- what the closures call ------------------------------------------------------

def _raiser(error: type, message: str) -> Callable[..., List[Item]]:
    def fail(*_: Any) -> List[Item]:
        raise error(message)
    return fail


def _against_number(items: List[Item], op: str, number: Union[int, float]) -> bool:
    """``general_compare`` against a number: a node's text is cast as
    ``to_number`` casts it, any other item compares as usual."""
    compare = _GENERAL[op]
    for item in items:
        if type(item) in _NODE_TYPES:
            text = string_value(item)
            if compare(float(text) if _is_double(text) else math.nan, number):
                return True
        elif general_compare(op, [item], [number]):
            return True
    return False


def _per_iteration(compiled: Fn) -> Kernel:
    """An operand no kernel covers: its closure on each iteration's context."""
    return lambda loop: [compiled(ctx) for ctx in loop.contexts()]


def _let(name: str, value: Kernel):
    return lambda loop, sources: loop.let(name, value(loop))


def _join_keys(value: Kernel) -> Callable[[_Loop], List[Optional[FrozenSet[str]]]]:
    """Per iteration, the atomized values of ``value``, or ``None`` if one
    is no string."""
    def keys(loop: _Loop) -> List[Optional[FrozenSet[str]]]:
        out: List[Optional[FrozenSet[str]]] = []
        for items in value(loop):
            atoms: Optional[List[str]] = []
            for item in items:
                if type(item) in _NODE_TYPES:
                    atoms += [string_value(item)]
                elif isinstance(item, str):
                    atoms += [item]
                else:
                    atoms = None
                    break
            out += [None if atoms is None else frozenset(atoms)]
        return out
    return keys


def _sort_key(items: List[Item]) -> Tuple:
    """An ``order by`` key: empty sorts least, then numbers, then strings."""
    atom = atomize_single(items, "order by key")
    if atom is None:
        return (0, 0, "")
    if isinstance(atom, bool):
        return (1, int(atom), "")
    if isinstance(atom, (int, float)):
        return (1, float(atom), "")
    return (2, 0, str(atom))


def _joined(compiled: Fn) -> Callable[[DynamicContext], str]:
    """The atomized values of ``compiled``, space-joined."""
    return lambda ctx: " ".join(string_value(atom) for atom in atomize(compiled(ctx)))


def _node_compare(op: str, left: List[Item], right: List[Item], ctx: DynamicContext) -> List[Item]:
    if len(left) != 1 or len(right) != 1 or not (is_node(left[0]) and is_node(right[0])):
        if not left or not right:
            return []
        raise XQueryTypeError(f"'{op}': operands must be single nodes")
    if op == "is":
        return [left[0] is right[0]]
    key_left, key_right = ctx.order.key(left[0]), ctx.order.key(right[0])
    return [key_left < key_right if op == "<<" else key_left > key_right]


def _set_op(op: str, left: List[Item], right: List[Item], ctx: DynamicContext) -> List[Item]:
    for item in left + right:
        if not is_node(item):
            raise XQueryTypeError(f"{op}: operands must be nodes")
    right_ids = {id(n) for n in right}
    if op == "union":
        combined = left + right
    elif op == "intersect":
        combined = [n for n in left if id(n) in right_ids]
    else:  # except
        combined = [n for n in left if id(n) not in right_ids]
    return ctx.order.sort_and_dedupe(combined)


def _arithmetic(op: str, left: List[Item], right: List[Item]) -> List[Item]:
    left_atom = atomize_single(left, f"left operand of '{op}'")
    right_atom = atomize_single(right, f"right operand of '{op}'")
    if left_atom is None or right_atom is None:
        return []
    a, b = _arith_number(left_atom, op), _arith_number(right_atom, op)
    if op not in _ARITHMETIC:
        raise XQueryEvaluationError(f"unknown arithmetic operator {op!r}")
    try:
        result = _ARITHMETIC[op](a, b)
    except ZeroDivisionError:
        raise XQueryEvaluationError(f"division by zero in '{op}'") from None
    if op != "div" and (
        (isinstance(a, int) and isinstance(b, int))
        or (isinstance(result, float) and result.is_integer())
    ):
        return [int(result)]
    return [result]


def _arith_number(atom: Any, op: str) -> Union[int, float]:
    if isinstance(atom, bool):
        raise XQueryTypeError(f"'{op}': boolean operand")
    if isinstance(atom, (int, float)):
        return atom
    value = to_number(atom)
    if math.isnan(value):
        raise XQueryTypeError(f"'{op}': cannot cast {str(atom)!r} to a number")
    return int(value) if value.is_integer() else value


def _root_start(has_steps: bool) -> Fn:
    def root_start(ctx: DynamicContext) -> List[Item]:
        item = ctx.require_context_item("rooted path")
        if isinstance(item, AttributeNode):
            anchor: Optional[Node] = item.owner
        elif isinstance(item, (Element, Text)):
            anchor = item
        else:
            raise XQueryTypeError("rooted path: context item is not a node")
        while anchor is not None and anchor.parent is not None:
            anchor = anchor.parent
        if anchor is None or not has_steps:
            return [] if anchor is None else [anchor]
        # XPath evaluates rooted paths from the *document node* above the
        # root element; the data model has none, so fabricate a transient
        # wrapper.  Appending to ``children`` directly leaves the real
        # root's parent pointer untouched.
        wrapper = _DocumentNode("#document")
        wrapper.children.append(anchor)
        return [wrapper]
    return root_start


def _relative_start(ctx: DynamicContext) -> List[Item]:
    return [ctx.require_context_item("relative path")]


def _descendants(step: StepFn) -> StepFn:
    """``descendant-or-self::node()/child::T`` as ``step``, i.e.
    ``descendant::T``: the same nodes, and the same trees ranked."""
    def descendants(context_nodes: List[Item], ctx: DynamicContext) -> List[Item]:
        for item in context_nodes:
            if type(item) not in _NODE_TYPES and not is_node(item):
                raise XQueryTypeError("axis step 'descendant-or-self' applied to an atomic value")
        # the skipped descendant-or-self step would have sorted every
        # context node (an attribute has none) and, under a document
        # node, its root element
        for item in context_nodes:
            if type(item) is not AttributeNode:
                ctx.order.note(item)
                if type(item) is _DocumentNode:
                    ctx.order.note(item.children[0])
        return step(context_nodes, ctx)
    return descendants


def _children_named(name: str) -> Callable[[Item], List[Item]]:
    """``child::name``: a tag compare over the children."""
    def children(node: Item) -> List[Item]:
        if type(node) is Element or type(node) is _DocumentNode:
            return [c for c in node.children if type(c) is Element and c.tag == name]
        return []
    return children


def _descendants_named(name: str) -> Callable[[Item], List[Item]]:
    """``descendant::name``: a tag compare over a pre-order walk.

    The stack is popped by ``del``, not ``list.pop()``: no call per node.
    """
    def descendants(node: Item) -> List[Item]:
        found: List[Item] = []
        if type(node) is not Element and type(node) is not _DocumentNode:
            return found
        stack = node.children[::-1]
        while stack:
            current = stack[-1]
            del stack[-1]
            if type(current) is Element:
                if current.tag == name:
                    found.append(current)
                if current.children:
                    stack += current.children[::-1]
        return found
    return descendants


def _matcher(test: NodeTest, axis: str) -> Optional[Callable[[Item], bool]]:
    """Whether a candidate on ``axis`` passes ``test``; ``None`` for all."""
    if isinstance(test, NameTest):
        name = test.name
        if axis == "attribute":
            return lambda node: isinstance(node, AttributeNode) and name in ("*", node.name)
        return lambda node: isinstance(node, Element) and name in ("*", node.tag)
    kind, name = test.kind, test.name
    if kind == "node":
        return None
    if kind == "text":
        return lambda node: isinstance(node, Text)
    if kind == "element":
        return lambda node: isinstance(node, Element) and name in (None, node.tag)
    return _raiser(XQueryEvaluationError, f"unsupported kind test {kind!r}")


def _candidates(axis: str, match: Optional[Callable[[Item], bool]]) -> Callable[[Item], List[Item]]:
    if match is None:
        return lambda node: _axis_nodes(axis, node)
    return lambda node: [c for c in _axis_nodes(axis, node) if match(c)]


def _axis_nodes(axis: str, node: Union[Node, AttributeNode]) -> List[Union[Node, AttributeNode]]:
    if isinstance(node, AttributeNode):
        if axis == "self":
            return [node]
        if axis not in ("parent", "ancestor", "ancestor-or-self") or node.owner is None:
            return []
        if axis == "parent":
            return [node.owner]
        ancestors = _axis_nodes("ancestor-or-self", node.owner)
        return [node] + ancestors if axis == "ancestor-or-self" else ancestors
    if axis == "self":
        return [node]
    if axis in ("ancestor", "ancestor-or-self", "parent"):
        out = [node] if axis == "ancestor-or-self" else []
        current = node.parent
        while current is not None:
            out.append(current)
            current = None if axis == "parent" else current.parent
        return out
    if not isinstance(node, Element) and axis in (
        "child", "descendant", "descendant-or-self", "attribute"
    ):
        return [node] if axis == "descendant-or-self" else []
    if axis == "child":
        return list(node.children)
    if axis in ("descendant", "descendant-or-self"):
        out = [node] if axis == "descendant-or-self" else []
        stack = list(reversed(node.children))
        while stack:
            current = stack.pop()
            out.append(current)
            if isinstance(current, Element):
                stack.extend(reversed(current.children))
        return out
    if axis == "attribute":
        return [AttributeNode(name, value, node) for name, value in sorted(node.attrs.items())]
    if axis in ("following-sibling", "preceding-sibling"):
        parent = node.parent
        if parent is None:
            return []
        index = parent.index_of(node)
        if axis == "following-sibling":
            return list(parent.children[index + 1:])
        return list(reversed(parent.children[:index]))
    raise XQueryEvaluationError(f"unsupported axis {axis!r}")


def _filter(test: Fn) -> Callable[[List[Item], DynamicContext], List[Item]]:
    """A predicate: each item in turn as the focus; a number keeps the
    item at that position, anything else its effective boolean value."""
    def keep(items: List[Item], ctx: DynamicContext) -> List[Item]:
        kept: List[Item] = []
        size = len(items)
        for position, item in enumerate(items, start=1):
            result = test(_frame(ctx, ctx.variables, item, position, size, ctx.depth))
            if len(result) == 1 and type(result[0]) is not bool and isinstance(result[0], (int, float)):
                if float(result[0]) == position:
                    kept.append(item)
            elif effective_boolean_value(result):
                kept.append(item)
        return kept
    return keep


def _append_sequence(parent: Element, items: List[Item]) -> None:
    """Copy nodes / stringify atomics into element content: adjacent
    atomic values are joined with single spaces, per the XQuery content
    construction rules."""
    pending: List[str] = []
    for item in items:
        if isinstance(item, (Element, Text)):
            if pending:
                parent.append(Text(" ".join(pending)))
                pending = []
            parent.append(item.copy())
        elif isinstance(item, AttributeNode):
            parent.set_attr(item.name, item.value)
        else:
            pending.append(string_value(item))
    if pending:
        parent.append(Text(" ".join(pending)))


class Evaluator:
    """Evaluates parsed queries (or query source text) to item sequences."""

    def __init__(self, doc_resolver: Optional[DocResolver] = None) -> None:
        self.doc_resolver = doc_resolver

    def evaluate(
        self,
        query: Union[str, Module, XQNode],
        variables: Optional[Dict[str, List[Item]]] = None,
        context_item: Optional[Item] = None,
    ) -> List[Item]:
        """Run a query; ``variables`` bind the prolog's external variables.

        Accepts source text, a parsed :class:`Module` (compiled on its
        first run, the plan kept on it), or a bare expression AST.
        Returns the result sequence (list of nodes / atomics).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, Module):
            return _Plan(Module((), (), query)).run(variables, context_item, self.doc_resolver)
        if query.plan is None:
            # a frozen node's cache slot, set once (see Module.plan)
            object.__setattr__(query, "plan", _Plan(query))
        return query.plan.run(variables, context_item, self.doc_resolver)


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
