"""Query decomposition (paper Section 3.3, rule (11)).

Rule (11) says evaluation distributes over query composition: when
``q ≡ q1(q2, ..., qn)``, each ``qi`` may be evaluated wherever it is
cheapest.  The classic instance is Example 1 — *pushing selections*:
split ``q`` into an inner query ``q3 = σ(q2)`` (navigation + selection,
shipped to the peer hosting the data) and an outer query ``q1``
(construction / aggregation, run where the results are needed), so only
the selected subset crosses the network.

:func:`push_selection` performs that split on FLWOR queries whose first
``for`` clause ranges over the data parameter.  The contract, verified by
tests and property tests, is::

    outer(inner(d)) ≡ q(d)       for every document d

The other direction, ``q1(q2, ..., qn)``, needs no text of its own: a
rewrite rule composes structurally, by nesting query applications
(rule (16) builds ``QueryApply(q, (QueryApply(q1, params),))``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..errors import DecompositionError, XQuerySyntaxError
from . import Query, _query_from_module
from .ast import (
    DirectElement, EnclosedExpr, FLWORExpr, ForClause, Module, NameTest, PathExpr,
    Step, VarDecl, VarRef, XQNode, unparse,
)
from .evaluator import replayable
from .parser import MAX_NESTING

__all__ = ["Decomposition", "push_selection", "free_variables"]

#: Envelope tag wrapping the inner query's results so they travel as one tree.
ENVELOPE_TAG = "q-inner-result"

#: What the name of a query built here adds to the name of the query it
#: was built from (:func:`push_selection`: ``-inner`` / ``-outer``), any
#: number of times over.
DERIVED_SUFFIX = re.compile(r"(?:-inner|-outer)*")


@dataclass(frozen=True)
class Decomposition:
    """The outcome of a split: ``original ≡ outer ∘ inner``.

    ``inner`` takes the original data parameter and returns an envelope
    element; ``outer`` takes the envelope and produces the original result.
    """

    inner: Query
    outer: Query
    data_param: str


def free_variables(node: XQNode, bound: Optional[Set[str]] = None) -> Set[str]:
    """Variables read by ``node`` that are not bound inside it."""
    free: Set[str] = set()
    replayable(node, set(bound or ()), free)
    return free


def _first_for_clause(body: XQNode) -> Tuple[FLWORExpr, ForClause]:
    if not isinstance(body, FLWORExpr):
        raise DecompositionError(
            "can only decompose FLWOR queries (body is "
            f"{type(body).__name__})"
        )
    for clause in body.clauses:
        if isinstance(clause, ForClause):
            return body, clause
    raise DecompositionError("query has no 'for' clause to decompose around")


def _source_uses_param(source: XQNode, param: str) -> bool:
    if isinstance(source, VarRef):
        return source.name == param
    if isinstance(source, PathExpr) and source.start is not None:
        return _source_uses_param(source.start, param)
    return False


def push_selection(query: Query, data_param: Optional[str] = None) -> Decomposition:
    """Split ``query`` into selection (inner) and construction (outer).

    Requirements, checked and reported precisely on failure:

    * the body is a FLWOR whose first ``for`` ranges over a path rooted at
      the data parameter (``for $x in $d//items/item ...``);
    * a ``where`` clause exists and references only the ``for`` variable
      (plus literals/functions) — that is the pushable selection σ.

    The inner query keeps the navigation and the where clause and returns
    *copies of the matched bindings* wrapped in an envelope element; the
    outer query is the original minus the where clause, re-rooted at the
    envelope.  Per Example 1 of the paper, only the (typically small)
    selected subset is ever shipped.

    The verdict is remembered on ``query``: the rewrite rules ask again
    at every plan that still applies it.  A refusal is kept as its
    message and raised fresh — a stored exception would carry, and keep
    alive, the traceback of every frame that ever caught it.
    """
    verdict = query._splits.get(data_param)
    if verdict is None:
        try:
            verdict = _split(query, data_param)
        except DecompositionError as refusal:
            verdict = refusal.args
        query._splits[data_param] = verdict
    if isinstance(verdict, tuple):
        raise DecompositionError(*verdict)
    return verdict


def _split(query: Query, data_param: Optional[str]) -> Decomposition:
    if data_param is None:
        if not query.params:
            raise DecompositionError("query has no parameters")
        data_param = query.params[0]
    if data_param not in query.params:
        raise DecompositionError(f"unknown parameter ${data_param}")

    body = query.module.body
    flwor, for_clause = _first_for_clause(body)
    if flwor.clauses[0] is not for_clause:
        raise DecompositionError(
            "the decomposable 'for' must be the first FLWOR clause"
        )
    if not _source_uses_param(for_clause.source, data_param):
        raise DecompositionError(
            f"the first 'for' clause does not range over ${data_param}"
        )
    if flwor.where is None:
        raise DecompositionError("query has no 'where' clause to push")

    where_free = free_variables(flwor.where)
    allowed = {for_clause.variable}
    if for_clause.position_variable:
        allowed.add(for_clause.position_variable)
    leaked = where_free - allowed
    if leaked:
        raise DecompositionError(
            "where clause references variables other than the 'for' "
            f"binding: {sorted(leaked)}"
        )
    if for_clause.position_variable and for_clause.position_variable in where_free:
        raise DecompositionError(
            "positional predicates cannot be pushed (position changes "
            "after selection)"
        )

    # Text rendered by unparse nests at most two levels per AST level
    # below its module.  The inner module is two levels deeper than this
    # query's (its FLWOR sits in <envelope>{ }), the outer no deeper than
    # this query's or six (its envelope path): only the text of a deep
    # query could nest past the parser's limit, so only that is parsed.
    fits = 2 * (max(_levels(query.module) + 2, 6) - 1) <= MAX_NESTING
    var = for_clause.variable
    data_var = (VarDecl(data_param, None),)
    inner_flwor = FLWORExpr(
        (ForClause(var, for_clause.source),), flwor.where, (), VarRef(var)
    )
    inner_module = Module(
        data_var, (), DirectElement(ENVELOPE_TAG, (), (EnclosedExpr(inner_flwor),))
    )
    inner_source = (
        f"declare variable ${data_param} external;\n"
        f"<{ENVELOPE_TAG}>{{ for ${var} in {unparse(for_clause.source)} "
        f"where {unparse(flwor.where)} return ${var} }}</{ENVELOPE_TAG}>"
    )
    inner = _derived(
        inner_source, inner_module, (data_param,), f"{query.name or 'q'}-inner", fits
    )

    outer_flwor = FLWORExpr(
        clauses=(
            ForClause(var, _envelope_path(data_param), for_clause.position_variable),
        ) + tuple(clause for clause in flwor.clauses if clause is not for_clause),
        where=None,
        order_by=flwor.order_by,
        return_expr=flwor.return_expr,
    )
    outer_module = Module(
        variables=data_var + tuple(
            v for v in query.module.variables if v.name != data_param
        ),
        functions=query.module.functions,
        body=outer_flwor,
    )
    outer = _derived(
        unparse(outer_module), outer_module, query.params, f"{query.name or 'q'}-outer", fits
    )
    return Decomposition(inner=inner, outer=outer, data_param=data_param)


def _derived(source: str, module: Module, params, name: str, fits: bool) -> Query:
    """The query ``source``, which parses to ``module``: parsed only
    unless it ``fits`` under the parser's limit, and refused if it does
    not parse."""
    if fits:
        return _query_from_module(source, module, params, name)
    try:
        return Query(source, params=params, name=name)
    except XQuerySyntaxError as error:
        raise DecompositionError(f"the {name} query would not parse: {error}") from None


def _levels(node: XQNode) -> int:
    """AST nodes on the longest path down from ``node``."""
    deepest = 0
    for value in node.__dict__.values():
        for entry in value if type(value) is tuple else (value,):
            if type(entry) is tuple:  # a quantifier's (variable, source)
                entry = entry[1]
            if isinstance(entry, XQNode):
                below = _levels(entry)
                if below > deepest:
                    deepest = below
    return deepest + 1


def _envelope_path(data_param: str) -> XQNode:
    """AST for ``$param/*`` — iterate the envelope's children."""
    return PathExpr(VarRef(data_param), (Step("child", NameTest("*")),))
