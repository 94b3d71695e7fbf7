"""Logical algebra for the XQuery subset.

A small relational-style plan language the optimizer can reason about
*without executing*: source scans, navigation, selection, ordering,
construction and aggregation.  Two uses:

* **explanation** — :func:`explain` renders the plan tree, making visible
  where a selection sits relative to navigation (what rule (11) moves);
* **estimation** — :meth:`LogicalPlan.estimate` propagates cardinalities
  and byte widths bottom-up from source statistics, giving the static
  cost model (:class:`repro.core.cost.CostEstimator`) a principled
  selectivity source instead of a flat default.

:func:`compile_query` lowers the supported AST shapes (single-``for``
FLWOR pipelines — the shape every query in the paper takes); anything
else raises :class:`~repro.errors.XQueryError` and callers fall back to
default statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..errors import XQueryError
from .ast import (
    ComparisonOp,
    FLWORExpr,
    ForClause,
    Module,
    PathExpr,
    Step,
    VarRef,
    XQNode,
    unparse,
)

__all__ = [
    "SourceStats",
    "Estimate",
    "LogicalPlan",
    "Scan",
    "Navigate",
    "Select",
    "OrderBy",
    "Construct",
    "Aggregate",
    "compile_query",
    "explain",
]

#: Default selectivity of one comparison predicate when nothing is known.
DEFAULT_PREDICATE_SELECTIVITY = 0.25


@dataclass(frozen=True)
class SourceStats:
    """What we know about a source document."""

    cardinality: int = 100        # items produced by the main navigation
    item_bytes: int = 100         # serialized bytes per item
    distinct_fraction: float = 1.0


@dataclass(frozen=True)
class Estimate:
    """Bottom-up estimate: items flowing, bytes per item."""

    cardinality: float
    item_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.cardinality * self.item_bytes


class LogicalPlan:
    """Base class for plan operators (a unary chain, source at the leaf).

    Non-leaf operators carry their child in an ``input`` field; use
    ``getattr(node, "input", None)`` to walk down to the :class:`Scan`.
    """

    def estimate(self, stats: SourceStats) -> Estimate:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def selectivity(self, stats: SourceStats) -> float:
        """End-to-end fraction of source bytes surviving the plan."""
        source_bytes = stats.cardinality * stats.item_bytes
        if source_bytes <= 0:
            return 1.0
        return min(1.0, self.estimate(stats).total_bytes / source_bytes)


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """The bound data source (the query's data parameter)."""

    variable: str

    def estimate(self, stats: SourceStats) -> Estimate:
        return Estimate(stats.cardinality, stats.item_bytes)

    def label(self) -> str:
        return f"Scan(${self.variable})"


@dataclass(frozen=True)
class Navigate(LogicalPlan):
    """A path step chain over each input item (e.g. ``//item``)."""

    input: LogicalPlan
    path: str
    #: expected children matched per input item (>=1 widens, <1 narrows)
    fanout: float = 1.0

    def estimate(self, stats: SourceStats) -> Estimate:
        inner = self.input.estimate(stats)
        return Estimate(inner.cardinality * self.fanout, inner.item_bytes)

    def label(self) -> str:
        return f"Navigate({self.path})"


@dataclass(frozen=True)
class Select(LogicalPlan):
    """A predicate (the σ of rule (11) / Example 1)."""

    input: LogicalPlan
    predicate: str
    predicate_selectivity: float = DEFAULT_PREDICATE_SELECTIVITY

    def estimate(self, stats: SourceStats) -> Estimate:
        inner = self.input.estimate(stats)
        return Estimate(
            inner.cardinality * self.predicate_selectivity, inner.item_bytes
        )

    def label(self) -> str:
        return f"Select[{self.predicate}]"


@dataclass(frozen=True)
class OrderBy(LogicalPlan):
    """Order-preserving; cardinality unchanged."""

    input: LogicalPlan
    keys: Tuple[str, ...]

    def estimate(self, stats: SourceStats) -> Estimate:
        return self.input.estimate(stats)

    def label(self) -> str:
        return f"OrderBy({', '.join(self.keys)})"


@dataclass(frozen=True)
class Construct(LogicalPlan):
    """The return clause: reshapes each item; width scales by ``shrink``."""

    input: LogicalPlan
    shape: str
    shrink: float = 1.0  # output bytes per item / input bytes per item

    def estimate(self, stats: SourceStats) -> Estimate:
        inner = self.input.estimate(stats)
        return Estimate(inner.cardinality, max(1.0, inner.item_bytes * self.shrink))

    def label(self) -> str:
        return f"Construct({self.shape})"


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """count/sum/... — collapses to a single small item."""

    input: LogicalPlan
    function: str

    def estimate(self, stats: SourceStats) -> Estimate:
        return Estimate(1.0, 16.0)

    def label(self) -> str:
        return f"Aggregate({self.function})"


# ---------------------------------------------------------------------------
# Compiler: supported AST shapes -> plan
# ---------------------------------------------------------------------------

def compile_query(module: Union[Module, XQNode], data_param: Optional[str] = None) -> LogicalPlan:
    """Lower a single-``for`` FLWOR pipeline to a logical plan.

    Supported: ``for $x in $d<path> (let ...)* (where pred)?
    (order by ...)? return shape``.  The let clauses are folded into the
    construct shape (they do not change cardinality).
    """
    body = module.body if isinstance(module, Module) else module
    if not isinstance(body, FLWORExpr):
        raise XQueryError("compile_query: only FLWOR bodies are supported")
    for_clauses = [c for c in body.clauses if isinstance(c, ForClause)]
    if len(for_clauses) != 1 or not isinstance(body.clauses[0], ForClause):
        raise XQueryError(
            "compile_query: exactly one leading 'for' clause is supported"
        )
    for_clause = for_clauses[0]
    variable, path_text, fanout = _analyze_source(for_clause.source, data_param)

    plan: LogicalPlan = Scan(variable)
    if path_text:
        plan = Navigate(plan, path_text, fanout)
    if body.where is not None:
        plan = Select(
            plan,
            unparse(body.where),
            _predicate_selectivity(body.where),
        )
    if body.order_by:
        plan = OrderBy(plan, tuple(unparse(s.key) for s in body.order_by))
    shape = unparse(body.return_expr)
    if _is_aggregate(body.return_expr):
        plan = Aggregate(plan, shape)
    else:
        plan = Construct(plan, shape, shrink=_shrink_of(body.return_expr))
    return plan


def _analyze_source(
    source: XQNode, data_param: Optional[str]
) -> Tuple[str, str, float]:
    if isinstance(source, VarRef):
        return source.name, "", 1.0
    if isinstance(source, PathExpr) and isinstance(source.start, VarRef):
        variable = source.start.name
        if data_param is not None and variable != data_param:
            raise XQueryError(
                f"compile_query: 'for' ranges over ${variable}, "
                f"expected ${data_param}"
            )
        # fanout heuristics: '//' widens, each named child step keeps ~1
        fanout = 1.0
        for step in source.steps:
            if isinstance(step, Step) and step.axis in (
                "descendant", "descendant-or-self"
            ):
                fanout *= 1.0  # descendants reach the items; Scan stats
                #               already count items, so no extra widening
        path_text = unparse(source)
        return variable, path_text, fanout
    raise XQueryError(
        "compile_query: 'for' source must be $var or $var/path"
    )


def _predicate_selectivity(predicate: XQNode) -> float:
    """Crude but monotone: equality is pickier than inequality ranges."""
    if isinstance(predicate, ComparisonOp):
        if predicate.op in ("=", "eq"):
            return 0.05
        if predicate.op in ("!=", "ne"):
            return 0.95
        return DEFAULT_PREDICATE_SELECTIVITY
    return DEFAULT_PREDICATE_SELECTIVITY


_AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


def _is_aggregate(expr: XQNode) -> bool:
    from .ast import FunctionCall

    return isinstance(expr, FunctionCall) and expr.name in _AGGREGATE_FUNCTIONS


def _shrink_of(expr: XQNode) -> float:
    """Does the return clause keep the whole item or a projection?"""
    if isinstance(expr, VarRef):
        return 1.0
    if isinstance(expr, PathExpr):
        return 0.3  # a sub-path of the item: keeps a fragment
    return 0.5  # constructed wrapper around fragments


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def explain(plan: LogicalPlan, stats: Optional[SourceStats] = None) -> str:
    """Render the operator chain top-down with cardinality estimates.

    Output looks like::

        Construct($i/n)        [~25 items, ~30B each]
          Select[$i/p > 3]     [~25 items, ~100B each]
            Navigate($d//item) [~100 items, ~100B each]
              Scan($d)         [~100 items, ~100B each]
    """
    stats = stats or SourceStats()
    lines: List[str] = []
    node: Optional[LogicalPlan] = plan
    depth = 0
    while node is not None:
        estimate = node.estimate(stats)
        label = "  " * depth + node.label()
        lines.append(
            f"{label:<36}[~{estimate.cardinality:.0f} items, "
            f"~{estimate.item_bytes:.0f}B each]"
        )
        node = getattr(node, "input", None)
        depth += 1
    return "\n".join(lines)
