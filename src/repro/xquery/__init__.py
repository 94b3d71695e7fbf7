"""XQuery subset engine: lexer, parser, evaluator, decomposition.

High-level facade is :class:`Query` — a parsed, named, possibly
parameterized query that can be evaluated against documents, shipped as
text (code shipping, rule (10) of the paper) and decomposed (rule
(11)).

>>> from repro.xquery import Query
>>> from repro.xmlcore import parse
>>> q = Query("for $i in $in//item where $i/price > 10 return $i/name",
...           params=("in",))
>>> doc = parse("<c><item><name>a</name><price>5</price></item>"
...             "<item><name>b</name><price>20</price></item></c>")
>>> [n.string_value() for n in q(doc)]
['b']
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import XQueryEvaluationError
from ..xmlcore.model import Node
from . import ast
from .ast import Module, XQNode, unparse
from .evaluator import DynamicContext, Evaluator, evaluate_query
from .parser import parse_expression, parse_query
from .runtime import (
    AttributeNode,
    DocumentOrder,
    Item,
    atomize,
    effective_boolean_value,
    string_value,
)
from .tokens import Lexer, Token, TokenType

__all__ = [
    "Query",
    "Decomposition",
    "push_selection",
    "free_variables",
    "ast",
    "Module",
    "XQNode",
    "unparse",
    "parse_query",
    "parse_expression",
    "Evaluator",
    "DynamicContext",
    "evaluate_query",
    "AttributeNode",
    "DocumentOrder",
    "Item",
    "atomize",
    "effective_boolean_value",
    "string_value",
    "Lexer",
    "Token",
    "TokenType",
]


class Query:
    """A named, parameterized query — the unit the paper ships between peers.

    ``params`` names the external variables (the service's formal
    parameters ``param1..paramn``); positional arguments to :meth:`run`
    bind them in order.  ``source`` round-trips: ``Query(q.source)``
    reproduces the query, which is exactly how peers exchange code.
    """

    def __init__(
        self,
        source: str,
        params: Sequence[str] = (),
        name: Optional[str] = None,
        doc_resolver=None,
    ) -> None:
        self._build(source, parse_query(source), params, name, doc_resolver)

    def _build(self, source, module, params, name, doc_resolver) -> None:
        self.source = source
        #: UTF-8 length of ``source``: the payload of shipping this query.
        self.source_bytes = len(source.encode("utf-8"))
        self.name = name
        self.module: Module = module
        self.params = self._with_externals(params)
        self._evaluator = Evaluator(doc_resolver)
        #: data parameter -> what :func:`push_selection` found for this
        #: query (a ``Decomposition``, or the refusal's message).
        self._splits: Dict[Optional[str], object] = {}

    def _with_externals(self, params: Sequence[str]) -> Tuple[str, ...]:
        """``params`` plus the prolog's ``external`` variables not among them."""
        merged = tuple(params)
        for variable in self.module.variables:
            if variable.value is None and variable.name not in merged:
                merged += (variable.name,)
        return merged

    @property
    def arity(self) -> int:
        return len(self.params)

    def copy(
        self,
        name: Optional[str],
        params: Optional[Sequence[str]] = None,
        doc_resolver=None,
    ) -> "Query":
        """A query over the *same parsed module*: nothing is parsed or
        compiled again (the module keeps its plan, see ``Module.plan``).

        ``name`` labels the copy; ``params`` (default: this query's)
        replaces the parameter list; ``doc()`` resolves through
        ``doc_resolver``.  A split depends on the module, the name and
        the parameters, so a copy that changes neither name nor
        parameters also shares what :func:`push_selection` found.
        """
        clone = Query.__new__(Query)
        clone.source = self.source
        clone.source_bytes = self.source_bytes
        clone.name = name
        clone.module = self.module
        clone.params = (
            self.params if params is None else clone._with_externals(params)
        )
        clone._evaluator = Evaluator(doc_resolver)
        same = name == self.name and clone.params == self.params
        clone._splits = self._splits if same else {}
        return clone

    def bind_resolver(self, doc_resolver) -> "Query":
        """Return a copy whose ``doc()`` resolves through ``doc_resolver``."""
        return self.copy(self.name, doc_resolver=doc_resolver)

    def run(
        self,
        *args: Union[Node, List[Item]],
        variables: Optional[Dict[str, List[Item]]] = None,
        context_item: Optional[Item] = None,
    ) -> List[Item]:
        """Evaluate with positional parameters bound to ``self.params``."""
        if len(args) > len(self.params):
            raise XQueryEvaluationError(
                f"query takes {len(self.params)} parameters, got {len(args)}"
            )
        bindings: Dict[str, List[Item]] = dict(variables or {})
        for name, value in zip(self.params, args):
            bindings[name] = value if isinstance(value, list) else [value]
        return self._evaluator.evaluate(
            self.module, variables=bindings, context_item=context_item
        )

    __call__ = run

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"Query({label!r}, params={list(self.params)})"


def _query_from_module(
    source: str, module: Module, params: Sequence[str], name: Optional[str]
) -> Query:
    """The query ``Query(source, params, name)`` without parsing ``source``:
    ``module`` must be what it parses to (see :mod:`.decompose`, which
    builds a query's module and text together)."""
    query = Query.__new__(Query)
    query._build(source, module, params, name, None)
    return query


# Imported after Query's definition: decompose builds Query instances.
from .decompose import (  # noqa: E402
    Decomposition,
    free_variables,
    push_selection,
)
