"""One XML form per E constructor: the element, the size and the digest are folds of it.

``core.serialize`` once spelled an expression's XML twice: ``to_xml`` /
``_dest_to_xml`` built it, and ``_digest`` / ``_dest_tokens`` restated
every field as hash tokens; ``expression_size`` built the whole element
to measure it.  The four functions below are those spellings, copied
verbatim from the module as it was before the form table replaced them
(the reference keeps its digests under its own ``__dict__`` keys, so the
two never read each other's).  On the expressions of
``TestXMLSerialization.CASES`` and on every node of every candidate
scored in generated plan searches:

* ``serialize(to_xml(e))`` is the reference's text, byte for byte;
* ``expression_size(e)`` is that text's UTF-8 length;
* in both digest slots, two nodes fingerprint equal iff the reference
  fingerprints them equal.

Tier-1 runs a slice of ``scripts/golden.py``'s search protocol; ``-m
generated`` runs all 272 searches.
"""

import importlib.util
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.core import serialize as forms
from repro.core.expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    FragmentedDoc,
    Gather,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
    walk,
)
from repro.core.strategies import SearchSpace
from repro.errors import ExpressionError
from repro.xmlcore import parse, serialize
from repro.xmlcore.model import Element, element
from repro.xmlcore.serializer import escape_attr
from repro.xquery import Query

import test_core_expressions

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"

# ---------------------------------------------------------------------------
# The two spellings the form table replaced, verbatim (slot keys aside).
# ---------------------------------------------------------------------------

_DIGEST = "_reference_digest"
_WIDTH_DIGEST = "_reference_width_digest"


def to_xml(expr: Expression) -> Element:
    """Serialize an expression into its XML-tree form."""
    if isinstance(expr, TreeExpr):
        node = element("x-tree", attrs={"home": expr.home})
        node.append(expr.tree.copy())
        return node
    if isinstance(expr, DocExpr):
        return element("x-doc", attrs={"name": expr.name, "home": expr.home})
    if isinstance(expr, GenericDoc):
        return element("x-doc", attrs={"name": expr.name, "home": ANY})
    if isinstance(expr, FragmentedDoc):
        return element("x-fragdoc", attrs={"name": expr.name})
    if isinstance(expr, Gather):
        node = element("x-gather")
        for part in expr.parts:
            node.append(to_xml(part))
        return node
    if isinstance(expr, QueryRef):
        node = element(
            "x-query",
            expr.query.source,
            attrs={
                "home": expr.home,
                "params": " ".join(expr.query.params),
                **({"name": expr.query.name} if expr.query.name else {}),
            },
        )
        return node
    if isinstance(expr, GenericService):
        return element("x-service", attrs={"name": expr.name, "home": ANY})
    if isinstance(expr, QueryApply):
        node = element("x-apply")
        node.append(to_xml(expr.query))
        args = element("x-args")
        for arg in expr.args:
            args.append(to_xml(arg))
        node.append(args)
        return node
    if isinstance(expr, ServiceCallExpr):
        node = element(
            "x-sc", attrs={"provider": expr.provider, "service": expr.service}
        )
        params = element("x-params")
        for param in expr.params:
            params.append(to_xml(param))
        node.append(params)
        for target in expr.forwards:
            node.append(element("x-forw", str(target)))
        return node
    if isinstance(expr, Send):
        node = element("x-send")
        node.append(_dest_to_xml(expr.dest))
        if expr.via:
            node.set_attr("via", " ".join(expr.via))
        node.append(to_xml(expr.payload))
        return node
    if isinstance(expr, EvalAt):
        node = element("x-eval", attrs={"peer": expr.peer})
        node.append(to_xml(expr.expr))
        return node
    if isinstance(expr, Seq):
        node = element("x-seq")
        for step in expr.steps:
            node.append(to_xml(step))
        return node
    raise ExpressionError(f"cannot serialize {type(expr).__name__}")


def _dest_to_xml(dest) -> Element:
    if isinstance(dest, PeerDest):
        return element("x-dest", attrs={"kind": "peer", "peer": dest.peer})
    if isinstance(dest, NodesDest):
        node = element("x-dest", attrs={"kind": "nodes"})
        for target in dest.nodes:
            node.append(element("x-node", str(target)))
        return node
    if isinstance(dest, DocDest):
        return element(
            "x-dest", attrs={"kind": "doc", "name": dest.name, "peer": dest.peer}
        )
    raise ExpressionError(f"cannot serialize destination {type(dest).__name__}")


def _digest(expr: Expression, slot: str) -> str:
    """The digest kept under ``slot``, computed (and kept, once sealed)."""
    known = expr.__dict__.get(slot)
    if known is not None:
        return known
    parts: tuple = ()
    sealed = True
    if isinstance(expr, TreeExpr):
        tokens = ["x-tree", expr.home, expr.tree.content_fingerprint()]
        sealed = expr.tree.frozen
    elif isinstance(expr, DocExpr):
        tokens = ["x-doc", expr.name, expr.home]
    elif isinstance(expr, GenericDoc):
        tokens = ["x-doc", expr.name, ANY]
    elif isinstance(expr, FragmentedDoc):
        tokens = ["x-fragdoc", expr.name]
    elif isinstance(expr, Gather):
        parts = expr.parts
        tokens = ["x-gather", str(len(parts))]
    elif isinstance(expr, QueryRef):
        name = expr.query.name or ""
        if name and slot == _WIDTH_DIGEST:
            name = str(len(escape_attr(name).encode("utf-8")))
        tokens = [
            "x-query",
            expr.home,
            " ".join(expr.query.params),
            name,
            expr.query.source,
        ]
    elif isinstance(expr, GenericService):
        tokens = ["x-service", expr.name, ANY]
    elif isinstance(expr, QueryApply):
        parts = (expr.query,) + expr.args
        tokens = ["x-apply", str(len(expr.args))]
    elif isinstance(expr, ServiceCallExpr):
        parts = expr.params
        tokens = ["x-sc", expr.provider, expr.service, str(len(parts))]
        tokens.extend([str(target) for target in expr.forwards])
    elif isinstance(expr, Send):
        parts = (expr.payload,)
        tokens = ["x-send", " ".join(expr.via), *_dest_tokens(expr.dest)]
    elif isinstance(expr, EvalAt):
        parts = (expr.expr,)
        tokens = ["x-eval", expr.peer]
    elif isinstance(expr, Seq):
        parts = expr.steps
        tokens = ["x-seq", str(len(parts))]
    else:
        raise ExpressionError(f"cannot fingerprint {type(expr).__name__}")
    for part in parts:
        tokens.append(_digest(part, slot))
        if slot not in part.__dict__:
            sealed = False
    digest = blake2b(
        "\x00".join(tokens).encode("utf-8"), digest_size=12
    ).hexdigest()
    if sealed:
        expr.__dict__[slot] = digest
    return digest


def _dest_tokens(dest) -> list:
    if isinstance(dest, PeerDest):
        return ["x-dest", "peer", dest.peer]
    if isinstance(dest, NodesDest):
        return ["x-dest", "nodes", *[str(n) for n in dest.nodes]]
    if isinstance(dest, DocDest):
        return ["x-dest", "doc", dest.name, dest.peer]
    raise ExpressionError(
        f"cannot fingerprint destination {type(dest).__name__}"
    )


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

SLOTS = ((False, _DIGEST), (True, _WIDTH_DIGEST))


def check_text_and_size(expr):
    text = serialize(to_xml(expr))
    assert serialize(forms.to_xml(expr)) == text, expr.describe()
    assert forms.expression_size(expr) == len(text.encode("utf-8")), expr.describe()


def check_partition(nodes):
    """In both slots: new digests equal exactly where the reference's are."""
    for name_widths, slot in SLOTS:
        new, reference = {}, {}
        for node in nodes:
            new.setdefault(forms.expression_fingerprint(node, name_widths), set()).add(id(node))
            reference.setdefault(_digest(node, slot), set()).add(id(node))
        assert sorted(map(sorted, new.values())) == sorted(map(sorted, reference.values()))


def scored_nodes(searches, monkeypatch):
    """Every node of every candidate the searches score, once each."""
    nodes = {}
    real = SearchSpace.score

    def score(space, plan, strict=False):
        for node in walk(plan.expr):
            nodes.setdefault(id(node), node)
        return real(space, plan, strict)

    monkeypatch.setattr(SearchSpace, "score", score)
    golden = _golden()
    for _key, session, query in searches(golden):
        golden.explain(session, query)
    return list(nodes.values())


def _golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep(nodes):
    assert len(nodes) > 100
    for node in nodes:
        check_text_and_size(node)
    check_partition(nodes)


# ---------------------------------------------------------------------------


CASES = test_core_expressions.TestXMLSerialization.CASES


@pytest.mark.parametrize("expr", CASES, ids=lambda e: type(e).__name__)
def test_each_case_writes_and_sizes_as_the_reference(expr):
    for node in walk(expr):
        check_text_and_size(node)


def test_the_cases_partition_as_the_reference():
    nodes = [node for expr in CASES for node in walk(expr)]
    # equal rebuilds and differently labelled queries of equal width, so
    # the partition has classes of more than one node in both slots
    nodes += [QueryRef(Query("count($d)", params=("d",), name=name), "p0") for name in "abc"]
    nodes += [DocExpr("d", "p1"), TreeExpr(parse("<a><b>1</b></a>"), "p1")]
    check_partition(nodes)


def test_a_sweep_of_generated_searches(monkeypatch):
    def first_scenarios(golden):
        """Every family at content seed 7, scenarios 0 and 1."""
        for key, session, query in golden.search_protocol():
            if "@7#0/" in key or "@7#1/" in key:
                yield key, session, query

    _sweep(scored_nodes(first_scenarios, monkeypatch))


@pytest.mark.generated
def test_every_search_of_the_golden_protocol(monkeypatch):
    _sweep(scored_nodes(lambda golden: golden.search_protocol(), monkeypatch))


def test_a_node_over_an_unfrozen_literal_keeps_nothing():
    tree = parse("<a><b>x</b></a>")
    literal = TreeExpr(tree, "p1")
    outer = EvalAt("p2", QueryApply(QueryRef(Query("1"), "p0"), (literal,)))
    kept = ("_size", "_digest", "_width_digest")

    def facts():
        check_text_and_size(outer)
        return [forms.expression_fingerprint(outer, widths) for widths in (False, True)]

    before = facts()
    over = [node for node in walk(outer) if literal in walk(node)]
    assert len(over) == 3
    assert not any(key in node.__dict__ for node in over for key in kept)
    tree.append(parse("<c/>"))
    after = facts()
    assert after != before
    assert not any(key in node.__dict__ for node in over for key in kept)
    # the query, beside the literal, is sealed and keeps what it was asked
    assert "_digest" in outer.expr.query.__dict__
    tree.freeze()
    assert facts() == after
    assert all(key in node.__dict__ for node in over for key in kept)


def test_an_unknown_constructor_is_an_expression_error():
    with pytest.raises(ExpressionError, match="no XML form for str"):
        forms.to_xml("x")
    with pytest.raises(ExpressionError, match="no XML form for int"):
        forms.to_xml(Send(1, DocExpr("d", "p")))
