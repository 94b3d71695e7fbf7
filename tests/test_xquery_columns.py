"""A FLWOR's lifted kernels change no answer, no error and no ranking.

Each operand a kernel covers (see :mod:`repro.xquery.evaluator`) is run
here against the same query with a ``[true()]`` predicate on every step
(and ``$x`` spelled ``($x)[true()]``): no kernel covers a predicate, so
that query runs each operand's closure once per iteration, as the
tuple-at-a-time plan did.  Every query ends in ``$e | $d``, which sorts
the two input trees by the order in which the run first ranked them; a
kernel that notes a tree the closures would not, or in another order,
shows there.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XQueryError, XQueryTypeError
from repro.xmlcore import Element, Text, parse, serialize
from repro.xquery import evaluate_query

#: Texts of the leaves: numbers, spellings outside xs:double, blanks.
TEXTS = ("1", "2", " 3 ", "1.5", "-1", "INF", "x", "1_000", "", "02")


@st.composite
def documents(draw):
    """``<r>`` with ``p`` children holding 0-3 leaves each (missing,
    repeated, empty and non-numeric ``n``, ``k`` and ``a/b``), some text."""
    root = Element("r")
    for _ in range(draw(st.integers(0, 5))):
        item = root.append(Element("p"))
        for tag in draw(st.lists(st.sampled_from(("n", "k", "a", "t")), max_size=3)):
            if tag == "t":
                item.append(Text(draw(st.sampled_from(TEXTS))))
                continue
            leaf = item.append(Element(tag))
            text = draw(st.sampled_from(TEXTS))
            if tag == "a":
                leaf = leaf.append(Element("b"))
            if text:
                leaf.append(Text(text))
    return root


@st.composite
def inputs(draw):
    """Two trees and ``$s``: their ``p`` elements in any order, never
    ranked before the query, now and then with roots or atomic values."""
    d, e = draw(documents()), draw(documents())
    items = d.children + e.children
    s = draw(st.lists(st.sampled_from(items), max_size=6)) if items else []
    if draw(st.booleans()):
        for extra in draw(st.lists(st.sampled_from((d, e, 1, "a")), max_size=2)):
            s.insert(draw(st.integers(0, len(s))), extra)
    return d, e, s


def _path(var, steps, forced):
    """``$var/step/...``, each step with ``[true()]`` when ``forced``."""
    if not steps:
        return f"({var})[true()]" if forced else var
    suffix = "[true()]" if forced else ""
    return var + "".join(f"/{step}{suffix}" for step in steps.split("/"))


#: A shape, its paths as ``{var:steps}``: ``{x:k/text()}`` is ``$x/k/text()``.
SHAPES = (
    "for $x in {S} return {x:}",
    "for $x in {S} return {x:k}",
    "for $x in {S} return {x:n/text()}",
    "for $x in {S} return {x:a/b}",
    "for $x in {S} return {x:a/b/text()}",
    "for $x in {S} return {x:p/k}",
    "for $x in {S} where {x:n} > 1 return {x:k}",
    "for $x in {S} where {x:n} = 1 return {x:}",
    "for $x in {S} where {x:a/b} <= 1.5 return {x:a}",
    "for $x in {S} where {x:n} != 2 return {x:n}",
    "for $x in {S} let $y := {x:k} where {x:n} >= 1 return {y:}",
    "for $x in {S} let $y := {x:a} return {y:b}",
    "for $x in {S} return <hit>{{{x:k/text()}}}</hit>",
    "for $x in {S} return <hit>{{{x:n}}} and {{{x:}}}</hit>",
    "for $x in {S} let $y := <hit>{{{x:k}}}</hit> return {y:k}",
    "for $x in {S} order by {x:n} return {x:}",
    "for $x at $i in {S} where {x:n} > 1 return ({i:}, {x:k})",
    "for $x in {S}, $y in {x:a} return {y:b/text()}",
    "for $a in {S}, $b in $e/p where {a:k} = {b:k} return {a:n}",
    "for $a in $d/p, $b in {S} where {b:n} = {a:n} return <j>{{{b:k}}}</j>",
    "for $a in {S}, $b in $e/p where {a:k} = {b:k} and {b:n} > 0 return {b:}",
)

#: Sources: unranked ``$s``, one tree, and iterations over two trees.
SOURCES = ("$s", "$d/p", "($e/p, $d/p)")


def _query(shape, source, forced):
    out, rest = "", shape
    while "{" in rest:
        head, _, tail = rest.partition("{")
        if tail.startswith("{"):  # an escaped brace of a constructor
            out, rest = out + head.replace("}}", "}") + "{", tail[1:]
            continue
        spec, _, rest = tail.partition("}")
        out += head.replace("}}", "}")
        if spec == "S":
            out += source
        else:
            var, _, steps = spec.partition(":")
            out += _path("$" + var, steps, forced)
    out += rest.replace("}}", "}")
    return f"({out}, $e | $d)"


def _outcome(query, d, e, s):
    """Input nodes by identity, constructed ones by serialization, atomic
    values by type and value, or the error's type and message."""
    inputs = set()
    for root in (d, e):
        stack = [root]
        while stack:
            node = stack.pop()
            inputs.add(id(node))
            stack.extend(getattr(node, "children", ()))
    try:
        items = evaluate_query(query, variables={"d": [d], "e": [e], "s": s})
    except XQueryError as exc:
        return (type(exc), str(exc))
    return [
        id(item) if id(item) in inputs
        else serialize(item) if isinstance(item, Element)
        else (type(item).__name__, repr(getattr(item, "value", item)))
        for item in items
    ]


class TestLiftedKernels:
    @given(inputs(), st.sampled_from(SHAPES), st.sampled_from(SOURCES))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_lifted_equals_closures(self, trees, shape, source):
        d, e, s = trees
        lifted = _query(shape, source, forced=False)
        closures = _query(shape, source, forced=True)
        assert _outcome(lifted, d, e, s) == _outcome(closures, d, e, s), lifted

    def test_shapes_spell_as_intended(self):
        assert _query(SHAPES[12], "$s", False) == (
            "(for $x in $s return <hit>{$x/k/text()}</hit>, $e | $d)"
        )
        assert _query(SHAPES[4], "$s", True) == (
            "(for $x in $s return $x/a[true()]/b[true()]/text()[true()], $e | $d)"
        )
        assert _query(SHAPES[0], "$s", True) == "(for $x in $s return ($x)[true()], $e | $d)"

    def test_the_first_row_with_a_child_ranks_its_tree(self):
        d, e = parse("<d><p/></d>"), parse("<e><p><k/></p></e>")
        # d's p has no k: only e's tree is ranked by the path, so e sorts first
        found = evaluate_query(
            "(for $x in $s return $x/k, $e | $d)",
            variables={"d": [d], "e": [e], "s": [d.children[0], e.children[0]]},
        )
        assert [item.tag for item in found] == ["k", "e", "d"]

    def test_rows_under_different_roots_rank_each_tree(self):
        d, e = parse("<d><p/></d>"), parse("<e><p/></e>")
        # two rows whose elements have no parent: neither vouches for the other
        found = evaluate_query(
            "(for $x in $s return $x/p, $e | $d)",
            variables={"d": [d], "e": [e], "s": [d, e]},
        )
        assert [item.tag for item in found] == ["p", "p", "d", "e"]

    def test_an_atomic_row_raises_the_steps_error(self):
        with pytest.raises(XQueryTypeError, match="axis step 'child' applied to an atomic value"):
            evaluate_query("for $x in (1, 2) where $x/n > 1 return $x")
