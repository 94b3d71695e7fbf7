"""Property-based tests (hypothesis) over the library's core invariants.

Each of these invariants gets a strategy-driven test here:
parse∘serialize identity, canonical-form order independence, rewrite-rule
state equivalence over random system states, byte-accurate send
accounting, XQuery path result ordering, decomposition correctness, and
simulator clock monotonicity.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DocExpr,
    EvalAt,
    Plan,
    PushSelection,
    QueryApply,
    QueryDelegation,
    QueryRef,
    check_equivalence,
    measure,
)
from repro.net import Message, MessageKind, Network
from repro.peers import AXMLSystem
from repro.xmlcore import (
    Element,
    Text,
    canonical_form,
    element,
    equivalent,
    parse,
    serialize,
)
from repro.xquery import Query, evaluate_query
from repro.xquery.decompose import push_selection
from repro.xquery.runtime import DocumentOrder

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

tag_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'", max_size=12
)
text_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&", min_size=1, max_size=16
)


@st.composite
def xml_trees(draw, max_depth=3):
    """Random XML trees: elements with attributes, text, children."""
    tag = draw(tag_names)
    attrs = draw(
        st.dictionaries(tag_names, attr_values, max_size=2)
    )
    node = Element(tag, attrs)
    if max_depth > 0:
        children = draw(
            st.lists(
                st.one_of(
                    xml_trees(max_depth=max_depth - 1),
                    text_values.map(Text),
                ),
                max_size=3,
            )
        )
        for child in children:
            node.append(child)
    return node


@st.composite
def data_centric_trees(draw, max_depth=3):
    """Trees with at most one text child per element (no mixed content).

    The unordered-tree model is only order-independent for data-centric
    documents: interleaved text runs merge differently under reordering,
    so the shuffle property is stated on this class (which is also the
    class the paper's applications use).
    """
    tag = draw(tag_names)
    node = Element(tag, draw(st.dictionaries(tag_names, attr_values, max_size=2)))
    if max_depth > 0:
        for child in draw(
            st.lists(data_centric_trees(max_depth=max_depth - 1), max_size=3)
        ):
            node.append(child)
    if not node.children and draw(st.booleans()):
        node.append(Text(draw(text_values)))
    return node


@st.composite
def catalogs(draw):
    """Catalog documents with integer prices, for query properties."""
    prices = draw(st.lists(st.integers(0, 100), min_size=0, max_size=15))
    root = element("catalog")
    for index, price in enumerate(prices):
        root.append(
            element(
                "item",
                element("name", f"n{index}"),
                element("price", str(price)),
            )
        )
    return root


@st.composite
def small_tag_trees(draw, max_depth=3):
    """Trees over three tags with attributes and text, so name tests hit."""
    node = Element(
        draw(st.sampled_from("abc")),
        draw(st.dictionaries(st.sampled_from("xy"), st.sampled_from("01"), max_size=2)),
    )
    if max_depth > 0:
        for child in draw(
            st.lists(
                st.one_of(small_tag_trees(max_depth=max_depth - 1), text_values.map(Text)),
                max_size=3,
            )
        ):
            node.append(child)
    return node


#: Every axis, forward and reverse, plus ``//`` with and without a
#: predicate (a predicate keeps it two steps).
PATH_STEPS = (
    "child::*", "child::node()", "descendant::a", "descendant-or-self::node()",
    "self::node()", "attribute::*", "following-sibling::*", "parent::node()",
    "ancestor::*", "ancestor-or-self::node()", "preceding-sibling::node()",
    "descendant-or-self::node()/b", "descendant-or-self::node()/b[1]",
    "descendant-or-self::node()/*[@x]", ".//b", ".//*[2]",
)


# ---------------------------------------------------------------------------
# XML substrate invariants
# ---------------------------------------------------------------------------

class TestXMLRoundTrip:
    @given(xml_trees())
    @settings(max_examples=60)
    def test_parse_serialize_identity(self, tree):
        assert equivalent(parse(serialize(tree)), tree, strip_whitespace=False)

    @given(xml_trees())
    @settings(max_examples=60)
    def test_double_serialize_stable(self, tree):
        once = serialize(tree)
        assert serialize(parse(once)) == once

    @given(xml_trees())
    @settings(max_examples=40)
    def test_copy_is_equivalent_and_detached(self, tree):
        clone = tree.copy()
        assert equivalent(clone, tree, strip_whitespace=False)
        clone.attrs["__mutated"] = "1"
        assert "__mutated" not in tree.attrs


class TestCanonicalForm:
    @given(data_centric_trees(), st.randoms())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_order_independence(self, tree, rng):
        shuffled = tree.copy()
        stack = [shuffled]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                rng.shuffle(node.children)
                stack.extend(node.element_children)
        assert canonical_form(shuffled) == canonical_form(tree)

    @given(xml_trees())
    @settings(max_examples=40)
    def test_mutation_changes_form(self, tree):
        before = canonical_form(tree)
        tree.append(element("uniquely-new-child", "x"))
        assert canonical_form(tree) != before


# ---------------------------------------------------------------------------
# Network invariants
# ---------------------------------------------------------------------------

class TestNetworkProperties:
    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=20),
        st.floats(0.001, 0.5),
        st.floats(1_000.0, 1e7),
    )
    @settings(max_examples=40)
    def test_clock_monotone_and_bytes_exact(self, sizes, latency, bandwidth):
        net = Network()
        net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
        clock = 0.0
        total = 0
        for size in sizes:
            message = Message("a", "b", MessageKind.DATA, size)
            arrival = net.deliver(message, 0.0)
            assert arrival >= clock - 1e-9  # FIFO: arrivals never regress
            clock = arrival
            total += message.size
        assert net.stats.bytes == total
        assert net.stats.messages == len(sizes)

    @given(st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=25)
    def test_route_symmetry_on_mesh(self, i, j):
        from repro.net import topology
        peers = [f"p{k}" for k in range(5)]
        net = topology.full_mesh(peers)
        assert len(net.route(peers[i], peers[j])) == (0 if i == j else 1)


# ---------------------------------------------------------------------------
# XQuery invariants
# ---------------------------------------------------------------------------

class TestXQueryProperties:
    @given(catalogs(), st.integers(0, 100))
    @settings(max_examples=40)
    def test_selection_subset_of_scan(self, catalog, threshold):
        all_items = evaluate_query("//item", context_item=catalog)
        selected = evaluate_query(
            f"//item[price > {threshold}]", context_item=catalog
        )
        identities = {id(n) for n in all_items}
        assert all(id(n) in identities for n in selected)
        assert len(selected) <= len(all_items)

    @given(small_tag_trees(), st.sampled_from(PATH_STEPS), st.sampled_from(PATH_STEPS))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_path_results_in_document_order_without_duplicates(self, tree, first, second):
        def check(query, **context):
            result = evaluate_query(query, **context)
            expected = DocumentOrder().sort_and_dedupe(result)
            assert [id(n) for n in result] == [id(n) for n in expected], query

        # every element as the one context node, then all of them at once
        elements = evaluate_query("$t/descendant-or-self::*", variables={"t": [tree]})
        starts = [[node] for node in elements] + [elements]
        for start in starts:
            for query in (f"$s/{first}", f"$s/{first}/{second}", f"$s/({first} | {second})"):
                check(query, variables={"s": start})
        # rooted: from the document node above the tree, reached from its
        # last element (a rooted path must start with an axis step)
        for query in (
            f"/self::node()/{first}", f"/self::node()/{first}/{second}",
            f"/self::node()/({first} | {second})", f"//*/{first}",
            "//b", "//b | //c", "/descendant-or-self::node()/b", "//*[@x] union //c",
        ):
            check(query, context_item=elements[-1])

    @given(catalogs())
    @settings(max_examples=40)
    def test_rooted_union_in_document_order_without_duplicates(self, catalog):
        result = evaluate_query("//price union //name", context_item=catalog)
        order = DocumentOrder()
        keys = [order.key(node) for node in result]
        assert keys == sorted(keys)
        assert len({id(n) for n in result}) == len(result)

    @given(catalogs())
    @settings(max_examples=30)
    def test_count_matches_python(self, catalog):
        (count,) = evaluate_query("count(//item)", context_item=catalog)
        assert count == len(catalog.element_children)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_order_by_sorts(self, values):
        seq = ", ".join(str(v) for v in values)
        result = evaluate_query(
            f"for $x in ({seq}) order by $x return $x"
        )
        assert result == sorted(values)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=50)
    def test_arithmetic_matches_python(self, a, b):
        assert evaluate_query(f"{a} + {b}") == [a + b]
        assert evaluate_query(f"({a}) * ({b})") == [a * b]

    @pytest.mark.parametrize(
        "returned", ["<hit>{$i/name/text()}</hit>", "$i/name"], ids=["hit", "name"]
    )
    @given(catalogs(), st.integers(0, 100))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_decomposition_equivalence(self, returned, catalog, threshold):
        q = Query(
            f"for $i in $d//item where $i/price > {threshold} return {returned}",
            params=("d",),
            name="q",
        )
        direct = q(catalog)
        dec = push_selection(q)
        (envelope,) = dec.inner(catalog)
        split = dec.outer(envelope)
        assert len(direct) == len(split)
        assert all(equivalent(a, b) for a, b in zip(direct, split))


# ---------------------------------------------------------------------------
# Rewrite-rule equivalence over random states (the paper's ≡ over "any Σ")
# ---------------------------------------------------------------------------

def _random_system(prices):
    system = AXMLSystem.with_peers(["client", "data", "helper"])
    root = element("catalog")
    for index, price in enumerate(prices):
        root.append(
            element(
                "item",
                element("name", f"n{index}"),
                element("price", str(price)),
            )
        )
    system.peer("data").install_document("cat", root)
    return system


class TestRuleEquivalenceProperties:
    @given(
        st.lists(st.integers(0, 100), min_size=0, max_size=12),
        st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_delegation_equivalent_on_random_states(self, prices, threshold):
        system = _random_system(prices)
        q = Query(
            f"for $i in $d//item where $i/price > {threshold} return $i/name",
            params=("d",),
            name="sel",
        )
        plan = Plan(
            QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)),
            "client",
        )
        for rewrite in QueryDelegation(all_peers=True).apply(plan, system):
            verdict = check_equivalence(plan, rewrite.plan, system)
            assert verdict.equivalent, verdict.reason

    @given(
        st.lists(st.integers(0, 100), min_size=0, max_size=12),
        st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_push_selection_equivalent_on_random_states(self, prices, threshold):
        system = _random_system(prices)
        q = Query(
            f"for $i in $d//item where $i/price > {threshold} "
            "return <r>{$i/name/text()}</r>",
            params=("d",),
            name="sel",
        )
        plan = Plan(
            QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)),
            "client",
        )
        for rewrite in PushSelection().apply(plan, system):
            verdict = check_equivalence(plan, rewrite.plan, system)
            assert verdict.equivalent, verdict.reason

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_measured_bytes_match_doc_size_for_plain_shipping(self, prices):
        system = _random_system(prices)
        plan = Plan(DocExpr("cat", "data"), "client")
        cost = measure(plan, system)
        doc_bytes = system.peer("data").document("cat").serialized_size()
        # one DATA message: payload ≈ serialized doc + envelope
        assert cost.messages == 1
        assert abs(cost.bytes - doc_bytes) <= 64 + doc_bytes * 0.1
