"""Unit tests for the XML data model (repro.xmlcore.model)."""

import cProfile
import hashlib
import itertools
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcore import (
    Element,
    NodeId,
    NodeIdAllocator,
    Text,
    element,
    find_by_id,
    iter_elements,
    iter_nodes,
    parse,
    pretty,
    serialize,
    text,
    tree_size,
)


def wire_len(node) -> int:
    return len(serialize(node).encode("utf-8"))


#: Random trees with everything the serializer treats specially: childless
#: elements, escapable characters in text and attribute values, non-ASCII
#: tags and values, mixed content.
NAMES = st.sampled_from(["a", "item", "q-inner-result", "naïve", "数据"])
VALUES = st.text(alphabet="ab &<>\"'é数", max_size=8)
ATTRS = st.dictionaries(NAMES, VALUES, max_size=3)
TREES = st.recursive(
    st.builds(Element, NAMES, ATTRS),
    lambda subtrees: st.builds(
        Element,
        NAMES,
        ATTRS,
        st.lists(st.one_of(subtrees, st.builds(Text, VALUES)), max_size=4),
    ),
    max_leaves=12,
)
NODES = st.one_of(TREES, st.builds(Text, VALUES))


class TestNodeId:
    def test_str_round_trip(self):
        nid = NodeId("p1", 42)
        assert str(nid) == "n42@p1"
        assert NodeId.parse(str(nid)) == nid

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            NodeId.parse("not-an-id")

    def test_parse_rejects_missing_at(self):
        with pytest.raises(ValueError):
            NodeId.parse("n42")

    def test_ordering_is_by_peer_then_serial(self):
        assert NodeId("a", 2) < NodeId("b", 1)
        assert NodeId("a", 1) < NodeId("a", 2)


class TestNodeIdAllocator:
    def test_fresh_ids_are_distinct(self):
        alloc = NodeIdAllocator("p1")
        ids = {alloc.fresh() for _ in range(100)}
        assert len(ids) == 100

    def test_assign_fills_missing_only(self):
        alloc = NodeIdAllocator("p1")
        existing = NodeId("p1", 999)
        root = element("a", element("b"))
        root.node_id = existing
        alloc.assign(root)
        assert root.node_id == existing
        assert root.element_children[0].node_id is not None

    def test_allocators_scoped_per_peer(self):
        a = NodeIdAllocator("p1").fresh()
        b = NodeIdAllocator("p2").fresh()
        assert a != b
        assert a.serial == b.serial  # same serial, different peer


class TestElementConstruction:
    def test_element_helper_wraps_strings(self):
        e = element("a", "hello", element("b"))
        assert isinstance(e.children[0], Text)
        assert isinstance(e.children[1], Element)

    def test_parent_pointers_set_on_append(self):
        parent = element("a")
        child = element("b")
        parent.append(child)
        assert child.parent is parent

    def test_attrs_are_copied(self):
        attrs = {"x": "1"}
        e = Element("a", attrs)
        attrs["x"] = "2"
        assert e.attrs["x"] == "1"

    def test_extend(self):
        parent = element("a")
        parent.extend([element("b"), text("t")])
        assert len(parent.children) == 2


class TestElementMutation:
    def test_insert_places_child_at_index(self):
        parent = element("a", element("b"), element("d"))
        inserted = parent.insert(1, element("c"))
        assert [c.tag for c in parent.element_children] == ["b", "c", "d"]
        assert inserted.parent is parent

    def test_remove_clears_parent(self):
        parent = element("a", element("b"))
        child = parent.element_children[0]
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_replace_child(self):
        parent = element("a", element("old"))
        new = element("new")
        parent.replace_child(parent.children[0], new)
        assert parent.element_children[0].tag == "new"
        assert new.parent is parent

    def test_index_of_uses_identity(self):
        twin1, twin2 = element("t"), element("t")
        parent = element("a", twin1, twin2)
        assert parent.index_of(twin2) == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(ValueError):
            element("a").index_of(element("b"))


class TestQueries:
    def test_string_value_concatenates_descendants(self):
        e = element("a", "x", element("b", "y"), "z")
        assert e.string_value() == "xyz"

    def test_child_by_tag_first_match(self):
        e = element("a", element("b", "1"), element("b", "2"))
        assert e.child_by_tag("b").string_value() == "1"
        assert e.child_by_tag("zzz") is None

    def test_children_by_tag(self):
        e = element("a", element("b"), element("c"), element("b"))
        assert len(e.children_by_tag("b")) == 2

    def test_is_service_call(self):
        assert element("sc").is_service_call()
        assert not element("scx").is_service_call()

    def test_get_attribute_default(self):
        e = element("a", attrs={"k": "v"})
        assert e.get("k") == "v"
        assert e.get("missing", "d") == "d"


class TestCopy:
    def test_copy_is_deep(self):
        original = element("a", element("b", "t"))
        clone = original.copy()
        clone.element_children[0].append(text("extra"))
        assert original.element_children[0].string_value() == "t"

    def test_copy_preserves_ids(self):
        original = element("a")
        original.node_id = NodeId("p", 7)
        assert original.copy().node_id == NodeId("p", 7)

    def test_copy_clears_parent(self):
        parent = element("a", element("b"))
        clone = parent.element_children[0].copy()
        assert clone.parent is None

    def test_copy_without_ids(self):
        root = element("a", element("b"))
        NodeIdAllocator("p").assign(root)
        stripped = root.copy_without_ids()
        assert all(e.node_id is None for e in iter_elements(stripped))


class TestTraversal:
    def test_iter_nodes_preorder(self):
        root = element("a", element("b", "t"), element("c"))
        kinds = [
            n.tag if isinstance(n, Element) else "#" for n in iter_nodes(root)
        ]
        assert kinds == ["a", "b", "#", "c"]

    def test_iter_elements_preorder_skips_text(self):
        root = element("a", element("b", "t"), element("c"))
        assert [e.tag for e in iter_elements(root)] == ["a", "b", "c"]

    def test_tree_size_counts_text(self):
        assert tree_size(element("a", "x", element("b"))) == 3

    def test_find_by_id(self):
        root = element("a", element("b"))
        target = root.element_children[0]
        target.node_id = NodeId("p", 5)
        assert find_by_id(root, NodeId("p", 5)) is target
        assert find_by_id(root, NodeId("p", 6)) is None



class TestSizeAccounting:
    def test_text_size_is_utf8_bytes(self):
        assert text("abc").serialized_size() == 3
        assert text("é").serialized_size() == 2

    def test_element_size_grows_with_content(self):
        small = element("a")
        big = element("a", element("b", "some text content here"))
        assert big.serialized_size() > small.serialized_size()

    def test_size_close_to_serialization(self):
        e = element("catalog", *[
            element("item", element("name", f"n{i}"), attrs={"id": str(i)})
            for i in range(20)
        ])
        assert e.serialized_size() == wire_len(e)  # as close as it gets

    def test_childless_and_escaped_sizes(self):
        assert element("q-inner-result").serialized_size() == 17
        assert text("a&b<c>d").serialized_size() == len("a&amp;b&lt;c&gt;d")
        quoted = element("a", attrs={"k": 'x"&<>'})
        assert quoted.serialized_size() == len('<a k="x&quot;&amp;&lt;>"/>')

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_size_is_the_serialization_length_through_mutation(self, data):
        """The one definition of bytes on the wire: for every node of a
        random tree, and for the (cache-warm) root after each mutator."""
        root = data.draw(TREES)
        for node in iter_nodes(root):
            assert node.serialized_size() == wire_len(node)
        for _ in range(data.draw(st.integers(1, 5))):
            target = data.draw(st.sampled_from(list(iter_elements(root))))
            op = data.draw(
                st.sampled_from(["append", "remove", "replace_child", "set_attr"])
            )
            if op == "set_attr":
                target.set_attr(data.draw(NAMES), data.draw(VALUES))
            elif op == "append" or not target.children:
                target.append(data.draw(NODES))
            else:
                child = target.children[
                    data.draw(st.integers(0, len(target.children) - 1))
                ]
                if op == "remove":
                    target.remove(child)
                else:
                    target.replace_child(child, data.draw(NODES))
            assert root.serialized_size() == wire_len(root)


class TestSizeCaching:
    """serialized_size is compute-once; mutation helpers invalidate it."""

    def test_cached_value_stable_without_mutation(self):
        root = element("a", element("b", "payload"))
        assert root.serialized_size() == root.serialized_size()

    def test_append_invalidates_ancestors(self):
        inner = element("b", "payload")
        root = element("a", inner)
        before = root.serialized_size()
        inner.append(text("more text"))
        after = root.serialized_size()
        assert after == before + len("more text")

    def test_remove_and_replace_invalidate(self):
        child = element("b", "xx")
        other = element("c", "a much longer replacement payload")
        root = element("a", child)
        before = root.serialized_size()
        root.replace_child(child, other)
        assert root.serialized_size() > before
        root.remove(other)
        assert root.serialized_size() < before

    def test_set_attr_invalidates(self):
        root = element("a", element("b"))
        before = root.serialized_size()
        root.element_children[0].set_attr("activated", "true")
        assert root.serialized_size() == before + len("activated") + len("true") + 4

    def test_copy_is_cache_cold_and_stays_consistent(self):
        root = element("a", element("b", "payload"))
        size = root.serialized_size()
        clone = root.copy()
        assert clone._size_cache is None
        assert clone.serialized_size() == size
        clone.append(text("xyz"))
        assert clone.serialized_size() == size + 3
        assert root.serialized_size() == size  # original untouched

    def test_copy_does_not_inherit_stale_caches(self):
        # Regression: copy() used to carry the original's _size_cache /
        # _fp_cache into the clone, so a measurement made stale by a
        # direct Text.value assignment (which bypasses the mutation
        # helpers) survived into a tree that never computed it.
        root = element("a", element("b", "payload"))
        stale_size = root.serialized_size()
        stale_fp = root.content_fingerprint()
        root.element_children[0].children[0].value = (
            "a far longer replacement payload"
        )
        clone = root.copy()
        truth = element("a", element("b", "a far longer replacement payload"))
        assert clone.serialized_size() == truth.serialized_size()
        assert clone.serialized_size() != stale_size
        assert clone.content_fingerprint() == truth.content_fingerprint()
        assert clone.content_fingerprint() != stale_fp


class TestContentFingerprint:
    def test_equal_content_equal_fingerprint_across_copies(self):
        root = element("a", element("b", "x"), attrs={"k": "v"})
        assert root.content_fingerprint() == root.copy().content_fingerprint()

    def test_node_ids_and_attr_order_ignored(self):
        one = element("a", attrs={"k": "v", "z": "w"})
        two = element("a", attrs={"z": "w", "k": "v"})
        two.node_id = NodeId("p", 9)
        assert one.content_fingerprint() == two.content_fingerprint()

    def test_content_changes_change_fingerprint(self):
        root = element("a", element("b", "x"))
        before = root.content_fingerprint()
        root.element_children[0].append(text("y"))
        assert root.content_fingerprint() != before
        root.set_attr("k", "v")
        two = element("a", element("b", "xy"))
        assert root.content_fingerprint() != two.content_fingerprint()


# ---------------------------------------------------------------------------
# The tree kernels: pinned values, warm and cold copies, depth
# ---------------------------------------------------------------------------

def golden_trees():
    """Fixed trees: non-ASCII text, ``& < > "`` in text and attributes,
    empty elements, mixed content, node ids."""
    catalog = element(
        "catalog",
        element(
            "item", element("name", "naïve café"), element("price", "12"),
            attrs={"id": "1", "note": 'a "quoted" & <tagged> value'},
        ),
        element("item", element("name", "数据 & <more>"), element("empty"), attrs={"id": "2"}),
        "tail > text",
        attrs={"src": "données"},
    )
    NodeIdAllocator("p1").assign(catalog)
    mixed = element("p", "Hello ", element("b", "bold"), " & ", element("i"), " <end>")
    call = element(
        "doc",
        element("sc", element("peer", "p2"), element("service", "pricey"), attrs={"mode": "lazy"}),
        "x",
    )
    NodeIdAllocator("p9", 40).assign(call)
    return {"catalog": catalog, "mixed": mixed, "empty": element("q-inner-result"), "call": call}


#: name -> (size, fingerprint, node count, wire form, wire form with ids,
#: pretty form), as computed by the recursive kernels these loops replace;
#: the fingerprints by the digest with text children inlined (see
#: ``Element.content_fingerprint``).
GOLDEN = {
    "catalog": (
        228, "e7b1943991206234bd66a9d5", 11,
        '<catalog src="données"><item id="1" note="a &quot;quoted&quot; &amp; '
        '&lt;tagged> value"><name>naïve café</name><price>12</price></item>'
        '<item id="2"><name>数据 &amp; &lt;more&gt;</name><empty/></item>'
        'tail &gt; text</catalog>',
        '<catalog __id="n1@p1" src="données"><item __id="n2@p1" id="1" '
        'note="a &quot;quoted&quot; &amp; &lt;tagged> value"><name __id="n3@p1">'
        'naïve café</name><price __id="n4@p1">12</price></item><item __id="n5@p1" '
        'id="2"><name __id="n6@p1">数据 &amp; &lt;more&gt;</name><empty __id="n7@p1"/>'
        '</item>tail &gt; text</catalog>',
        '<catalog src="données">\n  <item id="1" note="a &quot;quoted&quot; &amp; '
        '&lt;tagged> value">\n    <name>naïve café</name>\n    <price>12</price>\n'
        '  </item>\n  <item id="2">\n    <name>数据 &amp; &lt;more&gt;</name>\n'
        '    <empty/>\n  </item>\n  tail &gt; text\n</catalog>',
    ),
    "mixed": (
        47, "a07a06cee9a926e342e5f51d", 7,
        "<p>Hello <b>bold</b> &amp; <i/> &lt;end&gt;</p>",
        "<p>Hello <b>bold</b> &amp; <i/> &lt;end&gt;</p>",
        "<p>\n  Hello\n  <b>bold</b>\n  &amp;\n  <i/>\n  &lt;end&gt;\n</p>",
    ),
    "empty": (
        17, "9afbdf3e78c4b7471a97993d", 1,
        "<q-inner-result/>", "<q-inner-result/>", "<q-inner-result/>",
    ),
    "call": (
        73, "0f67ad15d1df52dcb2f0ad50", 7,
        '<doc><sc mode="lazy"><peer>p2</peer><service>pricey</service></sc>x</doc>',
        '<doc __id="n40@p9"><sc __id="n41@p9" mode="lazy"><peer __id="n42@p9">p2'
        '</peer><service __id="n43@p9">pricey</service></sc>x</doc>',
        '<doc>\n  <sc mode="lazy">\n    <peer>p2</peer>\n    <service>pricey'
        '</service>\n  </sc>\n  x\n</doc>',
    ),
}


@lru_cache(maxsize=None)
def generated_documents():
    """Stored documents of generated scenarios: the first with ``sc``
    nodes, then the first two without."""
    from repro.workloads import WRITE_MIX_SPEC, ScenarioGenerator, ScenarioSpec

    calls, plain = [], []
    for spec in (ScenarioSpec(), WRITE_MIX_SPEC):
        system = ScenarioGenerator(7, spec).scenario(0).system
        for _, peer in sorted(system.peers.items()):
            for _, document in sorted(peer.documents.items()):
                (calls if document.has_service_calls() else plain).append(document)
    return {"generated-sc": calls[0], "generated-0": plain[0], "generated-1": plain[1]}


#: name -> a function building a fresh tree.
SOURCES = {
    **{name: (lambda name=name: golden_trees()[name]) for name in GOLDEN},
    **{
        name: (lambda name=name: generated_documents()[name].copy())
        for name in ("generated-sc", "generated-0", "generated-1")
    },
    "nul": lambda: element(
        "n", "a\x00b", element("sc", "\x00c" + "0" * 24), "", "tail",
        attrs={"k": "v", "z": "a\x00tb"},
    ),
}


class TestGoldenKernels:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_values_are_pinned(self, name):
        tree = golden_trees()[name]
        size, fingerprint, count, wire, wire_ids, shown = GOLDEN[name]
        assert tree.serialized_size() == size == wire_len(tree)
        assert tree.content_fingerprint() == fingerprint
        assert tree_size(tree) == count
        assert serialize(tree) == wire
        assert serialize(tree, with_ids=True) == wire_ids
        assert pretty(tree) == shown

    def test_text_values_are_pinned(self):
        leaf = text("naïve & <x>")
        assert leaf.content_fingerprint() == "396d8f2e0f52c9a4b5dbd71b"
        assert leaf.serialized_size() == 22 == wire_len(leaf)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_one_walk_fills_every_element(self, name):
        tree = SOURCES[name]()
        tree.serialized_size()  # sets the sc flag and the count too
        tree.content_fingerprint()
        for node in iter_elements(tree):
            expected = reference_summary(node.copy())
            assert node._size_cache == expected["size"] == wire_len(node)
            assert node._sc_cache == expected["sc"]
            assert node._count_cache == expected["count"]
            assert node._fp_cache == expected["digest"]

    def test_a_walk_stops_at_cached_subtrees(self):
        tree = golden_trees()["catalog"]
        first = tree.element_children[0]
        size, fingerprint = first.serialized_size(), first.content_fingerprint()
        first._size_cache, first._fp_cache = size + 1000, "f" * 24  # planted
        assert tree.serialized_size() == GOLDEN["catalog"][0] + 1000
        assert tree.content_fingerprint() != GOLDEN["catalog"][1]
        assert first.serialized_size() == size + 1000

    @given(TREES, st.data())
    @settings(max_examples=120, deadline=None)
    def test_size_is_the_wire_length_cold_copied_and_edited(self, root, data):
        assert root.serialized_size() == wire_len(root)
        copied = root.copy()
        assert copied.serialized_size() == wire_len(copied) == wire_len(root)
        assert copied.content_fingerprint() == root.content_fingerprint()
        root.freeze()
        warm = root.copy()
        assert warm._size_cache is not None
        target = data.draw(st.sampled_from(list(iter_elements(warm))))
        target.append(data.draw(NODES))
        assert warm.serialized_size() == wire_len(warm)
        assert tree_size(warm) == sum(1 for _ in iter_nodes(warm))
        assert warm.content_fingerprint() == cold_fingerprint(warm)


def cold_fingerprint(root):
    """The fingerprint of a cache-cold copy of ``root``."""
    cold = root.copy()
    for node in iter_elements(cold):
        assert node._fp_cache is None
    return cold.content_fingerprint()


class TestKernelCopies:
    def test_copy_of_a_frozen_tree_is_warm_node_by_node(self):
        tree = golden_trees()["call"]
        tree.serialized_size(), tree.content_fingerprint(), tree_size(tree)
        tree.has_service_calls()
        tree.freeze()
        for copy in (tree.copy(), tree.copy_without_ids()):
            assert not copy.frozen
            for node, twin in zip(iter_elements(tree), iter_elements(copy)):
                assert twin is not node
                assert twin._size_cache == node._size_cache is not None
                assert twin._fp_cache == node._fp_cache is not None
                assert twin._count_cache == node._count_cache is not None
                assert twin._sc_cache == node._sc_cache

    def test_copy_of_an_unfrozen_tree_is_cold(self):
        tree = golden_trees()["catalog"]
        tree.serialized_size(), tree.content_fingerprint(), tree_size(tree)
        for copy in (tree.copy(), tree.copy_without_ids()):
            for node in iter_elements(copy):
                assert node._size_cache is node._fp_cache is node._count_cache is None
            assert copy.serialized_size() == GOLDEN["catalog"][0]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_parents_and_ids_survive_a_copy(self, name):
        tree = golden_trees()[name]
        copy, bare = tree.copy(), tree.copy_without_ids()
        assert copy.parent is None and bare.parent is None
        triples = zip(iter_nodes(tree), iter_nodes(copy), iter_nodes(bare))
        for node, twin, blank in triples:
            assert type(twin) is type(node) is type(blank)
            assert twin is not node and blank is not node
            if isinstance(node, Element):
                assert twin.node_id == node.node_id
                assert blank.node_id is None
                assert twin.attrs == node.attrs and twin.attrs is not node.attrs
                assert [c.parent for c in twin.children] == [twin] * len(twin.children)
                assert [c.parent for c in blank.children] == [blank] * len(blank.children)
            else:
                assert twin.value == node.value == blank.value
        assert serialize(copy, with_ids=True) == GOLDEN[name][4]
        assert serialize(bare) == GOLDEN[name][3]


class TestAssignOrder:
    def test_assign_numbers_in_preorder_skipping_set_ids(self):
        tree = golden_trees()["mixed"]
        tree.element_children[0].node_id = NodeId("other", 7)
        allocator = NodeIdAllocator("p", 5)
        allocator.assign(tree)
        assert [str(node.node_id) for node in iter_elements(tree)] == [
            "n5@p", "n7@other", "n6@p",
        ]
        assert allocator.next_serial == 7
        deep = element("a", element("b", element("c"), "t", element("d")), element("e"))
        NodeIdAllocator("q").assign(deep)
        assert serialize(deep, with_ids=True) == (
            '<a __id="n1@q"><b __id="n2@q"><c __id="n3@q"/>t<d __id="n4@q"/></b>'
            '<e __id="n5@q"/></a>'
        )


DEPTH = 3_000


def chain(depth=DEPTH):
    """``<l><l>…<sc>leaf &amp; &lt;x&gt;</sc>…</l></l>``, ``depth`` levels of
    ``<l>`` built bottom-up (each append is O(1))."""
    node = element("sc", "leaf & <x>")
    for _ in range(depth):
        node = element("l", node)
    return node


class TestDepth:
    """Every kernel is a loop: a tree deeper than the interpreter's
    recursion limit is measured, copied and written like a shallow one."""

    def test_deep_trees_are_measured(self):
        root = chain()
        wire = "<l>" * DEPTH + "<sc>leaf &amp; &lt;x&gt;</sc>" + "</l>" * DEPTH
        assert serialize(root) == wire
        assert root.serialized_size() == len(wire)
        assert tree_size(root) == DEPTH + 2
        assert root.string_value() == "leaf & <x>"
        assert root.has_service_calls()
        # the digest spelled out level by level, from the leaf up: a text
        # child is inlined into its parent's preimage, not hashed apart
        digest = hashlib.blake2b(b"e\x00sc\x00tleaf & <x>", digest_size=12).hexdigest()
        for _ in range(DEPTH):
            digest = hashlib.blake2b(
                b"e\x00l\x00c" + digest.encode(), digest_size=12
            ).hexdigest()
        assert root.content_fingerprint() == digest
        lines = pretty(root).split("\n")
        assert len(lines) == 2 * DEPTH + 1
        assert lines[DEPTH] == "  " * DEPTH + "<sc>leaf &amp; &lt;x&gt;</sc>"

    def test_deep_trees_are_copied(self):
        root = chain()
        NodeIdAllocator("p").assign(root)
        copy, bare = root.copy(), root.copy_without_ids()
        assert serialize(copy, with_ids=True) == serialize(root, with_ids=True)
        assert serialize(bare) == serialize(root)
        assert all(node.node_id is None for node in iter_elements(bare))
        assert tree_size(copy) == tree_size(bare) == DEPTH + 2
        assert copy.content_fingerprint() == bare.content_fingerprint() == (
            root.content_fingerprint()
        )

    def test_a_deep_edit_is_measured_again(self):
        root = chain()
        root.serialized_size()
        leaf = root
        while leaf.tag != "sc":
            leaf = leaf.children[0]
        leaf.append(text("!"))
        assert root.serialized_size() == wire_len(root)


# ---------------------------------------------------------------------------
# The kernels against naive references: any first order, after any edit
# ---------------------------------------------------------------------------

def reference_digest(node):
    """The fingerprint by its definition, recursively: ``e\\0`` + tag,
    ``\\0a`` + name + ``\\0`` + value per attribute in name order (``\\0A``
    + name + ``\\0`` + the value's digest if it holds NUL), then per
    child ``\\0t`` + value for a text without NUL, else ``\\0c`` + the
    child's digest (a text's hashes ``t\\0`` + value)."""
    if isinstance(node, Text):
        data = "t\x00" + node.value
    else:
        data = "e\x00" + node.tag
        for name, value in sorted(node.attrs.items()):
            if "\x00" in value:
                digest = hashlib.blake2b(value.encode("utf-8"), digest_size=12)
                data += "\x00A" + name + "\x00" + digest.hexdigest()
            else:
                data += "\x00a" + name + "\x00" + value
        for child in node.children:
            if isinstance(child, Text) and "\x00" not in child.value:
                data += "\x00t" + child.value
            else:
                data += "\x00c" + reference_digest(child)
    return hashlib.blake2b(data.encode("utf-8"), digest_size=12).hexdigest()


def reference_summary(tree):
    """What the four kernels must return, computed without them."""
    return {
        "size": wire_len(tree),
        "sc": any(node.tag == "sc" for node in iter_elements(tree)),
        "count": sum(1 for _ in iter_nodes(tree)),
        "digest": reference_digest(tree),
    }


KERNELS = {
    "size": Element.serialized_size,
    "sc": Element.has_service_calls,
    "count": tree_size,
    "digest": Element.content_fingerprint,
}
#: Every order the four can first be asked in.
ORDERS = list(itertools.permutations(KERNELS))


def _edited(tree):
    """The element a mutator edits: the last in document order (the
    deepest leaf of a chain), so every ancestor's caches must drop."""
    *_, last = iter_elements(tree)
    return last


MUTATORS = {
    "none": lambda node: None,
    "append": lambda node: node.append(element("sc", "new & <text>")),
    "insert": lambda node: node.insert(0, text("x\x00ty")),
    "remove": lambda node: node.remove(node.children[-1]) if node.children else None,
    "replace_child": lambda node: (
        node.replace_child(node.children[0], text("\x00c"))
        if node.children else node.append(element("r"))
    ),
    "set_attr": lambda node: node.set_attr("sc", 'v "&" <w>'),
}


def prepared(build, state, order):
    """A tree from ``build`` in ``state``: as built, measured (all four
    asked, in ``order``), or a warm or cold copy of a measured tree."""
    tree = build()
    if state == "fresh":
        return tree
    for name in order:
        KERNELS[name](tree)
    if state == "warm-copy":
        tree.freeze()
    return tree if state == "measured" else tree.copy()


def assert_kernels(tree, order):
    """The four asked in ``order`` match the references, and every
    element holds its size, ``sc`` flag and count together or none."""
    expected = reference_summary(tree)
    assert {name: KERNELS[name](tree) for name in order} == expected
    for node in iter_elements(tree):
        caches = (node._size_cache, node._sc_cache, node._count_cache)
        assert None not in caches or caches == (None, None, None)


class TestSummaryKernel:
    """One walk sets the size, the ``sc`` flag and the node count; texts
    are hashed inline.  Each value, asked first or last, before or after
    an edit, on the tree or a copy, is what a naive reference says."""

    @pytest.mark.parametrize("state", ["fresh", "measured", "warm-copy", "cold-copy"])
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_every_first_order_matches_the_reference(self, state, mutator):
        for build in SOURCES.values():
            for order in ORDERS:
                tree = prepared(build, state, order)
                MUTATORS[mutator](_edited(tree))
                assert_kernels(tree, order)

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_a_deep_chain_in_each_first_order(self, mutator):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * DEPTH + 100)  # for the recursive reference
        try:
            for index, order in enumerate(ORDERS[:: len(MUTATORS)]):
                states = ("fresh", "measured", "warm-copy", "cold-copy")
                tree = prepared(chain, states[index % len(states)], order)
                MUTATORS[mutator](_edited(tree))
                assert_kernels(tree, order)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_split_between_adjacent_texts_changes_the_digest(self):
        assert element("a", "ab", "c").content_fingerprint() != (
            element("a", "a", "bc").content_fingerprint()
        )
        assert element("a", "x\x00ty").content_fingerprint() != (
            element("a", "x", "y").content_fingerprint()
        )
        # an attribute value holding NUL cannot pose as a text child
        assert element("a", attrs={"k": "v\x00tX"}).content_fingerprint() != (
            element("a", "X", attrs={"k": "v"}).content_fingerprint()
        )

    def test_a_text_never_digests_as_an_element_child(self):
        child = element("b")
        digest = child.content_fingerprint()
        holder = element("a", element("b")).content_fingerprint()
        assert element("a", "\x00c" + digest).content_fingerprint() != holder
        assert element("a", digest).content_fingerprint() != holder
        assert element("a", "b").content_fingerprint() != holder


def counted_calls(ask, *args):
    """cProfile's calls made by ``ask(*args)``, the profiler's own
    ``disable`` left out."""
    profiler = cProfile.Profile()
    profiler.enable()
    ask(*args)
    profiler.disable()
    return sum(
        entry.callcount for entry in profiler.getstats()
        if not (isinstance(entry.code, str) and "disable" in entry.code)
    )


@pytest.mark.perf
def test_measuring_a_fresh_tree_is_one_walk():
    """Sizing a fresh generated document, then asking its ``sc`` flag and
    node count, walks it once: about 2.6 calls per node (an ``isascii``
    and a ``len`` per node, an ``append`` per element), and the two later
    asks make no call of their own.  Counted, not timed."""
    for document in generated_documents().values():
        fresh = parse(serialize(document))
        nodes = sum(1 for _ in iter_nodes(fresh))
        walk = counted_calls(fresh.serialized_size)
        assert walk <= 3 * nodes
        assert counted_calls(fresh.has_service_calls) == counted_calls(tree_size, fresh) == 1
        # asked first, either one pays for the same walk
        for first in (Element.has_service_calls, tree_size):
            again = parse(serialize(document))
            assert counted_calls(first, again) == walk + 1


@pytest.mark.perf
def test_a_fingerprint_makes_no_call_per_text_child():
    """Counted, not timed: a hundred text children cost what one does,
    and a generated document about three calls per element."""
    one = counted_calls(element("a", "t0").content_fingerprint)
    many = element("a", *(f"t{i}" for i in range(100)))
    assert counted_calls(many.content_fingerprint) == one
    for document in generated_documents().values():
        fresh = parse(serialize(document))
        elements = sum(1 for _ in iter_elements(fresh))
        assert counted_calls(fresh.content_fingerprint) <= 3.5 * elements
