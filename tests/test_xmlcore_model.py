"""Unit tests for the XML data model (repro.xmlcore.model)."""

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
