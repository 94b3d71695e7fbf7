"""Unit tests for the XML parser and serializer."""

import pytest

from repro.errors import DocumentTooDeepError, XMLError, XMLSyntaxError
from repro.xmlcore import (
    Element,
    NodeId,
    Text,
    element,
    equivalent,
    parse,
    parse_fragment,
    pretty,
    serialize,
)
from repro.xmlcore.parser import MAX_DEPTH
from repro.xmlcore.serializer import escape_attr, escape_text


class TestBasicParsing:
    def test_single_element(self):
        root = parse("<a/>")
        assert root.tag == "a" and not root.children

    def test_nested_elements(self):
        root = parse("<a><b><c/></b></a>")
        assert root.element_children[0].element_children[0].tag == "c"

    def test_text_content(self):
        assert parse("<a>hello</a>").string_value() == "hello"

    def test_mixed_content(self):
        root = parse("<a>x<b>y</b>z</a>")
        assert root.string_value() == "xyz"
        assert len(root.children) == 3

    def test_attributes_double_and_single_quotes(self):
        root = parse("""<a x="1" y='2'/>""")
        assert root.attrs == {"x": "1", "y": "2"}

    def test_whitespace_in_tags(self):
        root = parse("<a  x = '1' ></a >")
        assert root.attrs["x"] == "1"

    def test_names_with_punctuation(self):
        root = parse("<ns:a-b.c_d/>")
        assert root.tag == "ns:a-b.c_d"

    def test_xml_declaration_skipped(self):
        root = parse("<?xml version='1.0' encoding='utf-8'?><a/>")
        assert root.tag == "a"

    def test_comments_skipped(self):
        root = parse("<a><!-- note --><b/><!-- end --></a>")
        assert [c.tag for c in root.element_children] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse("<a><?pi data?><b/></a>")
        assert len(root.element_children) == 1

    def test_cdata_preserved_verbatim(self):
        root = parse("<a><![CDATA[<not><parsed>&amp;]]></a>")
        assert root.string_value() == "<not><parsed>&amp;"

    def test_trailing_comment_ok(self):
        assert parse("<a/><!-- bye -->").tag == "a"


class TestEntities:
    def test_predefined_entities(self):
        assert parse("<a>&lt;&gt;&amp;&quot;&apos;</a>").string_value() == "<>&\"'"

    def test_numeric_decimal(self):
        assert parse("<a>&#65;</a>").string_value() == "A"

    def test_numeric_hex(self):
        assert parse("<a>&#x41;</a>").string_value() == "A"

    def test_entity_in_attribute(self):
        assert parse("<a x='&lt;5'/>").attrs["x"] == "<5"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a>&ltnosemicolonforveryverylong</a>")

    # a reference must be well formed and name a Char (XML 1.0 §2.2, §4.1):
    # not NUL, a surrogate or a code point past 0x10FFFF
    @pytest.mark.parametrize("reference", [
        "&#xZZ;", "&#;", "&#x;", "&#X41;", "&#-1;", "&#99999999;", "&#x110000;",
        "&#0;", "&#x1F;", "&#xD800;", "&#xDFFF;", "&#xFFFE;",
    ])
    def test_bad_character_reference_rejected(self, reference):
        for source in (f"<a>{reference}</a>", f"<a b='{reference}'/>"):
            with pytest.raises(XMLSyntaxError) as exc:
                parse(source)
            assert exc.value.column == source.index("&") + 1

    def test_character_references_at_the_edges_of_char(self):
        tree = parse("<a>&#9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>")
        assert tree.string_value() == (
            "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
        )
        assert tree.serialized_size() == len(serialize(tree).encode("utf-8"))

    # raw text is held to the same production as a reference
    @pytest.mark.parametrize("source, line, column", [
        ('<a k="v\x01"/>', 1, 8),
        ("<a>x\x01y\x00</a>", 1, 5),
        ("<a>\n<b>\ufffe</b></a>", 2, 4),
        ("<a>" + chr(0xD800) + "</a>", 1, 4),  # a lone surrogate
    ])
    def test_raw_characters_outside_char_rejected(self, source, line, column):
        for parser in (parse, parse_fragment):
            with pytest.raises(XMLSyntaxError) as exc:
                parser(source)
            assert (exc.value.line, exc.value.column) == (line, column)

    def test_raw_tab_lf_and_cr_accepted(self):
        tree = parse('<a k="1\t2">x\ty\nz\r</a>')
        assert tree.attrs["k"] == "1\t2"
        assert tree.string_value() == "x\ty\nz\r"
        assert [n.tag for n in parse_fragment("<a/>\t\r\n<b/>")] == ["a", "b"]


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "<a/><b/>",
            "<>",
            "<a><!-- unterminated </a>",
            "<a><![CDATA[ unterminated </a>",
            "",
            "just text",
            "<!DOCTYPE html><a/>",
            "<a x></a>",
            "<a",  # ends inside a name: scanning must stop at the end
            "<a><b",
            "<a></a",
            "<1a/>",
            "<-a/>",
        ],
    )
    def test_rejects_malformed(self, source):
        with pytest.raises(XMLSyntaxError):
            parse(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as exc:
            parse("<a>\n<b></c></a>")
        assert exc.value.line == 2

    def test_deepest_accepted_document_parses_and_round_trips(self):
        depth = MAX_DEPTH
        assert depth == 497
        root = parse("<a>" * depth + "x" + "</a>" * depth)
        assert serialize(root) == "<a>" * depth + "x" + "</a>" * depth
        leaf = parse("<a>" * (depth - 1) + "<b/>" + "</a>" * (depth - 1))
        assert leaf.copy().serialized_size() == len(serialize(leaf))

    @pytest.mark.parametrize("depth", [498, 5_000, 100_000])
    def test_deeper_documents_fail_typed(self, depth):
        # never a bare RecursionError: parse reads input from outside
        with pytest.raises(DocumentTooDeepError) as exc:
            parse("<a>" * depth + "</a>" * depth)
        assert (exc.value.depth, exc.value.limit) == (MAX_DEPTH + 1, MAX_DEPTH)
        assert isinstance(exc.value, XMLError)
        with pytest.raises(DocumentTooDeepError):
            parse_fragment("<b/>" + "<a>" * depth + "</a>" * depth)


class TestFragments:
    def test_forest(self):
        nodes = parse_fragment("<a/><b/>text<c/>")
        tags = [n.tag if isinstance(n, Element) else "#" for n in nodes]
        assert tags == ["a", "b", "#", "c"]

    def test_whitespace_between_elements_dropped(self):
        nodes = parse_fragment("<a/>\n  <b/>")
        assert len(nodes) == 2

    def test_empty_fragment(self):
        assert parse_fragment("  \n ") == []

    def test_fragment_with_comment(self):
        nodes = parse_fragment("<!-- hi --><a/>")
        assert len(nodes) == 1


class TestSerializer:
    def test_compact_round_trip(self):
        source = '<a x="1"><b>hi &amp; bye</b><c/></a>'
        assert serialize(parse(source)) == source

    def test_attribute_escaping(self):
        e = element("a", attrs={"v": '<"&'})
        assert equivalent(parse(serialize(e)), e)

    def test_text_escaping(self):
        e = element("a", "<tag> & more")
        assert parse(serialize(e)).string_value() == "<tag> & more"

    def test_attrs_sorted_deterministically(self):
        e1 = Element("a", {"b": "1", "a": "2"})
        e2 = Element("a", {"a": "2", "b": "1"})
        assert serialize(e1) == serialize(e2)

    def test_ids_serialize_as_a_reserved_attribute(self):
        e = element("a", element("b"))
        e.node_id = NodeId("p1", 3)
        e.element_children[0].node_id = NodeId("p1", 4)
        wire = serialize(e, with_ids=True)
        assert wire == '<a __id="n3@p1"><b __id="n4@p1"/></a>'
        assert serialize(e) == "<a><b/></a>"

    def test_pretty_contains_indentation(self):
        out = pretty(parse("<a><b><c/></b></a>"))
        assert "\n    <c/>" in out

    def test_pretty_keeps_text_inline(self):
        out = pretty(parse("<a><b>text</b></a>"))
        assert "<b>text</b>" in out

    def test_escape_helpers(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"
        assert escape_attr('a"b<c') == "a&quot;b&lt;c"


class TestRoundTripProperty:
    """Deterministic spot-checks; randomized versions live in test_properties."""

    def test_deep_nesting(self):
        depth = 200
        source = "".join(f"<n{i}>" for i in range(depth))
        source += "".join(f"</n{i}>" for i in reversed(range(depth)))
        root = parse(source)
        assert equivalent(parse(serialize(root)), root)

    def test_many_siblings(self):
        source = "<r>" + "<x/>" * 500 + "</r>"
        assert len(parse(source).children) == 500

    def test_unicode_content(self):
        source = "<a>héllo wörld — ✓</a>"
        assert parse(serialize(parse(source))).string_value() == "héllo wörld — ✓"
