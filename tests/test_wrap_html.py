"""Tests for the wrapping layer (output trees, wrappers, XML) and the
HTML front end (tokenizer, entities, tree builder) plus the synthetic
workload generators."""

import pytest

from repro.datalog.parser import parse_program
from repro.errors import WrapError
from repro.html import parse_html, tokenize
from repro.html.tokenizer import scan_list
from repro.html.entities import decode_entities
from repro.mso import parse_mso
from repro.trees import UnrankedStructure, parse_sexpr
from repro.workloads import catalog_page, news_page, noisy_table_page
from repro.wrap import Wrapper, build_output_tree, to_xml
from repro.wrap.output import node_text


class TestOutputTree:
    def test_relabel_and_drop(self):
        tree = parse_sexpr("a(b(c), d)")
        nodes = list(tree.iter_subtree())
        assignment = {id(nodes[1]): "item", id(nodes[2]): "value"}
        out = build_output_tree(tree, assignment)
        assert out.to_sexpr() == "result(item(value))"

    def test_ancestor_closure_reconnects(self):
        # The kept nodes are grandparent/grandchild: closure connects them.
        tree = parse_sexpr("a(b(c(d)))")
        nodes = list(tree.iter_subtree())
        assignment = {id(nodes[0]): "outer", id(nodes[3]): "inner"}
        out = build_output_tree(tree, assignment)
        assert out.to_sexpr() == "result(outer(inner))"

    def test_document_order_preserved(self):
        tree = parse_sexpr("a(b, c, d)")
        nodes = list(tree.iter_subtree())
        assignment = {id(n): "x" for n in nodes[1:]}
        out = build_output_tree(tree, assignment)
        assert [c.source.label for c in out.children[0].children] if out.children[0].children else True
        assert out.to_sexpr() == "result(x, x, x)"

    def test_text_capture(self):
        tree = parse_html("<p>hello <b>world</b></p>")
        paragraph = next(n for n in tree.iter_subtree() if n.label == "p")
        out = build_output_tree(tree, {id(paragraph): "para"})
        assert out.children[0].text == "hello world"

    def test_deep_input_does_not_recurse(self):
        # Regression: the builder used to recurse once per input level.
        depth = 5_000
        tree = parse_html("<div>" * depth + "x" + "</div>" * depth)
        wrapper = Wrapper().add_datalog(
            "d", parse_program("d(x) :- label_div(x).", query="d")
        )
        out = wrapper.wrap(tree)
        node, levels = out, 0
        while node.children:
            (node,) = node.children
            levels += 1
        assert levels == depth and node.text == "x"
        assert out.to_sexpr().count("d") == depth


class TestWrapper:
    def test_multi_formalism_wrapper(self):
        tree = parse_sexpr("ul(li(b), li, li(b))")
        wrapper = Wrapper()
        wrapper.add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        wrapper.add_mso(
            "bold", parse_mso("label_b(x)"), "x", ["ul", "li", "b"]
        )
        results = wrapper.extract(tree)
        assert results["item"] == {1, 3, 4}
        assert results["bold"] == {2, 5}
        assert wrapper.wrap(tree).to_sexpr() == "result(item(bold), item, item(bold))"

    def test_priority_order(self):
        tree = parse_sexpr("ul(li)")
        wrapper = Wrapper()
        wrapper.add_callable("first", lambda s: {1})
        wrapper.add_callable("second", lambda s: {1})
        out = wrapper.wrap(tree)
        assert out.children[0].label == "first"

    def test_missing_query_predicate_raises(self):
        with pytest.raises(WrapError):
            Wrapper().add_datalog("x", parse_program("p(x) :- leaf(x)."))

    def test_xml_serialization(self):
        tree = parse_sexpr("ul(li, li)")
        wrapper = Wrapper()
        wrapper.add_datalog(
            "item", parse_program("item(x) :- label_li(x).", query="item")
        )
        xml = to_xml(wrapper.wrap(tree))
        assert xml == "<result>\n  <item/>\n  <item/>\n</result>"

    def test_xml_escaping(self):
        from repro.wrap.output import OutputNode

        root = OutputNode("result")
        child = root.add(OutputNode("v"))
        child.text = "a < b & c"
        assert "&lt;" in to_xml(root) and "&amp;" in to_xml(root)


class TestEntities:
    def test_named_and_numeric(self):
        assert decode_entities("a &amp; b") == "a & b"
        assert decode_entities("&#65;&#x42;") == "AB"

    def test_unknown_left_verbatim(self):
        assert decode_entities("&bogus; & x") == "&bogus; & x"


#: ``scan_list`` events pinned on a fixed corpus: the token regex fast
#: path and the per-token fallback must reproduce these exactly, including
#: every shape a token regex gets wrong first (whitespace before ``>``,
#: quoted ``>``, self-closing syntax, multi-attribute and valueless
#: attributes, unterminated markup at end of input, rawtext, stray ``<``).
GOLDEN_EVENTS = [
    ('<p class="x">hi</p>', [('start', 'p', {'class': 'x'}, False), ('text', 'hi'), ('end', 'p')]),
    ('<td >a</td >', [('start', 'td', {}, False), ('text', 'a'), ('end', 'td')]),
    ('<td\tclass="x">b', [('start', 'td', {'class': 'x'}, False), ('text', 'b')]),
    ('<TD CLASS="X">c</TD>', [('start', 'td', {'class': 'X'}, False), ('text', 'c'), ('end', 'td')]),
    ('<a title="a>b">t</a>', [('start', 'a', {'title': 'a>b'}, False), ('text', 't'), ('end', 'a')]),
    ('<p/>x<br/>', [('start', 'p', {}, True), ('text', 'x'), ('start', 'br', {}, True)]),
    ('</p >', [('end', 'p')]),
    ('<a href="/x" checked data-i=3 class=\'q\'>y</a>', [('start', 'a', {'href': '/x', 'checked': '', 'data-i': '3', 'class': 'q'}, False), ('text', 'y'), ('end', 'a')]),
    ('<input disabled>', [('start', 'input', {'disabled': ''}, False)]),
    ('<a title="x &amp; y">z</a>', [('start', 'a', {'title': 'x & y'}, False), ('text', 'z'), ('end', 'a')]),
    ('<a title="x &amp; y" id=k>z</a>', [('start', 'a', {'title': 'x & y', 'id': 'k'}, False), ('text', 'z'), ('end', 'a')]),
    ('<td class="x"', [('start', 'td', {'class': 'x'}, False)]),
    ('text <', [('text', 'text '), ('text', '<')]),
    ('<!-->after', [('comment', '>af')]),
    ('<!-- c --><!DOCTYPE html><p>', [('comment', ' c '), ('doctype', 'DOCTYPE html'), ('start', 'p', {}, False)]),
    ('<!DOCTYPE', [('doctype', 'DOCTYP')]),
    ('<!--unterminated <b>x</b>', [('comment', 'unterminated <b>x<')]),
    ('only text &amp; more', [('text', 'only text & more')]),
    ('<script>if (a<b) x();</script><p>', [('start', 'script', {}, False), ('text', 'if (a<b) x();'), ('end', 'script'), ('start', 'p', {}, False)]),
    ('<SCRIPT type="t">X</ScRiPt >y', [('start', 'script', {'type': 't'}, False), ('text', 'X'), ('end', 'script'), ('text', 'y')]),
    ('<style>p{}</style><script/>z', [('start', 'style', {}, False), ('text', 'p{}'), ('end', 'style'), ('start', 'script', {}, True), ('text', 'z')]),
    ('<script>never closed', [('start', 'script', {}, False), ('text', 'never closed')]),
    ('a < b <3> </ p> </>', [('text', 'a '), ('text', '<'), ('text', ' b '), ('start', '3', {}, False)]),
    ('<b a="un', [('start', 'b', {'a': 'un'}, False)]),
    ('</x y="1">', [('end', 'x')]),
    ('</a </a </a', [('end', 'a')]),
    ('&#x41&#x41 &bogus; &#65;', [('text', '&#x41&#x41 &bogus; A')]),
    ('<ul>\n  <li>one\n  <li>two\n</ul>\n', [('start', 'ul', {}, False), ('start', 'li', {}, False), ('text', 'one\n  '), ('start', 'li', {}, False), ('text', 'two\n'), ('end', 'ul')]),
    ('<div  id="two-spaces">q</div>', [('start', 'div', {'id': 'two-spaces'}, False), ('text', 'q'), ('end', 'div')]),
    ('<i a=\'q\' b = "r" c=s/>', [('start', 'i', {'a': 'q', 'b': 'r', 'c': 's/'}, False)]),
    ('<x:y-z data-a_b="1">ns</x:y-z>', [('start', 'x:y-z', {'data-a_b': '1'}, False), ('text', 'ns'), ('end', 'x:y-z')]),
]


class TestGoldenEvents:
    @pytest.mark.parametrize("doc,events", GOLDEN_EVENTS)
    def test_scan_list_matches_golden(self, doc, events):
        assert scan_list(doc) == events

    @pytest.mark.parametrize("doc,events", GOLDEN_EVENTS)
    def test_tokenize_agrees_with_scan_list(self, doc, events):
        assert [t.kind for t in tokenize(doc)] == [e[0] for e in events]


class TestTokenizer:
    def test_basic_stream(self):
        kinds = [t.kind for t in tokenize('<p class="x">hi</p>')]
        assert kinds == ["start", "text", "end"]

    def test_attributes(self):
        token = next(tokenize('<a href="/x" checked data-i=3>'))
        assert token.attrs == {"href": "/x", "checked": "", "data-i": "3"}

    def test_comment_and_doctype(self):
        kinds = [t.kind for t in tokenize("<!DOCTYPE html><!-- hi --><p>")]
        assert kinds == ["doctype", "comment", "start"]

    def test_self_closing(self):
        token = next(tokenize("<br/>"))
        assert token.self_closing

    def test_rawtext_script(self):
        tokens = list(tokenize("<script>if (a<b) x();</script><p>"))
        assert tokens[0].name == "script"
        assert tokens[1].data == "if (a<b) x();"
        assert tokens[2].kind == "end"

    def test_rawtext_end_after_length_changing_lowercase(self):
        # "İ".lower() is two characters; searching a lowercased copy of the
        # document used to misplace the end of the rawtext by one.
        assert scan_list("<script>İİ</SCRIPT>x") == [
            ("start", "script", {}, False),
            ("text", "İİ"),
            ("end", "script"),
            ("text", "x"),
        ]

    def test_stray_lt(self):
        tokens = list(tokenize("a < b"))
        assert any(t.kind == "text" for t in tokens)


class TestHTMLParser:
    def test_implicit_li_close(self):
        ul = parse_html("<ul><li>a<li>b</ul>")
        assert ul.label == "ul"
        assert [c.label for c in ul.children] == ["li", "li"]

    def test_implicit_table_cells(self):
        table = parse_html("<table><tr><td>1<td>2<tr><td>3</table>")
        assert [row.label for row in table.children] == ["tr", "tr"]
        assert [len(row.children) for row in table.children] == [2, 1]

    def test_void_elements(self):
        tree = parse_html("<div><br><img src='x'>text</div>")
        div = tree.children[0] if tree.label == "document" else tree
        assert [c.label for c in div.children] == ["br", "img", "#text"]

    def test_unmatched_end_tag_ignored(self):
        tree = parse_html("<div></span>ok</div>")
        assert node_text(tree) == "ok"

    def test_unclosed_elements_closed_at_eof(self):
        tree = parse_html("<div><p>one")
        labels = [n.label for n in tree.iter_subtree()]
        assert labels[:3] == ["div", "p", "#text"]

    def test_single_root_unwrapped(self):
        assert parse_html("<html><body/></html>").label == "html"

    def test_fragment_gets_document_root(self):
        assert parse_html("<p>a</p><p>b</p>").label == "document"

    def test_p_implicit_close(self):
        tree = parse_html("<div><p>one<p>two</div>")
        div = tree
        assert [c.label for c in div.children] == ["p", "p"]

    def test_attributes_preserved_on_nodes(self):
        tree = parse_html('<div id="main"><a href="/x">y</a></div>')
        assert tree.attrs["id"] == "main"


class TestWorkloads:
    def test_catalog_is_deterministic(self):
        assert catalog_page(3, 5) == catalog_page(3, 5)
        assert catalog_page(3, 5) != catalog_page(4, 5)

    def test_catalog_row_count(self):
        tree = parse_html(catalog_page(1, 8))
        rows = [n for n in tree.iter_subtree() if n.label == "tr"]
        assert len(rows) == 8

    def test_news_nested_comments_parse(self):
        tree = parse_html(news_page(11, 3))
        comments = [
            n
            for n in tree.iter_subtree()
            if n.label == "li" and n.attrs.get("class") == "comment"
        ]
        assert comments, "expected at least one comment"

    def test_noisy_table(self):
        tree = parse_html(noisy_table_page(2, rows=4))
        rows = [n for n in tree.iter_subtree() if n.label == "tr"]
        assert len(rows) == 5  # header + 4

    def test_structures_build(self):
        structure = UnrankedStructure(parse_html(catalog_page(5, 3)))
        assert structure.size > 10
