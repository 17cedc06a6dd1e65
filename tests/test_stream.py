"""The streaming ingestion pipeline: HTML bytes -> columns, no Nodes.

Covers :mod:`repro.trees.stream` (the :class:`SnapshotBuilder` and its
HTML/s-expression/tree drivers), :mod:`repro.html.policy` (shared
tag-soup rules), :class:`repro.wrap.document.Document`,
:func:`repro.wrap.output.build_output_from_snapshot`, and the batch /
process-pool entry points of :class:`repro.wrap.extraction.Wrapper`.

The core guarantee is *column parity*: for any document -- including
randomized tag soup with implicit closers, void elements, rawtext and
stray end tags -- the streaming builder produces a snapshot identical,
column by column, to flattening the Node tree built by ``parse_html``,
and wrapped outputs agree across every path (Node, Document, workers).
"""

import random

import pytest

from repro.datalog.parser import parse_program
from repro.errors import DatalogError, TreeError, WrapError
from repro.html import parse_html
from repro.structures import as_indexed
from repro.trees import parse_sexpr
from repro.trees.generate import random_tree
from repro.trees.snapshot import TreeSnapshot
from repro.trees.stream import (
    SnapshotBuilder,
    html_snapshot,
    sexpr_snapshot,
    tree_snapshot,
)
from repro.trees.unranked import UnrankedStructure
from repro.workloads import (
    CATALOG_WRAPPER,
    catalog_page,
    catalog_pages,
    news_page,
    noisy_table_page,
)
from repro.wrap import Document, Wrapper, build_output_from_snapshot
from repro.wrap.output import build_output_tree, node_text

#: Tag-soup fragments exercising every policy rule: implicit closers,
#: scope barriers, void elements, self-closing syntax, rawtext, stray
#: and unmatched end tags, comments, doctypes, entities, broken markup.
SOUP_PIECES = [
    "<p>", "</p>", "<li>x", "<ul>", "</ul>", "<td a=1>", "<table>", "<tr>",
    "<td>", "<th>c", "</table>", "text & stuff", "<br/>", "<br>", "</br>",
    "<script>if(a<b)x();</script>", "<SCRIPT>X</SCRIPT>", "<style>p{}</style>",
    "</x>", "<", "<3>", "<!-- c -->", "<!DOCTYPE html>", "<img src=x>",
    "<i a='q'>", '<b a="un', "</ p>", "<dt>d", "<dd>e", "<option>o",
    "<tbody>", "<thead>", "<html>", "<body>", "</body>", "<div>", "</div>",
    "<p>par<p>par2", "<select>", "</select>", "x &amp; y", "<a href='/x?a=1&amp;b=2'>y</a>",
    # Shapes a token regex gets wrong first.
    "<td >", '<td\tclass="x">', '<TD CLASS="X">', '<a title="a>b">', "<p/>", "</p >",
    '<a href="/x" id=k class=\'c\'>', "<input disabled>", '<i title="x &amp; y">',
    '<li class="x" checked>', "<!-->", "</TD>", "<Ul>", "</LI >", " \n ",
]

#: Pieces that only make sense as the last thing on the page.
EOF_PIECES = ['<td class="x"', "<", "<!-->", "<!-- open", "</li", "<b a=\"un", "<!DOCTYPE"]


def soup(rng: random.Random, pieces: int = 14) -> str:
    return "".join(rng.choice(SOUP_PIECES) for _ in range(rng.randint(0, pieces)))


def columns(snapshot: TreeSnapshot) -> dict:
    return {
        "size": snapshot.size,
        "parent": snapshot.parent,
        "firstchild": snapshot.firstchild,
        "nextsibling": snapshot.nextsibling,
        "prevsibling": snapshot.prevsibling,
        "lastchild": snapshot.lastchild,
        "label_ids": snapshot.label_ids,
        "labels": snapshot.labels,
        "label_index": snapshot.label_index,
        "texts": snapshot.texts,
        "attrs": snapshot.attrs,
    }


def catalog_wrapper() -> Wrapper:
    from repro.elog.parser import parse_elog

    program = parse_elog(CATALOG_WRAPPER, query="record")
    wrapper = Wrapper()
    for pattern in ("record", "name", "price"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper


class TestSnapshotParity:
    """Streaming snapshots are column-identical to the Node path."""

    def test_randomized_tag_soup_parity(self):
        rng = random.Random(20260729)
        for _ in range(500):
            doc = soup(rng)
            via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
            streamed = html_snapshot(doc)
            assert columns(via_nodes) == columns(streamed), repr(doc)

    def test_unterminated_markup_at_eof_parity(self):
        rng = random.Random(20261017)
        for _ in range(200):
            doc = soup(rng, pieces=6) + rng.choice(EOF_PIECES)
            via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
            assert columns(via_nodes) == columns(html_snapshot(doc)), repr(doc)

    def test_workload_page_parity(self):
        for page in (
            catalog_page(seed=1, items=120),
            news_page(seed=2, articles=25),
            noisy_table_page(seed=3, rows=60),
        ):
            via_nodes = UnrankedStructure(parse_html(page)).snapshot()
            assert columns(via_nodes) == columns(html_snapshot(page))

    def test_root_unwrapping_matches_parse_html(self):
        # Single element root unwraps; top-level text or siblings keep the
        # synthetic document node -- exactly as parse_html decides.
        for doc in (
            "<html><p>x</p></html>", "a<p>b</p>", "<p>a</p><p>b</p>", "", "plain",
            "  only text  ", "<!-- c -->text", "<document><p>x</document>y",
            "<p>x</p>tail", "\n<html></html>\n", "<br>", "<br><br>",
        ):
            tree = parse_html(doc)
            streamed = html_snapshot(doc)
            assert streamed.labels[streamed.label_ids[0]] == tree.label, repr(doc)
            assert columns(UnrankedStructure(tree).snapshot()) == columns(streamed)

    def test_slow_path_is_per_token(self, monkeypatch):
        # A comment and a <script> go through the fallback one token each;
        # every other token of the page stays on the token regex.
        from repro.html import tokenizer

        calls = []
        slow_token = tokenizer._slow_token

        def counting(html, i):
            calls.append(html[i : i + 4])
            return slow_token(html, i)

        monkeypatch.setattr(tokenizer, "_slow_token", counting)
        page = catalog_page(seed=1, items=50)
        html_snapshot(page)
        tokenizer.scan_list(page)
        assert calls == []
        doc = page.replace("<h1>", "<!-- c --><script>x</script><h1>")
        via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
        assert calls == ["<!--", "<scr"]
        assert columns(via_nodes) == columns(html_snapshot(doc))
        assert calls == ["<!--", "<scr"] * 2

    def test_sexpr_and_tree_replays(self):
        rng = random.Random(5)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(1, 20), labels=("a", "b", "c"))
            reference = UnrankedStructure(tree).snapshot()
            for snapshot in (tree_snapshot(tree), sexpr_snapshot(str(tree))):
                assert snapshot.parent == reference.parent
                assert snapshot.labels == reference.labels
                assert snapshot.label_ids == reference.label_ids

    def test_tree_replay_keeps_interior_text_and_attrs(self):
        # Regression: interior (non-leaf) nodes may carry text/attrs on
        # hand-built trees; the replay must not drop them.
        from repro.trees import Node

        root = Node("div", attrs={"id": "r"}, text="interior")
        root.add_child(Node("b", text="child"))
        reference = UnrankedStructure(root).snapshot()
        snapshot = tree_snapshot(root)
        assert snapshot.texts == reference.texts == {0: "interior", 1: "child"}
        assert snapshot.attrs == reference.attrs
        assert snapshot.node_text(0) == "interior child"

    def test_builder_primitives_and_errors(self):
        builder = SnapshotBuilder()
        root = builder.open("a")
        builder.leaf("b", text="t")
        child = builder.open("c", attrs={"k": "v"})
        builder.close()
        snapshot = builder.finish()
        assert (root, child) == (0, 2)
        assert list(snapshot.parent) == [-1, 0, 0]
        assert snapshot.texts[1] == "t"
        assert snapshot.attrs[2] == {"k": "v"}
        with pytest.raises(TreeError):
            SnapshotBuilder().close()
        second_root = SnapshotBuilder()
        second_root.open("a")
        second_root.close()
        with pytest.raises(TreeError):
            second_root.open("b")


class TestDocument:
    def test_relations_match_unranked_structure(self):
        page = noisy_table_page(seed=9, rows=12)
        reference = UnrankedStructure(parse_html(page))
        document = Document.from_html(page)
        for name in (
            "dom", "root", "leaf", "lastsibling", "firstsibling",
            "label_td", "label_zzz", "notlabel_td", "firstchild",
            "nextsibling", "lastchild", "child", "nextsibling_star",
            "nextsibling_plus", "child_star", "child_plus", "docorder",
        ):
            assert document.relation(name) == reference.relation(name), name
        assert document.functional("firstchild") == reference.functional("firstchild")
        assert set(document.relation_names()) == set(reference.relation_names())
        assert document.labels() == reference.labels()
        with pytest.raises(DatalogError):
            document.relation("nonsense")

    def test_text_and_attrs(self):
        document = Document.from_html(
            '<div id="main"><p>hello <b>world</b></p><p>bye</p></div>'
        )
        assert document.attrs_of(0) == {"id": "main"}
        assert document.text(0) == "hello world bye"
        assert document.label_of(0) == "div"

    def test_compiled_programs_run_on_documents(self):
        from repro.datalog.engine import compile_program

        program = parse_program(
            "item(x) :- label_li(x).\nitem(y) :- item(x), firstchild(x, y).",
            query="item",
        )
        compiled = compile_program(program)
        document = Document.from_html("<ul><li>a<li><b>c</b></ul>")
        tree_result = compiled.run(UnrankedStructure(parse_html("<ul><li>a<li><b>c</b></ul>")))
        doc_result = compiled.run(as_indexed(document))
        assert doc_result.method == "kernel"
        assert doc_result.relations == tree_result.relations
        # The general engine works off Document's column-computed relations.
        assert (
            compiled.run(as_indexed(document), method="seminaive").relations
            == tree_result.relations
        )

    def test_document_pickles(self):
        import pickle

        document = Document.from_html(catalog_page(seed=1, items=5))
        clone = pickle.loads(pickle.dumps(document))
        assert columns(clone.snapshot()) == columns(document.snapshot())


class TestOutputFromSnapshot:
    def test_matches_tree_output_on_random_soup(self):
        rng = random.Random(99)
        wrapper = catalog_wrapper()
        for _ in range(120):
            doc = soup(rng, pieces=20)
            via_tree = wrapper.wrap(parse_html(doc))
            via_stream = wrapper.wrap(Document.from_html(doc))
            assert via_tree.to_sexpr() == via_stream.to_sexpr(), repr(doc)
            assert [
                (n.label, n.text) for n in via_tree.iter_subtree()
            ] == [(n.label, n.text) for n in via_stream.iter_subtree()], repr(doc)

    def test_text_capture_from_text_column(self):
        snapshot = html_snapshot("<ul><li>a <b>b</b></li><li>c</li></ul>")
        out = build_output_from_snapshot(snapshot, {1: "item", 5: "item"})
        assert out.to_sexpr() == "result(item, item)"
        assert [c.text for c in out.children] == ["a b", "c"]
        assert [c.source_id for c in out.children] == [1, 5]

    def test_node_text_equivalence(self):
        page = news_page(seed=4, articles=6)
        tree = parse_html(page)
        snapshot = html_snapshot(page)
        structure = UnrankedStructure(tree)
        for ident in range(0, structure.size, 7):
            assert snapshot.node_text(ident) == node_text(structure.node(ident))


class TestBatchAndWorkers:
    def test_wrap_html_many_matches_node_path(self):
        wrapper = catalog_wrapper()
        pages = catalog_pages(4, items=18)
        streamed = wrapper.wrap_html_many(pages)
        via_trees = wrapper.wrap_many([parse_html(p) for p in pages])
        assert [o.to_sexpr() for o in streamed] == [o.to_sexpr() for o in via_trees]

    def test_wrap_many_accepts_documents_and_trees(self):
        wrapper = catalog_wrapper()
        pages = catalog_pages(3, items=9)
        mixed = [Document.from_html(pages[0]), parse_html(pages[1]), Document.from_html(pages[2])]
        outs = wrapper.wrap_many(mixed)
        assert [o.to_sexpr() for o in outs] == [
            wrapper.wrap(parse_html(p)).to_sexpr() for p in pages
        ]

    def test_workers_output_equals_serial(self):
        wrapper = catalog_wrapper()
        pages = catalog_pages(6, items=12)
        serial = wrapper.wrap_html_many(pages)
        pooled = wrapper.wrap_html_many(pages, workers=2)
        assert [o.to_sexpr() for o in pooled] == [o.to_sexpr() for o in serial]
        assert [
            [(n.label, n.text, n.source_id) for n in o.iter_subtree()]
            for o in pooled
        ] == [
            [(n.label, n.text, n.source_id) for n in o.iter_subtree()]
            for o in serial
        ]
        assert wrapper.extract_html_many(pages, workers=2) == wrapper.extract_html_many(pages)

    def test_workers_on_parsed_trees(self):
        wrapper = catalog_wrapper()
        trees = [parse_html(p) for p in catalog_pages(4, items=8)]
        assert [o.to_sexpr() for o in wrapper.wrap_many(trees, workers=2)] == [
            o.to_sexpr() for o in wrapper.wrap_many(trees)
        ]
        assert wrapper.extract_many(trees, workers=2) == wrapper.extract_many(trees)

    def test_elog_translation_cache_survives_id_reuse(self):
        # Regression: the translation cache is keyed by ``id(program)``;
        # registering programs in a loop without holding references used
        # to let a recycled object id alias a freed program's translation.
        import gc

        from repro.elog.parser import parse_elog

        wrapper = Wrapper()
        for i in range(30):
            text = f"p{i}(x) <- root(x0), subelem(x0, 'body', x)."
            wrapper.add_elog(f"p{i}", parse_elog(text, query=f"p{i}"))
            gc.collect()
        results = wrapper.extract(parse_html("<html><body>x</body></html>"))
        assert all(results[f"p{i}"] for i in range(30))

    def test_streaming_rejects_non_datalog_functions(self):
        wrapper = catalog_wrapper().add_callable(
            "manual", lambda structure: {0}
        )
        page = catalog_page(seed=2, items=3)
        # Node path still serves callables; the streaming path refuses.
        assert "manual" in wrapper.extract(parse_html(page))
        with pytest.raises(WrapError):
            wrapper.extract(Document.from_html(page))

    def test_streaming_path_allocates_zero_nodes(self, monkeypatch):
        import repro.trees.node as node_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("Node allocated on the streaming path")

        wrapper = catalog_wrapper()
        wrapper.compile()
        pages = catalog_pages(2, items=10)
        monkeypatch.setattr(node_module.Node, "__init__", forbidden)
        outs = wrapper.wrap_html_many(pages)
        extracted = wrapper.extract_html_many(pages)
        assert len(outs) == 2 and len(extracted) == 2
        assert all(out.children for out in outs)
