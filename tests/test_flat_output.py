"""Flat output columns from the shard to the wire.

Covers :class:`repro.wrap.output.FlatOutput` (the preorder-column form
every shard returns, the result cache stores and the server encodes):

* its JSON encoder is byte-identical to ``json.dumps`` of the nested
  tree, on workload pages and randomized tag soup;
* served ``/extract`` and ``/batch`` bodies are byte-identical to the
  nested payload on inline, process and remote shards;
* nothing on the served path recurses per output level: 300-, 500- and
  5,000-deep outputs come back as 200 on inline and process shards;
* the output helpers (``to_sexpr``, ``iter_subtree``, ``to_xml``) are
  iterative, and entity decoding is linear in the input;
* an encoding failure is a typed 500 with an access-log line, not a
  dropped connection.
"""

import http.client
import io
import json
import pickle
import random
import re
import time

import pytest

from repro.html import parse_html
from repro.html.entities import decode_entities
from repro.serve import (
    DaemonThread,
    ExtractionServer,
    ServerThread,
    ShardDaemon,
    WrapperRegistry,
)
from repro.serve.registry import build_wrapper
from repro.trees.stream import html_snapshot
from repro.workloads import (
    CATALOG_WRAPPER,
    FORUM_WRAPPER,
    catalog_page,
    forum_page,
    news_page,
)
from repro.wrap import Wrapper
from repro.wrap.output import (
    FlatOutput,
    OutputNode,
    build_flat_output,
    build_output_from_snapshot,
)
from repro.wrap.serialize import to_xml
from tests.test_stream import catalog_wrapper, soup

DEEP_DATALOG = "d(x) :- label_div(x)."
#: Nested news output: articles, comment lists, comments and paragraphs.
NEWS_DATALOG = "n(x) :- label_div(x). n(x) :- label_li(x). n(x) :- label_p(x)."
DEEP_LEVELS = (300, 500, 5000)


def nested_json(root: OutputNode) -> str:
    """``json.dumps(root.to_dict())`` by an iterative walk.

    An oracle independent of :meth:`FlatOutput.to_json`, usable at any
    depth (``json.dumps`` itself recurses and fails near depth 500)."""
    parts = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(
            '{"label": %s, "source_id": %s, "text": %s, "children": ['
            % (json.dumps(item.label), json.dumps(item.source_id), json.dumps(item.text))
        )
        stack.append("]}")
        for k in range(len(item.children) - 1, -1, -1):
            stack.append(item.children[k])
            if k:
                stack.append(", ")
    return "".join(parts)


def deep_page(levels: int, leaf: str = "leaf") -> str:
    return "<div>" * levels + leaf + "</div>" * levels


def chain(levels: int) -> OutputNode:
    root = node = OutputNode("result")
    for _ in range(levels):
        node = node.add(OutputNode("d"))
    node.text = "leaf"
    return root


def raw_request(host, port, method, path, body=None, timeout=60):
    """One HTTP round trip; returns ``(status, raw body bytes)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def served_registry() -> WrapperRegistry:
    registry = WrapperRegistry()
    registry.register("catalog", CATALOG_WRAPPER, kind="elog")
    registry.register("forum", FORUM_WRAPPER, kind="elog")
    registry.register("deep", DEEP_DATALOG, kind="datalog", patterns=["d"])
    registry.register("news", NEWS_DATALOG, kind="datalog", patterns=["n"])
    return registry


def direct(registry: WrapperRegistry, name: str) -> Wrapper:
    entry = registry.resolve(name)
    wrapper, _ = build_wrapper(entry.kind, entry.source, list(entry.patterns))
    return wrapper


_TRACE_TAIL = re.compile(r', "trace_id": "[0-9a-f-]+"\}$')


def envelope_head(registry: WrapperRegistry, name: str, key: str) -> str:
    entry = registry.resolve(name)
    return (
        f'{{"wrapper": {json.dumps(entry.name)}, '
        f'"version": {entry.version}, "{key}": '
    )


class TestFlatOutputEncoding:
    def test_json_matches_nested_dumps_on_random_soup(self):
        rng = random.Random(1207)
        wrapper = catalog_wrapper()
        for _ in range(200):
            doc = soup(rng, pieces=20)
            [flat] = wrapper.wrap_html_flat([doc])
            tree = flat.to_tree()
            assert flat.to_json() == json.dumps(tree.to_dict()), repr(doc)
            # The Node-tree builder is an independent oracle for the rule.
            assert tree.to_sexpr() == wrapper.wrap(parse_html(doc)).to_sexpr()

    def test_workload_pages_round_trip_through_pickle(self):
        registry = served_registry()
        cases = [
            ("catalog", catalog_page(seed=3, items=200)),
            ("forum", forum_page(seed=4, threads=3, depth=40)),
            ("news", news_page(seed=5, articles=12)),
        ]
        for name, page in cases:
            wrapper = direct(registry, name)
            [flat] = wrapper.wrap_html_flat([page])
            nested = wrapper.wrap_html_many([page])[0].to_dict()
            assert flat.to_json() == json.dumps(nested)
            blob = pickle.dumps(flat, protocol=pickle.HIGHEST_PROTOCOL)
            assert pickle.loads(blob).to_json() == flat.to_json()
            if len(flat) > 50:
                # Flat columns are smaller on the wire than nested dicts.
                assert len(blob) < len(
                    pickle.dumps(nested, protocol=pickle.HIGHEST_PROTOCOL)
                )

    def test_escaping_matches_json_dumps(self):
        page = '<ul><li>caf&eacute; "q" \\ \t</li><li>  &#x1F600; &lt;</li></ul>'
        flat = build_flat_output(
            html_snapshot(page), {1: 'it"em', 2: "élève"}, root_label="r\\"
        )
        assert flat.to_json() == json.dumps(flat.to_tree().to_dict())

    def test_empty_document_is_a_bare_root(self):
        flat = build_flat_output(html_snapshot(""), {})
        assert len(flat) == 1 and flat.is_well_formed()
        assert json.loads(flat.to_json()) == {
            "label": "result", "source_id": None, "text": None, "children": []
        }

    def test_materialized_tree_matches_flat_columns(self):
        snapshot = html_snapshot(catalog_page(seed=9, items=20))
        assignment = {v: "n" if v % 3 else "m" for v in range(0, snapshot.size, 2)}
        flat = build_flat_output(snapshot, assignment)
        tree = build_output_from_snapshot(snapshot, assignment)
        nodes = list(tree.iter_subtree())
        assert [n.label for n in nodes] == [flat.labels[i] for i in flat.label_ids]
        assert [n.source_id for n in nodes] == [None] + list(flat.source_ids[1:])
        assert {i: n.text for i, n in enumerate(nodes) if n.text} == flat.texts

    def test_deep_output_pickles_and_encodes_at_default_recursion_limit(self):
        wrapper = build_wrapper("datalog", DEEP_DATALOG, ["d"])[0]
        [flat] = wrapper.wrap_html_flat([deep_page(5000)])
        clone = pickle.loads(pickle.dumps(flat, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(clone) == 5001
        assert clone.to_json() == nested_json(clone.to_tree())
        assert clone.to_tree().to_sexpr() == "result(" + "d(" * 4999 + "d" + ")" * 5000


class TestIterativeOutputHelpers:
    def test_to_sexpr_at_depth_5000(self):
        assert chain(5000).to_sexpr() == "result(" + "d(" * 4999 + "d" + ")" * 5000

    def test_iter_subtree_at_depth_5000(self):
        nodes = list(chain(5000).iter_subtree())
        assert len(nodes) == 5001
        assert [n.label for n in nodes[:2]] == ["result", "d"]
        assert nodes[-1].text == "leaf"

    def test_to_xml_at_depth_5000(self):
        lines = to_xml(chain(5000)).split("\n")
        assert len(lines) == 2 * 5000 + 1
        assert lines[0] == "<result>" and lines[-1] == "</result>"
        assert lines[5000] == "  " * 5000 + "<d>leaf</d>"
        assert lines[5001] == "  " * 4999 + "</d>"

    def test_helpers_keep_sibling_order(self):
        root = OutputNode("r")
        for label in "abc":
            child = root.add(OutputNode(label))
            child.add(OutputNode(label + "1"))
        assert root.to_sexpr() == "r(a(a1), b(b1), c(c1))"
        assert [n.label for n in root.iter_subtree()] == [
            "r", "a", "a1", "b", "b1", "c", "c1"
        ]


class TestEntityDecodingIsLinear:
    def test_unterminated_numeric_references_scale_linearly(self):
        def cost(n):
            text = "&#x41" * n
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                assert decode_entities(text) == text
                best = min(best, time.perf_counter() - started)
            return best

        small, large = cost(20_000), cost(80_000)
        # Linear would be 4x; the old unbounded search was ~16x.
        assert large / small < 9.0, (small, large)

    def test_decoding_is_unchanged(self):
        assert decode_entities("a &amp; b &#65; &#x42; &eacute;") == "a & b A B é"
        assert decode_entities("&#x41&#x41;") == "&#x41A"
        assert decode_entities("&" + "a" * 31 + ";") == "&" + "a" * 31 + ";"
        assert decode_entities("&#" + "0" * 28 + "65;") == "A"  # 31-char body
        assert decode_entities("&#" + "0" * 29 + "65;") == "&#" + "0" * 29 + "65;"
        assert decode_entities("&#99999999999999999999;") == "&#99999999999999999999;"


@pytest.fixture(params=["inline", "process", "remote"])
def served(request):
    """A server with catalog/forum/deep wrappers on one shard flavor."""
    daemon = None
    registry = served_registry()
    if request.param == "remote":
        daemon = DaemonThread(ShardDaemon())
        host, port = daemon.start()
        server = ExtractionServer(registry, remote_shards=[f"{host}:{port}"])
    else:
        server = ExtractionServer(
            registry, shards=0 if request.param == "inline" else 1
        )
    thread = ServerThread(server)
    host, port = thread.start()
    yield registry, host, port
    thread.stop()
    if daemon is not None:
        daemon.stop()


class TestServedByteParity:
    def test_extract_and_batch_bodies_equal_nested_payload(self, served):
        registry, host, port = served
        rng = random.Random(77)
        cases = [
            ("catalog", catalog_page(seed=11, items=40)),
            ("forum", forum_page(seed=12, threads=2, depth=12)),
            ("news", news_page(seed=13, articles=6)),
        ] + [("catalog", soup(rng, pieces=20)) for _ in range(8)]
        for name, page in cases:
            wrapper = direct(registry, name)
            status, body = raw_request(
                host, port, "POST", f"/extract/{name}", {"html": page}
            )
            assert status == 200, body
            reply = json.loads(body)
            entry = registry.resolve(name)
            expected = json.dumps(
                {
                    "wrapper": entry.name,
                    "version": entry.version,
                    "result": wrapper.wrap_html_many([page])[0].to_dict(),
                    "trace_id": reply["trace_id"],
                }
            )
            assert body.decode("ascii") == expected
        pages = [page for name, page in cases if name == "catalog"]
        status, body = raw_request(
            host, port, "POST", "/batch", {"wrapper": "catalog", "documents": pages}
        )
        assert status == 200, body
        wrapper = direct(registry, "catalog")
        entry = registry.resolve("catalog")
        expected = json.dumps(
            {
                "wrapper": entry.name,
                "version": entry.version,
                "results": [out.to_dict() for out in wrapper.wrap_html_many(pages)],
                "trace_id": json.loads(body)["trace_id"],
            }
        )
        assert body.decode("ascii") == expected


class TestDeepServedOutputs:
    def test_deep_outputs_return_200_and_equal_the_library(self, served):
        registry, host, port = served
        wrapper = direct(registry, "deep")
        for levels in DEEP_LEVELS:
            # A plain request, then two versions of one doc_id: the first
            # misses the shard's state (cold), the second runs warm.
            for leaf, doc_id in (("plain", None), ("v1", "d"), ("v2", "d")):
                page = deep_page(levels, leaf)
                body = {"html": page}
                if doc_id:
                    body["doc_id"] = f"{doc_id}-{levels}"
                status, raw = raw_request(host, port, "POST", "/extract/deep", body)
                assert status == 200, raw[:200]
                text = raw.decode("ascii")
                head = envelope_head(registry, "deep", "result")
                tail = _TRACE_TAIL.search(text)
                assert text.startswith(head) and tail is not None, text[-200:]
                tree = nested_json(wrapper.wrap_html_many([page])[0])
                assert text[len(head) : tail.start()] == tree, (levels, leaf)
            page = deep_page(levels, "batch")
            tree = nested_json(wrapper.wrap_html_many([page])[0])
            status, raw = raw_request(
                host, port, "POST", "/batch",
                {"wrapper": "deep", "documents": [page, page]},
            )
            assert status == 200, raw[:200]
            head = envelope_head(registry, "deep", "results")
            assert raw.decode("ascii").startswith(f"{head}[{tree}, {tree}]")


class TestEncodingFailure:
    def test_unencodable_response_is_a_typed_500_with_log_line(self, monkeypatch):
        log = io.StringIO()
        server = ExtractionServer(served_registry(), shards=0, access_log=log)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            def broken(self):
                raise ValueError("columns torn")

            monkeypatch.setattr(FlatOutput, "to_json", broken)
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request(
                    "POST", "/extract/deep", json.dumps({"html": deep_page(3)})
                )
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
                # The connection survives the failure: a second request
                # on it is answered too.
                monkeypatch.undo()
                conn.request(
                    "POST", "/extract/deep", json.dumps({"html": deep_page(2)})
                )
                again = conn.getresponse()
                assert again.status == 200
                again.read()
            finally:
                conn.close()
        finally:
            thread.stop()
        assert status == 500
        assert reply["retryable"] is False
        assert reply["error"].startswith("response encoding failed: ValueError")
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        failed = [l for l in lines if l.get("trace_id") == reply["trace_id"]]
        assert [(l["event"], l["status"]) for l in failed] == [("request", 500)]
        assert "columns torn" in failed[0]["error"]
        assert server.metrics.snapshot()["counters"]["errors"] >= 1
