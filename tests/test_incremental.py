"""Incremental re-extraction: Merkle snapshots, diffs, warm fixpoints.

Covers the whole warm path bottom up:

* Merkle/signature stability -- the fused ``html_snapshot`` loop
  and the Node-tree path must hash identical documents identically
  (including randomized tag-soup HTML, where implied closes reshape the
  tree the same way on both paths);
* snapshot diffing -- the structural invariants every diff must satisfy,
  on targeted fast-path shapes (payload-only edits, deep unary spines)
  and randomized edit scripts;
* the delta kernel -- randomized parity of warm re-evaluation against
  cold runs across engines, including the states packed back out of
  narrow-frontier worklist handoffs;
* the serving warm path -- ``doc_id`` requests against a live server
  must reuse per-document state, agree with cold extraction, and surface
  a nonzero ``incremental_reuse_fraction`` in ``/metrics``.
"""

import json
import random

import pytest

from repro.datalog.engine import compile_program, evaluate
from repro.datalog.parser import parse_program
from repro.serve import ExtractionServer, ServerThread, WrapperRegistry
from repro.structures import as_indexed
from repro.trees.diff import diff_snapshots
from repro.trees.generate import random_tree, thread_tree
from repro.trees.merkle import merkle_table, signature_table
from repro.trees.stream import html_snapshot, tree_snapshot
from repro.trees.unranked import UnrankedStructure
from repro.html import parse_html
from repro.workloads import FORUM_WRAPPER, forum_page

DESCENT = """
mark(x) :- root(x).
mark(y) :- mark(x), child(x, y).
deep(x) :- mark(x), label_leafc(x).
"""


def descent_program():
    return compile_program(parse_program(DESCENT, query="deep"))


def all_nodes(root):
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            out.append(child)
            stack.append(child)
    return out


def soup_page(rng: random.Random) -> str:
    """Randomized tag-soup HTML: unclosed <li>/<p>/<td>, stray text."""
    parts = ["<html><body>"]
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(4)
        if kind == 0:
            items = "".join(
                f"<li>item {rng.randrange(100)}" for _ in range(rng.randint(1, 4))
            )
            parts.append(f"<ul>{items}</ul>")
        elif kind == 1:
            cells = "".join(
                f"<td>c{rng.randrange(10)}" for _ in range(rng.randint(1, 3))
            )
            parts.append(f"<table><tr>{cells}</table>")
        elif kind == 2:
            parts.append(f"<p>para {rng.randrange(100)}<p>another")
        else:
            parts.append(f"text {rng.randrange(100)} <b>bold")
    parts.append("</body></html>")
    return "".join(parts)


class TestMerkleStability:
    def test_builder_and_tree_paths_hash_identically(self):
        rng = random.Random(11)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 40), labels=("a", "b", "c"))
            for node in rng.sample(all_nodes(tree), rng.randint(0, 3)):
                node.text = f"t{rng.randrange(100)}"
                node.attrs = {"k": str(rng.randrange(10))}
            streamed = tree_snapshot(tree)
            reference = UnrankedStructure(tree).snapshot()
            assert merkle_table(streamed).hashes == merkle_table(reference).hashes
            assert signature_table(streamed) == signature_table(reference)

    def test_tag_soup_html_paths_hash_identically(self):
        rng = random.Random(23)
        for _ in range(25):
            page = soup_page(rng)
            streamed = html_snapshot(page)
            reference = UnrankedStructure(parse_html(page)).snapshot()
            assert merkle_table(streamed).hashes == merkle_table(reference).hashes

    def test_hash_is_sensitive_to_payload_and_shape(self):
        base = UnrankedStructure(thread_tree(2, 3)).snapshot()
        edited = thread_tree(2, 3)
        edited.children[0].text = "different"
        reshaped = thread_tree(3, 3)
        assert (
            merkle_table(base).hashes[0]
            != merkle_table(UnrankedStructure(edited).snapshot()).hashes[0]
        )
        assert (
            merkle_table(base).hashes[0]
            != merkle_table(UnrankedStructure(reshaped).snapshot()).hashes[0]
        )


def assert_diff_invariants(old, new, d):
    """The contract every diff must satisfy: ``new_from_old`` is an
    injective partial mapping old id -> new id whose pairs agree on
    label, text, and attributes, and a new node is dirty exactly when no
    old node maps onto it."""
    image = set()
    for old_id in range(old.size):
        new_id = d.new_from_old[old_id]
        if new_id < 0:
            continue
        assert new_id not in image
        image.add(new_id)
        assert (
            old.labels[old.label_ids[old_id]]
            == new.labels[new.label_ids[new_id]]
        )
        assert (old.texts or {}).get(old_id) == (new.texts or {}).get(new_id)
        assert (old.attrs or {}).get(old_id) == (new.attrs or {}).get(new_id)
    for new_id in range(new.size):
        assert (d.dirty_new_int >> (8 * new_id) & 1) == (new_id not in image)


class TestSnapshotDiff:
    def test_payload_only_edit_takes_identity_mapping(self):
        t1 = thread_tree(6, 8)
        t2 = thread_tree(6, 8)
        targets = [n for n in all_nodes(t2) if n.text][3:6]
        for node in targets:
            node.text += " edited"
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert_diff_invariants(old, new, d)
        dirty = {v for v in range(new.size) if d.dirty_new_int >> (8 * v) & 1}
        assert d.dirty_count == len(targets)
        # identity everywhere except the edited nodes
        for v in range(old.size):
            assert d.new_from_old[v] == (-1 if v in dirty else v)

    def test_attr_only_edit_is_detected(self):
        t1 = thread_tree(3, 4)
        t2 = thread_tree(3, 4)
        all_nodes(t2)[5].attrs = {"class": "edited"}
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert d.dirty_count == 1
        assert_diff_invariants(old, new, d)

    def test_deep_spine_edit_stays_narrow(self):
        t1 = thread_tree(1, 200)
        t2 = thread_tree(1, 200)
        spine = [n for n in all_nodes(t2) if n.text]
        spine[len(spine) // 2].text += " mid-edit"
        old = UnrankedStructure(t1).snapshot()
        new = UnrankedStructure(t2).snapshot()
        d = diff_snapshots(old, new)
        assert_diff_invariants(old, new, d)
        assert d.dirty_count == 1

    def test_randomized_edit_scripts_keep_invariants(self):
        rng = random.Random(31)
        for _ in range(60):
            t1 = random_tree(rng, rng.randint(2, 30), labels=("a", "b"))
            t2 = random_tree(rng, rng.randint(2, 30), labels=("a", "b"))
            old = UnrankedStructure(t1).snapshot()
            new = UnrankedStructure(t2).snapshot()
            assert_diff_invariants(old, new, diff_snapshots(old, new))

    def test_diff_memo_is_reused(self):
        old = UnrankedStructure(thread_tree(2, 4)).snapshot()
        new = UnrankedStructure(thread_tree(2, 4)).snapshot()
        assert diff_snapshots(old, new) is diff_snapshots(old, new)


class TestIncrementalKernelParity:
    def edit(self, rng, tree, edits):
        pool = [n for n in all_nodes(tree) if n.text]
        for node in rng.sample(pool, min(edits, len(pool))):
            node.text += " X"

    def test_randomized_text_edits_match_cold_across_engines(self):
        rng = random.Random(47)
        program = descent_program()
        raw = parse_program(DESCENT, query="deep")
        applied = 0
        for _ in range(40):
            threads = rng.randint(2, 12)
            depth = rng.randint(6, 25)
            v1 = thread_tree(threads, depth)
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(v1)), None
            )
            v2 = thread_tree(threads, depth)
            # few edits relative to tree size: stay under the kernel's
            # dirty-fraction fallback limit so the warm path engages
            self.edit(rng, v2, rng.randint(1, 4))
            doc = as_indexed(UnrankedStructure(v2))
            warm, _, info = program.run_incremental(doc, state)
            cold = program.run(doc, method="kernel")
            assert warm.unary("deep") == cold.unary("deep")
            assert warm.unary("mark") == cold.unary("mark")
            if info is not None:
                applied += 1
                assert warm.engine.startswith("incremental")
                # spot-check one interpreted engine agrees too
                interp = evaluate(raw, UnrankedStructure(v2), method="seminaive")
                assert warm.unary("deep") == interp.unary("deep")
        # the warm path must actually engage on most trials, not fall back
        assert applied >= 30

    def test_worklist_handoff_packs_reusable_state(self):
        # 2 threads keep the frontier under the narrow limit: the cold
        # run *must* hand off to the scalar worklist, and since the
        # handoff packs the finished bitmasks into a KernelState, the
        # next version still gets a warm run.
        program = descent_program()
        v1 = thread_tree(2, 40)
        cold, state, _ = program.run_incremental(
            as_indexed(UnrankedStructure(v1)), None
        )
        assert cold.engine == "frontier+worklist"
        assert state is not None
        v2 = thread_tree(2, 40)
        self.edit(random.Random(3), v2, 2)
        doc = as_indexed(UnrankedStructure(v2))
        warm, next_state, info = program.run_incremental(doc, state)
        assert info is not None and warm.engine.startswith("incremental")
        assert warm.unary("deep") == program.run(doc, method="kernel").unary(
            "deep"
        )
        assert next_state is not None

    def test_large_dirty_fraction_falls_back_cold(self):
        program = descent_program()
        v1 = thread_tree(4, 10)
        _, state, _ = program.run_incremental(
            as_indexed(UnrankedStructure(v1)), None
        )
        v2 = thread_tree(10, 16)  # a mostly different document
        doc = as_indexed(UnrankedStructure(v2))
        result, _, info = program.run_incremental(doc, state)
        assert info is None  # fell back
        assert result.unary("deep") == program.run(doc).unary("deep")

    def test_structure_change_parity(self):
        # Edits that add and remove whole subtrees, not just payloads.
        program = descent_program()
        rng = random.Random(59)
        for _ in range(15):
            v1 = thread_tree(rng.randint(3, 8), rng.randint(4, 12))
            _, state, _ = program.run_incremental(
                as_indexed(UnrankedStructure(v1)), None
            )
            v2 = thread_tree(rng.randint(3, 8), rng.randint(4, 12))
            interior = [n for n in all_nodes(v2) if n.children]
            rng.choice(interior).new_child("extra", text="new node")
            doc = as_indexed(UnrankedStructure(v2))
            warm, _, _ = program.run_incremental(doc, state)
            cold = program.run(doc, method="kernel")
            assert warm.unary("deep") == cold.unary("deep")
            assert warm.unary("mark") == cold.unary("mark")


def request(host, port, method, path, body=None, timeout=60):
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestServeWarmPath:
    @pytest.fixture
    def forum_server(self):
        registry = WrapperRegistry()
        registry.register(
            "forum", FORUM_WRAPPER, kind="elog",
            patterns=["thread", "comment", "body"],
        )
        server = ExtractionServer(registry, port=0, shards=0, cache_size=0)
        thread = ServerThread(server)
        host, port = thread.start()
        yield host, port
        thread.stop()

    def test_doc_id_reuses_state_and_matches_cold(self, forum_server):
        host, port = forum_server
        v1 = forum_page(seed=5, threads=3, depth=12)
        v2 = v1.replace("Comment 1.11 ", "Comment 1.11 (edited) ")

        status, first = request(
            host, port, "POST", "/extract/forum",
            {"html": v1, "doc_id": "doc-a"},
        )
        assert status == 200
        status, warm = request(
            host, port, "POST", "/extract/forum",
            {"html": v2, "doc_id": "doc-a"},
        )
        assert status == 200
        status, cold = request(
            host, port, "POST", "/extract/forum", {"html": v2}
        )
        assert status == 200
        assert warm["result"] == cold["result"]

        status, metrics = request(host, port, "GET", "/metrics")
        assert status == 200
        assert metrics["counters"].get("incremental_hits", 0) >= 1
        assert metrics["gauges"].get("incremental_reuse_fraction", 0) > 0

    def test_distinct_doc_ids_do_not_share_state(self, forum_server):
        host, port = forum_server
        page_a = forum_page(seed=6, threads=2, depth=8)
        page_b = forum_page(seed=7, threads=4, depth=5)
        for doc_id, page in (("a", page_a), ("b", page_b)):
            status, out = request(
                host, port, "POST", "/extract/forum",
                {"html": page, "doc_id": doc_id},
            )
            assert status == 200
        # re-crawl of b against its own state must match cold extraction
        edited = page_b.replace("Comment 0.4 ", "Comment 0.4 (new) ")
        status, warm = request(
            host, port, "POST", "/extract/forum",
            {"html": edited, "doc_id": "b"},
        )
        status, cold = request(
            host, port, "POST", "/extract/forum", {"html": edited}
        )
        assert warm["result"] == cold["result"]

    def test_bad_doc_id_type_is_rejected(self, forum_server):
        host, port = forum_server
        status, body = request(
            host, port, "POST", "/extract/forum",
            {"html": "<ul><li>x</ul>", "doc_id": 7},
        )
        assert status == 400
        assert "doc_id" in body["error"]
