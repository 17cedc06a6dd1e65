"""The traced run: a per-layer ledger of where served wrapping spends time.

Two sources feed it, both recorded in memory and written to
``.perfbench_out/spans-<workload>-s<seed>.jsonl`` at the end:

* **the server's own spans**, pulled from ``GET /debug/traces/<id>``
  after every traced request -- ``http.request`` with its children
  (``batcher.queue``, ``batch.flush``, ``ring.route``, ``shard.call``
  and the shard's grafted ``snapshot.build`` / ``kernel.run``).  Per
  request, the client latency splits exactly into ``http.wire_ms``
  (client latency minus the root span: socket, HTTP parsing, request
  JSON, response encoding), the root's direct children, and
  ``server.unaccounted_ms`` (the root's self time);
* **spans this benchmark records** around direct calls into each
  module's public functions, over the same pages the traced phase sent:
  ``repro.html.tokenizer.scan_list``, ``repro.trees.stream.html_snapshot``,
  ``CompiledProgram.run`` / ``run_incremental`` (``repro.datalog.plan``),
  ``repro.trees.diff.diff_snapshots``,
  ``repro.wrap.output.build_output_from_snapshot``, ``OutputNode.to_dict``,
  and the two encodings a reply goes through (``pickle`` from the shard,
  ``json`` to the client).  Each page's output must equal the reply the
  server sent for it, so the ledger times the work the server did.

A traced run sends alternating untraced and traced blocks of a fixed
size to one server; a traced request also fetches its trace.  The
median latency difference between the two is the tracing overhead.
Every count (nodes, rounds, facts, bytes, cache lookups) is a pure
function of the seed and repeats exactly.
"""

from __future__ import annotations

import gc
import json
import pickle
import time
from typing import Dict, List, Optional

from repro.datalog.plan import compile_program
from repro.elog.parser import parse_elog
from repro.elog.translate import elog_to_datalog
from repro.html.tokenizer import scan_list
from repro.structures import as_indexed
from repro.trees.diff import diff_snapshots
from repro.trees.stream import html_snapshot
from repro.wrap.document import Document
from repro.wrap.output import build_output_from_snapshot

from harness import call_json, nproc
from loadgen import Phase, closed_loop, percentile, set_up, tear_down
from oracle import page_key, verify

#: Every per-layer metric: ``(name, unit, better, which end-to-end metric
#: it should move, on which workload)``.  BENCHMARK.json lists the same
#: names; ``check_traced_counts.py`` keeps the two in step.
LAYER_METRICS = [
    ("html.scan_ms", "ms", "lower",
     "throughput_rps on catalog-large; flat on serve-small"),
    ("html.scan_mb_s", "MB/s", "higher",
     "throughput_rps on catalog-large; flat on serve-small"),
    ("snapshot.build_ms", "ms", "lower",
     "throughput_rps on catalog-large, latency_p50_ms on forum-recrawl"),
    ("snapshot.self_ms", "ms", "lower",
     "throughput_rps on catalog-large, latency_p50_ms on forum-recrawl"),
    ("snapshot.nodes", "count", "lower",
     "throughput_rps on catalog-large, latency_p50_ms on forum-recrawl"),
    ("kernel.run_ms", "ms", "lower",
     "latency_p50_ms on forum-recrawl; flat on serve-small"),
    ("kernel.rounds", "count", "lower",
     "latency_p50_ms on forum-recrawl; flat on serve-small"),
    ("kernel.facts", "count", "lower",
     "latency_p50_ms on forum-recrawl; flat on serve-small"),
    ("kernel.frontier_share", "fraction", "higher",
     "latency_p50_ms on forum-recrawl; flat on serve-small"),
    ("kernel.incremental_ms", "ms", "lower",
     "latency_p90_ms and throughput_rps on forum-recrawl"),
    ("kernel.warm_share", "fraction", "higher",
     "latency_p90_ms and throughput_rps on forum-recrawl"),
    ("diff.ms", "ms", "lower", "latency_p90_ms on forum-recrawl"),
    ("diff.dirty_fraction", "fraction", "lower", "latency_p90_ms on forum-recrawl"),
    ("output.assemble_ms", "ms", "lower", "throughput_rps on catalog-large"),
    ("output.to_dict_ms", "ms", "lower", "throughput_rps on catalog-large"),
    ("output.nodes", "count", "lower", "throughput_rps on catalog-large"),
    ("output.json_ms", "ms", "lower", "latency_p50_ms on catalog-large"),
    ("output.pickle_ms", "ms", "lower", "latency_p50_ms on catalog-large"),
    ("output.reply_bytes", "bytes", "lower", "latency_p50_ms on catalog-large"),
    ("server.request_ms", "ms", "lower", "latency_p50_ms on serve-small"),
    ("server.children_ms", "ms", "lower", "latency_p50_ms on every workload"),
    ("server.unaccounted_ms", "ms", "lower", "latency_p50_ms on serve-small"),
    ("http.wire_ms", "ms", "lower", "latency_p50_ms on serve-small"),
    ("ledger.client_ms", "ms", "lower", "latency_p50_ms on every workload"),
    ("batcher.queue_ms", "ms", "lower", "latency_p50_ms on serve-small"),
    ("batcher.mean_batch", "count", "higher", "latency_p50_ms on serve-small"),
    ("batcher.bypass_share", "fraction", "higher", "latency_p50_ms on serve-small"),
    ("cache.hit_ratio", "fraction", "higher",
     "throughput_rps on serve-small; 0 on catalog-large by construction"),
    ("cache.lookups", "count", "lower", "base of cache.hit_ratio"),
    ("executor.call_ms", "ms", "lower",
     "latency_p50_ms on catalog-large and serve-small"),
    ("executor.transport_ms", "ms", "lower",
     "latency_p50_ms on catalog-large and serve-small"),
    ("server.retries", "count", "lower", "success_rate on every workload"),
    ("server.errors", "count", "lower", "success_rate on every workload"),
    ("tracing.overhead_p50", "fraction", "lower",
     "none: cost of the traced run over the untraced one"),
    ("traced.requests", "count", "higher", "base of every server-span mean"),
]

#: Counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "snapshot.nodes",
    "kernel.rounds",
    "kernel.facts",
    "output.nodes",
    "output.reply_bytes",
    "cache.lookups",
    "traced.requests",
)


class SpanRecorder:
    """In-memory spans around direct library calls, flushed at the end."""

    def __init__(self):
        self.spans: List[dict] = []

    def call(self, trace: int, name: str, fn, *args):
        """``fn(*args)`` inside a span; returns ``(result, ms)``."""
        started = time.perf_counter()
        result = fn(*args)
        ended = time.perf_counter()
        self.spans.append(
            {"trace": trace, "name": name, "parent": "page", "start": started, "end": ended}
        )
        return result, (ended - started) * 1e3

    def root(self, trace: int, started: float, ended: float) -> None:
        self.spans.append(
            {"trace": trace, "name": "page", "parent": None, "start": started, "end": ended}
        )


def _count_nodes(tree: dict) -> int:
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["children"])
    return count


class Pipeline:
    """The streaming wrap path, one public call at a time."""

    def __init__(self, source: str, patterns, wrapper_name: str):
        self.plan = compile_program(elog_to_datalog(parse_elog(source))).prepare()
        self.patterns = list(patterns)
        self.wrapper_name = wrapper_name

    def output(self, snapshot, result):
        assignment: Dict[int, str] = {}
        for name in self.patterns:
            for ident in result.unary(name):
                assignment.setdefault(ident, name)
        return build_output_from_snapshot(snapshot, assignment)

    def cold(self, recorder: SpanRecorder, trace: int, html: str) -> dict:
        """Time every layer of one cold wrap; returns its measurements."""
        started = time.perf_counter()
        _, scan_ms = recorder.call(trace, "html.scan", scan_list, html)
        snapshot, build_ms = recorder.call(trace, "snapshot.build", html_snapshot, html)
        result, run_ms = recorder.call(
            trace, "kernel.run", self.plan.run, as_indexed(Document(snapshot))
        )
        out, assemble_ms = recorder.call(
            trace, "output.assemble", self.output, snapshot, result
        )
        tree, to_dict_ms = recorder.call(trace, "output.to_dict", out.to_dict)
        reply = {"wrapper": self.wrapper_name, "version": 1, "result": tree}
        _, json_ms = recorder.call(trace, "output.json", json.dumps, reply)
        blob, pickle_ms = recorder.call(trace, "output.pickle", pickle.dumps, [tree])
        recorder.root(trace, started, time.perf_counter())
        stats = result.stats or {}
        return {
            "tree": tree,
            "bytes": len(html),
            "scan_ms": scan_ms,
            "build_ms": build_ms,
            "nodes": snapshot.size,
            "run_ms": run_ms,
            "rounds": int(stats.get("rounds") or 0),
            "facts": int(stats.get("facts") or 0),
            "frontier": result.engine == "frontier",
            "assemble_ms": assemble_ms,
            "to_dict_ms": to_dict_ms,
            "output_nodes": _count_nodes(tree),
            "json_ms": json_ms,
            "pickle_ms": pickle_ms,
            "reply_bytes": len(blob),
        }

    def warm(self, recorder: SpanRecorder, trace: int, prior: str, html: str) -> dict:
        """Time the delta path: diff against ``prior``, then the warm run."""
        prior_snapshot = html_snapshot(prior)
        _, state, _ = self.plan.run_incremental(
            as_indexed(Document(prior_snapshot)), None
        )
        snapshot = html_snapshot(html)
        diff, diff_ms = recorder.call(
            trace, "diff", diff_snapshots, prior_snapshot, snapshot
        )
        (result, _, _), incremental_ms = recorder.call(
            trace,
            "kernel.incremental",
            self.plan.run_incremental,
            as_indexed(Document(snapshot)),
            state,
        )
        return {
            "tree": self.output(snapshot, result).to_dict(),
            "diff_ms": diff_ms,
            "dirty_fraction": diff.dirty_fraction,
            "incremental_ms": incremental_ms,
            "stayed_warm": (result.engine or "").startswith("incremental"),
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _find(span: dict, name: str) -> List[dict]:
    found = []
    stack = [span]
    while stack:
        node = stack.pop()
        if node.get("name") == name:
            found.append(node)
        stack.extend(c for c in node.get("children", ()) if isinstance(c, dict))
    return found


def _transport_ms(call: dict) -> Optional[float]:
    """A shard call's self time: the call minus the per-page snapshot
    build and kernel time the shard reported.  ``None`` for calls whose
    shard reported no per-page stats (the warm path)."""
    compute = 0.0
    pages = 0
    kernel_pending = False
    for child in call.get("children", ()):
        if child.get("name") == "snapshot.build":
            compute += child.get("elapsed_ms") or 0.0
            pages += 1
            kernel_pending = True
        elif child.get("name") == "kernel.run" and kernel_pending:
            # One kernel.run per plan, each tagged with the page's total
            # kernel time: count it once per page.
            compute += child.get("elapsed_ms") or 0.0
            kernel_pending = False
    if not pages:
        return None
    return call["elapsed_ms"] - compute


def server_ledger(samples) -> Dict[str, float]:
    """Decompose each traced request's client latency along its spans."""
    rows = []
    transports = []
    for sample in samples:
        root = sample.trace["root"]
        client_ms = sample.latency_s * 1e3
        children = [c for c in root.get("children", ()) if isinstance(c, dict)]
        children_ms = sum(c.get("elapsed_ms") or 0.0 for c in children)
        calls = _find(root, "shard.call")
        for call in calls:
            transport = _transport_ms(call)
            if transport is not None:
                transports.append(transport)
        rows.append(
            {
                "client": client_ms,
                "root": root["elapsed_ms"],
                "children": children_ms,
                "unaccounted": root["elapsed_ms"] - children_ms,
                "wire": client_ms - root["elapsed_ms"],
                "queue": sum(
                    c["elapsed_ms"] for c in children if c.get("name") == "batcher.queue"
                ),
                "call": sum(c["elapsed_ms"] for c in calls),
            }
        )
    return {
        "ledger.client_ms": _mean(r["client"] for r in rows),
        "server.request_ms": _mean(r["root"] for r in rows),
        "server.children_ms": _mean(r["children"] for r in rows),
        "server.unaccounted_ms": _mean(r["unaccounted"] for r in rows),
        "http.wire_ms": _mean(r["wire"] for r in rows),
        "batcher.queue_ms": _mean(r["queue"] for r in rows),
        "executor.call_ms": _mean(r["call"] for r in rows),
        "executor.transport_ms": _mean(transports),
        "transport_calls": len(transports),
    }


def library_ledger(workload, samples, recorder: SpanRecorder) -> dict:
    """Time each layer directly over the traced phase's pages.

    Each page's output must equal the reply the server sent for it
    (already checked against the oracle), so the ledger is known to
    time the work the server did."""
    pipeline = Pipeline(workload.source, workload.patterns, workload.wrapper)
    seen = set()
    cold: List[dict] = []
    warm: List[dict] = []
    mismatches = 0
    for trace, sample in enumerate(samples):
        request = sample.request
        key = page_key(request.html)
        if key in seen:
            continue
        seen.add(key)
        served = json.loads(sample.body)["result"]
        row = pipeline.cold(recorder, trace, request.html)
        mismatches += row.pop("tree") != served
        cold.append(row)
        if request.prior is not None:
            row = pipeline.warm(recorder, trace, request.prior, request.html)
            mismatches += row.pop("tree") != served
            warm.append(row)
    total_bytes = sum(r["bytes"] for r in cold)
    total_scan_s = sum(r["scan_ms"] for r in cold) / 1e3
    metrics = {
        "html.scan_ms": _mean(r["scan_ms"] for r in cold),
        "html.scan_mb_s": total_bytes / 1e6 / total_scan_s if total_scan_s else 0.0,
        "snapshot.build_ms": _mean(r["build_ms"] for r in cold),
        "snapshot.self_ms": _mean(r["build_ms"] - r["scan_ms"] for r in cold),
        "snapshot.nodes": sum(r["nodes"] for r in cold),
        "kernel.run_ms": _mean(r["run_ms"] for r in cold),
        "kernel.rounds": sum(r["rounds"] for r in cold),
        "kernel.facts": sum(r["facts"] for r in cold),
        "kernel.frontier_share": _mean(1.0 if r["frontier"] else 0.0 for r in cold),
        "kernel.incremental_ms": _mean(r["incremental_ms"] for r in warm),
        "kernel.warm_share": _mean(1.0 if r["stayed_warm"] else 0.0 for r in warm),
        "diff.ms": _mean(r["diff_ms"] for r in warm),
        "diff.dirty_fraction": _mean(r["dirty_fraction"] for r in warm),
        "output.assemble_ms": _mean(r["assemble_ms"] for r in cold),
        "output.to_dict_ms": _mean(r["to_dict_ms"] for r in cold),
        "output.nodes": sum(r["output_nodes"] for r in cold),
        "output.json_ms": _mean(r["json_ms"] for r in cold),
        "output.pickle_ms": _mean(r["pickle_ms"] for r in cold),
        "output.reply_bytes": sum(r["reply_bytes"] for r in cold),
    }
    return {
        "metrics": metrics,
        "pages": len(cold),
        "warm_pages": len(warm),
        "mismatches": mismatches,
    }


#: ``/metrics`` counters summed over the traced blocks.
_COUNTERS = ("cache_hits", "cache_misses", "bypassed", "documents")

#: Untraced/traced block pairs per traced run.  Alternating them keeps
#: slow drifts (the serve-small cache filling up, the forum documents
#: accumulating edits) out of the tracing-overhead figure.
BLOCKS = 4


def _counters(metrics: dict) -> Dict[str, int]:
    out = {name: metrics["counters"].get(name, 0) for name in _COUNTERS}
    out["batches"] = metrics["batches"]["count"]
    out["batched"] = metrics["batches"]["documents"]
    return out


def traced_run(workload, seed: int, root, out_dir):
    """Alternating untraced and traced blocks of a fixed size on one
    server, then the library ledger over the traced requests' pages."""
    server, connections, warm, _ = set_up(
        workload, root, out_dir, f"{workload.name}-s{seed}-traced"
    )
    untraced = Phase([], 0.0)
    traced = Phase([], 0.0)
    deltas = dict.fromkeys(_COUNTERS + ("batches", "batched"), 0)
    try:
        per_block = workload.traced_requests // BLOCKS
        streams = {
            phase: [workload.stream(c, phase) for c in range(workload.clients)]
            for phase in ("untraced", "traced")
        }
        for _ in range(BLOCKS):
            untraced.extend(
                closed_loop(connections, streams["untraced"], workload.path, count=per_block)
            )
            before = _counters(call_json(connections[0], "GET", "/metrics"))
            traced.extend(
                closed_loop(
                    connections,
                    streams["traced"],
                    workload.path,
                    count=per_block,
                    traced=True,
                )
            )
            final = call_json(connections[0], "GET", "/metrics")
            after = _counters(final)
            for name in deltas:
                deltas[name] += after[name] - before[name]
    finally:
        tear_down(server, connections)
    served = warm + untraced.samples + traced.samples
    problems = verify(workload, [(server, served)], workers=nproc())
    if not problems:
        server.discard_logs()
    ok_traced = [s for s in traced.samples if s.ok]
    recorder = SpanRecorder()
    # Time the library as a shard process would run it: the replies and
    # traces held here would otherwise make every garbage collection
    # during the ledger walk a large heap (output assembly measured 3x
    # slower without this).
    gc.collect()
    gc.freeze()
    try:
        library = library_ledger(workload, ok_traced, recorder)
    finally:
        gc.unfreeze()
    if library["mismatches"]:
        problems.append(
            f"{library['mismatches']} ledger outputs differ from the served replies"
        )
    spans = server_ledger(ok_traced)
    residual = spans["ledger.client_ms"] - (
        spans["http.wire_ms"] + spans["server.children_ms"] + spans["server.unaccounted_ms"]
    )
    if abs(residual) > 1e-6:
        problems.append(f"server spans do not add up to client latency ({residual} ms)")
    hits = deltas["cache_hits"]
    lookups = hits + deltas["cache_misses"]
    p50_untraced = percentile(untraced.latencies_ms(), 50)
    p50_traced = percentile(traced.latencies_ms(), 50)
    values = dict(library["metrics"])
    values.update({k: v for k, v in spans.items() if k != "transport_calls"})
    values.update(
        {
            "batcher.mean_batch": (
                deltas["batched"] / deltas["batches"] if deltas["batches"] else 0.0
            ),
            "batcher.bypass_share": (
                deltas["bypassed"] / deltas["documents"] if deltas["documents"] else 0.0
            ),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.lookups": lookups,
            "server.retries": final["counters"].get("retries", 0),
            "server.errors": final["counters"].get("errors", 0),
            "tracing.overhead_p50": p50_traced / p50_untraced - 1 if p50_untraced else 0.0,
            "traced.requests": len(ok_traced),
        }
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
    span_path = out_dir / f"spans-{workload.name}-s{seed}.jsonl"
    with open(span_path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span) + "\n")
        for sample in ok_traced:
            handle.write(
                json.dumps({"client_ms": sample.latency_s * 1e3, "trace": sample.trace})
                + "\n"
            )
    attempted = len(served)
    failed = sum(1 for s in served if not s.ok)
    details = {
        "phase_requests": per_block * BLOCKS * workload.clients,
        "ledger_pages": library["pages"],
        "ledger_warm_pages": library["warm_pages"],
        "transport_calls": spans["transport_calls"],
        "ledger_residual_ms": residual,
        "untraced_p50_ms": p50_untraced,
        "traced_p50_ms": p50_traced,
        "untraced_rps": untraced.throughput(),
        "traced_rps": traced.throughput(),
        "spans_file": str(span_path.name),
        "moves": {name: moves for name, _, _, moves in LAYER_METRICS},
    }
    return attempted, failed, metrics, details, problems
