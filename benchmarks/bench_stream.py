"""E-STREAM: Node-free streaming ingestion, end to end.

Raw catalog pages wrapped from HTML strings to output trees through the
two ingestion pipelines:

* the classic Node path: ``parse_html`` -> :class:`Node` tree ->
  ``UnrankedStructure`` -> per-function compiled plans -> Node output
  walk (the PR-2 baseline shape);
* the streaming path of ``Wrapper.wrap_html_many``: the fused
  ``html_snapshot`` loop (token regex -> snapshot columns) -> one shared
  kernel fixpoint -> snapshot-native output, with **zero Node objects**
  allocated.

The streaming path should beat the Node path by >=2x at the largest
catalog size; ``benchmarks/report.py`` (E-STREAM section) emits the
recorded numbers to ``BENCH_stream.json``, including the process-pool
fan-out (``workers=N``) on machines that offer more than one core and
the front end alone (``html_snapshot`` on the catalog and forum pages).
"""

import pytest

from repro.elog.parser import parse_elog
from repro.html import parse_html
from repro.trees.stream import html_snapshot
from repro.workloads import CATALOG_WRAPPER, catalog_pages
from repro.wrap import Wrapper

_SIZES = [160, 320, 640]
_BATCH = 4


def _baseline_wrapper() -> Wrapper:
    wrapper = Wrapper()
    for pattern in ("record", "name", "price"):
        wrapper.add_elog(pattern, parse_elog(CATALOG_WRAPPER, query=pattern))
    return wrapper.compile()


def _streaming_wrapper() -> Wrapper:
    program = parse_elog(CATALOG_WRAPPER, query="record")
    wrapper = Wrapper()
    for pattern in ("record", "name", "price"):
        wrapper.add_elog(pattern, program, pattern=pattern)
    return wrapper.compile()


@pytest.mark.parametrize("items", _SIZES)
def test_stream_wrap_scaling(benchmark, items):
    """Streaming end to end: bytes -> columns -> kernel -> output."""
    wrapper = _streaming_wrapper()
    pages = catalog_pages(_BATCH, items=items)
    outs = benchmark(wrapper.wrap_html_many, pages)
    assert all(out.children for out in outs)


@pytest.mark.parametrize("items", _SIZES)
def test_node_wrap_scaling(benchmark, items):
    """The PR-2 baseline path: parse into Nodes, wrap the trees."""
    wrapper = _baseline_wrapper()
    pages = catalog_pages(_BATCH, items=items)
    outs = benchmark(
        lambda: wrapper.wrap_many([parse_html(page) for page in pages])
    )
    assert all(out.children for out in outs)


@pytest.mark.parametrize("items", _SIZES)
def test_html_snapshot_scaling(benchmark, items):
    """Ingestion only: HTML string -> columnar snapshot, no Nodes."""
    pages = catalog_pages(_BATCH, items=items)
    snapshots = benchmark(lambda: [html_snapshot(page) for page in pages])
    assert all(snapshot.size > items for snapshot in snapshots)


@pytest.mark.parametrize("items", [320])
def test_stream_agrees_with_node_path(benchmark, items):
    """Paranoia inside the benchmark suite: identical outputs, then time."""
    baseline = _baseline_wrapper()
    streaming = _streaming_wrapper()
    pages = catalog_pages(_BATCH, items=items)
    via_nodes = baseline.wrap_many([parse_html(page) for page in pages])
    via_stream = streaming.wrap_html_many(pages)
    assert [o.to_sexpr() for o in via_stream] == [o.to_sexpr() for o in via_nodes]
    benchmark(streaming.wrap_html_many, pages)
