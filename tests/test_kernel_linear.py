"""Linear time after the front end: kernel engines and output encoding.

The front-end suite (``tests/test_frontend_linear.py``) holds the HTML
scan to linear time; this one holds every later layer of a served
request to it, on the served wrappers' own pages.  Each subject is built
at size ``n`` and ``4n`` -- forum pages with 4x deeper reply chains or
4x more threads, catalog pages with 4x more rows -- and each stage is
timed on both with the same harness and bound (t(4n)/t(n) < 8, 0.5 ms
floor, GC paused, three attempts):

* the document-order sweep (forum pages) and the frontier engine
  (frontier+worklist handoff on forum pages, pure frontier on catalog
  pages);
* :func:`repro.wrap.output.build_flat_output`, ``FlatOutput.to_json``
  and ``pickle.dumps(FlatOutput)`` -- what a shard assembles, ships and
  the server encodes.
"""

import pickle
import sys
import time

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.plan import compile_program
from repro.elog.parser import parse_elog
from repro.elog.translate import elog_to_datalog
from repro.structures import as_indexed
from repro.workloads import CATALOG_WRAPPER, FORUM_WRAPPER, catalog_page, forum_page
from repro.wrap.document import Document
from repro.wrap.output import build_flat_output

from tests.helpers_shared import assert_scales_linearly

#: name -> (wrapper source, patterns, page builder, n, cold engine).
SUBJECTS = {
    "forum_depth": (
        FORUM_WRAPPER, ("thread", "comment", "body"),
        lambda n: forum_page(seed=3, threads=2, depth=n), 60, "sweep",
    ),
    "forum_threads": (
        FORUM_WRAPPER, ("thread", "comment", "body"),
        lambda n: forum_page(seed=3, threads=n, depth=12), 10, "sweep",
    ),
    "catalog_rows": (
        CATALOG_WRAPPER, ("record", "name", "price"),
        lambda n: catalog_page(seed=5, items=n), 100, "frontier",
    ),
}

STAGES = ("sweep", "frontier", "build_flat_output", "to_json", "pickle")

#: The catalog lowering is outside the sweep's fragment.
CASES = [
    (subject, stage)
    for subject in sorted(SUBJECTS)
    for stage in STAGES
    if stage != "sweep" or SUBJECTS[subject][4] == "sweep"
]


def _stage(subject: str, stage: str, n: int):
    """A zero-argument callable running ``stage`` on the size-``n`` page."""
    source, patterns, make, _, engine = SUBJECTS[subject]
    compiled = compile_program(elog_to_datalog(parse_elog(source, query=patterns[0])))
    doc = as_indexed(Document.from_html(make(n)))
    result = compiled.run(doc)  # warms the snapshot caches and vector plans
    assert result.engine == engine
    kernel = compiled._kernel
    bound = kernel._bind(doc)
    if stage == "sweep":
        return lambda: kernel._run_sweep(bound)
    if stage == "frontier":
        return lambda: kernel._run_vector(bound)
    assignment = {}
    for pattern in patterns:
        for ident in result.unary(pattern):
            assignment.setdefault(ident, pattern)
    snapshot = doc.base.snapshot()
    flat = build_flat_output(snapshot, assignment, root_label="result")
    if stage == "build_flat_output":
        return lambda: build_flat_output(snapshot, assignment, root_label="result")
    if stage == "to_json":
        return flat.to_json
    return lambda: pickle.dumps(flat)


@pytest.mark.parametrize("subject,stage", CASES)
def test_layers_after_the_front_end_scale_linearly(subject, stage):
    n = SUBJECTS[subject][3]
    assert_scales_linearly(
        f"{stage} on {subject}", _stage(subject, stage, n), _stage(subject, stage, 4 * n)
    )


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_chain_sweeps_iteratively_well_under_a_second():
    compiled = compile_program(
        parse_program(
            """
            mark(x) :- root(x).
            mark(y) :- mark(x), child(x, y).
            deep(x) :- mark(x), leaf(x).
            """,
            query="deep",
        )
    )
    doc = as_indexed(Document.from_html("<div>" * 20_000))
    assert doc.base.snapshot().size == 20_000  # the lone top <div> is the root
    limit = sys.getrecursionlimit()
    # Any recursion per tree level would blow through this limit at once.
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        started = time.perf_counter()
        result = compiled.run(doc)
        elapsed = time.perf_counter() - started
    finally:
        sys.setrecursionlimit(limit)
    assert result.engine == "sweep"
    assert result.query_result() == {19_999}
    assert elapsed < 1.0
