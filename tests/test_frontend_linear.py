"""Linear time through the HTML front end, on an adversarial corpus.

Theorem 4.2 makes wrapping linear in the document, and the serve layer's
size-derived deadlines rely on that holding end to end -- so the front
end must stay linear on hostile pages too.  Each shape below is built at
size ``n`` and ``4n`` and fed to both builders (the fused
:func:`repro.trees.stream.html_snapshot` loop and
:func:`repro.html.parse_html`); linear work grows ~4x, so a ratio of 8
or more fails.  Several shapes were quadratic before the tag-soup cuts
kept per-label open positions (the first two took 21 s and 36 s at 4n).
"""

import gc
import time

import pytest

from repro.html import parse_html
from repro.trees.stream import html_snapshot
from repro.trees.unranked import UnrankedStructure

#: name -> (document builder, n).  4n is the large size: big enough that
#: a cut scanning the open stack per tag would cost seconds there.
SHAPES = {
    # An unmatched end tag used to scan the whole open stack.
    "deep_then_unmatched_end_tags": (lambda n: "<div>" * n + "</span>" * n, 2_000),
    # An implied close used to scan past every non-matching frame.
    "implied_close_past_open_divs": (lambda n: "<ul>" + "<div>" * n + "<li>x" * n, 2_000),
    "unterminated_comment": (lambda n: "<p>x</p>" * n + "<!-- " + "<p>x</p>" * n, 1_000),
    "unterminated_quotes": (lambda n: '<a b="x' * n, 2_000),
    "unterminated_tag": (lambda n: "<div" + " a=b" * n, 2_000),
    "end_tags_without_gt": (lambda n: "<b>x" + "</a " * n, 5_000),
    "end_tag_name_without_gt": (lambda n: "</x" * n, 5_000),
    "lt_run": (lambda n: "<" * n, 5_000),
    "lt_run_before_tags": (lambda n: "<" * n + "<b>x</b>" * n, 2_000),
    "char_ref_run": (lambda n: "<p>" + "&#x41" * n, 5_000),
    "whitespace_then_junk_in_tag": (lambda n: "<a" + " " * n + '"' + " x" * n + ">", 5_000),
    "attribute_flood": (
        lambda n: "<div " + "".join(f'a{i}="b" ' for i in range(n)) + ">x</div>",
        2_000,
    ),
    "valueless_attribute_flood": (lambda n: "<div" + " a" * n + ">x</div>", 5_000),
    "wide_fan_out": (lambda n: "<div>" + "<br>" * n + "</div>", 25_000),
    "deep_nesting": (lambda n: "<div>" * n + "x" + "</div>" * n, 2_000),
    "rawtext_never_closed": (lambda n: "<b>x</b>" * n + "<script>" + "</scrip" * n, 2_000),
}

BUILDERS = {"html_snapshot": html_snapshot, "parse_html": parse_html}


def _best(build, doc: str, repeat: int) -> float:
    """Best-of-``repeat`` wall time, with the cyclic GC paused: its
    full collections grow with the live heap, not with this algorithm."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            started = time.perf_counter()
            build(doc)
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_front_end_scales_linearly(shape, builder):
    make, n = SHAPES[shape]
    build = BUILDERS[builder]
    small_doc, large_doc = make(n), make(4 * n)
    # A busy machine can stretch one timing; superlinear work misses the
    # bound on every attempt (quadratic grows ~16x), so a shape passes
    # when any of three attempts stays under it.
    attempts = []
    for _ in range(3):
        small = _best(build, small_doc, repeat=3)
        large = _best(build, large_doc, repeat=2)
        # Shapes that cost microseconds are judged against a 0.5 ms
        # floor, so timer jitter cannot fail them; a quadratic cut at 4n
        # costs far more.
        ratio = large / max(small, 5e-4)
        if ratio < 8.0:
            return
        attempts.append((round(ratio, 1), small, large))
    pytest.fail(f"{shape} via {builder}: t(4n)/t(n) >= 8 on every attempt {attempts}")


def test_deep_unmatched_page_builds_well_under_a_second():
    doc = "<div>" * 20_000 + "</span>" * 20_000
    started = time.perf_counter()
    snapshot = html_snapshot(doc)
    tree = parse_html(doc)
    assert time.perf_counter() - started < 1.0
    assert snapshot.size == 20_000
    assert UnrankedStructure(tree).snapshot().parent == snapshot.parent


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_adversarial_pages_keep_column_parity(shape):
    make, _ = SHAPES[shape]
    doc = make(200)
    via_nodes = UnrankedStructure(parse_html(doc)).snapshot()
    streamed = html_snapshot(doc)
    for column in ("parent", "label_ids", "labels", "texts", "attrs", "prevsibling"):
        assert getattr(via_nodes, column) == getattr(streamed, column), (shape, column)
