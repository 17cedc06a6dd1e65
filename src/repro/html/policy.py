"""Shared HTML tree-construction policy.

The tag-soup rules -- void elements, implicit-close tables, scope
barriers, end-tag matching -- are needed by *two* builders that must
never drift apart: the classic :class:`~repro.trees.node.Node` builder
(:mod:`repro.html.parser`) and the Node-free fused snapshot loop
(:mod:`repro.trees.stream`).  Both keep their open elements in an
:class:`OpenElements` stack and delegate every policy decision to it.

Every cut is linear overall: next to the stack, each label keeps the
stack indexes of its open frames, and the open scope barriers keep
theirs.  An unmatched end tag or an implied close with nothing to close
is O(1); any other cut walks only the frames it pops, and each frame is
popped at most once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

#: Elements that never have content.
VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

#: opening tag -> set of open tags it implicitly closes (nearest first).
IMPLICIT_CLOSERS: Dict[str, Set[str]] = {
    "li": {"li"},
    "option": {"option"},
    "p": {"p"},
    "tr": {"td", "th", "tr"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "thead": {"tr", "td", "th"},
    "tbody": {"thead", "tr", "td", "th", "tbody"},
    "dt": {"dd", "dt"},
    "dd": {"dd", "dt"},
}

#: Block elements an implicit closer must not escape.
SCOPE_BARRIERS = {"table", "ul", "ol", "dl", "select", "body", "html", "document"}


class OpenElements:
    """The open-element stack of an HTML tree builder.

    ``items`` holds the builder's own frame representation (node ids,
    :class:`~repro.trees.node.Node` objects) and ``labels`` their tag
    names, in parallel.  Index 0 is the root sentinel: its label is
    ``None``, so no end tag or implicit closer ever matches it, and it
    never closes.

    >>> stack = OpenElements("root")
    >>> for label in ("table", "tr", "td", "b"):
    ...     _ = stack.start_tag(label.upper(), label, IMPLICIT_CLOSERS.get(label), True)
    >>> stack.start_tag("TR", "tr", IMPLICIT_CLOSERS["tr"], True)
    'TABLE'
    >>> stack.end_tag("p"); stack.labels
    [None, 'table', 'tr']
    >>> stack.start_tag("BR", "br", None, False)
    'TR'
    >>> stack.end_tag("table"); stack.items
    ['root']
    """

    __slots__ = ("items", "labels", "_at", "_barriers")

    def __init__(self, root):
        self.items: List = [root]
        self.labels: List = [None]
        #: label -> stack indexes of the open frames carrying it (increasing).
        self._at: Dict[str, List[int]] = defaultdict(list)
        #: Stack indexes of the open scope barriers, above the sentinel's 0.
        self._barriers: List[int] = [0]

    def start_tag(self, item, label: str, closers, keep_open: bool):
        """Apply a start tag; returns the item the new element attaches to.

        First the implicit-close rule for ``closers`` (the tag's
        :data:`IMPLICIT_CLOSERS` entry, or ``None``): repeatedly closing
        the innermost open element whose label is in ``closers`` --
        without crossing a scope barrier -- amounts to truncating at the
        *lowest* matching frame at or above the top barrier, and finding
        it walks back only over frames that get popped.  Then ``item``
        is opened unless ``keep_open`` is false (void or self-closing).
        """
        items = self.items
        at = self._at
        if closers:
            base = self._barriers[-1]
            cut = len(items)
            for name in closers:
                positions = at.get(name)
                if positions and positions[-1] >= base:
                    k = len(positions) - 1
                    while k and positions[k - 1] >= base:
                        k -= 1
                    if positions[k] < cut:
                        cut = positions[k]
            if cut < len(items):
                self._truncate(cut)
        parent = items[-1]
        if keep_open:
            depth = len(items)
            at[label].append(depth)
            if label in SCOPE_BARRIERS:
                self._barriers.append(depth)
            items.append(item)
            self.labels.append(label)
        return parent

    def _truncate(self, cut: int) -> None:
        """Close open elements until only ``cut`` frames remain (``cut >= 1``)."""
        labels = self.labels
        at = self._at
        for label in labels[cut:]:
            at[label].pop()
        del labels[cut:]
        del self.items[cut:]
        barriers = self._barriers
        while barriers[-1] >= cut:
            barriers.pop()

    def end_tag(self, name: str) -> None:
        """Apply an explicit ``</name>``: close through the innermost open
        ``name``; an unmatched end tag (a void element's included, as
        those never open) closes nothing."""
        labels = self.labels
        if labels[-1] == name:
            labels.pop()
            self.items.pop()
            self._at[name].pop()
            if self._barriers[-1] == len(labels):
                self._barriers.pop()
        else:
            at = self._at.get(name)
            if at:
                self._truncate(at[-1])
