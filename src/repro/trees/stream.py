"""Streaming snapshot construction: document -> columns, no Nodes.

The classic ingestion path allocates a :class:`~repro.trees.node.Node`
per element/text token, walks the tree again to assign identifiers
(:class:`~repro.trees.unranked.UnrankedStructure`), and only then
flattens into the integer columns the propagation kernel reads.  This
module writes the :class:`~repro.trees.snapshot.TreeSnapshot` columns
directly, assigning identifiers in document order as nodes appear.
Nothing but flat lists is ever allocated, so huge pages can be wrapped
with the runtime touching only arrays from bytes to output.

Sources:

* :func:`html_snapshot` -- one fused loop from HTML text to columns: it
  matches the tokenizer's token regex itself and appends each token
  straight to the columns (no events, no builder), falling back to the
  tokenizer's per-token slow path for anything else; tag-soup decisions
  go through the same :class:`~repro.html.policy.OpenElements` stack as
  :func:`repro.html.parser.parse_html`, so the two front ends cannot
  drift, and the synthetic root is unwrapped by the same rule;
* :class:`SnapshotBuilder` -- open/leaf/close events to columns, driven
  by :func:`tree_snapshot` (replays an existing :class:`Node` tree:
  parity harness, and snapshots for generated trees) and
  :func:`sexpr_snapshot` (the s-expression reader).

Parity invariant (enforced by ``tests/test_stream.py``): for every
document, ``html_snapshot(doc)`` is column-identical to
``UnrankedStructure(parse_html(doc)).snapshot()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TreeError
from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot


class SnapshotBuilder:
    """Build a :class:`TreeSnapshot` from document events, Node-free.

    One pass, one open-element stack of integer ids; every event appends
    to the flat columns.  Identifiers are assigned in document order
    (preorder), exactly as :class:`~repro.trees.unranked.UnrankedStructure`
    numbers an equivalent tree.

    Examples
    --------
    >>> b = SnapshotBuilder()
    >>> _ = b.open("a"); _ = b.open("b"); b.close()
    >>> _ = b.leaf("c"); _ = b.open("b"); b.close()
    >>> snap = b.finish()
    >>> snap.parent
    array('i', [-1, 0, 0, 0])
    >>> snap.labels
    ['a', 'b', 'c']
    """

    __slots__ = (
        "_parent",
        "_firstchild",
        "_nextsibling",
        "_prevsibling",
        "_lastchild",
        "_label_ids",
        "_labels",
        "_label_index",
        "_texts",
        "_attrs",
        "_stack",
    )

    def __init__(self):
        self._parent: List[int] = []
        self._firstchild: List[int] = []
        self._nextsibling: List[int] = []
        self._prevsibling: List[int] = []
        self._lastchild: List[int] = []
        self._label_ids: List[int] = []
        self._labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        self._texts: Dict[int, str] = {}
        self._attrs: Dict[int, Dict[str, str]] = {}
        self._stack: List[int] = []

    @property
    def size(self) -> int:
        """Number of nodes emitted so far."""
        return len(self._parent)

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._stack)

    def _append(
        self,
        label: str,
        text: Optional[str],
        attrs: Optional[Dict[str, str]],
    ) -> int:
        nid = len(self._parent)
        stack = self._stack
        if stack:
            parent = stack[-1]
            previous = self._lastchild[parent]
            if previous < 0:
                self._firstchild[parent] = nid
            else:
                self._nextsibling[previous] = nid
            self._lastchild[parent] = nid
        else:
            if nid:
                raise TreeError("snapshot already has a root")
            parent = -1
            previous = -1
        self._parent.append(parent)
        self._firstchild.append(-1)
        self._nextsibling.append(-1)
        self._prevsibling.append(previous)
        self._lastchild.append(-1)
        lid = self._label_index.get(label)
        if lid is None:
            lid = self._label_index[label] = len(self._labels)
            self._labels.append(label)
        self._label_ids.append(lid)
        if text:
            self._texts[nid] = text
        if attrs:
            self._attrs[nid] = attrs
        return nid

    def open(
        self,
        label: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ) -> int:
        """Open an element; returns its document-order id."""
        nid = self._append(label, text, attrs)
        self._stack.append(nid)
        return nid

    def leaf(
        self,
        label: str,
        text: Optional[str] = None,
        attrs: Optional[Dict[str, str]] = None,
    ) -> int:
        """Emit a childless node (open + immediate close)."""
        return self._append(label, text, attrs)

    def text(self, data: str) -> int:
        """Emit an HTML text node (label ``#text`` with payload)."""
        return self._append("#text", data, None)

    def close(self) -> None:
        """Close the innermost open element."""
        if not self._stack:
            raise TreeError("no open element to close")
        self._stack.pop()

    def finish(self, schema: str = "unranked", max_rank: int = 0) -> TreeSnapshot:
        """Close any open elements and return the finished snapshot."""
        self._stack.clear()
        return TreeSnapshot(
            schema,
            self._parent,
            self._firstchild,
            self._nextsibling,
            self._prevsibling,
            self._lastchild,
            self._label_ids,
            self._labels,
            self._label_index,
            max_rank=max_rank,
            texts=self._texts,
            attrs=self._attrs,
        )


def html_snapshot(html: str, root_label: str = "document") -> TreeSnapshot:
    """Tokenize HTML straight into snapshot columns (zero Node objects).

    Column-identical to ``UnrankedStructure(parse_html(html)).snapshot()``
    -- same document-order ids, same interned labels, same tag-soup
    handling -- but built in one fused loop: the tokenizer's token regex
    (:data:`repro.html.tokenizer._TOKEN`) is matched here, and each match
    is dispatched on its group and appended straight to the ``parent`` /
    ``label_ids`` / ``texts`` / ``attrs`` columns.  Positions the regex
    does not cover go through :func:`repro.html.tokenizer._slow_token`,
    one token at a time.  Tag-soup decisions go through
    :class:`repro.html.policy.OpenElements`, shared with
    :func:`repro.html.parser.parse_html`.

    The root is a stack sentinel (parent ``-1``): a page with exactly one
    non-text top-level node is rooted at it as is, and only other pages
    get the synthetic ``root_label`` node prepended, once, at the end.

    >>> snap = html_snapshot("<ul><li>a<li>b</ul>")
    >>> [snap.labels[l] for l in snap.label_ids]
    ['ul', 'li', '#text', 'li', '#text']
    """
    from repro.html.entities import decode_entities
    from repro.html.policy import IMPLICIT_CLOSERS, VOID_ELEMENTS, OpenElements
    from repro.html.tokenizer import _TOKEN, _slow_token

    parent: List[int] = []
    label_ids: List[int] = []
    labels: List[str] = []
    label_index: Dict[str, int] = {}
    texts: Dict[int, str] = {}
    attrs_column: Dict[int, Dict[str, str]] = {}
    opened = OpenElements(-1)
    stack = opened.items
    open_labels = opened.labels
    start_tag = opened.start_tag
    end_tag = opened.end_tag
    parent_append = parent.append
    label_ids_append = label_ids.append
    decode = decode_entities
    # Per-call tag info, raw start-tag name -> (name, label id, closers,
    # void): label ids are per document, so this never outlives the call.
    tags: Dict[str, tuple] = {}
    text_lid = -1
    pending: List[tuple] = []  # the events of a slow token, reversed
    scan = _TOKEN.scanner(html).match
    n = len(html)
    while True:
        if pending:
            event = pending.pop()
            kind = event[0]
            text = raw = raw_end = None
            if kind == "text":
                text = event[1]
            elif kind == "start":
                _, raw, attrs, self_closing = event
            elif kind == "end":
                raw_end = event[1]
            # comments and doctypes carry no tree content
        else:
            m = scan()
            text, raw_end, raw, attr_name, value, slash = m.groups()
            if text:
                if text.isspace():
                    text = None
                elif "&" in text:
                    text = decode(text)
            if raw is not None:
                if attr_name is None:
                    attrs = None
                    self_closing = False
                else:
                    if "&" in value:
                        value = decode(value)
                    attrs = {attr_name.lower(): value}
                    self_closing = slash == "/"
            elif raw_end is None:
                # The text (if any) ran to the end of input or to a '<'
                # the regex does not cover: scan that one token slowly.
                i = m.end()
                if i < n:
                    pending, i = _slow_token(html, i)
                    pending.reverse()
                    scan = _TOKEN.scanner(html, i).match
                elif not text:
                    break
                # else: append the last text run below; the next match
                # is the empty one at the end of input.

        if text:
            if text_lid < 0:
                text_lid = label_index["#text"] = len(labels)
                labels.append("#text")
            texts[len(parent)] = text
            parent_append(stack[-1])
            label_ids_append(text_lid)
        if raw is not None:
            info = tags.get(raw)
            if info is None:
                name = raw.lower()
                lid = label_index.get(name)
                if lid is None:
                    lid = label_index[name] = len(labels)
                    labels.append(name)
                info = tags[raw] = (
                    name, lid, IMPLICIT_CLOSERS.get(name), name in VOID_ELEMENTS
                )
            name, lid, closers, void = info
            nid = len(parent)
            parent_append(start_tag(nid, name, closers, not (void or self_closing)))
            label_ids_append(lid)
            if attrs:
                attrs_column[nid] = attrs
        elif raw_end is not None:
            end_tag(raw_end if raw_end == open_labels[-1] else raw_end.lower())

    size = len(parent)
    if not size or label_ids[0] == text_lid or parent.count(-1) != 1:
        # No single element root: prepend the synthetic root once (same
        # rule as parse_html), re-interning labels in first-occurrence order.
        parent = [-1] + [p + 1 for p in parent]
        names = [root_label] + [labels[lid] for lid in label_ids]
        labels = []
        label_index = {}
        label_ids = []
        for name in names:
            lid = label_index.get(name)
            if lid is None:
                lid = label_index[name] = len(labels)
                labels.append(name)
            label_ids.append(lid)
        texts = {k + 1: v for k, v in texts.items()}
        attrs_column = {k + 1: v for k, v in attrs_column.items()}
        size += 1

    # Derive the sibling-link columns from ``parent`` in one pass: ids
    # are preorder, so each node's children arrive in document order and
    # the running last-child table is exactly ``lastchild`` at the end.
    firstchild = [-1] * size
    nextsibling = [-1] * size
    prevsibling = [-1] * size
    lastchild = [-1] * size
    for v in range(1, size):
        p = parent[v]
        previous = lastchild[p]
        if previous < 0:
            firstchild[p] = v
        else:
            nextsibling[previous] = v
            prevsibling[v] = previous
        lastchild[p] = v
    return TreeSnapshot(
        "unranked",
        parent,
        firstchild,
        nextsibling,
        prevsibling,
        lastchild,
        label_ids,
        labels,
        label_index,
        texts=texts,
        attrs=attrs_column,
    )


def tree_snapshot(root: Node, schema: str = "unranked", max_rank: int = 0) -> TreeSnapshot:
    """Replay an existing tree through the builder (document order).

    Equivalent to ``UnrankedStructure(root).snapshot()`` plus the text and
    attribute side columns, without materializing the id dictionary.
    """
    builder = SnapshotBuilder()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            builder.close()
            continue
        children = node.children
        if children:
            builder.open(
                node.label,
                dict(node.attrs) if node.attrs else None,
                node.text,
            )
            stack.append((node, True))
            for child in reversed(children):
                stack.append((child, False))
        else:
            builder.leaf(
                node.label,
                node.text,
                dict(node.attrs) if node.attrs else None,
            )
    return builder.finish(schema=schema, max_rank=max_rank)


def sexpr_snapshot(text: str) -> TreeSnapshot:
    """Parse s-expression tree syntax straight into snapshot columns.

    >>> sexpr_snapshot("a(b, c(d), b)").parent
    array('i', [-1, 0, 0, 2, 0])
    """
    from repro.trees.node import parse_sexpr

    return tree_snapshot(parse_sexpr(text))
