"""Output-tree construction.

Following the paper: given an input tree and a predicate assignment, the
output tree keeps exactly the nodes that received a new label, connected
through the transitive closure of the input edge relation (i.e. each kept
node's parent is its nearest kept ancestor), preserving document order.
A synthetic ``result`` root collects top-level matches.

Two builders: :func:`build_output_tree` walks a
:class:`~repro.trees.node.Node` tree, while :func:`build_flat_output`
applies the same nearest-kept-ancestor rule over the flat columns of a
:class:`~repro.trees.snapshot.TreeSnapshot` (the streaming pipeline's
path -- no ``Node`` is ever touched, and text capture reads the
snapshot's text column).  Its product, :class:`FlatOutput`, is the output
tree as preorder columns: it pickles as a handful of flat arrays and
encodes itself to JSON without recursion, so it is what shards return
and what the serving layer caches and writes to the wire.
:func:`build_output_from_snapshot` materializes the same columns as an
:class:`OutputNode` tree for library callers.
"""

from __future__ import annotations

from array import array
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

from repro.trees.node import Node
from repro.trees.snapshot import TreeSnapshot


class OutputNode:
    """A node of a wrapped output tree.

    Attributes
    ----------
    label:
        The new label (the extraction predicate's name, or a custom
        relabeling).
    source:
        The originating input :class:`Node` (``None`` for the synthetic
        root and for snapshot-built outputs).
    source_id:
        The originating node's document-order identifier (``None`` for
        the synthetic root; always set by the snapshot builder, set by
        the tree builder only when the caller supplies ids).
    children:
        Output children in document order.
    text:
        Concatenated text content of the source subtree, when the source
        tree carries text (HTML wrapping).
    """

    __slots__ = ("label", "source", "source_id", "children", "text")

    def __init__(
        self,
        label: str,
        source: Optional[Node] = None,
        source_id: Optional[int] = None,
    ):
        self.label = label
        self.source = source
        self.source_id = source_id
        self.children: List[OutputNode] = []
        self.text: Optional[str] = None

    def add(self, child: "OutputNode") -> "OutputNode":
        self.children.append(child)
        return child

    def to_sexpr(self) -> str:
        """Compact s-expression rendering (tests and examples).

        Iterative, like every walk over output trees here, so arbitrarily
        deep outputs never hit the recursion limit.

        >>> root = OutputNode("result")
        >>> row = root.add(OutputNode("row"))
        >>> _ = row.add(OutputNode("a")), row.add(OutputNode("b"))
        >>> _ = root.add(OutputNode("row"))
        >>> root.to_sexpr()
        'result(row(a, b), row)'
        """
        parts: List[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(item.label)
            children = item.children
            if children:
                parts.append("(")
                stack.append(")")
                for k in range(len(children) - 1, 0, -1):
                    stack.append(children[k])
                    stack.append(", ")
                stack.append(children[0])
        return "".join(parts)

    def iter_subtree(self):
        """Document-order (preorder) iteration."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_dict(self) -> dict:
        """JSON-serializable rendering for library callers (the serving
        subsystem ships :class:`FlatOutput` instead).

        Keys are always present: ``label``, ``source_id`` (``None`` for
        the synthetic root), ``text`` (``None`` when absent), and
        ``children`` (possibly empty).  Iterative so arbitrarily deep
        wrapped outputs never hit the recursion limit.

        >>> root = OutputNode("result")
        >>> item = root.add(OutputNode("item", source_id=3))
        >>> item.text = "42"
        >>> root.to_dict() == {
        ...     "label": "result", "source_id": None, "text": None,
        ...     "children": [{"label": "item", "source_id": 3,
        ...                   "text": "42", "children": []}]}
        True
        """
        top = {
            "label": self.label,
            "source_id": self.source_id,
            "text": self.text,
            "children": [],
        }
        stack = [(self, top)]
        while stack:
            node, rendered = stack.pop()
            for child in node.children:
                entry = {
                    "label": child.label,
                    "source_id": child.source_id,
                    "text": child.text,
                    "children": [],
                }
                rendered["children"].append(entry)
                stack.append((child, entry))
        return top

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"OutputNode({self.to_sexpr()})"


class FlatOutput:
    """A wrapped output tree as preorder columns.

    Node ``0`` is the synthetic root; every other node is one kept input
    node, in document order -- a preorder of the output tree, because
    the output edge relation is the input's ancestor relation restricted
    to kept nodes.  Columns:

    ``labels``
        The label table (root label first).
    ``label_ids``
        ``array('i')``: each node's index into ``labels``.
    ``source_ids``
        ``array('i')``: each node's input document-order id (``-1`` for
        the root).
    ``parents``
        ``array('i')``: each node's output parent index (``-1`` for the
        root).  A node's first child, if any, is the next node.
    ``texts``
        Sparse ``{node index: text}`` for the leaves that captured text.

    The columns pickle flat (no per-node objects) and :meth:`to_json`
    encodes them iteratively, byte-identical to
    ``json.dumps(self.to_tree().to_dict())``.

    >>> from repro.trees.stream import html_snapshot
    >>> flat = build_flat_output(
    ...     html_snapshot("<ul><li>a</li><li>b</li></ul>"),
    ...     {0: "list", 1: "item", 3: "item"})
    >>> len(flat), flat.labels, list(flat.parents), flat.texts
    (4, ['result', 'list', 'item'], [-1, 0, 1, 1], {2: 'a', 3: 'b'})
    >>> flat.to_tree().to_sexpr()
    'result(list(item, item))'
    >>> import json
    >>> flat.to_json() == json.dumps(flat.to_tree().to_dict())
    True
    """

    __slots__ = ("labels", "label_ids", "source_ids", "parents", "texts")

    def __init__(
        self,
        labels: List[str],
        label_ids: array,
        source_ids: array,
        parents: array,
        texts: Dict[int, str],
    ):
        self.labels = labels
        self.label_ids = label_ids
        self.source_ids = source_ids
        self.parents = parents
        self.texts = texts

    def __reduce__(self):
        return (
            FlatOutput,
            (self.labels, self.label_ids, self.source_ids, self.parents, self.texts),
        )

    def __len__(self) -> int:
        return len(self.label_ids)

    def __eq__(self, other: object) -> bool:
        # Column equality is tree equality: the builder assigns label ids
        # in order of first appearance, so equal trees get equal columns.
        if not isinstance(other, FlatOutput):
            return NotImplemented
        return (
            self.label_ids == other.label_ids
            and self.source_ids == other.source_ids
            and self.parents == other.parents
            and self.labels == other.labels
            and self.texts == other.texts
        )

    __hash__ = None  # type: ignore[assignment]

    def is_well_formed(self) -> bool:
        """Constant-time shape check: typed columns of one length, a root."""
        columns = (self.label_ids, self.source_ids, self.parents)
        return (
            isinstance(self.labels, list)
            and isinstance(self.texts, dict)
            and all(isinstance(column, array) for column in columns)
            and len(self.label_ids) >= 1
            and len(self.source_ids) == len(self.parents) == len(self.label_ids)
            and self.parents[0] == -1
        )

    def to_json(self) -> str:
        """The nested JSON rendering, written straight from the columns.

        Equal, byte for byte, to ``json.dumps(self.to_tree().to_dict())``
        (default separators, ASCII escaping), without building the
        nested form and without recursion.
        """
        heads = [
            '{"label": ' + encode_basestring_ascii(label) + ', "source_id": '
            for label in self.labels
        ]
        label_ids = self.label_ids
        source_ids = self.source_ids
        parents = self.parents
        texts = self.texts
        parts: List[str] = []
        append = parts.append
        open_nodes: List[int] = []
        for i in range(len(label_ids)):
            if i:
                parent = parents[i]
                if parent != i - 1:
                    # Node i - 1 was a leaf: close it and every open node
                    # up to i's parent, which already has a child.
                    while open_nodes[-1] != parent:
                        open_nodes.pop()
                        append("]}")
                    append(", ")
            text = texts.get(i)
            source = source_ids[i]
            append(
                heads[label_ids[i]]
                + ("null" if source < 0 else str(source))
                + (
                    ', "text": null, "children": ['
                    if text is None
                    else ', "text": '
                    + encode_basestring_ascii(text)
                    + ', "children": ['
                )
            )
            open_nodes.append(i)
        append("]}" * len(open_nodes))
        return "".join(parts)

    def to_tree(self) -> OutputNode:
        """Materialize the columns as an :class:`OutputNode` tree."""
        labels = self.labels
        label_ids = self.label_ids
        source_ids = self.source_ids
        parents = self.parents
        texts = self.texts
        nodes: List[OutputNode] = []
        for i in range(len(label_ids)):
            source = source_ids[i]
            node = OutputNode(
                labels[label_ids[i]], source_id=None if source < 0 else source
            )
            text = texts.get(i)
            if text is not None:
                node.text = text
            if i:
                nodes[parents[i]].children.append(node)
            nodes.append(node)
        return nodes[0]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FlatOutput({len(self)} nodes)"


def node_text(node: Node) -> str:
    """Concatenated text payloads of a subtree, in document order."""
    parts: List[str] = []
    for n in node.iter_subtree():
        if n.text:
            parts.append(n.text)
    return " ".join(p.strip() for p in parts if p.strip())


def build_output_tree(
    root: Node,
    assignment: Dict[int, str],
    root_label: str = "result",
    capture_text: bool = True,
) -> OutputNode:
    """Build the wrapped output tree.

    Parameters
    ----------
    root:
        The input tree.
    assignment:
        ``id(node) -> new_label`` for every node to keep.  (Wrappers
        produce this from extraction-predicate results; a node carrying
        several predicates gets one output node per predicate in a stable
        order only if callers merge labels beforehand.)
    root_label:
        Label of the synthetic output root.
    capture_text:
        Record the source subtree's text content on leaf output nodes.
    """
    out_root = OutputNode(root_label)
    kept = []
    # Explicit preorder stack, like to_sexpr / iter_subtree: arbitrarily
    # deep input trees never hit the recursion limit.
    stack = [(root, out_root)]
    while stack:
        node, parent_out = stack.pop()
        label = assignment.get(id(node))
        if label is not None:
            parent_out = parent_out.add(OutputNode(label, source=node))
            kept.append((node, parent_out))
        stack.extend((child, parent_out) for child in reversed(node.children))
    if capture_text:
        for node, out_node in kept:
            if not out_node.children:
                text = node_text(node)
                if text:
                    out_node.text = text
    return out_root


def build_flat_output(
    snapshot: TreeSnapshot,
    assignment: Dict[int, str],
    root_label: str = "result",
    capture_text: bool = True,
) -> FlatOutput:
    """Build the wrapped output as :class:`FlatOutput` columns (no ``Node``).

    The exact analogue of :func:`build_output_tree` over a columnar
    document: ``assignment`` maps document-order node identifiers to new
    labels, kept nodes attach to their nearest kept ancestor in document
    order, and leaf output nodes capture the concatenated text of their
    source subtree from the snapshot's text column.
    """
    labels = [root_label]
    label_index = {root_label: 0}
    label_ids = [0]
    source_ids = [-1]
    parents = [-1]
    texts: Dict[int, str] = {}
    if snapshot.size:
        parent = snapshot.parent
        # Snapshot ids are assigned in document (pre-) order by every
        # builder, so ascending kept ids visit parents before children
        # and siblings left to right.  Each kept node's output parent is
        # its nearest kept ancestor, found by walking ``parent`` with
        # memoization: O(kept + touched ancestors) rather than O(n).
        #: node id -> its output index (kept) or the output index of its
        #: nearest kept ancestor (unkept, memoized while walking up).
        out_of: Dict[int, int] = {}
        known_output = out_of.get
        for index, v in enumerate(sorted(assignment), 1):
            ancestor = 0
            path: List[int] = []
            u = parent[v]
            while u != -1:
                known = known_output(u)
                if known is not None:
                    ancestor = known
                    break
                path.append(u)
                u = parent[u]
            label = assignment[v]
            label_id = label_index.get(label)
            if label_id is None:
                label_id = label_index[label] = len(labels)
                labels.append(label)
            label_ids.append(label_id)
            source_ids.append(v)
            parents.append(ancestor)
            out_of[v] = index
            for u in path:
                out_of[u] = ancestor
        if capture_text and snapshot.texts:
            # In preorder a node's first child is the next node, so the
            # leaves are the nodes the next node does not hang off.
            last = len(parents) - 1
            leaves = [
                i for i in range(1, last + 1) if i == last or parents[i + 1] != i
            ]
            for i, text in zip(
                leaves, snapshot.node_texts([source_ids[i] for i in leaves])
            ):
                if text:
                    texts[i] = text
    return FlatOutput(
        labels,
        array("i", label_ids),
        array("i", source_ids),
        array("i", parents),
        texts,
    )


def build_output_from_snapshot(
    snapshot: TreeSnapshot,
    assignment: Dict[int, str],
    root_label: str = "result",
    capture_text: bool = True,
) -> OutputNode:
    """:func:`build_flat_output`, materialized as an :class:`OutputNode` tree.

    >>> from repro.trees.stream import html_snapshot
    >>> snap = html_snapshot("<ul><li>a</li><li>b</li></ul>")
    >>> out = build_output_from_snapshot(snap, {1: "item", 3: "item"})
    >>> out.to_sexpr()
    'result(item, item)'
    >>> [c.text for c in out.children]
    ['a', 'b']
    """
    return build_flat_output(
        snapshot, assignment, root_label=root_label, capture_text=capture_text
    ).to_tree()
