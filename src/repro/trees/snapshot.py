"""Columnar tree snapshots: the document as flat integer arrays.

The linear-time propagation kernel (:mod:`repro.datalog.kernel`) never
touches :class:`~repro.trees.node.Node` objects or tuple sets on its hot
path.  Instead, each tree structure exposes a :class:`TreeSnapshot` -- a
set of parallel integer columns built once per document in a single
document-order pass:

* ``parent[i]`` / ``firstchild[i]`` / ``nextsibling[i]`` /
  ``prevsibling[i]`` / ``lastchild[i]`` -- the tree edges as partial
  functions (``-1`` where undefined), realizing Proposition 4.1's
  observation that every binary relation of a tree schema is a partial
  bijection (or, for ``child``, backward-functional);
* ``label_ids[i]`` -- interned label identifiers (``labels`` /
  ``label_index`` translate back and forth);
* byte masks for the unary schema relations (``root``, ``leaf``,
  ``lastsibling``, ``firstsibling``, ``label_a``, ...), plus the node
  lists behind them for selective enumeration.

Everything derived (masks, node lists, per-direction functional maps) is
memoized on the snapshot, so it is shared by every program evaluated on
the same document.  The ``schema`` field (``"unranked"`` or ``"ranked"``)
gates name resolution to exactly the relations the owning structure
would itself supply: asking for a relation outside the schema returns
``None``, which the kernel treats as "not applicable, fall back".

The integer columns are stored as ``array('i')`` rather than Python
lists, so per-node boxed objects disappear from the snapshot itself, and
each column exposes a buffer for bulk operations.  On top of the columns
the snapshot also serves the *frontier-at-a-time* kernel: byte-lane big
ints (:meth:`unary_int`) and bulk set moves (:meth:`vector_move`) that
push a whole node set through one tree relation in a handful of big-int
shifts -- see the kernel module docstring for the layout contract.
"""

from __future__ import annotations

import re
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trees.node import Node

#: Non-zero bytes of a packed node set (survivor enumeration).
_NONZERO = re.compile(rb"[^\x00]")

#: Maximum number of distinct ``target - source`` deltas a functional map
#: may have before :func:`_shift_classes` gives up and the move falls back
#: to the O(n) byte-gather form.  Chains, sibling links and ``child_k``
#: maps sit far below this; the many-to-one ``parent`` map of a broad
#: tree (one delta per child position) is the map that exceeds it.
_SHIFT_CLASS_CAP = 16


def _shift_classes(arr: Sequence[int], size: int):
    """Decompose a functional map into shift classes, or ``None``.

    Groups sources ``v`` with ``arr[v] >= 0`` by the byte delta
    ``arr[v] - v`` and returns ``((shift_bits, class_mask_int), ...)``:
    the image of a byte-lane set ``S`` under the map is exactly
    ``OR_d (S & mask_d) << shift_d`` (negative shifts shift right).
    Returns ``None`` when the map needs more than ``_SHIFT_CLASS_CAP``
    distinct deltas.
    """
    classes: Dict[int, bytearray] = {}
    for v, w in enumerate(arr):
        if w < 0:
            continue
        delta = w - v
        mask = classes.get(delta)
        if mask is None:
            if len(classes) >= _SHIFT_CLASS_CAP:
                return None
            mask = classes[delta] = bytearray(size)
        mask[v] = 1
    return tuple(
        (8 * delta, int.from_bytes(mask, "little"))
        for delta, mask in classes.items()
    )


def _scatter(pairs) -> Callable[[int], int]:
    """Image function of a shift-class decomposition (``v -> arr[v]``)."""

    def image(s: int) -> int:
        out = 0
        for shift, mask in pairs:
            part = s & mask
            if part:
                out |= (part << shift) if shift >= 0 else (part >> -shift)
        return out

    return image


def _gather(pairs) -> Callable[[int], int]:
    """Preimage function of a shift-class decomposition."""

    def preimage(t: int) -> int:
        out = 0
        for shift, mask in pairs:
            part = (t >> shift) if shift >= 0 else (t << -shift)
            part &= mask
            if part:
                out |= part
        return out

    return preimage


def _byte_gather(arr: Sequence[int], size: int) -> Callable[[int], int]:
    """O(n) preimage through ``arr`` at C speed (no shift classes).

    ``result[v] = S[arr[v]]``: every node reads the byte of its image, so
    the returned function computes ``{v : arr[v] in S}`` -- one
    ``to_bytes`` / ``map`` / ``from_bytes`` round trip, no Python-level
    per-node loop.  Undefined entries (``-1``) read a padding zero byte.
    """
    pad = [w if w >= 0 else size for w in arr]

    def preimage(t: int) -> int:
        buf = t.to_bytes(size, "little") + b"\x00"
        return int.from_bytes(bytes(map(buf.__getitem__, pad)), "little")

    return preimage


#: Popcount at or below which bulk moves decode set bits one by one
#: instead of paying an O(n) buffer round trip.  Narrow frontiers (a
#: handful of nodes descending a deep chain) hit a move every round, so
#: the O(n) floor of the dense forms would make n rounds quadratic.
_SPARSE_MOVE_CUTOFF = 8


def _sparse_tier(
    column: Sequence[int], dense: Callable[[int], int]
) -> Callable[[int], int]:
    """Wrap a dense bulk move with a per-bit walk for tiny sets.

    ``column`` must map each source node to its single target (``-1``
    where undefined): the image of a tiny set is just ``column[v]`` per
    set bit.  Preimages through a partial bijection use the *inverse*
    column, which maps exactly the same way.
    """

    def move(t: int) -> int:
        if t.bit_count() > _SPARSE_MOVE_CUTOFF:
            return dense(t)
        out = 0
        while t:
            low = t & -t
            w = column[(low.bit_length() - 1) >> 3]
            if w >= 0:
                out |= 1 << (w << 3)
            t ^= low
        return out

    return move


def _column(values) -> array:
    """An ``array('i')`` column (idempotent on arrays)."""
    if isinstance(values, array):
        return values
    return array("i", values)


class TreeSnapshot:
    """Flat columnar view of one document tree.

    Built by :meth:`repro.trees.unranked.UnrankedStructure.snapshot` /
    :meth:`repro.trees.ranked.RankedStructure.snapshot` (and cached there
    and on :class:`repro.structures.IndexedStructure`) via
    :meth:`from_tree`, or column-by-column -- without any
    :class:`~repro.trees.node.Node` allocation -- by
    :func:`repro.trees.stream.html_snapshot` and the streaming
    :class:`repro.trees.stream.SnapshotBuilder`; not usually constructed
    by hand.

    The optional ``texts`` / ``attrs`` side columns carry the text payload
    and attribute dictionary per node (sparse ``node id -> value``
    mappings; most nodes have neither), so HTML documents can be wrapped
    -- including text capture on output nodes -- from the columns alone.

    Examples
    --------
    >>> from repro.trees import parse_sexpr
    >>> from repro.trees.unranked import UnrankedStructure
    >>> snap = UnrankedStructure(parse_sexpr("a(b, c(d), b)")).snapshot()
    >>> snap.parent
    array('i', [-1, 0, 0, 2, 0])
    >>> snap.firstchild
    array('i', [1, -1, 3, -1, -1])
    >>> snap.nextsibling
    array('i', [-1, 2, 4, -1, -1])
    >>> snap.labels[snap.label_ids[3]]
    'd'
    """

    __slots__ = (
        "size",
        "schema",
        "max_rank",
        "parent",
        "firstchild",
        "nextsibling",
        "prevsibling",
        "lastchild",
        "label_ids",
        "labels",
        "label_index",
        "texts",
        "attrs",
        "_unary_masks",
        "_unary_nodes",
        "_unary_ints",
        "_forward",
        "_backward",
        "_child_index",
        "_label_nodes",
        "_vector_moves",
        "_vector_plans",
        "_merkle",
        "_sig",
        "_diff",
    )

    def __init__(
        self,
        schema: str,
        parent: List[int],
        firstchild: List[int],
        nextsibling: List[int],
        prevsibling: List[int],
        lastchild: List[int],
        label_ids: List[int],
        labels: List[str],
        label_index: Dict[str, int],
        max_rank: int = 0,
        texts: Optional[Dict[int, str]] = None,
        attrs: Optional[Dict[int, Dict[str, str]]] = None,
    ):
        self.size = len(parent)
        self.schema = schema
        self.max_rank = max_rank
        # One `array('i')` per column: unboxed storage, built once here so
        # every producer (streaming builder, tree flattener) can keep
        # assembling plain lists.
        self.parent = _column(parent)
        self.firstchild = _column(firstchild)
        self.nextsibling = _column(nextsibling)
        self.prevsibling = _column(prevsibling)
        self.lastchild = _column(lastchild)
        self.label_ids = _column(label_ids)
        self.labels = labels
        self.label_index = label_index
        self.texts = texts
        self.attrs = attrs
        self._unary_masks: Dict[str, Optional[bytearray]] = {}
        self._unary_nodes: Dict[str, Optional[List[int]]] = {}
        self._unary_ints: Dict[str, Optional[int]] = {}
        self._forward: Dict[str, Optional[Sequence[int]]] = {}
        self._backward: Dict[str, Optional[Sequence[int]]] = {}
        self._child_index: Optional[List[int]] = None
        self._label_nodes: Optional[List[List[int]]] = None
        self._vector_moves: Dict = {}
        #: Per-snapshot cache of compiled frontier plans, keyed by the
        #: kernel lowering object (identity); owned here so the plan dies
        #: with the document instead of accumulating on the program.
        self._vector_plans: Dict = {}
        #: Cached :func:`repro.trees.merkle.merkle_table` result (subtree
        #: hashes + sizes); computed on first use, shared by every diff
        #: against this snapshot.
        self._merkle = None
        #: Cached :func:`repro.trees.merkle.signature_table` lanes (the
        #: bulk-comparison form the snapshot diff actually matches on).
        self._sig = None
        #: One-entry diff memo ``(new_snapshot, SnapshotDiff)`` held by the
        #: *old* version, so wrappers diffing the same pair once per
        #: compiled plan pay for one diff (and dropping the old version
        #: frees the whole chain).
        self._diff = None

    @classmethod
    def from_tree(
        cls,
        nodes: Sequence[Node],
        ids: Dict[int, int],
        schema: str,
        max_rank: int = 0,
    ) -> "TreeSnapshot":
        """Flatten an existing :class:`Node` tree (document-order ids)."""
        n = len(nodes)
        parent = [-1] * n
        firstchild = [-1] * n
        nextsibling = [-1] * n
        prevsibling = [-1] * n
        lastchild = [-1] * n
        label_ids = [0] * n
        labels: List[str] = []
        label_index: Dict[str, int] = {}
        texts: Dict[int, str] = {}
        attrs: Dict[int, Dict[str, str]] = {}
        for i, node in enumerate(nodes):
            lid = label_index.get(node.label)
            if lid is None:
                lid = label_index[node.label] = len(labels)
                labels.append(node.label)
            label_ids[i] = lid
            if node.text:
                texts[i] = node.text
            if node.attrs:
                attrs[i] = node.attrs
            children = node.children
            if children:
                previous = -1
                for child in children:
                    ci = ids[id(child)]
                    parent[ci] = i
                    if previous < 0:
                        firstchild[i] = ci
                    else:
                        nextsibling[previous] = ci
                        prevsibling[ci] = previous
                    previous = ci
                lastchild[i] = previous
        return cls(
            schema,
            parent,
            firstchild,
            nextsibling,
            prevsibling,
            lastchild,
            label_ids,
            labels,
            label_index,
            max_rank=max_rank,
            texts=texts,
            attrs=attrs,
        )

    # -- unary relations ---------------------------------------------------

    def label_nodes(self) -> List[List[int]]:
        """Node-id lists per label id (one document-order pass, cached).

        The anchor lists behind every ``label_a`` sweep of the kernel, so
        a document with many distinct labels pays one scan total instead
        of one scan per queried label.
        """
        if self._label_nodes is None:
            by_label: List[List[int]] = [[] for _ in self.labels]
            label_ids = self.label_ids
            for i in range(self.size):
                by_label[label_ids[i]].append(i)
            self._label_nodes = by_label
        return self._label_nodes

    def _compute_unary_mask(self, name: str) -> Optional[bytearray]:
        n = self.size
        if name == "dom":
            return bytearray(b"\x01" * n)
        if name == "root":
            mask = bytearray(n)
            if n:
                mask[0] = 1
            return mask
        if name == "leaf":
            # Non-leaves are exactly the nodes that occur as a parent.
            mask = bytearray(b"\x01" * n)
            for p in self.parent:
                if p >= 0:
                    mask[p] = 0
            return mask
        if self.schema == "unranked" and name == "lastsibling":
            # Last siblings are exactly the ``lastchild`` targets.
            mask = bytearray(n)
            for v in self.lastchild:
                if v >= 0:
                    mask[v] = 1
            return mask
        if self.schema == "unranked" and name == "firstsibling":
            # First siblings are exactly the ``firstchild`` targets.
            mask = bytearray(n)
            for v in self.firstchild:
                if v >= 0:
                    mask[v] = 1
            return mask
        if name.startswith("label_"):
            lid = self.label_index.get(name[len("label_") :])
            mask = bytearray(n)
            if lid is not None:
                for i in self.label_nodes()[lid]:
                    mask[i] = 1
            return mask
        if name.startswith("notlabel_"):
            lid = self.label_index.get(name[len("notlabel_") :])
            mask = bytearray(b"\x01" * n)
            if lid is not None:
                for i in self.label_nodes()[lid]:
                    mask[i] = 0
            return mask
        return None

    def unary_mask(self, name: str) -> Optional[bytearray]:
        """Byte mask of unary relation ``name``; ``None`` if unsupported."""
        if name not in self._unary_masks:
            self._unary_masks[name] = self._compute_unary_mask(name)
        return self._unary_masks[name]

    def unary_int(self, name: str) -> Optional[int]:
        """Unary relation ``name`` as one byte-lane big int.

        Little-endian packing of :meth:`unary_mask`: byte ``v`` of the
        integer is 1 exactly when node ``v`` is in the relation, so set
        intersection is a single big-int ``&``.  ``None`` if unsupported.

        >>> from repro.trees import parse_sexpr
        >>> from repro.trees.unranked import UnrankedStructure
        >>> snap = UnrankedStructure(parse_sexpr("a(b, c(d), b)")).snapshot()
        >>> snap.unary_int("leaf") == (1 << 8) | (1 << 24) | (1 << 32)
        True
        """
        if name not in self._unary_ints:
            mask = self.unary_mask(name)
            self._unary_ints[name] = (
                None if mask is None else int.from_bytes(mask, "little")
            )
        return self._unary_ints[name]

    def unary_nodes(self, name: str) -> Optional[List[int]]:
        """Node ids satisfying unary relation ``name`` (anchor lists)."""
        if name not in self._unary_nodes:
            if name.startswith("label_"):
                lid = self.label_index.get(name[len("label_") :])
                nodes: Optional[List[int]] = (
                    [] if lid is None else self.label_nodes()[lid]
                )
            else:
                mask = self.unary_mask(name)
                nodes = (
                    None
                    if mask is None
                    else [i for i in range(self.size) if mask[i]]
                )
            self._unary_nodes[name] = nodes
        return self._unary_nodes[name]

    # -- binary relations --------------------------------------------------

    def _child_k(self, name: str) -> Optional[int]:
        suffix = name[len("child") :]
        if not suffix.isdigit():
            return None
        k = int(suffix)
        if not 1 <= k <= self.max_rank:
            return None
        return k

    def _child_indexes(self) -> List[int]:
        """Position of each node among its siblings (0 for first/root)."""
        if self._child_index is None:
            out = [0] * self.size
            nextsibling = self.nextsibling
            firstchild = self.firstchild
            for i in range(self.size):
                child = firstchild[i]
                index = 0
                while child >= 0:
                    out[child] = index
                    index += 1
                    child = nextsibling[child]
            self._child_index = out
        return self._child_index

    def forward_map(self, name: str) -> Optional[Sequence[int]]:
        """Array ``a`` with ``R(v, a[v])`` when ``R`` is forward-functional.

        Returns ``None`` for unknown relations and for ``child`` (whose
        forward direction branches; use :attr:`firstchild` /
        :attr:`nextsibling` to enumerate children instead).
        """
        if name not in self._forward:
            computed = self._compute_forward(name)
            if computed is not None:
                computed = _column(computed)
            self._forward[name] = computed
        return self._forward[name]

    def _compute_forward(self, name: str) -> Optional[List[int]]:
        if self.schema == "unranked":
            if name == "firstchild":
                return self.firstchild
            if name == "nextsibling":
                return self.nextsibling
            if name == "lastchild":
                return self.lastchild
            return None
        k = self._child_k(name)
        if k is None:
            return None
        nextsibling = self.nextsibling
        out = list(self.firstchild)
        for _ in range(k - 1):
            out = [nextsibling[v] if v >= 0 else -1 for v in out]
        return out

    def backward_map(self, name: str) -> Optional[Sequence[int]]:
        """Array ``a`` with ``R(a[v], v)`` when ``R`` is backward-functional."""
        if name not in self._backward:
            computed = self._compute_backward(name)
            if computed is not None:
                computed = _column(computed)
            self._backward[name] = computed
        return self._backward[name]

    def _compute_backward(self, name: str) -> Optional[List[int]]:
        n = self.size
        parent = self.parent
        if name == "child":
            # ``child`` is backward-functional over any tree schema: the
            # ranked signature derives it as the union of the ``child_k``
            # partial bijections (Lemma 5.4's reading), so branching-heavy
            # ``tau_rk`` programs can ride the kernel too.
            return parent
        if self.schema == "unranked":
            if name == "firstchild":
                prevsibling = self.prevsibling
                return [
                    parent[v] if prevsibling[v] < 0 else -1 for v in range(n)
                ]
            if name == "nextsibling":
                return self.prevsibling
            if name == "lastchild":
                nextsibling = self.nextsibling
                return [
                    parent[v] if nextsibling[v] < 0 else -1 for v in range(n)
                ]
            return None
        k = self._child_k(name)
        if k is None:
            return None
        child_index = self._child_indexes()
        return [
            parent[v] if parent[v] >= 0 and child_index[v] == k - 1 else -1
            for v in range(n)
        ]

    def branches_forward(self, name: str) -> bool:
        """Whether ``name`` is traversable forward by child enumeration.

        True for ``child`` over both schemata: the ``firstchild`` /
        ``nextsibling`` columns exist regardless of the owning structure's
        signature, and ranked structures supply ``child`` as the union of
        their ``child_k`` relations.
        """
        return name == "child"

    # -- bulk set moves (frontier-at-a-time kernel) ------------------------

    def _functional_move(self, arr, inverse):
        """``(image, preimage)`` closures for partial-bijection map ``arr``.

        When ``arr`` decomposes into few shift classes both directions are
        a handful of big-int shift/AND ops; otherwise each direction is an
        O(n) byte gather through the array that reads it (``image`` needs
        the ``inverse`` array and is ``None`` without one).
        """
        pairs = _shift_classes(arr, self.size)
        if pairs is not None:
            image, preimage = _scatter(pairs), _gather(pairs)
        else:
            image = (
                _byte_gather(inverse, self.size) if inverse is not None else None
            )
            preimage = _byte_gather(arr, self.size)
        # Tiny sets skip the dense forms entirely and read the raw
        # columns bit by bit (images through ``arr``, preimages through
        # ``inverse`` when the map is a partial bijection).
        if image is not None:
            image = _sparse_tier(arr, image)
        if inverse is not None:
            preimage = _sparse_tier(inverse, preimage)
        return (image, preimage)

    def _children_move(self, dense: Callable[[int], int]):
        """Adaptive children-of-set: sparse walk below a popcount cutoff.

        The dense form pays O(n) however small the input set; enumerating
        a handful of parents and walking their child lists directly is
        much cheaper for the selective sets that dominate real sweeps
        (e.g. the children of the one ``table`` node).
        """
        size = self.size
        firstchild = self.firstchild
        nextsibling = self.nextsibling
        cutoff = max(8, size // 16)

        def children(t: int) -> int:
            count = t.bit_count()
            if count > cutoff:
                return dense(t)
            if count <= _SPARSE_MOVE_CUTOFF:
                # Tiny parent sets: per-bit child-list walks, no O(n)
                # buffer round trip (the narrow-frontier hot case).
                out = 0
                while t:
                    low = t & -t
                    v = firstchild[(low.bit_length() - 1) >> 3]
                    while v >= 0:
                        out |= 1 << (v << 3)
                        v = nextsibling[v]
                    t ^= low
                return out
            out = bytearray(size)
            for hit in _NONZERO.finditer(t.to_bytes(size, "little")):
                v = firstchild[hit.start()]
                while v >= 0:
                    out[v] = 1
                    v = nextsibling[v]
            return int.from_bytes(out, "little")

        return children

    def vector_move(self, rel: str, forward: bool):
        """Bulk image/preimage functions for one relation traversal.

        Returns ``(fwd, back)`` where ``fwd(S)`` is the byte-lane big-int
        image of node set ``S`` under the ``forward``-direction traversal
        of ``rel`` and ``back(T)`` its preimage -- the building blocks of
        the frontier-at-a-time kernel.  Either function may be ``None``
        when that direction has no linear-time bulk form (the image
        through a broad tree's ``parent`` map); the whole result is
        ``None`` when the snapshot does not supply the relation at all.
        Cached per ``(rel, forward)``.

        >>> from repro.trees import parse_sexpr
        >>> from repro.trees.unranked import UnrankedStructure
        >>> snap = UnrankedStructure(parse_sexpr("a(b, c(d), b)")).snapshot()
        >>> fwd, back = snap.vector_move("firstchild", True)
        >>> fwd(1 << 0) == 1 << 8, back(1 << 24) == 1 << 16
        (True, True)
        >>> children, parents = snap.vector_move("child", True)
        >>> children(1 << 0) == (1 << 8) | (1 << 16) | (1 << 32)
        True
        """
        key = (rel, forward)
        if key in self._vector_moves:
            return self._vector_moves[key]
        move = None
        if rel == "child":
            # ``child`` is backward-functional: both directions ride the
            # ``parent`` column.  Children of ``S`` are the *preimage*
            # through ``parent`` (always available, byte gather at worst);
            # parents of ``S`` are its image (shift classes or nothing).
            parents, children = self._functional_move(self.parent, None)
            children = self._children_move(children)
            move = (children, parents) if forward else (parents, children)
        else:
            arr = self.forward_map(rel) if forward else self.backward_map(rel)
            if arr is not None:
                inverse = (
                    self.backward_map(rel) if forward else self.forward_map(rel)
                )
                move = self._functional_move(arr, inverse)
        self._vector_moves[key] = move
        return move

    # -- tree navigation ---------------------------------------------------

    def children(self, v: int) -> Iterator[int]:
        """Ids of ``v``'s children, left to right."""
        child = self.firstchild[v]
        nextsibling = self.nextsibling
        while child >= 0:
            yield child
            child = nextsibling[child]

    def subtree(self, v: int) -> Iterator[int]:
        """Ids of the subtree rooted at ``v`` in document (pre-) order."""
        firstchild = self.firstchild
        nextsibling = self.nextsibling
        stack = [v]
        pop = stack.pop
        while stack:
            u = pop()
            yield u
            child = firstchild[u]
            if child >= 0:
                row = [child]
                child = nextsibling[child]
                while child >= 0:
                    row.append(child)
                    child = nextsibling[child]
                stack.extend(reversed(row))

    def node_text(self, v: int) -> str:
        """Concatenated text payloads of ``v``'s subtree, in document order.

        Mirrors :func:`repro.wrap.output.node_text`; returns ``""`` when
        the snapshot carries no text column.
        """
        return self.node_texts((v,))[0]

    def node_texts(self, ids: Sequence[int]) -> List[str]:
        """:meth:`node_text` for a batch of nodes, binding the walk once.

        The single columnar implementation of the strip-and-join rule:
        the wrapped-output builder feeds every captured leaf through this
        in one call.
        """
        texts = self.texts
        if not texts:
            return [""] * len(ids)
        get = texts.get
        firstchild = self.firstchild
        nextsibling = self.nextsibling
        out: List[str] = []
        for v in ids:
            child = firstchild[v]
            if (
                child >= 0
                and firstchild[child] < 0
                and nextsibling[child] < 0
                and v not in texts
            ):
                # Fast path: an element whose whole subtree is one leaf
                # (e.g. a table cell holding a single text node).
                t = get(child)
                out.append(t.strip() if t else "")
                continue
            parts: List[str] = []
            stack = [v]
            pop = stack.pop
            while stack:
                u = pop()
                t = get(u)
                if t:
                    t = t.strip()
                    if t:
                        parts.append(t)
                child = firstchild[u]
                if child >= 0:
                    row = [child]
                    child = nextsibling[child]
                    while child >= 0:
                        row.append(child)
                        child = nextsibling[child]
                    stack.extend(reversed(row))
            out.append(" ".join(parts))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TreeSnapshot({self.schema!r}, {self.size} nodes)"
