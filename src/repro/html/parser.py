"""HTML tree construction.

Builds a :class:`repro.trees.Node` document from the
:func:`repro.html.tokenizer.scan_events` stream:

* labels are lowercased tag names; text nodes carry the label ``#text``
  with the text in ``node.text``;
* void elements (``br``, ``img``, ...) never take children;
* the common implicit-close rules are applied (``<li>`` closes an open
  ``li``; ``<tr>`` closes ``td``/``th``/``tr``; ``<p>`` closes ``p``;
  table sections close each other), so the usual "tag soup" of
  real-world pages yields sensible trees;
* unmatched end tags are ignored; unclosed elements are closed at end of
  input;
* if the input has no single root element, everything is wrapped under a
  synthetic ``document`` node.

The tag-soup policy (void elements, implicit closers, scope barriers)
lives in :mod:`repro.html.policy`: both this builder and the Node-free
fused snapshot loop (:mod:`repro.trees.stream`) keep their open elements
in its :class:`~repro.html.policy.OpenElements` stack, so the two front
ends cannot drift apart, and every tag-soup cut is linear.
"""

from __future__ import annotations

from repro.html.policy import IMPLICIT_CLOSERS, VOID_ELEMENTS, OpenElements
from repro.html.tokenizer import scan_events
from repro.trees.node import Node


def parse_html(html: str, root_label: str = "document") -> Node:
    """Parse HTML into a labeled unranked tree.

    >>> tree = parse_html("<ul><li>a<li>b</ul>")
    >>> str(tree)
    'ul(li(#text), li(#text))'
    """
    synthetic_root = Node(root_label)
    opened = OpenElements(synthetic_root)
    stack = opened.items

    for event in scan_events(html):
        kind = event[0]
        if kind == "text":
            stack[-1].add_child(Node("#text", text=event[1]))
        elif kind == "start":
            _, name, attrs, self_closing = event
            element = Node(name, attrs=attrs)
            opened.start_tag(
                element,
                name,
                IMPLICIT_CLOSERS.get(name),
                name not in VOID_ELEMENTS and not self_closing,
            ).add_child(element)
        elif kind == "end":
            opened.end_tag(event[1])
        # comments and doctypes carry no tree content

    # Unwrap the synthetic root when the document has one root element and
    # no top-level text.
    children = synthetic_root.children
    if len(children) == 1 and children[0].label != "#text":
        root = children[0]
        root.parent = None
        return root
    return synthetic_root
