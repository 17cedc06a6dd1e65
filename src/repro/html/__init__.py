"""A from-scratch permissive HTML front end.

The paper's tree-based wrapping presumes "an existing HTML parser as a
front end"; none is available offline, so this package implements one:

* :mod:`repro.html.entities` -- character reference decoding;
* :mod:`repro.html.tokenizer` -- the one tokenizer grammar: a token regex
  for four shapes (text runs, end tags, attribute-free start tags, start
  tags with one double-quoted attribute -- every token of the generated
  workload pages) plus a per-token slow path for everything else (comments,
  doctypes, ``script``/``style`` rawtext, general attribute lists, stray
  ``<``, unterminated markup); :func:`~repro.html.tokenizer.scan_events`
  yields plain event tuples, :func:`~repro.html.tokenizer.tokenize` wraps
  them in :class:`~repro.html.tokenizer.Token` values, and the fused
  snapshot loop :func:`repro.trees.stream.html_snapshot` matches the
  same regex to write snapshot columns directly;
* :mod:`repro.html.policy` -- the shared tag-soup policy (void elements,
  implicit closers, scope barriers) behind one open-element stack,
  :class:`~repro.html.policy.OpenElements`, used by both tree
  construction and the snapshot loop, with every cut linear;
* :mod:`repro.html.parser` -- tree construction with void elements and
  the common implicit-close rules (``li``, ``p``, ``td``, ``tr``, ...),
  producing :class:`repro.trees.Node` documents whose labels are tag
  names and whose text nodes carry the label ``#text``.
"""

from repro.html.parser import parse_html
from repro.html.policy import IMPLICIT_CLOSERS, VOID_ELEMENTS
from repro.html.tokenizer import Token, scan_events, tokenize

__all__ = [
    "parse_html",
    "scan_events",
    "tokenize",
    "Token",
    "VOID_ELEMENTS",
    "IMPLICIT_CLOSERS",
]
