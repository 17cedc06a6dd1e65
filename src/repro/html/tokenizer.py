"""HTML tokenization: one grammar, matched by one token regex.

The grammar has two parts:

* :data:`_TOKEN`, a compiled regex matching, at a position, four token
  shapes -- a text run, an end tag ``</name>``, an attribute-free start
  tag ``<name>``, and a start tag with exactly one double-quoted
  attribute ``<name a="v">`` (or ``/>``).  These are every token of the
  generated catalog, forum and news pages (:mod:`repro.workloads`); a
  tag with two attributes, say, is not one of them;
* :func:`_slow_token`, which scans the one token at any position the
  regex does not cover: comments, doctypes, ``script``/``style`` rawtext,
  general attribute lists, a stray ``<`` and unterminated markup.

The fallback is per token: a page with a comment or a ``<script>`` goes
back to the regex right after it.  A token outside the four shapes
costs a failed regex attempt (bounded by the token it then scans), an
event list and a fresh regex scanner on top of the fallback, so a page
made mostly of such tokens can scan a little slower than a plain
character loop would.  Two loops walk this grammar:

* :func:`scan_list` -- plain event tuples (``("start", name, attrs,
  self_closing)``, ``("end", name)``, ``("text", data)``,
  ``("comment", data)``, ``("doctype", data)``); :func:`scan_events`,
  :func:`tokenize` (:class:`Token` values) and
  :func:`repro.html.parser.parse_html` consume it;
* :func:`repro.trees.stream.html_snapshot` -- the fused snapshot loop,
  which dispatches on the match group and appends straight to snapshot
  columns, with no event of any kind in between.

Every scan is linear in the document: no regex attempt backtracks past
text the scan then consumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.html.entities import decode_entities

RAWTEXT_ELEMENTS = ("script", "style")

#: Tag and attribute names: alphanumerics plus ``-``, ``_``, ``:``.
_NAME = re.compile(r"[\w:-]+")

#: One token-regex match: a (possibly empty) text run, then at most one
#: tag of the fast shapes.  Groups: 1 the text run; 2 an end tag's name;
#: 3 a start tag's name, with 4-6 the name, value and ``/`` of its one
#: double-quoted attribute (``None`` when it has none).  Groups 2 and 3
#: both ``None`` means no fast tag follows the text: it ran to the end of
#: input or to a ``<`` only :func:`_slow_token` can scan.  ``script`` and
#: ``style`` start tags are left to the fallback, which owns rawtext.
#: The regex always matches, and never backtracks further than the text
#: it returns plus one tag name, attribute name or value the fallback
#: then consumes.
_TOKEN = re.compile(
    r"""([^<]*)
    (?: </([\w:-]+)>
      | <(?!(?:[sS][cC][rR][iI][pP][tT]|[sS][tT][yY][lL][eE])[\s>])
        ([\w:-]+)(?:>|\s([\w:-]+)="([^"]*)"(/?)>)
    )?""",
    re.X,
)

#: One attribute-scanner step inside a start tag: tag close, stray slash,
#: ``name [= value]`` with double-quoted / single-quoted / unquoted value
#: forms, or one junk character.  Unterminated quotes run to end of input;
#: unquoted values stop at whitespace or ``>`` (and may therefore swallow
#: a ``/``).  Matching the junk character here (rather than failing and
#: retrying one character later) keeps whitespace runs linear.
_ATTR = re.compile(
    r"""\s*
    (?: (?P<close>/?>)
      | /(?!>)
      | (?P<name>[\w:-]+)
        (?: \s*=\s*
            (?: "(?P<dq>[^"]*)"?
              | '(?P<sq>[^']*)'?
              | (?P<uq>[^\s>]*)
            )
        )?
      | .
    )""",
    re.X | re.S,
)

#: Case-insensitive (ASCII) searches for the end of a rawtext element.
_RAWTEXT_CLOSE = {
    name: re.compile(f"</{name}", re.I | re.A) for name in RAWTEXT_ELEMENTS
}


@dataclass
class Token:
    """One HTML token.

    ``kind`` is ``"start"``, ``"end"``, ``"text"``, ``"comment"`` or
    ``"doctype"``; ``name`` is the tag name (lowercased) for tags;
    ``data`` is the decoded text/comment payload; ``attrs`` the attribute
    dictionary; ``self_closing`` marks ``<br/>``-style tags.
    """

    kind: str
    name: str = ""
    data: str = ""
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


def _scan_attributes(html: str, i: int) -> Tuple[Dict[str, str], bool, int]:
    attrs: Dict[str, str] = {}
    n = len(html)
    match = _ATTR.match
    while i < n:
        m = match(html, i)
        close = m.group("close")
        if close is not None:
            return attrs, close == "/>", m.end()
        name = m.group("name")
        if name is not None:
            value = m.group("dq")
            if value is None:
                value = m.group("sq")
            if value is None:
                value = m.group("uq")
            attrs[name.lower()] = decode_entities(value) if value else ""
        i = m.end()
    return attrs, False, i


def _slow_token(html: str, i: int) -> Tuple[List[tuple], int]:
    """Scan the token at ``html[i]`` that :data:`_TOKEN` does not match.

    ``html[i]`` is always ``<`` (every other position starts a text run).
    Returns the token's events -- in :func:`scan_list` form, possibly
    none -- and the position just past it.  A start tag of a rawtext
    element also consumes the element's verbatim content and end tag.
    """
    n = len(html)
    find = html.find
    nxt = html[i + 1] if i + 1 < n else ""
    if nxt == "!":
        if html.startswith("<!--", i):
            end = find("-->", i + 4)
            if end == -1:
                end = n - 3
            return [("comment", html[i + 4 : end])], end + 3
        end = find(">", i + 2)
        if end == -1:
            end = n - 1
        return [("doctype", html[i + 2 : end].strip())], end + 1
    if nxt == "/":
        m = _NAME.match(html, i + 2)
        if m is None:
            end = find(">", i + 2)
            events = []
        else:
            end = find(">", m.end())
            events = [("end", m.group().lower())]
        return events, (end + 1) if end != -1 else n
    m = _NAME.match(html, i + 1)
    if m is None:
        # A stray '<' -- treat as text.
        return [("text", "<")], i + 1
    name = m.group().lower()
    attrs, self_closing, i = _scan_attributes(html, m.end())
    events = [("start", name, attrs, self_closing)]
    if name in RAWTEXT_ELEMENTS and not self_closing:
        close = _RAWTEXT_CLOSE[name].search(html, i)
        close = n if close is None else close.start()
        raw = html[i:close]
        if raw and not raw.isspace():
            events.append(("text", raw))
        if close < n:
            events.append(("end", name))
        gt = find(">", close)
        i = (gt + 1) if gt != -1 else n
    return events, i


def scan_list(html: str) -> List[tuple]:
    """Scan an HTML document into a list of plain event tuples.

    Permissive, never raises on bad markup.  In document order:

    * ``("start", name, attrs, self_closing)`` (lowercased names)
    * ``("end", name)`` (explicit end tags, unmatched ones included)
    * ``("text", data)`` (entity-decoded, whitespace-only runs dropped,
      rawtext delivered verbatim)
    * ``("comment", data)`` / ``("doctype", data)``

    >>> scan_list('<p class="x">a &amp; b</P><br/>')
    [('start', 'p', {'class': 'x'}, False), ('text', 'a & b'), ('end', 'p'), ('start', 'br', {}, True)]
    """
    out: List[tuple] = []
    emit = out.append
    decode = decode_entities
    scan = _TOKEN.scanner(html).match
    n = len(html)
    while True:
        m = scan()
        text, end_name, name, attr_name, value, slash = m.groups()
        if text and not text.isspace():
            emit(("text", decode(text) if "&" in text else text))
        if name is not None:
            attrs = {}
            if attr_name is not None:
                attrs[attr_name.lower()] = decode(value) if "&" in value else value
            emit(("start", name.lower(), attrs, slash == "/"))
        elif end_name is not None:
            emit(("end", end_name.lower()))
        else:
            i = m.end()
            if i == n:
                break
            events, i = _slow_token(html, i)
            out.extend(events)
            scan = _TOKEN.scanner(html, i).match
    return out


def scan_events(html: str) -> Iterator[tuple]:
    """Iterate the event tuples of :func:`scan_list` (materialized up
    front, a few dozen bytes per event).

    >>> [e[0] for e in scan_events('<p class="x">hi</p>')]
    ['start', 'text', 'end']
    """
    return iter(scan_list(html))


def tokenize(html: str) -> Iterator[Token]:
    """Tokenize an HTML document (permissive, never raises on bad markup).

    A thin :class:`Token`-building wrapper over :func:`scan_list` (the
    event list is materialized up front; :class:`Token` objects are built
    lazily).

    >>> [t.kind for t in tokenize('<p class="x">hi</p>')]
    ['start', 'text', 'end']
    """
    for event in scan_list(html):
        kind = event[0]
        if kind == "text" or kind == "comment" or kind == "doctype":
            yield Token(kind, data=event[1])
        elif kind == "start":
            yield Token(kind, name=event[1], attrs=event[2], self_closing=event[3])
        else:
            yield Token(kind, name=event[1])
