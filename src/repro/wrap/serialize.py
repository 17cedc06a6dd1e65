"""XML serialization of wrapped output trees."""

from __future__ import annotations

from typing import List

from repro.wrap.output import OutputNode

#: Text-node escapes, ``&`` first so it never rewrites the others'
#: output.  Only ``& < >`` are markup-significant in text content;
#: attribute-style quote escaping (``&quot;`` / ``&apos;``) belongs in
#: attribute values only and must not rewrite text nodes.
_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}


def _escape(text: str) -> str:
    out = text
    for raw, escaped in _ESCAPES.items():
        out = out.replace(raw, escaped)
    return out


def to_xml(node: OutputNode, indent: int = 0) -> str:
    """Pretty-print a wrapped output tree as XML (iteratively, so any
    depth renders).

    >>> from repro.wrap.output import OutputNode
    >>> root = OutputNode("result")
    >>> item = root.add(OutputNode("item"))
    >>> item.text = "42"
    >>> print(to_xml(root))
    <result>
      <item>42</item>
    </result>

    Quotes are data in text content and pass through verbatim; only
    ``& < >`` are escaped:

    >>> quoted = OutputNode("result")
    >>> cell = quoted.add(OutputNode("item"))
    >>> cell.text = 'say "hi" & don\\'t <wave>'
    >>> print(to_xml(quoted))
    <result>
      <item>say "hi" &amp; don't &lt;wave&gt;</item>
    </result>
    """
    lines: List[str] = []
    #: Output nodes still to render, and closing tags still to write.
    stack: list = [(node, indent)]
    while stack:
        item, depth = stack.pop()
        pad = "  " * depth
        if isinstance(item, str):
            lines.append(f"{pad}</{item}>")
            continue
        tag = item.label
        if not item.children:
            if item.text is None:
                lines.append(f"{pad}<{tag}/>")
            else:
                lines.append(f"{pad}<{tag}>{_escape(item.text)}</{tag}>")
            continue
        lines.append(f"{pad}<{tag}>")
        stack.append((tag, depth))
        stack.extend((child, depth + 1) for child in reversed(item.children))
    return "\n".join(lines)
