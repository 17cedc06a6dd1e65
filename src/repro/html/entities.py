"""Character reference decoding for the HTML front end.

Supports the named references that matter in practice plus numeric
references (decimal and hexadecimal).  Unknown references are left
verbatim, as browsers do for unterminated ampersands.
"""

from __future__ import annotations

NAMED_REFERENCES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "trade": "™",
    "hellip": "…",
    "mdash": "—",
    "ndash": "–",
    "lsquo": "‘",
    "rsquo": "’",
    "ldquo": "“",
    "rdquo": "”",
    "eacute": "é",
    "egrave": "è",
    "agrave": "à",
    "uuml": "ü",
    "ouml": "ö",
    "auml": "ä",
    "szlig": "ß",
    "euro": "€",
    "pound": "£",
    "yen": "¥",
    "cent": "¢",
    "sect": "§",
    "para": "¶",
    "middot": "·",
    "laquo": "«",
    "raquo": "»",
    "times": "×",
    "divide": "÷",
    "deg": "°",
    "plusmn": "±",
    "frac12": "½",
    "frac14": "¼",
    "bull": "•",
    "dagger": "†",
    "larr": "←",
    "rarr": "→",
    "uarr": "↑",
    "darr": "↓",
}


def decode_entities(text: str) -> str:
    """Decode character references in ``text``.

    Linear in ``len(text)``: the ``;`` that ends a reference is only
    searched for within the 32 characters a reference may span, so a
    long run of unterminated ``&`` costs O(1) per ampersand.

    >>> decode_entities("a &amp; b &#65; &#x42;")
    'a & b A B'
    >>> decode_entities("&#x41&#x41 &bogus; &#99999999999999999999;")
    '&#x41&#x41 &bogus; &#99999999999999999999;'
    """
    if "&" not in text:
        return text
    out = []
    i = 0
    n = len(text)
    while i < n:
        amp = text.find("&", i)
        if amp == -1:
            out.append(text[i:])
            break
        if amp > i:
            out.append(text[i:amp])
        i = amp
        # A reference body is at most 31 characters: ``;`` at i + 32.
        end = text.find(";", i + 1, i + 33)
        if end == -1:
            out.append("&")
            i += 1
            continue
        body = text[i + 1 : end]
        if body.startswith("#x") or body.startswith("#X"):
            try:
                out.append(chr(int(body[2:], 16)))
                i = end + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif body.startswith("#"):
            try:
                out.append(chr(int(body[1:])))
                i = end + 1
                continue
            except (ValueError, OverflowError):
                pass
        elif body in NAMED_REFERENCES:
            out.append(NAMED_REFERENCES[body])
            i = end + 1
            continue
        out.append("&")
        i += 1
    return "".join(out)
