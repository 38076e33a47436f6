"""Reading an extraction reply that is not JSON, as a Python literal.

:mod:`convground.llm` imports this module on the first reply that
``json.loads`` rejects, so commands that read only JSON (or no reply at all)
never compile its patterns.
"""

from __future__ import annotations

import re
from typing import Any

# Brackets nested this deep or deeper are rejected.
MAX_DEPTH = 100

# What may follow a backslash in a string, as Python reads it. Each escape
# matches one way only, so a string that does not close fails in one pass.
_ESCAPE = "|".join((
    r"""[\\'"abfnrtv\n]|\r\n?""", "[0-7]{3}|[0-7]{1,2}(?![0-7])",
    "x[0-9a-fA-F]{2}", "u[0-9a-fA-F]{4}", "U[0-9a-fA-F]{8}",
))
# A string's body between quotes {q}: characters that stand for themselves,
# and escapes.
_CHARS = r"[^{q}\\\n\r\x00\ud800-\udfff]*"
_BODY = _CHARS + r"(?:\\(?:" + _ESCAPE + ")" + _CHARS + ")*"
_NUMBER = r"-?(?:0|[1-9][0-9]*)"
# One token after blanks: an opener (1), or else a closer (2), a string's
# body (3, 4), a float (5), an integer (6) or a word (7), with the comma or
# colon that follows it, if any.
_TOKEN = re.compile("[ \t\r\n]*(?:" + r"([\[{(])|(?:" + "|".join((
    r"([\]})])",
    "'(" + _BODY.replace("{q}", "'") + ")'",
    '"(' + _BODY.replace("{q}", '"') + ')"',
    "(" + _NUMBER + r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
    "(" + _NUMBER + ")",
    "(None|True|False|null)",
)) + ")(?:[ \t\r\n]*[,:])?)")
_DECODED = re.compile(r"\\(" + _ESCAPE + ")")
_ESCAPED = {"\\": "\\", "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "n": "\n",
            "r": "\r", "t": "\t", "v": "\v", "\n": "", "\r": "", "\r\n": ""}
_WORDS = {"None": None, "null": None, "True": True, "False": False}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def _decoded(escape: re.Match[str]) -> str:
    code = escape[1]
    if code in _ESCAPED:
        return _ESCAPED[code]
    point = int(code[1:], 16) if code[0] in "xuU" else int(code, 8)
    if point > 0x10FFFF:  # chr() would raise OverflowError past a C int
        raise ValueError("a code point out of range")
    return chr(point)


def read(text: str) -> Any:
    """The value of ``text``, a Python literal of the subset the README
    declares, in which ``null`` reads ``None``; a bare ``{...}, {...}``
    sequence reads as a tuple.

    One linear pass over the tokens builds the value on an explicit stack.
    Raises ``ValueError`` for any text outside the subset, for brackets
    nested ``MAX_DEPTH`` deep, for an unhashable key, and for an integer or
    a code point out of range.
    """
    # The open brackets' closers and items; the reply reads as in parentheses
    # that only its end closes. ``last`` is the last token's last character:
    # an opener, a comma or a colon, or else "" after a value.
    frames: list[tuple[str, list[Any]]] = []
    closer, items, last, end = "", [], "(", 0
    for token in iter(_TOKEN.scanner(text).match, None):
        kind, end = token.lastindex, token.end()
        if kind != 2 and not last:
            raise ValueError("a value follows a value")
        if kind == 1:
            frames.append((closer, items))
            if len(frames) >= MAX_DEPTH:
                raise ValueError("brackets nested too deep")
            closer, items, last = _CLOSERS[token[1]], [], "("
            continue
        if kind == 2:
            if token[2] != closer or last == ":" or closer == "}" and len(items) % 2:
                raise ValueError("a bracket closes nothing open")
            value = _closed(closer, items, last)
            closer, items = frames.pop()
        elif kind < 5:
            value = token[kind]
            if "\\" in value:
                value = _DECODED.sub(_decoded, value)
        elif kind == 5:
            value = float(token[5])
        elif kind == 6:
            value = int(token[6])
        else:
            value = _WORDS[token[7]]
        items.append(value)
        last = text[end - 1]
        if last not in ",:":
            last = ""
        elif (last == ":") != (closer == "}" and len(items) % 2 == 1):
            raise ValueError("a colon follows no key, or a comma a key")
    if frames or last == "(" or text[end:].strip(" \t\r\n"):
        raise ValueError("not a Python literal")
    return _closed(closer, items, last)


def _closed(closer: str, items: list[Any], last: str) -> Any:
    """The value of brackets closed after ``items``; ``last`` as in :func:`read`."""
    if closer == "]":
        return items
    if closer == "}":
        pairs = iter(items)
        try:
            return dict(zip(pairs, pairs))
        except TypeError:
            raise ValueError("an unhashable key") from None
    return items[0] if len(items) == 1 and not last else tuple(items)
