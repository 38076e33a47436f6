"""Reading an extraction reply that is not JSON, as a Python literal.

:mod:`convground.llm` imports this module on the first reply that
``json.loads`` rejects, so commands that read only JSON (or no reply at all)
never compile it, nor its patterns, nor ``ast``.
"""

from __future__ import annotations

import json
import re
import threading
from itertools import accumulate
from typing import Any, Optional

# The tokens of :func:`translated`'s rule but brackets.
_STRING = r"[^{q}\\\x00-\x1f\x7f-\x9f\ud800-\udfff]*"
_TOKENS = re.compile("|".join((
    "'" + _STRING.format(q="'") + "'",
    '"' + _STRING.format(q='"') + '"',
    r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?",
    "None|True|False|null",
    r"[{}\[\]:, \t\r\n]+",
)))
# Within text of those tokens: the strings and words a translation rewrites,
# and the text but brackets outside strings.
_STRINGS = "'[^']*'|\"[^\"]*\""
_REWRITTEN = re.compile(_STRINGS + "|None|True|False")
_NOT_BRACKETS = re.compile(_STRINGS + r"""|[^'"{}[\]]+""")
_JSON_WORDS = {"None": "null", "True": "true", "False": "false"}
# Python's parser rejects brackets nested 200 deep, which ``json`` reads; a
# literal nested this deep or deeper is left to ``ast``.
_MAX_TRANSLATED_DEPTH = 100
_BRACKET_STEPS = {"[": 1, "{": 1, "]": -1, "}": -1}

# A quoted string in either style, escapes included, or else a bare ``null``.
# An unclosed string runs to the end, so one pass stays linear.
_NULL_OUTSIDE_STRINGS = re.compile(
    r"""'(?:[^'\\]|\\[\s\S])*'?|"(?:[^"\\]|\\[\s\S])*"?|\bnull\b"""
)
# CPython 3.11.7 keeps the AST constructor's recursion depth per interpreter,
# not per thread, so two ``annotate --jobs`` threads in ``ast.literal_eval``
# at once can raise ``SystemError`` ("AST constructor recursion depth
# mismatch"); replies are read as literals one at a time.
_LITERAL_LOCK = threading.Lock()


def read(text: str) -> Any:
    """The value of ``text``, a Python literal in which ``null`` outside
    strings reads ``None``, or else of ``[text]``, which reads a bare
    ``{...}, {...}`` sequence.

    Text that :func:`translated` translates is read by ``json``; any
    other, or what ``json`` rejects, by ``ast.literal_eval``. Raises
    ``ValueError`` when neither reading succeeds.
    """
    json_text = translated(text)
    if json_text is not None:
        for candidate in (json_text, f"[{json_text}]"):
            try:
                tree = json.loads(candidate)
            except (ValueError, RecursionError):
                continue  # e.g. a trailing comma, or an integer too long to convert
            if nests_deep(text):
                break  # Python's parser may reject what json read
            return tree
    literal = _NULL_OUTSIDE_STRINGS.sub(lambda m: "None" if m[0] == "null" else m[0], text)
    import ast  # here: replies that json reads never load it

    for candidate in (literal, f"[{literal}]"):
        try:
            with _LITERAL_LOCK:
                return ast.literal_eval(candidate)
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            continue  # what ``literal_eval`` raises on malformed or too deeply nested text
    raise ValueError("not a Python literal")


def _as_json(token: re.Match[str]) -> str:
    text = token[0]
    if text[0] == "'":
        return '"' + text[1:-1].replace('"', '\\"') + '"'
    return _JSON_WORDS.get(text, text)


def translated(text: str) -> Optional[str]:
    """``text`` as JSON, or ``None`` when a token of it may mean something
    else in Python than in JSON.

    Each token must be a string in either quote style without a backslash,
    a control character or a surrogate; a JSON number; ``None``, ``True``,
    ``False`` or ``null``; one of ``{}[]:,``; or a space, tab, CR or LF.
    What ``json.loads`` reads from the result, ``ast.literal_eval`` reads
    from ``text`` once ``null`` reads ``None`` (but for a bare sequence,
    which ``json`` reads wrapped as a list and ``ast`` as a tuple), unless
    brackets nest too deep for Python (see :func:`nests_deep`). What
    ``json`` rejects (a trailing comma, a set, a key that is not a string)
    is left to ``ast``. The check is one linear pass of the
    regular-expression engine, and the rewrite one more.
    """
    if "\\" in text:  # the commonest token outside the rule, found without a pass
        return None
    if _TOKENS.sub("", text):
        return None
    if '"' in text or "None" in text or "True" in text or "False" in text:
        return _REWRITTEN.sub(_as_json, text)
    # Every quote delimits a string and no word changes: no call per string,
    # which for a reply of many short strings would cost as much as ast.
    return text.replace("'", '"')


def nests_deep(text: str) -> bool:
    """Whether brackets outside the strings of ``text``, which
    :func:`translated` translates, nest ``_MAX_TRANSLATED_DEPTH`` deep.
    Asked only of text that ``json`` read, which nests less than the
    recursion limit deep."""
    if text.count("[") + text.count("{") < _MAX_TRANSLATED_DEPTH:
        return False
    brackets = _NOT_BRACKETS.sub("", text)
    depth = max(accumulate(map(_BRACKET_STEPS.__getitem__, brackets)), default=0)
    return depth >= _MAX_TRANSLATED_DEPTH
