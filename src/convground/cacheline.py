"""Reading the lines of a replay cache, checking once what they repeat.

:mod:`convground.llm` imports this module when it loads a cache, so commands
that load none (``ground``, ``evaluate``) never compile it.

``ResponseCache.put`` writes ``{"hash": H, "request": {..., "messages": [...,
{"role": R, "content": C}], ...}, "response": S}``. A line of that shape is
split at its literal separators into spans whose concatenation is the whole
line: the hash, the head (the request up to its last message), the role, the
content, the tail (the request's closing text) and the response. Each span is
checked as strictly as ``json.loads`` checks the line, so when every check
passes the line is valid JSON, and its record's ``hash`` and ``response`` are
the two strings read:

- each string goes through ``json.decoder.scanstring``, as in ``json.loads``;
- a head is checked by ``json.loads(head + "{}]}")``: the message that follows
  it then stands in an array in the outermost object;
- a tail by ``json.loads('{"m": [{"c": ""' + tail)``: it closes the last
  message, the array and the request.

The lines of one load repeat their heads, tails and histories, and a
:class:`Reader` keeps what it checked: each head and tail is checked once,
and a content resumes scanning after the prefix it shares with the last
content checked under the same head: that content up to its last space
before its final ``_CUE`` characters. A literal space never lies inside an
escape, so the scan resumes where a scan of the whole string would stand.
Any other line, and a line whose check fails, goes through ``json.loads`` in
full, so that its record or its error is the one ``json.loads`` gives.
"""

from __future__ import annotations

import json
from json.decoder import scanstring
from typing import Any, Optional

_HASH = '{"hash": "'
_REQUEST = ', "request": '
_MESSAGE = '{"role": "'
_CONTENT = ', "content": "'
_RESPONSE = ', "response": "'
_ENDS = ("}", "}\n")

# Heads (each with the checked prefix of its last content) and tails kept
# per load; beyond this many, the oldest is dropped.
_KEPT = 8
# A head or tail with more brackets than this is left to ``json.loads``: its
# line, nested deeper than the span alone, could reach the recursion limit.
_MAX_BRACKETS = 64
# A content's checked prefix ends before its final this many characters: a
# prompt ends with a short answer cue, which the next prompt under the same
# head repeats after the turns added since.
_CUE = 16


class Reader:
    """Decodes the lines of one cache file, keeping what it checked."""

    __slots__ = ("heads", "tails")

    def __init__(self) -> None:
        self.heads: dict[str, str] = {}  # head -> checked prefix of its last content
        self.tails: dict[str, None] = {}

    def __call__(self, line: str) -> Any:
        """The record of ``line``: its hash and response when :meth:`checked`
        reads them, else what ``json.loads`` gives."""
        spans = self.checked(line)
        if spans is None:
            return json.loads(line)
        return {"hash": spans[0], "response": spans[1]}

    def checked(self, line: str) -> Optional[tuple[str, str]]:
        """``(hash, response)`` of a line of ``put``'s shape whose every span
        checks; None for any other line."""
        if not line.startswith(_HASH):
            return None
        try:
            key, start = scanstring(line, len(_HASH), True)
            if not line.startswith(_REQUEST, start):
                return None
            start += len(_REQUEST)
            end = line.rfind(_RESPONSE, start)
            if end < 0:
                return None
            response, stop = scanstring(line, end + len(_RESPONSE), True)
            if line[stop:] not in _ENDS:
                return None
            head = self._head(line, start, end)
            if head is None:
                return None
            role_end = scanstring(line, start + len(head) + len(_MESSAGE), True)[1]
            if not line.startswith(_CONTENT, role_end):
                return None
            body = role_end + len(_CONTENT)
            prefix = self.heads[head]
            resume = body + len(prefix) if line.startswith(prefix, body) else body
            content_end = scanstring(line, resume, True)[1]
            self.heads[head] = line[body:line.rfind(" ", body, content_end - 1 - _CUE) + 1]
            if not self._tail(line[content_end:end]):
                return None
        except ValueError:
            return None
        return key, response

    def _head(self, line: str, start: int, end: int) -> Optional[str]:
        """The checked head that ``line`` holds at ``start``, followed by a
        message; else the text from ``start`` to its last message before
        ``end``, once checked; None if that fails."""
        for head in self.heads:
            if line.startswith(head, start) and line.startswith(_MESSAGE, start + len(head)):
                return head
        stop = line.rfind(_MESSAGE, start, end)
        if stop < 0:
            return None
        head = line[start:stop]
        if not _parses(head + "{}]}", head):
            return None
        _keep(self.heads, head, "")
        return head

    def _tail(self, tail: str) -> bool:
        if tail in self.tails:
            return True
        if not _parses('{"m": [{"c": ""' + tail, tail):
            return False
        _keep(self.tails, tail, None)
        return True


def _parses(text: str, span: str) -> bool:
    if span.count("{") + span.count("[") > _MAX_BRACKETS:
        return False
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        return False
    return True


def _keep(memo: dict[str, Any], key: str, value: Any) -> None:
    memo[key] = value
    if len(memo) > _KEPT:
        del memo[next(iter(memo))]

