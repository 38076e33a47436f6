"""Chat-completion client with record/replay cache and tolerant output parsers."""

from __future__ import annotations

import ast
import enum
import functools
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .dialogue import CorpusError, GroundingLabel, _iter_records
from .knowledge import GroundedKnowledge, SchemaError, canonicalize
from .prompts import ChatMessage

DEFAULT_MODEL = "gpt-3.5-turbo-1106"
DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 256

ENDPOINT_ENV = "GROUNDING_LLM_ENDPOINT"
API_KEY_ENV = "GROUNDING_LLM_API_KEY"

_MAX_ATTEMPTS = 3
_BACKOFF_SECONDS = 0.5


class CacheMode(enum.Enum):
    RECORD = "record"
    REPLAY = "replay"
    LIVE = "live"


class CacheMissError(KeyError):
    def __init__(self, request_hash: str):
        super().__init__(request_hash)
        self.request_hash = request_hash

    def __str__(self) -> str:
        return f"no cached response for request {self.request_hash}"


class TransportError(RuntimeError):
    """The endpoint could not be reached after retries."""


class ApiError(RuntimeError):
    def __init__(self, status: int, body: str):
        super().__init__(f"API returned status {status}: {body}")
        self.status = status
        self.body = body


class LabelParseError(ValueError):
    pass


class KnowledgeParseError(ValueError):
    pass


@dataclass(frozen=True)
class CompletionRequest:
    model_name: str = DEFAULT_MODEL
    messages: tuple[ChatMessage, ...] = ()
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if not isinstance(self.messages, tuple):
            object.__setattr__(self, "messages", tuple(self.messages))
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")

    def wire_body(self) -> dict[str, Any]:
        return {
            "model": self.model_name,
            "messages": [m.to_json_dict() for m in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True)
class CompletionResult:
    text: str
    cached: bool


# ``json.dumps(value, sort_keys=True, ensure_ascii=False)`` without building
# an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


class _Resume:
    """SHA-256 states of one head's canonical body, open inside the content of
    the last message (its first key under ``sort_keys``)."""

    __slots__ = ("max_tokens", "head", "start", "last")

    def __init__(self, max_tokens: int, head: tuple[ChatMessage, ...]):
        self.max_tokens = max_tokens
        self.head = head
        parts = "".join(_dumps(m.to_json_dict()) + ", " for m in head)
        self.start = hashlib.sha256(
            f'{{"max_tokens": {_dumps(max_tokens)}, "messages": [{parts}{{"content": "'
            .encode("utf-8")
        )
        # (content prefix, state after it); replaced whole, and a stored state
        # is only ever copied, so threads can only miss.
        self.last: tuple[str, Any] = ("", self.start)


# The resume points of the latest heads, newest first; replaced whole.
_resumes: tuple[_Resume, ...] = ()


def _resume_point(max_tokens: int, head: tuple[ChatMessage, ...]) -> _Resume:
    global _resumes
    for resume in _resumes:
        # Tuples compare the same message objects without calling ``__eq__``;
        # the type check keeps apart 1, 1.0 and True, which encode differently.
        if (
            resume.head == head
            and resume.max_tokens == max_tokens
            and type(resume.max_tokens) is type(max_tokens)
        ):
            return resume
    resume = _Resume(max_tokens, head)
    _resumes = (resume, *_resumes[:7])
    return resume


@functools.lru_cache(maxsize=8, typed=True)
def _closing(role: str, model_name: str, temperature: float) -> bytes:
    """The canonical body's text after the last message's content."""
    return (
        f'", "role": {_dumps(role)}}}], "model": {_dumps(model_name)}, '
        f'"temperature": {_dumps(temperature)}}}'.encode("utf-8")
    )


def _escaped(text: str) -> bytes:
    """``text`` as it appears inside a JSON string. Escaping is per character,
    so the escape of a concatenation is the concatenation of the escapes."""
    return json.encoder.encode_basestring(text)[1:-1].encode("utf-8")


def request_hash(request: CompletionRequest) -> str:
    """Stable hash of the request, insensitive to incidental field ordering.

    The SHA-256 of ``json.dumps(request.wire_body(), sort_keys=True,
    ensure_ascii=False)``. The state before the last message is the same for
    every prompt of one kind, and the last message's content up to its last
    newline (the dialogue so far) is where the next turn's content resumes,
    so only the text added since is escaped and hashed.
    """
    messages = request.messages
    if not messages:
        return hashlib.sha256(_dumps(request.wire_body()).encode("utf-8")).hexdigest()
    last = messages[-1]
    content = last.content
    resume = _resume_point(request.max_tokens, messages[:-1])
    prefix, state = resume.last
    if not content.startswith(prefix):
        prefix, state = "", resume.start
    state = state.copy()
    done = len(prefix)
    cut = content.rfind("\n")
    if cut > done:
        state.update(_escaped(content[done:cut]))
        resume.last = (content[:cut], state.copy())
        done = cut
    state.update(_escaped(content[done:]))
    state.update(_closing(last.role.value, request.model_name, request.temperature))
    return state.hexdigest()


class ResponseCache:
    """Line-delimited (hash, request, response) store for record/replay."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._responses: dict[str, str] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            for line_no, record in _iter_records(self.path):
                try:
                    self._responses[record["hash"]] = record["response"]
                except (KeyError, TypeError):
                    raise CorpusError(
                        f"{self.path}: line {line_no}: expected an object with "
                        "'hash' and 'response'"
                    ) from None

    def __len__(self) -> int:
        return len(self._responses)

    def get(self, key: str) -> Optional[str]:
        return self._responses.get(key)

    def put(self, key: str, request: CompletionRequest, response: str) -> None:
        """Store and append one record; safe to call from several threads."""
        record = {"hash": key, "request": request.wire_body(), "response": response}
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            self._responses[key] = response
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                handle.write(line)


def _resolve_url(endpoint: str) -> str:
    url = endpoint.rstrip("/")
    if not url.endswith("/chat/completions"):
        url += "/chat/completions"
    return url


def _post(url: str, body: dict[str, Any], headers: dict[str, str]) -> tuple[int, str]:
    """POST ``body`` as JSON; return the status code and the response text.

    Raises ``OSError`` when the endpoint cannot be reached or the connection
    breaks. The HTTP client is imported here so that offline runs never load it.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")
    except http.client.HTTPException as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def _send(
    request: CompletionRequest,
    endpoint: str,
    api_key: Optional[str],
    sleep: Callable[[float], None],
) -> str:
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: Optional[Exception] = None
    for attempt in range(_MAX_ATTEMPTS):
        try:
            status, text = _post(_resolve_url(endpoint), request.wire_body(), headers)
        except OSError as exc:
            last_error = exc
            if attempt + 1 < _MAX_ATTEMPTS:
                sleep(_BACKOFF_SECONDS * 2**attempt)
            continue
        if status != 200:
            raise ApiError(status, text)
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):
            content = None
        if not isinstance(content, str):  # not a chat-completions reply
            raise ApiError(status, text)
        return content
    raise TransportError(f"endpoint unreachable after {_MAX_ATTEMPTS} attempts: {last_error}")


def complete(
    request: CompletionRequest,
    mode: CacheMode,
    cache: Optional[ResponseCache] = None,
    endpoint: Optional[str] = None,
    api_key: Optional[str] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionResult:
    """Resolve a chat completion through the cache or the live endpoint.

    Replay serves only from the cache; record sends the request and persists
    the response; live bypasses the cache entirely.
    """
    key = request_hash(request)
    if mode is CacheMode.REPLAY:
        if cache is None:
            raise CacheMissError(key)
        cached = cache.get(key)
        if cached is None:
            raise CacheMissError(key)
        return CompletionResult(cached, cached=True)

    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    api_key = api_key or os.environ.get(API_KEY_ENV)
    if not endpoint:
        raise ValueError(f"{mode.value} mode requires an endpoint URL (flag or {ENDPOINT_ENV})")
    text = _send(request, endpoint, api_key, sleep)
    if mode is CacheMode.RECORD and cache is not None:
        cache.put(key, request, text)
    return CompletionResult(text, cached=False)


# ---------------------------------------------------------------------------
# Output parsing.
# ---------------------------------------------------------------------------

_LABEL_PATTERN = re.compile(r"\b(explicit|implicit|clarification)\b", re.IGNORECASE)


def parse_label(raw: str) -> GroundingLabel:
    """Scan model output for the first grounding label as a whole word."""
    match = _LABEL_PATTERN.search(raw)
    if match is None:
        raise LabelParseError(f"no grounding label found in {raw!r}")
    return GroundingLabel(match.group(1).lower())


_JSON_PREFIX = re.compile(r"^\s*output\s+json\s*:\s*", re.IGNORECASE)
_CODE_FENCE = re.compile(r"^```[a-zA-Z]*\n(.*?)\n?```\s*$", re.DOTALL)


def parse_knowledge_json(raw: str) -> GroundedKnowledge:
    """Parse model extraction output into canonical knowledge.

    Tolerates an 'Output JSON:' prefix, code fences, single-quoted keys and
    strings, and a bare comma-separated sequence of column objects.
    """
    text = _JSON_PREFIX.sub("", raw.strip()).strip()
    fenced = _CODE_FENCE.match(text)
    if fenced:
        text = fenced.group(1).strip()
    if not text:
        raise KnowledgeParseError("empty extraction output")
    tree = _parse_tree(text)
    if isinstance(tree, (list, tuple)):
        tree = _combine_objects(list(tree))
    try:
        return canonicalize(tree)
    except SchemaError as exc:
        raise KnowledgeParseError(str(exc)) from None


def _parse_tree(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = exc.pos
    # The printed single-quote rendering is Python-literal-like except for
    # JSON's null; a bare "{...}, {...}" sequence parses once wrapped.
    for candidate in (text, f"[{text}]"):
        try:
            return ast.literal_eval(re.sub(r"\bnull\b", "None", candidate))
        except (ValueError, SyntaxError):
            continue
    raise KnowledgeParseError(
        f"unparseable extraction output at offset {offset}: {text!r}"
    )


def _combine_objects(objects: list) -> dict:
    """Fold a sequence of schema fragments into one tree."""
    combined: dict[str, Any] = {}
    columns: list = []
    for obj in objects:
        if not isinstance(obj, dict):
            raise KnowledgeParseError(f"expected objects, got {obj!r}")
        if "column_name" in obj:
            columns.append(obj)
        else:
            columns.extend(obj.pop("column_info", []) or [])
            combined.update(obj)
    if columns:
        combined.setdefault("column_info", [])
        combined["column_info"] = list(combined["column_info"]) + columns
    return combined
