"""Chat-completion client with record/replay cache and tolerant output parsers."""

from __future__ import annotations

import enum
import functools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

from .dialogue import CorpusError, GroundingLabel, _iter_records
from .knowledge import GroundedKnowledge, Record
from .schema import SchemaError, _excerpt, canonicalize
from .prompts import ChatMessage, Transcript

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


class CompletionRequest(Record):
    __slots__ = ("model_name", "messages", "temperature", "max_tokens")

    def __init__(
        self,
        model_name: str = DEFAULT_MODEL,
        messages: Iterable[ChatMessage] = (),
        temperature: float = DEFAULT_TEMPERATURE,
        max_tokens: int = DEFAULT_MAX_TOKENS,
    ) -> None:
        if max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        self._set("model_name", model_name)
        self._set("messages", tuple(messages))
        self._set("temperature", temperature)
        self._set("max_tokens", max_tokens)

    def wire_body(self) -> dict[str, Any]:
        return {
            "model": self.model_name,
            "messages": [m.to_json_dict() for m in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


class CompletionResult(Record):
    __slots__ = ("text", "cached")

    def __init__(self, text: str, cached: bool) -> None:
        self._set("text", text)
        self._set("cached", cached)


# ``json.dumps(value, sort_keys=True, ensure_ascii=False)`` without building
# an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


@functools.lru_cache(maxsize=1)
def _sha256() -> Callable[..., Any]:
    """The SHA-256 constructor of the interpreter's built-in module (``_sha2``
    from Python 3.12, ``_sha256`` before), or ``hashlib``'s on a build that
    has neither. ``hashlib`` loads OpenSSL, which costs a replay run more
    memory and start-up time than its faster hash saves on the few megabytes
    the run hashes. Resolved once per process: a failed import is not
    cached, so trying ``_sha2`` on every call would search the path again."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


class _Resume:
    """SHA-256 states of one head's canonical body, open inside the content of
    the last message (its first key under ``sort_keys``)."""

    __slots__ = ("tokens", "head", "start", "last")

    def __init__(self, max_tokens: int, head: tuple[ChatMessage, ...]):
        self.tokens = (max_tokens, type(max_tokens))
        self.head = head
        parts = "".join(_dumps(m.to_json_dict()) + ", " for m in head)
        self.start = _sha256()(
            f'{{"max_tokens": {_dumps(max_tokens)}, "messages": [{parts}{{"content": "'
            .encode("utf-8")
        )
        # The content prefix last hashed up to a newline, and the state after
        # it; a stored state is only ever copied.
        self.last: tuple[str, Any] = ("", self.start)


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


def request_hash(request: CompletionRequest, transcript: Optional[Transcript] = None) -> str:
    """Stable hash of the request, insensitive to incidental field ordering.

    The SHA-256 of ``json.dumps(request.wire_body(), sort_keys=True,
    ensure_ascii=False)``. ``transcript`` keeps, per head (the messages
    before the last) and ``max_tokens``, the states before the last message's
    content and after it up to its last newline (the dialogue so far), where
    the next turn resumes: only the text added since is escaped and hashed.
    """
    messages = request.messages
    if not messages:
        return _sha256()(_dumps(request.wire_body()).encode("utf-8")).hexdigest()
    resumes = [] if transcript is None else transcript.resumes
    head, last = messages[:-1], messages[-1]
    # Tuples compare the same message objects without calling ``__eq__``; the
    # type keeps apart 1, 1.0 and True, which encode differently.
    tokens = (request.max_tokens, type(request.max_tokens))
    for resume in resumes:
        if resume.head == head and resume.tokens == tokens:
            break
    else:
        resume = _Resume(request.max_tokens, head)
        resumes.append(resume)
    content = last.content
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
    """Line-delimited (hash, request, response) store for record/replay.

    A file that does not exist reads as empty when ``missing_ok``, and
    raises ``CorpusError`` otherwise, as one that cannot be read does. Every
    line is checked as ``json.loads`` checks it; :mod:`convground.cacheline`
    reads the lines that :meth:`put` writes.
    """

    def __init__(self, path: Union[str, Path], missing_ok: bool = True):
        self.path = Path(path)
        self._responses: dict[str, str] = {}
        self._lock = threading.Lock()
        if missing_ok and not self.path.exists():
            return
        # Imported here, so that commands that load no cache never compile it.
        from . import cacheline

        for line_no, record in _iter_records(self.path, cacheline.Reader()):
            if not (isinstance(record, dict) and isinstance(record.get("hash"), str)
                    and isinstance(record.get("response"), str)):
                raise CorpusError(
                    f"{self.path}: line {line_no}: expected an object with "
                    "text 'hash' and 'response'"
                )
            self._responses[record["hash"]] = record["response"]

    def __len__(self) -> int:
        return len(self._responses)

    def get(self, key: str) -> Optional[str]:
        return self._responses.get(key)

    def check_writable(self) -> None:
        """Check that :meth:`put` can append to the file: create its
        directory and open the file for append, removing the file again if
        this made it, so that a run that keeps no reply leaves none.

        Raises ``OSError`` when the file cannot be written, so that record
        mode fails before it pays for a reply it could not keep.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        made = not self.path.exists()
        open(self.path, "ab").close()
        if made:
            self.path.unlink()

    def put(self, key: str, request: CompletionRequest, response: str) -> None:
        """Store and append one record; safe to call from several threads.
        The file's directory must exist (see :meth:`check_writable`)."""
        record = {"hash": key, "request": request.wire_body(), "response": response}
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            self._responses[key] = response
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
    transcript: Optional[Transcript] = None,
) -> CompletionResult:
    """Resolve a chat completion through the cache or the live endpoint.

    Replay serves only from the cache; record sends the request and persists
    the response; live bypasses the cache entirely. ``transcript`` is the
    dialogue's state that :func:`request_hash` resumes from.
    """
    key = request_hash(request, transcript)
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
        raise LabelParseError(f"no grounding label found in {_excerpt(raw)}")
    return GroundingLabel(match.group(1).lower())


_JSON_PREFIX = re.compile(r"^\s*output\s+json\s*:\s*", re.IGNORECASE)
# Blanks and ``\r`` may trail either fence line.
_CODE_FENCE = re.compile(r"^```[a-zA-Z]*[ \t]*\r?\n(.*?)\r?\n?```\s*$", re.DOTALL)


def parse_knowledge_json(raw: str) -> GroundedKnowledge:
    """Parse model extraction output into canonical knowledge.

    Tolerates an 'Output JSON:' prefix, code fences, single-quoted keys and
    strings, and a bare comma-separated sequence of objects, which
    :func:`canonicalize` folds as one.
    """
    text = _JSON_PREFIX.sub("", raw.strip()).strip()
    fenced = _CODE_FENCE.match(text)
    if fenced:
        text = fenced.group(1).strip()
    if not text:
        raise KnowledgeParseError("empty extraction output")
    try:
        return canonicalize(_parse_tree(text))
    except SchemaError as exc:
        raise KnowledgeParseError(str(exc)) from None


def _parse_tree(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = exc.pos
    except (ValueError, RecursionError) as exc:
        # An integer too long to convert, or nesting too deep to decode.
        raise KnowledgeParseError(f"unparseable extraction output: {exc}") from None
    # The printed single-quote rendering is Python-literal-like except for
    # JSON's null; a bare "{...}, {...}" sequence parses once wrapped.
    # Imported here, so that commands that read only JSON never compile it.
    from . import literal

    try:
        return literal.read(text)
    except ValueError:
        raise KnowledgeParseError(
            f"unparseable extraction output at offset {offset}: {_excerpt(text)}"
        ) from None
