import hashlib
import http.server
import json
import sys
import threading

import pytest

from convground import (
    CacheMissError,
    CacheMode,
    CompletionRequest,
    CorpusError,
    GroundingLabel,
    ResponseCache,
    canonicalize,
    complete,
    fixtures,
    knowledge_equivalent,
    parse_knowledge_json,
    parse_label,
)
from convground.dialogue import Role, Turn
from convground.llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_MODEL,
    DEFAULT_TEMPERATURE,
    ApiError,
    TransportError,
    _post,
    request_hash,
)
from convground.prompts import (
    EXTRACTION_EXAMPLES,
    ChatMessage,
    MessageRole,
    build_classification_prompt,
    build_extraction_prompt,
    serialize_history,
)


def make_request(text="hello"):
    return CompletionRequest(
        messages=(ChatMessage(MessageRole.USER, text),)
    )


def canonical_digest(request):
    canonical = json.dumps(request.wire_body(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestParseLabel:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Output label: explicit", GroundingLabel.EXPLICIT),
            ("Output label: implicit", GroundingLabel.IMPLICIT),
            ("Output label: clarification", GroundingLabel.CLARIFICATION),
            ("IMPLICIT", GroundingLabel.IMPLICIT),
            ("the label is clarification.", GroundingLabel.CLARIFICATION),
            ("  Explicit\n", GroundingLabel.EXPLICIT),
        ],
    )
    def test_variants(self, raw, expected):
        assert parse_label(raw) is expected

    def test_no_label_raises_with_raw_text(self):
        with pytest.raises(ValueError, match="no idea"):
            parse_label("no idea")

    def test_partial_words_not_matched(self):
        with pytest.raises(ValueError):
            parse_label("explicitly inexplicit clarifications")


class TestParseKnowledgeJson:
    def test_single_quoted_with_prefix(self):
        k = parse_knowledge_json("Output JSON: {'row_count': 98}")
        assert k.row_count == 98

    def test_empty_object(self):
        assert parse_knowledge_json("{}").is_empty

    def test_column_info_single_quoted(self):
        k = parse_knowledge_json(
            "{'column_info': [{'column_name': 'height', 'max_value': 310}]}"
        )
        assert k.column_info[0].max_value == 310

    @pytest.mark.parametrize("_, raw", [(i, raw) for i, (_, raw) in enumerate(EXTRACTION_EXAMPLES)])
    def test_accepts_all_shipped_assistant_examples(self, _, raw):
        parse_knowledge_json(raw)

    def test_accepts_all_fixture_prediction_objects(self):
        records = [
            json.loads(line)
            for line in fixtures.path(fixtures.REPLAY_CACHE)
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        extraction_responses = [
            r["response"] for r in records if r["response"].startswith("Output JSON:")
        ]
        assert len(extraction_responses) == 11
        for response in extraction_responses:
            parse_knowledge_json(response)

    def test_comma_separated_column_objects(self):
        k = parse_knowledge_json(
            "{'column_name': 'year', 'min_value': 1921, 'max_value': 2007}, "
            "{'column_name': 'area', 'min_value': 48, 'max_value': 3940}"
        )
        assert len(k.column_info) == 2

    def test_code_fences_stripped(self):
        k = parse_knowledge_json('```json\n{"row_count": 98}\n```')
        assert k.row_count == 98

    def test_null_fields_dropped(self):
        k = parse_knowledge_json(
            "{'row_count': 191, 'column_info': [{'column_name': "
            "'human development index', 'description': null}]}"
        )
        assert k.row_count == 191
        assert k.column_info[0].description is None

    def test_garbage_raises_with_offset(self):
        with pytest.raises(ValueError, match="offset"):
            parse_knowledge_json("{'row_count': ")

    def test_double_quoted_json_also_accepted(self):
        k = parse_knowledge_json('{"table_domain": "media"}')
        assert k.table_domain == "media"


class TestCache:
    def test_record_then_replay_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        request = make_request()
        cache.put(request_hash(request), request, "Output label: explicit")

        result = complete(request, CacheMode.REPLAY, cache=cache)
        assert result.text == "Output label: explicit"
        assert result.cached is True

        reloaded = ResponseCache(tmp_path / "cache.jsonl")
        assert reloaded.get(request_hash(request)) == "Output label: explicit"

    def test_replay_miss_names_hash(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        request = make_request()
        with pytest.raises(CacheMissError) as excinfo:
            complete(request, CacheMode.REPLAY, cache=cache)
        assert excinfo.value.request_hash == request_hash(request)

    def test_record_without_response_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"hash": "a", "response": "x"}\n\n{"hash": "b"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r"cache\.jsonl: line 3: .*'response'"):
            ResponseCache(path)

    def test_hash_stable_across_message_objects(self):
        assert request_hash(make_request()) == request_hash(make_request())
        assert request_hash(make_request()) != request_hash(make_request("other"))

    def test_hash_equals_the_canonical_body_digest(self):
        requests = []
        with open(fixtures.path(fixtures.REPLAY_CACHE), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                body = record["request"]
                request = CompletionRequest(
                    body["model"],
                    tuple(ChatMessage(MessageRole(m["role"]), m["content"])
                          for m in body["messages"]),
                    body["temperature"],
                    body["max_tokens"],
                )
                assert request_hash(request) == canonical_digest(request) == record["hash"]
                requests.append(request)
        assert len(requests) == 22
        system = ChatMessage(MessageRole.SYSTEM, "système \"quoted\" \\ back\\slash")
        odd = ChatMessage(MessageRole.USER, 'naïve 数据   "q" \\n \t end')
        requests += [
            CompletionRequest(messages=()),
            make_request(),
            CompletionRequest(messages=(odd,)),
            CompletionRequest(messages=(system, odd)),
            CompletionRequest("modèle-\"x\"", (system, odd), 0.7, 17),
            CompletionRequest("m", (odd,), 1e-9, 1),
            CompletionRequest("m", (odd,), 1, True),
        ]
        # Two prompt prefixes in turn, as classification and extraction alternate.
        for i in range(6):
            head = (system,) if i % 2 else (system, odd)
            requests.append(CompletionRequest(
                messages=(*head, ChatMessage(MessageRole.USER, f"turn {i}")),
                max_tokens=256 + i % 3,
            ))
        # Two dialogues grow a turn at a time, interleaved, with both prompt
        # kinds per turn, a knowledge base that changes between turns, and
        # text that JSON escapes or that is not ASCII.
        odd_texts = [
            'say "hi"', "back\\slash", "two\nlines", "tab\there", "ctl\x01x",
            "sep\u2028x", "naïve 数据", "emoji 🙂", "plain",
        ]
        dialogues = [
            [Turn(i + 1, Role.SEEKER if i % 2 else Role.PROVIDER, f"{d}{i} {text}")
             for i, text in enumerate(odd_texts)]
            for d in ("a", "b")
        ]
        configs = [
            (DEFAULT_MODEL, DEFAULT_TEMPERATURE, DEFAULT_MAX_TOKENS),
            ("modèle \"m\"\n", 0.3, 64),
            ("m", 0, True),
        ]
        for turn in range(1, len(odd_texts) + 1):
            for d, turns in enumerate(dialogues):
                history = turns[:turn]
                kb_json = json.dumps({"row_count": turn // 3, "note": odd_texts[turn - 1]},
                                     ensure_ascii=False)
                model, temperature, max_tokens = configs[(turn + d) % len(configs)]
                for messages in (
                    build_classification_prompt(history),
                    build_extraction_prompt(history),
                    build_extraction_prompt(history, known_kb_json=kb_json),
                ):
                    requests.append(
                        CompletionRequest(model, tuple(messages), temperature, max_tokens)
                    )
        for request in requests:
            assert request_hash(request) == canonical_digest(request)

    def test_hashing_a_growing_dialogue_escapes_each_turn_a_bounded_number_of_times(
        self, monkeypatch
    ):
        # Characters passed through the JSON string escaper while building and
        # hashing both prompts for every turn of one 200-turn dialogue. Hashing
        # the whole history again for every turn escapes about 100 times the
        # dialogue's text.
        turns = [
            Turn(i + 1, Role.SEEKER if i % 2 else Role.PROVIDER, f"turn {i} says {'x' * 40}")
            for i in range(200)
        ]
        text_length = len(serialize_history(turns))
        escaped = []
        escape = json.encoder.encode_basestring

        def counting_escape(text):
            escaped.append(len(text))
            return escape(text)

        monkeypatch.setattr(json.encoder, "encode_basestring", counting_escape)
        for turn in range(1, len(turns) + 1):
            history = turns[:turn]
            for messages in (
                build_classification_prompt(history),
                build_extraction_prompt(history, known_kb_json='{"row_count": 5}'),
            ):
                request_hash(CompletionRequest(messages=tuple(messages)))
        assert 0 < sum(escaped) < 4 * text_length

    def test_threads_sharing_the_prompt_and_hash_memos_get_exact_results(self):
        # More threads than cores, switching often, each growing its own
        # dialogue: a thread may only miss the other's memo entries.
        dialogues = [
            [Turn(i + 1, Role.SEEKER if i % 2 else Role.PROVIDER, f'd{d} t{i} "q"\n')
             for i in range(30)]
            for d in range(8)
        ]
        failures = []

        def grow(turns):
            for turn in range(1, len(turns) + 1):
                history = turns[:turn]
                text = " ".join(f"{t.role.value}: {t.text}" for t in history)
                kb_json = json.dumps({"row_count": turn // 4})
                for messages, content in (
                    (build_classification_prompt(history),
                     f"Input dialogue: {text}\nOutput label: "),
                    (build_extraction_prompt(history, known_kb_json=kb_json),
                     f"Already grounded knowledge: {kb_json}\n"
                     f"Input dialogue: {text}\nOutput JSON: "),
                ):
                    request = CompletionRequest(messages=tuple(messages))
                    if messages[-1].content != content:
                        failures.append(("prompt", turns[0].text, turn))
                    if request_hash(request) != canonical_digest(request):
                        failures.append(("hash", turns[0].text, turn))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(turns,)) for turns in dialogues]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_fixture_cache_replays_dialogue_a_turn_4(self, dialogues_by_id):
        cache = ResponseCache(fixtures.path(fixtures.REPLAY_CACHE))
        history = dialogues_by_id["A"].turns[:4]
        request = CompletionRequest(messages=tuple(build_classification_prompt(history)))
        result = complete(request, CacheMode.REPLAY, cache=cache)
        assert result.text == "Output label: implicit"


class TestLiveTransport:
    def test_record_persists_response(self, tmp_path, monkeypatch):
        calls = []

        def fake_post(url, body, headers):
            calls.append((url, body))
            reply = {"choices": [{"message": {"content": "Output label: explicit"}}]}
            return 200, json.dumps(reply)

        monkeypatch.setattr("convground.llm._post", fake_post)
        cache = ResponseCache(tmp_path / "cache.jsonl")
        request = make_request()
        result = complete(
            request, CacheMode.RECORD, cache=cache, endpoint="http://example.test/v1"
        )
        assert result.text == "Output label: explicit"
        assert result.cached is False
        assert calls[0][0] == "http://example.test/v1/chat/completions"
        assert calls[0][1]["temperature"] == 0
        # Replay now succeeds offline.
        replay = complete(request, CacheMode.REPLAY, cache=cache)
        assert replay.text == result.text
        assert replay.cached is True

    def test_record_from_several_threads_writes_every_record_once(
        self, tmp_path, monkeypatch
    ):
        def fake_post(url, body, headers):
            # Long replies make a torn or interleaved line likely if writes race.
            content = body["messages"][-1]["content"] * 2000
            return 200, json.dumps({"choices": [{"message": {"content": content}}]})

        monkeypatch.setattr("convground.llm._post", fake_post)
        cache = ResponseCache(tmp_path / "cache.jsonl")
        requests = [make_request(f"request {i} ") for i in range(64)]

        def record(chunk):
            for request in chunk:
                complete(request, CacheMode.RECORD, cache=cache, endpoint="http://example.test")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record, args=(requests[i::4],)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert sorted(r["hash"] for r in records) == sorted(map(request_hash, requests))
        reloaded = ResponseCache(tmp_path / "cache.jsonl")
        for request in requests:
            expected = request.messages[-1].content * 2000
            assert reloaded.get(request_hash(request)) == expected

    def test_non_success_status_raises_api_error(self, monkeypatch):
        monkeypatch.setattr(
            "convground.llm._post", lambda *a, **kw: (429, "rate limited")
        )
        with pytest.raises(ApiError, match="429"):
            complete(make_request(), CacheMode.LIVE, endpoint="http://example.test")

    @pytest.mark.parametrize("text", [
        "<html>proxy page</html>",
        "{}",
        '{"choices": []}',
        '{"choices": [{"message": {"content": null}}]}',
        "[1]",
    ])
    def test_success_status_without_a_completion_raises_api_error(
        self, text, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("convground.llm._post", lambda *a, **kw: (200, text))
        cache = ResponseCache(tmp_path / "cache.jsonl")
        with pytest.raises(ApiError, match="status 200"):
            complete(make_request(), CacheMode.RECORD, cache=cache,
                     endpoint="http://example.test")
        assert len(cache) == 0
        assert not (tmp_path / "cache.jsonl").exists()

    def test_transport_failure_retries_then_raises(self, monkeypatch):
        attempts = []

        def failing_post(*args, **kwargs):
            attempts.append(1)
            raise ConnectionError("refused")

        sleeps = []
        monkeypatch.setattr("convground.llm._post", failing_post)
        with pytest.raises(TransportError):
            complete(
                make_request(),
                CacheMode.LIVE,
                endpoint="http://example.test",
                sleep=sleeps.append,
            )
        assert len(attempts) == 3
        assert sleeps == [0.5, 1.0]


def test_post_round_trips_through_a_local_server():
    received = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            received.append((self.path, self.headers["Content-Type"], json.loads(body)))
            status, reply = (429, b"rate limited") if self.path == "/busy" else (200, b"{}")
            self.send_response(status)
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    headers = {"Content-Type": "application/json"}
    try:
        assert _post(base + "/ok", {"temperature": 0}, headers) == (200, "{}")
        assert _post(base + "/busy", {}, headers) == (429, "rate limited")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert received[0] == ("/ok", "application/json", {"temperature": 0})
    with pytest.raises(OSError):
        _post(base + "/ok", {}, headers)
