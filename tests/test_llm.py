import hashlib
import http.server
import json
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
from convground.llm import ApiError, TransportError, _post, request_hash
from convground.prompts import (
    EXTRACTION_EXAMPLES,
    ChatMessage,
    MessageRole,
    build_classification_prompt,
)


def make_request(text="hello"):
    return CompletionRequest(
        messages=(ChatMessage(MessageRole.USER, text),)
    )


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
        def oracle(request):
            canonical = json.dumps(request.wire_body(), sort_keys=True, ensure_ascii=False)
            return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

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
                assert request_hash(request) == oracle(request) == record["hash"]
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
        for request in requests:
            assert request_hash(request) == oracle(request)

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

    def test_non_success_status_raises_api_error(self, monkeypatch):
        monkeypatch.setattr(
            "convground.llm._post", lambda *a, **kw: (429, "rate limited")
        )
        with pytest.raises(ApiError, match="429"):
            complete(make_request(), CacheMode.LIVE, endpoint="http://example.test")

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
