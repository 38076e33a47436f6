import collections
import gc
import hashlib
import http.server
import json
import random
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
from convground import cacheline, literal, llm
from convground.dialogue import Role, Turn
from convground.llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_MODEL,
    DEFAULT_TEMPERATURE,
    ApiError,
    KnowledgeParseError,
    LabelParseError,
    TransportError,
    _post,
    request_hash,
)
from convground.prompts import (
    EXTRACTION_EXAMPLES,
    ChatMessage,
    MessageRole,
    Transcript,
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

    def test_long_reply_is_quoted_by_a_prefix_and_its_length(self):
        with pytest.raises(LabelParseError) as info:
            parse_label("no idea " * 25_000)
        message = str(info.value)
        assert message == (
            "no grounding label found in " + repr("no idea " * 15) + "... (200000 characters)"
        )


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

    @pytest.mark.parametrize("raw, expected", [
        ("{'column_names': ['b']}, {'column_names': ['c']}",
         {"column_info": [{"column_name": "b"}, {"column_name": "c"}]}),
        ("{'column_name': 'a'}, {'column_names': ['b']}",
         {"column_info": [{"column_name": "a"}, {"column_name": "b"}]}),
        ("{'column_name': 'a', 'row_count': 3}, {'column_name': 'b'}",
         {"row_count": 3, "column_info": [{"column_name": "a"}, {"column_name": "b"}]}),
    ], ids=["two-name-lists", "entry-then-name-list", "scalar-beside-entry"])
    def test_a_sequence_reads_its_fragments_in_order(self, raw, expected):
        assert parse_knowledge_json(raw).to_json_dict() == expected
        assert parse_knowledge_json(f"[{raw}]").to_json_dict() == expected

    @pytest.mark.parametrize("raw, twin", [
        ("{'column_name': 'nullable flag', 'description': 'share of null entries'}",
         '{"column_name": "nullable flag", "description": "share of null entries"}'),
        ("{'column_name': 'it\\'s \"null\"', 'description': null, 'values': ['null', \"'null'\"]}",
         '{"column_name": "it\'s \\"null\\"", "description": null, "values": ["null", "\'null\'"]}'),
    ], ids=["plain", "escapes-and-mixed-quotes"])
    def test_null_inside_a_quoted_string_stays_text(self, raw, twin):
        k = parse_knowledge_json(raw)
        assert k == parse_knowledge_json(twin)
        assert "null" in k.column_info[0].column_name

    def test_code_fences_stripped(self):
        k = parse_knowledge_json('```json\n{"row_count": 98}\n```')
        assert k.row_count == 98

    @pytest.mark.parametrize("raw", [
        '```json\r\n{"row_count": 3}\r\n```',
        '```json \n{"row_count": 3}\n```',
        "```python\t \r\n{'row_count': 3}  \r\n```\r\n",
    ], ids=["crlf", "blank-after-tag", "literal-blanks-and-crlf"])
    def test_a_fence_line_may_end_in_blanks_and_a_carriage_return(self, raw):
        assert parse_knowledge_json(raw).row_count == 3

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

    @pytest.mark.parametrize("raw, message", [
        ("[{'column_info': 5}]", "column_info: expected a list, got 5"),
        ("[{'column_info': {'a': 1}}]", "column_info: expected a list, got {'a': 1}"),
        ("[" * 100_000, "unparseable extraction output"),
        ('{"row_count": ' + "1" * 5_000 + "}", "unparseable extraction output"),
        ("{[1]: 2}", "offset 1"),
        ("{1: 2, 'a': 3}", "unknown key 1"),
        ("1+" * 100_000 + "1", "offset 1"),
        ("-" * 100_000 + "1", "offset 0"),
        ("Output JSON:  ", "empty extraction output"),
        ("```json\n```", "empty extraction output"),
    ], ids=["list-of-int", "list-of-dict", "deep-json", "long-integer",
            "unhashable-key", "mixed-keys", "deep-expression", "deep-unary",
            "empty-after-prefix", "empty-fence"])
    def test_hostile_reply_raises_a_parse_error(self, raw, message):
        with pytest.raises(KnowledgeParseError, match=message):
            parse_knowledge_json(raw)

    @pytest.mark.parametrize("raw, start, end", [
        ("1+" * 100_000 + "1", "unparseable extraction output at offset 1: '1+1+",
         "1+'... (200001 characters)"),
        ("[1, " + "{" * 50_000, "unparseable extraction output at offset 5: '[1, {{",
         "{'... (50004 characters)"),
        ("[" + "7" * 4_000 + "]", "expected objects, got 777", "7... (4000 characters)"),
        ("[{'column_info': {'a': '" + "y" * 10_000 + "'}}]",
         "column_info: expected a list, got {'a': 'yyy", "y... (10009 characters)"),
        ('{"column_names": "' + "x" * 100_000 + '"}',
         "column_names: expected a list, got 'xxx", "x'... (100000 characters)"),
        ('{"row_count": "' + "1" * 100_000 + '"}', "row_count: cannot coerce '111",
         "1'... (100000 characters) to an integer"),
        ('{"' + "k" * 500 + '": 1}', "unknown key 'kkk", "k'... (500 characters)"),
    ], ids=["deep-expression", "unclosed", "list-of-int", "dict-column-info",
            "long-column-names", "long-row-count", "long-unknown-key"])
    def test_long_reply_is_quoted_by_a_prefix_and_its_length(self, raw, start, end):
        # The length is the reply's or the value's own, not that of its repr.
        with pytest.raises(KnowledgeParseError) as info:
            parse_knowledge_json(raw)
        message = str(info.value)
        assert message.startswith(start)
        assert message.endswith(end)
        assert len(message) < 200

    def test_threads_reading_python_literal_replies_at_once_all_succeed(self):
        # A literal reply that json cannot read once translated (here, for
        # its escaped quotes) is read by ast.literal_eval. Threads switch
        # every microsecond while the collector runs the finalizers (Python
        # code) of garbage cycles, so a thread is often interrupted inside
        # the AST constructor while another one enters it.
        raw = "{'column_info': [" + ", ".join(
            f"{{'column_name': 'c{i}\\'s', 'values': ['a', 'b'], 'max_value': {i}}}"
            for i in range(20)
        ) + "]}"
        assert literal.translated(raw) is None
        expected = parse_knowledge_json(raw)
        assert expected.column_info[0].column_name == "c0's"

        class Cycle:
            def __del__(self):
                pass

        failures = []

        def read():
            for _ in range(60):
                cycle = Cycle()
                cycle.me = cycle
                del cycle
                try:
                    if parse_knowledge_json(raw) != expected:
                        failures.append("wrong result")
                except SystemError as exc:
                    failures.append(exc)

        threshold, interval = gc.get_threshold(), sys.getswitchinterval()
        gc.set_threshold(50, 5, 5)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*threshold)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# Pieces of Python-literal replies: tokens that json reads once translated,
# and tokens it must leave to ast.literal_eval, which reads some and rejects
# the rest.
_LITERAL_ATOMS = (
    "None", "True", "False", "null", "0", "-0", "12", "-7", "3.5", "-0.0", "1e5", "2E-3",
    "1e400", "-1E+02", "''", '""', "'a'", '"b"', "'it\"s'", '"it\'s"', "'null'", "'None'",
    "'[{'", "'}]: ,'", "'日本 🙂'", "'area size'", "'\u2028'", "'\ufeff'", "'\xa0'", "3", "'3'",
)
_FOREIGN_ATOMS = (
    "true", "false", "NaN", "Infinity", "-Infinity", "1_0", "01", "00", ".5", "1.", "+1",
    "- 1", "--1", "1j", "1+2j", "0x1F", "b'x'", "r'x'", "u'x'", "f'x'", "rb'x'",
    "'a\\'b'", "'a\\nb'", "'\\u00e9'", "'tab\there'", "'cr\rx'", "'\x00'", "'\x7f'",
    "'\x85'", "'\ud800'", "'\udfff'", "'''t'''", '"""t"""', "'a' 'b'", "'a''b'", "()",
    "(1,)", "(1, 2)", "{1, 2}", "{'a'}", "...", "\x0c", "\xa0", "١", "1 2", "[1][0]",
    "None1", "nullx", "TrueFalse", "9" * 4400, "'unclosed", '"unclosed', "# c\n1",
)
_LITERAL_KEYS = (
    "table_domain", "row_count", "column_count", "column_info", "column_names",
    "column_name", "description", "values", "distinct_count", "min_value", "max_value",
)
_SEPARATORS = (", ", ",", ",\n", " , ", ",\t", ",\r\n", ",\r", "\n")


def _literal_value(rng: random.Random, depth: int) -> str:
    shape = rng.random()
    if depth > 3 or shape < 0.35:
        return rng.choice(_FOREIGN_ATOMS if rng.random() < 0.1 else _LITERAL_ATOMS)
    sep = rng.choice(_SEPARATORS[:-1])
    items = range(rng.randint(0, 4))
    trailing = rng.choice(("", "", "", ",")) if items else ""
    if shape < 0.75:
        quote = rng.choice("'\"")
        keys = [quote + rng.choice(_LITERAL_KEYS) + quote if rng.random() < 0.97
                else rng.choice(("1", "None", "(1, 2)", "'extra'")) for _ in items]
        body = sep.join(key + rng.choice((": ", ":", " :\n")) + _literal_value(rng, depth + 1)
                        for key in keys)
        return "{" + body + trailing + "}"
    brackets = rng.choice(("[]", "[]", "()", "{}"))
    body = sep.join(_literal_value(rng, depth + 1) for _ in items)
    return brackets[0] + body + trailing + brackets[1]


def _literal_reply(rng: random.Random) -> str:
    shape = rng.random()
    if shape < 0.25:  # a well-formed tree, so that many readings reach canonicalize
        columns = [{"column_name": rng.choice(("area", "area size", "2020", "rank")),
                    "max_value": rng.choice((3, 9.5, None)),
                    "values": rng.sample(["a", "it's", 'say "hi"', 7, "None"], 2)}
                   for _ in range(rng.randint(0, 3))]
        text = repr({"row_count": rng.choice((5, None)), "column_info": columns})
        text = text.replace("None", "null") if rng.random() < 0.5 else text
    elif shape < 0.9:
        text = _literal_value(rng, 0)
    else:
        depth = rng.choice((98, 99, 100, 101, 198, 199, 200, 250))
        text = "[" * depth + rng.choice(("{'row_count': 1}", "'a'", "null")) + "]" * depth
    if rng.random() < 0.2:  # a bare sequence, on one line or several
        text = rng.choice(_SEPARATORS).join((text, _literal_value(rng, 1)))
    return text


def _reading(raw: str) -> str:
    try:
        return repr(parse_knowledge_json(raw))
    except KnowledgeParseError as exc:
        return f"error: {exc}"


def test_literal_replies_read_through_json_as_through_ast(monkeypatch):
    # Each reply's knowledge, or error message, is the one that reading it
    # with ast.literal_eval alone gives.
    rng = random.Random(22)
    replies = [_literal_reply(rng) for _ in range(6000)]
    translated = sum(literal.translated(raw) is not None for raw in replies)
    readings = [_reading(raw) for raw in replies]
    monkeypatch.setattr(literal, "translated", lambda text: None)
    differ = [(raw, reading, other) for raw, reading in zip(replies, readings)
              for other in (_reading(raw),) if other != reading]
    assert differ[:3] == []
    assert translated > 2000
    assert sum(not r.startswith("error") for r in readings) > 1000


def test_max_tokens_must_be_positive():
    with pytest.raises(ValueError, match="max_tokens must be positive"):
        CompletionRequest(max_tokens=0)


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

    def test_a_writable_check_makes_the_directory_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "new" / "dir" / "cache.jsonl"
        cache = ResponseCache(path)
        cache.check_writable()
        assert path.parent.is_dir() and not path.exists()
        request = make_request()
        cache.put(request_hash(request), request, "Output label: explicit")
        assert ResponseCache(path).get(request_hash(request)) == "Output label: explicit"
        cache.check_writable()  # an existing file is kept as it is
        assert len(path.read_bytes().splitlines()) == 1

    def test_a_writable_check_under_a_regular_file_raises(self, tmp_path):
        (tmp_path / "FILE").write_text("")
        with pytest.raises(OSError):
            ResponseCache(tmp_path / "FILE" / "cache.jsonl").check_writable()

    def test_replay_miss_names_hash(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        request = make_request()
        with pytest.raises(CacheMissError) as excinfo:
            complete(request, CacheMode.REPLAY, cache=cache)
        assert excinfo.value.request_hash == request_hash(request)

    def test_a_missing_file_reads_as_empty_only_when_allowed(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        assert len(ResponseCache(path)) == 0
        with pytest.raises(CorpusError, match=r"cache\.jsonl: No such file or directory"):
            ResponseCache(path, missing_ok=False)

    def test_record_without_response_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"hash": "a", "response": "x"}\n\n{"hash": "b"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r"cache\.jsonl: line 3: .*'response'"):
            ResponseCache(path)

    @pytest.mark.parametrize("record", [
        '{"hash": "b", "response": 5}', '{"hash": "b", "response": null}',
        '{"hash": 7, "response": "x"}',
    ], ids=["numeric-response", "null-response", "numeric-hash"])
    def test_record_with_a_field_that_is_not_text_names_file_and_line(self, tmp_path, record):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"hash": "a", "response": "x"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"cache\.jsonl: line 2: .*'response'"):
            ResponseCache(path)

    def test_too_deeply_nested_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"hash": "a", "response": "x"}\n' + "[" * 100_000 + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"cache\.jsonl: line 2: "):
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
        # text that JSON escapes or that is not ASCII. Each dialogue's prompts
        # are built and hashed with its own transcript as they grow.
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
        transcripts = [Transcript() for _ in dialogues]
        for turn in range(1, len(odd_texts) + 1):
            for d, turns in enumerate(dialogues):
                history, transcript = turns[:turn], transcripts[d]
                kb_json = json.dumps({"row_count": turn // 3, "note": odd_texts[turn - 1]},
                                     ensure_ascii=False)
                model, temperature, max_tokens = configs[(turn + d) % len(configs)]
                for messages in (
                    build_classification_prompt(history, transcript),
                    build_extraction_prompt(history, transcript=transcript),
                    build_extraction_prompt(history, kb_json, transcript),
                ):
                    request = CompletionRequest(model, tuple(messages), temperature, max_tokens)
                    assert request_hash(request, transcript) == canonical_digest(request)
                    requests.append(request)
        # Every request without state, and with one state that sees them all.
        shared = Transcript()
        for request in requests:
            assert request_hash(request) == request_hash(request, shared) == (
                canonical_digest(request)
            )

    def test_hash_falls_back_to_hashlib_with_the_same_digests(self, monkeypatch):
        # The interpreter's built-in SHA-256 module hashes unless the build
        # has none; then hashlib does, and every digest above stays the same.
        assert llm._sha256().__module__ in ("_sha2", "_sha256")
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        llm._sha256.cache_clear()
        try:
            assert llm._sha256() is hashlib.sha256
            self.test_hash_equals_the_canonical_body_digest()
        finally:
            llm._sha256.cache_clear()

    def test_hashing_a_growing_dialogue_escapes_each_turn_a_bounded_number_of_times(
        self, monkeypatch
    ):
        # Characters passed through the JSON string escaper while building and
        # hashing both prompts for every turn of one 200-turn dialogue, with
        # the dialogue's transcript. Hashing the whole history again for every
        # turn escapes about 100 times the dialogue's text.
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
        transcript = Transcript()
        for turn in range(1, len(turns) + 1):
            history = turns[:turn]
            for messages in (
                build_classification_prompt(history, transcript),
                build_extraction_prompt(history, '{"row_count": 5}', transcript),
            ):
                request_hash(CompletionRequest(messages=tuple(messages)), transcript)
        assert 0 < sum(escaped) < 4 * text_length

    def test_threads_each_holding_a_transcript_get_exact_results(self):
        # More threads than cores, switching often, each growing its own
        # dialogue with its own transcript.
        dialogues = [
            [Turn(i + 1, Role.SEEKER if i % 2 else Role.PROVIDER, f'd{d} t{i} "q"\n')
             for i in range(30)]
            for d in range(8)
        ]
        failures = []

        def grow(turns):
            transcript = Transcript()
            for turn in range(1, len(turns) + 1):
                history = turns[:turn]
                text = " ".join(f"{t.role.value}: {t.text}" for t in history)
                kb_json = json.dumps({"row_count": turn // 4})
                for messages, content in (
                    (build_classification_prompt(history, transcript),
                     f"Input dialogue: {text}\nOutput label: "),
                    (build_extraction_prompt(history, kb_json, transcript),
                     f"Already grounded knowledge: {kb_json}\n"
                     f"Input dialogue: {text}\nOutput JSON: "),
                ):
                    request = CompletionRequest(messages=tuple(messages))
                    if messages[-1].content != content:
                        failures.append(("prompt", turns[0].text, turn))
                    if request_hash(request, transcript) != canonical_digest(request):
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


def plain_load(path):
    """The responses of the cache at ``path`` as a plain loader reads them
    (``json.loads`` per line, then the three checks), or its error text."""
    responses = {}
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if line.isspace():
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                return f"{path}: line {line_no}: {exc}"
            if not (isinstance(record, dict) and isinstance(record.get("hash"), str)
                    and isinstance(record.get("response"), str)):
                return (f"{path}: line {line_no}: expected an object with text "
                        "'hash' and 'response'")
            responses[record["hash"]] = record["response"]
    return responses


def cache_load(path):
    """What ``ResponseCache`` holds after loading ``path``, or its error text."""
    try:
        cache = ResponseCache(path)
    except CorpusError as exc:
        return str(exc)
    return {key: cache.get(key) for key in cache._responses}


ESCAPED_TEXTS = ['say "hi"', "back\\slash", "two\nlines", "tab\there", "sep\u2028x",
                 "naïve 数据", "emoji 🙂", "plain words"]


def writer_lines(tmp_path, dialogues=2, turns=4):
    """The lines that ``ResponseCache.put`` writes for ``dialogues`` whose
    histories grow a turn at a time: per turn a classification and an
    incremental extraction request, with texts that JSON must escape."""
    path = tmp_path / "written.jsonl"
    cache = ResponseCache(path)
    for d in range(dialogues):
        history = []
        for t in range(1, turns + 1):
            text = f"{d}{t} {ESCAPED_TEXTS[(d + t) % len(ESCAPED_TEXTS)]} and more"
            history.append(Turn(t, Role.SEEKER if t % 2 else Role.PROVIDER, text))
            kb = json.dumps({"row_count": t // 2, "note": text}, ensure_ascii=False)
            for messages in (build_classification_prompt(history),
                             build_extraction_prompt(history, kb)):
                request = CompletionRequest(messages=tuple(messages))
                cache.put(request_hash(request), request, f'Output "{d}{t}" \\ é')
    return file_lines(path)


def file_lines(path):
    """The lines of ``path``, each with its newline; ``str.splitlines`` would
    also split at the U+2028 that JSON leaves unescaped."""
    return [line + "\n" for line in path.read_text(encoding="utf-8").split("\n")[:-1]]


def spans(line):
    """Where a writer line's hash, head, last message, content, tail and
    response begin, and where the line ends."""
    last = line.rfind('{"role": "')
    return [0, line.index(', "request": '), last, line.index(', "content": "', last),
            line.rfind('"}], "temperature"') + 1, line.rfind(', "response": "'),
            len(line.rstrip("\n"))]


INSERTED = ['"', "\\", "{", "}", "[", "]", ",", ":", " ", "\u2028", "\x00", "\x1f", "\t",
            "\r", "\x0c", "é", "数", "🙂", "x", "0", "\\u2028", "\\\\", '\\"', "\\x", "\\u12",
            "\\ud800", "\\ud83d\\ude42", "null", "1e999", '"role": "', '"response": "']


def mutated(rng, line):
    """``line`` (a writer line) with one seeded fault, as UTF-8 bytes."""
    body, end = line.rstrip("\n"), line[len(line.rstrip("\n")):]
    bounds = spans(line)
    k = rng.randrange(len(bounds) - 1)
    pos = rng.randint(bounds[k], bounds[k + 1])
    kind = rng.randrange(10)
    if kind == 0:
        body = body[:pos] + body[pos + 1:]
    elif kind in (1, 2):
        body = body[:pos] + rng.choice(INSERTED) + body[pos + kind - 1:]
    elif kind == 3:
        end = rng.choice([" ", "\t", "\r", "\x0c", "  \r", "\u2028"]) + end
    elif kind == 4:
        record = json.loads(body)
        order = rng.choice([["response", "hash", "request"], ["request", "hash", "response"],
                            ["hash", "response", "request"]])
        if rng.random() < 0.5:
            record["request"] = dict(sorted(record["request"].items()))
        else:
            record["request"]["messages"][-1] = dict(
                reversed(record["request"]["messages"][-1].items()))
        body = json.dumps({key: record[key] for key in order}, ensure_ascii=False)
    elif kind == 5:
        record = json.loads(body)
        where = rng.choice([record["request"], record["request"]["messages"][-1],
                            record["request"]["messages"][0]])
        where[rng.choice(["response", "role", "hash"])] = rng.choice(["x", 5, None, {"hash": "y"}])
        body = json.dumps(record, ensure_ascii=False)
    elif kind == 6:
        body = '{"hash": "duplicate", ' + body[1:]
    elif kind == 7:
        deep = "[" * 100_000 + ("]" * 100_000 if rng.random() < 0.5 else "")
        body = body[:pos] + deep + body[pos:]
    elif kind == 8:
        # Brackets on either side of the checker's bracket cap, nested two deep.
        wide = "[" + ", ".join(["[]"] * rng.randint(30, 80)) + "]"
        body = body.replace('"gpt-3.5-turbo-1106"', wide, 1) if rng.random() < 0.5 else (
            body.replace('"max_tokens": 256', '"max_tokens": ' + wide, 1))
    else:
        data = (body + end).encode("utf-8")
        at = len(body[:pos].encode("utf-8"))
        return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xe6\x95", b"\xed\xa0\x80"]) + data[at:]
    return (body + end).encode("utf-8")


class TestCacheLines:
    """``ResponseCache`` loads exactly what a plain ``json.loads`` per line
    loads, though :mod:`convground.cacheline` checks each span of a writer
    line once."""

    def test_the_fixture_cache_loads_as_a_plain_loader_loads_it(self):
        path = fixtures.path(fixtures.REPLAY_CACHE)
        assert cache_load(path) == plain_load(path)
        assert len(plain_load(path)) == 22

    def test_caches_written_by_put_load_as_a_plain_loader_loads_them(self, tmp_path):
        lines = writer_lines(tmp_path, dialogues=3, turns=6)
        path = tmp_path / "cache.jsonl"
        for text in ("".join(lines), "".join(lines).rstrip("\n"), "\n\n".join(lines)):
            path.write_text(text, encoding="utf-8")
            assert cache_load(path) == plain_load(path)
            assert len(cache_load(path)) == len(lines)

    def test_fuzzed_writer_lines_load_as_a_plain_loader_loads_them(self, tmp_path):
        rng = random.Random(29)
        lines = writer_lines(tmp_path)
        path = tmp_path / "cache.jsonl"
        outcomes = collections.Counter()
        for _ in range(2_000):
            at = rng.randrange(2, len(lines))
            line = mutated(rng, lines[at])
            if rng.random() < 0.3 and line.endswith(b"\n"):
                try:
                    line = mutated(rng, line.decode("utf-8"))
                except (ValueError, RecursionError):  # not UTF-8 or not JSON
                    pass
            data = "".join(lines[:at]).encode("utf-8") + line + "".join(
                lines[at + 1:at + 3]).encode("utf-8")
            path.write_bytes(data)
            expected = plain_load(path)
            assert cache_load(path) == expected, line[:300]
            outcomes[isinstance(expected, dict)] += 1
        # The faults leave many lines loadable and reject many others.
        assert min(outcomes.values()) > 400, outcomes

    BROKEN = {
        # One writer line broken in one span; the line before it has the same
        # head and tail, so each span that is checked once is already kept.
        "head": ('"}, {"role": "user"', '"} {"role": "user"', "Expecting ',' delimiter"),
        "role": ('{"role": "user"', '{"role": "us\\er"', "Invalid \\escape"),
        "content escape": ("\\nOutput label: ", "\\qOutput label: ", "Invalid \\escape"),
        "content escape in the repeated history": (
            "Input dialogue: seeker: 01", "Input dialogue: seeker: \\01", "Invalid \\escape"),
        "raw control character in the content": (
            "Output label: ", "Output\x01label: ", "Invalid control character"),
        "tail": ('"max_tokens": 256}', '"max_tokens": 256]', "Expecting ',' delimiter"),
        "response": ('"response": "Output', '"response": "\\Output', "Invalid \\escape"),
    }

    @pytest.mark.parametrize("span", BROKEN)
    def test_a_request_broken_in_one_span_is_still_rejected(self, tmp_path, span):
        old, new, message = self.BROKEN[span]
        first, _, second = writer_lines(tmp_path, dialogues=1, turns=2)[:3]
        assert second.count(old) >= 1
        broken = second[::-1].replace(old[::-1], new[::-1], 1)[::-1]  # the last one
        path = tmp_path / "cache.jsonl"
        path.write_text(first + broken, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(broken)
        assert str(decoded.value).startswith(message)
        with pytest.raises(CorpusError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value) == f"{path}: line 2: {decoded.value}"

    def test_a_scan_resumes_only_outside_an_escape(self, tmp_path):
        # The second line repeats the first up to some point of its content,
        # where it closes the string. Cut inside an escape, the second line is
        # not JSON, though a scan that resumed there would read it as closed.
        path = tmp_path / "cache.jsonl"
        for pad in range(4):
            lines = []
            request = CompletionRequest(messages=(
                ChatMessage(MessageRole.SYSTEM, "s"),
                ChatMessage(MessageRole.USER, "y" * pad + 'x\\ "q" ' * 20 + "Output label: "),
            ))
            ResponseCache(path).put(request_hash(request), request, "r")
            first = path.read_text(encoding="utf-8")
            body = first.rindex('"content": "') + len('"content": "')
            end = first.index('"}], ', body)
            for cut in range(body, end):
                path.write_text(first + first[:cut] + first[end:], encoding="utf-8")
                assert cache_load(path) == plain_load(path), first[body:cut]

    @pytest.mark.parametrize("beyond", [0, 1], ids=["at-the-cap", "beyond-the-cap"])
    def test_a_span_with_many_brackets_is_decoded_in_full(self, tmp_path, beyond):
        # A head or tail nested about as deep as the interpreter's recursion
        # limit allows may decode on its own and not in its line.
        line = writer_lines(tmp_path, dialogues=1, turns=1)[0]
        head = line[line.index('"request": ') + len('"request": '):line.rfind('{"role": "')]
        for old, has in (('"model": "gpt-3.5-turbo-1106"', head.count("{") + head.count("[")),
                         ('"max_tokens": 256', 0)):
            more = cacheline._MAX_BRACKETS - has + beyond
            broad = line.replace(old, old[:old.index(":") + 2] + "[" * more + "]" * more)
            assert (cacheline.Reader().checked(broad) is None) is bool(beyond)
            (tmp_path / "cache.jsonl").write_text(broad, encoding="utf-8")
            assert cache_load(tmp_path / "cache.jsonl") == plain_load(tmp_path / "cache.jsonl")

    def test_lines_the_package_writes_take_the_checked_path(self, tmp_path):
        for lines in (file_lines(fixtures.path(fixtures.REPLAY_CACHE)), writer_lines(tmp_path)):
            reader = cacheline.Reader()
            for line in lines:
                record = json.loads(line)
                assert reader.checked(line) == (record["hash"], record["response"])

    def test_the_memo_keeps_a_bounded_number_of_spans(self, tmp_path):
        # 1,000 lines, each with its own head and its own tail.
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        for i in range(1_000):
            request = CompletionRequest(
                messages=(ChatMessage(MessageRole.SYSTEM, f"system {i}"),
                          ChatMessage(MessageRole.USER, f"turn {i} " * 10)),
                max_tokens=i + 1,
            )
            cache.put(request_hash(request), request, f"reply {i}")
        reader, longest = cacheline.Reader(), 0
        for line in file_lines(path):
            assert reader.checked(line) is not None
            assert len(reader.heads) <= 8 and len(reader.tails) <= 8
            longest = max(longest, len(line))
        kept = [*reader.heads, *reader.heads.values(), *reader.tails]
        assert sum(map(len, kept)) <= 24 * longest
        assert cache_load(path) == plain_load(path) and len(plain_load(path)) == 1_000


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
