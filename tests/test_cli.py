import argparse
import ast
import hashlib
import http.server
import json
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from convground import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    CompletionRequest,
    CompletionResult,
    GroundedKnowledge,
    build_classification_prompt,
    build_extraction_prompt,
    canonicalize,
    commit,
    fixtures,
    load_dialogues,
    load_gold,
    parse_knowledge_json,
)
from convground.cli import _build_parser, _knowledge_json, main
from convground.llm import request_hash
from convground.prompts import Transcript


CORPUS = str(fixtures.path(fixtures.DIALOGUES))
GOLD = str(fixtures.path(fixtures.GOLD))
PREDICTIONS = str(fixtures.path(fixtures.PREDICTIONS))
CACHE = str(fixtures.path(fixtures.REPLAY_CACHE))


def run(*argv):
    return main(list(argv))


class TestAnnotate:
    def test_replay_reproduces_shipped_predictions(self, tmp_path):
        out = tmp_path / "predictions.jsonl"
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", CACHE, "--mode", "replay", "--out", str(out),
        )
        assert code == 0
        produced = load_gold(out)
        shipped = load_gold(fixtures.path(fixtures.PREDICTIONS))
        assert produced.keys() == shipped.keys()
        for dialogue_id in produced:
            ours = produced[dialogue_id]
            theirs = shipped[dialogue_id]
            assert [(a.turn_index, a.label) for a in ours] == [
                (a.turn_index, a.label) for a in theirs
            ]

    def test_replay_is_deterministic(self, tmp_path):
        outs = []
        for name in ("first.jsonl", "second.jsonl"):
            out = tmp_path / name
            assert run(
                "annotate", "--corpus", CORPUS, "--gold", GOLD,
                "--cache", CACHE, "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for out, jobs in ((serial, "1"), (parallel, "4")):
            assert run(
                "annotate", "--corpus", CORPUS, "--gold", GOLD,
                "--cache", CACHE, "--jobs", jobs, "--out", str(out),
            ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parallel_jobs_match_serial_on_a_recorded_multi_dialogue_corpus(
        self, tmp_path, monkeypatch
    ):
        # Six dialogues of 12 turns whose text needs JSON escaping; replies are
        # recorded from a fake endpoint by four threads, then replayed with
        # the knowledge base fed back into every extraction prompt.
        texts = ['the "area" column', "max\\min", "a\nb", "naïve 🙂", "ok", "\u2028 done"]
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            for d in range(6):
                turns = [
                    {"index": i + 1, "role": ("seeker", "provider")[(i + d) % 2],
                     "text": f"d{d} t{i} {texts[(i + d) % len(texts)]}"}
                    for i in range(12)
                ]
                handle.write(json.dumps({"id": f"D{d}", "turns": turns}) + "\n")

        def fake_post(url, body, headers):
            content = body["messages"][-1]["content"]
            if content.endswith("Output label: "):
                reply = ("implicit", "explicit", "clarification")[len(content) % 3]
            else:
                reply = json.dumps({"row_count": len(content) % 7, "column_info": [
                    {"column_name": f"c{len(content) % 5}", "max_value": len(content)}
                ]})
            return 200, json.dumps({"choices": [{"message": {"content": reply}}]})

        monkeypatch.setattr("convground.llm._post", fake_post)
        cache = tmp_path / "cache.jsonl"
        common = ("annotate", "--corpus", str(corpus), "--cache", str(cache),
                  "--all-turns", "--incremental-kb")
        assert run(*common, "--mode", "record", "--endpoint", "http://example.test",
                   "--jobs", "4", "--out", str(tmp_path / "recorded.jsonl")) == 0
        assert len(cache.read_bytes().splitlines()) == 6 * 12 * 2
        outputs = []
        for jobs in ("1", "4", "1"):
            out = tmp_path / f"replayed_{len(outputs)}.jsonl"
            assert run(*common, "--jobs", jobs, "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == (tmp_path / "recorded.jsonl").read_bytes()

    def test_parallel_jobs_escape_as_much_text_as_serial(self, tmp_path, monkeypatch):
        # Characters passed through the JSON string escaper by three replays
        # in one process: --jobs 1, then --jobs 4 with threads switching every
        # microsecond, then --jobs 1 again. No dialogue's prompt and hash state
        # is evicted by another's, and no run's by the run before it.
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            for d in range(4):
                turns = [
                    {"index": i + 1, "role": ("seeker", "provider")[i % 2],
                     "text": f"dialogue {d} turn {i} says {'x' * 40}"}
                    for i in range(40)
                ]
                handle.write(json.dumps({"id": f"D{d}", "turns": turns}) + "\n")

        def fake_post(url, body, headers):
            content = body["messages"][-1]["content"]
            reply = ("implicit" if content.endswith("Output label: ")
                     else f"{{'row_count': {len(content) % 9}}}")
            return 200, json.dumps({"choices": [{"message": {"content": reply}}]})

        monkeypatch.setattr("convground.llm._post", fake_post)
        cache = tmp_path / "cache.jsonl"
        common = ("annotate", "--corpus", str(corpus), "--cache", str(cache),
                  "--all-turns", "--incremental-kb")
        assert run(*common, "--mode", "record", "--endpoint", "http://example.test",
                   "--out", str(tmp_path / "recorded.jsonl")) == 0
        escaped = []
        escape = json.encoder.encode_basestring

        def counting_escape(text):
            escaped.append(len(text))
            return escape(text)

        monkeypatch.setattr(json.encoder, "encode_basestring", counting_escape)
        counts, interval = [], sys.getswitchinterval()
        for jobs in ("1", "4", "1"):
            escaped.clear()
            sys.setswitchinterval(1e-6 if jobs == "4" else interval)
            try:
                assert run(*common, "--jobs", jobs, "--out", str(tmp_path / "out.jsonl")) == 0
            finally:
                sys.setswitchinterval(interval)
            counts.append(sum(escaped))
        assert counts[0] > 0 and counts[0] == counts[1] == counts[2]

    def test_empty_cache_exits_one_and_lists_misses(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(empty), "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "cache misses:" in err
        assert "dialogue A turn 2" in err
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""

    def test_a_missing_reply_costs_only_its_turn(self, tmp_path, capsys, dialogues_by_id):
        # The classification request of dialogue B turn 14, the last gold turn.
        history = dialogues_by_id["B"].turns[:14]
        messages = tuple(build_classification_prompt(history))
        missing = request_hash(CompletionRequest(messages=messages))
        lines = fixtures.path(fixtures.REPLAY_CACHE).read_text(encoding="utf-8").splitlines(True)
        kept = [line for line in lines if json.loads(line)["hash"] != missing]
        assert len(kept) == len(lines) - 1
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out.jsonl"
        cache.write_text("".join(kept), encoding="utf-8")
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(cache), "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"cache misses:\n  dialogue B turn 14: {missing}\n"
        assert captured.out == f"wrote 10 predictions to {out}\n"
        assert sum(len(v) for v in load_gold(out).values()) == 10
        assert run("evaluate", "--gold", GOLD, "--predictions", str(out)) == 1
        assert capsys.readouterr().err == "error: no prediction for dialogue 'B' turn 14\n"

    def test_incremental_prompts_carry_the_knowledge_committed_so_far(
        self, tmp_path, monkeypatch
    ):
        # Every turn is accepted; the deltas change, repeat and then
        # contradict the knowledge base.
        deltas = ["{'row_count': 500}", "{'row_count': 500}", "{'row_count': 98}"]
        shown = []

        def fake_complete(request, mode, cache=None, endpoint=None, transcript=None):
            content = request.messages[-1].content
            if content.endswith("Output label: "):
                return CompletionResult("Output label: implicit", cached=True)
            shown.append(content.split("\n")[0])
            return CompletionResult(deltas[(len(shown) - 1) % 3], cached=True)

        monkeypatch.setattr("convground.cli.complete", fake_complete)
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(
            Path(CORPUS).read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8"
        )
        cache = tmp_path / "unused.jsonl"  # replay needs a cache file, though none is read
        cache.write_text("", encoding="utf-8")
        assert run(
            "annotate", "--corpus", str(corpus), "--cache", str(cache),
            "--all-turns", "--incremental-kb", "--out", str(tmp_path / "out.jsonl"),
        ) == 0
        expected, kb = [], EMPTY_KNOWLEDGE
        for i in range(len(shown)):
            expected.append("Already grounded knowledge: " + json.dumps(kb.to_json_dict()))
            kb, _, _ = commit(kb, parse_knowledge_json(deltas[i % 3]))
        assert len(shown) > 6 and shown == expected

    def test_unparseable_replies_are_listed_and_other_turns_run(
        self, tmp_path, capsys, monkeypatch
    ):
        records = [
            json.loads(line)
            for line in Path(CACHE).read_text(encoding="utf-8").splitlines()
        ]
        # The first record is the label reply for dialogue A turn 2, record 11
        # the extraction reply for dialogue A turn 17, and the last the
        # extraction reply for the final gold turn of dialogue B.
        records[0]["response"] = "Output label: unsure"
        records[11]["response"] = (
            "Output JSON: {'row_count': 400, 'column_name': 'author', 'distinct_count': 417}"
        )
        records[-1]["response"] = "Output JSON: {'row_count': "
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        parsed = []

        def parse(text):
            parsed.append(text)
            return parse_knowledge_json(text)

        monkeypatch.setattr("convground.cli.parse_knowledge_json", parse)
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(cache), "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[0] == "unparseable replies:"
        assert lines[1].startswith("  dialogue A turn 2: no grounding label found")
        assert lines[2] == (
            "  dialogue A turn 17: column 'author': distinct_count 417 exceeds row_count 400"
        )
        assert lines[3].startswith("  dialogue B turn 14: ")
        assert len(lines) == 4
        # Every gold turn but A 2, whose label failed, reached the extraction parser.
        assert len(parsed) == 10
        assert sum(len(v) for v in load_gold(tmp_path / "out.jsonl").values()) == 8

    def test_hostile_replies_are_listed_as_unparseable(self, tmp_path, capsys):
        records = [
            json.loads(line)
            for line in Path(CACHE).read_text(encoding="utf-8").splitlines()
        ]
        # Record 11 is the extraction reply for dialogue A turn 17, the last
        # one the extraction reply for the final gold turn of dialogue B.
        records[11]["response"] = "Output JSON: [{'column_info': 5}]"
        records[-1]["response"] = "Output JSON: " + "[" * 100_000
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(cache), "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[:2] == [
            "unparseable replies:",
            "  dialogue A turn 17: column_info: expected a list, got 5",
        ]
        assert lines[2].startswith("  dialogue B turn 14: unparseable extraction output")
        assert len(lines) == 3
        assert sum(len(v) for v in load_gold(tmp_path / "out.jsonl").values()) == 9

    def test_a_long_unparseable_reply_is_listed_on_a_short_line(self, tmp_path, capsys):
        records = [
            json.loads(line)
            for line in Path(CACHE).read_text(encoding="utf-8").splitlines()
        ]
        # The last record is the extraction reply for the final gold turn of B.
        records[-1]["response"] = "Output JSON: " + "1+" * 100_000 + "1"
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(cache), "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "unparseable replies:",
            "  dialogue B turn 14: unparseable extraction output at offset 1: '"
            + "1+" * 60 + "'... (200001 characters)",
        ]

    def test_incremental_kb_commits_a_column_that_cannot_merge(self, tmp_path):
        # The second reply's "area" conflicts with "area size" and then meets
        # "area total", whose min_value 5 exceeds the incoming max_value 3.
        replies = [
            {"column_info": [{"column_name": "area size", "max_value": 9},
                             {"column_name": "area total", "min_value": 5}]},
            {"column_name": "area", "max_value": 3},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "bad", "turns": [
            {"index": 1, "role": "provider", "text": "Two area columns."},
            {"index": 2, "role": "provider", "text": "Area is at most 3."},
        ]}) + "\n", encoding="utf-8")
        dialogue = load_dialogues(corpus)[0]
        kb, lines = EMPTY_KNOWLEDGE, []
        for turn, reply in enumerate(replies, start=1):
            history = dialogue.turns[:turn]
            kb_json = json.dumps(kb.to_json_dict(), ensure_ascii=False)
            for messages, response in (
                (build_classification_prompt(history), "Output label: implicit"),
                (build_extraction_prompt(history, known_kb_json=kb_json),
                 f"Output JSON: {json.dumps(reply)}"),
            ):
                key = request_hash(CompletionRequest(messages=tuple(messages)))
                lines.append(json.dumps({"hash": key, "response": response}) + "\n")
            kb, _, _ = commit(kb, parse_knowledge_json(json.dumps(reply)))
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out.jsonl"
        cache.write_text("".join(lines), encoding="utf-8")
        assert run(
            "annotate", "--corpus", str(corpus), "--cache", str(cache),
            "--all-turns", "--incremental-kb", "--out", str(out),
        ) == 0
        predicted = load_gold(out)["bad"]
        assert [a.knowledge_delta for a in predicted] == [
            parse_knowledge_json(json.dumps(reply)) for reply in replies
        ]

    def test_knowledge_json_reuses_the_text_of_the_same_column_objects(self):
        transcript = Transcript()
        kb = EMPTY_KNOWLEDGE
        deltas = [
            {"row_count": 3},
            {"column_info": [{"column_name": "Lüneburg", "values": ["Heide"]},
                             {"column_name": "area", "max_value": 3}]},
            {"column_name": "area", "min_value": 1},
            {"table_domain": "parks", "column_name": "year", "values": [1921]},
        ]
        for delta in deltas:
            before = dict(transcript.column_texts)
            kb = commit(kb, canonicalize(delta))[0]
            text = json.dumps(kb.to_json_dict(), ensure_ascii=False)
            assert _knowledge_json(kb, transcript) == text
            texts = transcript.column_texts
            assert [column for column, _ in texts.values()] == list(kb.column_info)
            for key, (column, text) in texts.items():
                assert key == id(column)
                assert key not in before or before[key][1] is text
        # Only "area" changed in the third delta and only "year" is new in the last.
        assert len(before) == 2 and len(texts) == 3
        # Equal columns are not the same text: 1, 1.0 and True are equal.
        for value in (1, 1.0, True):
            kb = GroundedKnowledge(column_info=[ColumnKnowledge("flag", values=[value])])
            text = json.dumps(kb.to_json_dict(), ensure_ascii=False)
            assert _knowledge_json(kb, transcript) == text
        assert _knowledge_json(EMPTY_KNOWLEDGE, transcript) == "{}"
        assert transcript.column_texts == {}

    def test_torn_final_cache_line_names_file_and_line(self, tmp_path, capsys):
        lines = Path(CACHE).read_text(encoding="utf-8").splitlines(keepends=True)
        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(lines[:-1]) + lines[-1][:40], encoding="utf-8")
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", str(cache), "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: line {len(lines)}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_replay_without_cache_is_an_error(self, tmp_path):
        assert run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--out", str(tmp_path / "out.jsonl"),
        ) == 1

    @pytest.mark.parametrize("mode", ["record", "live"])
    def test_request_modes_without_endpoint_fail_before_any_turn(
        self, mode, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("GROUNDING_LLM_ENDPOINT", raising=False)
        monkeypatch.setattr("convground.cli.complete", pytest.fail)
        out = tmp_path / "out.jsonl"
        assert run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", mode,
            "--cache", str(tmp_path / "cache.jsonl"), "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == (
            f"error: {mode} mode requires --endpoint or GROUNDING_LLM_ENDPOINT\n"
        )
        assert not out.exists()

    def test_record_mode_without_cache_fails_before_any_turn(self, tmp_path, capsys, monkeypatch):
        # Without a cache, record mode would send every request and keep no reply.
        monkeypatch.setattr("convground.cli.complete", pytest.fail)
        out = tmp_path / "out.jsonl"
        assert run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", "record",
            "--endpoint", "http://127.0.0.1:9", "--out", str(out),
        ) == 1
        assert capsys.readouterr().err == "error: record mode requires --cache\n"
        assert not out.exists()

    def test_record_mode_with_an_unwritable_cache_fails_before_any_request(
        self, tmp_path, capsys, monkeypatch
    ):
        # A cache path under a regular file can never be created, and a reply
        # paid for before that shows would be lost.
        monkeypatch.setattr("convground.llm._post", lambda *_: pytest.fail("a request was sent"))
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        cache, out = blocker / "cache.jsonl", tmp_path / "out.jsonl"
        assert run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", "record",
            "--endpoint", "http://127.0.0.1:9", "--cache", str(cache), "--out", str(out),
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_refused_request_is_listed_and_other_turns_run(self, tmp_path, capsys):
        bodies = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                bodies.append(body)
                if len(bodies) == 3:  # the label request of dialogue A turn 4
                    status, content = 500, None
                elif body["messages"][-1]["content"].endswith("Output label: "):
                    status, content = 200, "Output label: explicit"
                else:
                    status, content = 200, "Output JSON: {}"
                reply = (
                    b"server fault" if content is None
                    else json.dumps({"choices": [{"message": {"content": content}}]}).encode()
                )
                self.send_response(status)
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out.jsonl"
        try:
            code = run(
                "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", "record",
                "--endpoint", f"http://127.0.0.1:{server.server_port}",
                "--cache", str(cache), "--out", str(out),
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert code == 1
        assert capsys.readouterr().err == (
            "request errors:\n"
            "  dialogue A turn 4: API returned status 500: server fault\n"
        )
        # 11 gold turns, two requests each; the failed turn sends no extraction
        # request, and every other reply is recorded.
        assert len(bodies) == 21
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 20
        assert sum(len(v) for v in load_gold(out).values()) == 10

    def test_reply_that_is_not_a_completion_is_a_request_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "convground.llm._post", lambda *a, **kw: (200, "<html>proxy page</html>")
        )
        cache, out = tmp_path / "cache.jsonl", tmp_path / "out.jsonl"
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", "record",
            "--endpoint", "http://example.test", "--cache", str(cache), "--out", str(out),
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "request errors:"
        assert len(lines) == 1 + 11
        assert all(
            line.endswith(": API returned status 200: <html>proxy page</html>")
            for line in lines[1:]
        )
        assert not cache.exists()
        assert out.read_text(encoding="utf-8") == ""

    def test_unreachable_endpoint_is_listed_per_turn(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("convground.llm._BACKOFF_SECONDS", 0)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD, "--mode", "live",
            "--endpoint", f"http://127.0.0.1:{port}", "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[0] == "request errors:"
        turns = [(a.split()[1], a.split()[3]) for a in lines[1:]]
        assert turns == [("A", f"{t}:") for t in (2, 4, 6, 8, 11, 17)] + [
            ("B", f"{t}:") for t in (2, 5, 7, 10, 14)
        ]
        assert all("endpoint unreachable after 3 attempts" in line for line in lines[1:])

    def test_gold_turn_selection_cardinality(self, tmp_path):
        out = tmp_path / "out.jsonl"
        run(
            "annotate", "--corpus", CORPUS, "--gold", GOLD,
            "--cache", CACHE, "--out", str(out),
        )
        produced = load_gold(out)
        assert sum(len(v) for v in produced.values()) == 11


class TestGround:
    def test_gold_trace_and_final_knowledge(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run(
            "ground", "--corpus", CORPUS, "--gold", GOLD, "--out", str(out)
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        finals = {
            r["dialogue_id"]: r["final_knowledge"]
            for r in records
            if "final_knowledge" in r
        }
        assert set(finals) == {"A", "B"}
        assert not any("warning" in r for r in records)
        assert finals["A"]["table_domain"] == "media"
        assert finals["A"]["row_count"] == 500
        a_columns = [c["column_name"] for c in finals["A"]["column_info"]]
        assert "category" in a_columns
        assert "type of work" not in a_columns
        assert finals["B"]["row_count"] == 98

    def test_trace_has_one_line_per_turn_plus_final(self, tmp_path, dialogues):
        out = tmp_path / "trace.jsonl"
        run("ground", "--corpus", CORPUS, "--gold", GOLD, "--out", str(out))
        lines = out.read_text().splitlines()
        expected = sum(len(d.turns) for d in dialogues) + len(dialogues)
        assert len(lines) == expected

    def test_unmergeable_acceptance_commits_without_a_warning(self, tmp_path):
        # "area" conflicts with "area size" and folds into "area total", whose
        # min_value exceeds the incoming max_value, so at turn 3 the incoming
        # fields replace the kept ones under the kept name; turn 4 commits.
        roles = ("provider", "provider", "seeker", "provider")
        dialogue = {"id": "bad", "domain": "geography", "turns": [
            {"index": i, "role": role, "text": f"turn {i}"}
            for i, role in enumerate(roles, start=1)
        ]}
        gold = [
            (1, "implicit", {"column_info": [
                {"column_name": "area size", "max_value": 9},
                {"column_name": "area total", "min_value": 5},
            ]}),
            (2, "clarification", {"column_name": "area", "max_value": 3}),
            (3, "explicit", {}),
            (4, "implicit", {"row_count": 50}),
        ]
        corpus, labels, out = (tmp_path / n for n in ("c.jsonl", "g.jsonl", "t.jsonl"))
        corpus.write_text(json.dumps(dialogue) + "\n", encoding="utf-8")
        labels.write_text("".join(
            json.dumps({"dialogue_id": "bad", "turn_index": t, "label": label,
                        "knowledge": knowledge}) + "\n"
            for t, label, knowledge in gold
        ), encoding="utf-8")
        assert run("ground", "--corpus", str(corpus), "--gold", str(labels),
                   "--out", str(out)) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["turn"], r["label"], r.get("warning")) for r in records[:4]] == [
            (1, "implicit", None),
            (2, "clarification", None),
            (3, "explicit", None),
            (4, "implicit", None),
        ]
        assert [(op["op"], op["target"]) for op in records[2]["ops"]] == [
            ("RemoveNode", "column:area size"), ("CreateNode", "column:area"),
        ]
        assert records[4]["final_knowledge"] == {
            "row_count": 50,
            "column_info": [{"column_name": "area total", "max_value": 3}],
        }

    def test_predictions_as_label_source(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run(
            "ground", "--corpus", CORPUS, "--predictions", PREDICTIONS,
            "--out", str(out),
        ) == 0

    def test_missing_label_source_is_an_error(self, tmp_path):
        assert run(
            "ground", "--corpus", CORPUS, "--out", str(tmp_path / "t.jsonl")
        ) == 1


class TestEvaluate:
    def test_summary_printed(self, capsys):
        assert run("evaluate", "--gold", GOLD, "--predictions", PREDICTIONS) == 0
        out = capsys.readouterr().out
        assert "explicit 5/6, implicit 1/3, clarification 0/2, knowledge 8/11" in out
        assert "| A | 2 | C ≠ E | ✗ |" in out

    def test_machine_report_written_to_out(self, tmp_path):
        out = tmp_path / "report.json"
        run(
            "evaluate", "--gold", GOLD, "--predictions", PREDICTIONS,
            "--out", str(out),
        )
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["label_accuracy"] == [6, 11]
        assert report["knowledge_accuracy"] == [8, 11]

    def test_incomplete_predictions_exit_one(self, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        lines = fixtures.path(fixtures.PREDICTIONS).read_text().splitlines()
        partial.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        assert run("evaluate", "--gold", GOLD, "--predictions", str(partial)) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_arguments_exit_one(self):
        assert run("evaluate", "--gold", GOLD) == 1

    @pytest.mark.parametrize("turn_index", [0, -3])
    def test_turn_index_below_one_is_an_error_without_a_corpus(
        self, tmp_path, capsys, turn_index
    ):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({
            "dialogue_id": "A", "turn_index": turn_index, "label": "explicit",
        }) + "\n", encoding="utf-8")
        assert run("evaluate", "--gold", str(gold), "--predictions", str(gold)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {gold}: line 1: turn_index: turns are numbered from 1, got {turn_index}\n"
        )


class TestPrompts:
    def test_prints_both_prompt_kinds(self, capsys):
        assert run("prompts", "--corpus", CORPUS, "A", "2") == 0
        out = capsys.readouterr().out
        assert "# classification" in out
        assert "# extraction" in out
        classification = json.loads(
            out.split("# classification\n")[1].split("# extraction\n")[0]
        )
        assert len(classification) == 8
        assert classification[-1]["content"].endswith("Output label: ")

    def test_unknown_dialogue_exits_one(self, capsys):
        assert run("prompts", "--corpus", CORPUS, "Z", "1") == 1
        assert "unknown dialogue" in capsys.readouterr().err

    def test_out_of_range_turn_exits_one(self):
        assert run("prompts", "--corpus", CORPUS, "A", "99") == 1


@pytest.mark.parametrize("argv, error", [
    (["annotate", "--corpus", CORPUS, "--cache", CACHE], "annotate requires --corpus and --out"),
    (["annotate", "--corpus", CORPUS, "--cache", CACHE, "--out", "{tmp}/p.jsonl"],
     "annotate needs --gold to select turns (or pass --all-turns)"),
    *((["annotate", "--corpus", CORPUS, "--gold", GOLD, "--cache", CACHE,
        "--out", "{tmp}/p.jsonl", "--jobs", jobs], "--jobs must be at least 1")
      for jobs in ("0", "-2")),
    (["ground", "--gold", GOLD, "--out", "{tmp}/t.jsonl"], "ground requires --corpus and --out"),
    (["ground", "--corpus", "{tmp}/torn.jsonl", "--gold", GOLD, "--out", "{tmp}/t.jsonl"],
     "{tmp}/torn.jsonl: line 1: Expecting value: line 1 column 1 (char 0)"),
    (["prompts", "A", "1"], "prompts requires --corpus"),
    (["prompts", "--corpus", "{tmp}/torn.jsonl", "A", "1"],
     "{tmp}/torn.jsonl: line 1: Expecting value: line 1 column 1 (char 0)"),
    (["ground", "--corpus", "{tmp}/latin1.jsonl", "--gold", GOLD, "--out", "{tmp}/t.jsonl"],
     "{tmp}/latin1.jsonl: line 2: 'utf-8' codec can't decode byte 0xe9 in position 11: "
     "invalid continuation byte"),
    (["evaluate", "--gold", "{tmp}/missing.jsonl", "--predictions", PREDICTIONS],
     "{tmp}/missing.jsonl: No such file or directory"),
    (["annotate", "--corpus", CORPUS, "--gold", GOLD, "--cache", CACHE,
      "--out", "{tmp}/missing/p.jsonl"], "{tmp}/missing/p.jsonl: No such file or directory"),
    (["annotate", "--corpus", CORPUS, "--gold", GOLD, "--cache", "{tmp}/missing.jsonl",
      "--mode", "replay", "--out", "{tmp}/p.jsonl"],
     "{tmp}/missing.jsonl: No such file or directory"),
    (["ground", "--corpus", CORPUS, "--gold", GOLD, "--out", "{tmp}/missing/t.jsonl"],
     "{tmp}/missing/t.jsonl: No such file or directory"),
    (["evaluate", "--gold", GOLD, "--predictions", PREDICTIONS, "--out", "{tmp}/missing/r.json"],
     "{tmp}/missing/r.json: No such file or directory"),
], ids=["annotate-no-out", "annotate-no-turns", "annotate-zero-jobs", "annotate-negative-jobs",
        "ground-no-corpus", "ground-torn-corpus", "prompts-no-corpus", "prompts-torn-corpus",
        "ground-corpus-not-utf8", "evaluate-missing-gold", "annotate-out-unwritable",
        "annotate-replay-missing-cache", "ground-out-unwritable", "evaluate-out-unwritable"])
def test_unusable_arguments_exit_one_with_an_error_line(tmp_path, capsys, argv, error):
    (tmp_path / "torn.jsonl").write_text("not json\n", encoding="utf-8")
    (tmp_path / "latin1.jsonl").write_bytes(b'\n{"id": "caf\xe9"}\n')
    assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "p.jsonl").exists() and not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command", ["evaluate", "ground"])
def test_a_turn_annotated_twice_exits_one(tmp_path, capsys, command):
    lines = fixtures.path(fixtures.GOLD).read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines, start=1)
                 if json.loads(line)["dialogue_id"] == "A" and json.loads(line)["turn_index"] == 2)
    gold = tmp_path / "gold.jsonl"
    gold.write_text("\n".join(lines + [lines[first - 1]]) + "\n", encoding="utf-8")
    argv = {
        "evaluate": ["--gold", str(gold), "--predictions", PREDICTIONS],
        "ground": ["--corpus", CORPUS, "--gold", str(gold), "--out", str(tmp_path / "t.jsonl")],
    }[command]
    assert run(command, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {gold}: line {len(lines) + 1}: dialogue 'A' turn 2 "
        f"is already annotated on line {first}\n"
    )


@pytest.mark.parametrize("command", ["annotate", "ground"])
def test_a_dialogue_defined_twice_exits_one(tmp_path, capsys, command):
    # Two copies of one dialogue would be annotated or traced under one id.
    lines = fixtures.path(fixtures.DIALOGUES).read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = ["--corpus", str(corpus), "--gold", GOLD, "--out", str(out)]
    if command == "annotate":
        argv += ["--cache", CACHE]
    assert run(command, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {corpus}: line {len(lines) + 1}: dialogue 'A' is already defined on line 1\n"
    )
    assert not out.exists()


def test_fixture_outputs_keep_their_bytes(tmp_path, capsys):
    # SHA-256 of the evaluation report and grounding traces on the fixtures.
    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    report = tmp_path / "report.json"
    assert run(
        "evaluate", "--corpus", CORPUS, "--gold", GOLD, "--predictions", PREDICTIONS,
        "--out", str(report),
    ) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == (
        "aeace689b954ea8bec5aee68817eba5a3a3f36103212863a9ad65f1d2f326d6d"
    )
    assert sha256(report.read_bytes()) == (
        "e74ca359782ab9238095309bee5bb7c1eca6173fdfbe33d8a22deefe762866c3"
    )
    for source, path, expected in [
        ("--gold", GOLD, "62aa85a121669f33b26a02bc968a1767b20b59d3b6ae7d43b28dccfc0ab17622"),
        ("--predictions", PREDICTIONS,
         "d12cb8689e517b8e6f400c98472d035fc41dc4101b8e6523d2961b5ad7cab457"),
    ]:
        trace = tmp_path / "trace.jsonl"
        assert run("ground", "--corpus", CORPUS, source, path, "--out", str(trace)) == 0
        assert sha256(trace.read_bytes()) == expected


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        run("frobnicate")


def test_cli_import_loads_no_http_client():
    # Offline commands must not pay for importing an HTTP client at start-up,
    # nor serial runs for the thread pool.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import convground.cli; "
        "print(sorted({'requests', 'urllib.request', 'concurrent.futures'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


# The fixture cache's first extraction reply, and that reply with escapes.
PLAIN_REPLY = "Output JSON: {'table_content': 'media dataset'}"
ESCAPED_REPLY = "Output JSON: {'table_content': 'the \\'media\\' data\\\\set\\nof A'}"


def escaped_cache(tmp_path):
    """A copy of the fixture cache whose first extraction reply has escapes."""
    lines = Path(CACHE).read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    (index,) = [i for i, r in enumerate(records) if r["response"] == PLAIN_REPLY]
    lines[index] = json.dumps({**records[index], "response": ESCAPED_REPLY}) + "\n"
    path = tmp_path / "escaped_cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("command, unloaded", [
    # Records are plain slotted classes. convground.literal is imported only
    # where annotate parses a reply that is not JSON, and the package loads
    # no ast for any reply, escaped or not. annotate hashes its requests with
    # the interpreter's built-in SHA-256, so no offline command loads
    # hashlib, which loads OpenSSL.
    (None, {"dataclasses", "inspect", "hashlib", "_hashlib", "ast", "convground.literal"}),
    (["ground", "--corpus", CORPUS, "--gold", GOLD],
     {"hashlib", "_hashlib", "ast", "convground.literal"}),
    (["evaluate", "--corpus", CORPUS, "--gold", GOLD, "--predictions", PREDICTIONS],
     {"hashlib", "_hashlib", "ast", "convground.literal"}),
    (["annotate", "--corpus", CORPUS, "--gold", GOLD, "--cache", CACHE, "--mode", "replay"],
     {"hashlib", "_hashlib", "ast"}),
    (["annotate", "--corpus", CORPUS, "--gold", GOLD, "--cache", escaped_cache, "--mode",
      "replay"], {"hashlib", "_hashlib", "ast"}),
], ids=["import", "ground", "evaluate", "annotate", "annotate-escaped"])
def test_start_up_loads_no_dataclasses_and_commands_no_openssl(tmp_path, command, unloaded):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = None if command is None else [
        str(arg(tmp_path)) if callable(arg) else arg for arg in command
    ] + ["--out", str(tmp_path / "out")]
    code = (
        "import sys; bare = set(sys.modules); import convground.cli; "
        f"{argv!r} is None or convground.cli.main({argv!r}); "
        "print(sorted(set(sys.modules) - bare))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    loaded = ast.literal_eval(out.splitlines()[-1])
    assert "convground.cli" in loaded
    assert unloaded.isdisjoint(loaded)
    if escaped_cache in (command or ()):
        predictions = (tmp_path / "out").read_text(encoding="utf-8")
        assert '"table_content": "the \'media\' data\\\\set\\nof A"' in predictions


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", readme, re.MULTILINE))
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert rows.keys() == subparsers.choices.keys()
    for name, parser in subparsers.choices.items():
        flags = [a.option_strings[-1] for a in parser._actions if a.option_strings]
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        expected = [f for f in flags if f != "--help"] + positionals
        assert re.findall(r"`([^`]+)`", rows[name]) == expected, name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
