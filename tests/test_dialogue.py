import json

import pytest

from convground import (
    CorpusError,
    Dialogue,
    GoldAnnotation,
    GroundingLabel,
    Role,
    Turn,
    load_dialogues,
    load_gold,
)


def test_fixture_corpus_loads(dialogues_by_id):
    a = dialogues_by_id["A"]
    assert len(a.turns) == 17
    assert a.domain_tag == "media"
    assert a.turns[0].role is Role.SEEKER
    assert a.turns[1].text == "Hi, yes sure."
    assert dialogues_by_id["B"].turns[11].text.startswith("The earliest dated park")


def test_empty_file_loads_to_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dialogues(path) == []


def test_gapped_turn_indices_rejected(tmp_path):
    record = {
        "id": "x",
        "domain": "media",
        "turns": [
            {"index": 1, "role": "seeker", "text": "hi"},
            {"index": 3, "role": "provider", "text": "hello"},
        ],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusError, match="gap at index 2"):
        load_dialogues(path)


def test_malformed_record_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\nnot json\n')
    with pytest.raises(CorpusError, match="line 1"):
        load_dialogues(path)


def test_lines_of_only_spaces_tabs_or_carriage_returns_are_skipped(tmp_path):
    turn = {"index": 1, "role": "seeker", "text": "hi"}
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "   \n" + _corpus_line(turn) + "\n\t\n\r\n \t\r \n\n"
        + json.dumps({"id": "y", "turns": [turn]}) + "\r\n\t \n" + "not json\n",
        encoding="utf-8", newline="",
    )
    with pytest.raises(CorpusError, match=r"corpus\.jsonl: line 9: "):
        load_dialogues(path)
    path.write_bytes(path.read_bytes().removesuffix(b"not json\n"))
    assert [d.id for d in load_dialogues(path)] == ["x", "y"]


def test_turn_text_stored_verbatim(dialogues_by_id):
    a = dialogues_by_id["A"]
    assert a.turns[11].text == ":blush:"
    assert "it's a good question" in a.turns[13].text


class TestGold:
    def test_dialogue_a_annotations(self, gold):
        annotations = gold["A"]
        assert [a.turn_index for a in annotations] == [2, 4, 6, 8, 11, 17]
        assert [a.label.letter for a in annotations] == ["E", "I", "I", "C", "E", "E"]

    def test_dialogue_b_annotations(self, gold):
        annotations = gold["B"]
        assert [a.turn_index for a in annotations] == [2, 5, 7, 10, 14]
        assert [a.label.letter for a in annotations] == ["I", "C", "E", "E", "E"]

    def test_eleven_labeled_turns_total(self, gold):
        assert sum(len(v) for v in gold.values()) == 11

    def test_lowercase_label_parses(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        record = {
            "dialogue_id": "A",
            "turn_index": 2,
            "label": "EXPLICIT",
            "knowledge": {"table_domain": "media"},
        }
        path.write_text(json.dumps(record) + "\n")
        loaded = load_gold(path)
        assert loaded["A"][0].label is GroundingLabel.EXPLICIT

    def test_unknown_dialogue_rejected(self, dialogues, tmp_path):
        path = tmp_path / "gold.jsonl"
        record = {
            "dialogue_id": "Z",
            "turn_index": 1,
            "label": "explicit",
            "knowledge": {},
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="unknown dialogue 'Z'"):
            load_gold(path, dialogues)

    def test_invalid_label_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        record = {
            "dialogue_id": "A",
            "turn_index": 2,
            "label": "acknowledged",
            "knowledge": {},
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="unknown grounding label"):
            load_gold(path)

    def test_no_event_never_a_gold_label(self):
        with pytest.raises(ValueError):
            GoldAnnotation(1, GroundingLabel.NO_EVENT)


def test_turn_requires_nonempty_text():
    with pytest.raises(ValueError):
        Turn(1, Role.SEEKER, "")


def test_dialogue_requires_turns():
    with pytest.raises(ValueError):
        Dialogue("x", "media", ())


def _corpus_line(turn):
    return json.dumps({"id": "x", "turns": [turn]})


@pytest.mark.parametrize("line, message", [
    (_corpus_line({"index": 1, "role": 5, "text": "hi"}), "role: expected text, got 5"),
    (_corpus_line({"index": True, "role": "seeker", "text": "hi"}), "got True"),
    (_corpus_line({"index": 1.0, "role": "seeker", "text": "hi"}), "got 1.0"),
    (_corpus_line({"index": 1, "role": "seeker", "text": ["hi"]}), "got \\['hi'\\]"),
    (json.dumps({"id": 5, "turns": [{"index": 1, "role": "seeker", "text": "hi"}]}),
     "dialogue id: expected text, got 5"),
    # A domain that is not text would leave a record that cannot be hashed.
    (json.dumps({"id": "y", "domain": {"a": [1]},
                 "turns": [{"index": 1, "role": "seeker", "text": "hi"}]}),
     "dialogue 'y': domain: expected text, got \\{'a': \\[1\\]\\}"),
    ("[" * 100_000, ""),
    (_corpus_line({"role": "seeker", "text": "hi"}), "missing field 'index'"),
    (json.dumps({"id": "y"}), "missing field 'turns'"),
    (json.dumps({"id": "y", "turns": 5}), "turns: expected a list, got 5"),
    (json.dumps({"id": "y", "turns": {"index": 1}}), "turns: expected a list, got \\{'index': 1\\}"),
    ("[1]", "expected an object, got \\[1\\]"),
], ids=["role", "index-true", "index-float", "text", "id", "domain", "nesting",
        "index-missing", "turns-missing", "turns-int", "turns-object", "record-list"])
def test_ill_typed_corpus_record_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(_corpus_line({"index": 1, "role": "seeker", "text": "hi"}) + "\n" + line + "\n")
    with pytest.raises(CorpusError, match=rf"corpus\.jsonl: line 2: .*{message}"):
        load_dialogues(path)


MISSING = object()  # the field is left out of the record
RECORD = None  # the value replaces the whole record


@pytest.mark.parametrize("field, value, message", [
    ("label", 5, "label: expected text, got 5"),
    ("turn_index", 1.7, "turn_index: expected an integer, got 1.7"),
    ("turn_index", True, "turn_index: expected an integer, got True"),
    ("dialogue_id", ["A"], "dialogue_id: expected text, got \\['A'\\]"),
    ("knowledge", 0, "expected a key/value tree, got int"),
    ("knowledge", False, "expected a key/value tree, got bool"),
    ("knowledge", "", "expected a key/value tree, got str"),
    ("turn_index", MISSING, "missing field 'turn_index'"),
    ("dialogue_id", MISSING, "missing field 'dialogue_id'"),
    ("label", MISSING, "missing field 'label'"),
    (RECORD, "A", "expected an object, got 'A'"),
], ids=["label", "index-float", "index-true", "dialogue-id",
        "knowledge-zero", "knowledge-false", "knowledge-empty-text",
        "index-missing", "dialogue-id-missing", "label-missing", "record-text"])
def test_ill_typed_gold_record_names_file_and_line(tmp_path, field, value, message):
    record = {"dialogue_id": "A", "turn_index": 2, "label": "explicit", "knowledge": {}}
    bad = value if field is RECORD else {**record, field: value}
    if value is MISSING:
        del bad[field]
    path = tmp_path / "gold.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(CorpusError, match=rf"gold\.jsonl: line 2: {message}"):
        load_gold(path)


@pytest.mark.parametrize("record", [
    {"knowledge": None}, {}, {"knowledge": []},
], ids=["null", "absent", "no-fragments"])
def test_knowledge_that_is_null_absent_or_no_fragments_is_empty(tmp_path, record):
    path = tmp_path / "gold.jsonl"
    path.write_text(json.dumps({"dialogue_id": "A", "turn_index": 2, "label": "explicit", **record}))
    assert load_gold(path)["A"][0].knowledge_delta.is_empty


@pytest.mark.parametrize("turn_index", [0, -3])
def test_gold_turn_index_below_one_names_file_and_line(tmp_path, turn_index):
    record = {"dialogue_id": "A", "turn_index": 2, "label": "explicit", "knowledge": {}}
    path = tmp_path / "gold.jsonl"
    path.write_text(
        json.dumps(record) + "\n" + json.dumps({**record, "turn_index": turn_index}) + "\n"
    )
    with pytest.raises(
        CorpusError,
        match=rf"gold\.jsonl: line 2: turn_index: turns are numbered from 1, got {turn_index}",
    ):
        load_gold(path)


@pytest.mark.parametrize("corpus_turns, gold_records, message", [
    ([{"index": 1, "role": "narrator", "text": "hi"}], [],
     r"corpus\.jsonl: line 1: unknown role 'narrator'"),
    ([{"index": 1, "role": "seeker", "text": "hi"}],
     [{"dialogue_id": "x", "turn_index": 2, "label": "explicit"}],
     r"gold\.jsonl: line 1: dialogue 'x' has no turn 2"),
    ([{"index": 1, "role": "seeker", "text": "hi"}],
     [{"dialogue_id": "x", "turn_index": 1, "label": "explicit"},
      {"dialogue_id": "x", "turn_index": 1, "label": "implicit"}],
     r"gold\.jsonl: line 2: dialogue 'x' turn 1 is already annotated on line 1"),
    ([{"index": 1, "role": "seeker", "text": "hi"}, {"index": 1, "role": "seeker", "text": "yo"}],
     [], r"corpus\.jsonl: line 2: dialogue 'x' is already defined on line 1"),
    ([5], [], r"corpus\.jsonl: line 1: turns\[0\]: expected an object, got 5"),
    ([{"index": 1, "role": "seeker", "text": "hi"}], [[1]],
     r"gold\.jsonl: line 1: expected an object, got \[1\]"),
], ids=["unknown-role", "turn-beyond-dialogue", "turn-annotated-twice", "dialogue-defined-twice",
        "turn-not-an-object", "gold-record-not-an-object"])
def test_inconsistent_record_names_file_and_line(tmp_path, corpus_turns, gold_records, message):
    # One corpus line, dialogue "x", per turn.
    corpus, gold = tmp_path / "corpus.jsonl", tmp_path / "gold.jsonl"
    corpus.write_text("".join(_corpus_line(turn) + "\n" for turn in corpus_turns))
    gold.write_text("".join(json.dumps(r) + "\n" for r in gold_records))
    with pytest.raises(CorpusError, match=message):
        load_gold(gold, load_dialogues(corpus))
