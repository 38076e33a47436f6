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
