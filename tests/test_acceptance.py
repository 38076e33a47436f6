"""End-to-end acceptance suite.

Each test exercises one acceptance criterion against the shipped fixtures
and prints a single PASS/FAIL line so the whole gate can be read at a
glance with ``pytest tests/test_acceptance.py -v -s``.
"""

import json

import pytest

from convground import (
    EMPTY_KNOWLEDGE,
    CompletionRequest,
    GroundingLabel,
    GroundingState,
    assess,
    build_classification_prompt,
    build_extraction_prompt,
    canonicalize,
    commit,
    facts,
    fixtures,
    knowledge_equivalent,
    knowledge_from_facts,
    parse_knowledge_json,
    parse_label,
    process_dialogue,
    score,
    step,
    terms_equivalent,
)
from convground.assessment import Verdict
from convground.prompts import EXTRACTION_EXAMPLES


def _verdict(name, check):
    try:
        check()
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_criterion_1_label_confusion(gold, predictions):
    def check():
        report = score(gold, predictions)
        assert report.per_label_accuracy[GroundingLabel.EXPLICIT] == (5, 6)
        assert report.per_label_accuracy[GroundingLabel.IMPLICIT] == (1, 3)
        assert report.per_label_accuracy[GroundingLabel.CLARIFICATION] == (0, 2)
        assert report.label_accuracy == (6, 11)

    _verdict("criterion 1: label confusion explicit 5/6, implicit 1/3, "
             "clarification 0/2, overall 6/11", check)


def test_criterion_2_knowledge_verdicts(gold, predictions):
    expected = {
        ("A", 2): False, ("A", 4): False, ("A", 6): True,
        ("A", 8): False, ("A", 11): True, ("A", 17): True,
        ("B", 2): True, ("B", 5): True, ("B", 7): True,
        ("B", 10): True, ("B", 14): True,
    }

    def check():
        for dialogue_id, annotations in gold.items():
            predicted = {a.turn_index: a for a in predictions[dialogue_id]}
            for annotation in annotations:
                verdict = knowledge_equivalent(
                    annotation.knowledge_delta,
                    predicted[annotation.turn_index].knowledge_delta,
                )
                assert verdict == expected[(dialogue_id, annotation.turn_index)], (
                    f"dialogue {dialogue_id} turn {annotation.turn_index}"
                )

    _verdict("criterion 2: 11/11 knowledge-equivalence verdicts", check)


def test_criterion_3_gold_replay(dialogues_by_id, gold):
    def check():
        state_a = process_dialogue(dialogues_by_id["A"], gold["A"])
        expected_a = canonicalize({
            "table_domain": "media",
            "table_content": "time travel works of fiction",
            "row_count": 500,
            "column_info": [
                {"column_name": "year"},
                {"column_name": "title"},
                {"column_name": "author", "distinct_count": 417},
                {"column_name": "short text description"},
                {"column_name": "category"},
            ],
        })
        assert knowledge_equivalent(state_a.grounded, expected_a)

        state_b = process_dialogue(dialogues_by_id["B"], gold["B"])
        grounded = state_b.grounded
        assert grounded.row_count == 98
        by_name = {c.column_name: c for c in grounded.column_info}
        assert (by_name["year"].min_value, by_name["year"].max_value) == (1921, 2007)
        assert (by_name["area"].min_value, by_name["area"].max_value) == (48, 3940)

    _verdict("criterion 3: gold replay final knowledge for dialogues A and B", check)


def test_criterion_4_clarification_guard(dialogues_by_id, gold):
    def check():
        dialogue = dialogues_by_id["A"]
        by_turn = {a.turn_index: (a.label, a.knowledge_delta) for a in gold["A"]}
        state = GroundingState()
        for turn in dialogue.turns:
            state = step(state, turn, *by_turn.get(turn.index, ()))
            if turn.index >= 8:
                visible = [c.column_name for c in state.grounded.column_info]
                visible += [c.column_name for c in state.pending.column_info]
                assert not any(
                    terms_equivalent(name, "type of work") for name in visible
                ), f"'type of work' visible after turn {turn.index}"
            if turn.index >= 11:
                grounded = [c.column_name for c in state.grounded.column_info]
                assert "category" in grounded

    _verdict("criterion 4: clarification guard ('type of work' never grounded, "
             "'category' grounded after turn 11)", check)


def test_criterion_5_prompt_fidelity(dialogues_by_id):
    def check():
        history = dialogues_by_id["A"].turns[:2]
        for builder, fixture_name in (
            (build_classification_prompt, fixtures.CLASSIFICATION_PROMPT),
            (build_extraction_prompt, fixtures.EXTRACTION_PROMPT),
        ):
            messages = builder(history)
            assert len(messages) == 8
            shipped = json.loads(
                fixtures.path(fixture_name).read_text(encoding="utf-8")
            )
            assert [m.to_json_dict() for m in messages[:7]] == shipped
            body = CompletionRequest(messages=tuple(messages)).wire_body()
            assert body["temperature"] == 0
            assert body["max_tokens"] == 256

    _verdict("criterion 5: prompt fidelity (8 messages, byte-matched examples, "
             "temperature 0, max_tokens 256)", check)


def test_criterion_6_property_suites():
    import random

    names = ("height", "river", "novel", "climate", "painter", "budget")
    words = ("museum", "park", "index", "title", "region", "summary")

    def random_knowledge(rng):
        raw = {}
        if rng.random() < 0.5:
            raw["table_domain"] = rng.choice(words)
        if rng.random() < 0.5:
            raw["table_content"] = " ".join(rng.sample(words, rng.randint(1, 3)))
        if rng.random() < 0.5:
            raw["row_count"] = rng.randint(10, 1000)
        if rng.random() < 0.5:
            raw["column_count"] = rng.randint(0, 12)
        info = []
        for name in rng.sample(names, rng.randint(0, 4)):
            entry = {"column_name": name}
            if rng.random() < 0.5:
                entry["distinct_count"] = rng.randint(1, 10)
            if rng.random() < 0.5:
                low = rng.randint(0, 100)
                entry["min_value"] = low
                entry["max_value"] = low + rng.randint(0, 100)
            info.append(entry)
        if info:
            raw["column_info"] = info
        return canonicalize(raw)

    def check():
        rng = random.Random(20260824)
        for _ in range(1000):
            kb = random_knowledge(rng)
            delta = random_knowledge(rng)
            # Canonicalize idempotence.
            assert canonicalize(kb.to_json_dict()) == kb
            # Self-assessment is all-Match.
            assert all(o.verdict is Verdict.MATCH for o in assess(kb, kb))
            # Merge idempotence and delta absorption.
            merged, _, _ = commit(kb, delta)
            again, outcomes, _ = commit(merged, delta)
            assert all(o.verdict is Verdict.MATCH for o in outcomes)
            assert again == merged
            # Disjoint-key commutativity over a random fact split.
            fact_list = facts(kb)
            mask = [rng.random() < 0.5 for _ in fact_list]
            d1 = knowledge_from_facts(f for f, m in zip(fact_list, mask) if m)
            d2 = knowledge_from_facts(f for f, m in zip(fact_list, mask) if not m)
            one, _, _ = commit(commit(EMPTY_KNOWLEDGE, d1)[0], d2)
            other, _, _ = commit(commit(EMPTY_KNOWLEDGE, d2)[0], d1)
            assert knowledge_equivalent(one, other)
            assert knowledge_equivalent(one, kb)
            # terms_equivalent reflexivity and symmetry.
            phrase = " ".join(rng.sample(words, rng.randint(1, 3)))
            other_phrase = " ".join(rng.sample(words, rng.randint(1, 3)))
            assert terms_equivalent(phrase, phrase)
            assert terms_equivalent(phrase, other_phrase) == terms_equivalent(
                other_phrase, phrase
            )

    _verdict("criterion 6: algebra properties over 1000 generated knowledge "
             "pairs", check)


def test_criterion_7_parser_robustness():
    def check():
        for _, raw in EXTRACTION_EXAMPLES:
            parse_knowledge_json(raw)
        records = [
            json.loads(line)
            for line in fixtures.path(fixtures.REPLAY_CACHE)
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        extraction = [
            r["response"] for r in records if r["response"].startswith("Output JSON:")
        ]
        assert len(extraction) == 11
        for response in extraction:
            parse_knowledge_json(response)
        for label in GroundingLabel:
            if label is GroundingLabel.NO_EVENT:
                continue
            for variant in (
                label.value,
                label.value.upper(),
                f"Output label: {label.value}",
                f"  {label.value.capitalize()}\n",
            ):
                assert parse_label(variant) is label

    _verdict("criterion 7: parsers accept every shipped raw response and "
             "label variant", check)
