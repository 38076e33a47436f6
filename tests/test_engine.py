import pytest

from convground import (
    FactKey,
    GroundingLabel,
    GroundingState,
    Role,
    Turn,
    canonicalize,
    gold_extractor,
    gold_labeler,
    knowledge_equivalent,
    observe_label,
    present,
    process_dialogue,
)
from convground.knowledge import EMPTY_KNOWLEDGE


def provider_turn(index, text="some facts"):
    return Turn(index, Role.PROVIDER, text)


def seeker_turn(index, text="ok got it"):
    return Turn(index, Role.SEEKER, text)


class TestPresent:
    def test_presented_facts_stay_pending(self):
        state = present(GroundingState(), canonicalize({"row_count": 500}))
        assert not state.pending.is_empty
        assert state.pending.row_count == 500
        assert state.grounded.is_empty

    def test_self_correction_replaces_pending_column_list(self):
        state = present(
            GroundingState(),
            canonicalize({"column_names": ["year", "title", "author", "short text description"]}),
        )
        state = present(
            state,
            canonicalize({"column_names": ["year", "title", "author",
                                           "short text description", "category"]}),
        )
        names = [c.column_name for c in state.pending.column_info]
        assert names == ["year", "title", "author", "short text description", "category"]

    def test_empty_facts_noop(self):
        state = GroundingState()
        assert present(state, EMPTY_KNOWLEDGE) is state


class TestObserveLabel:
    def test_explicit_commits_pending(self):
        pending = canonicalize({"column_names": ["year", "title", "author",
                                                 "short text description", "category"]})
        state = present(GroundingState(), pending)
        state = observe_label(state, GroundingLabel.EXPLICIT, seeker_turn(11))
        assert state.pending.is_empty
        assert len(state.grounded.column_info) == 5
        assert state.history[-1].turn_index == 11

    def test_implicit_commits_turn_facts(self):
        state = present(
            GroundingState(),
            canonicalize({"table_content": "time travel works of fiction"}),
        )
        state = observe_label(
            state,
            GroundingLabel.IMPLICIT,
            seeker_turn(4, "How many rows are there in the dataset?"),
            canonicalize({"table_content": "time travel works of fiction"}),
        )
        assert state.grounded.table_content == "time travel works of fiction"
        assert state.pending.is_empty

    def test_clarification_discards_turn_facts(self):
        state = present(
            GroundingState(),
            canonicalize({"column_names": ["year", "title", "author", "short text description"]}),
        )
        clarifying = canonicalize(
            {"column_names": ["year", "title", "author", "short text description",
                              "type of work"]}
        )
        state = observe_label(
            state,
            GroundingLabel.CLARIFICATION,
            seeker_turn(8, "Is there no column for the type of the work?"),
            clarifying,
        )
        pending_names = [c.column_name for c in state.pending.column_info]
        assert "type of work" not in pending_names
        assert state.grounded.is_empty

    def test_empty_commit_is_not_an_error(self):
        state = observe_label(GroundingState(), GroundingLabel.EXPLICIT, seeker_turn(1))
        assert state.grounded.is_empty
        assert len(state.history) == 1

    def test_no_event_only_appends_history(self):
        state = observe_label(GroundingState(), GroundingLabel.NO_EVENT, seeker_turn(1))
        assert state.grounded.is_empty
        assert state.history[0].label is GroundingLabel.NO_EVENT


class TestGoldReplay:
    def test_dialogue_a_final_knowledge(self, dialogues_by_id, gold):
        state = process_dialogue(
            dialogues_by_id["A"], gold_labeler(gold["A"]), gold_extractor(gold["A"])
        )
        expected = canonicalize({
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
        assert knowledge_equivalent(state.grounded, expected)

    def test_dialogue_b_final_knowledge(self, dialogues_by_id, gold):
        state = process_dialogue(
            dialogues_by_id["B"], gold_labeler(gold["B"]), gold_extractor(gold["B"])
        )
        grounded = state.grounded
        assert grounded.row_count == 98
        year = next(c for c in grounded.column_info if c.column_name == "year")
        area = next(c for c in grounded.column_info if c.column_name == "area")
        assert (year.min_value, year.max_value) == (1921, 2007)
        assert (area.min_value, area.max_value) == (48, 3940)

    def test_clarification_guard_dialogue_a(self, dialogues_by_id, gold):
        # "type of work" (clarifying question, turn 8) must never be committed
        # or staged; "category" must be grounded after turn 11.
        dialogue = dialogues_by_id["A"]
        annotations = gold["A"]
        state = GroundingState()
        labeler = gold_labeler(annotations)
        extractor = gold_extractor(annotations)
        history = []
        for turn in dialogue.turns:
            history.append(turn)
            facts = extractor(history)
            label = labeler(history)
            if turn.role is Role.PROVIDER and not facts.is_empty:
                state = present(state, facts)
            state = observe_label(state, label, turn, facts)
            if turn.index >= 8:
                committed = [c.column_name for c in state.grounded.column_info]
                staged = [c.column_name for c in state.pending.column_info]
                assert "type of work" not in committed + staged
            if turn.index >= 11:
                assert "category" in [c.column_name for c in state.grounded.column_info]

    def test_history_covers_every_turn(self, dialogues_by_id, gold):
        state = process_dialogue(
            dialogues_by_id["A"], gold_labeler(gold["A"]), gold_extractor(gold["A"])
        )
        assert len(state.history) == len(dialogues_by_id["A"].turns)

    def test_failing_extractor_downgrades_to_no_event(self, dialogues_by_id):
        def broken(history):
            raise RuntimeError("boom")

        state = process_dialogue(
            dialogues_by_id["A"],
            lambda history: GroundingLabel.EXPLICIT,
            broken,
        )
        assert state.grounded.is_empty
        assert all(t.label is GroundingLabel.NO_EVENT for t in state.history)
        assert all(t.warning for t in state.history)

    def test_failing_labeler_downgrades_to_no_event(self, dialogues_by_id):
        def labeler(history):
            if history[-1].index == 2:
                raise KeyError("no cached reply")
            return GroundingLabel.EXPLICIT

        state = process_dialogue(
            dialogues_by_id["A"], labeler, lambda history: canonicalize({"row_count": 5})
        )
        assert [(t.label, t.warning) for t in state.history[:3]] == [
            (GroundingLabel.EXPLICIT, None),
            (GroundingLabel.NO_EVENT, "labeler failed: 'no cached reply'"),
            (GroundingLabel.EXPLICIT, None),
        ]
        assert state.history[1].facts.is_empty

    def test_a_clarifying_turn_stages_its_facts_only_when_the_provider_speaks(self):
        from convground import Dialogue, GoldAnnotation

        turns = [provider_turn(1), seeker_turn(2), seeker_turn(3)]
        gold = [
            GoldAnnotation(1, GroundingLabel.CLARIFICATION, canonicalize({"row_count": 5})),
            GoldAnnotation(2, GroundingLabel.CLARIFICATION,
                           canonicalize({"column_names": ["type of work"]})),
            GoldAnnotation(3, GroundingLabel.EXPLICIT, EMPTY_KNOWLEDGE),
        ]
        state = process_dialogue(
            Dialogue("d", "media", tuple(turns)), gold_labeler(gold), gold_extractor(gold)
        )
        assert state.grounded.to_json_dict() == {"row_count": 5}
        assert state.pending.is_empty

    def test_programming_error_in_extractor_propagates(self, dialogues_by_id):
        def broken(history):
            raise TypeError("bug")

        with pytest.raises(TypeError, match="bug"):
            process_dialogue(
                dialogues_by_id["A"], lambda history: GroundingLabel.EXPLICIT, broken
            )


    def test_unmergeable_column_replaces_the_kept_one_newest_wins(self):
        from convground import Dialogue, GoldAnnotation

        turns = [provider_turn(i) for i in (1, 2, 3)]
        gold = [
            GoldAnnotation(1, GroundingLabel.IMPLICIT, canonicalize({"column_info": [
                {"column_name": "area size", "max_value": 9},
                {"column_name": "area total", "min_value": 5},
            ]})),
            # "area" conflicts with "area size" and then folds into
            # "area total", whose min_value 5 exceeds the incoming max_value 3:
            # the incoming fields replace the kept ones under the kept name.
            GoldAnnotation(2, GroundingLabel.IMPLICIT,
                           canonicalize({"column_name": "area", "max_value": 3})),
            GoldAnnotation(3, GroundingLabel.IMPLICIT, canonicalize({"row_count": 50})),
        ]
        state = process_dialogue(
            Dialogue("bad", "geography", tuple(turns)), gold_labeler(gold), gold_extractor(gold)
        )
        trace = state.history
        assert [(t.label, t.warning) for t in trace] == [(GroundingLabel.IMPLICIT, None)] * 3
        assert [(op.op.value, str(op.target)) for op in trace[1].ops] == [
            ("RemoveNode", "column:area size"), ("CreateNode", "column:area"),
        ]
        assert state.pending.is_empty
        assert [c.to_json_dict() for c in state.grounded.column_info] == [
            {"column_name": "area total", "max_value": 3},
        ]
        assert state.grounded.row_count == 50

    def test_accepting_an_unmergeable_column_commits_it_newest_wins(self):
        from convground import Dialogue, GoldAnnotation

        turns = [provider_turn(1), provider_turn(2), seeker_turn(3), provider_turn(4)]
        gold = [
            GoldAnnotation(1, GroundingLabel.IMPLICIT, canonicalize({"column_info": [
                {"column_name": "area size", "max_value": 9},
                {"column_name": "area total", "min_value": 5},
            ]})),
            # Presented under a clarification: pending until turn 3 accepts it,
            # and that commit replaces the columns as in the test above.
            GoldAnnotation(2, GroundingLabel.CLARIFICATION,
                           canonicalize({"column_name": "area", "max_value": 3})),
            GoldAnnotation(3, GroundingLabel.EXPLICIT, EMPTY_KNOWLEDGE),
            GoldAnnotation(4, GroundingLabel.IMPLICIT, canonicalize({"row_count": 50})),
        ]
        state = process_dialogue(
            Dialogue("bad", "geography", tuple(turns)), gold_labeler(gold), gold_extractor(gold)
        )
        assert [(t.label, t.warning) for t in state.history] == [
            (GroundingLabel.IMPLICIT, None),
            (GroundingLabel.CLARIFICATION, None),
            (GroundingLabel.EXPLICIT, None),
            (GroundingLabel.IMPLICIT, None),
        ]
        assert [(op.op.value, str(op.target)) for op in state.history[2].ops] == [
            ("RemoveNode", "column:area size"), ("CreateNode", "column:area"),
        ]
        assert state.pending.is_empty
        assert [c.to_json_dict() for c in state.grounded.column_info] == [
            {"column_name": "area total", "max_value": 3},
        ]
        assert state.grounded.row_count == 50


def test_empty_dialogue_not_representable():
    # A dialogue always has at least one turn; processing a minimal dialogue
    # with inert labeler/extractor leaves the state empty.
    from convground import Dialogue

    dialogue = Dialogue("tiny", "media", (Turn(1, Role.SEEKER, "hi"),))
    state = process_dialogue(
        dialogue,
        lambda history: GroundingLabel.NO_EVENT,
        lambda history: EMPTY_KNOWLEDGE,
    )
    assert state.grounded.is_empty
    assert len(state.history) == 1
