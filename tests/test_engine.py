from unittest import mock

from convground import (
    GroundingLabel,
    GroundingState,
    Role,
    Turn,
    canonicalize,
    knowledge_equivalent,
    present,
    process_dialogue,
    step,
)
from convground import engine
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
    """How :func:`step` treats each grounding label."""

    def test_explicit_commits_pending(self):
        pending = canonicalize({"column_names": ["year", "title", "author",
                                                 "short text description", "category"]})
        state = present(GroundingState(), pending)
        state = step(state, seeker_turn(11), GroundingLabel.EXPLICIT)
        assert state.pending.is_empty
        assert len(state.grounded.column_info) == 5
        assert state.history[-1].turn_index == 11

    def test_implicit_commits_turn_facts(self):
        state = present(
            GroundingState(),
            canonicalize({"table_content": "time travel works of fiction"}),
        )
        state = step(
            state,
            seeker_turn(4, "How many rows are there in the dataset?"),
            GroundingLabel.IMPLICIT,
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
        state = step(
            state,
            seeker_turn(8, "Is there no column for the type of the work?"),
            GroundingLabel.CLARIFICATION,
            clarifying,
        )
        pending_names = [c.column_name for c in state.pending.column_info]
        assert "type of work" not in pending_names
        assert state.grounded.is_empty

    def test_empty_commit_is_not_an_error(self):
        state = step(GroundingState(), seeker_turn(1), GroundingLabel.EXPLICIT)
        assert state.grounded.is_empty
        assert len(state.history) == 1

    def test_no_event_only_appends_history(self):
        state = step(GroundingState(), seeker_turn(1))
        assert state.grounded.is_empty
        assert state.history[0].label is GroundingLabel.NO_EVENT


class TestGoldReplay:
    def test_dialogue_a_final_knowledge(self, dialogues_by_id, gold):
        state = process_dialogue(dialogues_by_id["A"], gold["A"])
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
        state = process_dialogue(dialogues_by_id["B"], gold["B"])
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
        by_turn = {a.turn_index: (a.label, a.knowledge_delta) for a in annotations}
        for turn in dialogue.turns:
            state = step(state, turn, *by_turn.get(turn.index, ()))
            if turn.index >= 8:
                committed = [c.column_name for c in state.grounded.column_info]
                staged = [c.column_name for c in state.pending.column_info]
                assert "type of work" not in committed + staged
            if turn.index >= 11:
                assert "category" in [c.column_name for c in state.grounded.column_info]

    def test_history_covers_every_turn(self, dialogues_by_id, gold):
        state = process_dialogue(dialogues_by_id["A"], gold["A"])
        assert len(state.history) == len(dialogues_by_id["A"].turns)

    def test_a_clarifying_turn_stages_its_facts_only_when_the_provider_speaks(self):
        from convground import Dialogue, GoldAnnotation

        turns = [provider_turn(1), seeker_turn(2), seeker_turn(3)]
        gold = [
            GoldAnnotation(1, GroundingLabel.CLARIFICATION, canonicalize({"row_count": 5})),
            GoldAnnotation(2, GroundingLabel.CLARIFICATION,
                           canonicalize({"column_names": ["type of work"]})),
            GoldAnnotation(3, GroundingLabel.EXPLICIT, EMPTY_KNOWLEDGE),
        ]
        state = process_dialogue(Dialogue("d", "media", tuple(turns)), gold)
        assert state.grounded.to_json_dict() == {"row_count": 5}
        assert state.pending.is_empty

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
        state = process_dialogue(Dialogue("bad", "geography", tuple(turns)), gold)
        trace = state.history
        assert [t.label for t in trace] == [GroundingLabel.IMPLICIT] * 3
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
        state = process_dialogue(Dialogue("bad", "geography", tuple(turns)), gold)
        assert [t.label for t in state.history] == [
            GroundingLabel.IMPLICIT,
            GroundingLabel.CLARIFICATION,
            GroundingLabel.EXPLICIT,
            GroundingLabel.IMPLICIT,
        ]
        assert [(op.op.value, str(op.target)) for op in state.history[2].ops] == [
            ("RemoveNode", "column:area size"), ("CreateNode", "column:area"),
        ]
        assert state.pending.is_empty
        assert [c.to_json_dict() for c in state.grounded.column_info] == [
            {"column_name": "area total", "max_value": 3},
        ]
        assert state.grounded.row_count == 50

    def test_a_providers_accepting_turn_presents_its_facts_once(self):
        # Names that overlap without transitivity: "total" matches "area
        # total", and then "Area" conflicts with that same column and replaces
        # it. Folding the accepting turn's facts into the buffer a second time
        # would meet "total" again, now with nothing to match, and add it.
        from convground import Dialogue, GoldAnnotation

        turns = [provider_turn(1), provider_turn(2)]
        gold = [
            GoldAnnotation(1, GroundingLabel.CLARIFICATION, canonicalize({"column_info": [
                {"column_name": "area total", "max_value": 1},
                {"column_name": "size", "max_value": 0},
                {"column_name": "2020"},
            ]})),
            GoldAnnotation(2, GroundingLabel.EXPLICIT, canonicalize({"column_info": [
                {"column_name": "total"},
                {"column_name": "%", "max_value": 1},
                {"column_name": "Area", "max_value": 0},
            ]})),
        ]
        with mock.patch("convground.engine.commit", wraps=engine.commit) as commit:
            state = process_dialogue(Dialogue("d", "geography", tuple(turns)), gold)
        # One commit stages turn 2's facts on the pending ones, one accepts.
        assert commit.call_count == 2
        assert [c.column_name for c in state.grounded.column_info] == [
            "size", "2020", "%", "Area",
        ]
        assert [str(op.target) for op in state.history[1].ops] == [
            "column:size", "column:2020", "column:%", "column:Area",
        ]


def test_empty_dialogue_not_representable():
    # A dialogue always has at least one turn; processing a minimal dialogue
    # with no annotations leaves the state empty.
    from convground import Dialogue

    dialogue = Dialogue("tiny", "media", (Turn(1, Role.SEEKER, "hi"),))
    state = process_dialogue(dialogue, [])
    assert state.grounded.is_empty
    assert len(state.history) == 1
