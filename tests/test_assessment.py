import pytest

from convground import (
    FactKey,
    GraphOp,
    OpKind,
    StateError,
    Verdict,
    assess,
    canonicalize,
    commit,
    merge,
    plan_ops,
)
from convground.assessment import AssessmentOutcome
from convground.knowledge import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    Fact,
    GroundedKnowledge,
    KeyIndex,
    facts,
    knowledge_equivalent,
)


class TestAssess:
    def test_identical_row_count_matches(self):
        kb = canonicalize({"row_count": 500})
        outcomes = assess(kb, canonicalize({"row_count": 500}))
        assert [o.verdict for o in outcomes] == [Verdict.MATCH]

    def test_enriching_column_partial_match(self):
        kb = canonicalize({"column_names": ["author"]})
        delta = canonicalize({"column_name": "author", "distinct_count": 417})
        outcomes = assess(kb, delta)
        assert [o.verdict for o in outcomes] == [Verdict.PARTIAL_MATCH]
        assert outcomes[0].matched_key == FactKey("column", "author")

    def test_disagreeing_value_conflict(self):
        kb = canonicalize({"row_count": 500})
        outcomes = assess(kb, canonicalize({"row_count": 98}))
        assert [o.verdict for o in outcomes] == [Verdict.CONFLICT]

    def test_unknown_fact_novel(self):
        outcomes = assess(EMPTY_KNOWLEDGE, canonicalize({"row_count": 98}))
        assert [o.verdict for o in outcomes] == [Verdict.NOVEL]
        assert outcomes[0].matched_key is None

    def test_equivalent_text_value_partial_match(self):
        kb = canonicalize({"table_content": "nature parks in Germany"})
        delta = canonicalize(
            {"table_content": "information about 98 nature parks in Germany"}
        )
        assert [o.verdict for o in assess(kb, delta)] == [Verdict.PARTIAL_MATCH]

    def test_self_assessment_all_match(self, gold):
        for annotations in gold.values():
            for annotation in annotations:
                kb = annotation.knowledge_delta
                outcomes = assess(kb, kb)
                assert len(outcomes) == len(facts(kb))
                assert all(o.verdict is Verdict.MATCH for o in outcomes)

    def test_assess_against_empty_all_novel(self, gold):
        for annotations in gold.values():
            for annotation in annotations:
                outcomes = assess(EMPTY_KNOWLEDGE, annotation.knowledge_delta)
                assert all(o.verdict is Verdict.NOVEL for o in outcomes)


class TestPlanOps:
    def test_novel_creates(self):
        outcomes = assess(EMPTY_KNOWLEDGE, canonicalize({"row_count": 98}))
        ops = plan_ops(outcomes)
        assert [op.op for op in ops] == [OpKind.CREATE_NODE]
        assert ops[0].target == FactKey("row_count")
        assert ops[0].payload == 98

    def test_match_instantiates(self):
        kb = canonicalize({"row_count": 500})
        ops = plan_ops(assess(kb, kb))
        assert [op.op for op in ops] == [OpKind.INSTANTIATE_NODE]
        assert ops[0].payload is None

    def test_conflict_removes_then_creates(self):
        key = FactKey("column", "columns")
        outcome = AssessmentOutcome(
            Fact(key, ColumnKnowledge("columns", values=("a", "b", "c", "d", "e"))),
            Verdict.CONFLICT,
            key,
        )
        ops = plan_ops([outcome])
        assert [op.op for op in ops] == [OpKind.REMOVE_NODE, OpKind.CREATE_NODE]

    def test_one_op_per_outcome_two_per_conflict(self):
        kb = canonicalize({"row_count": 500, "table_domain": "media"})
        delta = canonicalize(
            {"row_count": 98, "table_domain": "media", "column_count": 5}
        )
        outcomes = assess(kb, delta)
        expected = sum(2 if o.verdict is Verdict.CONFLICT else 1 for o in outcomes)
        assert len(plan_ops(outcomes)) == expected

    def test_order_preserved(self):
        delta = canonicalize({"table_domain": "media", "row_count": 500})
        ops = plan_ops(assess(EMPTY_KNOWLEDGE, delta))
        assert [op.target.field for op in ops] == ["table_domain", "row_count"]


class TestMergeErrors:
    def test_op_on_missing_fact_raises(self):
        op = GraphOp(OpKind.REMOVE_NODE, FactKey("row_count"))
        with pytest.raises(StateError, match="row_count"):
            merge(EMPTY_KNOWLEDGE, [op])

    def test_create_on_existing_fact_raises(self):
        kb = canonicalize({"row_count": 500})
        op = GraphOp(OpKind.CREATE_NODE, FactKey("row_count"), 98)
        with pytest.raises(StateError):
            merge(kb, [op])


def test_merge_never_targets_a_node_created_earlier_in_the_list():
    # Both incoming columns are equivalent to "area" but not to each other.
    # The first conflict retires "area", so the second column is novel and no
    # op can delete the just-created "area size".
    kb = canonicalize({"column_info": [{"column_name": "area", "max_value": 5}]})
    delta = canonicalize({"column_info": [
        {"column_name": "area size", "max_value": 6},
        {"column_name": "area total", "max_value": 7},
    ]})
    merged, outcomes, ops = commit(kb, delta)
    assert [o.verdict for o in outcomes] == [Verdict.CONFLICT, Verdict.NOVEL]
    assert [op.op for op in ops] == [
        OpKind.REMOVE_NODE, OpKind.CREATE_NODE, OpKind.CREATE_NODE,
    ]
    assert merged.column_info == (
        ColumnKnowledge("area size", max_value=6),
        ColumnKnowledge("area total", max_value=7),
    )


def test_conflict_created_column_folds_into_a_surviving_equivalent_one():
    # "area" refers to "area size" (the first equivalent column) and conflicts
    # with it; the recreated "area" is equivalent to the kept "area total".
    kb = canonicalize({"column_info": [
        {"column_name": "area size", "max_value": 5},
        {"column_name": "area total", "max_value": 6},
    ]})
    delta = canonicalize({"column_info": [{"column_name": "area", "max_value": 7}]})
    merged, outcomes, _ = commit(kb, delta)
    assert [o.verdict for o in outcomes] == [Verdict.CONFLICT]
    assert merged.column_info == (ColumnKnowledge("area total", max_value=7),)


def test_conflict_retires_its_target_for_the_rest_of_the_delta():
    # "area size" replaces "area"; "area total" no longer refers to the retired
    # "area", so its description is kept as a column of its own.
    kb = canonicalize({"column_info": [{"column_name": "area", "max_value": 5}]})
    delta = canonicalize({"column_info": [
        {"column_name": "area size", "max_value": 6},
        {"column_name": "area total", "description": "total area of the park"},
    ]})
    merged, outcomes, _ = commit(kb, delta)
    assert [o.verdict for o in outcomes] == [Verdict.CONFLICT, Verdict.NOVEL]
    assert merged.column_info == (
        ColumnKnowledge("area size", max_value=6),
        ColumnKnowledge("area total", description="total area of the park"),
    )


def test_commit_indexes_each_name_once(monkeypatch):
    calls = []
    add = KeyIndex.add

    def counting_add(self, key):
        calls.append(key)
        return add(self, key)

    monkeypatch.setattr(KeyIndex, "add", counting_add)
    kb = canonicalize({
        "table_domain": "parks", "row_count": 500,
        "column_info": [
            {"column_name": "area size", "max_value": 9},
            {"column_name": "name"},
            {"column_name": "visitors", "min_value": 0},
            {"column_name": "area total", "description": "total area"},
            {"column_name": "founded"},
        ],
    })
    delta = canonicalize({
        "row_count": 98,
        "column_info": [
            {"column_name": "name"},
            {"column_name": "visitors", "max_value": 10},
            {"column_name": "opening hours"},
            {"column_name": "area", "max_value": 3},
        ],
    })
    calls.clear()
    merged, outcomes, _ = commit(kb, delta)
    assert len(calls) <= len(facts(kb)) + len(facts(delta))
    assert [o.verdict for o in outcomes] == [
        Verdict.CONFLICT, Verdict.MATCH, Verdict.PARTIAL_MATCH, Verdict.NOVEL,
        Verdict.CONFLICT,
    ]
    # "area" replaces "area size" and folds into the kept "area total".
    assert merged == GroundedKnowledge(
        table_domain="parks", row_count=98,
        column_info=(
            ColumnKnowledge("name"),
            ColumnKnowledge("visitors", min_value=0, max_value=10),
            ColumnKnowledge("area total", description="total area", max_value=3),
            ColumnKnowledge("founded"),
            ColumnKnowledge("opening hours"),
        ),
    )
    # A commit that only confirms facts hands back the knowledge base itself.
    assert commit(merged, delta)[0] is merged


def test_names_without_content_tokens_equal_themselves():
    kb = canonicalize({"column_names": ["2020", "%", "area"]})
    merged, outcomes, _ = commit(kb, kb)
    assert merged == kb
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert knowledge_equivalent(kb, kb)


def test_graph_op_serialization():
    op = GraphOp(OpKind.CREATE_NODE, FactKey("column", "author"),
                 ColumnKnowledge("author", distinct_count=417))
    assert op.to_json_dict() == {
        "op": "CreateNode",
        "target": "column:author",
        "payload": {"column_name": "author", "distinct_count": 417},
    }


def test_delta_absorption_on_fixture_deltas(gold):
    # Any committed delta must be fully represented in the merged KB.
    kb = EMPTY_KNOWLEDGE
    for annotations in gold.values():
        for annotation in annotations:
            delta = annotation.knowledge_delta
            kb = merge(kb, plan_ops(assess(kb, delta)))
            after = assess(kb, delta)
            assert all(o.verdict is Verdict.MATCH for o in after)
