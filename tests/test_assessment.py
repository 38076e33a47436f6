import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, reject, settings

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
    parse_knowledge_json,
    plan_ops,
)
from convground import fixtures, knowledge
from convground.assessment import AssessmentOutcome, _classify
from convground.dialogue import load_gold
from convground.evaluation import score
from convground.judge import _field_values_equivalent, knowledge_equivalent
from convground.knowledge import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    Fact,
    GroundedKnowledge,
    KeyIndex,
    _bounds_ordered,
    facts,
    indexed_facts,
    updated_value,
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


class TestUpdateRule:
    """One rule decides both a column's verdict and the value it commits."""

    KB = canonicalize({"column_name": "area", "min_value": 5})

    def test_bounds_that_would_cross_conflict_and_the_incoming_fields_win(self):
        delta = canonicalize({"column_name": "area", "max_value": 3})
        merged, outcomes, ops = commit(self.KB, delta)
        assert [o.verdict for o in outcomes] == [Verdict.CONFLICT]
        assert [(op.op, str(op.target)) for op in ops] == [
            (OpKind.REMOVE_NODE, "column:area"),
            (OpKind.CREATE_NODE, "column:area"),
        ]
        assert merged.column_info == (ColumnKnowledge("area", max_value=3),)

    def test_ordered_bounds_enrich(self):
        delta = canonicalize({"column_name": "area", "max_value": 9})
        merged, outcomes, _ = commit(self.KB, delta)
        assert [o.verdict for o in outcomes] == [Verdict.PARTIAL_MATCH]
        assert merged.column_info == (ColumnKnowledge("area", min_value=5, max_value=9),)

    def test_a_nan_bound_never_crosses(self):
        kb = canonicalize({"column_name": "area", "max_value": 3})
        delta = parse_knowledge_json('{"column_name": "area", "min_value": NaN}')
        merged, outcomes, _ = commit(kb, delta)
        assert [o.verdict for o in outcomes] == [Verdict.PARTIAL_MATCH]
        (column,) = merged.column_info
        assert math.isnan(column.min_value) and column.max_value == 3

    def test_a_column_with_a_nan_bound_matches_itself(self):
        kb = parse_knowledge_json('{"column_name": "area", "min_value": NaN, "max_value": 3}')
        merged, outcomes, ops = commit(kb, kb)
        assert [o.verdict for o in outcomes] == [Verdict.MATCH]
        assert [op.op for op in ops] == [OpKind.INSTANTIATE_NODE]
        assert merged.column_info == kb.column_info


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


def test_a_repeated_commit_indexes_only_the_created_facts(monkeypatch):
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
    first = commit(kb, delta)
    calls = []
    add = KeyIndex.add

    def counting_add(self, key):
        calls.append(key)
        return add(self, key)

    monkeypatch.setattr(KeyIndex, "add", counting_add)
    # The index the first commit built is kept on the knowledge base.
    assert commit(kb, delta) == first
    assert len(calls) <= len(facts(delta))


def test_an_annotate_chain_indexes_only_incoming_facts(monkeypatch):
    # Fifty turns about one ten-column table, as `annotate --incremental-kb`
    # commits them: each merge result is the next commit's knowledge base.
    rng = random.Random(3)
    names = ["area", "area in km2", "name", "visitors", "founded", "state",
             "region", "height", "length", "opening hours", "type"]
    deltas = []
    for _ in range(50):
        raw = {"column_info": []}
        for name in rng.sample(names, rng.randint(0, 3)):
            column = {"column_name": name}
            if rng.random() < 0.5:
                column["max_value"] = rng.randint(0, 9)
            if rng.random() < 0.3:
                column["description"] = rng.choice(["size", "total size of the park"])
            raw["column_info"].append(column)
        if rng.random() < 0.2:
            raw["row_count"] = rng.choice([98, 100])
        deltas.append(canonicalize(raw))
    calls = []
    add = KeyIndex.add

    def counting_add(self, key):
        calls.append(key)
        return add(self, key)

    monkeypatch.setattr(KeyIndex, "add", counting_add)
    kb = EMPTY_KNOWLEDGE
    verdicts = set()
    for delta in deltas:
        kb, outcomes, _ = commit(kb, delta)
        verdicts.update(o.verdict for o in outcomes)
    assert verdicts == set(Verdict)
    assert len(calls) <= sum(len(facts(delta)) for delta in deltas)


def test_an_indexed_knowledge_base_equals_hashes_and_reprs_like_a_fresh_one():
    raw = {"row_count": 5, "column_names": ["area size", "name", "2020"]}
    indexed, fresh = canonicalize(raw), canonicalize(raw)
    merged = commit(indexed, canonicalize({"column_name": "area", "max_value": 3}))[0]
    assert indexed_facts(indexed)[1] is indexed_facts(indexed)[1]
    assert indexed == fresh
    assert hash(indexed) == hash(fresh)
    assert repr(indexed) == repr(fresh)
    rebuilt = GroundedKnowledge(
        merged.table_domain, merged.table_content, merged.row_count, merged.column_count,
        merged.column_info,
    )
    assert merged == rebuilt
    assert hash(merged) == hash(rebuilt)
    assert repr(merged) == repr(rebuilt)


def test_a_chain_of_conflicts_keeps_each_posting_list_short():
    # Each commit replaces the one column, retiring its position; copying
    # the index for the next commit leaves the retired positions out.
    kb = canonicalize({"column_name": "area", "min_value": 5})
    bounds = [canonicalize({"column_name": "area", "max_value": 1}),
              canonicalize({"column_name": "area", "min_value": 5})]
    for n in range(2000):
        kb, outcomes, _ = commit(kb, bounds[n % 2])
        assert [o.verdict for o in outcomes] == [Verdict.CONFLICT]
    kb_facts, index = indexed_facts(kb)
    assert all(len(positions) <= 2 for positions in index._postings.values())
    assert index._sizes.keys() == kb_facts.keys()
    assert index.exact == {f.key: i for i, f in kb_facts.items()}
    assert kb == bounds[1]


def test_a_merge_that_creates_and_removes_nothing_shares_the_index():
    kb = commit(EMPTY_KNOWLEDGE, canonicalize({
        "table_domain": "parks", "column_names": ["area size", "name", "2020"],
    }))[0]
    delta = canonicalize({
        "table_domain": "city parks",
        "column_info": [{"column_name": "area", "max_value": 3}, {"column_name": "2020"}],
    })
    before = dict(indexed_facts(kb)[1].exact)
    result, _, ops = commit(kb, delta)
    assert [op.op for op in ops] == [
        OpKind.UPDATE_NODE, OpKind.UPDATE_NODE, OpKind.INSTANTIATE_NODE,
    ]
    assert result != kb
    assert indexed_facts(result)[1] is indexed_facts(kb)[1]
    # A later commit that creates and removes facts copies the shared index.
    later = commit(result, canonicalize({"column_names": ["founded"], "table_domain": "museums"}))[0]
    assert indexed_facts(later)[1] is not indexed_facts(kb)[1]
    assert indexed_facts(kb)[1].exact == before
    assert [c.column_name for c in later.column_info] == ["area size", "name", "2020", "founded"]
    # A merge that only removes (not a plan of assess's) retires in a copy.
    pruned = merge(kb, [GraphOp(OpKind.REMOVE_NODE, FactKey("column", "name"))])
    assert indexed_facts(pruned)[1] is not indexed_facts(kb)[1]
    assert [o.verdict for o in assess(pruned, canonicalize({"column_name": "name"}))] == [
        Verdict.NOVEL
    ]


def test_a_restated_fact_is_found_by_its_exact_key(monkeypatch):
    kb = commit(EMPTY_KNOWLEDGE, canonicalize({
        "row_count": 5,
        "column_info": [
            {"column_name": "area size", "max_value": 9},
            {"column_name": "name"},
            {"column_name": "visitors"},
        ],
    }))[0]
    delta = canonicalize({"column_info": [
        {"column_name": "name"},
        {"column_name": "visitors", "min_value": 0},
        {"column_name": "area", "max_value": 9},
    ]})
    # Names are normalised through a memo, which building the two knowledge
    # bases (or another test) has warmed; cleared, it counts its misses.
    knowledge._name_terms.cache_clear()
    calls = []
    real = knowledge.normalize_term
    monkeypatch.setattr(knowledge, "normalize_term", lambda term: calls.append(term) or real(term))
    outcomes = assess(kb, delta)
    assert [o.verdict for o in outcomes] == [
        Verdict.MATCH, Verdict.PARTIAL_MATCH, Verdict.MATCH,
    ]
    # Only "area" is not a key the knowledge base holds.
    assert calls == ["area"]


def old_classify(existing, incoming):
    """``_classify`` as it was: a column is updated whole by ``updated_value``
    and compared with the committed one field by field, each field equal when
    identical or ``==``, as a record's ``==`` compares its fields."""
    ex, inc = existing.value.fields(), incoming.value.fields()
    union = {**ex, **inc}
    agree = all(
        _field_values_equivalent(n, ex[n], inc[n]) for n in set(ex) & set(inc)
    ) and _bounds_ordered(union.get("min_value"), union.get("max_value"))
    if not agree:
        return Verdict.CONFLICT
    updated = updated_value("column", existing.value, incoming.value)
    same = (updated.column_name, updated.fields()) == (
        existing.value.column_name, existing.value.fields()
    )
    return Verdict.MATCH if same else Verdict.PARTIAL_MATCH


NAN = float("nan")


def random_classify_column(rng, name="area"):
    fields = {}
    if rng.random() < 0.5:
        # Equal-length text ("total area"/"area total"/"Total Area") ties.
        fields["description"] = rng.choice(["total area", "area total", "Total Area", "area"])
    if rng.random() < 0.5:
        fields["values"] = rng.choice([
            ("Gobenu", "x"), ("gobenu", "X"), ("GOBENU.", "x"), ("x", "Gobenu"),
            (1,), (1.0,), (NAN,), (float("nan"),),
        ])
    if rng.random() < 0.4:
        fields["distinct_count"] = rng.choice([1, 1.0, 2])
    for bound in ("min_value", "max_value"):
        if rng.random() < 0.5:
            fields[bound] = rng.choice([0, 1, 1.0, 2, NAN, float("nan")])
    return ColumnKnowledge(name, **fields)


def test_classify_keeps_the_verdicts_of_the_whole_column_rule():
    rng = random.Random(17)
    key = FactKey("column", "area")
    seen = set()
    for _ in range(3000):
        try:
            existing, incoming = random_classify_column(rng), random_classify_column(rng)
        except ValueError:  # crossed bounds
            continue
        pair = (Fact(key, existing), Fact(key, incoming))
        verdict = _classify(*pair)
        assert verdict is old_classify(*pair), pair
        seen.add(verdict)
    assert seen == {Verdict.MATCH, Verdict.PARTIAL_MATCH, Verdict.CONFLICT}


# Groups of values that are ``==`` to each other: numbers of equal value and
# type bool, int or float, one NaN object (``==`` only as itself), and text
# of equal length as one object and as a copy built at run time.
EQUAL_GROUPS = (
    (1, 1.0, True), (0, 0.0, False), (2, 2.0), (NAN,),
    ("total area", " ".join(["total", "area"])), ("area total",), ("Total Area",),
)
NUMBER_GROUPS = [g for g in EQUAL_GROUPS if not isinstance(g[0], str)]
TEXT_GROUPS = [g for g in EQUAL_GROUPS if isinstance(g[0], str)]


@st.composite
def equal_pair(draw, groups=EQUAL_GROUPS):
    """Two values drawn from one group, so the first ``==`` the second."""
    group = draw(st.sampled_from(groups))
    return draw(st.sampled_from(group)), draw(st.sampled_from(group))


@st.composite
def equal_facts(draw):
    """A committed fact and an incoming one whose value ``==`` its value."""
    field = draw(st.sampled_from(["column", "row_count", "table_domain"]))
    if field != "column":
        groups = TEXT_GROUPS if field == "table_domain" else NUMBER_GROUPS
        a, b = draw(equal_pair(groups))
        return Fact(FactKey(field), a), Fact(FactKey(field), b)
    pairs = {}
    fields = {
        "description": TEXT_GROUPS, "distinct_count": NUMBER_GROUPS,
        "min_value": NUMBER_GROUPS, "max_value": NUMBER_GROUPS,
    }
    for name, groups in fields.items():
        if draw(st.booleans()):
            pairs[name] = draw(equal_pair(groups))
    if draw(st.booleans()):
        items = draw(st.lists(equal_pair(), min_size=1, max_size=3))
        pairs["values"] = tuple(a for a, _ in items), tuple(b for _, b in items)
    key = FactKey("column", "area")
    try:
        return tuple(
            Fact(key, ColumnKnowledge("area", **{n: p[side] for n, p in pairs.items()}))
            for side in (0, 1)
        )
    except ValueError:  # crossed bounds
        reject()


@given(equal_facts())
@settings(max_examples=300)
def test_a_value_equal_to_its_target_is_classified_a_match(pair):
    # ``assess`` takes an equal value for a match without calling _classify.
    # A bare NaN is not ``==`` to itself, so it takes the full rule; inside a
    # column's field tuple the shared object is equal.
    existing, incoming = pair
    assume(incoming.value == existing.value)
    assert _classify(existing, incoming) is Verdict.MATCH


def test_assess_keeps_the_verdicts_of_the_whole_column_rule():
    rng = random.Random(23)
    names = ["area", "area size", "area total", "size", "Area", "2020"]
    seen = set()

    def random_knowledge():
        columns = []
        for name in rng.sample(names, rng.randint(1, 4)):
            try:
                columns.append(Fact(FactKey("column", name), random_classify_column(rng, name)))
            except ValueError:  # crossed bounds
                pass
        return knowledge.knowledge_from_facts(columns)

    for _ in range(1500):
        kb, delta = random_knowledge(), random_knowledge()
        kb_facts = {f.key: f for f in facts(kb)}
        for outcome in assess(kb, delta):
            if outcome.verdict is not Verdict.NOVEL:
                existing = kb_facts[outcome.matched_key]
                assert outcome.verdict is old_classify(existing, outcome.fact), (kb, delta)
            seen.add(outcome.verdict)
    assert seen == set(Verdict)


def test_writes_to_a_copy_leave_its_original_unchanged():
    # A chain of copies, as merges make them, each creating and removing
    # keys; every index in the chain must still answer as it did when copied.
    rng = random.Random(5)
    words = ["area", "size", "total", "name", "river", "height"]
    pool = [FactKey("row_count"), FactKey("column", "2020"), *(
        FactKey("column", " ".join(rng.sample(words, rng.randint(1, 3)))) for _ in range(40)
    )]

    def answers(index):
        return dict(index.exact), [sorted(index.matches(key)) for key in pool]

    index, seen = KeyIndex(), []
    for _ in range(300):
        seen.append((index, answers(index)))
        index = index.copy()
        for _ in range(rng.randint(1, 3)):
            live = list(index.exact)
            if live and rng.random() < 0.4:
                index.discard(rng.choice(live))
            else:
                index.add(rng.choice(pool))
        # A posting list holds live positions only.
        assert all(i in index._sizes for ps in index._postings.values() for i in ps)
    for original, before in seen:
        assert answers(original) == before


def test_a_knowledge_base_keeps_the_index_it_built(monkeypatch):
    # A parsed annotation builds its index when a commit first looks it up,
    # and keeps it while other knowledge bases are indexed.
    annotation = canonicalize({"column_names": ["area size", "name"]})
    delta = canonicalize({"column_names": ["area", "founded"]})
    assert annotation._carried is None
    commit(annotation, delta)
    carried = annotation._carried
    commit(canonicalize({"row_count": 5}), annotation)
    calls = []
    add = KeyIndex.add

    def counting_add(self, key):
        calls.append(key)
        return add(self, key)

    monkeypatch.setattr(KeyIndex, "add", counting_add)
    _, _, ops = commit(annotation, delta)
    assert annotation._carried is carried
    # The second commit adds only the facts it creates.
    assert calls == [op.target for op in ops if op.op is OpKind.CREATE_NODE]
    assert calls == [FactKey("column", "founded")]


def test_parsed_knowledge_builds_no_index_until_looked_up():
    # `evaluate` only judges gold and predicted deltas, so it builds no index.
    gold = load_gold(fixtures.path(fixtures.GOLD))
    predicted = load_gold(fixtures.path(fixtures.PREDICTIONS))
    deltas = [a.knowledge_delta for by_id in (gold, predicted)
              for annotations in by_id.values() for a in annotations]
    deltas.append(canonicalize({"column_names": ["area size", "name", "area total"]}))
    score(gold, predicted)
    assert all(delta._carried is None for delta in deltas)
    assert indexed_facts(deltas[-1]) is deltas[-1]._carried is not None


def test_names_without_content_tokens_equal_themselves():
    kb = canonicalize({"column_names": ["2020", "%", "area"]})
    merged, outcomes, _ = commit(kb, kb)
    assert merged == kb
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert knowledge_equivalent(kb, kb)


@pytest.mark.parametrize("verdict, matched_key, message", [
    (Verdict.NOVEL, FactKey("row_count"), "novel outcomes carry no matched key"),
    (Verdict.CONFLICT, None, "conflict outcome requires a matched key"),
], ids=["novel-with-key", "conflict-without-key"])
def test_an_outcome_has_a_matched_key_unless_novel(verdict, matched_key, message):
    with pytest.raises(ValueError, match=message):
        AssessmentOutcome(Fact(FactKey("row_count"), 5), verdict, matched_key)


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
