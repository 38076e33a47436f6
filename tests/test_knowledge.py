import inspect
import json
import pickle
import random

import pytest

from convground import judge, knowledge
from convground import (
    AssessmentOutcome,
    ChatMessage,
    ColumnKnowledge,
    CompletionRequest,
    CompletionResult,
    Dialogue,
    EvalReport,
    Fact,
    FactKey,
    GoldAnnotation,
    GraphOp,
    GroundedKnowledge,
    GroundingLabel,
    GroundingState,
    KnowledgeVerdict,
    MessageRole,
    OpKind,
    Role,
    SchemaError,
    Turn,
    Verdict,
    assess,
    canonicalize,
    commit,
    fact_equivalent,
    knowledge_equivalent,
    merge,
    normalize_term,
    parse_knowledge_json,
    plan_ops,
    terms_equivalent,
)
from convground.engine import TurnTrace
from convground.evaluation import TurnResult
from convground.judge import _lists_equivalent
from convground.knowledge import EMPTY_KNOWLEDGE
from convground.matching import perfect_matching


class TestNormalizeTerm:
    @pytest.mark.parametrize(
        "term, expected",
        [
            ("area in km2", {"area"}),
            ("", set()),
            ("information about 98 nature parks in Germany", {"nature", "parks", "germany"}),
            ("short text summary", {"summary"}),
            ("year of establishment", {"year", "establishment"}),
            ("Height (m)", {"height"}),
        ],
    )
    def test_token_rules(self, term, expected):
        assert normalize_term(term) == frozenset(expected)


class TestTermsEquivalent:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("Geography", "geography", True),
            ("year of establishment", "year", True),
            ("category", "type of work", False),
            ("park name", "name of park", True),
            ("German state", "state", True),
            ("area in km2", "area", True),
            ("", "", False),
            ("the of and", "anything", False),
        ],
    )
    def test_pairs(self, a, b, expected):
        assert terms_equivalent(a, b) is expected
        assert terms_equivalent(b, a) is expected


class TestFactEquivalent:
    def test_domain_and_content_never_cross_match(self):
        content = Fact(FactKey("table_content"), "media dataset")
        domain = Fact(FactKey("table_domain"), "media")
        assert not fact_equivalent(content, domain)

    def test_row_count_exact(self):
        assert fact_equivalent(
            Fact(FactKey("row_count"), 500), Fact(FactKey("row_count"), 500)
        )
        assert not fact_equivalent(
            Fact(FactKey("row_count"), 500), Fact(FactKey("row_count"), 501)
        )

    def test_column_names_equivalent_fields_identical(self):
        a = Fact(
            FactKey("column", "year of establishment"),
            ColumnKnowledge("year of establishment", min_value=1921, max_value=2007),
        )
        b = Fact(
            FactKey("column", "year"),
            ColumnKnowledge("year", min_value=1921, max_value=2007),
        )
        assert fact_equivalent(a, b)

    def test_column_field_mismatch(self):
        a = Fact(FactKey("column", "author"), ColumnKnowledge("author", distinct_count=417))
        b = Fact(FactKey("column", "author"), ColumnKnowledge("author"))
        assert not fact_equivalent(a, b)


class TestKnowledgeEquivalent:
    def test_empty_vs_empty(self):
        assert knowledge_equivalent(EMPTY_KNOWLEDGE, GroundedKnowledge())

    def test_five_vs_four_column_names(self):
        predicted = canonicalize(
            {"column_names": ["year", "title", "author", "short text description", "type of work"]}
        )
        gold = canonicalize(
            {"column_names": ["year", "title", "author", "short text description"]}
        )
        assert not knowledge_equivalent(predicted, gold)

    def test_long_vs_short_column_names(self):
        predicted = canonicalize(
            {"column_names": ["park name", "German state", "year of establishment",
                              "area in km2", "short text summary"]}
        )
        gold = canonicalize(
            {"column_names": ["park name", "year", "area", "state", "short text summary"]}
        )
        assert knowledge_equivalent(predicted, gold)

    def test_key_mismatch_table_domain_vs_content(self):
        predicted = canonicalize({"table_domain": "time travel works of fiction"})
        gold = canonicalize({"table_content": "time travel works of fiction"})
        assert not knowledge_equivalent(predicted, gold)

    def test_reproduces_all_table_fixture_verdicts(self, gold, predictions):
        equivalent_turns = {("A", 6), ("A", 11), ("A", 17), ("B", 2), ("B", 5),
                            ("B", 7), ("B", 10), ("B", 14)}
        for dialogue_id in gold:
            predicted_by_turn = {p.turn_index: p for p in predictions[dialogue_id]}
            for annotation in gold[dialogue_id]:
                verdict = knowledge_equivalent(
                    predicted_by_turn[annotation.turn_index].knowledge_delta,
                    annotation.knowledge_delta,
                )
                expected = (dialogue_id, annotation.turn_index) in equivalent_turns
                assert verdict is expected, (dialogue_id, annotation.turn_index)

    def test_long_value_lists_in_reversed_order(self):
        values = [f"city {i}" for i in range(2500)] + list(range(2500))
        gold = GroundedKnowledge(column_info=(ColumnKnowledge("city", values=tuple(values)),))
        same = GroundedKnowledge(
            column_info=(ColumnKnowledge("city", values=tuple(reversed(values))),)
        )
        differs = GroundedKnowledge(
            column_info=(ColumnKnowledge("city", values=tuple(reversed(values[:-1] + [-1]))),)
        )
        assert knowledge_equivalent(same, gold)
        assert not knowledge_equivalent(differs, gold)


def test_matching_is_polynomial_on_a_near_miss():
    # Eleven repeats and one value only the other side lacks: backtracking
    # tries every ordering of the repeats, about 11! calls.
    # A key that never repeats leaves every pair to the search.
    left = ["area"] * 12
    right = ["area"] * 11 + ["budget"]
    calls = 0

    def eq(x, y):
        nonlocal calls
        calls += 1
        return x == y

    assert not perfect_matching(left, right, lambda _: object(), eq)
    assert calls <= 12 ** 3


def count_normalize_calls(monkeypatch):
    """Count ``knowledge.normalize_term`` calls; returns the list of terms."""
    calls = []
    real = knowledge.normalize_term

    def counted(term):
        calls.append(term)
        return real(term)

    monkeypatch.setattr(knowledge, "normalize_term", counted)
    return calls


def test_equal_lists_normalise_each_distinct_string_once(monkeypatch):
    calls = count_normalize_calls(monkeypatch)
    values = [f"city {i}" for i in range(64)]
    assert _lists_equivalent(values, list(reversed(values)))
    assert sorted(calls) == sorted(values)


def test_a_seeded_pair_is_re_routed_when_the_search_needs_its_right_index():
    # Left 0 matches rights 0 and 1, left 1 only right 0. The key offers
    # right 0 to left 0, so left 1's search must move left 0 to right 1.
    key = {"l0": 0, "r0": 0, "l1": 1, "r1": 2}.get
    pairs = {("l0", "r0"), ("l0", "r1"), ("l1", "r0")}
    left, right = ["l0", "l1"], ["r0", "r1"]
    assert perfect_matching(left, right, key, lambda x, y: (x, y) in pairs)
    without = pairs - {("l0", "r1")}
    assert not perfect_matching(left, right, key, lambda x, y: (x, y) in without)


def test_the_search_repairs_a_seed_that_is_not_transitive():
    # The key offers "area size" to "area size", so "area" only meets "size"
    # after the search moves "area size" over to it.
    assert _lists_equivalent(["area size", "area"], ["area size", "size"])
    assert _lists_equivalent(["area", "area size"], ["size", "area size"])


def count_eq_calls(monkeypatch):
    """Count the ``eq`` calls of the list judge's matcher; returns a one-item list."""
    calls = [0]

    def counted(left, right, key, eq):
        def counted_eq(x, y):
            calls[0] += 1
            return eq(x, y)

        return perfect_matching(left, right, key, counted_eq)

    monkeypatch.setattr(judge, "perfect_matching", counted)
    return calls


def test_case_variants_cost_one_eq_call_each(monkeypatch):
    # Values of two words each, which only the matcher decides: the key
    # offers each value its variant first.
    calls = count_eq_calls(monkeypatch)
    values = [f"word{chr(ord('a') + i % 26)}{i // 26} size" for i in range(64)]
    forms = (str, str.title, str.upper, lambda w: f"{w}.")
    variants = [forms[i % 4](v) for i, v in enumerate(values)]
    random.Random(0).shuffle(variants)
    assert _lists_equivalent(values, variants)
    assert calls == [len(values)]


def test_a_near_miss_normalises_each_distinct_string_once(monkeypatch):
    # Values of two words each, which only the general path decides.
    calls = count_normalize_calls(monkeypatch)
    left = ["area size"] * 11 + ["river budget"]
    right = ["Area Size"] * 11 + ["lake budget"]
    assert not _lists_equivalent(left, right)
    assert sorted(calls) == ["Area Size", "area size", "lake budget", "river budget"]


def test_one_word_lists_need_no_normalisation(monkeypatch):
    calls = count_normalize_calls(monkeypatch)
    words = [f"sotamo{i}" for i in range(32)]
    variants = [f"{w.title()}." for w in reversed(words)]
    assert _lists_equivalent(words, variants)
    assert not _lists_equivalent(words, variants[:-1] + ["Lake."])
    assert not _lists_equivalent(["area"] * 11 + ["budget"], ["Area"] * 11 + ["river"])
    assert calls == []


def test_fact_matching_normalises_each_distinct_name_once_per_call(monkeypatch):
    # More names than the bounded name memo of knowledge.py holds.
    names = [f"total col{i}" for i in range(300)]
    kb = canonicalize({"column_names": names})
    reordered = canonicalize({"column_names": names[::-1]})
    shouted = canonicalize({"column_names": [n.upper() for n in reversed(names)]})
    calls = count_normalize_calls(monkeypatch)
    assert knowledge_equivalent(kb, reordered)
    assert sorted(calls) == sorted(names)
    calls.clear()
    assert knowledge_equivalent(kb, shouted)
    assert sorted(calls) == sorted(names + [n.upper() for n in names])


def test_a_one_column_near_miss_judges_its_values_once(monkeypatch):
    # The keyed offer refuses the pair; the search must not judge it again.
    calls = []
    real = judge._lists_equivalent

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(judge, "_lists_equivalent", counted)
    values = ["lake", "river", "bay", "cove", "sound", "fjord"]
    gold = canonicalize({"column_info": [{"column_name": "lake area", "values": values}]})
    near = canonicalize(
        {"column_info": [{"column_name": "lake area in km2", "values": values[:-1] + ["inlet"]}]}
    )
    assert not knowledge_equivalent(near, gold)
    assert len(calls) == 1


class TestIdenticalOrEqual:
    """Two values are equal when identical or ``==``, the rule Python's
    containers use. ``json`` reads every NaN as one float object, which is
    not ``==`` to itself."""

    def test_a_lone_nan_value_equals_itself(self):
        assert _lists_equivalent(json.loads("[NaN]"), json.loads("[NaN]"))

    def test_a_nan_value_beside_case_variants(self):
        assert _lists_equivalent(json.loads('[NaN, "x"]'), json.loads('[NaN, "X"]'))

    def test_two_nan_objects_are_not_equal(self):
        assert not _lists_equivalent([float("nan"), "x"], [float("nan"), "X"])

    def test_a_column_with_a_nan_bound_is_equivalent_to_itself(self):
        kb = parse_knowledge_json('{"column_name": "area", "min_value": NaN, "max_value": 3}')
        assert knowledge_equivalent(kb, kb)


def test_commit_normalises_each_column_name_a_bounded_number_of_times(monkeypatch):
    # 400 distinct two-word names; each word is shared by 20 of them, so no
    # two names are equivalent but every lookup meets names with a common token.
    words = [chr(ord("a") + i) * 3 for i in range(20)]
    names = [f"{q}side {n}ware" for q in words for n in words]
    calls = count_normalize_calls(monkeypatch)
    kb = canonicalize({"column_names": names})
    merged, outcomes, _ = commit(kb, kb)
    assert merged == kb
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert len(calls) <= 8 * len(names)


def test_the_name_memo_stays_within_its_bound():
    # Hostile input may hold any number of distinct column names.
    memo = knowledge._name_terms
    bound = memo.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 100):
        knowledge.KeyIndex().add(FactKey("column", f"name{i:05d} x"))
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound


class TestCanonicalize:
    def test_column_names_shorthand(self):
        k = canonicalize(
            {"column_names": ["year", "title", "author", "short text description", "category"]}
        )
        assert len(k.column_info) == 5
        assert all(not c.fields() for c in k.column_info)

    def test_column_name_shorthand_with_fields(self):
        k = canonicalize({"column_name": "author", "distinct_count": 417})
        assert k.column_info == (ColumnKnowledge("author", distinct_count=417),)

    def test_empty_tree(self):
        assert canonicalize({}).is_empty

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="'table_size'"):
            canonicalize({"table_size": 3})

    def test_null_fields_dropped(self):
        k = canonicalize({"table_domain": None, "row_count": 98})
        assert k.table_domain is None
        assert k.row_count == 98

    def test_numeric_coercion_from_text(self):
        k = canonicalize({"row_count": "98", "column_name": "area", "min_value": "48.5"})
        assert k.row_count == 98
        assert k.column_info[0].min_value == 48.5

    def test_coercion_error(self):
        with pytest.raises(SchemaError, match="row_count"):
            canonicalize({"row_count": "many"})

    def test_stray_column_field_rejected(self):
        with pytest.raises(SchemaError, match="column_name"):
            canonicalize({"distinct_count": 5})

    def test_distinct_count_bounded_by_row_count(self):
        with pytest.raises(SchemaError, match="distinct_count"):
            canonicalize({"row_count": 10, "column_name": "author", "distinct_count": 417})

    def test_min_above_max_rejected(self):
        with pytest.raises(SchemaError, match="min_value"):
            canonicalize({"column_name": "year", "min_value": 2007, "max_value": 1921})

    def test_duplicate_columns_that_cannot_combine_keep_the_newest_fields(self):
        # min_value 5 and max_value 3 cannot hold together: the later entry's
        # fields replace the earlier ones under the first-seen name.
        k = canonicalize({"column_info": [
            {"column_name": "area", "min_value": 5},
            {"column_name": "area size", "max_value": 3},
        ]})
        assert [c.to_json_dict() for c in k.column_info] == [
            {"column_name": "area", "max_value": 3},
        ]
        with pytest.raises(SchemaError, match="min_value 5 exceeds max_value 3"):
            canonicalize({"column_name": "area", "min_value": 5, "max_value": 3})

    @pytest.mark.parametrize("raw, message", [
        ({"row_count": True}, "row_count: expected a non-negative integer, got True"),
        ({"row_count": 2.5}, "row_count: expected an integer, got 2.5"),
        ({"column_count": [3]}, "column_count: expected a non-negative integer, got [3]"),
        ({"row_count": -1}, "row_count: must be non-negative, got -1"),
        ({"column_name": "a", "min_value": True}, "min_value: expected a number, got True"),
        ({"column_name": "a", "max_value": "high"},
         "max_value: cannot coerce 'high' to a number"),
        ({"column_name": "a", "max_value": [1]}, "max_value: expected a number, got [1]"),
        ({"table_domain": 5}, "table_domain: expected text, got 5"),
        ({"column_info": [5]}, "column_info entries must be objects, got 5"),
        ({"column_info": [{"column_name": "a", "width": 3}]}, "unknown column key 'width'"),
        ({"column_info": [{"description": "x"}]}, "column entry is missing column_name"),
        ({"column_name": " "}, "column_name must be non-empty"),
        ({"column_name": "a", "values": "x"}, "values: expected a list, got 'x'"),
        ({"column_name": "a", "values": [[1], {"x": 2}]},
         "values: expected text or numbers, got [1]"),
        ({"column_name": "a", "values": ["b", {"x": 2}]},
         "values: expected text or numbers, got {'x': 2}"),
        ({"column_name": "a", "values": [None]}, "values: expected text or numbers, got None"),
        ({"column_name": "a", "values": [1, True]}, "values: expected text or numbers, got True"),
        ({"column_name": "a", "values": ["a", True]},
         "values: expected text or numbers, got True"),
        ({"column_name": "a", "values": ["a", None]},
         "values: expected text or numbers, got None"),
        ({"column_info": 5}, "column_info: expected a list, got 5"),
        (5, "expected a key/value tree, got int"),
        ([{"row_count": 3}, "x"], "expected objects, got 'x'"),
        ([{"row_count": 3}, {"column_name": "a", "distinct_count": 4}],
         "column 'a': distinct_count 4 exceeds row_count 3"),
    ], ids=["count-bool", "count-fraction", "count-list", "count-negative", "number-bool",
            "number-text", "number-list", "text", "entry-not-object", "entry-unknown-key",
            "entry-unnamed", "entry-blank-name", "values-not-list", "values-item-list",
            "values-item-object", "values-item-null", "values-item-bool",
            "values-text-then-bool", "values-text-then-null", "column-info-not-list",
            "not-a-tree", "fragment-not-object", "fragments-distinct-count"])
    def test_ill_typed_input_rejected(self, raw, message):
        with pytest.raises(SchemaError) as info:
            canonicalize(raw)
        assert str(info.value) == message

    def test_values_of_text_and_number_subclasses_are_accepted(self):
        class Text(str):
            pass

        class Count(int):
            pass

        values = [Text("north"), Count(3), "south", 2.5]
        k = canonicalize({"column_name": "a", "values": values})
        assert k.column_info[0].values == tuple(values)
        assert [type(v) for v in k.column_info[0].values] == [Text, Count, str, float]

    def test_integral_floats_read_as_integers(self):
        k = canonicalize({"row_count": 3.0, "column_name": "a", "min_value": 2.0, "max_value": 2.5})
        column = k.column_info[0]
        assert [(v, type(v)) for v in (k.row_count, column.min_value, column.max_value)] == [
            (3, int), (2, int), (2.5, float),
        ]

    def test_fragments_fold_in_order_as_one_tree(self):
        k = canonicalize((
            {"row_count": 3, "column_name": "area", "min_value": 5},
            {"row_count": 4, "column_names": ["name", "area size"]},
        ))
        assert k.to_json_dict() == {"row_count": 4, "column_info": [
            {"column_name": "area", "min_value": 5}, {"column_name": "name"},
        ]}
        assert canonicalize([]).is_empty

    def test_equivalent_duplicate_columns_folded(self):
        k = canonicalize(
            {"column_info": [
                {"column_name": "year"},
                {"column_name": "year of establishment", "min_value": 1921},
            ]}
        )
        assert len(k.column_info) == 1
        assert k.column_info[0].column_name == "year"
        assert k.column_info[0].min_value == 1921


class TestMerge:
    def test_create_into_empty(self):
        delta = canonicalize({"row_count": 98})
        merged = merge(EMPTY_KNOWLEDGE, plan_ops(assess(EMPTY_KNOWLEDGE, delta)))
        assert merged == delta

    def test_corrected_column_list_wins(self):
        kb = canonicalize(
            {"column_names": ["year", "title", "author", "short text description"]}
        )
        delta = canonicalize(
            {"column_names": ["year", "title", "author", "short text description", "category"]}
        )
        merged = merge(kb, plan_ops(assess(kb, delta)))
        assert [c.column_name for c in merged.column_info] == [
            "year", "title", "author", "short text description", "category"
        ]

    def test_empty_delta_is_identity(self):
        kb = canonicalize({"table_domain": "media", "row_count": 500})
        assert merge(kb, []) == kb

    def test_partial_match_enriches_column(self):
        kb = canonicalize({"column_names": ["author"]})
        delta = canonicalize({"column_name": "author", "distinct_count": 417})
        merged = merge(kb, plan_ops(assess(kb, delta)))
        assert merged.column_info[0].distinct_count == 417

    def test_conflict_newest_value_wins(self):
        kb = canonicalize({"row_count": 500})
        delta = canonicalize({"row_count": 98})
        merged = merge(kb, plan_ops(assess(kb, delta)))
        assert merged.row_count == 98

    def test_two_updates_of_one_column_that_cannot_combine_keep_the_newest(self):
        kb = canonicalize({"column_names": ["area"]})
        delta = canonicalize({"column_info": [
            {"column_name": "area size", "min_value": 4},
            {"column_name": "area total", "max_value": 2},
        ]})
        merged, outcomes, _ = commit(kb, delta)
        assert [o.verdict for o in outcomes] == [Verdict.PARTIAL_MATCH] * 2
        assert [c.to_json_dict() for c in merged.column_info] == [
            {"column_name": "area", "max_value": 2},
        ]


# One factory per record type; two calls build equal records that are not
# the same object.
RECORDS = {
    "ColumnKnowledge": lambda: ColumnKnowledge("area", "total area", [1, 2.5], 2, 1, 2.5),
    "GroundedKnowledge": lambda: GroundedKnowledge(
        "geography", None, 98, 1, [ColumnKnowledge("park name")]
    ),
    "FactKey": lambda: FactKey("column", "area"),
    "Fact": lambda: Fact(FactKey("row_count"), 5),
    "Turn": lambda: Turn(1, Role.SEEKER, "hi"),
    "Dialogue": lambda: Dialogue("d", "media", [Turn(1, Role.SEEKER, "hi")]),
    "GoldAnnotation": lambda: GoldAnnotation(
        2, GroundingLabel.EXPLICIT, GroundedKnowledge(row_count=5)
    ),
    "AssessmentOutcome": lambda: AssessmentOutcome(
        Fact(FactKey("row_count"), 5), Verdict.MATCH, FactKey("row_count")
    ),
    "GraphOp": lambda: GraphOp(OpKind.UPDATE_NODE, FactKey("row_count"), 5),
    "TurnTrace": lambda: TurnTrace(
        3, GroundingLabel.IMPLICIT, EMPTY_KNOWLEDGE,
        (GraphOp(OpKind.CREATE_NODE, FactKey("row_count"), 5),),
    ),
    "GroundingState": lambda: GroundingState(
        GroundedKnowledge(row_count=5), EMPTY_KNOWLEDGE,
        (TurnTrace(1, GroundingLabel.NO_EVENT, EMPTY_KNOWLEDGE),),
    ),
    "TurnResult": lambda: TurnResult(
        "d", 1, GroundingLabel.EXPLICIT, GroundingLabel.IMPLICIT, KnowledgeVerdict.EQUIVALENT
    ),
    "EvalReport": lambda: EvalReport([
        TurnResult("d", 1, GroundingLabel.EXPLICIT, GroundingLabel.EXPLICIT,
                   KnowledgeVerdict.NO_GOLD),
    ]),
    "CompletionRequest": lambda: CompletionRequest(
        "model", [ChatMessage(MessageRole.USER, "hi")], 0.5, 16
    ),
    "CompletionResult": lambda: CompletionResult("Output label: explicit", True),
    "ChatMessage": lambda: ChatMessage(MessageRole.SYSTEM, "be brief"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_and_print_by_their_fields(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    fields = list(inspect.signature(type(a)).parameters)
    assert repr(a) == f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
    assert repr(a) == repr(b)
    assert pickle.loads(pickle.dumps(a)) == a
    for other_name, make in RECORDS.items():
        if other_name != name:
            assert a != make() and not a == make()
    if name == "EvalReport":
        with pytest.raises(TypeError):
            hash(a)  # its field is a list
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[-1]))
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b


def test_records_of_different_classes_with_equal_fields_differ():
    key, result = FactKey("column", "area"), CompletionResult("column", "area")
    assert key != result and result != key
    assert hash(key) == hash(result)  # the field tuples' hash, which a dict tolerates
    assert len({key, result}) == 2
