"""Property-based checks of the knowledge and assessment algebra."""

import dataclasses
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from convground import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    FactKey,
    GroundedKnowledge,
    OpKind,
    Verdict,
    assess,
    canonicalize,
    commit,
    facts,
    knowledge_equivalent,
    knowledge_from_facts,
    terms_equivalent,
)
from convground.knowledge import KeyIndex, _lists_equivalent, _texts_equivalent

# Single-word names from disjoint vocabularies so that no two generated
# columns ever have equivalent names.
COLUMN_NAMES = ("height", "river", "novel", "climate", "painter", "budget")
WORDS = st.sampled_from(
    ("museum", "park", "index", "title", "region", "development", "summary")
)
PHRASES = st.lists(WORDS, min_size=1, max_size=4).map(" ".join)
SCALARS = st.one_of(st.integers(min_value=0, max_value=5000), WORDS)


@st.composite
def columns(draw, name):
    kwargs = {"column_name": name}
    if draw(st.booleans()):
        kwargs["description"] = draw(PHRASES)
    if draw(st.booleans()):
        kwargs["values"] = tuple(draw(st.lists(SCALARS, min_size=1, max_size=4)))
    if draw(st.booleans()):
        kwargs["distinct_count"] = draw(st.integers(min_value=1, max_value=10))
    if draw(st.booleans()):
        low = draw(st.integers(min_value=0, max_value=100))
        kwargs["min_value"] = low
        kwargs["max_value"] = low + draw(st.integers(min_value=0, max_value=100))
    return ColumnKnowledge(**kwargs)


@st.composite
def knowledge(draw):
    kwargs = {}
    if draw(st.booleans()):
        kwargs["table_domain"] = draw(WORDS)
    if draw(st.booleans()):
        kwargs["table_content"] = draw(PHRASES)
    if draw(st.booleans()):
        kwargs["row_count"] = draw(st.integers(min_value=10, max_value=1000))
    if draw(st.booleans()):
        kwargs["column_count"] = draw(st.integers(min_value=0, max_value=12))
    names = draw(
        st.lists(st.sampled_from(COLUMN_NAMES), unique=True, max_size=4)
    )
    info = tuple(draw(columns(name)) for name in names)
    return GroundedKnowledge(column_info=info, **kwargs)


@given(knowledge())
@settings(max_examples=200)
def test_canonicalize_idempotent(kb):
    once = canonicalize(kb.to_json_dict())
    assert once == kb
    assert canonicalize(once.to_json_dict()) == once


@given(knowledge())
@settings(max_examples=200)
def test_fact_decomposition_round_trips(kb):
    assert knowledge_from_facts(facts(kb)) == kb


@given(knowledge())
@settings(max_examples=200)
def test_self_assessment_all_match(kb):
    outcomes = assess(kb, kb)
    assert len(outcomes) == len(facts(kb))
    assert all(o.verdict is Verdict.MATCH for o in outcomes)


@given(knowledge(), knowledge())
@settings(max_examples=500, deadline=None)
def test_merge_idempotent(kb, delta):
    merged, _, _ = commit(kb, delta)
    again, outcomes, _ = commit(merged, delta)
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert again == merged


@given(knowledge(), st.integers())
@settings(max_examples=500, deadline=None)
def test_merge_of_disjoint_deltas_commutes(kb, seed):
    # Split the facts into two key-disjoint deltas; commit order must not
    # affect the result.
    fact_list = facts(kb)
    left = [f for i, f in enumerate(fact_list) if (seed >> i) & 1]
    right = [f for i, f in enumerate(fact_list) if not (seed >> i) & 1]
    d1 = knowledge_from_facts(left)
    d2 = knowledge_from_facts(right)
    one, _, _ = commit(commit(EMPTY_KNOWLEDGE, d1)[0], d2)
    other, _, _ = commit(commit(EMPTY_KNOWLEDGE, d2)[0], d1)
    assert knowledge_equivalent(one, other)
    assert knowledge_equivalent(one, kb)


@given(knowledge(), knowledge())
@settings(max_examples=200, deadline=None)
def test_committed_delta_is_absorbed(kb, delta):
    merged, _, _ = commit(kb, delta)
    assert all(o.verdict is Verdict.MATCH for o in assess(merged, delta))


@given(PHRASES)
def test_terms_equivalent_reflexive_on_contentful_terms(term):
    assert terms_equivalent(term, term)


@given(st.text(max_size=30), st.text(max_size=30))
def test_terms_equivalent_symmetric(a, b):
    assert terms_equivalent(a, b) == terms_equivalent(b, a)


# Overlapping names: "area" is equivalent to "area size" and to "area total",
# which are not equivalent to each other, so the first match decides.
OVERLAPPING = st.sampled_from(("area", "area size", "area total", "size", "total"))


def overlap(a, b):
    """Reference equivalence for OVERLAPPING names: one token set contains the other."""
    ta, tb = set(a.split()), set(b.split())
    return ta <= tb or tb <= ta


# Names that overlap without transitivity, differ only in case, or have no
# content tokens at all ("2020", "%"), so only == makes them equivalent.
POOL_NAMES = ("area", "area size", "area total", "size", "total", "Area", "2020", "%")


def pool_keys_equivalent(a, b):
    """Reference key equivalence for POOL_NAMES: equal keys, or column names
    whose non-empty sets of lowercased words (numbers and "%" dropped) nest."""
    if a.field != b.field:
        return False
    if a == b or a.field != "column":
        return True
    ta = {w for w in a.column.lower().split() if w.isalpha()}
    tb = {w for w in b.column.lower().split() if w.isalpha()}
    return bool(ta) and bool(tb) and (ta <= tb or tb <= ta)


POOL_KEYS = st.one_of(
    st.just(FactKey("row_count")),
    st.sampled_from(POOL_NAMES).map(lambda n: FactKey("column", n)),
)
INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), POOL_KEYS),
        st.tuples(st.just("find"), POOL_KEYS),
        st.tuples(st.just("discard"), st.integers(min_value=0, max_value=20)),
    ),
    max_size=30,
)


@given(INDEX_OPS)
@settings(max_examples=300)
def test_key_index_returns_first_live_equivalent_position(ops):
    index = KeyIndex()
    slots = []  # the oracle: the key at each position, None once discarded
    for op, arg in ops:
        if op == "discard":
            live = [i for i, key in enumerate(slots) if key is not None]
            if live:
                i = live[arg % len(live)]
                index.discard(i)
                slots[i] = None
            continue
        first = next(
            (i for i, key in enumerate(slots)
             if key is not None and pool_keys_equivalent(key, arg)),
            None,
        )
        if op == "find":
            assert index.find(arg) == first
            continue
        if first is None:
            first = len(slots)
            slots.append(arg)
        assert index.add(arg) == first


@given(st.lists(st.tuples(OVERLAPPING, st.integers(min_value=0, max_value=9)), max_size=6))
def test_canonicalize_folds_like_first_match_fold(entries):
    folded = []  # [name, distinct_count], first-seen name kept
    for name, count in entries:
        slot = next((s for s in folded if overlap(s[0], name)), None)
        if slot is None:
            folded.append([name, count])
        else:
            slot[1] = count
    kb = canonicalize({"column_info": [
        {"column_name": name, "distinct_count": count} for name, count in entries
    ]})
    assert [[c.column_name, c.distinct_count] for c in kb.column_info] == folded


@given(st.lists(OVERLAPPING, max_size=5))
def test_constructor_rejects_exactly_equivalent_pairs(names):
    has_pair = any(
        overlap(a, b) for i, a in enumerate(names) for b in names[i + 1:]
    )
    columns = tuple(ColumnKnowledge(name) for name in names)
    if has_pair:
        with pytest.raises(ValueError, match="equivalent names"):
            GroundedKnowledge(column_info=columns)
    else:
        assert GroundedKnowledge(column_info=columns).column_info == columns


# Overlapping terms with repeats, plus numeric-only text whose token set is
# empty (so only == matches it) and the numbers it must not match.
LIST_VALUES = st.sampled_from(
    ("area", "Area", "area size", "area total", "size", "12", "12.0", 12, 12.0)
)


def scalars_equivalent(a, b):
    """The rule for two list values, applied pair by pair: text by
    ``_texts_equivalent``, anything else by ``==``, never text against a
    non-string."""
    if isinstance(a, str) and isinstance(b, str):
        return _texts_equivalent(a, b)
    if isinstance(a, str) or isinstance(b, str):
        return False
    return a == b


@given(st.lists(LIST_VALUES, max_size=6), st.lists(LIST_VALUES, max_size=6))
@settings(max_examples=200)
def test_lists_equivalent_agrees_with_brute_force(a, b):
    expected = len(a) == len(b) and any(
        all(scalars_equivalent(x, y) for x, y in zip(a, order))
        for order in itertools.permutations(b)
    )
    assert _lists_equivalent(a, b) == expected


@st.composite
def pool_column(draw):
    entry = {"column_name": draw(st.sampled_from(POOL_NAMES))}
    if draw(st.booleans()):
        entry["min_value"] = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        entry["max_value"] = draw(st.integers(min_value=entry.get("min_value", 0), max_value=3))
    if draw(st.booleans()):
        entry["description"] = draw(st.sampled_from(("area", "total area", "size", "%")))
    if draw(st.booleans()):
        entry["values"] = draw(st.lists(st.sampled_from(POOL_NAMES), max_size=2))
    return entry


POOL_KNOWLEDGE = st.lists(pool_column(), max_size=4).map(
    lambda entries: canonicalize({"column_info": entries})
)


@given(POOL_KNOWLEDGE, POOL_KNOWLEDGE)
@settings(max_examples=500, deadline=None)
def test_commit_over_overlapping_names_targets_exact_keys(kb, delta):
    # Bounds that cannot combine (a minimum above a maximum) meet both in
    # canonicalize and in commit; neither raises.
    result, _, ops = commit(kb, delta)
    # Results built without the constructor's equivalent-name check pass it.
    folded = knowledge_from_facts([*facts(kb), *facts(delta)])
    for trusted in (kb, delta, result, folded):
        assert dataclasses.replace(trusted) == trusted
    kb_keys = {f.key for f in facts(kb)}
    targets = [op.target for op in ops if op.op is not OpKind.CREATE_NODE]
    assert set(targets) <= kb_keys
    removed = [op.target for op in ops if op.op is OpKind.REMOVE_NODE]
    assert len(removed) == len(set(removed))
    merged, outcomes, _ = commit(kb, kb)
    assert merged == kb
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert knowledge_equivalent(kb, kb)
