"""Property-based checks of the knowledge and assessment algebra."""

import itertools
import math
import re
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from convground import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    Fact,
    FactKey,
    GroundedKnowledge,
    GroundingState,
    OpKind,
    Verdict,
    assess,
    canonicalize,
    commit,
    fact_equivalent,
    facts,
    knowledge_equivalent,
    knowledge_from_facts,
    present,
    terms_equivalent,
)
from convground.judge import _lists_equivalent
from convground.knowledge import (
    STOPWORDS,
    KeyIndex,
    _texts_equivalent,
    indexed_facts,
    normalize_term,
)
from convground.matching import perfect_matching

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


@given(knowledge(), knowledge())
@settings(max_examples=300, deadline=None)
def test_presenting_a_delta_twice_equals_presenting_it_once(pending, delta):
    # The law under which presenting a turn's facts once (as engine.step
    # does) leaves outputs as presenting them twice did. It needs names that
    # share no token: over overlapping names (ROADMAP item 5) pending
    # {area total, size, 2020} and delta {total, %, Area} break it, since
    # "Area" replaces the column that "total" matched, and the second
    # presentation adds "total".
    once = present(GroundingState(pending=pending), delta)
    assert present(once, delta) == once


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


def regex_normalize_term(term):
    """The reference ``normalize_term``: units and numbers dropped by regex."""
    tokens = re.sub(r"[^0-9a-z%]+", " ", term.lower()).split()
    return frozenset(
        t for t in tokens
        if t not in STOPWORDS
        and not re.match(r"^(?:km2|m2|kg|km|m|%)$", t)
        and not re.match(r"^\d+(?:[.,]\d+)?$", t)
    )


@given(st.one_of(
    st.text(),
    st.sampled_from(POOL_NAMES),
    st.text(alphabet="0123456789.,% kmgKM2aréİ٣\n", max_size=20),
    # Long runs of digits, letters and "%".
    st.text(alphabet="0123456789a% ", max_size=200),
))
@settings(max_examples=500)
def test_normalize_term_agrees_with_the_regex_reference(term):
    assert normalize_term(term) == regex_normalize_term(term)


POOL_KEYS = st.one_of(
    st.just(FactKey("row_count")),
    st.sampled_from(POOL_NAMES).map(lambda n: FactKey("column", n)),
)
INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("keep"), POOL_KEYS),
        st.tuples(st.just("find"), POOL_KEYS),
        st.tuples(st.just("discard"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("copy"), st.none()),
    ),
    max_size=30,
)


def check_index_against(index, slots):
    """``index`` holds the live keys of ``slots`` (None once discarded) exactly,
    and finds the first live equivalent one for every pool key."""
    assert index.exact == {key: i for i, key in enumerate(slots) if key is not None}
    for probe in [FactKey("row_count"), *(FactKey("column", n) for n in POOL_NAMES)]:
        first = next(
            (i for i, key in enumerate(slots)
             if key is not None and pool_keys_equivalent(key, probe)),
            None,
        )
        assert min(index.matches(probe), default=None) == first


@given(INDEX_OPS)
@settings(max_examples=300)
def test_key_index_returns_first_live_equivalent_position(ops):
    index = KeyIndex()
    slots = []  # the oracle: the key at each position, None once discarded
    copied_from = []  # (index, slots) at each copy, which the copy must not change
    for op, arg in ops:
        if op == "copy":
            copied_from.append((index, slots.copy()))
            index = index.copy()
            continue
        if op == "discard":
            live = [i for i, key in enumerate(slots) if key is not None]
            if live:
                i = live[arg % len(live)]
                index.discard(slots[i])
                slots[i] = None
            continue
        first = next(
            (i for i, key in enumerate(slots)
             if key is not None and pool_keys_equivalent(key, arg)),
            None,
        )
        if op == "find":
            assert min(index.matches(arg), default=None) == first
            continue
        if first is None:
            first = len(slots)
            slots.append(arg)
        assert index.add(arg) == first
    check_index_against(index, slots)
    for original, original_slots in copied_from:
        check_index_against(original, original_slots)


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


# POOL_NAMES and names that share no term with any other name, so that a
# tree's names may all have terms and share none (nothing can fold), or not.
FOLD_NAMES = st.sampled_from((*POOL_NAMES, "river", "novel", "height in m"))


@given(st.lists(st.tuples(
    st.sampled_from(("row_count", "table_domain", None)),
    st.lists(st.tuples(FOLD_NAMES, st.integers(min_value=0, max_value=9)), max_size=3),
), min_size=1, max_size=3))
@example([("row_count", [("river", 1), ("height in m", 2), ("area size", 3)])])
@example([(None, [("2020", 1), ("river", 2)]), ("table_domain", [("2020", 3)])])
@example([(None, [("%", 1), ("2020", 2)])])
@settings(max_examples=300)
def test_canonicalize_is_the_fold_of_its_fragments_facts(fragments):
    # Scalars, then columns, fragment by fragment, through one fold.
    trees, fact_list = [], []
    for n, (scalar, entries) in enumerate(fragments):
        tree = {"column_info": [{"column_name": name, "max_value": count}
                                for name, count in entries]}
        if scalar is not None:
            tree[scalar] = n if scalar == "row_count" else f"domain {n}"
            fact_list.append(Fact(FactKey(scalar), tree[scalar]))
        fact_list.extend(Fact(FactKey("column", name), ColumnKnowledge(name, max_value=count))
                         for name, count in entries)
        trees.append(tree)
    expected = knowledge_from_facts(fact_list)
    kb = canonicalize(trees)
    assert (repr(kb), kb._carried) == (repr(expected), None)


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
# empty (so only == matches it), the numbers it must not match, and one NaN
# object, equal only to itself.
LIST_VALUES = st.sampled_from(
    ("area", "Area", "area size", "area total", "size", "12", "12.0", 12, 12.0, math.nan)
)


def scalars_equivalent(a, b):
    """The rule for two list values, applied pair by pair: text by
    ``_texts_equivalent``, anything else when identical or ``==``, never text
    against a non-string."""
    if isinstance(a, str) and isinstance(b, str):
        return _texts_equivalent(a, b)
    if isinstance(a, str) or isinstance(b, str):
        return False
    return a is b or a == b


@given(st.lists(LIST_VALUES, max_size=6), st.lists(LIST_VALUES, max_size=6))
@settings(max_examples=200)
def test_lists_equivalent_agrees_with_brute_force(a, b):
    expected = len(a) == len(b) and any(
        all(scalars_equivalent(x, y) for x, y in zip(a, order))
        for order in itertools.permutations(b)
    )
    assert _lists_equivalent(a, b) == expected


# Values of one content word: case and punctuation variants, and a word
# of a letter and a digit.
ONE_WORDS = st.sampled_from((
    "sotamo", "Sotamo.", "SOTAMO", "(sotamo)", "caf", "Caf!", "k", "K.", "x1", "X1.",
))
# The same, and the edges of that rule, most in two forms: stopwords,
# units, a number, "%" alone and inside a token, non-ASCII text (the
# Kelvin sign, which lower-cases to "k", a mark around a word, "é" ending
# the token "caf", a letter inside a word), a line break or a space inside
# a value, a space around a word, text without a token, and values that
# are not text.
ONE_WORD_EDGES = st.one_of(ONE_WORDS, st.sampled_from((
    "The", "the.", "of.", "KM2", "km2", "m.", "M", "12", "12.", "%", "50%", "k%",
    "\u212a", "«Sotamo»", "café", "CAFÉ", "naïve", "NA VE", "sotamo\ncaf", "sotamo caf",
    " caf", "", ".", 12, math.nan,
)))


@st.composite
def one_word_list_pairs(draw):
    """Two lists, of one-word values or of edge values: the second drawn
    freely, or a shuffle of the first with up to two values swapped for
    edge values."""
    values = draw(st.sampled_from((ONE_WORDS, ONE_WORD_EDGES)))
    a = draw(st.lists(values, max_size=6))
    if draw(st.booleans()):
        return a, draw(st.lists(values, min_size=len(a), max_size=len(a)))
    b = list(draw(st.permutations(a)))
    for k, value in draw(st.lists(st.tuples(st.integers(0, 5), ONE_WORD_EDGES), max_size=2)):
        if k < len(b):
            b[k] = value
    return a, b


@given(one_word_list_pairs())
@example((["The"], ["the."]))
@example((["12"], ["12."]))
@example((["k%"], ["K"]))
@example((["sotamo\ncaf"], ["Caf!"]))
@example((["café"], ["CAF"]))
@settings(max_examples=300)
def test_one_word_lists_agree_with_brute_force(pair):
    a, b = pair
    expected = any(
        all(scalars_equivalent(x, y) for x, y in zip(a, order))
        for order in itertools.permutations(b)
    )
    assert _lists_equivalent(a, b) == expected


@st.composite
def long_list_pairs(draw):
    """A list of 16-256 pool values, and a shuffle of it with a few values
    swapped for other pool values, so both verdicts are common."""
    a = draw(st.lists(LIST_VALUES, min_size=16, max_size=256))
    b = list(draw(st.permutations(a)))
    for k, value in draw(st.lists(st.tuples(st.integers(0, len(b) - 1), LIST_VALUES), max_size=3)):
        b[k] = value
    return a, b


def unkeyed(_):
    """A key that never repeats, so that the search makes every pair."""
    return object()


def checked_keyed_matching(left, right, key, eq):
    """``perfect_matching`` under the judge's key, checked against the same
    matching under a key that never repeats."""
    found = perfect_matching(left, right, key, eq)
    assert found == perfect_matching(left, right, unkeyed, eq)
    return found


@given(long_list_pairs())
@settings(max_examples=150, deadline=None)
def test_a_keyed_list_match_agrees_with_an_unkeyed_one(pair):
    with mock.patch("convground.judge.perfect_matching", checked_keyed_matching):
        _lists_equivalent(*pair)


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


def rebuilt(knowledge):
    """``knowledge`` built afresh through the constructor, which indexes it
    and checks its names."""
    return GroundedKnowledge(
        knowledge.table_domain, knowledge.table_content, knowledge.row_count,
        knowledge.column_count, knowledge.column_info,
    )


POOL_KNOWLEDGE = st.lists(pool_column(), max_size=4).map(
    lambda entries: canonicalize({"column_info": entries})
)


@st.composite
def pool_knowledge_pairs(draw):
    """Two knowledge objects over the pool: the second often the first's
    columns reordered, with a name or two swapped for other pool names."""
    entries = draw(st.lists(pool_column(), max_size=4))
    if draw(st.booleans()):
        others = draw(st.lists(pool_column(), max_size=4))
    else:
        others = list(draw(st.permutations(entries)))
        for k, name in draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(POOL_NAMES)),
                                     max_size=2)):
            if k < len(others):
                others[k] = {**others[k], "column_name": name}
    return canonicalize({"column_info": entries}), canonicalize({"column_info": others})


@given(pool_knowledge_pairs())
@settings(max_examples=500, deadline=None)
def test_a_keyed_fact_match_agrees_with_an_unkeyed_one(pair):
    a, b = pair
    expected = perfect_matching(facts(a), facts(b), unkeyed, fact_equivalent)
    with mock.patch("convground.judge.perfect_matching", checked_keyed_matching):
        assert knowledge_equivalent(a, b) == expected


@given(POOL_KNOWLEDGE, POOL_KNOWLEDGE)
@settings(max_examples=500, deadline=None)
def test_commit_over_overlapping_names_targets_exact_keys(kb, delta):
    # Bounds that cannot combine (a minimum above a maximum) meet both in
    # canonicalize and in commit; neither raises.
    result, _, ops = commit(kb, delta)
    # Results built without the constructor's equivalent-name check pass it.
    folded = knowledge_from_facts([*facts(kb), *facts(delta)])
    for trusted in (kb, delta, result, folded):
        assert rebuilt(trusted) == trusted
    kb_keys = {f.key for f in facts(kb)}
    targets = [op.target for op in ops if op.op is not OpKind.CREATE_NODE]
    assert set(targets) <= kb_keys
    removed = [op.target for op in ops if op.op is OpKind.REMOVE_NODE]
    assert len(removed) == len(set(removed))
    merged, outcomes, _ = commit(kb, kb)
    assert merged == kb
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert knowledge_equivalent(kb, kb)


@given(POOL_KNOWLEDGE, POOL_KNOWLEDGE)
@settings(max_examples=300, deadline=None)
def test_commit_leaves_the_index_of_its_knowledge_base_unchanged(kb, delta):
    keys = [FactKey("row_count"), *(FactKey("column", n) for n in POOL_NAMES)]
    before = [min(indexed_facts(kb)[1].matches(key), default=None) for key in keys]
    commit(kb, delta)
    assert [min(indexed_facts(kb)[1].matches(key), default=None) for key in keys] == before


def check_carried_against_a_fresh_build(kb):
    carried_facts, carried = kb._carried
    assert {f.key: f for f in carried_facts.values()} == {f.key: f for f in facts(kb)}
    assert len(carried_facts) == len(facts(kb))
    # Columns hold positions in their order, so the lowest equivalent
    # position is the first equivalent column.
    columns = [f for _, f in sorted(carried_facts.items()) if f.key.field == "column"]
    assert columns == [f for f in facts(kb) if f.key.field == "column"]
    assert carried._sizes.keys() == carried_facts.keys()
    assert carried.exact == {f.key: i for i, f in carried_facts.items()}
    # The constructor indexes the same knowledge afresh and would raise on
    # columns with equivalent names.
    fresh = rebuilt(kb)
    fresh_facts, index = indexed_facts(fresh)
    pool_keys = [FactKey("row_count"), *(FactKey("column", n) for n in POOL_NAMES)]
    for key in pool_keys + [f.key for f in facts(kb)]:
        i, j = min(carried.matches(key), default=None), min(index.matches(key), default=None)
        assert (i is None) == (j is None)
        if i is not None:
            assert carried_facts[i].key == fresh_facts[j].key


@given(POOL_KNOWLEDGE, st.lists(POOL_KNOWLEDGE, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_merge_result_carries_the_facts_and_index_of_a_fresh_build(kb, deltas):
    for delta in deltas:
        result = commit(kb, delta)[0]
        carried = indexed_facts(result)
        check_carried_against_a_fresh_build(result)
        assert indexed_facts(result) is carried
        # A fold of the same facts carries its index as well.
        check_carried_against_a_fresh_build(
            knowledge_from_facts([*facts(kb), *facts(delta)])
        )
        kb = result


@given(POOL_KNOWLEDGE, st.lists(POOL_KNOWLEDGE, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_no_two_live_keys_of_a_merge_result_are_equivalent(kb, deltas):
    # The exact-key lookup rests on this: a probe equal to a live key
    # matches no other live key.
    for delta in deltas:
        kb = commit(kb, delta)[0]
        placed, index = indexed_facts(kb)
        keys = [f.key for f in placed.values()]
        assert not any(
            pool_keys_equivalent(a, b) for a, b in itertools.combinations(keys, 2)
        )
        assert index.exact == {f.key: i for i, f in placed.items()}
