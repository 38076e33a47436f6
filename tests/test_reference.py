"""Differential tests: the package's commit path, engine and judge agree with
``tests/reference.py``, a plain model of the same rules. The algebraic laws
are stated here too on the wide tables these tests draw.

A disagreement means one side breaks a rule the README states; neither
side is adjusted to the other without saying which rule was wrong.
"""

import importlib.util
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
from convground import (
    EMPTY_KNOWLEDGE,
    Dialogue,
    GoldAnnotation,
    GroundingLabel,
    Role,
    SchemaError,
    Turn,
    Verdict,
    assess,
    canonicalize,
    commit,
    facts,
    knowledge_equivalent,
    knowledge_from_facts,
    process_dialogue,
)
from convground.judge import _lists_equivalent
from test_commit_digest import PINNED
from test_properties import (
    LIST_VALUES,
    OVERLAPPING_NAMES,
    POOL_NAMES,
    pool_column,
    pool_knowledge_pairs,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("commit_digest", ROOT / "scripts" / "commit_digest.py")
commit_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(commit_digest)


def reference_commit(kb, delta):
    result, outcomes, ops = reference.commit(kb, delta)
    return result, [result, outcomes, ops]


def test_the_reference_reproduces_the_pinned_commit_digest():
    found = commit_digest.digest(
        reference.canonicalize, reference_commit, reference.SchemaError, seed=1, cases=500
    )
    assert found == (PINNED, 103)


def canonical(raw):
    """``raw`` canonicalized by the package and by the reference, or None
    when both reject it."""
    try:
        tree = reference.canonicalize(raw)
    except reference.SchemaError:
        with pytest.raises(SchemaError):
            canonicalize(raw)
        return None
    knowledge = canonicalize(raw)
    assert knowledge.to_json_dict() == tree
    return knowledge, tree


def check_chain(raw_kb, raw_deltas):
    """Commit each delta in turn to the result of the commit before, by the
    package and by the reference, and compare results, outcomes and ops."""
    pair = canonical(raw_kb)
    if pair is None:
        return
    kb, tree = pair
    for raw in raw_deltas:
        pair = canonical(raw)
        if pair is None:
            continue
        kb, digested = commit_digest.outcome_of(commit, kb, pair[0])
        tree, outcomes, ops = reference.commit(tree, pair[1])
        assert digested == [tree, outcomes, ops]


POOL_TREES = st.lists(pool_column(), max_size=4).map(lambda entries: {"column_info": entries})


@given(POOL_TREES, st.lists(POOL_TREES, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_commit_chains_over_overlapping_names_agree(raw_kb, raw_deltas):
    check_chain(raw_kb, raw_deltas)


def wide_tree(rng, names):
    """A table of a column for each of ``names``, with the digest's random
    fields, each column's own bounds ordered, and sometimes a row count no
    distinct count exceeds."""
    columns = []
    for name in names:
        column = {**commit_digest.random_column(rng), "column_name": name}
        if not reference.ordered(column):
            column["min_value"], column["max_value"] = column["max_value"], column["min_value"]
        columns.append(column)
    tree = {"column_info": columns}
    if rng.random() < 0.2:
        tree["row_count"] = rng.randint(5, 9)
    return tree


@pytest.mark.parametrize("seed", range(20))
def test_commit_chains_over_wide_tables_agree(seed):
    # Odd seeds draw names that share the token "name": "name 3" and "name"
    # match every name holding "name", and "w3" matches "name 3 w3" only.
    # Even seeds draw names of one token each, in two spellings ("c3", "C3").
    rng = random.Random(seed)
    n = rng.randint(10, 100)
    if seed % 2:
        pool = [f"name {i} w{i}" for i in range(n)] + [f"name {i}" for i in range(n)]
        pool += [f"w{i}" for i in range(n)] + ["name"]
    else:
        pool = [f"c{i}" for i in range(n)] + [f"C{i}" for i in range(n)]
    trees = [wide_tree(rng, rng.sample(pool, rng.randint(10, n))) for _ in range(4)]
    check_chain(trees[0], trees[1:])


@pytest.mark.parametrize("seed", range(5))
def test_the_laws_hold_on_wide_tables(seed):
    # Idempotence, absorption and commutation of key-disjoint deltas, which
    # test_properties.py states on at most 4 columns, on 100-column tables
    # whose names share no token, against a delta that restates most of them.
    rng = random.Random(seed)
    names = [f"k{i}" for i in range(100)]
    kb = canonicalize(wide_tree(rng, names))
    delta = canonicalize(wide_tree(rng, rng.sample(names, rng.randint(50, 100))))
    merged = commit(kb, delta)[0]
    again, outcomes, _ = commit(merged, delta)
    assert again == merged
    assert all(o.verdict is Verdict.MATCH for o in outcomes)
    assert all(o.verdict is Verdict.MATCH for o in assess(merged, delta))
    left, right = [], []
    for fact in facts(kb):
        rng.choice((left, right)).append(fact)
    d1, d2 = knowledge_from_facts(left), knowledge_from_facts(right)
    one = commit(commit(EMPTY_KNOWLEDGE, d1)[0], d2)[0]
    other = commit(commit(EMPTY_KNOWLEDGE, d2)[0], d1)[0]
    assert knowledge_equivalent(one, other)
    assert knowledge_equivalent(one, kb)


def engine_facts(rng):
    """A delta of the digest's random knowledge, or of columns over names
    that overlap without transitivity with a maximum that often disagrees,
    so that a conflict retires a column that an earlier fact matched."""
    if rng.random() < 0.5:
        return commit_digest.random_knowledge(rng)
    columns = [{"column_name": name} for name in rng.sample(OVERLAPPING_NAMES, rng.randint(1, 4))]
    for column in columns:
        if rng.random() < 0.6:
            column["max_value"] = rng.randint(0, 2)
    return {"column_info": columns}


def test_the_engine_agrees_with_the_reference_loop():
    rng = random.Random(11)
    # Providers who clarify before they accept stage facts across turns. A
    # gold annotation never carries no-event; a turn without one steps as
    # no-event with no facts.
    roles = [Role.PROVIDER, Role.PROVIDER, Role.SEEKER]
    labels = [GroundingLabel.EXPLICIT, GroundingLabel.IMPLICIT, GroundingLabel.CLARIFICATION,
              GroundingLabel.CLARIFICATION]
    for number in range(1000):
        turns, annotations, reference_turns = [], [], []
        for index in range(1, rng.randint(2, 8) + 1):
            role, label = rng.choice(roles), rng.choice(labels)
            pair = canonical(engine_facts(rng)) or (EMPTY_KNOWLEDGE, {})
            turns.append(Turn(index, role, f"turn {index}"))
            if rng.random() < 0.2:
                reference_turns.append((role.value, "no_event", {}))
                continue
            annotations.append(GoldAnnotation(index, label, pair[0]))
            reference_turns.append((role.value, label.value, pair[1]))
        state = process_dialogue(Dialogue(f"d{number}", "tables", turns), annotations)
        grounded, pending, history = reference.process(reference_turns)
        assert state.grounded.to_json_dict() == grounded
        assert state.pending.to_json_dict() == pending
        assert [[op.to_json_dict() for op in t.ops] for t in state.history] == history


@given(pool_knowledge_pairs())
@settings(max_examples=500, deadline=None)
def test_knowledge_equivalent_agrees_with_the_reference_judge(pair):
    a, b = pair
    assert knowledge_equivalent(a, b) == reference.equivalent(a.to_json_dict(), b.to_json_dict())


LIST_POOL = st.one_of(LIST_VALUES, st.sampled_from(POOL_NAMES))


@given(st.lists(LIST_POOL, max_size=8), st.lists(LIST_POOL, max_size=8))
@settings(max_examples=300)
def test_lists_equivalent_agrees_with_the_reference_judge(a, b):
    assert _lists_equivalent(a, b) == reference.values_equivalent("values", a, b)
