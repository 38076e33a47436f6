"""The equivalence judge: whether two values, facts or knowledge objects say the same.

Each schema field has one value rule (:func:`_field_values_equivalent`):
text compares through the token sets of its surface terms (see
:func:`convground.knowledge.terms_equivalent`), ``values`` lists as
multisets, columns field by field, and anything else when identical or
``==``. Facts and knowledge objects are equivalent when their parts pair
one to one (:func:`convground.matching.perfect_matching`).
"""

from __future__ import annotations

from typing import Any, Sequence

from . import knowledge
from .knowledge import (
    _TEXT_FIELDS,
    ColumnKnowledge,
    Fact,
    GroundedKnowledge,
    Scalar,
    _texts_equivalent,
    facts,
)
from .matching import perfect_matching


def _lists_equivalent(a: Sequence[Scalar], b: Sequence[Scalar]) -> bool:
    """Multiset equivalence of two ``values`` lists.

    Two strings match when :func:`_texts_equivalent` holds, any other pair
    only when identical or ``==``. Lists equal item by item once both are
    sorted need no normalisation at all; the sort serves only that check.
    Otherwise each distinct string is normalised once, and each left value
    is seeded with a right value from the same bucket: its content tokens,
    or, when it has none (a number, "2020", "%"), the value itself. Only the
    values left over are searched for, and that search may re-route seeded
    pairs, since equivalence is not transitive.
    """
    if len(a) != len(b):
        return False
    if sorted(a, key=str) == sorted(b, key=str):
        return True
    # A non-string has no entry, so, like a string without content tokens,
    # it is bucketed by itself and only identity or ``==`` can match it.
    # Called through the module, so that a wrapper set on
    # ``knowledge.normalize_term`` (benchmarks/tracing.py) sees these calls.
    terms = {v: knowledge.normalize_term(v) for v in {*a, *b} if isinstance(v, str)}
    buckets: dict[Any, list[int]] = {}
    for j, y in enumerate(b):
        buckets.setdefault(terms.get(y) or y, []).append(j)
    seed = {}
    for i, x in enumerate(a):
        bucket = buckets.get(terms.get(x) or x)
        if bucket:
            seed[i] = bucket.pop()

    def eq(i: int, j: int) -> bool:
        x, y = a[i], b[j]
        if x is y or x == y:
            return True
        tx, ty = terms.get(x), terms.get(y)
        return bool(tx and ty) and (tx <= ty or ty <= tx)

    return perfect_matching(len(a), len(b), eq, seed)


def _field_values_equivalent(field: str, a: Any, b: Any) -> bool:
    """The one equivalence rule for two values of a schema field.

    Text compares through :func:`_texts_equivalent`, ``values`` lists as
    multisets requiring a perfect one-to-one matching, columns field by
    field, and numbers exactly.
    """
    if field == "column":
        return columns_equivalent(a, b)
    if field == "values":
        return _lists_equivalent(a, b)
    if field in _TEXT_FIELDS:
        return _texts_equivalent(str(a), str(b))
    return a is b or a == b


def columns_equivalent(a: ColumnKnowledge, b: ColumnKnowledge) -> bool:
    if not _texts_equivalent(a.column_name, b.column_name):
        return False
    fa, fb = a.fields(), b.fields()
    if set(fa) != set(fb):
        return False
    return all(_field_values_equivalent(name, fa[name], fb[name]) for name in fa)


def fact_equivalent(a: Fact, b: Fact) -> bool:
    """Judge two atomic facts as semantically the same grounded element.

    Fields must agree, so ``table_domain`` and ``table_content`` are never
    cross-matched; values then compare by :func:`_field_values_equivalent`,
    which compares columns by name as well.
    """
    return a.key.field == b.key.field and _field_values_equivalent(
        a.key.field, a.value, b.value
    )


def knowledge_equivalent(a: GroundedKnowledge, b: GroundedKnowledge) -> bool:
    """True iff the fact sets of both sides admit a perfect matching."""
    fa, fb = facts(a), facts(b)
    return perfect_matching(len(fa), len(fb), lambda i, j: fact_equivalent(fa[i], fb[j]))
