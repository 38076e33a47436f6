"""The equivalence judge: whether two values, facts or knowledge objects say the same.

Each schema field has one value rule (:func:`_field_values_equivalent`):
text compares through the token sets of its surface terms (see
:func:`convground.knowledge.terms_equivalent`), ``values`` lists as
multisets, columns field by field, and anything else when identical or
``==``. Facts and knowledge objects are equivalent when their parts pair
one to one (:func:`convground.matching.perfect_matching`).
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Any, Optional, Sequence

from . import knowledge
from .knowledge import (
    _DROPPED,
    _TEXT_FIELDS,
    ColumnKnowledge,
    Fact,
    GroundedKnowledge,
    Scalar,
    _key_terms,
    _texts_equivalent,
    _tokens_equivalent,
    facts,
)
from .matching import perfect_matching

# One value per line, each one token holding a letter between marks: any
# character but a token's (``knowledge._WORD``), the space and the line
# break. In ASCII text, deleting the marks leaves the words.
_MARK = "[^0-9a-z% \n]"
_ONE_WORD_LINE = rf"{_MARK}*[0-9]*[a-z][0-9a-z]*{_MARK}*"
_ONE_WORD = re.compile(rf"(?:{_ONE_WORD_LINE}\n)*{_ONE_WORD_LINE}")
_ASCII_MARKS = dict.fromkeys(c for c in range(128) if re.match(_MARK, chr(c)))


def _one_words(values: Sequence[Scalar]) -> Optional[list[str]]:
    """Each value's word, when every value is ASCII text of one content
    word between marks, so that its token set is that word alone; else
    None. ``values`` is not empty."""
    if not isinstance(values[0], str):  # cheap for lists of numbers
        return None
    try:
        text = "\n".join(values)
    except TypeError:
        return None
    if " " in text or not text.isascii():  # cheap for lists of phrases
        return None
    text = text.lower()
    if _ONE_WORD.fullmatch(text) is None:
        return None
    words = text.translate(_ASCII_MARKS).split("\n")
    # A line break inside a value adds a word.
    if len(words) != len(values) or not _DROPPED.isdisjoint(words):
        return None
    return words


def _lists_equivalent(a: Sequence[Scalar], b: Sequence[Scalar]) -> bool:
    """Multiset equivalence of two ``values`` lists.

    Two strings match when :func:`_texts_equivalent` holds, any other pair
    only when identical or ``==``. Lists equal item by item once both are
    sorted need no normalisation at all; the sort serves only that check.
    Lists of one content word per value match exactly when their sorted
    words are equal (:func:`_one_words`). Otherwise each distinct string is
    normalised once, and each left value is seeded with a right value from
    the same bucket: its content tokens, or, when it has none (a number,
    "2020", "%"), the value itself. Only the values left over are searched
    for, and that search may re-route seeded pairs, since equivalence is
    not transitive.
    """
    if len(a) != len(b):
        return False
    if sorted(a, key=str) == sorted(b, key=str):
        return True
    words = _one_words((*a, *b))
    if words is not None:
        return sorted(words[:len(a)]) == sorted(words[len(a):])
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
        return _tokens_equivalent(terms.get(x), terms.get(y))

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
    return _texts_equivalent(a.column_name, b.column_name) and _column_fields_equivalent(a, b)


def _column_fields_equivalent(a: ColumnKnowledge, b: ColumnKnowledge) -> bool:
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


_fact_key = attrgetter("key")


def knowledge_equivalent(a: GroundedKnowledge, b: GroundedKnowledge) -> bool:
    """True iff the fact sets of both sides admit a perfect matching under
    :func:`fact_equivalent`.

    Each left fact is seeded with an equivalent right fact of an equal key,
    or else of its bucket (a column's name terms, else its key: see
    :func:`convground.knowledge._key_terms`), so only the rest are searched
    for. Names are normalised once per call at most, and not when equal.
    """
    fa, fb = facts(a), facts(b)
    if len(fa) != len(fb):
        return False
    terms: dict[str, frozenset[str]] = {}

    def name_terms(name: str) -> frozenset[str]:
        if name not in terms:
            terms[name] = knowledge.normalize_term(name)
        return terms[name]

    def eq(i: int, j: int) -> bool:
        x, y = fa[i], fb[j]
        field = x.key.field
        if field != y.key.field:
            return False
        if field != "column":
            return _field_values_equivalent(field, x.value, y.value)
        return _texts_equivalent(x.key.column, y.key.column, name_terms) and (
            _column_fields_equivalent(x.value, y.value)
        )

    seed: dict[int, int] = {}
    refused: set[tuple[int, int]] = set()
    for bucket in (_fact_key, lambda f: _key_terms(f.key, name_terms)):
        taken = set(seed.values())
        buckets: dict[Any, list[int]] = {}
        for j, y in enumerate(fb):
            if j not in taken:
                buckets.setdefault(bucket(y), []).append(j)
        for i, x in enumerate(fa):
            candidates = i not in seed and buckets.get(bucket(x))
            if candidates and (i, candidates[-1]) not in refused:
                if eq(i, candidates[-1]):
                    seed[i] = candidates.pop()
                else:
                    refused.add((i, candidates[-1]))
        if len(seed) == len(fa):
            return True
    return perfect_matching(
        len(fa), len(fb), lambda i, j: (i, j) not in refused and eq(i, j), seed
    )
