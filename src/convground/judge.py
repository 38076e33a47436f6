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
    only when identical or ``==``. Lists of one content word per value
    match exactly when their sorted words are equal (:func:`_one_words`).
    Otherwise each distinct string is normalised once, and the values pair
    through :func:`convground.matching.perfect_matching`, keyed by their
    content tokens or, when they have none (a number, "2020", "%"), by
    themselves.
    """
    if len(a) != len(b):
        return False
    if not a:
        return True
    words = _one_words((*a, *b))
    if words is not None:
        return sorted(words[:len(a)]) == sorted(words[len(a):])
    # A non-string has no entry, so, like a string without content tokens,
    # it is keyed by itself and only identity or ``==`` can match it.
    # Called through the module, so that a wrapper set on
    # ``knowledge.normalize_term`` (benchmarks/tracing.py) sees these calls.
    terms = {v: knowledge.normalize_term(v) for v in {*a, *b} if isinstance(v, str)}

    def eq(x: Scalar, y: Scalar) -> bool:
        return x is y or x == y or _tokens_equivalent(terms.get(x), terms.get(y))

    return perfect_matching(a, b, lambda v: terms.get(v) or v, eq)


def _field_values_equivalent(field: str, a: Any, b: Any) -> bool:
    """The one equivalence rule for two values of a schema field.

    Text compares through :func:`_texts_equivalent`, ``values`` lists as
    multisets requiring a perfect one-to-one matching, columns field by
    field, and numbers exactly.
    """
    if field == "column":
        return _texts_equivalent(a.column_name, b.column_name) and _column_fields_equivalent(a, b)
    if field == "values":
        return _lists_equivalent(a, b)
    if field in _TEXT_FIELDS:
        return _texts_equivalent(str(a), str(b))
    return a is b or a == b


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


def knowledge_equivalent(a: GroundedKnowledge, b: GroundedKnowledge) -> bool:
    """True iff the fact sets of both sides admit a perfect matching under
    :func:`fact_equivalent`.

    Facts pair through :func:`convground.matching.perfect_matching`, keyed
    by a column's name terms, else by the fact's key (see
    :func:`convground.knowledge._key_terms`). Each distinct name is
    normalised once per call.
    """
    terms: dict[str, frozenset[str]] = {}

    def name_terms(name: str) -> frozenset[str]:
        if name not in terms:
            terms[name] = knowledge.normalize_term(name)
        return terms[name]

    def eq(x: Fact, y: Fact) -> bool:
        field = x.key.field
        if field != y.key.field:
            return False
        if field != "column":
            return _field_values_equivalent(field, x.value, y.value)
        return _texts_equivalent(x.key.column, y.key.column, name_terms) and (
            _column_fields_equivalent(x.value, y.value)
        )

    return perfect_matching(facts(a), facts(b), lambda f: _key_terms(f.key, name_terms), eq)
