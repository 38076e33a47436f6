"""Tabular knowledge schema, its facts and name index, and the update rule.

A piece of grounded knowledge describes a tabular dataset: what the table is
about, how large it is, and per-column properties. Raw extraction output is
canonicalized into :class:`GroundedKnowledge` (see :mod:`convground.schema`)
before anything else touches it. Names compare through token-set comparison
of the surface terms, so "area in km2" and "area" count as the same column;
:mod:`convground.judge` judges whole values and knowledge objects.
"""

from __future__ import annotations

import functools
import re
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Union

Scalar = Union[int, float, str]


# Closed lists, fixed so that the judge reproduces the shipped sample verdicts.
STOPWORDS = frozenset({
    "of", "the", "a", "an", "in", "on", "about", "for", "and",
    "information", "data", "short", "text",
})

_UNIT_TOKENS = frozenset({"km2", "m2", "kg", "km", "m", "%"})
_DROPPED = STOPWORDS | _UNIT_TOKENS
_WORD = re.compile(r"[0-9a-z%]+")


def normalize_term(term: str) -> frozenset[str]:
    """Reduce a surface term to its set of content tokens.

    Lowercases, splits into the maximal runs of ``[0-9a-z%]``, and drops
    stopwords, unit tokens, and purely numeric tokens. The result may be empty.
    """
    # Tokens hold only ASCII [0-9a-z%], so ``isdigit`` means a number.
    tokens = _WORD.findall(term.lower())
    return frozenset([t for t in tokens if t not in _DROPPED and not t.isdigit()])


def _tokens_equivalent(sa: frozenset[str], sb: frozenset[str]) -> bool:
    """True iff one token set is a non-empty subset of the other."""
    return bool(sa and sb) and (sa <= sb or sb <= sa)


def terms_equivalent(a: str, b: str) -> bool:
    """True iff one side's content tokens are a non-empty subset of the other's."""
    return _tokens_equivalent(normalize_term(a), normalize_term(b))


def _texts_equivalent(
    a: str, b: str, terms: Optional[Callable[[str], frozenset[str]]] = None
) -> bool:
    """Equal text is always equivalent, even without content tokens ("2020", "%").

    ``terms`` reads a text's content tokens; when None, the texts go to
    :func:`terms_equivalent`.
    """
    if a == b:
        return True
    if terms is None:
        return terms_equivalent(a, b)
    return _tokens_equivalent(terms(a), terms(b))


_SCALAR_FIELDS = ("table_domain", "table_content", "row_count", "column_count")
_COLUMN_FIELDS = ("description", "values", "distinct_count", "min_value", "max_value")
_TEXT_FIELDS = frozenset({"table_domain", "table_content", "description"})


class Record:
    """Base of the package's records: a subclass declares ``__slots__`` and
    an ``__init__`` that writes each slot once through ``_set``.

    The slots whose names do not begin with an underscore are the record's
    fields, in order. Two records are ``==`` when they are of the same class
    and their field tuples are (tuple ``==`` counts an identical item as
    equal), a record hashes as its field tuple, and its repr reads
    ``Name(field=value, ...)``. Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ()
    _set = object.__setattr__

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # ``attrgetter`` of one name returns the value, not a 1-tuple.
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _bounds_ordered(min_value: Optional[Scalar], max_value: Optional[Scalar]) -> bool:
    """The one bounds rule: a column's minimum may not exceed its maximum.

    Written as ``not min > max``, so a NaN bound (``json.loads`` reads
    ``NaN``) never crosses the other.
    """
    return min_value is None or max_value is None or not min_value > max_value


class ColumnKnowledge(Record):
    """Everything known about one column of the table."""

    __slots__ = ("column_name", *_COLUMN_FIELDS)

    def __init__(
        self,
        column_name: str,
        description: Optional[str] = None,
        values: Optional[Iterable[Scalar]] = None,
        distinct_count: Optional[int] = None,
        min_value: Optional[Scalar] = None,
        max_value: Optional[Scalar] = None,
    ) -> None:
        if not column_name.strip():
            raise ValueError("column_name must be non-empty")
        if values is not None and not isinstance(values, tuple):
            values = tuple(values)
        if not _bounds_ordered(min_value, max_value):
            raise ValueError(
                f"column {column_name!r}: min_value {min_value} exceeds max_value {max_value}"
            )
        self._set("column_name", column_name)
        self._set("description", description)
        self._set("values", values)
        self._set("distinct_count", distinct_count)
        self._set("min_value", min_value)
        self._set("max_value", max_value)

    def fields(self) -> dict[str, Any]:
        """The populated fields beyond the name."""
        return {
            name: getattr(self, name)
            for name in _COLUMN_FIELDS
            if getattr(self, name) is not None
        }

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"column_name": self.column_name}
        for name, value in self.fields().items():
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


class GroundedKnowledge(Record):
    """A snapshot of what is known about the tabular dataset."""

    # ``_carried`` is the ``(facts, index)`` pair of :func:`indexed_facts`,
    # built at most once; it is not a field.
    __slots__ = (*_SCALAR_FIELDS, "column_info", "_carried")

    def __init__(
        self,
        table_domain: Optional[str] = None,
        table_content: Optional[str] = None,
        row_count: Optional[int] = None,
        column_count: Optional[int] = None,
        column_info: Iterable[ColumnKnowledge] = (),
    ) -> None:
        self._set("table_domain", table_domain)
        self._set("table_content", table_content)
        self._set("row_count", row_count)
        self._set("column_count", column_count)
        self._set("column_info", tuple(column_info))
        self._set("_carried", None)
        indexed_facts(self)  # rejects equivalent names

    @property
    def is_empty(self) -> bool:
        return not self.column_info and all(getattr(self, n) is None for n in _SCALAR_FIELDS)

    def to_json_dict(self, columns: bool = True) -> dict[str, Any]:
        """The populated fields as JSON values; ``column_info`` comes last,
        and only with ``columns``."""
        out: dict[str, Any] = {}
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if columns and self.column_info:
            out["column_info"] = [c.to_json_dict() for c in self.column_info]
        return out


# ---------------------------------------------------------------------------
# Facts: the atomic grounded elements a knowledge object decomposes into.
# ---------------------------------------------------------------------------

class FactKey(Record):
    """Schema path of a fact: a top-level field or one column entry."""

    __slots__ = ("field", "column")

    def __init__(self, field: str, column: Optional[str] = None) -> None:
        self._set("field", field)
        self._set("column", column)

    def __str__(self) -> str:
        return self.field if self.column is None else f"column:{self.column}"


class Fact(Record):
    __slots__ = ("key", "value")

    def __init__(self, key: FactKey, value: Any) -> None:
        self._set("key", key)
        self._set("value", value)  # scalar for top-level fields, ColumnKnowledge for columns


def facts(knowledge: GroundedKnowledge) -> list[Fact]:
    """Decompose knowledge into its atomic facts, in schema order."""
    out: list[Fact] = []
    for name in _SCALAR_FIELDS:
        value = getattr(knowledge, name)
        if value is not None:
            out.append(Fact(FactKey(name), value))
    for column in knowledge.column_info:
        out.append(Fact(FactKey("column", column.column_name), column))
    return out


def knowledge_from_facts(fact_list: Iterable[Fact]) -> GroundedKnowledge:
    """Rebuild a knowledge object from facts, folding equivalent columns together."""
    index = KeyIndex()
    return fold_facts({}, ((index.add(fact.key), fact) for fact in fact_list), index)


def knowledge_from_parts(
    scalars: dict[str, Any], columns: list[ColumnKnowledge]
) -> GroundedKnowledge:
    """:func:`knowledge_from_facts` of the top-level fields ``scalars`` (by
    name), then of ``columns``. Equivalent names share a term (see
    :class:`KeyIndex`), so only a tree in which two names share a term, or
    one has none, can fold; any other is assembled as it is, with no fact,
    key or index."""
    terms = [_name_terms(c.column_name) for c in columns]
    if all(terms) and sum(map(len, terms)) == len(frozenset().union(*terms)):
        return _assembled(scalars, columns)
    index = KeyIndex()
    placed: dict[int, ColumnKnowledge] = {}
    for column, tokens in zip(columns, terms):
        i = index.add_terms(tokens or frozenset((FactKey("column", column.column_name),)))
        placed[i] = updated_value("column", placed[i], column) if i in placed else column
    return _assembled(scalars, list(placed.values()))


def _assembled(
    scalars: dict[str, Any],
    columns: list[ColumnKnowledge],
    carried: Optional[tuple[dict[int, Fact], KeyIndex]] = None,
) -> GroundedKnowledge:
    """A knowledge object of ``scalars`` and ``columns`` as they are,
    carrying ``carried`` (see :func:`fold_facts`). Nothing is checked here:
    without ``carried``, the index is built, and checked, when first looked
    up."""
    knowledge = object.__new__(GroundedKnowledge)
    for name in _SCALAR_FIELDS:
        object.__setattr__(knowledge, name, scalars.get(name))
    object.__setattr__(knowledge, "column_info", tuple(columns))
    object.__setattr__(knowledge, "_carried", carried)
    return knowledge


def fold_facts(
    placed: dict[int, Fact], positioned: Iterable[tuple[int, Fact]], index: KeyIndex
) -> GroundedKnowledge:
    """Fold ``positioned`` facts into ``placed``, the facts by position: a
    column at a taken position joins the fact there by :func:`updated_value`,
    keeping its name, and a top-level field overwrites. The positions come
    from ``index``, which gives an equivalent key the position of the first
    one, so the columns need no second check, and the fold is total.

    The result carries ``placed`` and ``index`` for :func:`indexed_facts`,
    so it is never indexed again.
    """
    for i, fact in positioned:
        if i in placed and fact.key.field == "column":
            fact = Fact(placed[i].key, updated_value("column", placed[i].value, fact.value))
        placed[i] = fact
    # A list, not a generator: a tuple cut down from a generator's larger
    # guess never draws on the free list of its size, which then grows.
    columns = [f.value for f in placed.values() if f.key.field == "column"]
    scalars = {f.key.field: f.value for f in placed.values() if f.key.field != "column"}
    return _assembled(scalars, columns, (placed, index))


def indexed_facts(knowledge: GroundedKnowledge) -> tuple[dict[int, Fact], KeyIndex]:
    """The facts of ``knowledge`` by position, in ``facts(knowledge)``'s
    column order, and their :class:`KeyIndex`, neither to be changed.

    The pair is built when it is first asked for and kept on ``knowledge``;
    a result of :func:`fold_facts` carries it from the start. Building it
    raises ``ValueError`` for columns with equivalent names. Threads that
    race here build equal pairs that nothing changes, so either may be kept.
    """
    if knowledge._carried is None:
        index = KeyIndex()
        placed: dict[int, Fact] = {}
        for fact in facts(knowledge):
            i = index.add(fact.key)
            if i in placed:
                names = f"{placed[i].key.column!r} and {fact.key.column!r}"
                raise ValueError(f"columns {names} have equivalent names")
            placed[i] = fact
        knowledge._set("_carried", (placed, index))
    return knowledge._carried


@functools.lru_cache(maxsize=256)
def _name_terms(name: str) -> frozenset[str]:
    """:func:`normalize_term` of a column name, memoised by the name.

    A restated column's name is normalised once, not once per delta that
    lists it. The memo is bounded, so hostile names cannot grow it, and
    holds only immutable results. Value strings do not pass through it:
    the judge meets too many distinct ones for a memo to pay.
    """
    return normalize_term(name)


def _key_terms(
    key: FactKey, terms: Callable[[str], frozenset[str]] = _name_terms
) -> frozenset[Any]:
    """The content tokens of a column's name, read by ``terms``, or else the key itself."""
    tokens = terms(key.column) if key.field == "column" and key.column else None
    return tokens or frozenset((key,))


class KeyIndex:
    """Fact keys at fixed positions, looked up by equivalence.

    This is the one place that decides which existing fact or column a key
    refers to. Two keys are equivalent when one's terms (see
    :func:`_key_terms`) hold the other's: column names compare as
    :func:`_texts_equivalent` does, and a top-level field or a name without
    content tokens ("2020", "%") matches only an equal key. This is not
    transitive ("area" matches both "area size" and "area total", which do
    not match each other), so a lookup returns the lowest live position.

    A key's terms come from a memo of its name (see :func:`_name_terms`),
    and a key is listed under each of them. A candidate sharing ``k`` of
    the probe's terms holds them all when ``k`` is the probe's term count,
    and lies within them when ``k`` is its own.

    Each posting list is a tuple of live positions, which a write replaces
    whole, so a copy shares every list with its original until it writes
    that list.

    The index maps the live keys it was given by :meth:`add` to their
    positions in ``exact``. A key takes a new position only when no live
    key is equivalent, so no two live keys are, and a probe equal to a live
    key matches that key's position alone, with no normalising.
    """

    def __init__(self) -> None:
        self._sizes: dict[int, int] = {}  # term count of each live position
        self._postings: dict[Any, tuple[int, ...]] = {}
        self.exact: dict[FactKey, int] = {}  # written by add and discard
        self._next = 0  # positions are never reused

    def matches(self, key: FactKey) -> Iterator[int]:
        """The live positions whose keys are equivalent to ``key``, in no set order."""
        i = self.exact.get(key)
        return self._matches(_key_terms(key)) if i is None else iter((i,))

    def add(self, key: FactKey) -> int:
        """Position of the first live key equivalent to ``key``; when there
        is none, ``key`` takes the next new position, which is returned and
        recorded in ``exact``."""
        new = self._next
        i = self.add_terms(_key_terms(key))
        if i == new:
            self.exact[key] = i
        return i

    def add_terms(self, terms: frozenset[Any]) -> int:
        """:meth:`add` of a key whose terms (see :func:`_key_terms`) are
        ``terms``, recorded in no ``exact`` map."""
        i = min(self._matches(terms), default=None)
        if i is None:
            i = self._next
            self._next += 1
            self._sizes[i] = len(terms)
            postings = self._postings
            for term in terms:
                postings[term] = postings.get(term, ()) + (i,)
        return i

    def discard(self, key: FactKey) -> None:
        """Retire the position ``key`` holds in ``exact``: no later lookup
        returns it, and it leaves the posting lists of ``key``'s terms."""
        i = self.exact.pop(key)
        del self._sizes[i]
        postings = self._postings
        for term in _key_terms(key):
            live = tuple([j for j in postings[term] if j != i])
            if live:
                postings[term] = live
            else:
                del postings[term]

    def copy(self) -> KeyIndex:
        """A copy to add to and discard from, leaving this index as it is.
        The copy shares the posting lists until it replaces them."""
        copied = KeyIndex()
        copied._sizes = self._sizes.copy()
        copied._postings = self._postings.copy()
        copied.exact = self.exact.copy()
        copied._next = self._next
        return copied

    def _matches(self, terms: frozenset[Any]) -> Iterator[int]:
        shared: dict[int, int] = {}
        for term in terms:
            for i in self._postings.get(term, ()):
                shared[i] = shared.get(i, 0) + 1
        sizes = self._sizes
        return (i for i, k in shared.items() if k in (len(terms), sizes[i]))


EMPTY_KNOWLEDGE = GroundedKnowledge()


def updated_value(field: str, existing: Any, incoming: Any) -> Any:
    """The value a committed ``field`` takes when an incoming value updates it.

    Text keeps the longer surface form (ties keep the committed one), and any
    other value is overwritten. A column keeps its first-seen name (renaming
    could collide with other committed columns) and takes each field's
    updated value, or, newest wins, the incoming fields alone where the
    union's bounds would cross (see :func:`_bounds_ordered`).
    """
    if field == "column":
        fields = _updated_fields(existing.fields(), incoming.fields())
        if not _bounds_ordered(fields.get("min_value"), fields.get("max_value")):
            fields = incoming.fields()
        return ColumnKnowledge(existing.column_name, **fields)
    if field in _TEXT_FIELDS:
        return incoming if len(str(incoming)) > len(str(existing)) else existing
    return incoming


def _updated_fields(existing: dict[str, Any], incoming: dict[str, Any]) -> dict[str, Any]:
    """A column's fields (see :meth:`ColumnKnowledge.fields`) updated field
    by field by :func:`updated_value`; neither argument is changed."""
    fields = existing.copy()
    for name, value in incoming.items():
        fields[name] = updated_value(name, fields[name], value) if name in fields else value
    return fields
