"""Tabular knowledge schema, canonicalization, and equivalence judging.

A piece of grounded knowledge describes a tabular dataset: what the table is
about, how large it is, and per-column properties. Raw extraction output
arrives in several shorthand forms and is canonicalized into
:class:`GroundedKnowledge` before anything else touches it. Equivalence
between two knowledge objects is judged through token-set comparison of the
surface terms, so "area in km2" and "area" count as the same column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from .matching import perfect_matching

Scalar = Union[int, float, str]


class SchemaError(ValueError):
    """A raw knowledge tree does not fit the tabular schema."""


# Closed lists, fixed so that the judge reproduces the shipped sample verdicts.
STOPWORDS = frozenset({
    "of", "the", "a", "an", "in", "on", "about", "for", "and",
    "information", "data", "short", "text",
})

_UNIT_TOKEN = re.compile(r"^(?:km2|m2|kg|km|m|%)$")
_NUMERIC_TOKEN = re.compile(r"^\d+(?:[.,]\d+)?$")
_NON_WORD = re.compile(r"[^0-9a-z%]+")


def normalize_term(term: str) -> frozenset[str]:
    """Reduce a surface term to its set of content tokens.

    Lowercases, strips punctuation, and drops stopwords, unit tokens, and
    purely numeric tokens. The result may be empty.
    """
    tokens = _NON_WORD.sub(" ", term.lower()).split()
    return frozenset(
        t for t in tokens
        if t not in STOPWORDS
        and not _UNIT_TOKEN.match(t)
        and not _NUMERIC_TOKEN.match(t)
    )


def terms_equivalent(a: str, b: str) -> bool:
    """True iff one side's content tokens are a non-empty subset of the other's."""
    sa, sb = normalize_term(a), normalize_term(b)
    if not sa or not sb:
        return False
    return sa <= sb or sb <= sa


def _texts_equivalent(a: str, b: str) -> bool:
    """Equal text is always equivalent, even without content tokens ("2020", "%")."""
    return a == b or terms_equivalent(a, b)


_COLUMN_FIELDS = ("description", "values", "distinct_count", "min_value", "max_value")
_TEXT_FIELDS = frozenset({"table_domain", "table_content", "description"})


@dataclass(frozen=True)
class ColumnKnowledge:
    """Everything known about one column of the table."""

    column_name: str
    description: Optional[str] = None
    values: Optional[tuple[Scalar, ...]] = None
    distinct_count: Optional[int] = None
    min_value: Optional[Scalar] = None
    max_value: Optional[Scalar] = None

    def __post_init__(self) -> None:
        if not self.column_name.strip():
            raise ValueError("column_name must be non-empty")
        if self.values is not None and not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if (
            self.min_value is not None
            and self.max_value is not None
            and self.min_value > self.max_value
        ):
            raise ValueError(
                f"column {self.column_name!r}: min_value {self.min_value} "
                f"exceeds max_value {self.max_value}"
            )

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


@dataclass(frozen=True)
class GroundedKnowledge:
    """A snapshot of what is known about the tabular dataset."""

    table_domain: Optional[str] = None
    table_content: Optional[str] = None
    row_count: Optional[int] = None
    column_count: Optional[int] = None
    column_info: tuple[ColumnKnowledge, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.column_info, tuple):
            object.__setattr__(self, "column_info", tuple(self.column_info))
        index = KeyIndex()
        for j, column in enumerate(self.column_info):
            i = index.add(FactKey("column", column.column_name))
            if i != j:
                raise ValueError(
                    f"columns {self.column_info[i].column_name!r} and "
                    f"{column.column_name!r} have equivalent names"
                )

    @property
    def is_empty(self) -> bool:
        return (
            self.table_domain is None
            and self.table_content is None
            and self.row_count is None
            and self.column_count is None
            and not self.column_info
        )

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in ("table_domain", "table_content", "row_count", "column_count"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.column_info:
            out["column_info"] = [c.to_json_dict() for c in self.column_info]
        return out


# ---------------------------------------------------------------------------
# Facts: the atomic grounded elements a knowledge object decomposes into.
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = ("table_domain", "table_content", "row_count", "column_count")


@dataclass(frozen=True)
class FactKey:
    """Schema path of a fact: a top-level field or one column entry."""

    field: str
    column: Optional[str] = None

    def __str__(self) -> str:
        return self.field if self.column is None else f"column:{self.column}"


@dataclass(frozen=True)
class Fact:
    key: FactKey
    value: Any  # scalar for top-level fields, ColumnKnowledge for columns


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
    return fold_facts({}, KeyIndex(), fact_list)


def fold_facts(
    placed: dict[int, Fact], index: KeyIndex, fact_list: Iterable[Fact]
) -> GroundedKnowledge:
    """Fold ``fact_list`` into ``placed``, the facts at their live positions
    in ``index``: a column joins the first live equivalent one by
    :func:`updated_value`, keeping its name, and a top-level field
    overwrites. ``index`` opens a position only for a key with no live
    equivalent, so the columns need no second check, and the fold is total.
    """
    for fact in fact_list:
        i = index.add(fact.key)
        if i in placed and fact.key.field == "column":
            fact = Fact(placed[i].key, updated_value("column", placed[i].value, fact.value))
        placed[i] = fact
    # A list, not a generator: a tuple cut down from a generator's larger
    # guess never draws on the free list of its size, which then grows.
    columns = [f.value for f in placed.values() if f.key.field == "column"]
    scalars = {f.key.field: f.value for f in placed.values() if f.key.field != "column"}
    knowledge = object.__new__(GroundedKnowledge)
    for name in _SCALAR_FIELDS:
        object.__setattr__(knowledge, name, scalars.get(name))
    object.__setattr__(knowledge, "column_info", tuple(columns))
    return knowledge


def _key_terms(key: FactKey) -> frozenset[Any]:
    """The content tokens of a column's name, or else the key itself."""
    tokens = normalize_term(key.column) if key.field == "column" and key.column else None
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

    Each key is normalised once, when it is looked up or added, and listed
    under each of its terms. A candidate sharing ``k`` of the probe's terms
    holds them all when ``k`` is the probe's term count, and lies within
    them when ``k`` is its own.
    """

    def __init__(self) -> None:
        self._sizes: list[Optional[int]] = []  # term count; None once discarded
        self._postings: dict[Any, list[int]] = {}

    def find(self, key: FactKey) -> Optional[int]:
        """Lowest live position whose key is equivalent to ``key``, or None."""
        return self._find(_key_terms(key))

    def add(self, key: FactKey) -> int:
        """Position of the first live key equivalent to ``key``; when there
        is none, ``key`` takes the next new position, which is returned."""
        terms = _key_terms(key)
        i = self._find(terms)
        if i is None:
            i = len(self._sizes)
            self._sizes.append(len(terms))
            for term in terms:
                self._postings.setdefault(term, []).append(i)
        return i

    def discard(self, position: int) -> None:
        """Retire a position: no later lookup returns it."""
        self._sizes[position] = None

    def _find(self, terms: frozenset[Any]) -> Optional[int]:
        shared: dict[int, int] = {}
        for term in terms:
            for i in self._postings.get(term, ()):
                shared[i] = shared.get(i, 0) + 1
        sizes = self._sizes
        return min(
            (i for i, k in shared.items()
             if sizes[i] is not None and k in (len(terms), sizes[i])),
            default=None,
        )


EMPTY_KNOWLEDGE = GroundedKnowledge()


def merge_columns(existing: ColumnKnowledge, incoming: ColumnKnowledge) -> ColumnKnowledge:
    """Fold an incoming column entry into an existing equivalent one.

    The first-seen column name is kept stable (renaming could collide with
    other committed columns); each field present on both sides takes its
    :func:`merged_value`.
    """
    merged = dict(existing.fields())
    for name, value in incoming.fields().items():
        merged[name] = merged_value(name, merged[name], value) if name in merged else value
    return ColumnKnowledge(column_name=existing.column_name, **merged)


def merged_value(field: str, existing: Any, incoming: Any) -> Any:
    """The union of a committed ``field``'s value and an incoming one.

    Text keeps the longer surface form (ties keep the committed one), a
    column merges field by field, and any other value is overwritten. Raises
    ``ValueError`` when a merged column's minimum exceeds its maximum.
    """
    if field == "column":
        return merge_columns(existing, incoming)
    if field in _TEXT_FIELDS:
        return incoming if len(str(incoming)) > len(str(existing)) else existing
    return incoming


def updated_value(field: str, existing: Any, incoming: Any) -> Any:
    """The value a committed ``field`` takes when an incoming value updates it:
    the :func:`merged_value`, or, newest wins, the incoming column's fields
    under the committed name where the two columns cannot combine."""
    try:
        return merged_value(field, existing, incoming)
    except ValueError:
        return ColumnKnowledge(existing.column_name, **incoming.fields())


# ---------------------------------------------------------------------------
# Equivalence judging.
# ---------------------------------------------------------------------------

def _lists_equivalent(a: Sequence[Scalar], b: Sequence[Scalar]) -> bool:
    """Multiset equivalence of two ``values`` lists.

    Two strings match when :func:`_texts_equivalent` holds, any other pair
    only when ``==``. Each string is normalised once per call, not once per
    compared pair. A non-string gets an empty token set, so, like a string
    without content tokens, only ``==`` can match it (and no string equals a
    non-string). Both sides are sorted first so that equal values meet at
    the same position, where the matcher tries them before anything else;
    lists that are then equal item by item need no normalisation at all.
    """
    if len(a) != len(b):
        return False
    a, b = sorted(a, key=str), sorted(b, key=str)
    if a == b:
        return True
    no_tokens: frozenset[str] = frozenset()
    ta = [normalize_term(v) if isinstance(v, str) else no_tokens for v in a]
    tb = [normalize_term(v) if isinstance(v, str) else no_tokens for v in b]

    def eq(i: int, j: int) -> bool:
        x, y = ta[i], tb[j]
        return a[i] == b[j] or (bool(x) and bool(y) and (x <= y or y <= x))

    return perfect_matching(len(a), len(b), eq)


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
    return a == b


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


# ---------------------------------------------------------------------------
# Canonicalization of raw extraction output.
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = frozenset(
    {"table_domain", "table_content", "row_count", "column_count",
     "column_info", "column_names", "column_name", *_COLUMN_FIELDS}
)
_ENTRY_KEYS = frozenset({"column_name", *_COLUMN_FIELDS})


def _as_count(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{name}: expected a non-negative integer, got {value!r}")
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise SchemaError(f"{name}: cannot coerce {value!r} to an integer") from None
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"{name}: expected an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise SchemaError(f"{name}: expected a non-negative integer, got {value!r}")
    if value < 0:
        raise SchemaError(f"{name}: must be non-negative, got {value}")
    return value


def _as_number(name: str, value: Any) -> Union[int, float]:
    if isinstance(value, bool):
        raise SchemaError(f"{name}: expected a number, got {value!r}")
    if isinstance(value, str):
        try:
            value = float(value.strip())
        except ValueError:
            raise SchemaError(f"{name}: cannot coerce {value!r} to a number") from None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, (int, float)):
        raise SchemaError(f"{name}: expected a number, got {value!r}")
    return value


def _as_text(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{name}: expected text, got {value!r}")
    return value


def _canonicalize_entry(raw: Any) -> ColumnKnowledge:
    if isinstance(raw, ColumnKnowledge):
        return raw
    if not isinstance(raw, dict):
        raise SchemaError(f"column_info entries must be objects, got {raw!r}")
    data = {k: v for k, v in raw.items() if v is not None}
    unknown = set(data) - _ENTRY_KEYS
    if unknown:
        raise SchemaError(f"unknown column key {sorted(unknown)[0]!r}")
    if "column_name" not in data:
        raise SchemaError("column entry is missing column_name")
    kwargs: dict[str, Any] = {"column_name": _as_text("column_name", data["column_name"])}
    if "description" in data:
        kwargs["description"] = _as_text("description", data["description"])
    if "values" in data:
        values = data["values"]
        if not isinstance(values, (list, tuple)):
            raise SchemaError(f"values: expected a list, got {values!r}")
        kwargs["values"] = tuple(values)
    if "distinct_count" in data:
        kwargs["distinct_count"] = _as_count("distinct_count", data["distinct_count"])
    for bound in ("min_value", "max_value"):
        if bound in data:
            kwargs[bound] = _as_number(bound, data[bound])
    try:
        return ColumnKnowledge(**kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def canonicalize(raw: Any) -> GroundedKnowledge:
    """Turn a schema-shaped tree into canonical :class:`GroundedKnowledge`.

    Accepts the shorthands used in turn annotations: a top-level
    ``column_names`` list expands to name-only column entries, and a
    top-level ``column_name`` (with any column-scoped fields alongside it)
    wraps into a single entry. Null-valued fields are dropped; numeric
    fields are coerced from numeric text; unknown keys are rejected.
    """
    if isinstance(raw, GroundedKnowledge):
        return raw
    if not isinstance(raw, dict):
        raise SchemaError(f"expected a key/value tree, got {type(raw).__name__}")
    data = {k: v for k, v in raw.items() if v is not None}
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(f"unknown key {sorted(unknown)[0]!r}")

    entries: list[ColumnKnowledge] = []
    if "column_names" in data:
        names = data.pop("column_names")
        if not isinstance(names, (list, tuple)):
            raise SchemaError(f"column_names: expected a list, got {names!r}")
        entries.extend(
            _canonicalize_entry({"column_name": name}) for name in names
        )
    if "column_name" in data:
        entry = {"column_name": data.pop("column_name")}
        for name in _COLUMN_FIELDS:
            if name in data:
                entry[name] = data.pop(name)
        entries.append(_canonicalize_entry(entry))
    stray = [name for name in _COLUMN_FIELDS if name in data]
    if stray:
        raise SchemaError(f"key {stray[0]!r} requires an accompanying column_name")
    if "column_info" in data:
        info = data.pop("column_info")
        if not isinstance(info, (list, tuple)):
            raise SchemaError(f"column_info: expected a list, got {info!r}")
        entries.extend(_canonicalize_entry(e) for e in info)

    kwargs: dict[str, Any] = {}
    if "table_domain" in data:
        kwargs["table_domain"] = _as_text("table_domain", data["table_domain"])
    if "table_content" in data:
        kwargs["table_content"] = _as_text("table_content", data["table_content"])
    if "row_count" in data:
        kwargs["row_count"] = _as_count("row_count", data["row_count"])
    if "column_count" in data:
        kwargs["column_count"] = _as_count("column_count", data["column_count"])

    # Duplicate columns (equivalent names) fold into one entry; later
    # occurrences enrich or overwrite the earlier one.
    fact_list = [Fact(FactKey(name), value) for name, value in kwargs.items()]
    fact_list.extend(Fact(FactKey("column", e.column_name), e) for e in entries)
    knowledge = knowledge_from_facts(fact_list)

    row_count = knowledge.row_count
    if row_count is not None:
        for column in knowledge.column_info:
            if column.distinct_count is not None and column.distinct_count > row_count:
                raise SchemaError(
                    f"column {column.column_name!r}: distinct_count "
                    f"{column.distinct_count} exceeds row_count {row_count}"
                )
    return knowledge
