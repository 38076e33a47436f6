"""Canonicalization of raw extraction output into :class:`GroundedKnowledge`."""

from __future__ import annotations

from typing import Any, Union

from .knowledge import _COLUMN_FIELDS, ColumnKnowledge, GroundedKnowledge, knowledge_from_parts


class SchemaError(ValueError):
    """A raw knowledge tree does not fit the tabular schema."""


def _excerpt(value: Any) -> str:
    """``repr(value)``, cut to its first 120 characters and the value's length
    (a string's own, anything else's ``repr``) when longer."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 120:
        return repr(value)
    head = repr(text[:120]) if isinstance(value, str) else text[:120]
    return f"{head}... ({len(text)} characters)"


_TOP_LEVEL_KEYS = frozenset(
    {"table_domain", "table_content", "row_count", "column_count",
     "column_info", "column_names", "column_name", *_COLUMN_FIELDS}
)
_ENTRY_KEYS = frozenset({"column_name", *_COLUMN_FIELDS})
_VALUE_TYPES = frozenset({str, int, float})


def _as_count(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{name}: expected a non-negative integer, got {_excerpt(value)}")
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise SchemaError(f"{name}: cannot coerce {_excerpt(value)} to an integer") from None
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"{name}: expected an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise SchemaError(f"{name}: expected a non-negative integer, got {_excerpt(value)}")
    if value < 0:
        raise SchemaError(f"{name}: must be non-negative, got {value}")
    return value


def _as_number(name: str, value: Any) -> Union[int, float]:
    if isinstance(value, bool):
        raise SchemaError(f"{name}: expected a number, got {_excerpt(value)}")
    if isinstance(value, str):
        try:
            value = float(value.strip())
        except ValueError:
            raise SchemaError(f"{name}: cannot coerce {_excerpt(value)} to a number") from None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, (int, float)):
        raise SchemaError(f"{name}: expected a number, got {_excerpt(value)}")
    return value


def _as_text(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{name}: expected text, got {_excerpt(value)}")
    return value


def _canonicalize_entry(raw: Any) -> ColumnKnowledge:
    if not isinstance(raw, dict):
        raise SchemaError(f"column_info entries must be objects, got {_excerpt(raw)}")
    data = {k: v for k, v in raw.items() if v is not None}
    unknown = set(data) - _ENTRY_KEYS
    if unknown:
        raise SchemaError(f"unknown column key {_excerpt(sorted(unknown, key=str)[0])}")
    if "column_name" not in data:
        raise SchemaError("column entry is missing column_name")
    kwargs: dict[str, Any] = {"column_name": _as_text("column_name", data["column_name"])}
    if "description" in data:
        kwargs["description"] = _as_text("description", data["description"])
    if "values" in data:
        values = data["values"]
        if not isinstance(values, (list, tuple)):
            raise SchemaError(f"values: expected a list, got {_excerpt(values)}")
        # One pass in C over the exact types; only a list holding some other
        # type (bool, None, a container, a subclass) is checked item by item.
        if not _VALUE_TYPES.issuperset(map(type, values)):
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise SchemaError(f"values: expected text or numbers, got {_excerpt(value)}")
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


_SCALARS = (("table_domain", _as_text), ("table_content", _as_text),
            ("row_count", _as_count), ("column_count", _as_count))


def _read_fragment(
    raw: dict, scalars: dict[str, Any], columns: list[ColumnKnowledge]
) -> None:
    """Read one tree: its columns onto ``columns`` in the order read, then
    its scalars into ``scalars``, over any a former tree gave."""
    data = {k: v for k, v in raw.items() if v is not None}
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(f"unknown key {_excerpt(sorted(unknown, key=str)[0])}")

    if "column_names" in data:
        names = data.pop("column_names")
        if not isinstance(names, (list, tuple)):
            raise SchemaError(f"column_names: expected a list, got {_excerpt(names)}")
        columns.extend(
            _canonicalize_entry({"column_name": name}) for name in names
        )
    if "column_name" in data:
        entry = {"column_name": data.pop("column_name")}
        for name in _COLUMN_FIELDS:
            if name in data:
                entry[name] = data.pop(name)
        columns.append(_canonicalize_entry(entry))
    stray = [name for name in _COLUMN_FIELDS if name in data]
    if stray:
        raise SchemaError(f"key {stray[0]!r} requires an accompanying column_name")
    if "column_info" in data:
        info = data.pop("column_info")
        if not isinstance(info, (list, tuple)):
            raise SchemaError(f"column_info: expected a list, got {_excerpt(info)}")
        columns.extend(_canonicalize_entry(e) for e in info)

    for name, as_value in _SCALARS:
        if name in data:
            scalars[name] = as_value(name, data[name])


def canonicalize(raw: Any) -> GroundedKnowledge:
    """Turn a schema-shaped tree, or a list of such fragments, into canonical
    :class:`GroundedKnowledge`.

    Accepts the shorthands used in turn annotations: a top-level
    ``column_names`` list expands to name-only column entries, and a
    top-level ``column_name`` (with any column-scoped fields alongside it)
    wraps into a single entry. Null-valued fields are dropped; numeric
    fields are coerced from numeric text; unknown keys are rejected. All
    facts, a list's fragments' in order, go through one fold: a later scalar
    overwrites, and a column named twice (equivalent names) folds into one.
    """
    fragments = (raw,) if isinstance(raw, dict) else raw
    if not isinstance(fragments, (list, tuple)):
        raise SchemaError(f"expected a key/value tree, got {type(raw).__name__}")
    scalars: dict[str, Any] = {}
    columns: list[ColumnKnowledge] = []
    for fragment in fragments:
        if not isinstance(fragment, dict):
            raise SchemaError(f"expected objects, got {_excerpt(fragment)}")
        _read_fragment(fragment, scalars, columns)
    knowledge = knowledge_from_parts(scalars, columns)
    row_count = knowledge.row_count
    if row_count is not None:
        for column in knowledge.column_info:
            if column.distinct_count is not None and column.distinct_count > row_count:
                raise SchemaError(
                    f"column {column.column_name!r}: distinct_count "
                    f"{column.distinct_count} exceeds row_count {row_count}"
                )
    return knowledge
