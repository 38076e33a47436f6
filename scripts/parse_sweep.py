"""Time ``parse_knowledge_json`` per reply shape, and check each reading.

Builds ``--replies`` seeded knowledge trees and renders each in the shapes
models emit: JSON, JSON behind ``Output JSON:``, JSON in a code fence, a
Python literal with JSON's ``null``, a bare ``{...}, {...}`` sequence of
literals, and a literal whose strings need backslash escapes. Then one tree
of ``--widths`` columns each, as JSON and as a literal. Prints the
microseconds per reply, the least of ``--repeats`` runs (on a shared host,
the one that other processes slowed least), and whether ``ast`` was loaded
before the escaped literals, the one shape that must reach it.

Exits 1 if any reply's knowledge differs from what ``ast.literal_eval`` of
the tree's Python rendering gives through ``canonicalize``.

Uses no module of the repository but ``convground``, so any version's
``src`` can be timed:

    python scripts/parse_sweep.py --src src
    python scripts/parse_sweep.py --src ../parent/src --replies 1000
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Any

NAMES = ("area", "year", "city", "rank", "total", "price", "données", "数据")
WORDS = ("north", "south", "naïve", "east", "west", "ok", "null", "None")


def _column(rng: random.Random, name: str, escaped: bool) -> dict[str, Any]:
    column: dict[str, Any] = {"column_name": name}
    if escaped:
        column["description"] = rng.choice(("it's the \"best\"", "a\tb", "back\\slash"))
    elif rng.random() < 0.5:
        column["description"] = f"the {name} of each {rng.choice(WORDS)} row"
    if rng.random() < 0.5:
        column["values"] = rng.sample(WORDS, 3)
    if rng.random() < 0.5:
        low = rng.randint(0, 50)
        column["min_value"], column["max_value"] = low, low + rng.choice((1, 2.5, 90))
    if rng.random() < 0.2:
        column["description"] = None
    return column


def _tree(rng: random.Random, width: int, escaped: bool = False) -> dict[str, Any]:
    tree: dict[str, Any] = {"table_domain": rng.choice((None, "sports", "weather"))}
    if rng.random() < 0.5:
        tree["row_count"] = rng.randint(100, 999)
    tree["column_info"] = [
        _column(rng, f"{rng.choice(NAMES)} {i}", escaped) for i in range(width)
    ]
    return tree


def _literal(obj: Any) -> str:
    """A Python-literal rendering with JSON's ``null``, as models often print."""
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_literal(k)}: {_literal(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_literal(v) for v in obj) + "]"
    return repr(obj)


def _shapes(args: argparse.Namespace) -> list[tuple[str, list[tuple[str, Any]]]]:
    """Per shape, its replies, each with the tree that it renders."""
    rng = random.Random(args.seed)
    trees = [_tree(rng, rng.randint(0, 3)) for _ in range(args.replies)]
    # Fragments of two or more columns, as a bare sequence renders them.
    columns = [_tree(rng, rng.randint(2, 3))["column_info"] for _ in range(args.replies)]
    escaped = [_tree(rng, rng.randint(1, 3), escaped=True) for _ in range(args.replies)]
    shapes = [
        ("json", [(json.dumps(t, ensure_ascii=False), t) for t in trees]),
        ("prefixed json", [("Output JSON: " + json.dumps(t), t) for t in trees]),
        ("fenced json", [("```json\n" + json.dumps(t, indent=2) + "\n```", t) for t in trees]),
        ("literal", [("Output JSON: " + _literal(t), t) for t in trees]),
        ("bare sequence", [(", ".join(map(_literal, c)), c) for c in columns]),
    ]
    for width in args.widths:
        wide = _tree(rng, width)
        shapes.append((f"json, {width} columns", [(json.dumps(wide), wide)]))
        shapes.append((f"literal, {width} columns", [(_literal(wide), wide)]))
    # Last: the one shape that needs ast, so that the others show whether
    # they loaded it.
    shapes.append(("escaped literal", [(repr(t), t) for t in escaped]))
    return shapes


def _reading(parse, raw: str) -> str:
    try:
        return repr(parse(raw))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is timed")
    parser.add_argument("--replies", type=int, default=200, help="replies per shape")
    parser.add_argument("--widths", type=int, nargs="+", default=[1, 10, 100, 400],
                        help="column counts of the wide trees")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from convground import canonicalize, parse_knowledge_json

    shapes = _shapes(args)
    timed = []
    for name, replies in shapes:
        if name == "escaped literal":
            ast_before = "ast" in sys.modules
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            for raw, _tree_ in replies:
                _reading(parse_knowledge_json, raw)
            times.append((time.perf_counter() - start) / len(replies) * 1e6)
        timed.append((name, len(replies), min(times)))

    import ast

    wrong = []
    for name, replies in shapes:
        for raw, tree in replies:
            expected = _reading(lambda _: canonicalize(ast.literal_eval(repr(tree))), raw)
            if _reading(parse_knowledge_json, raw) != expected:
                wrong.append((name, raw))
    print(f"{'shape':<22}  {'replies':>7}  {'us/reply':>9}")
    for name, count, micros in timed:
        print(f"{name:<22}  {count:>7}  {micros:>9.1f}")
    print(f"ast loaded before the escaped literals: {'yes' if ast_before else 'no'}")
    for name, raw in wrong[:5]:
        print(f"WRONG ({name}): {raw[:120]!r}")
    if wrong:
        print(f"{len(wrong)} replies read differently from ast.literal_eval")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
