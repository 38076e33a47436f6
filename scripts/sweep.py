"""Time the package's layers case by case, and check every result.

Each case builds its inputs from a fixed seed as rows (a label, a call, a
check of the call's first result) and runs in its own child interpreter,
so that what one case loads or hides does not reach another. A row's
batch of calls doubles until it takes at least 10 ms (the warm-up); the
row then prints µs per unit of work (a call, commit, reply or request)
as the median and interquartile spread of ``--repeats`` such batches.
Then every result is checked: a wrong one, or a call that raised, prints
WRONG and the script exits 1. ``--repeats 0`` only calls and checks.
Only ``convground`` is imported, so any version's ``src`` can be timed:

    python scripts/sweep.py --src src
    python scripts/sweep.py --src ../parent/src judge commit
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Optional, Union

BATCH_S = 0.01


class Row(NamedTuple):
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]  # of the first result
    units: int = 1  # units of work per call; times are per unit


def measure(call: Callable[[], Any], repeats: int) -> tuple[Any, list[float]]:
    """The first result of ``call``, and the µs per call of ``repeats``
    batches, each as large as the warm-up batch: the first, doubling, that
    takes at least ``BATCH_S``."""
    def batch(size: int) -> float:
        start = time.perf_counter()
        for _ in range(size):
            call()
        return time.perf_counter() - start

    result, size = call(), 1
    while repeats and batch(size) < BATCH_S:
        size *= 2
    return result, [batch(size) / size * 1e6 for _ in range(repeats)]


def run(rows: Iterator[Union[Row, str]], repeats: int) -> int:
    """Time and print each row, and print the notes (strings) between them;
    then check every row. A raised error ends the rows. Prints WRONG for the
    error and each failed check, and returns how many it printed."""
    checks, label, wrong = [], "building the rows", 0
    try:
        for row in rows:
            if isinstance(row, str):
                print(row, flush=True)
                continue
            label = row.label
            result, times = measure(row.call, repeats)
            if times:
                q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
                print(f"{label:<44} {statistics.median(times) / row.units:>11.2f} "
                      f"{(q3 - q1) / row.units:>9.2f}", flush=True)
            else:
                print(label, flush=True)
            checks.append((row, result))
    except Exception as exc:
        traceback.print_exc()
        print(f"WRONG {label}: {type(exc).__name__}: {exc}")
        wrong += 1
    for row, result in checks:
        if not row.check(result):
            print(f"WRONG {row.label}")
            wrong += 1
    return wrong


def judge() -> Iterator[Row]:
    """``knowledge_equivalent`` on lists of 8 to 1,024 values: a match of
    case and punctuation variants, a near miss of repeats, two-word values,
    and integers against floats; then tables of 100 to 1,600 columns, and a
    batch of 120 small near misses judged as one unit."""
    from convground import canonicalize, knowledge_equivalent

    def column(values: list[Any]):
        return canonicalize({"column_info": [{"column_name": "city", "values": values}]})

    def judged(label: str, a, b, expected: bool) -> Row:
        return Row(label, lambda: knowledge_equivalent(a, b), lambda verdict: verdict is expected)

    forms = (str, str.title, str.upper, lambda v: f"{v}.")
    rng = random.Random(0)
    for n in (2**k for k in range(3, 11)):
        values = [f"city{i:04d}" for i in range(n)]
        variants = [rng.choice(forms)(v) for v in values]
        rng.shuffle(variants)
        repeated = [values[0]] * (n - 1)
        phrases = [f"north {v}" for v in values]
        phrase_variants = [rng.choice(forms)(v) for v in phrases]
        rng.shuffle(phrase_variants)
        floats = [float(i) for i in range(n)]
        rng.shuffle(floats)
        yield judged(f"match, {n} values", column(values), column(variants), True)
        yield judged(f"near miss, {n} values", column(repeated + [values[1]]),
                     column(repeated + [values[2]]), False)
        yield judged(f"multi-word match, {n} values", column(phrases),
                     column(phrase_variants), True)
        yield judged(f"numeric match, {n} values", column(list(range(n))), column(floats), True)
    for width in (100, 400, 1600):
        names = [f"total col{i:05d}" for i in range(width)]
        shuffled = [name.upper() for name in names]
        rng.shuffle(shuffled)
        yield judged(f"table of {width} columns", canonicalize({"column_names": names}),
                     canonicalize({"column_names": shuffled}), True)
    yield _near_misses(rng)


def _near_misses(rng: random.Random) -> Row:
    """120 knowledge pairs shaped like evaluate's near misses: a column of 6
    to 8 one-word values, all but the last one repeated, whose last value
    differs, named "{q} {noun} in km2" against "{q} {noun}", beside a column
    of bounds. Every verdict is false; times are per pair."""
    from convground import canonicalize, knowledge_equivalent

    syllables = "ka lo mi ne ru ta vo zi be du".split()
    pairs = []
    for i, n in enumerate(([6] * 14 + [7] * 5 + [8]) * 6):
        repeated, last, other = ("".join(rng.sample(syllables, 3)) + str(k) for k in range(3))
        q, noun = f"{rng.choice(syllables)}side{i}", f"{rng.choice(syllables)}ware{i}"
        bounds = {"column_name": f"rank{i}", "min_value": 1, "max_value": 10 + i}
        gold = [{"column_name": f"{q} {noun} in km2", "values": [repeated] * (n - 1) + [last]},
                bounds]
        predicted = [bounds,
                     {"column_name": f"{q} {noun}", "values": [repeated] * (n - 1) + [other]}]
        pairs.append((canonicalize({"column_info": predicted}),
                      canonicalize({"column_info": gold})))
    return Row("120 near misses of 6-8 values",
               lambda: [knowledge_equivalent(a, b) for a, b in pairs],
               lambda verdicts: len(verdicts) == 120 and not any(verdicts), len(pairs))


def _committed(label: str, kb, deltas: list, expected: list) -> Row:
    """Commit each delta to ``kb``, keeping only the ops, so that no result
    outlives its commit; check that each gives the ops ``expected``."""
    from convground import commit

    return Row(label, lambda: [commit(kb, delta)[2] for delta in deltas],
               lambda op_lists: [[op.op for op in ops] for ops in op_lists]
               == [expected] * len(deltas), len(deltas))


def commits() -> Iterator[Row]:
    """200 one-fact commits to one merge result of 10 to 1,600 columns: an
    update of a held column (one UpdateNode), and a new column (CreateNode)."""
    from convground import EMPTY_KNOWLEDGE, OpKind, canonicalize, commit

    for width in (10, 100, 400, 1600):
        names = [f"col{i:05d}" for i in range(width)]
        kb = commit(EMPTY_KNOWLEDGE, canonicalize({"column_names": names}))[0]
        updates = [canonicalize({"column_name": names[k * 7 % width], "max_value": k})
                   for k in range(200)]
        creates = [canonicalize({"column_name": f"new{k:05d}"}) for k in range(200)]
        yield _committed(f"update, {width} columns", kb, updates, [OpKind.UPDATE_NODE])
        yield _committed(f"create, {width} columns", kb, creates, [OpKind.CREATE_NODE])


def shared_token() -> Iterator[Row]:
    """1,000 to 4,000 column names sharing a term, into the empty knowledge base."""
    from convground import EMPTY_KNOWLEDGE, OpKind, canonicalize

    for n in (1000, 2000, 4000):
        delta = canonicalize({"column_names": [f"name {i} w{i}" for i in range(n)]})
        yield _committed(f"{n} names sharing a term", EMPTY_KNOWLEDGE, [delta],
                         [OpKind.CREATE_NODE] * n)


NAMES = ("area", "year", "city", "rank", "total", "price", "données", "数据")
WORDS = ("north", "south", "naïve", "east", "west", "ok", "null", "None")


def _tree(rng: random.Random, width: int, escaped: bool = False) -> dict[str, Any]:
    tree: dict[str, Any] = {"table_domain": rng.choice((None, "sports", "weather"))}
    if rng.random() < 0.5:
        tree["row_count"] = rng.randint(100, 999)
    tree["column_info"] = []
    for i in range(width):
        name = f"{rng.choice(NAMES)} {i}"
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
        tree["column_info"].append(column)
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


def _fold_of_facts(tree: Any) -> Any:
    """``knowledge_from_facts`` of the facts of each fragment's top-level
    fields and of each of its columns, read on its own (one column never
    folds). It checks ``canonicalize``'s choice of which trees to fold."""
    from convground import canonicalize, facts, knowledge_from_facts

    fact_list = []
    for fragment in tree if isinstance(tree, list) else [tree]:
        rest = {k: v for k, v in fragment.items() if k != "column_info"}
        for part in [rest, *({"column_info": [e]} for e in fragment.get("column_info", ()))]:
            fact_list.extend(facts(canonicalize(part)))
    return knowledge_from_facts(fact_list)


def _reading(read: Callable[[Any], Any], given: Any) -> str:
    try:
        return repr(read(given))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _parsed(label: str, replies: list[tuple[str, Any]]) -> Row:
    """Read each reply; check each reading against ``ast`` and the fold of facts."""
    from convground import canonicalize, parse_knowledge_json

    def check(readings: list[str]) -> bool:
        import ast

        trees = [tree for _, tree in replies]
        expected = [_reading(lambda t: canonicalize(ast.literal_eval(repr(t))), t) for t in trees]
        return readings == expected == [_reading(_fold_of_facts, t) for t in trees]

    return Row(label, lambda: [_reading(parse_knowledge_json, raw) for raw, _ in replies],
               check, len(replies))


def parse() -> Iterator[Union[Row, str]]:
    """``parse_knowledge_json`` per reply shape (200 replies, each with the
    tree it renders); then trees of 1 to 400 columns as JSON, as a literal,
    and as JSON with no two names sharing a term, so nothing folds. Last, a
    check that no timed call loaded ``ast``."""
    had_ast = "ast" in sys.modules
    rng = random.Random(0)
    trees = [_tree(rng, rng.randint(0, 3)) for _ in range(200)]
    # Fragments of two or more columns, as a bare sequence renders them.
    columns = [_tree(rng, rng.randint(2, 3))["column_info"] for _ in range(200)]
    escaped = [_tree(rng, rng.randint(1, 3), escaped=True) for _ in range(200)]
    yield _parsed("json", [(json.dumps(t, ensure_ascii=False), t) for t in trees])
    yield _parsed("prefixed json", [("Output JSON: " + json.dumps(t), t) for t in trees])
    yield _parsed("fenced json", [("```json\n" + json.dumps(t, indent=2) + "\n```", t)
                                  for t in trees])
    yield _parsed("literal", [("Output JSON: " + _literal(t), t) for t in trees])
    yield _parsed("bare sequence", [(", ".join(map(_literal, c)), c) for c in columns])
    for width in (1, 10, 100, 400):
        wide = _tree(rng, width)
        yield _parsed(f"json, {width} columns", [(json.dumps(wide), wide)])
        yield _parsed(f"literal, {width} columns", [(_literal(wide), wide)])
        unshared = {**wide, "column_info": [
            {**column, "column_name": f"col{i}"} for i, column in enumerate(wide["column_info"])
        ]}
        yield _parsed(f"json, {width} unshared", [(json.dumps(unshared), unshared)])
    yield _parsed("escaped literal", [(repr(t), t) for t in escaped])
    yield Row("ast left unloaded", lambda: "ast" in sys.modules, lambda loaded: loaded == had_ast)


TURN_WORDS = ("table", "row", "column", "year", "city", "total", "area", "naïve", "données",
              "数据", "price", 'the "best"', "back\\slash", "rank", "count", "emoji 🙂")


def _requests() -> list[list]:
    """Per seeded dialogue (40 of 50 turns, texts that JSON must escape, a
    knowledge base that changes every third turn), a classification and an
    extraction request per turn, as ``annotate --all-turns --incremental-kb``."""
    from convground import CompletionRequest, Role, Turn
    from convground.prompts import Transcript, build_classification_prompt, build_extraction_prompt

    rng = random.Random(0)
    out = []
    for d in range(40):
        transcript, history, columns, requests = Transcript(), [], [], []
        for t in range(1, 51):
            words = rng.choices(TURN_WORDS, k=rng.randint(8, 30))
            if rng.random() < 0.2:
                words.insert(rng.randrange(len(words)), "\n")
            history.append(Turn(t, Role.SEEKER if t % 2 else Role.PROVIDER, " ".join(words)))
            if t % 3 == 0:
                columns.append({"column_name": f"{rng.choice(TURN_WORDS)} {len(columns)}",
                                "values": rng.sample(TURN_WORDS, 3),
                                "max_value": rng.randint(1, 99)})
            kb = json.dumps({"table_domain": f"domain {d}", "row_count": t // 3,
                             "column_info": columns}, ensure_ascii=False)
            requests.append(CompletionRequest(
                messages=tuple(build_classification_prompt(history[:], transcript))))
            requests.append(CompletionRequest(
                messages=tuple(build_extraction_prompt(history[:], kb, transcript))))
        out.append(requests)
    return out


def hashes(variant: str) -> Iterator[Union[Row, str]]:
    """``request_hash`` of every request, a new transcript per dialogue, with
    the interpreter's ``built-in`` SHA-256 or, with it hidden, ``hashlib``'s
    (OpenSSL); or ``counted``, once through a hashlib and a JSON escape
    wrapped to count what is hashed and escaped."""
    if variant != "built-in":
        sys.modules["_sha2"] = sys.modules["_sha256"] = None  # type: ignore[assignment]
    if variant == "counted":
        import hashlib

        real_sha256, hashed = hashlib.sha256, [0]

        class Counting:
            def __init__(self, data: bytes = b"", state=None):
                self.state = state or real_sha256()
                self.update(data)

            def update(self, data: bytes) -> None:
                hashed[0] += len(data)
                self.state.update(data)

            def copy(self) -> "Counting":
                return Counting(state=self.state.copy())

            def hexdigest(self) -> str:
                return self.state.hexdigest()

        hashlib.sha256 = Counting  # type: ignore[assignment]
    from convground.llm import request_hash
    from convground.prompts import Transcript

    dialogues = _requests()
    count = sum(map(len, dialogues))

    def hash_all() -> list[str]:
        digests = []
        for requests in dialogues:
            transcript = Transcript()
            digests += [request_hash(request, transcript) for request in requests]
        return digests

    def check(digests: list[str]) -> bool:
        import hashlib

        bodies = (json.dumps(request.wire_body(), sort_keys=True, ensure_ascii=False)
                  for requests in dialogues for request in requests)
        return digests == [hashlib.sha256(body.encode("utf-8")).hexdigest() for body in bodies]

    if variant != "counted":
        yield Row(f"request_hash, {variant} SHA-256", hash_all, check, count)
        yield f"OpenSSL loaded: {'yes' if '_hashlib' in sys.modules else 'no'}"
        return
    escape, escaped = json.encoder.encode_basestring, []
    json.encoder.encode_basestring = lambda text: escaped.append(text) or escape(text)
    try:
        hash_all()
    finally:
        json.encoder.encode_basestring, hashlib.sha256 = escape, real_sha256
    yield (f"{count} requests; {hashed[0] / 1e6:.2f} MB hashed; "
           f"{sum(map(len, escaped)):,} characters escaped")


def cache_load() -> Iterator[Row]:
    """``ResponseCache`` loading a record per request of ``_requests``, with
    its body: in the key order that ``ResponseCache.put`` and
    ``benchmarks/generate.py`` write, which the loader checks span by span,
    and with every key sorted, which it decodes in full. Each load must
    equal the responses that ``json.loads`` of each line gives."""
    from convground import ResponseCache
    from convground.llm import request_hash

    rng = random.Random(0)
    records = [{"hash": request_hash(request), "request": request.wire_body(),
                "response": "Output JSON: " + json.dumps({"column_name": rng.choice(WORDS)})}
               for requests in _requests() for request in requests]
    with tempfile.TemporaryDirectory() as tmp:
        for order, sort_keys in (("writer's key order", False), ("keys sorted", True)):
            lines = [json.dumps(r, ensure_ascii=False, sort_keys=sort_keys) + "\n"
                     for r in records]
            path = Path(tmp) / f"{order}.jsonl"
            path.write_text("".join(lines), encoding="utf-8")
            expected = {r["hash"]: r["response"] for r in map(json.loads, lines)}
            yield Row(f"load {len(records):,} records, {order}", partial(ResponseCache, path),
                      partial(_holds_exactly, expected))


def _holds_exactly(expected: dict[str, str], cache: Any) -> bool:
    return len(cache) == len(expected) and all(cache.get(k) == v for k, v in expected.items())


# Each case's row generators, each run in its own child interpreter.
CASES: dict[str, tuple[Callable[[], Iterator[Union[Row, str]]], ...]] = {
    "judge": (judge,),
    "commit": (commits,),
    "shared-token": (shared_token,),
    "parse": (parse,),
    "hash": (partial(hashes, "built-in"), partial(hashes, "hashlib"), partial(hashes, "counted")),
    "cache-load": (cache_load,),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="case",
                        help=f"the cases to run (default: all): {', '.join(CASES)}")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is timed")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed batches per row (0: call and check each row once)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name in set(args.cases) - CASES.keys():
        parser.error(f"unknown case {name!r}; choose from {', '.join(CASES)}")
    if args.child:
        sys.path.insert(0, str(args.src.resolve()))
        name, index = args.child.rsplit(":", 1)
        return 1 if run(CASES[name][int(index)](), args.repeats) else 0

    print(f"{'row':<44} {'us/unit':>11} {'spread':>9}")
    status = 0
    for name in args.cases or CASES:
        print(f"\n[{name}]", flush=True)
        for index in range(len(CASES[name])):
            child = [sys.executable, __file__, "--child", f"{name}:{index}",
                     "--src", str(args.src), "--repeats", str(args.repeats)]
            status |= subprocess.run(child).returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
