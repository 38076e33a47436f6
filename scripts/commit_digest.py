"""Digest many random commits, to compare two versions of the commit path.

Builds ``--cases`` random cases of a knowledge base and three deltas over
column names that overlap without transitivity ("area" is equivalent to
"area size" and "area total", which are not equivalent to each other), with
NaN bounds, descriptions, values, distinct counts and row counts. Each case
is canonicalized and the first delta committed, then committed again
against the same knowledge base and once more against the result. The other
two deltas are then committed in turn, each against the result of the
commit before, so that knowledge bases merged from merge results are
digested too. A case that raises ends there. Prints one SHA-256 over every
result, verdict list, op list and raised error type, then the number of
cases that raised. :func:`digest` takes the implementation as arguments
(``tests/test_reference.py`` digests the reference model with it), and
only the public API is used, so any version's ``src`` can be digested:

    python scripts/commit_digest.py --src src --seed 1 --cases 5000
    python scripts/commit_digest.py --src ../parent/src --seed 1 --cases 5000

Equal digests mean equal behaviour on those cases.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any

NAMES = ("area", "area size", "area total", "size", "total", "Area", "2020", "%")
TEXTS = ("area", "total area", "size", "%")
BOUNDS = (0, 1, 2, 3, float("nan"))


def random_column(rng: random.Random) -> dict[str, Any]:
    column: dict[str, Any] = {"column_name": rng.choice(NAMES)}
    for bound in ("min_value", "max_value"):
        if rng.random() < 0.4:
            column[bound] = rng.choice(BOUNDS)
    low, high = column.get("min_value"), column.get("max_value")
    if low is not None and high is not None and low > high and rng.random() < 0.8:
        # Mostly ordered, so that most cases reach commit; crossed bounds
        # still meet across the knowledge base and the delta.
        column["min_value"], column["max_value"] = high, low
    if rng.random() < 0.3:
        column["description"] = rng.choice(TEXTS)
    if rng.random() < 0.3:
        column["values"] = rng.sample(NAMES, rng.randint(0, 2))
    if rng.random() < 0.3:
        column["distinct_count"] = rng.randint(0, 5)
    return column


def random_knowledge(rng: random.Random) -> dict[str, Any]:
    raw: dict[str, Any] = {
        "column_info": [random_column(rng) for _ in range(rng.randint(0, 4))]
    }
    if rng.random() < 0.3:
        raw["row_count"] = rng.randint(0, 9)
    return raw


def outcome_of(commit, kb, delta) -> tuple[Any, list[Any]]:
    """The package's ``commit(kb, delta)``: its result, and the result, the
    outcomes and the ops in the shapes that are digested."""
    result, outcomes, ops = commit(kb, delta)
    return result, [
        result.to_json_dict(),
        [(str(o.fact.key), o.verdict.value, str(o.matched_key)) for o in outcomes],
        [op.to_json_dict() for op in ops],
    ]


def digest(canonicalize, commit, rejected, seed: int, cases: int) -> tuple[str, int]:
    """The SHA-256 of ``cases`` random cases drawn from ``seed``, and the
    number of cases that raised ``rejected``, which ends a case.

    ``commit(kb, delta)`` returns the result, which the next commit takes,
    and the digested shapes of the result, its outcomes and its ops, so any
    implementation of the commit rules that gives them can be digested.
    """
    rng = random.Random(seed)
    sha = hashlib.sha256()
    raised = 0
    for _ in range(cases):
        raw_kb, raw_delta, *raw_further = [random_knowledge(rng) for _ in range(4)]
        record: list[Any] = []
        try:
            kb, delta = canonicalize(raw_kb), canonicalize(raw_delta)
            result = commit(kb, delta)[0]
            record += [commit(kb, delta)[1], commit(kb, delta)[1], commit(result, delta)[1]]
            for raw in raw_further:
                result, digested = commit(result, canonicalize(raw))
                record.append(digested)
        except rejected as exc:  # recorded by type: implementations must raise alike
            raised += 1
            record.append(type(exc).__name__)
        sha.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    return sha.hexdigest(), raised


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is digested")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=5000)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from convground import canonicalize, commit

    # Any error is recorded by its type, so versions that raise differently
    # digest differently instead of stopping the run.
    package_commit = functools.partial(outcome_of, commit)
    hexdigest, raised = digest(canonicalize, package_commit, Exception, args.seed, args.cases)
    print(f"digest {hexdigest}")
    print(f"raised {raised} of {args.cases}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
