"""Time the equivalence judge on long ``values`` lists and wide tables, to compare two versions.

For each list length from 8 to ``--max-length`` (doubling), a column of
distinct values is judged against others by ``knowledge_equivalent``:

- a match: the same values shuffled, each printed as a model might (as is,
  title case, upper case, or with a full stop);
- a near miss: both sides hold n - 1 repeats of one value and differ in the
  last value;
- a multi-word match: as the match, with values of two words each;
- a numeric match: integers against the same numbers as floats, shuffled.

The first two hold one word per value; the last two are lists that the
one-word rule cannot decide. Then, for tables of 100, 400 and 1,600
columns whose names share a word, a table is judged against its names
upper-cased and shuffled.

Prints the median milliseconds of each over ``--repeats`` runs, and exits 1
if a verdict is wrong. Only the public API is used, so any version's ``src``
can be timed:

    python scripts/judge_sweep.py --src src
    python scripts/judge_sweep.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

FORMS = (str, str.title, str.upper, lambda v: f"{v}.")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is timed")
    parser.add_argument("--max-length", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from convground import canonicalize, knowledge_equivalent

    def column(values: list[str]):
        return canonicalize({"column_info": [{"column_name": "city", "values": values}]})

    def median_ms(label: str, a, b, expected: bool) -> float:
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            verdict = knowledge_equivalent(a, b)
            times.append((time.perf_counter() - start) * 1000)
            if verdict is not expected:
                raise SystemExit(f"wrong verdict {verdict} for the {label}")
        return statistics.median(times)

    rng = random.Random(0)
    print(f"{'length':>6}  {'match ms':>9}  {'near miss ms':>12}  {'multi-word ms':>13}  "
          f"{'numeric ms':>10}")
    n = 8
    while n <= args.max_length:
        values = [f"city{i:04d}" for i in range(n)]
        variants = [rng.choice(FORMS)(v) for v in values]
        rng.shuffle(variants)
        repeated = [values[0]] * (n - 1)
        phrases = [f"north {v}" for v in values]
        phrase_variants = [rng.choice(FORMS)(v) for v in phrases]
        rng.shuffle(phrase_variants)
        floats = [float(i) for i in range(n)]
        rng.shuffle(floats)
        match = median_ms(f"match at length {n}", column(values), column(variants), True)
        near = median_ms(f"near miss at length {n}", column(repeated + [values[1]]),
                         column(repeated + [values[2]]), False)
        multi = median_ms(f"multi-word match at length {n}", column(phrases),
                          column(phrase_variants), True)
        numeric = median_ms(f"numeric match at length {n}", column(list(range(n))),
                            column(floats), True)
        print(f"{n:>6}  {match:>9.3f}  {near:>12.3f}  {multi:>13.3f}  {numeric:>10.3f}")
        n *= 2

    print(f"\n{'columns':>7}  {'match ms':>9}")
    for width in (100, 400, 1600):
        names = [f"total col{i:05d}" for i in range(width)]
        shuffled = [name.upper() for name in names]
        rng.shuffle(shuffled)
        table = median_ms(f"table of {width} columns", canonicalize({"column_names": names}),
                          canonicalize({"column_names": shuffled}), True)
        print(f"{width:>7}  {table:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
