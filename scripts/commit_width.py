"""Time one-fact commits against wide knowledge bases, to compare two versions.

For each width N in ``--widths``, a knowledge base of N columns is built as
a merge result (N columns committed to the empty knowledge base), as every
knowledge base after a run's first commit is. Then ``--commits`` one-fact
deltas are each committed against it:

- Update: a column it holds gains a maximum (a partial match, one UpdateNode);
- Create: a column it does not hold (a novel fact, one CreateNode).

Every commit starts from the same N-column knowledge base, so the cost per
commit does not drift as the loop runs. Prints the median milliseconds per
commit over ``--repeats`` loops, and exits 1 if a commit gives another op.
Only the public API is used, so any version's ``src`` can be timed:

    python scripts/commit_width.py --src src
    python scripts/commit_width.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is timed")
    parser.add_argument("--widths", type=int, nargs="+", default=[10, 100, 400, 1600])
    parser.add_argument("--commits", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from convground import EMPTY_KNOWLEDGE, OpKind, canonicalize, commit

    def median_ms(kb, deltas, expected: OpKind) -> float:
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            # Only the ops are kept, so that no result outlives its commit.
            op_lists = [commit(kb, delta)[2] for delta in deltas]
            times.append((time.perf_counter() - start) * 1000 / len(deltas))
            for ops in op_lists:
                if [op.op for op in ops] != [expected]:
                    raise SystemExit(f"expected one {expected.value}, got {ops}")
        return statistics.median(times)

    print(f"{'columns':>7}  {'update ms':>9}  {'create ms':>9}")
    for width in args.widths:
        names = [f"col{i:05d}" for i in range(width)]
        kb = commit(EMPTY_KNOWLEDGE, canonicalize({"column_names": names}))[0]
        updates = [canonicalize({"column_name": names[k * 7 % width], "max_value": k})
                   for k in range(args.commits)]
        creates = [canonicalize({"column_name": f"new{k:05d}"}) for k in range(args.commits)]
        update = median_ms(kb, updates, OpKind.UPDATE_NODE)
        create = median_ms(kb, creates, OpKind.CREATE_NODE)
        print(f"{width:>7}  {update:>9.3f}  {create:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
