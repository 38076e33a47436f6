"""A fixed piece of work that gauges the machine's speed during a run.

    python3 benchmarks/reference.py   # prints the seconds the work took

It uses only the standard library, so no change to convground can change
its cost. Like the CLI commands it runs in a fresh interpreter and spends
its time in dicts, strings, JSON and sorting over some tens of MB. On a
shared host the speed of such code moves with other tenants' use of the
shared cache and memory, for periods of tens of seconds; the reference
moves with it, and ``run.py`` divides the commands' times by its time.
"""

import json
import re
import time

ROWS = 30000


def work() -> int:
    words = ["w%dx%d" % (i * 7919 % 100003, i % 97) for i in range(2 * ROWS)]
    rows = [{"name": words[i], "tags": words[i:i + 4], "n": i} for i in range(0, 2 * ROWS, 2)]
    back = json.loads(json.dumps(rows))
    index: dict[str, list[int]] = {}
    for row in back:
        key = re.sub(r"[^a-z]+", " ", row["name"]).strip()
        index.setdefault(key, []).append(row["n"])
        for tag in row["tags"]:
            index.setdefault(tag.upper(), []).append(len(tag))
    return len(sorted(index, key=lambda k: (len(index[k]), k)))


if __name__ == "__main__":
    started = time.perf_counter()
    work()
    print(time.perf_counter() - started)
