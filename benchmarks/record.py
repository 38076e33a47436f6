"""Run the benchmark on several seeds, twice, and record medians, spreads and counts.

    python3 benchmarks/record.py --seeds 10 --out benchmarks/results/NAME.json

It makes two sets of untraced runs on seeds 1..N. Within a set it takes the
seeds in turn and runs every workload on each seed before the next, so a
drift in the machine's speed falls on all workloads alike. Each run is
``run.py --trace 0`` in a separate process. Per workload and end-to-end
metric it reports each set's median and quartile spread (q3 - q1) / median
next to the metric's bound, and how much worse the second set's median is
than the first's. Then it runs ``run.py --trace 1`` twice on seed 1 per
workload, records the per-layer metrics and checks that the exact counts
are equal. The machine's details go into the output with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from run import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
TRACED_RUNS = 2
_SHAPE_LINE = re.compile(r"^# (\S+) \(seed (\d+)\): shape (.*)$")


def machine() -> dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def bench(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict[str, Any], Any]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    shape = None
    for line in lines:
        match = _SHAPE_LINE.match(line)
        if match:
            shape = json.loads(match.group(3))
    return json.loads(lines[-1]), shape


def set_summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    runs: dict[str, list[list[dict[str, Any]]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    shapes: dict[str, Any] = {}
    started = time.time()
    for set_index in range(SETS):
        for seed in seeds:
            for workload in workloads:
                result, shapes[workload] = bench(workload, seed, 0, seconds)
                runs[workload][set_index].append({"seed": seed, **result})
                print(f"set {set_index + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)

    record: dict[str, Any] = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "sets": SETS,
        "wall_seconds": None,
        "workloads": {},
    }
    for workload in workloads:
        entry: dict[str, Any] = {"why": whys[workload], "shape": shapes[workload],
                                 "end_to_end": {}, "runs": runs[workload]}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [set_summary([r["metrics"][name]["value"] for r in runs[workload][i]])
                    for i in range(SETS)]
            worse = worse_share(sets[0]["median"], sets[-1]["median"], metric["better"])
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "bound": bound, "sets": sets,
                "within_bound": all(s["spread"] <= bound for s in sets),
                "within_third_of_bound": all(s["spread"] <= bound / 3 for s in sets),
                "second_set_worse_by": worse,
                "sets_agree": worse <= bound,
            }
            print(f"{workload} {name}: medians "
                  + " / ".join(f"{s['median']:.4f}" for s in sets) + f" {metric['unit']}, spreads "
                  + " / ".join(f"{s['spread']:.4f}" for s in sets)
                  + f", second worse by {worse:.4f} (bound {bound})", flush=True)
        record["workloads"][workload] = entry

    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in workloads:
        traced = [bench(workload, seeds[0], 1, seconds)[0] for _ in range(TRACED_RUNS)]
        differing = [
            name for name in exact
            if len({t["metrics"][name]["value"] for t in traced}) != 1
        ]
        record["workloads"][workload]["per_layer"] = traced[0]["metrics"]
        record["workloads"][workload]["per_layer_runs"] = [t["metrics"] for t in traced]
        record["workloads"][workload]["exact_counts_repeat"] = not differing
        print(f"{workload} traced x{len(traced)}: exact counts "
              f"{'repeat' if not differing else 'DIFFER: ' + ', '.join(differing)}", flush=True)

    record["wall_seconds"] = round(time.time() - started, 1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
