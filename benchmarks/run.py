"""Benchmark convground's CLI commands on seeded synthetic inputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all   # every workload, one table

Run from the repository root. The benchmark generates the workload's inputs
from the seed (not timed), then runs the CLI command, each time in a fresh
interpreter, until ``--seconds`` have passed. Every command's outputs are
checked against what the generator planted.

Before each command it times ``reference.py``, a fixed standard-library
workload, in a fresh interpreter as well.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json`` from trimmed means over the commands (see
``trimmed_mean``): ``setup_s`` (spawn until ``convground.cli`` is imported)
and ``command_s`` (one ``main(argv)`` call), both in seconds at reference
speed (see ``REFERENCE_S``), ``peak_rss_mb`` and ``success_share``
(1 - error_share). With ``--trace 1``
it alternates untraced and traced commands and reports the per-layer
metrics of the traced ones, plus ``trace.overhead_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (turns) and ``metrics``. The exit code is 0 only
when every output check passed and at least one turn did not fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.py"
# setup_s and command_s are scaled to the machine speed at which reference.py
# takes this long, about its typical time on the 2-core VM of the baseline:
# each command's seconds * REFERENCE_S / the seconds of the reference run
# just before it. The shared host's speed for this kind of code drifts by up
# to half over tens of seconds; across 36-s windows the reference's trimmed
# means track the commands' with a correlation of 0.95 (setup_s: 0.98).
REFERENCE_S = 0.6

MIN_COMMANDS = 3
MIN_TRACED = 2
# A run must end within 180 s: commands that slow down badly cut it short
# after HARD_LIMIT_S, with fewer commands than the minimum.
COMMAND_TIMEOUT_S = 45
HARD_LIMIT_S = 110
# Counts that must repeat exactly between two traced commands on one input.
EXACT_UNITS = ("count", "bytes")
# Share of the samples dropped at each end before averaging a run's timings.
TRIM_SHARE = 0.2


def _load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Fixed string hashing, so set iteration order and therefore the exact
    # call counts repeat from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_command(argv: list[str], work: Path, trace: bool) -> dict[str, Any]:
    """Spawn one fresh interpreter running the CLI command; return its record."""
    result_path = work / "child_result.json"
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    result_path.unlink(missing_ok=True)
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), "1" if trace else "0", "--", *argv],
            stdout=out, stderr=err, env=_child_env(), cwd=ROOT,
        )
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # recorded below as a failed command
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    record: dict[str, Any] = {"exit_code": 1, "command_s": time.monotonic() - spawned_at}
    if result_path.exists():
        record = json.loads(result_path.read_text(encoding="utf-8"))
        record["setup_s"] = record.pop("imported_at") - spawned_at
        module = Path(record["module_file"]).resolve()
        if SRC.resolve() not in module.parents:
            raise RuntimeError(f"child imported convground from {module}, not from {SRC}")
    record["stdout"] = stdout_path.read_text(encoding="utf-8", errors="replace")
    record["stderr"] = stderr_path.read_text(encoding="utf-8", errors="replace")
    return record


def run_reference() -> float:
    """Seconds reference.py's fixed work takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(REFERENCE)], capture_output=True, text=True,
                          check=True, timeout=COMMAND_TIMEOUT_S)
    return float(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def trimmed_mean(values: list[float]) -> float:
    """Mean of the samples left after dropping TRIM_SHARE of them at each end.

    On a shared VM one command's time jumps between a fast and a slow mode
    that differ by up to half, from one process to the next. The median of a
    run's dozen commands then flips between the modes, while the mean of the
    middle samples weighs them by how often they occur and still ignores
    rare stalls.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM_SHARE)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict[str, Any]:
    """Generate, run and check one workload; return its result and samples."""
    # Imported here: generate imports convground, found through SRC on sys.path.
    import checks
    import generate
    import tracing

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    try:
        manifest = generate.generate(workload, seed, work, size)
        untraced: list[dict[str, Any]] = []
        traced: list[dict[str, Any]] = []
        attempted = failed = 0
        mismatches: list[str] = []
        started = time.monotonic()
        deadline = started + seconds
        while True:
            traced_turn = trace and len(traced) < len(untraced)
            Path(manifest["output"]).unlink(missing_ok=True)
            reference_s = run_reference()
            record = {**run_command(manifest["argv"], work, traced_turn), "reference_s": reference_s}
            turn_failed, turn_mismatches = checks.check(
                workload, work, record["exit_code"], record["stdout"], record["stderr"],
                manifest["turns"],
            )
            attempted += manifest["turns"]
            failed += turn_failed
            mismatches.extend(turn_mismatches)
            if record["exit_code"] != 0:
                sys.stderr.write(record["stderr"][-2000:])
            (traced if traced_turn else untraced).append(record)
            enough = len(untraced) >= MIN_COMMANDS and (not trace or len(traced) >= MIN_TRACED)
            now = time.monotonic()
            if now >= deadline and (enough or now - started >= HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "shape": manifest["shape"],
        "turns_per_command": manifest["turns"],
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "untraced": [{k: r.get(k) for k in ("setup_s", "command_s", "peak_rss_mb", "reference_s",
                                            "exit_code")}
                     for r in untraced],
    }
    if trace:
        per_command = [
            tracing.layer_metrics(r["trace"]) for r in traced if "trace" in r
        ]
        result["traced"] = per_command
        result["traced_command_s"] = [r["command_s"] for r in traced]
        result["missing_hooks"] = sorted({m for r in traced for m in r.get("trace", {}).get("missing", [])})
    return result


def end_to_end_metrics(result: dict[str, Any]) -> dict[str, float]:
    samples = result["untraced"]

    def average(key: str, scale: bool = False) -> float:
        values = [
            s[key] * REFERENCE_S / s["reference_s"] if scale else s[key]
            for s in samples if s.get(key) is not None
        ]
        return trimmed_mean(values) if values else 0.0

    return {
        "setup_s": average("setup_s", scale=True),
        "command_s": average("command_s", scale=True),
        "peak_rss_mb": average("peak_rss_mb"),
        "success_share": 1.0 - result["failed"] / result["attempted"],
    }


def per_layer_metrics(result: dict[str, Any], spec: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    """Medians of the traced commands' layer metrics; exact counts must repeat."""
    per_command = result["traced"]
    problems: list[str] = []
    metrics: dict[str, float] = {}
    if not per_command:
        return {}, ["no traced command produced spans"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in per_command[0]:
        values = [m[name] for m in per_command]
        if units.get(name) in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced commands: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    untraced = [s["command_s"] for s in result["untraced"]]
    metrics["trace.overhead_s"] = trimmed_mean(result["traced_command_s"]) - trimmed_mean(untraced)
    return metrics, problems


def summarize(result: dict[str, Any], trace: bool, spec: dict[str, Any]) -> dict[str, Any]:
    """The contract's result object for one workload run."""
    problems = list(result["mismatches"])
    if result["failed"] == result["attempted"]:
        problems.append("every turn failed: no command produced usable output")
    if trace:
        values, trace_problems = per_layer_metrics(result, spec)
        problems += trace_problems
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(result)
        declared = spec["end_to_end"]
    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "problems": problems,
    }


def _print_human(workload: str, result: dict[str, Any], summary: dict[str, Any], trace: bool) -> None:
    print(f"# {workload} (seed {result['seed']}): shape {json.dumps(result['shape'], sort_keys=True)}")
    commands = len(result["untraced"]) + len(result.get("traced", []))
    print(f"#   {commands} commands, {result['turns_per_command']} turns each, "
          f"{result['failed']}/{result['attempted']} turns failed")
    if not trace:
        print("#   as measured, before setup_s and command_s are scaled to reference speed:")
        for key in ("setup_s", "command_s", "peak_rss_mb", "reference_s"):
            values = [s[key] for s in result["untraced"] if s.get(key) is not None]
            if values:
                q1, q2, q3 = quartiles(values)
                print(f"#   {key}: trimmed mean {trimmed_mean(values):.4f}, median {q2:.4f}, "
                      f"quartiles {q1:.4f}-{q3:.4f}, n={len(values)}")
    if result.get("missing_hooks"):
        print(f"#   hooks not found in the program: {', '.join(result['missing_hooks'])}")
    for name, metric in summary["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(f"{workload} error_share {result['failed'] / result['attempted']:.6g} share")
    for problem in summary["problems"][:10]:
        print(f"#   CHECK FAILED: {problem}", file=sys.stderr)
    if len(summary["problems"]) > 10:
        print(f"#   ... {len(summary['problems']) - 10} more failed checks", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "convground" / "__init__.py").is_file():
        print(f"error: no convground sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import convground

    if SRC.resolve() not in Path(convground.__file__).resolve().parents:
        print(f"error: convground imported from {convground.__file__}, not {SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    workloads = names if args.workload == "all" else [args.workload]
    summaries = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, trace, args.size)
        summary = summarize(result, trace, spec)
        _print_human(workload, result, summary, trace)
        summaries[workload] = summary

    if len(workloads) == 1:
        summary = summaries[workloads[0]]
        final = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, s in summaries.items() for name, metric in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
