"""Self-tests of the benchmark: generator, output checks and a tiny smoke run.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
from convground import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "knowledge.terms_equivalent_calls",
    "knowledge.normalize_term_calls",
    "assessment.commit_calls",
    "assessment.verdict.match",
    "assessment.verdict.partial_match",
    "assessment.verdict.conflict",
    "assessment.verdict.novel",
    "assessment.ops",
)


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def _generate_in_subprocess(workload: str, seed: int, out: Path, hash_seed: str) -> None:
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
        "import generate; "
        f"generate.generate({workload!r}, {seed}, Path({str(out)!r}), 'tiny')"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    # Different string-hash seeds guard against set iteration order leaking
    # into the files.
    _generate_in_subprocess(workload, 3, tmp_path / "a", "1")
    _generate_in_subprocess(workload, 3, tmp_path / "b", "2")
    _generate_in_subprocess(workload, 4, tmp_path / "c", "1")
    first, again, other = (_digests(tmp_path / d) for d in "abc")
    assert first == again
    assert first != other


def _run_in_process(workload: str, work: Path, capsys) -> tuple[dict, str]:
    manifest = generate.generate(workload, 5, work, "tiny")
    capsys.readouterr()
    code = cli.main(manifest["argv"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert checks.check(workload, work, 0, stdout, "", manifest["turns"]) == (0, [])
    return manifest, stdout


def _rewrite_jsonl(path: Path, edit) -> None:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records = edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _flip(label: str) -> str:
    return "implicit" if label != "implicit" else "explicit"


class TestChecksCatchWrongOutputs:
    def test_annotate(self, tmp_path, capsys):
        manifest, _ = _run_in_process("annotate_incremental", tmp_path, capsys)
        predictions = tmp_path / "predictions.jsonl"
        pristine = predictions.read_text(encoding="utf-8")
        turns = manifest["turns"]

        def flip_one_label(records):
            records[3]["label"] = _flip(records[3]["label"])
            return records

        _rewrite_jsonl(predictions, flip_one_label)
        failed, mismatches = checks.check("annotate_incremental", tmp_path, 0, "", "", turns)
        assert failed == 0 and len(mismatches) == 1 and "label" in mismatches[0]

        predictions.write_text(pristine, encoding="utf-8")

        def drop_a_column(records):
            record = next(r for r in records if r["knowledge"].get("column_info"))
            record["knowledge"]["column_info"].pop()
            return records

        _rewrite_jsonl(predictions, drop_a_column)
        failed, mismatches = checks.check("annotate_incremental", tmp_path, 0, "", "", turns)
        assert failed == 0 and len(mismatches) == 1 and "knowledge" in mismatches[0]

        predictions.write_text(pristine, encoding="utf-8")
        _rewrite_jsonl(predictions, lambda records: records[1:])
        assert checks.check("annotate_incremental", tmp_path, 0, "", "", turns) == (1, [])

        predictions.write_text(pristine, encoding="utf-8")
        first = json.loads(pristine.splitlines()[0])
        miss = f"cache misses:\n  dialogue {first['dialogue_id']} turn {first['turn_index']}: abc\n"
        assert checks.check("annotate_incremental", tmp_path, 0, "", miss, turns) == (1, [])
        assert checks.check("annotate_incremental", tmp_path, 1, "", "", turns)[0] == turns

    def test_ground(self, tmp_path, capsys):
        manifest, _ = _run_in_process("ground_wide", tmp_path, capsys)
        trace = tmp_path / "trace.jsonl"
        pristine = trace.read_text(encoding="utf-8")
        turns = manifest["turns"]

        def drop_final_column(records):
            final = next(r for r in records if "final_knowledge" in r)
            final["final_knowledge"]["column_info"].pop(0)
            return records

        _rewrite_jsonl(trace, drop_final_column)
        failed, mismatches = checks.check("ground_wide", tmp_path, 0, "", "", turns)
        assert failed == 0 and len(mismatches) == 1 and "final columns" in mismatches[0]

        trace.write_text(pristine, encoding="utf-8")

        def wrong_rows(records):
            final = next(r for r in records if "final_knowledge" in r)
            final["final_knowledge"]["row_count"] += 1
            return records

        _rewrite_jsonl(trace, wrong_rows)
        failed, mismatches = checks.check("ground_wide", tmp_path, 0, "", "", turns)
        assert failed == 0 and len(mismatches) == 1 and "row_count" in mismatches[0]

        trace.write_text(pristine, encoding="utf-8")
        _rewrite_jsonl(trace, lambda records: records[1:])
        assert checks.check("ground_wide", tmp_path, 0, "", "", turns) == (1, [])
        assert checks.check("ground_wide", tmp_path, 1, "", "", turns)[0] == turns

    def test_evaluate(self, tmp_path, capsys):
        manifest, stdout = _run_in_process("evaluate_judge", tmp_path, capsys)
        report_path = tmp_path / "report.json"
        pristine = report_path.read_text(encoding="utf-8")
        turns = manifest["turns"]

        wrong_summary = stdout.rstrip().rsplit("\n", 1)[0] + "\nexplicit 0/0\n"
        failed, mismatches = checks.check("evaluate_judge", tmp_path, 0, wrong_summary, "", turns)
        assert failed == 0 and len(mismatches) == 1 and "summary" in mismatches[0]

        report = json.loads(pristine)
        verdict = report["per_turn"][2]["knowledge_verdict"]
        report["per_turn"][2]["knowledge_verdict"] = (
            "not_equivalent" if verdict == "equivalent" else "equivalent"
        )
        report_path.write_text(json.dumps(report), encoding="utf-8")
        failed, mismatches = checks.check("evaluate_judge", tmp_path, 0, stdout, "", turns)
        assert failed == 0 and len(mismatches) == 1 and "verdict" in mismatches[0]

        report = json.loads(pristine)
        del report["per_turn"][0]
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert checks.check("evaluate_judge", tmp_path, 0, stdout, "", turns) == (1, [])
        assert checks.check("evaluate_judge", tmp_path, 1, stdout, "", turns)[0] == turns


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                      "--trace", trace, "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert [m["name"] for m in declared] == list(result["metrics"])
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == "0":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat_across_traced_runs():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "ground_wide", "--seed", "2", "--seconds", "0",
                      "--trace", "1", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["assessment.commit_calls"]["value"] > 0


def test_trimmed_mean_averages_both_modes_and_drops_stalls():
    # Ten commands in a fast and a slow mode, plus two stalls at each end.
    samples = [0.1, 0.2] + [1.8] * 5 + [2.6] * 5 + [9.0, 9.5]
    assert run.trimmed_mean(samples) == pytest.approx((1.8 + 2.6) / 2)
    assert run.trimmed_mean([2.0, 3.0]) == 2.5


def test_run_where_every_turn_failed_is_incorrect():
    crashed = {"exit_code": 1, "setup_s": 0.3, "command_s": 0.1, "peak_rss_mb": 30.0,
               "reference_s": 0.6}
    result = {"attempted": 20, "failed": 20, "mismatches": [], "untraced": [crashed] * 2}
    assert run.summarize(result, False, SPEC)["correct"] is False
    assert run.summarize({**result, "failed": 10}, False, SPEC)["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
