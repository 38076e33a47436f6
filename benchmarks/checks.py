"""Output checks: compare one command's outputs with what the generator planted.

``check`` returns the number of failed turns and a list of mismatches. A turn
fails when it is missing from the output or reported as a cache miss; a
non-zero exit fails every turn. A mismatch is a wrong output for a turn that
is present, and makes the run incorrect.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

_MISS_LINE = re.compile(r"^\s+dialogue (\S+) turn (\d+):")


def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_annotate(work: Path, stdout: str, stderr: str) -> tuple[int, list[str]]:
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["turns"]
    output = work / "predictions.jsonl"
    got = {}
    if output.exists():
        got = {(r["dialogue_id"], r["turn_index"]): r for r in _read_jsonl(output)}
    misses = {
        (m.group(1), int(m.group(2)))
        for m in map(_MISS_LINE.match, stderr.splitlines()) if m
    }
    failed, mismatches = 0, []
    for dialogue_id, turns in expected.items():
        for turn, label, knowledge in turns:
            record = got.pop((dialogue_id, turn), None)
            if record is None or (dialogue_id, turn) in misses:
                failed += 1
            elif record["label"] != label:
                mismatches.append(f"{dialogue_id} turn {turn}: label {record['label']!r}, planted {label!r}")
            elif record["knowledge"] != knowledge:
                mismatches.append(
                    f"{dialogue_id} turn {turn}: knowledge {record['knowledge']!r}, planted {knowledge!r}"
                )
    mismatches.extend(f"{d} turn {t}: not a target turn" for d, t in got)
    return failed, mismatches


def check_ground(work: Path, stdout: str, stderr: str) -> tuple[int, list[str]]:
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["dialogues"]
    output = work / "trace.jsonl"
    records = _read_jsonl(output) if output.exists() else []
    turns_seen: dict[str, set[int]] = {}
    finals: dict[str, dict[str, Any]] = {}
    for record in records:
        if "final_knowledge" in record:
            finals[record["dialogue_id"]] = record["final_knowledge"]
        else:
            turns_seen.setdefault(record["dialogue_id"], set()).add(record["turn"])
    failed, mismatches = 0, []
    for dialogue_id, planted in expected.items():
        seen = turns_seen.get(dialogue_id, set())
        failed += sum(1 for t in range(1, planted["turns"] + 1) if t not in seen)
        if not records:
            continue
        final = finals.get(dialogue_id)
        if final is None:
            mismatches.append(f"{dialogue_id}: no final knowledge")
            continue
        names = [c["column_name"] for c in final.get("column_info", [])]
        if sorted(names) != sorted(planted["columns"]):
            missing = sorted(set(planted["columns"]) - set(names))
            extra = sorted(set(names) - set(planted["columns"]))
            mismatches.append(
                f"{dialogue_id}: final columns differ ({len(names)} vs {len(planted['columns'])}; "
                f"missing {missing[:3]}, unexpected {extra[:3]})"
            )
        if final.get("row_count") != planted["row_count"]:
            mismatches.append(
                f"{dialogue_id}: final row_count {final.get('row_count')}, planted {planted['row_count']}"
            )
    return failed, mismatches


def check_evaluate(work: Path, stdout: str, stderr: str) -> tuple[int, list[str]]:
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    output = work / "report.json"
    per_turn = {}
    if output.exists():
        report = json.loads(output.read_text(encoding="utf-8"))
        per_turn = {(r["dialogue_id"], r["turn_index"]): r for r in report["per_turn"]}
    failed, mismatches = 0, []
    for dialogue_id, turn, label_correct, verdict in expected["turns"]:
        result = per_turn.get((dialogue_id, turn))
        if result is None:
            failed += 1
        elif result["label_correct"] != label_correct or result["knowledge_verdict"] != verdict:
            mismatches.append(
                f"{dialogue_id} turn {turn}: label_correct {result['label_correct']}, "
                f"verdict {result['knowledge_verdict']!r}; planted {label_correct}, {verdict!r}"
            )
    if per_turn:
        lines = [line for line in stdout.splitlines() if line.strip()]
        summary = lines[-1] if lines else ""
        if summary != expected["summary"]:
            mismatches.append(f"summary {summary!r}, planted {expected['summary']!r}")
    return failed, mismatches


CHECKS = {
    "annotate_incremental": check_annotate,
    "ground_wide": check_ground,
    "evaluate_judge": check_evaluate,
}


def check(workload: str, work: Path, exit_code: int, stdout: str, stderr: str,
          turns: int) -> tuple[int, list[str]]:
    """(failed turns, mismatches) of one command run on ``workload``'s inputs."""
    failed, mismatches = CHECKS[workload](work, stdout, stderr)
    if exit_code != 0:
        failed = turns
    return failed, mismatches
