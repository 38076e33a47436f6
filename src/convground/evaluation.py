"""Scoring of predicted labels and knowledge against gold annotations."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any

from .dialogue import GoldAnnotation, GroundingLabel
from .knowledge import knowledge_equivalent

SCORED_LABELS = (
    GroundingLabel.EXPLICIT,
    GroundingLabel.IMPLICIT,
    GroundingLabel.CLARIFICATION,
)


class CoverageError(ValueError):
    """A gold-annotated turn has no prediction."""


class KnowledgeVerdict(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    NO_GOLD = "no_gold"


@dataclass(frozen=True)
class TurnResult:
    dialogue_id: str
    turn_index: int
    gold_label: GroundingLabel
    predicted_label: GroundingLabel
    label_correct: bool
    knowledge_verdict: KnowledgeVerdict


@dataclass
class EvalReport:
    per_turn: list[TurnResult]
    confusion: dict[tuple[GroundingLabel, GroundingLabel], int]
    per_label_accuracy: dict[GroundingLabel, tuple[int, int]]
    knowledge_accuracy: tuple[int, int]

    @property
    def label_accuracy(self) -> tuple[int, int]:
        correct = sum(c for c, _ in self.per_label_accuracy.values())
        total = sum(t for _, t in self.per_label_accuracy.values())
        return correct, total

    def summary_line(self) -> str:
        parts = [
            f"{label.value} {c}/{t}"
            for label, (c, t) in self.per_label_accuracy.items()
        ]
        k_correct, k_total = self.knowledge_accuracy
        parts.append(f"knowledge {k_correct}/{k_total}")
        return ", ".join(parts)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "per_turn": [
                {
                    "dialogue_id": r.dialogue_id,
                    "turn_index": r.turn_index,
                    "gold_label": r.gold_label.value,
                    "predicted_label": r.predicted_label.value,
                    "label_correct": r.label_correct,
                    "knowledge_verdict": r.knowledge_verdict.value,
                }
                for r in self.per_turn
            ],
            "confusion": {
                gold.value: {
                    pred.value: self.confusion.get((gold, pred), 0)
                    for pred in SCORED_LABELS
                }
                for gold in SCORED_LABELS
            },
            "per_label_accuracy": {
                label.value: list(counts)
                for label, counts in self.per_label_accuracy.items()
            },
            "label_accuracy": list(self.label_accuracy),
            "knowledge_accuracy": list(self.knowledge_accuracy),
        }


def score(
    gold: dict[str, list[GoldAnnotation]],
    predictions: dict[str, list[GoldAnnotation]],
) -> EvalReport:
    """Score predictions against gold; every gold turn must be covered.

    Labels score on exact match; knowledge scores through the equivalence
    judge. Gold turns with no annotated knowledge are scored on label only.
    """
    per_turn: list[TurnResult] = []
    confusion: dict[tuple[GroundingLabel, GroundingLabel], int] = {}
    per_label: dict[GroundingLabel, list[int]] = {
        label: [0, 0] for label in SCORED_LABELS
    }
    k_correct = k_total = 0

    for dialogue_id in sorted(gold):
        predicted_by_turn = {
            p.turn_index: p for p in predictions.get(dialogue_id, [])
        }
        for annotation in gold[dialogue_id]:
            predicted = predicted_by_turn.get(annotation.turn_index)
            if predicted is None:
                raise CoverageError(
                    f"no prediction for dialogue {dialogue_id!r} "
                    f"turn {annotation.turn_index}"
                )
            label_correct = predicted.label is annotation.label
            if annotation.knowledge_delta.is_empty:
                verdict = KnowledgeVerdict.NO_GOLD
            elif knowledge_equivalent(
                predicted.knowledge_delta, annotation.knowledge_delta
            ):
                verdict = KnowledgeVerdict.EQUIVALENT
                k_correct += 1
                k_total += 1
            else:
                verdict = KnowledgeVerdict.NOT_EQUIVALENT
                k_total += 1
            per_turn.append(
                TurnResult(
                    dialogue_id,
                    annotation.turn_index,
                    annotation.label,
                    predicted.label,
                    label_correct,
                    verdict,
                )
            )
            key = (annotation.label, predicted.label)
            confusion[key] = confusion.get(key, 0) + 1
            per_label[annotation.label][1] += 1
            if label_correct:
                per_label[annotation.label][0] += 1

    return EvalReport(
        per_turn=per_turn,
        confusion=confusion,
        per_label_accuracy={
            label: (c, t) for label, (c, t) in per_label.items()
        },
        knowledge_accuracy=(k_correct, k_total),
    )


class ReportFormat(enum.Enum):
    MARKDOWN = "md"
    MACHINE = "machine"


_VERDICT_MARKS = {
    KnowledgeVerdict.EQUIVALENT: "✓",
    KnowledgeVerdict.NOT_EQUIVALENT: "✗",
    KnowledgeVerdict.NO_GOLD: "-",
}


def render_report(report: EvalReport, fmt: ReportFormat) -> str:
    if fmt is ReportFormat.MACHINE:
        return json.dumps(report.to_json_dict(), sort_keys=True, ensure_ascii=False)

    lines = [
        "| Dialogue | Turn | Label | Knowledge |",
        "| --- | --- | --- | --- |",
    ]
    for r in report.per_turn:
        relation = "=" if r.label_correct else "≠"
        label_cell = f"{r.predicted_label.letter} {relation} {r.gold_label.letter}"
        lines.append(
            f"| {r.dialogue_id} | {r.turn_index} | {label_cell} "
            f"| {_VERDICT_MARKS[r.knowledge_verdict]} |"
        )
    lines.append("")
    lines.append(f"Aggregates: {report.summary_line()}")
    correct, total = report.label_accuracy
    lines.append(f"Overall label accuracy: {correct}/{total}")
    return "\n".join(lines)
