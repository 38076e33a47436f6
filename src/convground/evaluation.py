"""Scoring of predicted labels and knowledge against gold annotations."""

from __future__ import annotations

import enum
import json
from collections import Counter
from typing import Any

from .dialogue import GoldAnnotation, GroundingLabel
from .judge import knowledge_equivalent
from .knowledge import Record

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


class TurnResult(Record):
    __slots__ = ("dialogue_id", "turn_index", "gold_label", "predicted_label", "knowledge_verdict")

    def __init__(
        self,
        dialogue_id: str,
        turn_index: int,
        gold_label: GroundingLabel,
        predicted_label: GroundingLabel,
        knowledge_verdict: KnowledgeVerdict,
    ) -> None:
        self._set("dialogue_id", dialogue_id)
        self._set("turn_index", turn_index)
        self._set("gold_label", gold_label)
        self._set("predicted_label", predicted_label)
        self._set("knowledge_verdict", knowledge_verdict)

    @property
    def label_correct(self) -> bool:
        return self.predicted_label is self.gold_label


class EvalReport(Record, frozen=False):
    """One result per scored gold turn; every count is derived from them."""

    __slots__ = ("per_turn",)

    def __init__(self, per_turn: list[TurnResult]) -> None:
        self.per_turn = per_turn

    @property
    def confusion(self) -> dict[tuple[GroundingLabel, GroundingLabel], int]:
        """Turns per (gold, predicted) label pair that occurs."""
        return dict(Counter((r.gold_label, r.predicted_label) for r in self.per_turn))

    @property
    def per_label_accuracy(self) -> dict[GroundingLabel, tuple[int, int]]:
        """(correct, total) turns per gold label, in ``SCORED_LABELS`` order."""
        counts = {label: (0, 0) for label in SCORED_LABELS}
        for r in self.per_turn:
            correct, total = counts[r.gold_label]
            counts[r.gold_label] = (correct + r.label_correct, total + 1)
        return counts

    @property
    def knowledge_accuracy(self) -> tuple[int, int]:
        """(equivalent, total) over the turns with gold knowledge."""
        judged = [r.knowledge_verdict for r in self.per_turn
                  if r.knowledge_verdict is not KnowledgeVerdict.NO_GOLD]
        return judged.count(KnowledgeVerdict.EQUIVALENT), len(judged)

    @property
    def label_accuracy(self) -> tuple[int, int]:
        return sum(r.label_correct for r in self.per_turn), len(self.per_turn)

    def summary_line(self) -> str:
        parts = [
            f"{label.value} {c}/{t}"
            for label, (c, t) in self.per_label_accuracy.items()
        ]
        k_correct, k_total = self.knowledge_accuracy
        parts.append(f"knowledge {k_correct}/{k_total}")
        return ", ".join(parts)

    def to_json_dict(self) -> dict[str, Any]:
        confusion = self.confusion
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
                    pred.value: confusion.get((gold, pred), 0)
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
            if annotation.knowledge_delta.is_empty:
                verdict = KnowledgeVerdict.NO_GOLD
            elif knowledge_equivalent(
                predicted.knowledge_delta, annotation.knowledge_delta
            ):
                verdict = KnowledgeVerdict.EQUIVALENT
            else:
                verdict = KnowledgeVerdict.NOT_EQUIVALENT
            per_turn.append(
                TurnResult(
                    dialogue_id,
                    annotation.turn_index,
                    annotation.label,
                    predicted.label,
                    verdict,
                )
            )
    return EvalReport(per_turn)


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
