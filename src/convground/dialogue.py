"""Dialogue domain types and line-delimited corpus I/O."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge, SchemaError, canonicalize

PathLike = Union[str, Path]


class CorpusError(ValueError):
    """A corpus or gold file is malformed or internally inconsistent."""


class Role(enum.Enum):
    SEEKER = "seeker"
    PROVIDER = "provider"

    @classmethod
    def parse(cls, text: str) -> "Role":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise CorpusError(f"unknown role {text!r}") from None


class GroundingLabel(enum.Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    CLARIFICATION = "clarification"
    NO_EVENT = "no_event"

    @property
    def letter(self) -> str:
        return {"explicit": "E", "implicit": "I", "clarification": "C", "no_event": "-"}[
            self.value
        ]

    @classmethod
    def parse(cls, text: str) -> "GroundingLabel":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise CorpusError(f"unknown grounding label {text!r}") from None


@dataclass(frozen=True)
class Turn:
    """One utterance, stored verbatim (typos and emoji tokens included)."""

    index: int
    role: Role
    text: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"turn index must be positive, got {self.index}")
        if not self.text:
            raise ValueError(f"turn {self.index} has empty text")


@dataclass(frozen=True)
class Dialogue:
    id: str
    domain_tag: str
    turns: tuple[Turn, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.turns, tuple):
            object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns:
            raise ValueError(f"dialogue {self.id!r} has no turns")
        for expected, turn in enumerate(self.turns, start=1):
            if turn.index != expected:
                raise ValueError(f"dialogue {self.id!r}: gap at index {expected}")

    def turn(self, index: int) -> Turn:
        if not 1 <= index <= len(self.turns):
            raise KeyError(f"dialogue {self.id!r} has no turn {index}")
        return self.turns[index - 1]


@dataclass(frozen=True)
class GoldAnnotation:
    """Gold label plus the knowledge newly grounded at that turn."""

    turn_index: int
    label: GroundingLabel
    knowledge_delta: GroundedKnowledge = EMPTY_KNOWLEDGE

    def __post_init__(self) -> None:
        if self.label is GroundingLabel.NO_EVENT:
            raise ValueError("gold annotations never carry the no-event label")


def _iter_records(path: PathLike):
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc}") from None
            yield line_no, record


def load_dialogues(path: PathLike) -> list[Dialogue]:
    """Load a line-delimited dialogue corpus, validating turn indices."""
    dialogues: list[Dialogue] = []
    for line_no, record in _iter_records(path):
        try:
            turns = tuple(
                Turn(index=t["index"], role=Role.parse(t["role"]), text=t["text"])
                for t in record["turns"]
            )
            dialogues.append(
                Dialogue(id=record["id"], domain_tag=record.get("domain", ""), turns=turns)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: line {line_no}: {exc}") from None
    return dialogues


def load_gold(
    path: PathLike, dialogues: Optional[list[Dialogue]] = None
) -> dict[str, list[GoldAnnotation]]:
    """Load gold annotations, sorted by turn index per dialogue.

    When ``dialogues`` is given, every annotation must reference a known
    dialogue and turn.
    """
    by_id = {d.id: d for d in dialogues} if dialogues is not None else None
    gold: dict[str, list[GoldAnnotation]] = {}
    for line_no, record in _iter_records(path):
        try:
            dialogue_id = record["dialogue_id"]
            turn_index = int(record["turn_index"])
            label = GroundingLabel.parse(record["label"])
            knowledge = canonicalize(record.get("knowledge") or {})
            annotation = GoldAnnotation(turn_index, label, knowledge)
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise CorpusError(f"{path}: line {line_no}: {exc}") from None
        if by_id is not None:
            if dialogue_id not in by_id:
                raise CorpusError(
                    f"{path}: line {line_no}: unknown dialogue {dialogue_id!r}"
                )
            if not 1 <= turn_index <= len(by_id[dialogue_id].turns):
                raise CorpusError(
                    f"{path}: line {line_no}: dialogue {dialogue_id!r} "
                    f"has no turn {turn_index}"
                )
        gold.setdefault(dialogue_id, []).append(annotation)
    for annotations in gold.values():
        annotations.sort(key=lambda a: a.turn_index)
    return gold


def save_annotations(
    annotations: dict[str, list[GoldAnnotation]], path: PathLike
) -> None:
    """Write annotations (gold or predictions) in the gold file format."""
    with open(path, "w", encoding="utf-8") as handle:
        for dialogue_id in annotations:
            for a in annotations[dialogue_id]:
                record = {
                    "dialogue_id": dialogue_id,
                    "turn_index": a.turn_index,
                    "label": a.label.value,
                    "knowledge": a.knowledge_delta.to_json_dict(),
                }
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
