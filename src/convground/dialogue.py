"""Dialogue domain types and line-delimited corpus I/O."""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Iterable, Optional, Union

from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge, Record
from .schema import SchemaError, canonicalize

PathLike = Union[str, Path]


class CorpusError(ValueError):
    """A corpus or gold file is malformed or internally inconsistent."""


def _is_int(value: object) -> bool:
    """True for an integer; JSON's ``true`` and ``1.7`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class Role(enum.Enum):
    SEEKER = "seeker"
    PROVIDER = "provider"

    @classmethod
    def parse(cls, text: str) -> "Role":
        if not isinstance(text, str):
            raise CorpusError(f"role: expected text, got {text!r}")
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

    @property
    def accepts(self) -> bool:
        """True for explicit and implicit acceptance, the acts that commit
        what is pending."""
        return self is GroundingLabel.EXPLICIT or self is GroundingLabel.IMPLICIT

    @classmethod
    def parse(cls, text: str) -> "GroundingLabel":
        if not isinstance(text, str):
            raise CorpusError(f"label: expected text, got {text!r}")
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise CorpusError(f"unknown grounding label {text!r}") from None


class Turn(Record):
    """One utterance, stored verbatim (typos and emoji tokens included)."""

    __slots__ = ("index", "role", "text")

    def __init__(self, index: int, role: Role, text: str) -> None:
        if not _is_int(index) or index < 1:
            raise ValueError(f"turn index must be a positive integer, got {index!r}")
        if not isinstance(text, str) or not text:
            raise ValueError(f"turn {index}: expected non-empty text, got {text!r}")
        self._set("index", index)
        self._set("role", role)
        self._set("text", text)


class Dialogue(Record):
    __slots__ = ("id", "domain_tag", "turns")

    def __init__(self, id: str, domain_tag: str, turns: Iterable[Turn]) -> None:
        if not isinstance(id, str):
            raise ValueError(f"dialogue id: expected text, got {id!r}")
        if not isinstance(domain_tag, str):
            raise ValueError(f"dialogue {id!r}: domain: expected text, got {domain_tag!r}")
        turns = tuple(turns)
        if not turns:
            raise ValueError(f"dialogue {id!r} has no turns")
        for expected, turn in enumerate(turns, start=1):
            if turn.index != expected:
                raise ValueError(f"dialogue {id!r}: gap at index {expected}")
        self._set("id", id)
        self._set("domain_tag", domain_tag)
        self._set("turns", turns)

    def turn(self, index: int) -> Turn:
        if not 1 <= index <= len(self.turns):
            raise KeyError(f"dialogue {self.id!r} has no turn {index}")
        return self.turns[index - 1]


class GoldAnnotation(Record):
    """Gold label plus the knowledge newly grounded at that turn."""

    __slots__ = ("turn_index", "label", "knowledge_delta")

    def __init__(
        self,
        turn_index: int,
        label: GroundingLabel,
        knowledge_delta: GroundedKnowledge = EMPTY_KNOWLEDGE,
    ) -> None:
        if not _is_int(turn_index):
            raise ValueError(f"turn_index: expected an integer, got {turn_index!r}")
        if turn_index < 1:
            raise ValueError(f"turn_index: turns are numbered from 1, got {turn_index}")
        if label is GroundingLabel.NO_EVENT:
            raise ValueError("gold annotations never carry the no-event label")
        self._set("turn_index", turn_index)
        self._set("label", label)
        self._set("knowledge_delta", knowledge_delta)


def _iter_records(path: PathLike):
    """The JSON record of each non-blank line, with its line number. A file
    that cannot be opened, or a line that is not UTF-8 JSON, is a ``CorpusError``."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from None
    with handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line or line.isspace():  # blank, without copying the line
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8, malformed or too deep
                raise CorpusError(f"{path}: line {line_no}: {exc}") from None
            yield line_no, record


def load_dialogues(path: PathLike) -> list[Dialogue]:
    """Load a line-delimited dialogue corpus, validating turn indices.

    Each dialogue id is defined at most once.
    """
    dialogues: list[Dialogue] = []
    first_lines: dict[str, int] = {}
    for line_no, record in _iter_records(path):
        try:
            turns = tuple(
                Turn(index=t["index"], role=Role.parse(t["role"]), text=t["text"])
                for t in record["turns"]
            )
            dialogue = Dialogue(id=record["id"], domain_tag=record.get("domain", ""), turns=turns)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: line {line_no}: {exc}") from None
        first = first_lines.setdefault(dialogue.id, line_no)
        if first != line_no:
            raise CorpusError(
                f"{path}: line {line_no}: dialogue {dialogue.id!r} "
                f"is already defined on line {first}"
            )
        dialogues.append(dialogue)
    return dialogues


def load_gold(
    path: PathLike, dialogues: Optional[list[Dialogue]] = None
) -> dict[str, list[GoldAnnotation]]:
    """Load gold annotations, sorted by turn index per dialogue.

    Each turn is annotated at most once. When ``dialogues`` is given, every
    annotation must reference a known dialogue and turn.
    """
    by_id = {d.id: d for d in dialogues} if dialogues is not None else None
    gold: dict[str, list[GoldAnnotation]] = {}
    first_lines: dict[tuple[str, int], int] = {}
    for line_no, record in _iter_records(path):
        try:
            dialogue_id = record["dialogue_id"]
            if not isinstance(dialogue_id, str):
                raise CorpusError(f"dialogue_id: expected text, got {dialogue_id!r}")
            turn_index = record["turn_index"]
            label = GroundingLabel.parse(record["label"])
            raw = record.get("knowledge")  # absent or null: no knowledge
            knowledge = canonicalize({} if raw is None else raw)
            annotation = GoldAnnotation(turn_index, label, knowledge)
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise CorpusError(f"{path}: line {line_no}: {exc}") from None
        if by_id is not None:
            if dialogue_id not in by_id:
                raise CorpusError(
                    f"{path}: line {line_no}: unknown dialogue {dialogue_id!r}"
                )
            if turn_index > len(by_id[dialogue_id].turns):
                raise CorpusError(
                    f"{path}: line {line_no}: dialogue {dialogue_id!r} "
                    f"has no turn {turn_index}"
                )
        first = first_lines.setdefault((dialogue_id, turn_index), line_no)
        if first != line_no:
            raise CorpusError(
                f"{path}: line {line_no}: dialogue {dialogue_id!r} turn {turn_index} "
                f"is already annotated on line {first}"
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
