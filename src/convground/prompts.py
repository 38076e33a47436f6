"""Few-shot chat prompts for grounding-label classification and knowledge extraction."""

from __future__ import annotations

import enum
import operator
from typing import Any, Optional, Sequence

from .dialogue import Turn
from .knowledge import ColumnKnowledge, Record


class MessageRole(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class ChatMessage(Record):
    __slots__ = ("role", "content")

    def __init__(self, role: MessageRole, content: str) -> None:
        if not content:
            raise ValueError("message content must be non-empty")
        self._set("role", role)
        self._set("content", content)

    def to_json_dict(self) -> dict[str, str]:
        return {"role": self.role.value, "content": self.content}


CLASSIFICATION_SYSTEM = (
    "Predict the grounding label, representing when knowledge has been "
    "mutually grounded, for the last turn in the 'Input dialogue:'. The label "
    "can be 'explicit' if knowledge is verbally accepted, 'implicit' if "
    "accepted by moving forward with the conversation, or 'clarification' if "
    "a previous utterance must be clarified before acceptance."
)

# (user input, assistant answer) pairs; one example per grounding type.
CLASSIFICATION_EXAMPLES = (
    (
        "Input dialogue: seeker: Can you tell me about the dataset's content? "
        "provider: The dataset contains information about planets in our solar "
        "system. seeker: What is the number of columns in the dataset?",
        "Output label: implicit",
    ),
    (
        "Input dialogue: provider: My dataset has 191 rows and several "
        "columns. provider: There is a column for the human development index. "
        "seeker: But what does it represent and how is this index calculated?",
        "Output label: clarification",
    ),
    (
        "Input dialogue: provider: The Varso Tower is the tallest building in "
        "the EU. seeker: Okay, thanks.",
        "Output label: explicit",
    ),
)

EXTRACTION_SYSTEM = (
    "Predict the newly grounded knowledge for the last turn in the 'Input "
    "dialogue:'. Use the JSON structure: {'table_domain': str, "
    "'table_content': str, 'row_count': int, 'column_count': int, "
    "'column_info': [{'column_name': str, 'values': [], 'distinct_count': "
    "int, 'min_value': int, 'max_value': int}]}. Adhere strictly to the JSON "
    "structure, and only predict the attributes mentioned in the dialogue "
    "turns, leaving unmentioned attributes as null."
)

EXTRACTION_EXAMPLES = (
    (
        "Input dialogue: seeker: Can you tell me about the dataset's content? "
        "provider: The dataset contains information about planets in our solar "
        "system. seeker: What is the number of columns in the dataset?",
        "Output JSON: {'table_content': 'planets of the solar system'}",
    ),
    (
        "Input dialogue: provider: My dataset has 191 rows and several "
        "columns. provider: There is a column for the human development index. "
        "seeker: But how is this index calculated and what does it mean?",
        "Output JSON: {'row_count': 191, 'column_info': [{'column_name': "
        "'human development index', 'description': null}]}",
    ),
    (
        "Input dialogue: provider: One column contains data about the height "
        "of the building in meters. provider: The Varso Tower is the tallest "
        "building in the dataset with 310 m. seeker: Okay, thanks.",
        "Output JSON: {'column_info': [{'column_name': 'height', "
        "'description': 'height in meters', 'max_value': 310}]}",
    ),
)


class Transcript:
    """One dialogue's state, used by one thread: a cache handle, not a setting.

    :func:`serialize_history`, the prompt builders and ``llm.request_hash``
    give the same result with one as without. ``turns`` and ``text`` are the
    last history serialised and its text, ``resumes`` the hash resume point
    of each prompt head, and ``column_texts`` the JSON text of each column
    that ``cli._knowledge_json`` serialised last.
    """

    __slots__ = ("turns", "text", "resumes", "column_texts")

    def __init__(self) -> None:
        self.turns: tuple[Turn, ...] = ()
        self.text = ""
        self.resumes: list[Any] = []
        self.column_texts: dict[int, tuple[ColumnKnowledge, str]] = {}


def serialize_history(history: Sequence[Turn], transcript: Optional[Transcript] = None) -> str:
    """Render the dialogue history as a single space-joined line.

    When ``history`` starts with the same ``Turn`` objects as the last
    history serialised with ``transcript``, only the turns after them are
    formatted.
    """
    transcript = transcript or Transcript()
    turns, text = transcript.turns, transcript.text
    if turns and len(history) >= len(turns) and all(map(operator.is_, turns, history)):
        added = history[len(turns):]
        if added:
            text += " " + " ".join(f"{turn.role.value}: {turn.text}" for turn in added)
    else:
        text = " ".join(f"{turn.role.value}: {turn.text}" for turn in history)
    transcript.turns, transcript.text = tuple(history), text
    return text


def _head(system: str, examples: Sequence[tuple[str, str]]) -> tuple[ChatMessage, ...]:
    messages = [ChatMessage(MessageRole.SYSTEM, system)]
    for user, assistant in examples:
        messages.append(ChatMessage(MessageRole.USER, user))
        messages.append(ChatMessage(MessageRole.ASSISTANT, assistant))
    return tuple(messages)


# The system and few-shot messages, the same for every prompt of one kind.
_CLASSIFICATION_HEAD = _head(CLASSIFICATION_SYSTEM, CLASSIFICATION_EXAMPLES)
_EXTRACTION_HEAD = _head(EXTRACTION_SYSTEM, EXTRACTION_EXAMPLES)


def _build(
    head: tuple[ChatMessage, ...],
    history: Sequence[Turn],
    answer_cue: str,
    preamble: str,
    transcript: Optional[Transcript],
) -> list[ChatMessage]:
    if not history:
        raise ValueError("history must contain at least one turn")
    final = f"{preamble}Input dialogue: {serialize_history(history, transcript)}\n{answer_cue}"
    return [*head, ChatMessage(MessageRole.USER, final)]


def build_classification_prompt(
    history: Sequence[Turn], transcript: Optional[Transcript] = None
) -> list[ChatMessage]:
    """Three-shot prompt asking for the grounding label of the last turn."""
    return _build(_CLASSIFICATION_HEAD, history, "Output label: ", "", transcript)


def build_extraction_prompt(
    history: Sequence[Turn],
    known_kb_json: str | None = None,
    transcript: Optional[Transcript] = None,
) -> list[ChatMessage]:
    """Three-shot prompt asking for the newly grounded knowledge as JSON.

    With ``known_kb_json`` set, the already-grounded knowledge base is
    injected ahead of the dialogue so the model only has to extract what is
    new (incremental mode); by default the model regenerates from the full
    history alone.
    """
    preamble = (
        "" if known_kb_json is None else f"Already grounded knowledge: {known_kb_json}\n"
    )
    return _build(_EXTRACTION_HEAD, history, "Output JSON: ", preamble, transcript)
