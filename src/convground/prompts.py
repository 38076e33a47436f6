"""Few-shot chat prompts for grounding-label classification and knowledge extraction."""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Sequence

from .dialogue import Turn


class MessageRole(enum.Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: MessageRole
    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("message content must be non-empty")

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


# The last serialised history, kept so that the next turn's prompts format only
# the turns added since. One tuple, replaced whole: a thread that reads another
# dialogue's entry only misses.
_last_history: tuple[tuple[Turn, ...], str] = ((), "")


def serialize_history(history: Sequence[Turn]) -> str:
    """Render the dialogue history as a single space-joined line.

    When ``history`` starts with the same ``Turn`` objects as the previous
    call's, only the turns after them are formatted.
    """
    global _last_history
    turns, text = _last_history
    if turns and len(history) >= len(turns) and all(map(operator.is_, turns, history)):
        added = history[len(turns):]
        if added:
            text += " " + " ".join(f"{turn.role.value}: {turn.text}" for turn in added)
    else:
        text = " ".join(f"{turn.role.value}: {turn.text}" for turn in history)
    _last_history = (tuple(history), text)
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
    preamble: str = "",
) -> list[ChatMessage]:
    if not history:
        raise ValueError("history must contain at least one turn")
    final = f"{preamble}Input dialogue: {serialize_history(history)}\n{answer_cue}"
    return [*head, ChatMessage(MessageRole.USER, final)]


def build_classification_prompt(history: Sequence[Turn]) -> list[ChatMessage]:
    """Three-shot prompt asking for the grounding label of the last turn."""
    return _build(_CLASSIFICATION_HEAD, history, "Output label: ")


def build_extraction_prompt(
    history: Sequence[Turn], known_kb_json: str | None = None
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
    return _build(_EXTRACTION_HEAD, history, "Output JSON: ", preamble)
