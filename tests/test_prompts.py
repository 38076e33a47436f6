import json

import pytest

from convground.dialogue import Role, Turn
from convground.prompts import Transcript

from convground import (
    ChatMessage,
    CompletionRequest,
    MessageRole,
    build_classification_prompt,
    build_extraction_prompt,
    fixtures,
    serialize_history,
)


@pytest.fixture
def history_a2(dialogues_by_id):
    return dialogues_by_id["A"].turns[:2]


def test_history_serialization(history_a2):
    assert serialize_history(history_a2) == (
        "seeker: Hello, could you tell me what the media dataset is about? "
        "provider: Hi, yes sure."
    )


@pytest.mark.parametrize("builder", [build_classification_prompt, build_extraction_prompt])
def test_prompt_has_eight_messages(builder, history_a2):
    messages = builder(history_a2)
    assert len(messages) == 8
    assert messages[0].role is MessageRole.SYSTEM
    assert [m.role for m in messages[1:7]] == [
        MessageRole.USER, MessageRole.ASSISTANT,
        MessageRole.USER, MessageRole.ASSISTANT,
        MessageRole.USER, MessageRole.ASSISTANT,
    ]
    assert messages[-1].role is MessageRole.USER


def test_classification_final_message(history_a2):
    final = build_classification_prompt(history_a2)[-1]
    assert final.content == (
        "Input dialogue: seeker: Hello, could you tell me what the media "
        "dataset is about? provider: Hi, yes sure.\nOutput label: "
    )


def test_extraction_final_message(history_a2):
    final = build_extraction_prompt(history_a2)[-1]
    assert final.content.endswith("\nOutput JSON: ")


def test_extraction_system_declares_schema(history_a2):
    system = build_extraction_prompt(history_a2)[0].content
    assert "'table_domain': str" in system
    assert "Adhere strictly to the JSON structure" in system


def test_classification_system_text(history_a2):
    system = build_classification_prompt(history_a2)[0].content
    assert system.startswith("Predict the grounding label")


@pytest.mark.parametrize(
    "builder, fixture_name",
    [
        (build_classification_prompt, fixtures.CLASSIFICATION_PROMPT),
        (build_extraction_prompt, fixtures.EXTRACTION_PROMPT),
    ],
)
def test_static_messages_byte_match_fixture(builder, fixture_name, history_a2):
    shipped = json.loads(fixtures.path(fixture_name).read_text(encoding="utf-8"))
    built = [m.to_json_dict() for m in builder(history_a2)[:7]]
    assert built == shipped


def test_builders_deterministic(history_a2):
    assert build_classification_prompt(history_a2) == build_classification_prompt(history_a2)
    assert build_extraction_prompt(history_a2) == build_extraction_prompt(history_a2)


def test_a_transcript_gives_the_same_history_text(dialogues_by_id):
    # Histories that grow, repeat, shrink, and restart with equal turns that
    # are other objects or with other text, all through one transcript.
    turns = dialogues_by_id["A"].turns
    twins = [Turn(t.index, t.role, t.text) for t in turns]
    other = [Turn(1, Role.PROVIDER, "another dialogue"), *turns[1:]]
    transcript = Transcript()
    for history in (turns[:1], turns[:3], turns[:3], turns[:8], turns[:2], twins[:4],
                    turns[:5], other[:6], other[:7], turns[:len(turns)]):
        assert serialize_history(history, transcript) == serialize_history(history)
        assert serialize_history(history) == " ".join(
            f"{t.role.value}: {t.text}" for t in history
        )


def test_single_turn_history(dialogues_by_id):
    messages = build_classification_prompt(dialogues_by_id["A"].turns[:1])
    assert messages[-1].content.startswith("Input dialogue: seeker: Hello")


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        build_classification_prompt([])


def test_empty_message_content_rejected():
    with pytest.raises(ValueError, match="message content must be non-empty"):
        ChatMessage(MessageRole.USER, "")


def test_incremental_mode_injects_kb(history_a2):
    kb_json = '{"row_count": 500}'
    messages = build_extraction_prompt(history_a2, known_kb_json=kb_json)
    assert len(messages) == 8
    assert messages[-1].content.startswith(f"Already grounded knowledge: {kb_json}\n")
    # Default mode stays untouched.
    assert "Already grounded" not in build_extraction_prompt(history_a2)[-1].content


def test_request_carries_fixed_configuration(history_a2):
    request = CompletionRequest(messages=tuple(build_classification_prompt(history_a2)))
    body = request.wire_body()
    assert body["temperature"] == 0
    assert body["max_tokens"] == 256
    assert body["model"] == "gpt-3.5-turbo-1106"
