"""Turn-by-turn grounding state machine.

Provider contributions sit in a pending buffer until the partner accepts
them (explicitly or implicitly); only then are they committed to the shared
knowledge base. Every provider turn presents its facts, whatever its label,
so a provider's clarifying turn stages them too; a seeker's clarifying
question is unconfirmed, and its facts are neither staged nor committed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .assessment import GraphOp, commit
from .dialogue import Dialogue, GoldAnnotation, GroundingLabel, Role, Turn
from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge, Record

Labeler = Callable[[Sequence[Turn]], GroundingLabel]
Extractor = Callable[[Sequence[Turn]], GroundedKnowledge]


class TurnTrace(Record):
    """What one turn did: its label, extracted facts and committed graph ops."""

    __slots__ = ("turn_index", "label", "facts", "ops", "warning")

    def __init__(
        self,
        turn_index: int,
        label: GroundingLabel,
        facts: GroundedKnowledge,
        ops: tuple[GraphOp, ...] = (),
        warning: Optional[str] = None,
    ) -> None:
        self._set("turn_index", turn_index)
        self._set("label", label)
        self._set("facts", facts)
        self._set("ops", ops)
        self._set("warning", warning)


class GroundingState(Record):
    """Committed facts, presented facts awaiting acceptance, and one trace per turn."""

    __slots__ = ("grounded", "pending", "history")

    def __init__(
        self,
        grounded: GroundedKnowledge = EMPTY_KNOWLEDGE,
        pending: GroundedKnowledge = EMPTY_KNOWLEDGE,
        history: tuple[TurnTrace, ...] = (),
    ) -> None:
        self._set("grounded", grounded)
        self._set("pending", pending)
        self._set("history", history)


def present(state: GroundingState, facts: GroundedKnowledge) -> GroundingState:
    """Stage presented facts in the pending buffer.

    A later presentation that corrects or enriches pending facts replaces
    the overlapping ones (provider self-correction); the committed knowledge
    is untouched.
    """
    if facts.is_empty:
        return state
    if state.pending.is_empty:
        return GroundingState(state.grounded, facts, state.history)
    combined, _, _ = commit(state.pending, facts)
    return GroundingState(state.grounded, combined, state.history)


def observe_label(
    state: GroundingState,
    label: GroundingLabel,
    turn: Turn,
    turn_facts: GroundedKnowledge = EMPTY_KNOWLEDGE,
) -> GroundingState:
    """Advance the state machine with the grounding act of one turn.

    An accepting act (see :attr:`GroundingLabel.accepts`) stages the facts
    extracted from the turn itself with :func:`present` and commits the
    pending facts. Clarification and no-event turns only append to the
    history and keep the pending facts staged; the turn's own facts are not
    staged here (a provider turn's were already presented, see
    :func:`process_dialogue`).
    """
    if label.accepts:
        grounded, _, ops = commit(state.grounded, present(state, turn_facts).pending)
        entry = TurnTrace(turn.index, label, turn_facts, tuple(ops))
        return GroundingState(grounded, EMPTY_KNOWLEDGE, state.history + (entry,))
    # Clarification and no-event leave both grounded and pending content as-is.
    entry = TurnTrace(turn.index, label, turn_facts)
    return GroundingState(state.grounded, state.pending, state.history + (entry,))


def process_dialogue(
    dialogue: Dialogue, labeler: Labeler, extractor: Extractor
) -> GroundingState:
    """Run a dialogue through the engine with injected labeler/extractor.

    Returns the final state; its ``history`` holds one :class:`TurnTrace` per
    turn. Provider turns whose extraction is non-empty count as presentations.
    A labeler or extractor failure (a ``ValueError``, ``KeyError`` or
    ``RuntimeError``: unparseable replies, schema violations, cache misses,
    API and transport errors) downgrades the turn to no-event with empty
    facts and a warning in the trace; any other exception propagates.
    Presenting and committing cannot fail: facts that cannot combine with
    committed ones replace them (newest wins).
    """
    state = GroundingState()
    history: list[Turn] = []
    for turn in dialogue.turns:
        history.append(turn)
        warning = None
        try:
            facts = extractor(history)
        except (ValueError, KeyError, RuntimeError) as exc:
            facts, warning = EMPTY_KNOWLEDGE, f"extractor failed: {exc}"
        try:
            label = labeler(history)
        except (ValueError, KeyError, RuntimeError) as exc:
            label, warning = GroundingLabel.NO_EVENT, f"labeler failed: {exc}"
        if warning is None:
            staged = present(state, facts) if turn.role is Role.PROVIDER else state
            state = observe_label(staged, label, turn, facts)
            continue
        entry = TurnTrace(turn.index, GroundingLabel.NO_EVENT, EMPTY_KNOWLEDGE, warning=warning)
        state = GroundingState(state.grounded, state.pending, state.history + (entry,))
    return state


def gold_labeler(annotations: list[GoldAnnotation]) -> Labeler:
    """A labeler replaying gold labels; unannotated turns are no-event."""
    by_turn = {a.turn_index: a.label for a in annotations}
    return lambda history: by_turn.get(history[-1].index, GroundingLabel.NO_EVENT)


def gold_extractor(annotations: list[GoldAnnotation]) -> Extractor:
    """An extractor replaying gold knowledge deltas."""
    by_turn = {a.turn_index: a.knowledge_delta for a in annotations}
    return lambda history: by_turn.get(history[-1].index, EMPTY_KNOWLEDGE)
