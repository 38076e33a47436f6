"""Turn-by-turn grounding state machine.

Provider contributions sit in a pending buffer until the partner accepts
them (explicitly or implicitly); only then are they committed to the shared
knowledge base. :func:`step` is the one transition: every provider turn
presents its facts, whatever its label, so a provider's clarifying turn
stages them too; a seeker's clarifying question is unconfirmed, and its
facts are neither staged nor committed.
"""

from __future__ import annotations

from typing import Iterable

from .assessment import GraphOp, commit
from .dialogue import Dialogue, GoldAnnotation, GroundingLabel, Role, Turn
from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge, Record


class TurnTrace(Record):
    """What one turn did: its label, extracted facts and committed graph ops."""

    __slots__ = ("turn_index", "label", "facts", "ops")

    def __init__(
        self,
        turn_index: int,
        label: GroundingLabel,
        facts: GroundedKnowledge,
        ops: tuple[GraphOp, ...] = (),
    ) -> None:
        self._set("turn_index", turn_index)
        self._set("label", label)
        self._set("facts", facts)
        self._set("ops", ops)


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


def step(
    state: GroundingState,
    turn: Turn,
    label: GroundingLabel = GroundingLabel.NO_EVENT,
    facts: GroundedKnowledge = EMPTY_KNOWLEDGE,
) -> GroundingState:
    """Advance the state machine by one turn with its grounding act and facts.

    A provider's facts are presented with :func:`present` whatever the
    label; a seeker's only on an accepting act (see
    :attr:`GroundingLabel.accepts`). An accepting act then commits the
    pending facts. The turn's facts are presented once. Presenting and
    committing cannot fail: facts that cannot combine with committed ones
    replace them (newest wins).
    """
    if turn.role is Role.PROVIDER or label.accepts:
        state = present(state, facts)
    grounded, pending, ops = state.grounded, state.pending, ()
    if label.accepts:
        grounded, _, ops = commit(grounded, pending)
        pending = EMPTY_KNOWLEDGE
    entry = TurnTrace(turn.index, label, facts, tuple(ops))
    return GroundingState(grounded, pending, state.history + (entry,))


def process_dialogue(
    dialogue: Dialogue, annotations: Iterable[GoldAnnotation]
) -> GroundingState:
    """Replay a dialogue's annotations through :func:`step`.

    A turn with no annotation is no-event with no facts. Returns the final
    state; its ``history`` holds one :class:`TurnTrace` per turn.
    """
    by_turn = {a.turn_index: (a.label, a.knowledge_delta) for a in annotations}
    state = GroundingState()
    for turn in dialogue.turns:
        state = step(state, turn, *by_turn.get(turn.index, ()))
    return state
