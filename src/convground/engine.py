"""Turn-by-turn grounding state machine.

Provider contributions sit in a pending buffer until the partner accepts
them (explicitly or implicitly); only then are they committed to the shared
knowledge base. Content that first appears in a clarifying question is never
committed and never enters the pending buffer, since the provider has not
confirmed it yet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .assessment import GraphOp, commit
from .dialogue import Dialogue, GoldAnnotation, GroundingLabel, Role, Turn
from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge

Labeler = Callable[[Sequence[Turn]], GroundingLabel]
Extractor = Callable[[Sequence[Turn]], GroundedKnowledge]


@dataclass(frozen=True)
class TurnTrace:
    """What one turn did: its label, extracted facts and committed graph ops."""

    turn_index: int
    label: GroundingLabel
    facts: GroundedKnowledge
    ops: tuple[GraphOp, ...] = ()
    warning: Optional[str] = None


@dataclass(frozen=True)
class GroundingState:
    """Committed facts, presented facts awaiting acceptance, and one trace per turn."""

    grounded: GroundedKnowledge = EMPTY_KNOWLEDGE
    pending: GroundedKnowledge = EMPTY_KNOWLEDGE
    history: tuple[TurnTrace, ...] = ()


_ACCEPTING = (GroundingLabel.EXPLICIT, GroundingLabel.IMPLICIT)


def present(state: GroundingState, facts: GroundedKnowledge) -> GroundingState:
    """Stage presented facts in the pending buffer.

    A later presentation that corrects or enriches pending facts replaces
    the overlapping ones (provider self-correction); the committed knowledge
    is untouched.
    """
    if facts.is_empty:
        return state
    if state.pending.is_empty:
        return replace(state, pending=facts)
    combined, _, _ = commit(state.pending, facts)
    return replace(state, pending=combined)


def observe_label(
    state: GroundingState,
    label: GroundingLabel,
    turn: Turn,
    turn_facts: GroundedKnowledge = EMPTY_KNOWLEDGE,
) -> GroundingState:
    """Advance the state machine with the grounding act of one turn.

    Explicit and implicit acts commit the pending facts together with the
    facts extracted from the accepting turn itself. Clarification keeps the
    pending facts staged and discards the turn's own facts: a
    clarifying question's content is unconfirmed. No-event turns only append
    to the history.
    """
    if label in _ACCEPTING:
        combined = state.pending
        if not turn_facts.is_empty:
            combined, _, _ = commit(combined, turn_facts)
        grounded, _, ops = commit(state.grounded, combined)
        entry = TurnTrace(turn.index, label, turn_facts, tuple(ops))
        history = state.history + (entry,)
        return replace(state, grounded=grounded, pending=EMPTY_KNOWLEDGE, history=history)
    # Clarification and no-event leave both grounded and pending content as-is.
    return replace(
        state,
        history=state.history + (TurnTrace(turn.index, label, turn_facts),),
    )


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
        state = replace(state, history=state.history + (entry,))
    return state


def gold_labeler(annotations: list[GoldAnnotation]) -> Labeler:
    """A labeler replaying gold labels; unannotated turns are no-event."""
    by_turn = {a.turn_index: a.label for a in annotations}
    return lambda history: by_turn.get(history[-1].index, GroundingLabel.NO_EVENT)


def gold_extractor(annotations: list[GoldAnnotation]) -> Extractor:
    """An extractor replaying gold knowledge deltas."""
    by_turn = {a.turn_index: a.knowledge_delta for a in annotations}
    return lambda history: by_turn.get(history[-1].index, EMPTY_KNOWLEDGE)
