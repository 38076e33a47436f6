"""Assessment of incoming knowledge against the committed knowledge base.

Each incoming fact is classified as a match, partial match, conflict, or
novel element, and the classification is turned into a plan of
knowledge-graph operations. Applying the plan with :func:`merge` yields the
updated knowledge base; conflicts resolve newest-wins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .knowledge import (
    ColumnKnowledge,
    Fact,
    FactKey,
    GroundedKnowledge,
    KeyIndex,
    _field_values_equivalent,
    facts,
    fold_facts,
    merged_value,
    updated_value,
)


class StateError(RuntimeError):
    """A graph operation references a fact missing from the knowledge base."""


class Verdict(enum.Enum):
    MATCH = "match"
    PARTIAL_MATCH = "partial_match"
    CONFLICT = "conflict"
    NOVEL = "novel"


@dataclass(frozen=True)
class AssessmentOutcome:
    """Classification of one incoming fact against the knowledge base."""

    fact: Fact
    verdict: Verdict
    matched_key: Optional[FactKey] = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.NOVEL:
            if self.matched_key is not None:
                raise ValueError("novel outcomes carry no matched key")
        elif self.matched_key is None:
            raise ValueError(f"{self.verdict.value} outcome requires a matched key")


class OpKind(enum.Enum):
    INSTANTIATE_NODE = "InstantiateNode"
    UPDATE_NODE = "UpdateNode"
    CREATE_NODE = "CreateNode"
    REMOVE_NODE = "RemoveNode"


@dataclass(frozen=True)
class GraphOp:
    """One mutation of the knowledge graph."""

    op: OpKind
    target: FactKey
    payload: Any = None

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"op": self.op.value, "target": str(self.target)}
        if self.payload is not None:
            payload = self.payload
            if isinstance(payload, ColumnKnowledge):
                payload = payload.to_json_dict()
            out["payload"] = payload
        return out


def _classify(existing: Fact, incoming: Fact) -> Verdict:
    field = existing.key.field
    if field == "column":
        # Overlapping fields must agree; new fields enrich.
        ex, inc = existing.value.fields(), incoming.value.fields()
        agree = all(_field_values_equivalent(n, ex[n], inc[n]) for n in set(ex) & set(inc))
    else:
        agree = _field_values_equivalent(field, existing.value, incoming.value)
    if not agree:
        return Verdict.CONFLICT
    try:
        updated = merged_value(field, existing.value, incoming.value)
    except ValueError:
        # Field-wise union is inconsistent (e.g. min above max): treat as a
        # disagreement and replace wholesale.
        return Verdict.CONFLICT
    return Verdict.MATCH if updated == existing.value else Verdict.PARTIAL_MATCH


def _index_of(kb_facts: list[Fact]) -> KeyIndex:
    index = KeyIndex()
    for fact in kb_facts:
        index.add(fact.key)
    return index


def assess(
    kb: GroundedKnowledge, delta: GroundedKnowledge, index: Optional[KeyIndex] = None
) -> list[AssessmentOutcome]:
    """Classify every incoming fact of ``delta`` against ``kb``.

    This is the one place that picks the committed fact an incoming fact
    targets. A conflict retires its target for the rest of the delta, so no
    later outcome refers to a fact that the conflict replaced. ``index`` is
    a fresh :class:`KeyIndex` of ``facts(kb)``, built here when not given;
    the conflicts' targets are retired in it, so :func:`merge` can reuse it.
    """
    kb_facts = facts(kb)
    if index is None:
        index = _index_of(kb_facts)
    outcomes: list[AssessmentOutcome] = []
    for incoming in facts(delta):
        i = index.find(incoming.key)
        if i is None:
            outcomes.append(AssessmentOutcome(incoming, Verdict.NOVEL))
            continue
        existing = kb_facts[i]
        verdict = _classify(existing, incoming)
        outcomes.append(AssessmentOutcome(incoming, verdict, existing.key))
        if verdict is Verdict.CONFLICT:
            index.discard(i)
    return outcomes


def plan_ops(outcomes: list[AssessmentOutcome]) -> list[GraphOp]:
    """Turn assessment outcomes into graph operations, preserving fact order.

    Matches instantiate the existing node, partial matches update it,
    conflicts remove the old node and recreate it with the incoming value,
    and novel facts create a fresh node.
    """
    ops: list[GraphOp] = []
    for outcome in outcomes:
        if outcome.verdict is Verdict.MATCH:
            ops.append(GraphOp(OpKind.INSTANTIATE_NODE, outcome.matched_key))
        elif outcome.verdict is Verdict.PARTIAL_MATCH:
            ops.append(
                GraphOp(OpKind.UPDATE_NODE, outcome.matched_key, outcome.fact.value)
            )
        else:
            if outcome.verdict is Verdict.CONFLICT:
                ops.append(GraphOp(OpKind.REMOVE_NODE, outcome.matched_key))
            ops.append(GraphOp(OpKind.CREATE_NODE, outcome.fact.key, outcome.fact.value))
    return ops


def merge(
    kb: GroundedKnowledge, ops: list[GraphOp], index: Optional[KeyIndex] = None
) -> GroundedKnowledge:
    """Apply graph operations (from :func:`plan_ops`) to the knowledge base.

    Each operation names its target by exact key, as :func:`assess` picked
    it. Instantiate, update and remove ops need a fact of ``kb`` that no
    earlier op removed; a create needs a key that neither ``kb`` nor an
    earlier create holds; anything else is a bug and raises
    :class:`StateError`. An update, or a created column equivalent to a
    kept one, combines with it by the total :func:`updated_value`. ``index``
    is the :class:`KeyIndex` of ``facts(kb)`` that :func:`assess` left,
    built here when not given. When every op is an instantiation, ``kb``
    itself is returned.
    """
    kb_facts = facts(kb)
    if index is None:
        index = _index_of(kb_facts)
    position = {fact.key: i for i, fact in enumerate(kb_facts)}
    kept = dict(enumerate(kb_facts))
    created: dict[FactKey, Fact] = {}
    for op in ops:
        i = position.get(op.target)
        if op.op is OpKind.CREATE_NODE:
            if i in kept or op.target in created:
                raise StateError(f"create targets existing fact {op.target}")
            created[op.target] = Fact(op.target, op.payload)
        elif i not in kept:
            raise StateError(f"operation targets missing fact {op.target}")
        elif op.op is OpKind.REMOVE_NODE:
            del kept[i]
            index.discard(i)
        elif op.op is OpKind.UPDATE_NODE:
            kept[i] = Fact(op.target, updated_value(op.target.field, kept[i].value, op.payload))
        # INSTANTIATE_NODE only requires its target to exist.
    if all(op.op is OpKind.INSTANTIATE_NODE for op in ops):
        return kb
    return fold_facts(kept, index, created.values())


def commit(
    kb: GroundedKnowledge, delta: GroundedKnowledge
) -> tuple[GroundedKnowledge, list[AssessmentOutcome], list[GraphOp]]:
    """Assess, plan, and merge in one step, over one index of ``kb``."""
    index = _index_of(facts(kb))
    outcomes = assess(kb, delta, index)
    ops = plan_ops(outcomes)
    return merge(kb, ops, index), outcomes, ops
