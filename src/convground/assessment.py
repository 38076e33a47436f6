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
    knowledge_from_facts,
    merged_value,
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


def assess(kb: GroundedKnowledge, delta: GroundedKnowledge) -> list[AssessmentOutcome]:
    """Classify every incoming fact of ``delta`` against ``kb``.

    This is the one place that picks the committed fact an incoming fact
    targets. A conflict retires its target for the rest of the delta, so no
    later outcome refers to a fact that the conflict replaced.
    """
    kb_facts = facts(kb)
    index = KeyIndex()
    for fact in kb_facts:
        index.add(fact.key)
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
        elif outcome.verdict is Verdict.CONFLICT:
            ops.append(GraphOp(OpKind.REMOVE_NODE, outcome.matched_key))
            ops.append(
                GraphOp(OpKind.CREATE_NODE, outcome.fact.key, outcome.fact.value)
            )
        else:
            ops.append(
                GraphOp(OpKind.CREATE_NODE, outcome.fact.key, outcome.fact.value)
            )
    return ops


def merge(kb: GroundedKnowledge, ops: list[GraphOp]) -> GroundedKnowledge:
    """Apply graph operations (from :func:`plan_ops`) to the knowledge base.

    Each operation names its target by exact key, as :func:`assess` picked
    it. Instantiate, update and remove ops need a fact of ``kb`` that no
    earlier op removed; a create needs a key that neither ``kb`` nor an
    earlier create holds; anything else raises :class:`StateError`. A created
    column whose name is equivalent to a kept one folds into it.
    """
    kept = {fact.key: fact for fact in facts(kb)}
    created: dict[FactKey, Fact] = {}
    for op in ops:
        if op.op is OpKind.CREATE_NODE:
            if op.target in kept or op.target in created:
                raise StateError(f"create targets existing fact {op.target}")
            created[op.target] = Fact(op.target, op.payload)
        elif op.target not in kept:
            raise StateError(f"operation targets missing fact {op.target}")
        elif op.op is OpKind.REMOVE_NODE:
            del kept[op.target]
        elif op.op is OpKind.UPDATE_NODE:
            value = merged_value(op.target.field, kept[op.target].value, op.payload)
            kept[op.target] = Fact(op.target, value)
        # INSTANTIATE_NODE only requires its target to exist.
    return knowledge_from_facts([*kept.values(), *created.values()])


def commit(
    kb: GroundedKnowledge, delta: GroundedKnowledge
) -> tuple[GroundedKnowledge, list[AssessmentOutcome], list[GraphOp]]:
    """Assess, plan, and merge in one step."""
    outcomes = assess(kb, delta)
    ops = plan_ops(outcomes)
    return merge(kb, ops), outcomes, ops
