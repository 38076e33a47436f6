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
    _field_values_equivalent,
    facts,
    find_equivalent,
    knowledge_from_facts,
    merge_columns,
    terms_equivalent,
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


def _merged_value(existing: Fact, incoming: Fact) -> Any:
    """The value the existing fact would take after an update."""
    if existing.key.field == "column":
        return merge_columns(existing.value, incoming.value)
    if existing.key.field in ("table_domain", "table_content"):
        # Text keeps the longer surface form; ties keep the committed one.
        if len(str(incoming.value)) > len(str(existing.value)):
            return incoming.value
        return existing.value
    return incoming.value


def _classify(existing: Fact, incoming: Fact) -> Verdict:
    field = existing.key.field
    if field in ("row_count", "column_count"):
        return Verdict.MATCH if existing.value == incoming.value else Verdict.CONFLICT
    if field in ("table_domain", "table_content"):
        if existing.value == incoming.value:
            return Verdict.MATCH
        if terms_equivalent(str(existing.value), str(incoming.value)):
            updated = _merged_value(existing, incoming)
            return Verdict.MATCH if updated == existing.value else Verdict.PARTIAL_MATCH
        return Verdict.CONFLICT
    # Column entry: overlapping fields must agree; new fields enrich.
    ex, inc = existing.value, incoming.value
    exf, incf = ex.fields(), inc.fields()
    for name in set(exf) & set(incf):
        if not _field_values_equivalent(name, exf[name], incf[name]):
            return Verdict.CONFLICT
    try:
        updated = merge_columns(ex, inc)
    except ValueError:
        # Field-wise union is inconsistent (e.g. min above max): treat as a
        # disagreement and replace wholesale.
        return Verdict.CONFLICT
    return Verdict.MATCH if updated == ex else Verdict.PARTIAL_MATCH


def assess(kb: GroundedKnowledge, delta: GroundedKnowledge) -> list[AssessmentOutcome]:
    """Classify every incoming fact of ``delta`` against ``kb``."""
    kb_facts = facts(kb)
    kb_keys = [f.key for f in kb_facts]
    outcomes: list[AssessmentOutcome] = []
    for incoming in facts(delta):
        i = find_equivalent(incoming.key, kb_keys)
        if i is None:
            outcomes.append(AssessmentOutcome(incoming, Verdict.NOVEL))
        else:
            existing = kb_facts[i]
            verdict = _classify(existing, incoming)
            outcomes.append(AssessmentOutcome(incoming, verdict, existing.key))
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

    Each operation locates its target by key equivalence, not by exact key.
    Instantiate, update and remove ops refer to the knowledge base's own
    facts, so they never hit a fact that an earlier create in the same list
    made. Two incoming facts may both refer to one committed fact; once an
    earlier op removed it, later ops that target it are skipped.
    """
    kept = facts(kb)
    created: list[Fact] = []
    removed: list[FactKey] = []
    for op in ops:
        if op.op is OpKind.CREATE_NODE:
            if find_equivalent(op.target, [f.key for f in kept + created]) is not None:
                raise StateError(f"create targets existing fact {op.target}")
            created.append(Fact(op.target, op.payload))
            continue
        i = find_equivalent(op.target, [fact.key for fact in kept])
        if i is None:
            if find_equivalent(op.target, removed) is not None:
                continue
            raise StateError(f"operation targets missing fact {op.target}")
        if op.op is OpKind.REMOVE_NODE:
            removed.append(kept.pop(i).key)
        elif op.op is OpKind.UPDATE_NODE:
            existing = kept[i]
            incoming = Fact(op.target, op.payload)
            kept[i] = Fact(existing.key, _merged_value(existing, incoming))
        # INSTANTIATE_NODE only requires its target to exist.
    return knowledge_from_facts(kept + created)


def commit(
    kb: GroundedKnowledge, delta: GroundedKnowledge
) -> tuple[GroundedKnowledge, list[AssessmentOutcome], list[GraphOp]]:
    """Assess, plan, and merge in one step."""
    outcomes = assess(kb, delta)
    ops = plan_ops(outcomes)
    return merge(kb, ops), outcomes, ops
