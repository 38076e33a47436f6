"""Assessment of incoming knowledge against the committed knowledge base.

Each incoming fact is classified as a match, partial match, conflict, or
novel element, and the classification is turned into a plan of
knowledge-graph operations. Applying the plan with :func:`merge` yields the
updated knowledge base; conflicts resolve newest-wins.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from .judge import _field_values_equivalent
from .knowledge import (
    ColumnKnowledge,
    Fact,
    FactKey,
    GroundedKnowledge,
    Record,
    _bounds_ordered,
    _updated_fields,
    facts,
    fold_facts,
    indexed_facts,
    updated_value,
)


class StateError(RuntimeError):
    """A graph operation references a fact missing from the knowledge base."""


class Verdict(enum.Enum):
    MATCH = "match"
    PARTIAL_MATCH = "partial_match"
    CONFLICT = "conflict"
    NOVEL = "novel"


class AssessmentOutcome(Record):
    """Classification of one incoming fact against the knowledge base."""

    __slots__ = ("fact", "verdict", "matched_key")

    def __init__(
        self, fact: Fact, verdict: Verdict, matched_key: Optional[FactKey] = None
    ) -> None:
        if verdict is Verdict.NOVEL:
            if matched_key is not None:
                raise ValueError("novel outcomes carry no matched key")
        elif matched_key is None:
            raise ValueError(f"{verdict.value} outcome requires a matched key")
        self._set("fact", fact)
        self._set("verdict", verdict)
        self._set("matched_key", matched_key)


class OpKind(enum.Enum):
    INSTANTIATE_NODE = "InstantiateNode"
    UPDATE_NODE = "UpdateNode"
    CREATE_NODE = "CreateNode"
    REMOVE_NODE = "RemoveNode"


class GraphOp(Record):
    """One mutation of the knowledge graph."""

    __slots__ = ("op", "target", "payload")

    def __init__(self, op: OpKind, target: FactKey, payload: Any = None) -> None:
        self._set("op", op)
        self._set("target", target)
        self._set("payload", payload)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"op": self.op.value, "target": str(self.target)}
        if self.payload is not None:
            payload = self.payload
            if isinstance(payload, ColumnKnowledge):
                payload = payload.to_json_dict()
            out["payload"] = payload
        return out


def _classify(existing: Fact, incoming: Fact) -> Verdict:
    """Conflict unless the values agree; else a match when the update
    (:func:`updated_value`) leaves the committed value as it is.

    A column is judged on its fields, so no updated column is built: the
    overlapping fields must agree and the updated bounds must not cross
    (where they would, :func:`updated_value` falls back to the incoming
    fields); new fields enrich.
    """
    field = existing.key.field
    if field == "column":
        old = existing.value.fields()
        inc = incoming.value.fields()
        new = _updated_fields(old, inc)
        agree = all(
            _field_values_equivalent(n, old[n], inc[n]) for n in old.keys() & inc.keys()
        ) and _bounds_ordered(new.get("min_value"), new.get("max_value"))
    else:
        old, new = existing.value, updated_value(field, existing.value, incoming.value)
        agree = _field_values_equivalent(field, old, incoming.value)
    if not agree:
        return Verdict.CONFLICT
    # Dicts compare each field as identical or ``==``, as a record's ``==``
    # does on every Python version: a column restated with its NaN bound matches.
    return Verdict.MATCH if new == old else Verdict.PARTIAL_MATCH


def assess(kb: GroundedKnowledge, delta: GroundedKnowledge) -> list[AssessmentOutcome]:
    """Classify every incoming fact of ``delta`` against ``kb``.

    This is the one place that picks the committed fact an incoming fact
    targets: the first one ``kb``'s index finds that no conflict of this
    delta has retired, so no later outcome refers to a fact that a conflict
    replaced.
    """
    kb_facts, index = indexed_facts(kb)
    retired: set[int] = set()
    outcomes: list[AssessmentOutcome] = []
    for incoming in facts(delta):
        i = min((j for j in index.matches(incoming.key) if j not in retired), default=None)
        if i is None:
            outcomes.append(AssessmentOutcome(incoming, Verdict.NOVEL))
            continue
        existing = kb_facts[i]
        # A value equal to its target's is a match, as _classify would find:
        # every field rule accepts equal values, and updating a value with
        # an equal one leaves it equal.
        verdict = (
            Verdict.MATCH if incoming.value == existing.value else _classify(existing, incoming)
        )
        outcomes.append(AssessmentOutcome(incoming, verdict, existing.key))
        if verdict is Verdict.CONFLICT:
            retired.add(i)
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


def merge(kb: GroundedKnowledge, ops: list[GraphOp]) -> GroundedKnowledge:
    """Apply graph operations (from :func:`plan_ops`) to the knowledge base.

    Each operation names its target by exact key, as :func:`assess` picked
    it. Instantiate, update and remove ops need a fact of ``kb`` that no
    earlier op removed; a create needs a key that neither ``kb`` nor an
    earlier create holds; anything else is a bug and raises
    :class:`StateError`. An update, or a created column equivalent to a
    kept one, combines with it by the total :func:`updated_value`. The
    targets' positions are read from the ``exact`` map of ``kb``'s index.
    Removed facts retire their positions in a copy of that index, and
    created facts take new ones or join an equivalent kept column's; the
    result carries its facts by position and that index (see
    :func:`fold_facts`), so the next commit against it normalises only the
    incoming names it does not hold exactly. A merge that neither creates
    nor removes a fact shares ``kb``'s index as it is. When every op is an
    instantiation, ``kb`` itself is returned.
    """
    kb_facts, kb_index = indexed_facts(kb)
    position = kb_index.exact
    kept = kb_facts.copy()
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
        elif op.op is OpKind.UPDATE_NODE:
            kept[i] = Fact(op.target, updated_value(op.target.field, kept[i].value, op.payload))
        # INSTANTIATE_NODE only requires its target to exist.
    if all(op.op is OpKind.INSTANTIATE_NODE for op in ops):
        return kb
    removed = kb_facts.keys() - kept.keys()
    if not created and not removed:
        return fold_facts(kept, (), kb_index)
    index = kb_index.copy()
    for i in removed:
        index.discard(kb_facts[i].key)
    return fold_facts(kept, ((index.add(fact.key), fact) for fact in created.values()), index)


def commit(
    kb: GroundedKnowledge, delta: GroundedKnowledge
) -> tuple[GroundedKnowledge, list[AssessmentOutcome], list[GraphOp]]:
    """Assess, plan, and merge in one step."""
    outcomes = assess(kb, delta)
    ops = plan_ops(outcomes)
    return merge(kb, ops), outcomes, ops
