"""Per-layer spans and counts, recorded from outside the program.

``install`` rebinds the program's public functions at the names their
callers look up at call time. ``from .x import y`` binds ``y`` in the
caller's module when it is imported, so ``commit`` is wrapped both as
``convground.cli.commit`` and ``convground.engine.commit``. Each call then
records a span (name, start, end, parent), and a few tiny functions only
bump a counter. Spans stay in memory until ``Tracer.dump`` writes them when
the command ends. ``layer_metrics`` turns one command's spans into the
per-layer metrics.

Wrapping costs time inside the parents of every wrapped call, so traced
times are larger than untraced ones; ``trace.overhead_s`` reports the
difference. End-to-end metrics come only from untraced commands.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# (module, attribute, span name).
SPANS = (
    ("convground.cli", "main", "cli.main"),
    ("convground.cli", "load_dialogues", "dialogue.load"),
    ("convground.cli", "load_gold", "dialogue.load"),
    ("convground.cli", "build_classification_prompt", "prompts.build"),
    ("convground.cli", "build_extraction_prompt", "prompts.build"),
    ("convground.cli", "ResponseCache", "llm.cache_load"),
    ("convground.cli", "complete", "llm.complete"),
    ("convground.llm", "request_hash", "llm.request_hash"),
    ("convground.cli", "parse_label", "llm.parse_label"),
    ("convground.cli", "parse_knowledge_json", "llm.parse_knowledge"),
    ("convground.dialogue", "canonicalize", "knowledge.canonicalize"),
    ("convground.llm", "canonicalize", "knowledge.canonicalize"),
    ("convground.evaluation", "knowledge_equivalent", "knowledge.equivalent"),
    ("convground.cli", "commit", "assessment.commit"),
    ("convground.engine", "commit", "assessment.commit"),
    ("convground.assessment", "assess", "assessment.assess"),
    ("convground.assessment", "plan_ops", "assessment.plan_ops"),
    ("convground.assessment", "merge", "assessment.merge"),
    ("convground.cli", "process_dialogue", "engine.process_dialogue"),
    ("convground.engine", "present", "engine.present"),
    ("convground.engine", "observe_label", "engine.observe_label"),
    ("convground.cli", "score", "evaluation.score"),
    ("convground.cli", "render_report", "evaluation.render"),
)

# (module, attribute, counter name): called too often for a span each.
COUNTED = (
    ("convground.knowledge", "terms_equivalent", "knowledge.terms_equivalent_calls"),
    ("convground.assessment", "terms_equivalent", "knowledge.terms_equivalent_calls"),
    ("convground.knowledge", "normalize_term", "knowledge.normalize_term_calls"),
)


def _count_records(tracer: "Tracer", result: Any) -> None:
    if isinstance(result, dict):
        tracer.counts["dialogue.records"] += sum(len(v) for v in result.values())
    else:
        tracer.counts["dialogue.records"] += len(result)


def _count_prompt_bytes(tracer: "Tracer", messages: Any) -> None:
    tracer.counts["prompts.bytes"] += sum(len(m.content.encode("utf-8")) for m in messages)


def _count_cache_records(tracer: "Tracer", cache: Any) -> None:
    tracer.counts["llm.cache_records"] += len(cache)


def _count_verdicts(tracer: "Tracer", outcomes: Any) -> None:
    for outcome in outcomes:
        tracer.counts["assessment.verdict." + outcome.verdict.value] += 1


def _count_ops(tracer: "Tracer", ops: Any) -> None:
    tracer.counts["assessment.ops"] += len(ops)


def _track_kb_width(tracer: "Tracer", result: Any) -> None:
    width = len(result[0].column_info)
    if width > tracer.counts["assessment.kb_columns_max"]:
        tracer.counts["assessment.kb_columns_max"] = width


OBSERVERS: dict[str, Callable[["Tracer", Any], None]] = {
    "dialogue.load": _count_records,
    "prompts.build": _count_prompt_bytes,
    "llm.cache_load": _count_cache_records,
    "assessment.assess": _count_verdicts,
    "assessment.plan_ops": _count_ops,
    "assessment.commit": _track_kb_width,
}


class Tracer:
    """In-memory spans of one single-threaded command, plus exact counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict[str, Any]:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook point; return the ones the program no longer has."""
    missing = []
    for module_name, attr, name in SPANS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.span(name, fn, OBSERVERS.get(name)))
    for module_name, attr, name in COUNTED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.counter(name, fn))

    llm = importlib.import_module("convground.llm")
    cache_class = getattr(llm, "ResponseCache", None)
    if cache_class is None or not hasattr(cache_class, "get"):
        missing.append("convground.llm.ResponseCache.get")
    else:
        lookup = cache_class.get
        counts = tracer.counts

        def get(self, key):
            value = lookup(self, key)
            counts["llm.cache_lookups"] += 1
            if value is not None:
                counts["llm.cache_hits"] += 1
            return value

        cache_class.get = get
    return missing


# ---------------------------------------------------------------------------
# Metrics from one command's spans.
# ---------------------------------------------------------------------------

def _rank(sorted_values: list[float], rank: int) -> float:
    """The value of 1-based ``rank`` in ascending order."""
    return sorted_values[rank - 1]


def p50(values: list[float]) -> float:
    """Nearest-rank median, so that it never exceeds ``tail``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return _rank(ordered, math.ceil(len(ordered) / 2))


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With n > 10 samples that is rank n - 10, percentile 100 * (n - 10) / n.
    With ten samples or fewer it is the maximum, reported as percentile 100.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), _rank(ordered, rank)


def layer_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    names, parents = trace["names"], trace["parents"]
    durations = [e - s for s, e in zip(trace["starts"], trace["ends"])]
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[i]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    per_call: dict[str, list[float]] = defaultdict(list)
    for i, name in enumerate(names):
        total[name] += durations[i]
        self_time[name] += durations[i] - covered[i]
        per_call[name].append(durations[i])
    counts = Counter(trace["counts"])

    def calls(name: str) -> int:
        return len(per_call[name])

    def ms(values: list[float]) -> list[float]:
        return [1000.0 * v for v in values]

    equivalent_ms = ms(per_call["knowledge.equivalent"])
    commit_ms = ms(per_call["assessment.commit"])
    dialogue_ms = ms(per_call["engine.process_dialogue"])
    equivalent_pct, equivalent_tail = tail(equivalent_ms)
    commit_pct, commit_tail = tail(commit_ms)
    lookups = counts["llm.cache_lookups"]
    score_total = total["evaluation.score"]

    return {
        "dialogue.load_s": self_time["dialogue.load"],
        "dialogue.records": counts["dialogue.records"],
        "prompts.build_calls": calls("prompts.build"),
        "prompts.build_s": total["prompts.build"],
        "prompts.bytes": counts["prompts.bytes"],
        "llm.cache_load_s": total["llm.cache_load"],
        "llm.cache_records": counts["llm.cache_records"],
        "llm.complete_calls": calls("llm.complete"),
        "llm.complete_s": total["llm.complete"],
        "llm.cache_lookups": lookups,
        "llm.cache_hit_ratio": counts["llm.cache_hits"] / lookups if lookups else 0.0,
        "llm.request_hash_s": total["llm.request_hash"],
        "llm.parse_label_s": total["llm.parse_label"],
        "llm.parse_knowledge_s": self_time["llm.parse_knowledge"],
        "knowledge.canonicalize_calls": calls("knowledge.canonicalize"),
        "knowledge.canonicalize_s": total["knowledge.canonicalize"],
        "knowledge.terms_equivalent_calls": counts["knowledge.terms_equivalent_calls"],
        "knowledge.normalize_term_calls": counts["knowledge.normalize_term_calls"],
        "knowledge.equivalent_calls": calls("knowledge.equivalent"),
        "knowledge.equivalent_s": total["knowledge.equivalent"],
        "knowledge.equivalent_ms_p50": p50(equivalent_ms),
        "knowledge.equivalent_ms_tail": equivalent_tail,
        "knowledge.equivalent_tail_pct": equivalent_pct,
        "assessment.commit_calls": calls("assessment.commit"),
        "assessment.commit_s": total["assessment.commit"],
        "assessment.commit_ms_p50": p50(commit_ms),
        "assessment.commit_ms_tail": commit_tail,
        "assessment.commit_tail_pct": commit_pct,
        "assessment.assess_s": total["assessment.assess"],
        "assessment.plan_ops_s": total["assessment.plan_ops"],
        "assessment.merge_s": total["assessment.merge"],
        "assessment.kb_columns_max": counts["assessment.kb_columns_max"],
        "assessment.verdict.match": counts["assessment.verdict.match"],
        "assessment.verdict.partial_match": counts["assessment.verdict.partial_match"],
        "assessment.verdict.conflict": counts["assessment.verdict.conflict"],
        "assessment.verdict.novel": counts["assessment.verdict.novel"],
        "assessment.ops": counts["assessment.ops"],
        "engine.dialogue_ms_p50": p50(dialogue_ms),
        "engine.dialogue_ms_max": max(dialogue_ms, default=0.0),
        "engine.present_s": total["engine.present"],
        "engine.observe_label_s": total["engine.observe_label"],
        "evaluation.score_s": self_time["evaluation.score"],
        "evaluation.score_total_s": score_total,
        "evaluation.render_s": total["evaluation.render"],
        "evaluation.equivalent_share": (
            total["knowledge.equivalent"] / score_total if score_total else 0.0
        ),
        "cli.self_s": self_time["cli.main"],
    }

