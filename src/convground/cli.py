"""Command-line entry point: annotate, ground, evaluate, and inspect prompts."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from .assessment import commit
from .dialogue import (
    CorpusError,
    Dialogue,
    GoldAnnotation,
    GroundingLabel,
    load_dialogues,
    load_gold,
    save_annotations,
)
from .engine import gold_extractor, gold_labeler, process_dialogue
from .evaluation import CoverageError, ReportFormat, render_report, score
from .knowledge import EMPTY_KNOWLEDGE
from .llm import (
    DEFAULT_MODEL,
    CacheMissError,
    CacheMode,
    CompletionRequest,
    KnowledgeParseError,
    LabelParseError,
    ResponseCache,
    complete,
    parse_knowledge_json,
    parse_label,
)
from .prompts import build_classification_prompt, build_extraction_prompt


@dataclass
class RunConfig:
    corpus: Optional[Path] = None
    gold: Optional[Path] = None
    predictions: Optional[Path] = None
    cache: Optional[Path] = None
    cache_mode: CacheMode = CacheMode.REPLAY
    model_name: str = DEFAULT_MODEL
    endpoint: Optional[str] = None
    incremental_kb: bool = False
    all_turns: bool = False
    jobs: int = 1
    out: Optional[Path] = None
    format: ReportFormat = ReportFormat.MARKDOWN


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _annotate_dialogue(
    dialogue: Dialogue,
    targets: list[int],
    cfg: RunConfig,
    cache: Optional[ResponseCache],
) -> tuple[list[GoldAnnotation], list[str], list[str]]:
    """Annotate the target turns of one dialogue.

    Returns the annotations, then one line per turn whose reply is not in
    the cache and one per turn whose reply could not be parsed; those turns
    are skipped and the others still run.
    """
    annotations: list[GoldAnnotation] = []
    misses: list[str] = []
    unparseable: list[str] = []
    kb, kb_json = EMPTY_KNOWLEDGE, None
    for turn_index in targets:
        history = dialogue.turns[:turn_index]
        cls_messages = build_classification_prompt(history)
        if cfg.incremental_kb:
            if kb_json is None:
                kb_json = json.dumps(kb.to_json_dict(), ensure_ascii=False)
            ext_messages = build_extraction_prompt(history, known_kb_json=kb_json)
        else:
            ext_messages = build_extraction_prompt(history)
        try:
            label_text = complete(
                CompletionRequest(cfg.model_name, tuple(cls_messages)),
                cfg.cache_mode,
                cache=cache,
                endpoint=cfg.endpoint,
            ).text
            knowledge_text = complete(
                CompletionRequest(cfg.model_name, tuple(ext_messages)),
                cfg.cache_mode,
                cache=cache,
                endpoint=cfg.endpoint,
            ).text
        except CacheMissError as exc:
            misses.append(
                f"dialogue {dialogue.id} turn {turn_index}: {exc.request_hash}"
            )
            continue
        try:
            label = parse_label(label_text)
            knowledge = parse_knowledge_json(knowledge_text)
        except (LabelParseError, KnowledgeParseError) as exc:
            unparseable.append(f"dialogue {dialogue.id} turn {turn_index}: {exc}")
            continue
        annotations.append(GoldAnnotation(turn_index, label, knowledge))
        if cfg.incremental_kb and label in (
            GroundingLabel.EXPLICIT,
            GroundingLabel.IMPLICIT,
        ):
            # Incremental mode: the extracted delta feeds the running KB
            # instead of regenerating everything from scratch next turn. A
            # commit that changes nothing returns the same object, and the
            # serialised KB is kept.
            grown, _, _ = commit(kb, knowledge)
            if grown is not kb:
                kb, kb_json = grown, None
    return annotations, misses, unparseable


def cmd_annotate(cfg: RunConfig) -> int:
    if cfg.corpus is None or cfg.out is None:
        return _fail("annotate requires --corpus and --out")
    if cfg.cache_mode is CacheMode.REPLAY and cfg.cache is None:
        return _fail("replay mode requires --cache")
    try:
        dialogues = load_dialogues(cfg.corpus)
        gold = load_gold(cfg.gold, dialogues) if cfg.gold else None
        cache = ResponseCache(cfg.cache) if cfg.cache else None
    except CorpusError as exc:
        return _fail(str(exc))
    if not cfg.all_turns and gold is None:
        return _fail("annotate needs --gold to select turns (or pass --all-turns)")

    def annotate(dialogue: Dialogue):
        if cfg.all_turns:
            targets = [t.index for t in dialogue.turns]
        else:
            targets = [a.turn_index for a in gold.get(dialogue.id, [])]
        return _annotate_dialogue(dialogue, targets, cfg, cache)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(annotate, dialogues))
    else:
        outcomes = [annotate(d) for d in dialogues]
    results: dict[str, list[GoldAnnotation]] = {}
    misses: list[str] = []
    unparseable: list[str] = []
    for d, (annotations, dialogue_misses, dialogue_unparseable) in zip(dialogues, outcomes):
        results[d.id] = annotations
        misses.extend(dialogue_misses)
        unparseable.extend(dialogue_unparseable)
    for title, lines in (("cache misses", misses), ("unparseable replies", unparseable)):
        if lines:
            print(f"{title}:", file=sys.stderr)
            for line in lines:
                print(f"  {line}", file=sys.stderr)
    if misses or unparseable:
        return 1
    save_annotations(results, cfg.out)
    total = sum(len(v) for v in results.values())
    print(f"wrote {total} predictions to {cfg.out}")
    return 0


def cmd_ground(cfg: RunConfig) -> int:
    if cfg.corpus is None or cfg.out is None:
        return _fail("ground requires --corpus and --out")
    source_path = cfg.gold or cfg.predictions
    if source_path is None:
        return _fail("ground requires --gold or --predictions as label source")
    try:
        dialogues = load_dialogues(cfg.corpus)
        source = load_gold(source_path, dialogues)
    except CorpusError as exc:
        return _fail(str(exc))

    with open(cfg.out, "w", encoding="utf-8") as handle:
        for dialogue in dialogues:
            annotations = source.get(dialogue.id, [])
            state, trace = process_dialogue(
                dialogue, gold_labeler(annotations), gold_extractor(annotations)
            )
            for entry in trace:
                record = {
                    "dialogue_id": dialogue.id,
                    "turn": entry.turn_index,
                    "label": entry.label.value,
                    "ops": [op.to_json_dict() for op in entry.ops],
                }
                if entry.warning is not None:
                    record["warning"] = entry.warning
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            final = {
                "dialogue_id": dialogue.id,
                "final_knowledge": state.grounded.to_json_dict(),
            }
            handle.write(json.dumps(final, ensure_ascii=False) + "\n")
    print(f"wrote grounding traces for {len(dialogues)} dialogues to {cfg.out}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    if cfg.gold is None or cfg.predictions is None:
        return _fail("evaluate requires --gold and --predictions")
    try:
        dialogues = load_dialogues(cfg.corpus) if cfg.corpus else None
        gold = load_gold(cfg.gold, dialogues)
        predictions = load_gold(cfg.predictions, dialogues)
    except CorpusError as exc:
        return _fail(str(exc))
    try:
        report = score(gold, predictions)
    except CoverageError as exc:
        return _fail(str(exc))
    if cfg.out is not None:
        Path(cfg.out).write_text(
            render_report(report, ReportFormat.MACHINE) + "\n", encoding="utf-8"
        )
    print(render_report(report, cfg.format))
    print(report.summary_line())
    return 0


def cmd_prompts(cfg: RunConfig, dialogue_id: str, turn_index: int) -> int:
    if cfg.corpus is None:
        return _fail("prompts requires --corpus")
    try:
        dialogues = {d.id: d for d in load_dialogues(cfg.corpus)}
    except CorpusError as exc:
        return _fail(str(exc))
    if dialogue_id not in dialogues:
        return _fail(f"unknown dialogue {dialogue_id!r}")
    dialogue = dialogues[dialogue_id]
    try:
        dialogue.turn(turn_index)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    history = dialogue.turns[:turn_index]
    for title, messages in (
        ("classification", build_classification_prompt(history)),
        ("extraction", build_extraction_prompt(history)),
    ):
        print(f"# {title}")
        print(
            json.dumps(
                [m.to_json_dict() for m in messages], ensure_ascii=False, indent=2
            )
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convground",
        description="Track and evaluate conversational grounding in "
        "information-seeking dialogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand gets only the flags it reads; each dest is a RunConfig field.
    annotate, ground, evaluate, prompts = (
        sub.add_parser(name) for name in ("annotate", "ground", "evaluate", "prompts")
    )
    for p in (annotate, ground, evaluate, prompts):
        p.add_argument("--corpus", type=Path, help="dialogue corpus (JSONL)")
    for p in (annotate, ground, evaluate):
        p.add_argument("--gold", type=Path, help="gold annotations (JSONL)")
        p.add_argument("--out", type=Path, help="output path")
    for p in (ground, evaluate):
        p.add_argument("--predictions", type=Path, help="predictions (JSONL)")
    annotate.add_argument("--cache", type=Path, help="record/replay cache file")
    annotate.add_argument(
        "--mode",
        dest="cache_mode",
        choices=[m.value for m in CacheMode],
        default=CacheMode.REPLAY.value,
        help="completion mode (default: replay)",
    )
    annotate.add_argument(
        "--model", dest="model_name", default=DEFAULT_MODEL, help="model identifier"
    )
    annotate.add_argument("--endpoint", help="chat-completions endpoint URL")
    annotate.add_argument(
        "--incremental-kb",
        action="store_true",
        help="feed the grounded knowledge base back into extraction prompts",
    )
    annotate.add_argument(
        "--all-turns",
        action="store_true",
        help="annotate every turn instead of gold-annotated turns only",
    )
    annotate.add_argument("--jobs", type=int, default=1, help="dialogues in parallel")
    evaluate.add_argument(
        "--format",
        choices=[f.value for f in ReportFormat],
        default=ReportFormat.MARKDOWN.value,
        help="report format",
    )
    prompts.add_argument("dialogue_id")
    prompts.add_argument("turn_index", type=int)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)
    }
    if "cache_mode" in given:
        given["cache_mode"] = CacheMode(given["cache_mode"])
    if "format" in given:
        given["format"] = ReportFormat(given["format"])
    return RunConfig(**given)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    if args.command == "annotate":
        return cmd_annotate(cfg)
    if args.command == "ground":
        return cmd_ground(cfg)
    if args.command == "evaluate":
        return cmd_evaluate(cfg)
    return cmd_prompts(cfg, args.dialogue_id, args.turn_index)


if __name__ == "__main__":
    raise SystemExit(main())
