"""Command-line entry point: annotate, ground, evaluate, and inspect prompts."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .assessment import commit
from .dialogue import (
    CorpusError,
    Dialogue,
    GoldAnnotation,
    _dumps,
    load_dialogues,
    load_gold,
    save_annotations,
)
from .engine import process_dialogue
from .evaluation import CoverageError, ReportFormat, render_report, score
from .knowledge import EMPTY_KNOWLEDGE, GroundedKnowledge
from .llm import (
    DEFAULT_MODEL,
    ENDPOINT_ENV,
    ApiError,
    CacheMissError,
    CacheMode,
    CompletionRequest,
    KnowledgeParseError,
    LabelParseError,
    ResponseCache,
    TransportError,
    complete,
    parse_knowledge_json,
    parse_label,
)
from .prompts import Transcript, build_classification_prompt, build_extraction_prompt


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _unwritable(path: Path, exc: OSError) -> int:
    return _fail(f"{path}: {exc.strerror or exc}")


# Why a turn was skipped, in the order the groups are reported.
_SKIPPED = ("cache misses", "unparseable replies", "request errors")


def _knowledge_json(kb: GroundedKnowledge, transcript: Transcript) -> str:
    """``json.dumps(kb.to_json_dict(), ensure_ascii=False)``, taking the text
    of each column that ``transcript.column_texts`` holds from there, which
    is then left holding the text of ``kb``'s columns alone.

    ``column_texts`` maps ``id(column)`` to the column and its text. Each
    entry keeps its column alive, so no id is reused while the entry exists.
    It is not keyed by ``==``: ``1``, ``1.0`` and ``True`` are equal but
    serialise differently.
    """
    known, texts = transcript.column_texts, {}
    for column in kb.column_info:
        texts[id(column)] = known.get(id(column)) or (column, _dumps(column.to_json_dict()))
    transcript.column_texts = texts
    text = _dumps(kb.to_json_dict(columns=False))
    if not kb.column_info:
        return text
    columns = ", ".join(texts[id(column)][1] for column in kb.column_info)
    return f'{text[:-1]}{", " if len(text) > 2 else ""}"column_info": [{columns}]}}'


def _annotate_dialogue(
    dialogue: Dialogue,
    targets: list[int],
    args: argparse.Namespace,
    mode: CacheMode,
    cache: Optional[ResponseCache],
) -> tuple[list[GoldAnnotation], list[tuple[str, str]]]:
    """Annotate the target turns of one dialogue.

    Returns the annotations and, per skipped turn, its ``_SKIPPED`` group and
    a line naming the turn and the cause: a reply that is not in the cache or
    could not be parsed, or a request the endpoint refused or never answered.
    The other turns still run.
    """
    annotations: list[GoldAnnotation] = []
    skipped: list[tuple[str, str]] = []
    kb, kb_json, transcript = EMPTY_KNOWLEDGE, None, Transcript()
    for turn_index in targets:
        history = dialogue.turns[:turn_index]
        cls_messages = build_classification_prompt(history, transcript)
        if args.incremental_kb and kb_json is None:
            kb_json = _knowledge_json(kb, transcript)
        ext_messages = build_extraction_prompt(history, kb_json, transcript)
        where = f"dialogue {dialogue.id} turn {turn_index}"
        try:
            label_text, knowledge_text = [
                complete(CompletionRequest(args.model_name, tuple(messages)), mode,
                         cache=cache, endpoint=args.endpoint, transcript=transcript).text
                for messages in (cls_messages, ext_messages)
            ]
        except CacheMissError as exc:
            skipped.append(("cache misses", f"{where}: {exc.request_hash}"))
            continue
        except (ApiError, TransportError) as exc:
            skipped.append(("request errors", f"{where}: {exc}"))
            continue
        try:
            label = parse_label(label_text)
            knowledge = parse_knowledge_json(knowledge_text)
        except (LabelParseError, KnowledgeParseError) as exc:
            skipped.append(("unparseable replies", f"{where}: {exc}"))
            continue
        annotations.append(GoldAnnotation(turn_index, label, knowledge))
        if args.incremental_kb and label.accepts:
            # Incremental mode: the extracted delta feeds the running KB
            # instead of regenerating everything from scratch next turn. A
            # commit that changes nothing returns the same object, and the
            # serialised KB is kept; one that does keeps its unchanged
            # columns' text.
            grown, _, _ = commit(kb, knowledge)
            if grown is not kb:
                kb, kb_json = grown, None
    return annotations, skipped


def cmd_annotate(args: argparse.Namespace) -> int:
    if args.corpus is None or args.out is None:
        return _fail("annotate requires --corpus and --out")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    mode = CacheMode(args.cache_mode)
    if mode is not CacheMode.LIVE and args.cache is None:
        return _fail(f"{mode.value} mode requires --cache")
    if mode is not CacheMode.REPLAY and not (args.endpoint or os.environ.get(ENDPOINT_ENV)):
        return _fail(f"{mode.value} mode requires --endpoint or {ENDPOINT_ENV}")
    try:
        dialogues = load_dialogues(args.corpus)
        gold = load_gold(args.gold, dialogues) if args.gold else None
        # Replay reads only the cache, so a missing one is an error, not empty.
        cache = (ResponseCache(args.cache, missing_ok=mode is not CacheMode.REPLAY)
                 if args.cache else None)
    except CorpusError as exc:
        return _fail(str(exc))
    if not args.all_turns and gold is None:
        return _fail("annotate needs --gold to select turns (or pass --all-turns)")
    if mode is CacheMode.RECORD:
        try:
            cache.check_writable()
        except OSError as exc:
            return _unwritable(args.cache, exc)

    def annotate(dialogue: Dialogue):
        if args.all_turns:
            targets = [t.index for t in dialogue.turns]
        else:
            targets = [a.turn_index for a in gold.get(dialogue.id, [])]
        return _annotate_dialogue(dialogue, targets, args, mode, cache)

    if args.jobs > 1:
        # Imported here: it loads logging and queue, which serial runs never need.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(annotate, dialogues))
    else:
        outcomes = [annotate(d) for d in dialogues]
    results: dict[str, list[GoldAnnotation]] = {}
    skipped: dict[str, list[str]] = {title: [] for title in _SKIPPED}
    for d, (annotations, dialogue_skipped) in zip(dialogues, outcomes):
        results[d.id] = annotations
        for title, line in dialogue_skipped:
            skipped[title].append(line)
    for title, lines in skipped.items():
        if lines:
            print(f"{title}:", file=sys.stderr)
            for line in lines:
                print(f"  {line}", file=sys.stderr)
    try:
        save_annotations(results, args.out)
    except OSError as exc:
        return _unwritable(args.out, exc)
    total = sum(len(v) for v in results.values())
    print(f"wrote {total} predictions to {args.out}")
    return 1 if any(skipped.values()) else 0


def cmd_ground(args: argparse.Namespace) -> int:
    if args.corpus is None or args.out is None:
        return _fail("ground requires --corpus and --out")
    source_path = args.gold or args.predictions
    if source_path is None:
        return _fail("ground requires --gold or --predictions as label source")
    try:
        dialogues = load_dialogues(args.corpus)
        source = load_gold(source_path, dialogues)
    except CorpusError as exc:
        return _fail(str(exc))

    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            for dialogue in dialogues:
                state = process_dialogue(dialogue, source.get(dialogue.id, []))
                for entry in state.history:
                    record = {
                        "dialogue_id": dialogue.id,
                        "turn": entry.turn_index,
                        "label": entry.label.value,
                        "ops": [op.to_json_dict() for op in entry.ops],
                    }
                    handle.write(_dumps(record) + "\n")
                final = {
                    "dialogue_id": dialogue.id,
                    "final_knowledge": state.grounded.to_json_dict(),
                }
                handle.write(_dumps(final) + "\n")
    except OSError as exc:
        return _unwritable(args.out, exc)
    print(f"wrote grounding traces for {len(dialogues)} dialogues to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.gold is None or args.predictions is None:
        return _fail("evaluate requires --gold and --predictions")
    try:
        dialogues = load_dialogues(args.corpus) if args.corpus else None
        gold = load_gold(args.gold, dialogues)
        predictions = load_gold(args.predictions, dialogues)
    except CorpusError as exc:
        return _fail(str(exc))
    try:
        report = score(gold, predictions)
    except CoverageError as exc:
        return _fail(str(exc))
    if args.out is not None:
        try:
            args.out.write_text(
                render_report(report, ReportFormat.MACHINE) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            return _unwritable(args.out, exc)
    print(render_report(report, ReportFormat(args.format)))
    print(report.summary_line())
    return 0


def cmd_prompts(args: argparse.Namespace) -> int:
    if args.corpus is None:
        return _fail("prompts requires --corpus")
    try:
        dialogues = {d.id: d for d in load_dialogues(args.corpus)}
    except CorpusError as exc:
        return _fail(str(exc))
    if args.dialogue_id not in dialogues:
        return _fail(f"unknown dialogue {args.dialogue_id!r}")
    dialogue = dialogues[args.dialogue_id]
    try:
        dialogue.turn(args.turn_index)
    except KeyError as exc:
        return _fail(str(exc.args[0]))
    history = dialogue.turns[:args.turn_index]
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
    # Each subcommand gets only the flags it reads.
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "annotate":
        return cmd_annotate(args)
    if args.command == "ground":
        return cmd_ground(args)
    if args.command == "evaluate":
        return cmd_evaluate(args)
    return cmd_prompts(args)


if __name__ == "__main__":
    raise SystemExit(main())
