"""Seeded synthetic inputs for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes a workload's input files and its
planted expectations (``expected.json``) into ``out_dir`` and returns a
manifest: the CLI argv, the number of turns each command attempts, and the
sizes used. The same seed gives byte-identical files; different seeds change
names, values, orderings and reply formats but keep each workload's shape, so
that runs on different seeds cost about the same.

The program receives only the generated files. The planted expectations are
built here from the generator's own tables, not from the program's outputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from convground import (
    EMPTY_KNOWLEDGE,
    CompletionRequest,
    Role,
    Turn,
    build_classification_prompt,
    build_extraction_prompt,
    canonicalize,
    commit,
)
from convground.llm import DEFAULT_MODEL, request_hash

WORKLOADS = ("annotate_incremental", "ground_wide", "evaluate_judge")

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        # 40 x 50 turns, about 10 columns per table: ~19 MB of replay cache.
        "annotate_incremental": {"dialogues": 40, "turns": 50, "columns": 10},
        # Two wide tables re-listed in three growing batches, then details
        # for 3 columns each.
        "ground_wide": {"widths": [100, 100], "batch": 34, "detail_share": 0.03},
        # Matching lists of 16-64 values, and near misses of 6-8 values with
        # repeats (judged in about 2.5, 14 and 110 ms at the seed commit).
        "evaluate_judge": {
            "matching": 300,
            "matching_sizes": [16, 24, 32, 40, 48, 56, 64],
            "near_miss": 120,
            "near_miss_sizes": [6] * 14 + [7] * 5 + [8],
            "turns_per_dialogue": 20,
        },
    },
    "tiny": {
        "annotate_incremental": {"dialogues": 3, "turns": 8, "columns": 5},
        "ground_wide": {"widths": [12], "batch": 4, "detail_share": 0.5},
        "evaluate_judge": {
            "matching": 8,
            "matching_sizes": [4, 8],
            "near_miss": 4,
            "near_miss_sizes": [4, 5],
            "turns_per_dialogue": 5,
        },
    },
}

# Every token below survives ``normalize_term``: no stopwords, unit tokens
# or numbers. Column names are distinct (qualifier, noun) pairs, so no two
# names of one table are equivalent terms.
QUALIFIERS = (
    "annual average total daily monthly median peak initial final primary "
    "secondary local regional national urban rural northern southern eastern "
    "western maximum minimum estimated reported adjusted gross net public "
    "private official historic current projected seasonal weekly hourly "
    "relative absolute nominal real"
).split()
NOUNS = (
    "rainfall income population elevation temperature price revenue distance "
    "duration weight height area volume speed count score rating budget cost "
    "salary age density length depth width pressure humidity output yield tax "
    "rent wage debt growth share rank capacity mileage latency attendance"
).split()
DOMAINS = (
    "geography media sports finance health transport climate education "
    "agriculture tourism energy housing"
).split()
SUBJECTS = (
    "nature parks", "time travel novels", "football clubs", "listed companies",
    "regional hospitals", "railway stations", "weather stations", "universities",
    "farms", "museums", "power plants", "apartments",
)
_SYLLABLES = "ka lo mi ne ru ta vo zi be du fa go hi ju ke la mo nu pi so".split()
# Forms with the same content tokens as the bare name ("area" vs "area in km2").
_SYNONYM_FORMS = ("{} in km2", "the {}", "{} (%)", "{} in m2")

LABELS = ("explicit", "implicit", "clarification")
_LABEL_REPLIES = (
    "Output label: {}",
    "{}",
    "Label: {}.",
    "The grounding label is {}",
)


def _value_words(rng: random.Random, count: int) -> list[str]:
    """Distinct single-token pseudo-words, pairwise non-equivalent."""
    words: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def _synonym(rng: random.Random, name: str) -> str:
    form = rng.choice(_SYNONYM_FORMS)
    return form.format(name.title() if rng.random() < 0.3 else name)


def _make_table(rng: random.Random, width: int) -> dict[str, Any]:
    rows = rng.randrange(200, 5000)
    pairs = rng.sample([(q, n) for q in QUALIFIERS for n in NOUNS], width)
    words = _value_words(rng, 3 * width)
    columns = []
    for i, (q, n) in enumerate(pairs):
        lo = rng.randrange(0, 1000)
        columns.append({
            "column_name": f"{q} {n}",
            "description": f"{q} {n} recorded per entry",
            "values": words[3 * i: 3 * i + 3],
            "distinct_count": rng.randrange(3, rows + 1),
            "min_value": lo,
            "max_value": lo + rng.randrange(1, 10000),
        })
    subject = rng.choice(SUBJECTS)
    return {
        "table_domain": rng.choice(DOMAINS),
        "table_content": f"{subject} in {rng.choice(['Germany', 'Europe', 'Asia', 'Canada'])}",
        "row_count": rows,
        "column_count": width,
        "columns": columns,
    }


def _write_jsonl(path: Path, records: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _write_json(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8")


def _corpus_record(dialogue_id: str, domain: str, turns: list[tuple[str, str]]) -> dict[str, Any]:
    return {
        "id": dialogue_id,
        "domain": domain,
        "turns": [
            {"index": i, "role": role, "text": text}
            for i, (role, text) in enumerate(turns, start=1)
        ],
    }


def _pyrepr(obj: Any) -> str:
    """Python-literal rendering with JSON's ``null``, as models often print."""
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_pyrepr(k)}: {_pyrepr(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_pyrepr(v) for v in obj) + "]"
    return repr(obj)


# ---------------------------------------------------------------------------
# annotate_incremental
# ---------------------------------------------------------------------------

def _annotate_delta(rng: random.Random, table: dict[str, Any], turn: int) -> dict[str, Any]:
    """A canonical knowledge delta mentioning 0-3 of the table's columns."""
    delta: dict[str, Any] = {}
    if turn <= 6 and rng.random() < 0.5:
        key = rng.choice(("table_domain", "table_content", "row_count", "column_count"))
        delta[key] = table[key]
    k = rng.choice((0, 1, 1, 2, 2, 3))
    columns = []
    for column in rng.sample(table["columns"], k):
        entry: dict[str, Any] = {
            "column_name": column["column_name"] if rng.random() < 0.7
            else _synonym(rng, column["column_name"])
        }
        fields = rng.choice((
            (), ("description",), ("min_value", "max_value"), ("distinct_count",),
            ("values",), ("min_value",), ("description", "values"),
        ))
        for name in ("description", "values", "distinct_count", "min_value", "max_value"):
            if name in fields:
                value = column[name]
                if name == "min_value" and rng.random() < 0.1:
                    value = max(0, value - rng.randrange(1, 50))  # a conflicting detail
                entry[name] = list(value) if isinstance(value, list) else value
        columns.append(entry)
    if columns:
        delta["column_info"] = columns
    return delta


def _annotate_text(rng: random.Random, role: str, delta: dict[str, Any]) -> str:
    columns = delta.get("column_info", [])
    if role == "seeker":
        if columns:
            return f"What can you tell me about {columns[0]['column_name']}?"
        return rng.choice(("ok got it", "great! good to know.", "thanks :blush:", "hmm, and then?"))
    parts = []
    for key in ("table_domain", "table_content"):
        if key in delta:
            parts.append(f"The dataset is about {delta[key]}.")
    if "row_count" in delta:
        parts.append(f"There are {delta['row_count']} rows.")
    if "column_count" in delta:
        parts.append(f"It has {delta['column_count']} columns.")
    for c in columns:
        bits = [f"The column {c['column_name']}"]
        if "description" in c:
            bits.append(f"holds the {c['description']}")
        if "min_value" in c:
            bits.append(f"starts at {c['min_value']}")
        if "max_value" in c:
            bits.append(f"goes up to {c['max_value']}")
        if "distinct_count" in c:
            bits.append(f"has {c['distinct_count']} distinct values")
        if "values" in c:
            bits.append("such as " + ", ".join(map(str, c["values"])))
        parts.append(" ".join(bits) + ".")
    return " ".join(parts) or rng.choice(("let me check that", "one moment please", "sure"))


def _reply_tree(rng: random.Random, delta: dict[str, Any], quoted: bool) -> Any:
    """Render a canonical delta in one of the shorthand shapes models emit."""
    top = {k: v for k, v in delta.items() if k != "column_info"}
    columns = [dict(c) for c in delta.get("column_info", [])]
    if rng.random() < 0.3:
        # Unmentioned attributes left as null, as the extraction prompt asks.
        top.setdefault("table_domain", None)
        for c in columns:
            c.setdefault("description", None)
    shape = rng.random()
    if columns and all(set(c) == {"column_name"} for c in columns) and shape < 0.5:
        return {**top, "column_names": [c["column_name"] for c in columns]}
    if len(columns) == 1 and shape < 0.5:
        return {**top, **columns[0]}
    if len(columns) >= 2 and quoted and not any(v is not None for v in top.values()) and shape < 0.7:
        return columns  # bare "{...}, {...}" sequence
    if columns:
        top["column_info"] = columns
    return top


def _knowledge_reply(rng: random.Random, delta: dict[str, Any]) -> str:
    style = rng.randrange(4)
    tree = _reply_tree(rng, delta, quoted=style == 3)
    if style == 0:
        return json.dumps(tree, ensure_ascii=False)
    if style == 1:
        return "Output JSON: " + json.dumps(tree, ensure_ascii=False)
    if style == 2:
        return "```json\n" + json.dumps(tree, ensure_ascii=False, indent=2) + "\n```"
    if isinstance(tree, list):
        return "Output JSON: " + ", ".join(_pyrepr(obj) for obj in tree)
    return "Output JSON: " + _pyrepr(tree)


def _gen_annotate(rng: random.Random, size: dict[str, Any], out: Path) -> dict[str, Any]:
    corpus, cache, expected = [], [], {}
    for d in range(size["dialogues"]):
        dialogue_id = f"ann{d:03d}"
        table = _make_table(rng, size["columns"])
        texts, labels, deltas = [], [], []
        for t in range(1, size["turns"] + 1):
            role = "seeker" if t % 2 else "provider"
            delta = _annotate_delta(rng, table, t)
            text = _annotate_text(rng, role, delta)
            if t == 1:
                # Histories of different dialogues must differ, or two
                # dialogues would share a cache key with different replies.
                text = f"Hello, I am looking at dataset {dialogue_id}. {text}"
            texts.append((role, text))
            labels.append(rng.choices(LABELS, weights=(35, 35, 30))[0])
            deltas.append(delta)
        corpus.append(_corpus_record(dialogue_id, table["table_domain"], texts))
        turns = [Turn(i, Role(role), text) for i, (role, text) in enumerate(texts, start=1)]

        # Mirror `annotate --all-turns --incremental-kb` so that the cache
        # holds exactly the requests the command makes.
        kb = EMPTY_KNOWLEDGE
        for t, (label, delta) in enumerate(zip(labels, deltas), start=1):
            history = turns[:t]
            kb_json = json.dumps(kb.to_json_dict(), ensure_ascii=False)
            for messages, response in (
                (build_classification_prompt(history),
                 rng.choice(_LABEL_REPLIES).format(label.title() if rng.random() < 0.2 else label)),
                (build_extraction_prompt(history, known_kb_json=kb_json),
                 _knowledge_reply(rng, delta)),
            ):
                request = CompletionRequest(DEFAULT_MODEL, tuple(messages))
                cache.append({
                    "hash": request_hash(request),
                    "request": request.wire_body(),
                    "response": response,
                })
            if label in ("explicit", "implicit"):
                kb, _, _ = commit(kb, canonicalize(delta))
        expected[dialogue_id] = [
            [t, label, delta] for t, (label, delta) in enumerate(zip(labels, deltas), start=1)
        ]

    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "cache.jsonl", cache)
    _write_json(out / "expected.json", {"turns": expected})
    turns = size["dialogues"] * size["turns"]
    return {
        "argv": [
            "annotate", "--corpus", str(out / "corpus.jsonl"),
            "--cache", str(out / "cache.jsonl"), "--mode", "replay",
            "--all-turns", "--incremental-kb", "--jobs", "1",
            "--out", str(out / "predictions.jsonl"),
        ],
        "output": str(out / "predictions.jsonl"),
        "turns": turns,
        "shape": {**size, "cache_records": len(cache)},
    }


# ---------------------------------------------------------------------------
# ground_wide
# ---------------------------------------------------------------------------

def _gen_ground(rng: random.Random, size: dict[str, Any], out: Path) -> dict[str, Any]:
    corpus, gold, expected = [], [], {}
    batch = size["batch"]
    total_turns = 0
    for d, width in enumerate(size["widths"]):
        dialogue_id = f"wide{d:02d}"
        table = _make_table(rng, width)
        names = [c["column_name"] for c in table["columns"]]
        turns: list[tuple[str, str]] = []

        def say(role: str, text: str, label: str | None = None, knowledge: Any = None) -> None:
            turns.append((role, text))
            if label is not None:
                gold.append({
                    "dialogue_id": dialogue_id, "turn_index": len(turns),
                    "label": label, "knowledge": knowledge,
                })

        rows = table["row_count"]
        say("seeker", f"Hello, what is the {table['table_domain']} dataset about?")
        say("provider", f"It contains {table['table_content']}.", "implicit",
            {"table_domain": table["table_domain"], "table_content": table["table_content"]})
        say("seeker", "How many rows are there?")
        say("provider", f"{rows + 17}")
        say("seeker", "ok", "explicit", {"row_count": rows + 17})
        say("provider", f"Sorry, I misread that: it is {rows} rows.")
        say("seeker", "got it", "explicit", {"row_count": rows})

        # The provider re-lists a growing column list in batches, first
        # missing one column and then correcting itself.
        for end in [*range(batch, width, batch), width]:
            say("seeker", "What are the attributes?" if end == batch else "Are there more columns?")
            say("provider", "Attributes: " + ", ".join(names[:end - 1]), "clarification",
                {"column_names": names[:end - 1]})
            say("provider", "oh, sorry one column was missed. Attributes: " + ", ".join(names[:end]),
                "clarification", {"column_names": names[:end]})
            say("seeker", "ok got it", "explicit", {})

        detailed = rng.sample(table["columns"], int(width * size["detail_share"]))
        for i, column in enumerate(detailed):
            name = column["column_name"]
            kind = i % 5
            if kind == 0:
                # Clarification: the question's own facts are never committed.
                say("seeker", f"What do you mean by {name}? Is it in km2?", "clarification",
                    {"column_name": name, "description": f"{name} in km2"})
                say("provider", f"It is the {column['description']}.")
                say("seeker", "I see", "implicit",
                    {"column_name": _synonym(rng, name), "description": column["description"]})
            elif kind == 1:
                # Conflicting detail, then the provider's correction.
                wrong = column["max_value"] + rng.randrange(1, 100)
                say("provider", f"The {name} ranges from {column['min_value']} to {wrong}.")
                say("seeker", "thanks", "explicit",
                    {"column_name": name, "min_value": column["min_value"], "max_value": wrong})
                say("provider", f"Correction: the maximum of {name} is {column['max_value']}.")
                say("seeker", "ok, good to know", "explicit",
                    {"column_name": name, "min_value": column["min_value"],
                     "max_value": column["max_value"]})
            else:
                syn = _synonym(rng, name)
                say("seeker", f"And the {syn}?")
                say("provider", f"The {syn} ranges from {column['min_value']} to "
                    f"{column['max_value']} with {column['distinct_count']} distinct values, "
                    f"e.g. {', '.join(column['values'])}.")
                say("seeker", "great!", "explicit", {"column_info": [{
                    "column_name": syn,
                    "values": column["values"],
                    "distinct_count": column["distinct_count"],
                    "min_value": column["min_value"],
                    "max_value": column["max_value"],
                }]})
        corpus.append(_corpus_record(dialogue_id, table["table_domain"], turns))
        expected[dialogue_id] = {"columns": names, "row_count": rows, "turns": len(turns)}
        total_turns += len(turns)

    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "gold.jsonl", gold)
    _write_json(out / "expected.json", {"dialogues": expected})
    return {
        "argv": [
            "ground", "--corpus", str(out / "corpus.jsonl"),
            "--gold", str(out / "gold.jsonl"), "--out", str(out / "trace.jsonl"),
        ],
        "output": str(out / "trace.jsonl"),
        "turns": total_turns,
        "shape": {**size, "gold_annotations": len(gold)},
    }


# ---------------------------------------------------------------------------
# evaluate_judge
# ---------------------------------------------------------------------------

def _near_miss_values(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Two lists of n values, n - 1 of them one repeated value, that differ
    only in the last value: not equivalent. The order is kept, because the
    backtracking judge then tries all (n - 1)! pairings of the repeats before
    it fails, and a shuffle would make the cost vary from seed to seed."""
    repeated, last, other = _value_words(rng, 3)
    return [repeated] * (n - 1) + [last], [repeated] * (n - 1) + [other]


def _variant(rng: random.Random, value: str) -> str:
    """The same value as a model might print it; equivalent terms."""
    return rng.choice((value, value.title(), value.upper(), f"{value}."))


def _gen_evaluate(rng: random.Random, size: dict[str, Any], out: Path) -> dict[str, Any]:
    kinds = (
        [("match", size["matching_sizes"][i % len(size["matching_sizes"])])
         for i in range(size["matching"])]
        + [("near_miss", size["near_miss_sizes"][i % len(size["near_miss_sizes"])])
           for i in range(size["near_miss"])]
    )
    rng.shuffle(kinds)
    per_dialogue = size["turns_per_dialogue"]
    gold_records, pred_records, planted = [], [], []
    counts = {label: [0, 0] for label in LABELS}
    k_correct = 0
    pairs = [(q, n) for q in QUALIFIERS for n in NOUNS]
    for i, (kind, n) in enumerate(kinds):
        dialogue_id = f"judge{i // per_dialogue:03d}"
        turn = i % per_dialogue + 1
        label = LABELS[i % 3]
        correct = rng.random() < 0.75
        predicted = label if correct else rng.choice([x for x in LABELS if x != label])
        counts[label][1] += 1
        counts[label][0] += correct

        q, noun = rng.choice(pairs)
        # A second column whose tokens differ from the first's.
        q2, noun2 = rng.choice([p for p in pairs if p[0] != q and p[1] != noun])
        if kind == "match":
            gold_values = _value_words(rng, n)
            pred_values = [_variant(rng, v) for v in gold_values]
            rng.shuffle(pred_values)
        else:
            gold_values, pred_values = _near_miss_values(rng, n)
        distinct = len(set(gold_values))
        gold_k = {"column_info": [
            {"column_name": f"{q} {noun} in km2", "values": gold_values, "distinct_count": distinct},
            {"column_name": f"{q2} {noun2}", "min_value": 1, "max_value": 10 + i},
        ]}
        pred_k = {"column_info": [
            {"column_name": f"{q2} {noun2}", "min_value": 1, "max_value": 10 + i},
            {"column_name": f"{q} {noun}", "values": pred_values, "distinct_count": distinct},
        ]}
        equivalent = kind == "match"
        k_correct += equivalent
        gold_records.append({"dialogue_id": dialogue_id, "turn_index": turn,
                             "label": label, "knowledge": gold_k})
        pred_records.append({"dialogue_id": dialogue_id, "turn_index": turn,
                             "label": predicted, "knowledge": pred_k})
        planted.append([dialogue_id, turn, correct, "equivalent" if equivalent else "not_equivalent"])

    summary = ", ".join(f"{label} {c}/{t}" for label, (c, t) in counts.items())
    summary += f", knowledge {k_correct}/{len(kinds)}"
    _write_jsonl(out / "gold.jsonl", gold_records)
    _write_jsonl(out / "predictions.jsonl", pred_records)
    _write_json(out / "expected.json", {"summary": summary, "turns": planted})
    return {
        "argv": [
            "evaluate", "--gold", str(out / "gold.jsonl"),
            "--predictions", str(out / "predictions.jsonl"),
            "--out", str(out / "report.json"),
        ],
        "output": str(out / "report.json"),
        "turns": len(kinds),
        "shape": dict(size),
    }


_GENERATORS = {
    "annotate_incremental": _gen_annotate,
    "ground_wide": _gen_ground,
    "evaluate_judge": _gen_evaluate,
}


def generate(workload: str, seed: int, out_dir: Path, size: str = "full") -> dict[str, Any]:
    """Write ``workload``'s inputs for ``seed`` into ``out_dir``; return its manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = _GENERATORS[workload](rng, SIZES[size][workload], out_dir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest
