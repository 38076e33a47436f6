"""Time ``request_hash`` on synthetic dialogues, with the built-in SHA-256 and with hashlib.

Builds ``--dialogues`` seeded dialogues of ``--turns`` turns, with one
transcript each, as ``annotate --all-turns --incremental-kb`` does: every turn
makes a classification request and an extraction request whose knowledge-base
JSON changes every ``--kb-every`` turns. Turn texts hold quotes, backslashes,
newlines and characters that are not ASCII, so that JSON escapes them.

Prints how many MB are hashed and characters escaped (and how many of those
come from extraction requests right after a knowledge-base change, which
escape the whole history again), how long escaping them takes, and the
milliseconds of hashing every request, the least of ``--repeats`` runs (on
a shared host, the one that other processes slowed least), once with the
interpreter's built-in SHA-256 module and once with it hidden so that
hashlib (OpenSSL) is used. Each is timed in its own subprocess, which
also reports whether it loaded OpenSSL. Exits 1 if any digest differs from
the SHA-256 of the request's canonical JSON body.

Uses no module of the repository but ``convground``, so any version's
``src`` can be timed:

    python scripts/hash_sweep.py --src src
    python scripts/hash_sweep.py --src ../parent/src --dialogues 40 --turns 50
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

WORDS = (
    "table", "row", "column", "year", "city", "total", "area", "naïve", "données",
    "数据", "price", 'the "best"', "back\\slash", "rank", "count", "emoji 🙂",
)
MODULES = ("built-in", "hashlib")


def _dialogue(rng: random.Random, index: int, turns: int, kb_every: int):
    """Turn texts, and the knowledge-base JSON each turn's extraction request holds."""
    texts, kbs, columns = [], [], []
    for turn in range(1, turns + 1):
        words = rng.choices(WORDS, k=rng.randint(8, 30))
        if rng.random() < 0.2:
            words.insert(rng.randrange(len(words)), "\n")
        texts.append(" ".join(words))
        if turn % kb_every == 0:
            columns.append({"column_name": f"{rng.choice(WORDS)} {len(columns)}",
                            "values": rng.sample(WORDS, 3), "max_value": rng.randint(1, 99)})
        kbs.append(json.dumps({"table_domain": f"domain {index}", "row_count": turn // kb_every,
                               "column_info": columns}, ensure_ascii=False))
    return texts, kbs


def _requests(args: argparse.Namespace):
    """Per dialogue, its requests in order, each with whether its knowledge
    base differs from the one of the dialogue's previous extraction request."""
    from convground import CompletionRequest
    from convground.dialogue import Role, Turn
    from convground.prompts import Transcript, build_classification_prompt, build_extraction_prompt

    rng = random.Random(args.seed)
    dialogues = []
    for d in range(args.dialogues):
        texts, kbs = _dialogue(rng, d, args.turns, args.kb_every)
        turns = [Turn(i, Role.SEEKER if i % 2 else Role.PROVIDER, text)
                 for i, text in enumerate(texts, start=1)]
        transcript, requests = Transcript(), []
        for t in range(1, args.turns + 1):
            history = turns[:t]
            requests.append((CompletionRequest(
                messages=tuple(build_classification_prompt(history, transcript))), False))
            requests.append((CompletionRequest(
                messages=tuple(build_extraction_prompt(history, kbs[t - 1], transcript))),
                t > 1 and kbs[t - 1] != kbs[t - 2]))
        dialogues.append(requests)
    return dialogues


def _hash_all(dialogues) -> list[str]:
    from convground.llm import request_hash
    from convground.prompts import Transcript

    digests = []
    for requests in dialogues:
        transcript = Transcript()
        digests += [request_hash(request, transcript) for request, _ in requests]
    return digests


def _child(args: argparse.Namespace) -> None:
    """Time hashing every request; print one JSON line."""
    if args.child == "hashlib":
        sys.modules["_sha2"] = sys.modules["_sha256"] = None  # type: ignore[assignment]
    dialogues = _requests(args)
    times, digests = [], []
    for _ in range(args.repeats):
        start = time.perf_counter()
        digests = _hash_all(dialogues)
        times.append((time.perf_counter() - start) * 1000)
    print(json.dumps({"ms": min(times), "openssl": "_hashlib" in sys.modules,
                      "digests": digests}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose convground package is timed")
    parser.add_argument("--dialogues", type=int, default=40)
    parser.add_argument("--turns", type=int, default=50)
    parser.add_argument("--kb-every", type=int, default=3,
                        help="turns between two changes of the knowledge base")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", choices=MODULES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    if args.child:
        _child(args)
        return 0

    import hashlib

    # Count what one pass escapes and hashes, with hashlib wrapped.
    escape = json.encoder.encode_basestring
    escaped: list[str] = []
    counts = {"hashed": 0, "escaped": 0}
    real_sha256 = hashlib.sha256

    class Counting:
        def __init__(self, data: bytes = b"", state=None):
            self.state = state or real_sha256()
            self.update(data)

        def update(self, data: bytes) -> None:
            counts["hashed"] += len(data)
            self.state.update(data)

        def copy(self) -> "Counting":
            return Counting(state=self.state.copy())

        def hexdigest(self) -> str:
            return self.state.hexdigest()

    def counting_escape(text: str) -> str:
        escaped.append(text)
        counts["escaped"] += len(text)
        return escape(text)

    sys.modules["_sha2"] = sys.modules["_sha256"] = None  # type: ignore[assignment]
    hashlib.sha256 = Counting  # type: ignore[assignment]
    dialogues = _requests(args)
    from convground.llm import request_hash
    from convground.prompts import Transcript

    after_change = 0
    json.encoder.encode_basestring = counting_escape
    try:
        for requests in dialogues:
            transcript = Transcript()
            for request, changed in requests:
                before = counts["escaped"]
                request_hash(request, transcript)
                if changed:
                    after_change += counts["escaped"] - before
    finally:
        json.encoder.encode_basestring = escape
        hashlib.sha256 = real_sha256
    expected = [
        real_sha256(json.dumps(request.wire_body(), sort_keys=True, ensure_ascii=False)
                    .encode("utf-8")).hexdigest()
        for requests in dialogues for request, _ in requests
    ]
    escape_times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        for text in escaped:
            escape(text).encode("utf-8")
        escape_times.append((time.perf_counter() - start) * 1000)
    total_escaped = counts["escaped"]
    print(f"{len(expected)} requests; {counts['hashed'] / 1e6:.2f} MB hashed; "
          f"{total_escaped:,} characters escaped, {after_change:,} "
          f"({100 * after_change / max(total_escaped, 1):.0f} %) right after a "
          f"knowledge-base change; escaping takes {min(escape_times):.1f} ms")

    status = 0
    print(f"{'sha-256':>8}  {'openssl':>7}  {'ms':>8}")
    for module in MODULES:
        out = subprocess.run(
            [sys.executable, __file__, "--child", module, "--src", str(args.src),
             "--dialogues", str(args.dialogues), "--turns", str(args.turns),
             "--kb-every", str(args.kb_every), "--seed", str(args.seed),
             "--repeats", str(args.repeats)],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        wrong = sum(a != b for a, b in zip(result["digests"], expected))
        wrong += abs(len(result["digests"]) - len(expected))
        print(f"{module:>8}  {'yes' if result['openssl'] else 'no':>7}  {result['ms']:>8.1f}"
              + (f"  {wrong} WRONG DIGESTS" if wrong else ""))
        status |= bool(wrong)
    return status


if __name__ == "__main__":
    sys.exit(main())
