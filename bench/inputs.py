"""Seeded inputs for the benchmark workloads, and the stub server's model.

The benchmark owns its inputs: the vocabulary below is the keyword-corpus
vocabulary, copied here so that a change to the program's own corpus
generator cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import json
import random

POSITIVE = ("good", "great", "sweet", "solid", "fun")
NEGATIVE = ("bad", "awful", "sour", "weak", "dull")
FILLER = (
    "the", "movie", "plot", "story", "it", "was", "felt", "very",
    "quite", "really", "rather", "overall", "acting", "scene", "script", "pace",
)

TRAIN_RECORDS = 500

# Long sentences carry one keyword per ~18 characters. The classifier then
# has a margin that ten edits cannot overturn, so every long record runs the
# full k=10 greedy iterations and its work is fixed by its length alone.
LONG_CHARS = 256
LONG_KEYWORDS_PER_CHAR = 14 / 256


def desk_sentence(rng: random.Random, label: int) -> str:
    """A keyword-corpus sentence: 3-6 filler words and one class keyword."""
    words = [rng.choice(FILLER) for _ in range(rng.randint(3, 6))]
    words.insert(rng.randint(0, len(words)), rng.choice(POSITIVE if label else NEGATIVE))
    return " ".join(words)


def long_sentence(rng: random.Random, label: int, chars: int = LONG_CHARS) -> str:
    """Filler words and class keywords, as long as fits in ``chars``."""
    keywords = max(1, round(chars * LONG_KEYWORDS_PER_CHAR))
    words = [rng.choice(POSITIVE if label else NEGATIVE) for _ in range(keywords)]
    while True:
        word = rng.choice(FILLER)
        if len(" ".join(words)) + 1 + len(word) > chars:
            return " ".join(words)
        words.insert(rng.randint(0, len(words)), word)


def make_records(kind: str, seed: int, part: str, n: int, chars: int = LONG_CHARS) -> list[dict]:
    """``n`` records with alternating labels, fixed by (kind, seed, part)."""
    rng = random.Random(f"{kind}:{seed}:{part}")
    out = []
    for i in range(n):
        label = i % 2
        text = desk_sentence(rng, label) if kind == "desk" else long_sentence(rng, label, chars)
        out.append({"id": f"{part}-{i}", "text": text, "label": label})
    return out


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def keyword_scores(text: str) -> list[float]:
    """The stub's model: per class, how many of its keywords the text holds."""
    return [
        float(sum(text.count(k) for k in NEGATIVE)),
        float(sum(text.count(k) for k in POSITIVE)),
    ]
