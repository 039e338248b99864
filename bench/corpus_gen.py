"""Seeded synthetic CoNLL-U corpora for the benchmark.

Trees are built by recursive interval splitting, so they are projective by
construction and cost O(n) to draw.  Tags follow a node's structural role
and words follow their tag through Zipf-like per-tag vocabularies, so a
model can learn both columns.  Every random draw comes from
`random.Random` seeded with integers; nothing that reaches the output
depends on `hash()` or set iteration order, so one seed yields the same
bytes in every process.
"""
from __future__ import annotations

import random

TAGS = ("ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "NOUN", "NUM", "PRON", "PROPN", "PUNCT", "VERB")

# Tag preferences by structural role: (has dependents, side of its head).
_ROLE_TAGS = {
    "root": (("VERB", 0.85), ("AUX", 0.1), ("NOUN", 0.05)),
    (True, "left"): (("NOUN", 0.6), ("PROPN", 0.2), ("PRON", 0.1), ("VERB", 0.1)),
    (True, "right"): (("NOUN", 0.5), ("VERB", 0.3), ("PROPN", 0.1), ("ADJ", 0.1)),
    (False, "left"): (("DET", 0.35), ("ADJ", 0.25), ("PRON", 0.15), ("ADV", 0.1), ("CCONJ", 0.1), ("AUX", 0.05)),
    (False, "right"): (("NOUN", 0.3), ("PUNCT", 0.25), ("ADP", 0.15), ("NUM", 0.15), ("ADV", 0.15)),
}

_ONSETS = ("b", "br", "ch", "d", "f", "g", "gl", "h", "k", "l", "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "s", "r", "l", "t", "nd", "st")

AMBIGUOUS_SHARE = 0.08  # tokens whose form is borrowed from another tag's vocabulary
TYPES_PER_TAG, ZIPF_S = 120, 1.1


class Lexicon:
    """Per-tag Zipf vocabularies with distinct, pronounceable forms."""

    def __init__(self, seed: int):
        rng = random.Random(seed * 7919 + 17)
        taken: dict[str, str] = {}
        self.forms: dict[str, list[str]] = {}
        for tag in TAGS:
            forms = []
            while len(forms) < TYPES_PER_TAG:
                syllables = rng.randint(1, 3)
                form = "".join(
                    rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                    for _ in range(syllables)
                )
                if form not in taken:
                    taken[form] = tag
                    forms.append(form)
            self.forms[tag] = forms
        weights = [1.0 / (r + 1) ** ZIPF_S for r in range(TYPES_PER_TAG)]
        total = sum(weights)
        self.cum_weights = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cum_weights.append(acc)

    def word(self, tag: str, rng: random.Random) -> str:
        if rng.random() < AMBIGUOUS_SHARE:
            tag = TAGS[rng.randrange(len(TAGS))]
        forms = self.forms[tag]
        return rng.choices(forms, cum_weights=self.cum_weights, k=1)[0]


def projective_heads(n: int, rng: random.Random) -> list[int]:
    """Heads of a random projective tree over words 1..n, rooted at 0.

    Each interval picks its head, then cuts the words on either side of it
    into consecutive chunks that become the head's dependent subtrees.
    """
    heads = [0] * (n + 1)
    work = [(1, n, 0)]
    while work:
        lo, hi, parent = work.pop()
        h = rng.randint(lo, hi)
        heads[h] = parent
        for a, b in ((lo, h - 1), (h + 1, hi)):
            while a <= b:
                # Short chunks keep trees bushy, with mostly local arcs.
                size = min(b - a + 1, 1 + int(rng.expovariate(0.35)))
                work.append((a, a + size - 1, h))
                a += size
    return heads[1:]


def arcs_cross(heads: list[int]) -> bool:
    arcs = sorted((min(h, d), max(h, d)) for d, h in enumerate(heads, start=1))
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if c >= b:
                break
            if a < c < b < d:
                return True
    return False


def _descends_from(heads: list[int], node: int, ancestor: int) -> bool:
    while node != 0:
        if node == ancestor:
            return True
        node = heads[node - 1]
    return False


def make_nonprojective(heads: list[int], rng: random.Random) -> list[int] | None:
    """Reattach one non-root word so that two arcs cross; None if no try works."""
    n = len(heads)
    for _ in range(20):
        d = rng.randint(1, n)
        if heads[d - 1] == 0:
            continue
        h = rng.randint(1, n)
        if h == d or h == heads[d - 1] or _descends_from(heads, h, d):
            continue
        trial = list(heads)
        trial[d - 1] = h
        if arcs_cross(trial):
            return trial
    return None


def _tags_for(heads: list[int], rng: random.Random) -> list[str]:
    has_deps = [False] * (len(heads) + 1)
    for h in heads:
        has_deps[h] = True
    tags = []
    for d, h in enumerate(heads, start=1):
        role = "root" if h == 0 else (has_deps[d], "left" if d < h else "right")
        choices = _ROLE_TAGS[role]
        tags.append(rng.choices([t for t, _ in choices], weights=[w for _, w in choices], k=1)[0])
    return tags


def stratified_lengths(count: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """`count` lengths spread evenly over [lo, hi], in seeded order.

    The multiset of lengths is the same for every seed, so run-to-run
    spread comes from sentence content, not from a lucky draw of lengths.
    """
    lengths = [lo + int((hi - lo + 1) * (i + 0.5) / count) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def to_conllu(words, tags, heads) -> str:
    return "\n".join(
        f"{i}\t{w}\t_\t{t}\t_\t_\t{h}\t_\t_\t_"
        for i, (w, t, h) in enumerate(zip(words, tags, heads), start=1)
    )


def generate(seed: int, stream: int, count: int, lo: int, hi: int, lexicon: Lexicon,
             nonprojective_share: float = 0.0) -> str:
    """CoNLL-U text of `count` sentences of lo..hi words.

    `stream` separates the corpora one workload draws from the same seed
    (train, dev, decode inputs); `lexicon` is shared across streams so that
    dev words are seen in training.
    """
    rng = random.Random(seed * 1_000_003 + stream)
    blocks = []
    for n in stratified_lengths(count, lo, hi, rng):
        heads = projective_heads(n, rng)
        tags = _tags_for(heads, rng)
        if nonprojective_share and n >= 4 and rng.random() < nonprojective_share:
            heads = make_nonprojective(heads, rng) or heads
        words = [lexicon.word(t, rng) for t in tags]
        blocks.append(to_conllu(words, tags, heads))
    return "\n\n".join(blocks) + "\n"
