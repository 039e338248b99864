"""CoNLL-U ingestion, validation, projectivity checks and corpus splitting."""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

UNK_TAG = "<unk>"


class ConlluError(ValueError):
    """Malformed CoNLL-U input, carrying the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class ValidationError(ValueError):
    """Structurally invalid sentence (bad ids, bad heads, not a tree)."""


@dataclass(frozen=True)
class Token:
    id: int          # 1-based position in the sentence
    form: str
    upos: str        # UNK_TAG when the source column was "_"
    head: int        # 0 means the root


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)

    def form(self, i: int) -> str:
        return self.tokens[i - 1].form

    def upos(self, i: int) -> str:
        return self.tokens[i - 1].upos

    def head(self, i: int) -> int:
        return self.tokens[i - 1].head

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.upos for t in self.tokens)

    @property
    def heads(self) -> tuple[int, ...]:
        return tuple(t.head for t in self.tokens)

    def with_annotations(self, upos=None, heads=None) -> "Sentence":
        """Copy of the sentence with replaced UPOS and/or HEAD columns."""
        tokens = []
        for t in self.tokens:
            u = t.upos if upos is None else upos[t.id - 1]
            h = t.head if heads is None else heads[t.id - 1]
            tokens.append(replace(t, upos=u, head=h))
        return Sentence(tuple(tokens))


@dataclass(frozen=True)
class CorpusSplit:
    fold_id: int
    train_idx: tuple[int, ...]
    dev_idx: tuple[int, ...]
    test_idx: tuple[int, ...]

    def materialize(self, corpus):
        train = [corpus[i] for i in self.train_idx]
        dev = [corpus[i] for i in self.dev_idx]
        test = [corpus[i] for i in self.test_idx]
        return train, dev, test


def _is_skipped_id(field: str) -> bool:
    """A multiword-token range (`1-2`) or an empty node (`1.1`)."""
    for sep in "-.":
        first, found, second = field.partition(sep)
        if found and first.isdecimal() and second.isdecimal():
            return True
    return False


def parse_conllu(text: str, single_root: bool = True) -> list[Sentence]:
    """Parse 10-column CoNLL-U text into validated sentences.

    Comments, multiword-token ranges and empty nodes are skipped.  Only the
    ID, FORM, UPOS and HEAD columns are retained.  With `single_root`
    false a sentence may attach several tokens to the root, as decoded
    trees can; cycles and bad heads are still refused.
    """
    sentences = []
    pending: list[Token] = []
    pending_line = 0

    def flush():
        if pending:
            sentences.append(_validate(tuple(pending), pending_line, single_root))
            pending.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluError(line_no, f"expected 10 columns, got {len(fields)}")
        if not fields[0].isdecimal():
            if _is_skipped_id(fields[0]):
                continue
            raise ConlluError(line_no, f"malformed ID {fields[0]!r}")
        if not fields[6].isdecimal():
            raise ConlluError(line_no, f"non-integer HEAD {fields[6]!r}")
        if not fields[1]:
            raise ConlluError(line_no, "empty FORM")
        upos = fields[3] if fields[3] != "_" else UNK_TAG
        if not pending:
            pending_line = line_no
        pending.append(Token(id=int(fields[0]), form=fields[1], upos=upos, head=int(fields[6])))
    flush()
    return sentences


def _validate(tokens: tuple[Token, ...], line_no: int, single_root: bool) -> Sentence:
    n = len(tokens)
    for i, t in enumerate(tokens, start=1):
        if t.id != i:
            raise ValidationError(
                f"block at line {line_no}: ids not contiguous (expected {i}, got {t.id})"
            )
        if not 0 <= t.head <= n:
            raise ValidationError(
                f"block at line {line_no}: head {t.head} of token {t.id} out of range [0, {n}]"
            )
        if t.head == t.id:
            raise ValidationError(f"block at line {line_no}: token {t.id} is its own head")
    _check_tree(tokens, line_no, single_root)
    return Sentence(tokens)


def _check_tree(tokens, line_no, single_root):
    # Every token must reach the root (0) without revisiting a node.  Tokens
    # are walked in id order, and a walk stops at the first node that an
    # earlier walk showed to reach the root, so each node is stepped on
    # once; the error names the first token whose walk fails.
    n = len(tokens)
    head = [0] + [t.head for t in tokens]
    roots = head.count(0) - 1
    if single_root and n > 0 and roots != 1:
        raise ValidationError(f"block at line {line_no}: {roots} root-attached tokens, expected 1")
    # Per node: ROOTED once it is known to reach the root, else the token
    # whose walk stepped on it, or 0 before any has.
    ROOTED = -1
    mark = [ROOTED] + [0] * n
    for start in range(1, n + 1):
        cur = start
        while mark[cur] == 0:
            mark[cur] = start
            cur = head[cur]
        if mark[cur] == start:
            raise ValidationError(f"block at line {line_no}: cycle through token {start}")
        cur = start
        while mark[cur] == start:
            mark[cur] = ROOTED
            cur = head[cur]


def serialize(sentences) -> str:
    """Render sentences back to CoNLL-U; unknown tags become "_"."""
    blocks = []
    for s in sentences:
        lines = []
        for t in s.tokens:
            upos = "_" if t.upos == UNK_TAG else t.upos
            lines.append(
                "\t".join(
                    [str(t.id), t.form, "_", upos, "_", "_", str(t.head), "_", "_", "_"]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def is_projective(s: Sentence) -> bool:
    """True iff no two gold arcs cross, with the root drawn at position 0."""
    arcs = [(min(t.head, t.id), max(t.head, t.id)) for t in s.tokens]
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


def kfold_split(corpus, folds: int, seed: int, proportions=(0.8, 0.1, 0.1)):
    """Shuffle once, then build one train/dev/test split per fold.

    Test sets are the `folds` contiguous slices of the shuffled order, so
    their union covers the corpus exactly once.  The dev set size follows
    the dev proportion; train takes the remainder.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(corpus) < folds:
        raise ValueError(f"corpus of {len(corpus)} sentences is smaller than {folds} folds")
    if abs(sum(proportions) - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")

    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    n = len(order)
    bounds = [round(i * n / folds) for i in range(folds + 1)]
    dev_size = round(n * proportions[1])

    splits = []
    for fold in range(folds):
        test = order[bounds[fold] : bounds[fold + 1]]
        rest = order[bounds[fold + 1] :] + order[: bounds[fold]]
        dev = rest[:dev_size]
        train = rest[dev_size:]
        splits.append(
            CorpusSplit(
                fold_id=fold,
                train_idx=tuple(train),
                dev_idx=tuple(dev),
                test_idx=tuple(test),
            )
        )
    return splits


def save_split_manifest(path, splits) -> None:
    data = [
        {
            "fold_id": s.fold_id,
            "train": list(s.train_idx),
            "dev": list(s.dev_idx),
            "test": list(s.test_idx),
        }
        for s in splits
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)


def load_split_manifest(path) -> list[CorpusSplit]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return [
        CorpusSplit(
            fold_id=d["fold_id"],
            train_idx=tuple(d["train"]),
            dev_idx=tuple(d["dev"]),
            test_idx=tuple(d["test"]),
        )
        for d in data
    ]
