"""Configuration features and the multi-head Q-network.

Features are symbol ids drawn from small embedding spaces (words, tags,
letters, actions, plus the undo-allowed flag).  The network is a single
hidden layer with dropout and ReLU feeding one linear decision head per
task; forward and backward passes are plain numpy.
"""
from __future__ import annotations

import itertools
import json
import math
import mmap
import numbers
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Sentence, UNK_TAG
from .machine import (
    BACK,
    BACK_STATE,
    KINDS,
    LEFT,
    NOBACK,
    PARSER,
    POS_STATE,
    REDUCE,
    RIGHT,
    SHIFT,
    TAGGER,
    Action,
    Configuration,
    EMPTY,
    ERASED,
    Machine,
)

# Shared unavailability symbols; every space reserves these first rows.
UNK = "<unk>"
PAD = "<pad>"
OUT_OF_BOUNDS = "<oob>"
EMPTY_STACK = "<empty-stack>"
NO_DEP_GOV = "<no-dep-gov>"
NOT_SEEN = "<not-seen>"
ERASED_SYM = "<erased>"
SPECIALS = (UNK, PAD, OUT_OF_BOUNDS, EMPTY_STACK, NO_DEP_GOV, NOT_SEEN, ERASED_SYM)

SPACES = ("word", "pos", "letter", "action", "flag")

HEAD_TAG = "tag"
HEAD_PARSE = "parse"
HEAD_BACK = "back"

PARSE_ACTIONS = (LEFT, RIGHT, REDUCE, SHIFT)
BACK_ACTIONS = (NOBACK, BACK)

WINDOW = (-2, -1, 0, 1, 2)
STACK_DEPTH = 3
HISTORY_LEN = 10
AFFIX_LEN = 4


class Vocab:
    """Symbol table; unknown symbols map to the shared UNK id."""

    def __init__(self, symbols=()):
        self.symbols = SPECIALS + tuple(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}

    def id(self, symbol) -> int:
        return self.index.get(symbol, 0)

    def __len__(self):
        return len(self.symbols)


def tag_inventory(sentences) -> tuple[str, ...]:
    """Tag set observed in training data; UNK_TAG is always a member."""
    tags = sorted({t.upos for s in sentences for t in s.tokens} - {UNK_TAG})
    return (UNK_TAG,) + tuple(tags)


def build_vocabs(sentences, tags: tuple[str, ...]) -> dict[str, Vocab]:
    forms = sorted({t.form for s in sentences for t in s.tokens})
    letters = sorted({ch for f in forms for ch in f})
    pos_symbols = tuple(t for t in tags if t != UNK_TAG)
    actions = ["noback", "back", "left", "right", "reduce", "shift"]
    actions += [f"tag:{t}" for t in tags]
    return {
        "word": Vocab(forms),
        "pos": Vocab(pos_symbols),
        "letter": Vocab(letters),
        "action": Vocab(actions),
        "flag": Vocab(("0", "1")),
    }


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """Plain-text vectors, one `word v1 .. vD` line each, fields split on
    any whitespace; a leading `count dim` header line is tolerated if dim
    is D.  A row that is not a word and D finite numbers raises ValueError
    at path:line, a header with another dim at path:1, and a file with no
    vector rows, or that is not UTF-8 text, at path."""
    vectors = {}
    dim = header_dim = None  # header_dim: the header's dim field, as written
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                parts = line.split()
                if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                    header_dim = parts[1]
                    continue
                if not parts:
                    continue
                try:
                    with np.errstate(over="ignore"):  # too large for float32: inf, refused below
                        vec = np.asarray(parts[1:], dtype=np.float32)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
                dim = len(vec) if dim is None else dim
                if len(vec) == 0 or len(vec) != dim or not np.isfinite(vec).all():
                    raise ValueError(f"{path}:{lineno}: expected a word and {dim or 'some'} finite numbers")
                if header_dim is not None and float(header_dim) != dim:  # float: no digit limit
                    raise ValueError(f"{path}:1: header declares dim {header_dim}, but rows hold {dim} numbers")
                vectors[parts[0]] = vec
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not vectors:
        raise ValueError(f"{path}: holds no word vectors")
    return vectors


def slot_layout(kind: str) -> tuple[tuple[str, str], ...]:
    slots = [("pos", f"w{d:+d}.pos") for d in WINDOW]
    slots += [("word", f"w{d:+d}.form") for d in WINDOW]
    if kind != TAGGER:
        for r in range(1, STACK_DEPTH + 1):
            slots += [
                ("pos", f"s{r}.gov.pos"),
                ("pos", f"s{r}.ldep.pos"),
                ("pos", f"s{r}.rdep.pos"),
            ]
    slots += [("action", f"hist{i}") for i in range(1, HISTORY_LEN + 1)]
    slots += [("letter", f"prefix{i}") for i in range(1, AFFIX_LEN + 1)]
    slots += [("letter", f"suffix{i}") for i in range(1, AFFIX_LEN + 1)]
    slots.append(("flag", "back_allowed"))
    return tuple(slots)


class FeatureExtractor:
    """Maps a configuration to one symbol id per slot."""

    def __init__(self, kind: str, vocabs: dict[str, Vocab]):
        self.kind = kind
        self.vocabs = vocabs
        self.layout = slot_layout(kind)
        # Special-symbol ids, resolved once.  They are looked up rather than
        # taken from SPECIALS' order: a corpus symbol spelled like a special
        # shadows it in its vocabulary.
        pos_v, word_v, letter_v = vocabs["pos"], vocabs["word"], vocabs["letter"]
        self._pos_oob = pos_v.id(OUT_OF_BOUNDS)
        self._pos_not_seen = pos_v.id(NOT_SEEN)
        self._pos_erased = pos_v.id(ERASED_SYM)
        self._pos_no_dep = pos_v.id(NO_DEP_GOV)
        self._pos_empty_stack = pos_v.id(EMPTY_STACK)
        self._word_oob = word_v.id(OUT_OF_BOUNDS)
        self._word_not_seen = word_v.id(NOT_SEEN)
        self._letter_oob = letter_v.id(OUT_OF_BOUNDS)
        self._letter_pad = letter_v.id(PAD)
        self._action_pad = vocabs["action"].id(PAD)
        self._flag = (vocabs["flag"].id("0"), vocabs["flag"].id("1"))
        self._pos_index = pos_v.index
        self._sentence_ids = None
        self._last = None

    def extract(self, c: Configuration, s: Sentence, machine: Machine) -> np.ndarray:
        """The ids of c's features.  Configurations are immutable, so the
        ids of the one last asked about are returned again, not recomputed:
        online Q-learning scores a successor for its TD target and then
        acts from it and updates on it.  Callers must not write to the ids.
        (Marking them read-only made desk-scale decoding about 10% slower.)"""
        last = self._last
        if last is not None and last[0] is c and last[1] is s and last[2] is machine:
            return last[3]
        ids = self._extract(c, s, machine)
        self._last = (c, s, machine, ids)
        return ids

    def _extract(self, c: Configuration, s: Sentence, machine: Machine) -> np.ndarray:
        tokens = s.tokens
        wi, n, frontier = c.word_index, len(tokens), c.frontier
        pos_feature = self._pos_feature
        ids = [pos_feature(c, tokens, wi + d) for d in WINDOW]

        word_ids, affix_ids = self._token_ids(s)
        for d in WINDOW:
            p = wi + d
            if p < 1 or p > n:
                ids.append(self._word_oob)
            elif p > frontier:
                ids.append(self._word_not_seen)
            else:
                ids.append(word_ids[p - 1])

        if self.kind != TAGGER:
            stack, tape = c.stack, c.gov_tape
            # Every governor cell the machine writes belongs to a word left of
            # the frontier, which never moves left, so the cells from the
            # frontier on are EMPTY and hold no dependent.
            written = tape[: frontier - 1]
            no_dep = self._pos_no_dep
            reverse = None
            for r in range(STACK_DEPTH):
                if r >= len(stack):
                    ids += [self._pos_empty_stack] * 3
                    continue
                e = stack[-1 - r]
                gov = tape[e - 1]
                if gov is ERASED:
                    ids.append(self._pos_erased)
                elif gov is EMPTY or gov == 0:
                    ids.append(no_dep)
                else:
                    ids.append(pos_feature(c, tokens, gov))
                # The dependents of e are the cells equal to e.  Since e >= 1
                # and neither EMPTY nor ERASED equals an int, the tuple's own
                # search finds exactly them: its first hit is the leftmost,
                # the first hit in the reversed cells the rightmost.
                if e in written:
                    if reverse is None:
                        reverse = written[::-1]
                    ids.append(pos_feature(c, tokens, written.index(e) + 1))
                    ids.append(pos_feature(c, tokens, len(written) - reverse.index(e)))
                else:
                    ids += [no_dep, no_dep]

        action = self.vocabs["action"].index.get
        node = c  # the last HISTORY_LEN actions, newest first, then padding
        for _ in range(HISTORY_LEN):
            if node.entry is None:
                ids.append(self._action_pad)
            else:
                ids.append(action(node.entry.action.symbol, 0))
                node = node.prev

        if wi > n:
            ids += [self._letter_oob] * (2 * AFFIX_LEN)
        else:
            ids += affix_ids[wi - 1]

        ids.append(self._flag[machine.back_allowed(c)])
        return np.fromiter(ids, np.int64, len(ids))

    def _token_ids(self, s: Sentence):
        """Each token's word id and its prefix+suffix letter ids.  They do
        not depend on the configuration, so they are computed once for the
        sentence last asked about."""
        memo = self._sentence_ids
        if memo is None or memo[0] is not s:
            word = self.vocabs["word"].index.get
            letter = self.vocabs["letter"].index.get
            pad = [self._letter_pad] * AFFIX_LEN
            word_ids, affix_ids = [], []
            for t in s.tokens:
                prefix = [letter(ch, 0) for ch in t.form[:AFFIX_LEN]]
                suffix = [letter(ch, 0) for ch in t.form[-AFFIX_LEN:]]
                word_ids.append(word(t.form, 0))
                # a short word pads its prefix on the right, its suffix on the left
                affix_ids.append(prefix + pad[len(prefix):] + pad[len(suffix):] + suffix)
            memo = self._sentence_ids = (s, word_ids, affix_ids)
        return memo[1], memo[2]

    def _pos_feature(self, c, tokens, p) -> int:
        if p < 1 or p > len(tokens):
            return self._pos_oob
        if p > c.frontier:
            return self._pos_not_seen
        if self.kind == PARSER:
            return self._pos_index.get(tokens[p - 1].upos, 0)
        cell = c.pos_tape[p - 1]
        if cell is ERASED:
            return self._pos_erased
        if cell is EMPTY:
            return self._pos_not_seen  # value still pending at or past wi
        return self._pos_index.get(cell, 0)


# ----------------------------------------------------------------------
# losses


def smooth_l1(pred: float, target: float):
    """Loss and d(loss)/d(pred); quadratic inside the unit, linear outside."""
    d = float(pred) - float(target)
    if abs(d) < 1.0:
        return 0.5 * d * d, d
    return abs(d) - 0.5, (1.0 if d > 0 else -1.0)


def cross_entropy(logits: np.ndarray, gold: int):
    shifted = logits - np.max(logits)
    exps = np.exp(shifted)
    probs = exps / exps.sum()
    loss = -float(np.log(max(probs[gold], 1e-30)))
    dlogits = probs.copy()
    dlogits[gold] -= 1.0
    return loss, dlogits


def q_target(reward: float, next_qs, gamma: float) -> float:
    """Bellman target: reward plus the discounted best continuation, or the
    bare reward when the successor configuration is terminal."""
    if next_qs is None or len(next_qs) == 0:
        return float(reward)
    return float(reward) + gamma * float(np.max(next_qs))


# ----------------------------------------------------------------------
# network

# Elements of w1 in one block of a fold (see _fold): 512 KB of float32, so
# that a block and the buffer its share of the fold is made in fit together
# in a 2 MB L2 cache; 40 rows of a paper-size w1 (hidden 3200).  Each
# element of a fold is one dot product over the pending pairs: with
# OpenBLAS, blocks of 7 to 81 rows gave the bits of one GEMM over all of w1.
BLOCK_ELEMS = 1 << 17
# The factor pairs a network holds before it folds them into w1.  At paper
# size (one BLAS thread, a shared 2-core VM) a fold of 32 pairs took 25 ms,
# 0.8 ms per step, and the buffers take 1.1 MB; 16 pairs cost 1.1 ms per
# step, and 48 saved under 0.1 ms per step once the larger corrections in
# forward and dx are counted.
DEFER_RANK = 32


@dataclass
class Grads:
    """The gradient of the loss of B examples, every factor stored once:
    ids (B, slots), the network inputs x (B, input), the hidden deltas dh
    (B, hidden), the input dropout masks (B, input) or None without
    dropout, and each head's dense (w, b) gradient, summed in example
    order.  The w1 gradient is x.T @ dh and the b1 gradient the sum of dh's
    rows.  Example b adds dx[b, lo:hi] to row ids[b, slot] of each slot's
    table, where dx[b] = (w1 @ dh[b]) * mask[b]; apply_grads computes dx
    from w1 as it was before the update, through any pending factors."""

    ids: np.ndarray
    x: np.ndarray
    dh: np.ndarray
    mask: np.ndarray | None
    heads: dict

    @classmethod
    def join(cls, parts) -> "Grads":
        """The sum of several examples' gradients: factors stacked example
        after example, head gradients added in example order.  The examples
        were taken all with dropout or all without."""
        if len(parts) == 1:
            return parts[0]
        heads = {}
        for g in parts:
            for name, (w, b) in g.heads.items():
                if name in heads:
                    w, b = heads[name][0] + w, heads[name][1] + b
                heads[name] = (w, b)
        mask = None if parts[0].mask is None else np.concatenate([g.mask for g in parts])
        return cls(np.concatenate([g.ids for g in parts]), np.concatenate([g.x for g in parts]),
                   np.concatenate([g.dh for g in parts]), mask, heads)


def _table_views(flat: np.ndarray, shapes: dict) -> dict:
    """Row-major views of consecutive stretches of flat, one per (rows,
    width) shape, in order."""
    views, off = {}, 0
    for sp, (v, d) in shapes.items():
        views[sp] = flat[off : off + v * d].reshape(v, d)
        off += v * d
    return views


class QNetwork:
    def __init__(
        self,
        layout,
        vocab_sizes: dict[str, int],
        space_dims: dict[str, int],
        hidden: int,
        heads: dict[str, int],
        dropout: float = 0.3,
        seed: int = 0,
        dtype=np.float32,
    ):
        self._allocate(layout, vocab_sizes, space_dims, hidden, heads, dropout, dtype)
        # Random initial weights, drawn tensor by tensor in param_names order.
        rng = np.random.default_rng(seed)
        for table in self.emb.values():
            np.copyto(table, rng.normal(0.0, 0.1, table.shape))
        # w1 in blocks of rows: the same draws as one call, with no float64
        # copy of w1 (146 MB at paper scale) to fault in.
        lim = np.sqrt(6.0 / (self.input_dim + hidden))
        for a in range(0, self.input_dim, len(self._block)):
            rows = self._w1[a : a + len(self._block)]
            np.copyto(rows, rng.uniform(-lim, lim, rows.shape))
        for name in sorted(self.heads):
            w = self.heads[name][0]
            lim = np.sqrt(6.0 / (hidden + w.shape[1]))
            np.copyto(w, rng.uniform(-lim, lim, w.shape))

    @classmethod
    def _unfilled(cls, layout, vocab_sizes, space_dims, hidden, heads, dropout):
        """A float32 network whose weight matrices and embedding tables are
        allocated but hold arbitrary values, for a caller that overwrites
        every parameter (Model.load)."""
        net = cls.__new__(cls)
        net._allocate(layout, vocab_sizes, space_dims, hidden, heads, dropout, np.float32)
        return net

    def _allocate(self, layout, vocab_sizes, space_dims, hidden, heads, dropout, dtype):
        self.layout = tuple(layout)
        self.space_dims = dict(space_dims)
        self.hidden = hidden
        self.head_sizes = dict(heads)
        self.dropout = dropout
        self.dtype = dtype
        self.input_dim = sum(self.space_dims[sp] for sp, _ in self.layout)

        # Every embedding table is a row-major view into one flat buffer, so
        # apply_grads updates all of them with one scatter-subtract.
        shapes = {sp: (vocab_sizes[sp], self.space_dims[sp]) for sp in SPACES if sp in vocab_sizes}
        self._emb_flat = np.empty(sum(v * d for v, d in shapes.values()), dtype=dtype)
        self.emb = _table_views(self._emb_flat, shapes)
        row0 = dict(zip(shapes, itertools.accumulate((t.size for t in self.emb.values()), initial=0)))
        # w1 is _w1 - U V^T, with the pending factor pairs as the rows of _u
        # (step * x) and _v (dh); the buffers are made by the first update.
        self._w1 = np.empty((self.input_dim, hidden), dtype=dtype)
        self._u = self._v = None
        self._pending = 0
        self.b1 = np.zeros(hidden, dtype=dtype)
        self.heads = {
            name: [np.empty((hidden, heads[name]), dtype=dtype), np.zeros(heads[name], dtype=dtype)]
            for name in sorted(heads)
        }

        # _fold updates w1 through this buffer, one block of whole rows of
        # at most about BLOCK_ELEMS elements: at desk scale it holds all of
        # w1 and a fold is one block.
        rows = max(1, BLOCK_ELEMS // hidden)
        self._block = np.empty((min(rows, self.input_dim), hidden), dtype=dtype)

        self._offsets = []
        off = 0
        for sp, _ in self.layout:
            self._offsets.append((sp, off, off + self.space_dims[sp]))
            off += self.space_dims[sp]
        # For each element of x: its slot, the width of its slot's table and
        # the flat offset of its place in that table's row 0.  Element j of
        # an example with ids `ids` is then _emb_flat[_x_base[j] +
        # ids[_x_slot[j]] * _x_width[j]].
        widths = [hi - lo for _, lo, hi in self._offsets]
        self._x_slot = np.repeat(np.arange(len(self.layout)), widths)
        self._x_width = np.repeat(widths, widths)
        self._x_base = np.concatenate([row0[sp] + np.arange(hi - lo) for sp, lo, hi in self._offsets])
        # Maximal runs of consecutive slots in one space, as (space, first
        # slot, end slot): forward gathers each run with one take.
        self._runs = []
        start = 0
        for sp, run in itertools.groupby(sp for sp, _ in self.layout):
            end = start + len(list(run))
            self._runs.append((sp, start, end))
            start = end

        # The precomputed first layer (see precompute): one row per (slot,
        # row of the slot's table), slot after slot from _table_base.  It is
        # built only when it has no more rows than w1, so it never holds
        # more than w1 does, whatever the hidden size.
        sizes = [len(self.emb[sp]) for sp, _ in self.layout]
        self._table_base = np.cumsum([0] + sizes[:-1])
        self._table_rows = sum(sizes)
        self.table_fits = self._table_rows <= self.input_dim
        self.table = None

    def __getstate__(self):
        # A copy (copy.deepcopy, pickle) would make the embedding tables
        # arrays of their own, which the scatter-subtract on _emb_flat no
        # longer reaches; they are rebuilt as views of the copy's buffer.
        # The precomputed table is dropped: it is rebuilt when needed.
        state = dict(self.__dict__, table=None)
        state["emb"] = {sp: t.shape for sp, t in self.emb.items()}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.emb = _table_views(self._emb_flat, state["emb"])

    # -- parameter access ------------------------------------------------

    @property
    def w1(self) -> np.ndarray:
        """The input-to-hidden weights, with every pending update folded in."""
        if self._pending:
            self._fold()
        return self._w1

    @w1.setter
    def w1(self, value) -> None:
        # `net.w1 += d` assigns back the array it changed in place.
        self._pending = 0
        if value is not self._w1:
            np.copyto(self._w1, value)

    def param_names(self):
        names = [f"emb:{sp}" for sp in SPACES if sp in self.emb]
        names += ["w1", "b1"]
        for h in sorted(self.heads):
            names += [f"head:{h}:w", f"head:{h}:b"]
        return names

    def get_param(self, name: str) -> np.ndarray:
        if name.startswith("emb:"):
            return self.emb[name[4:]]
        if name == "w1":
            return self.w1
        if name == "b1":
            return self.b1
        _, h, wb = name.split(":")
        return self.heads[h][0 if wb == "w" else 1]

    def copy_params(self, into=None):
        """A copy of every parameter.  Given `into`, a dict an earlier call
        returned, the parameters are copied into its arrays and no new
        ones are made."""
        if into is None:
            return {n: self.get_param(n).copy() for n in self.param_names()}
        for n in self.param_names():
            np.copyto(into[n], self.get_param(n))
        return into

    def set_params(self, params):
        self.table = None
        # Pending factors are dropped, not folded, since every parameter is
        # replaced; their buffers go too (a trained model keeps none), and
        # the next deferred update makes them again.
        self._u = self._v = None
        self._pending = 0
        for n in self.param_names():
            np.copyto(self.get_param(n), params[n])

    # -- precomputed first layer ---------------------------------------------

    def precompute(self) -> None:
        """Build the precomputed first layer unless it exists or would have
        more rows than w1 (Chen & Manning 2014).  Slot i's block of x @ w1
        is emb[sp][ids[i]] @ w1[lo:hi], so the table holds that product for
        every row of the slot's table, and with dropout off the hidden
        pre-activation is b1 plus the sum of one table row per slot.  The
        weight updates (apply_grads, set_params) drop the table, so one
        that exists always matches the weights; code that writes the
        embeddings or w1 in place otherwise must set `table` to None."""
        if self.table is not None or not self.table_fits:
            return
        # An anonymous mapping rather than a malloc'd array: when glibc frees
        # a mapped chunk of this size it raises its mmap threshold to it, and
        # later arrays below that size then come from a heap it does not
        # shrink (8.6 MB more peak memory in the paper-scale benchmark).
        shape = (self._table_rows, self.hidden)
        size = shape[0] * shape[1] * np.dtype(self.dtype).itemsize
        table = np.frombuffer(mmap.mmap(-1, size), dtype=self.dtype).reshape(shape)
        w1 = self.w1
        for (sp, lo, hi), base in zip(self._offsets, self._table_base):
            emb = self.emb[sp]
            np.matmul(emb, w1[lo:hi], out=table[base : base + len(emb)])
        self.table = table

    def q_from_table(self, ids: np.ndarray, head: str) -> np.ndarray:
        """Q-values of one head with dropout off, read through the table;
        they equal forward's up to float rounding (the sum is taken in
        another order)."""
        h = self.table.take(self._table_base + ids, axis=0).sum(axis=0)
        h += self.b1
        w, b = self.heads[head]
        return np.maximum(h, 0) @ w + b

    # -- forward / backward ----------------------------------------------

    def forward(self, ids: np.ndarray, head: str, drop_rng=None):
        """Q-values of one head.  Dropout only fires when drop_rng is given,
        so inference is a pure function of parameters and features."""
        if len(ids) != len(self.layout):
            raise ValueError(f"{len(ids)} feature ids for {len(self.layout)} slots")
        if head not in self.heads:
            raise ValueError(f"unknown head {head!r}")
        emb = self.emb
        x = np.concatenate(
            [emb[sp].take(ids[lo:hi], axis=0).ravel() for sp, lo, hi in self._runs]
        ).astype(self.dtype, copy=False)
        p = self.dropout
        mask_in = mask_h = None
        if drop_rng is not None and p > 0:
            mask_in = (drop_rng.random(self.input_dim) >= p).astype(self.dtype) / (1.0 - p)
            x = x * mask_in
        h = x @ self._w1 + self.b1
        r = self._pending
        if r:
            h -= (self._u[:r] @ x) @ self._v[:r]
        if drop_rng is not None and p > 0:
            mask_h = (drop_rng.random(self.hidden) >= p).astype(self.dtype) / (1.0 - p)
            h = h * mask_h
        act = np.maximum(h, 0)
        w, b = self.heads[head]
        q = act @ w + b
        cache = (ids, x, h, act, head, mask_in, mask_h)
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> Grads:
        ids, x, h, act, head, mask_in, mask_h = cache
        w, _ = self.heads[head]
        dact = (w @ dq).astype(self.dtype)
        dh = dact * (h > 0)
        if mask_h is not None:
            dh = dh * mask_h
        mask = None if mask_in is None else mask_in[None, :]
        head_grads = {head: (np.outer(act, dq).astype(self.dtype), dq.astype(self.dtype))}
        return Grads(ids[None, :], x[None, :], dh[None, :], mask, head_grads)

    def apply_grads(self, grads: Grads, step: float) -> None:
        """Subtract step times the gradient from the parameters; the w1
        update is recorded as factor pairs (see _defer_w1)."""
        self.table = None
        for name, (w, b) in grads.heads.items():
            self.heads[name][0] -= step * w
            self.heads[name][1] -= step * b
        self.b1 -= step * grads.dh.sum(axis=0)
        dx = self._defer_w1(grads.x, grads.dh, step)
        if grads.mask is not None:
            dx *= grads.mask
        self._apply_emb(grads.ids, dx, step)

    def _apply_emb(self, ids: np.ndarray, dx: np.ndarray, step: float) -> None:
        """Subtract step * dx from the rows the ids name, with one
        scatter-subtract on the flat buffer.  ufunc.at is unbuffered and
        applies repeated indices in index order, so a row that several slots
        (or examples) name is updated by each in turn, slot order within an
        example, exactly as `emb[sp][row] -= step * vec` per triple would;
        a fancy-index `-=` would keep only one of them.  (Raveled, the
        index takes ufunc.at's 1-D fast path: 1.4 against 4.9 us at desk
        scale.)"""
        index = self._x_base + ids[:, self._x_slot] * self._x_width
        np.subtract.at(self._emb_flat, index.ravel(), (step * dx).ravel())

    def _defer_w1(self, x: np.ndarray, dh: np.ndarray, step: float) -> np.ndarray:
        """Record w1 -= step * (x.T @ dh) as the factor pairs (step * x[b],
        dh[b]), without writing w1 (Vincent et al. 2015 keep a large weight
        matrix factored the same way); returns dx with dx[b] = w1 @ dh[b]
        as w1 was before the update.  With w1 = W0 - U V^T, that is W0 @
        dh[b] - U (V^T dh[b]).  The factors are folded into W0 when a batch
        does not fit in the free pairs, so a step reads W0 once here and
        once in forward, and writes it once every DEFER_RANK steps.  A
        batch wider than DEFER_RANK appends its pairs DEFER_RANK at a time
        and folds between them."""
        if self._u is None:
            self._u = np.empty((DEFER_RANK, self.input_dim), dtype=self.dtype)
            self._v = np.empty((DEFER_RANK, self.hidden), dtype=self.dtype)
        if self._pending + len(dh) > DEFER_RANK:
            self._fold()
        w0, r = self._w1, self._pending
        dx = np.empty((len(dh), len(w0)), dtype=w0.dtype)
        for d, out in zip(dh, dx):
            np.matmul(w0, d, out=out)  # one gemv each: a GEMM would pack all of W0
        if r:
            dx -= (dh @ self._v[:r].T) @ self._u[:r]
        for a in range(0, len(dh), DEFER_RANK):
            if a:
                self._fold()
            xs, ds = x[a : a + DEFER_RANK], dh[a : a + DEFER_RANK]
            r, e = self._pending, self._pending + len(ds)
            np.multiply(xs, step, out=self._u[r:e])
            self._v[r:e] = ds
            self._pending = e
        return dx

    def _fold(self) -> None:
        """W0 -= U V^T for the pending factor pairs: one GEMM per block of
        rows, made in the block buffer."""
        r, buf = self._pending, self._block
        u, v = self._u[:r], self._v[:r]
        rows = len(buf)
        for a in range(0, len(self._w1), rows):
            block = self._w1[a : a + rows]
            block -= np.matmul(u[:, a : a + rows].T, v, out=buf[: len(block)])
        self._pending = 0


def td_update(net, ids, head, action_index, target, alpha, drop_rng=None) -> float:
    """One gradient step on the smooth-L1 temporal-difference loss."""
    if not np.isfinite(target):
        raise FloatingPointError(f"non-finite TD target {target}")
    q, cache = net.forward(ids, head, drop_rng)
    loss, dpred = smooth_l1(q[action_index], target)
    if not (np.isfinite(loss) and np.isfinite(dpred)):
        raise FloatingPointError("non-finite TD gradient")
    dq = np.zeros_like(q)
    dq[action_index] = dpred
    net.apply_grads(net.backward(cache, dq), alpha)
    return loss


def supervised_update(net, examples, alpha, drop_rng=None) -> float:
    """One step on the mean cross-entropy gradient of the examples, given
    as (ids, head, gold index) triples and all taken at the same
    parameters, treating each head as a classifier; returns the mean loss."""
    losses, parts = [], []
    for ids, head, gold_index in examples:
        q, cache = net.forward(ids, head, drop_rng)
        loss, dlogits = cross_entropy(q, gold_index)
        if not (np.isfinite(loss) and np.isfinite(dlogits).all()):
            raise FloatingPointError("non-finite supervised gradient")
        losses.append(loss)
        parts.append(net.backward(cache, dlogits))
    net.apply_grads(Grads.join(parts), alpha * (1.0 / len(parts)))
    return float(np.add.reduce(losses)) / len(losses)  # np.mean's bits, a third of its time


# ----------------------------------------------------------------------
# the trained bundle


def head_for_state(state: str) -> str:
    return {BACK_STATE: HEAD_BACK, POS_STATE: HEAD_TAG}.get(state, HEAD_PARSE)


def heads_for_kind(kind: str, n_tags: int) -> dict[str, int]:
    heads = {HEAD_BACK: 2}
    if kind != PARSER:
        heads[HEAD_TAG] = n_tags
    if kind != TAGGER:
        heads[HEAD_PARSE] = 4
    return heads


FORMAT_VERSION = 1


@dataclass
class Model:
    machine: Machine
    extractor: FeatureExtractor
    net: QNetwork
    gamma: float
    # Per head, the Q column of each of its actions.
    _columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._columns = {
            head: {a: i for i, a in enumerate(self.head_actions(head))}
            for head in (HEAD_TAG, HEAD_PARSE, HEAD_BACK)
        }

    def head_actions(self, head: str) -> tuple[Action, ...]:
        if head == HEAD_TAG:
            return self.machine.tag_actions
        if head == HEAD_PARSE:
            return PARSE_ACTIONS
        return BACK_ACTIONS

    def action_index(self, head: str, a: Action) -> int:
        return self._columns[head][a]

    def with_k(self, k: int) -> "Model":
        """This model with its undo budget replaced by k."""
        return replace(self, machine=replace(self.machine, k=k))

    def q_legal(self, c: Configuration, s: Sentence):
        """Legal actions with their Q-values, dropout off; read through the
        network's precomputed first layer when it has one."""
        head = head_for_state(c.state)
        ids = self.extractor.extract(c, s, self.machine)
        net = self.net
        q = net.forward(ids, head)[0] if net.table is None else net.q_from_table(ids, head)
        legal = self.machine.legal_actions(c)
        columns = self._columns[head]
        return legal, q[[columns[a] for a in legal]]

    def greedy_action(self, c: Configuration, s: Sentence) -> Action:
        legal, values = self.q_legal(c, s)
        return legal[int(np.argmax(values))]

    # -- serialization -----------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "format": FORMAT_VERSION,
            "machine": self.machine.kind,
            "k": self.machine.k,
            "gamma": self.gamma,
            "tags": list(self.machine.tags),
            "dims": self.net.space_dims,
            "hidden": self.net.hidden,
            "dropout": self.net.dropout,
            "heads": self.net.head_sizes,
            "layout": [list(slot) for slot in self.net.layout],
            "vocabs": {
                sp: list(v.symbols[len(SPECIALS):]) for sp, v in self.extractor.vocabs.items()
            },
            "tensors": [[n, list(self.net.get_param(n).shape)] for n in self.net.param_names()],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            for name in self.net.param_names():
                f.write(np.ascontiguousarray(self.net.get_param(name), dtype="<f4").tobytes())

    @classmethod
    def load(cls, path) -> "Model":
        """Read a model file; a malformed one raises one ValueError that
        names it."""
        try:
            return cls._read(path)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

    @classmethod
    def _read(cls, path) -> "Model":
        with open(path, "rb") as f:
            header = f.readline()
            meta = json.loads(header.decode("utf-8"))
            _check_header(meta, os.fstat(f.fileno()).st_size - len(header))
            kind = meta["machine"]
            tags = tuple(meta["tags"])
            vocabs = {sp: Vocab(tuple(symbols)) for sp, symbols in meta["vocabs"].items()}
            extractor = FeatureExtractor(kind, vocabs)
            machine = Machine(kind=kind, k=meta["k"], tags=tags)
            net = QNetwork._unfilled(
                layout=tuple(tuple(s) for s in meta["layout"]),
                vocab_sizes={sp: len(v) for sp, v in vocabs.items()},
                space_dims=meta["dims"],
                hidden=meta["hidden"],
                heads=meta["heads"],
                dropout=meta["dropout"],
            )
            # Each tensor is read straight into the network's array: no
            # staging copy of its bytes (w1 is 73 MB at paper scale).
            for name, _ in meta["tensors"]:
                arr = net.get_param(name)
                got = f.readinto(arr)
                if got != arr.nbytes:
                    raise ValueError(f"tensor {name} ends after {got} of its {arr.nbytes} bytes")
                if sys.byteorder != "little":
                    arr.byteswap(inplace=True)  # the file holds little-endian float32
                # min and max carry any NaN and show any infinity, with no
                # temporary the size of the tensor.
                if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                    raise ValueError(f"tensor {name} holds non-finite values")
        return cls(machine=machine, extractor=extractor, net=net, gamma=meta["gamma"])


HEADER_KEYS = ("format", "machine", "k", "gamma", "tags", "dims", "hidden", "dropout",
               "heads", "layout", "vocabs", "tensors")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _is_count(x) -> bool:
    return _is_int(x) and x > 0


def _check_header(meta, payload_bytes: int) -> None:
    """Raise ValueError unless the header is a format-1 header whose layout,
    dims and heads fit its machine kind, and whose tensor list has the
    shapes they imply and the size of the payload."""
    if not isinstance(meta, dict):
        raise ValueError("model header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in meta]
    if missing:
        raise ValueError(f"model header lacks {', '.join(missing)}")
    if meta["format"] != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {meta['format']}")
    kind, tags, k = meta["machine"], meta["tags"], meta["k"]
    if kind not in KINDS:
        raise ValueError(f"unknown machine kind {kind!r}")
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise ValueError("tags must be a list of strings")
    if not (_is_int(k) and k >= 0):
        raise ValueError(f"undo budget k must be an integer >= 0, got {k!r}")
    dims, vocabs, hidden = meta["dims"], meta["vocabs"], meta["hidden"]
    if not (isinstance(dims, dict) and isinstance(vocabs, dict) and all(
        _is_count(dims.get(sp)) and isinstance(vocabs.get(sp), list) for sp in SPACES
    )):
        raise ValueError(f"dims and vocabs need a positive size and a list for each of {SPACES}")
    if not _is_count(hidden):
        raise ValueError(f"hidden must be a positive integer, got {hidden!r}")
    # The ranges TrainConfig admits.
    gamma, dropout = meta["gamma"], meta["dropout"]
    if not (_is_finite(gamma) and 0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must be a number in [0, 1], got {gamma!r}")
    if not (_is_finite(dropout) and 0.0 <= dropout < 1.0):
        raise ValueError(f"dropout must be a number in [0, 1), got {dropout!r}")
    layout = slot_layout(kind)
    if meta["layout"] != [list(slot) for slot in layout]:
        raise ValueError(f"layout does not list the {len(layout)} feature slots of a {kind}")
    heads = heads_for_kind(kind, len(tags))
    if meta["heads"] != heads:
        raise ValueError(f"heads {meta['heads']} do not fit a {kind} with {len(tags)} tags")
    input_dim = sum(dims[sp] for sp, _ in layout)
    shapes = [[f"emb:{sp}", [len(SPECIALS) + len(vocabs[sp]), dims[sp]]] for sp in SPACES]
    shapes += [["w1", [input_dim, hidden]], ["b1", [hidden]]]
    for h in sorted(heads):
        shapes += [[f"head:{h}:w", [hidden, heads[h]]], [f"head:{h}:b", [heads[h]]]]
    if meta["tensors"] != shapes:
        raise ValueError("declared tensors do not match the shapes the layout, dims and heads imply")
    if 4 * sum(int(np.prod(shape)) for _, shape in shapes) != payload_bytes:
        raise ValueError("model payload size does not match the declared tensors")
