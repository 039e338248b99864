"""Shared builders, synthetic corpora and independent brute-force oracles."""
from __future__ import annotations

import functools
import json
import random

import numpy as np

from backparse.corpus import Sentence, Token, is_projective
from backparse.machine import Machine, cell_is_value
from backparse.training import ExplorationSchedule, TrainConfig


def sent(words, tags, heads) -> Sentence:
    tokens = tuple(
        Token(id=i + 1, form=w, upos=t, head=h)
        for i, (w, t, h) in enumerate(zip(words, tags, heads))
    )
    return Sentence(tokens)


def simple_sent(heads, tag="N") -> Sentence:
    n = len(heads)
    return sent([f"w{i}" for i in range(1, n + 1)], [tag] * n, heads)


def random_tree_heads(n, rng) -> list[int]:
    """Uniform-ish random tree over n nodes, rooted at 0."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    heads[order[0]] = 0
    for i, node in enumerate(order[1:], start=1):
        heads[node] = order[rng.randrange(i)]
    return heads[1:]


def random_projective_heads(n, rng) -> list[int]:
    while True:
        heads = random_tree_heads(n, rng)
        if is_projective(simple_sent(heads)):
            return heads


def random_tagged_sentence(n, rng, tags=("A", "B", "C"), projective=True) -> Sentence:
    heads = random_projective_heads(n, rng) if projective else random_tree_heads(n, rng)
    words = [f"w{rng.randrange(6)}" for _ in range(n)]
    return sent(words, [rng.choice(tags) for _ in range(n)], heads)


def random_legal_walk(machine: Machine, sentence, rng, steps, back_bias=0.5):
    """Apply up to `steps` random legal actions; returns the visited configs."""
    c = machine.initial(sentence)
    visited = [c]
    for _ in range(steps):
        if c.terminal:
            break
        legal = machine.legal_actions(c)
        backs = [a for a in legal if a.kind == "back"]
        if backs and rng.random() < back_bias:
            a = backs[0]
        else:
            a = legal[rng.randrange(len(legal))]
        c = machine.apply(c, a)
        visited.append(c)
    return visited


# ----------------------------------------------------------------------
# independent oracles


def brute_projective(sentence) -> bool:
    """Projectivity via the descendant-interval property, not arc crossings."""
    n = sentence.n
    children = {i: [] for i in range(n + 1)}
    for t in sentence.tokens:
        children[t.head].append(t.id)

    def descendants(h):
        out = set()
        stack = list(children[h])
        while stack:
            x = stack.pop()
            out.add(x)
            stack.extend(children[x])
        return out

    for t in sentence.tokens:
        h, d = t.head, t.id
        lo, hi = min(h, d), max(h, d)
        inside = descendants(h) | {h}
        for between in range(lo + 1, hi):
            if between not in inside:
                return False
    return True


def brute_max_gold_arcs(config, sentence) -> int:
    """Max gold arcs any undo-free completion can end with, by exhaustive
    search over parse continuations (with end-of-sentence stack cleanup)."""
    n = sentence.n
    heads = [0] + list(sentence.heads)
    banked = 0
    govs = []
    for e in config.stack:
        cell = config.gov_tape[e - 1]
        govs.append("s" if cell_is_value(cell) else "u")
    for d in range(1, n + 1):
        cell = config.gov_tape[d - 1]
        if cell_is_value(cell) and cell == heads[d]:
            banked += 1

    @functools.cache
    def best(wi, stack, flags):
        if wi == n + 1:
            return sum(1 for e, g in zip(stack, flags) if g == "u" and heads[e] == 0)
        top_choices = []
        top_choices.append(best(wi + 1, stack + (wi,), flags + ("u",)))  # shift
        if stack:
            gained = 1 if heads[wi] == stack[-1] else 0
            top_choices.append(gained + best(wi + 1, stack + (wi,), flags + ("s",)))  # right
            if flags[-1] == "u":
                gained = 1 if heads[stack[-1]] == wi else 0
                top_choices.append(gained + best(wi, stack[:-1], flags[:-1]))  # left
            if flags[-1] == "s":
                top_choices.append(best(wi, stack[:-1], flags[:-1]))  # reduce
        return max(top_choices)

    return banked + best(config.word_index, tuple(config.stack), tuple(govs))


# ----------------------------------------------------------------------
# synthetic corpora


TOY_NOUNS = ["cat", "dog", "boat", "river", "stone"]
TOY_ADJS = ["old", "red", "slow"]
TOY_VERBS = ["sees", "rows", "lifts", "chases"]
TOY_DETS = ["the", "a"]


def toy_grammar_corpus(n_sentences, seed=0):
    """Projective DET (ADJ) NOUN VERB DET (ADJ) NOUN sentences."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_sentences):
        words, tags, heads = [], [], []

        def noun_phrase(head_slot):
            det_i = len(words) + 1
            words.append(rng.choice(TOY_DETS)); tags.append("DET")
            if rng.random() < 0.5:
                words.append(rng.choice(TOY_ADJS)); tags.append("ADJ")
            words.append(rng.choice(TOY_NOUNS)); tags.append("NOUN")
            noun_i = len(words)
            for i in range(det_i, noun_i):
                heads.append(noun_i)
            heads.append(head_slot)
            return noun_i

        noun_phrase(None)
        verb_i = len(words) + 1
        words.append(rng.choice(TOY_VERBS)); tags.append("VERB")
        heads.append(0)
        for i, h in enumerate(heads):
            if h is None:
                heads[i] = verb_i
        noun_phrase(verb_i)
        corpus.append(sent(words, tags, heads))
    return corpus


def alternation_corpus(n_sentences, seed=0, min_len=2, max_len=8):
    """All forms identical; gold tags strictly alternate X Y X Y ..."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_sentences):
        n = rng.randint(min_len, max_len)
        tags = [("X" if i % 2 == 0 else "Y") for i in range(n)]
        heads = _flat_heads(n)
        corpus.append(sent(["tok"] * n, tags, heads))
    return corpus


def lookahead_corpus(n_sentences, seed=0, n_pairs=3):
    """The gold tag of every odd word is decided only by the next word.

    Odd positions share one ambiguous form; the following word's form (dp
    or dq) determines whether the gold tag is TP or TQ.  Without seeing
    the next word the best policy is a coin flip on those positions.
    """
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_sentences):
        words, tags = [], []
        for _ in range(n_pairs):
            kind = rng.choice(("p", "q"))
            words.append("amb")
            tags.append("TP" if kind == "p" else "TQ")
            words.append("dp" if kind == "p" else "dq")
            tags.append("DP" if kind == "p" else "DQ")
        heads = _flat_heads(len(words))
        corpus.append(sent(words, tags, heads))
    return corpus


def _flat_heads(n):
    # Word 1 is the root; everything else hangs off it (projective).
    return [0] + [1] * (n - 1)


def small_config(**overrides) -> TrainConfig:
    base = dict(
        alpha=0.05,
        gamma=0.9,
        seed=0,
        epochs=10,
        hidden=32,
        word_dim=16,
        feat_dim=8,
        dropout=0.1,
        schedule=ExplorationSchedule(),
    )
    base.update(overrides)
    return TrainConfig(**base)


def corrupt_model(path, case: str) -> None:
    """Rewrite a saved model file with one defect: missing-hidden (a header
    key dropped), short-layout (one feature slot fewer) or nan-weight."""
    header, blob = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    if case == "missing-hidden":
        del meta["hidden"]
    elif case == "short-layout":
        meta["layout"] = meta["layout"][:-1]
    else:
        blob = np.array([np.nan], dtype="<f4").tobytes() + blob[4:]
    path.write_bytes(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n" + blob)


def emb_grad_triples(net, grads):
    """The embedding rows of a Grads record, as (space, row, vector)
    triples in example order, then slot order: example b adds dx[b, lo:hi]
    to row ids[b, slot] of the slot's table, with dx[b] = (w1 @ dh[b]) *
    mask[b] from w1 as it is now."""
    for b, ids in enumerate(grads.ids):
        dx = net.w1 @ grads.dh[b]
        if grads.mask is not None:
            dx = dx * grads.mask[b]
        for i, (sp, lo, hi) in enumerate(net._offsets):
            yield sp, int(ids[i]), dx[lo:hi]


def dense_grads(net, grads) -> dict:
    """The dense gradient of every parameter, by name, from a Grads record."""
    out = {name: np.zeros_like(net.get_param(name)) for name in net.param_names()}
    for head, (w, b) in grads.heads.items():
        out[f"head:{head}:w"] += w
        out[f"head:{head}:b"] += b
    out["w1"] += grads.x.T @ grads.dh
    out["b1"] += grads.dh.sum(axis=0)
    for sp, row, vec in emb_grad_triples(net, grads):
        out[f"emb:{sp}"][row] += vec
    return out


def dense_w1(net):
    """The current w1 in float64, pending factor pairs subtracted from the
    stored weights, without folding them."""
    w1, r = net._w1.astype(np.float64), net._pending
    if r:
        w1 -= net._u[:r].T.astype(np.float64) @ net._v[:r].astype(np.float64)
    return w1


def dense_params(net) -> dict:
    """Every parameter in float64, by name, read without folding."""
    params = {n: net.get_param(n).astype(np.float64) for n in net.param_names() if n != "w1"}
    params["w1"] = dense_w1(net)
    return params


def sgd_reference(net, params, grads, step) -> dict:
    """One plain SGD step in float64 from `params` (float64, by name):
    each example subtracts step * outer(x, dh) from w1 and step * dx from
    the embedding rows its ids name, with dx = (w1 @ dh) * mask from w1
    as it was before the step; b1 and the heads take their summed
    gradients."""
    out = {n: p.copy() for n, p in params.items()}
    x, dh = grads.x.astype(np.float64), grads.dh.astype(np.float64)
    for b, ids in enumerate(grads.ids):
        out["w1"] -= step * np.outer(x[b], dh[b])
        dx = params["w1"] @ dh[b]
        if grads.mask is not None:
            dx *= grads.mask[b]
        for i, (sp, lo, hi) in enumerate(net._offsets):
            out[f"emb:{sp}"][ids[i]] -= step * dx[lo:hi]
    out["b1"] -= step * dh.sum(axis=0)
    for head, (w, b) in grads.heads.items():
        out[f"head:{head}:w"] -= step * w
        out[f"head:{head}:b"] -= step * b
    return out


# Header numbers that TrainConfig would refuse, as (field, value) pairs.
BAD_HEADER_NUMBERS = [("gamma", True), ("gamma", 2.0), ("dropout", 1.0), ("dropout", -3),
                      ("k", False), ("k", 0.0)]


def set_header_field(path, key: str, value) -> None:
    """Rewrite one field of a saved model file's JSON header."""
    header, blob = path.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    meta[key] = value
    path.write_bytes(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n" + blob)
