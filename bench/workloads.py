"""The benchmark's workloads and the round of work each run repeats.

Every workload runs the tagparser machine, the superset machine with BACK,
POS and SYNT heads, through the library's public API in the order the CLI
uses it: `parse_conllu` and `Model.load` (set-up), `decode_corpus` and
`serialize` (batch use), `decode` one sentence per call (closed-loop use),
then `train_supervised` and `train_rl`.  The workloads differ in sentence
length and network size, which decide which layer dominates.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

import backparse as bp
from backparse.machine import BACK, max_actions

import corpus_gen


@dataclass(frozen=True)
class Workload:
    name: str
    hidden: int
    word_dim: int
    feat_dim: int
    decode_k: int           # undo budget of the decode fixture
    back_bias: float        # added to the fixture's BACK output; sets how often BACK fires
    decode_count: int       # sentences of the batch decode; the closed loop reuses them
    decode_len: tuple[int, int]
    closed_passes: int      # closed-loop passes over the decode sentences per round
    train_count: int
    train_len: tuple[int, int]
    dev_count: int          # dev set the training loops decode after each epoch
    dev_len: tuple[int, int]
    nonprojective_share: float = 0.0
    sup_epochs: int = 3     # two static-oracle epochs, then a dynamic-oracle relabel
    alpha: float = 0.02
    # Layers that may make no calls: BACK reaches paper-scale only through
    # RL exploration, which may not pick it on four short sentences.
    optional_layers: tuple[str, ...] = ()


DESK = dict(hidden=64, word_dim=32, feat_dim=16)
PAPER = dict(hidden=3200, word_dim=300, feat_dim=128)
# The BACK bias gives 0.10-0.18 BACKs per word on the desk workloads'
# decode corpora (median 0.13, seeds 1-6); on paper-scale the fixture
# decides BACK at every word but never takes it.
BACK_BIAS, NEVER = -0.9, -1e6

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-long",
            decode_k=2, back_bias=BACK_BIAS, decode_count=20, decode_len=(10, 160), closed_passes=3,
            train_count=12, train_len=(10, 40), dev_count=1, dev_len=(10, 160), **DESK,
        ),
        Workload(
            name="train-desk",
            decode_k=1, back_bias=BACK_BIAS, decode_count=80, decode_len=(5, 25), closed_passes=1,
            train_count=50, train_len=(5, 25), dev_count=30, dev_len=(5, 25),
            nonprojective_share=0.06, **DESK,
        ),
        Workload(
            name="paper-scale",
            decode_k=1, back_bias=NEVER, decode_count=36, decode_len=(2, 6), closed_passes=6,
            train_count=4, train_len=(5, 8), dev_count=4, dev_len=(2, 6),
            sup_epochs=1, alpha=0.01, optional_layers=("machine.back", "machine.peek_back_span"),
            **PAPER,
        ),
    )
}

KIND = bp.TAGPARSER
# Model initialisation and exploration draw from this seed, not from the
# workload seed, so that only the inputs change from one seed to the next.
TRAIN_SEED = 1
RL_EPOCHS, RL_K = 1, 1  # train_rl runs rl-backtrack with k=1 on every workload
STREAM_DECODE, STREAM_TRAIN, STREAM_DEV = 0, 1, 2
DECODE_ERRORS = (AssertionError, ValueError, FloatingPointError)
# The gated timings are CPU time of this one process, which runs one BLAS
# thread: on a shared VM the wall time of a fixed loop swung by a third of
# its median within a minute while its CPU time swung by a fifteenth.
clock = process_time


def make_inputs(w: Workload, seed: int) -> dict[str, str]:
    """CoNLL-U texts of the corpora a workload reads, from its seed."""
    lex = corpus_gen.Lexicon(seed)
    return {
        "decode": corpus_gen.generate(seed, STREAM_DECODE, w.decode_count, *w.decode_len, lex),
        "train": corpus_gen.generate(seed, STREAM_TRAIN, w.train_count, *w.train_len, lex,
                                     w.nonprojective_share),
        "dev": corpus_gen.generate(seed, STREAM_DEV, w.dev_count, *w.dev_len, lex),
    }


def input_problems(w: Workload, texts: dict[str, str]) -> list[str]:
    """The generator's promises: valid single-rooted trees, projective
    except for the training corpus's non-projective share."""
    problems = []
    for key, text in texts.items():
        try:
            sents = bp.parse_conllu(text)  # rejects cycles and anything but one root
        except ValueError as exc:
            problems.append(f"generated {key} corpus: {exc}")
            continue
        if key != "train" or not w.nonprojective_share:
            bad = sum(1 for s in sents if not bp.is_projective(s))
            if bad:
                problems.append(f"generated {key} corpus: {bad} non-projective trees")
    return problems


def tree_problem(pred: bp.Sentence, gold: bp.Sentence, tags) -> str | None:
    """Why a decoded sentence is not a well-formed single-rooted tree, or None."""
    if pred.forms != gold.forms:
        return "token forms changed"
    heads = pred.heads
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return "not single-rooted"
    for d, h in enumerate(heads, start=1):
        if not 0 <= h <= n or h == d:
            return f"bad head {h} for word {d}"
    for d in range(1, n + 1):
        steps, cur = 0, d
        while cur != 0:
            steps += 1
            if steps > n:
                return f"cycle through word {d}"
            cur = heads[cur - 1]
    if any(t not in tags for t in pred.tags):
        return "tag outside the inventory"
    return None


def decisions(result) -> int:
    """Configurations on a decode path that offered more than one action."""
    machine = result.machine
    c = machine.initial(result.sentence)
    count = 0
    for entry in result.log:
        count += len(machine.legal_actions(c)) > 1
        c = machine.apply(c, entry.action)
    return count


@dataclass
class Round:
    """Timings, counts and output digests of one round; no decoded objects
    are kept, so later rounds run on a heap of the same size."""

    setup_s: float = 0.0
    batch_s: float = 0.0
    sent_ms: list[float] = field(default_factory=list)
    sup_s: float = 0.0
    rl_s: float = 0.0
    wall_s: float = 0.0         # the whole round, checks included, first-round extras not
    cpu_s: float = 0.0          # CPU time of the same span
    decode_tokens: int = 0
    train_tokens: int = 0
    attempted: int = 0
    failed: int = 0
    multi_root: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    digest: str = ""
    closed_digest: str = ""     # of one closed-loop pass
    quality: tuple[float, float] = (math.nan, math.nan)   # dev UAS, UPOS (%) of the kept checkpoint
    w1_grad_mb: float = 0.0
    decode_decisions: int = 0


def closed_loop(model, sents, sent_ms: list) -> list:
    """One client, one sentence per call, each waiting for its reply."""
    replies = []
    for s in sents:
        t0 = clock()
        try:
            res = bp.decode(model, s)
            reply = bp.serialize([res.predicted])
        except DECODE_ERRORS as exc:
            res, reply = None, f"error: {exc}"
        sent_ms.append((clock() - t0) * 1e3)
        replies.append((res, reply))
    return replies


def _timed(fn):
    gc.collect()  # garbage of the previous phase is not billed to this one
    t0 = clock()
    out = fn()
    return out, clock() - t0


def run_round(w: Workload, texts: dict[str, str], model_path: str, first=False) -> Round:
    """One round; the `first` round also counts decode decisions, outside
    the timed spans."""
    r = Round()
    t_round, c_round = perf_counter(), clock()

    def set_up():
        return {key: bp.parse_conllu(text) for key, text in texts.items()}, bp.Model.load(model_path)

    (corpora, model), r.setup_s = _timed(set_up)
    sents, train, dev = corpora["decode"], corpora["train"], corpora["dev"]

    def batch_use():
        try:
            results = bp.decode_corpus(model, sents)
            return results, bp.serialize([x.predicted for x in results])
        except DECODE_ERRORS as exc:
            return None, f"error: {exc}"

    (batch, batch_text), r.batch_s = _timed(batch_use)
    gc.collect()
    closed = []
    for _ in range(w.closed_passes):
        closed += closed_loop(model, sents, r.sent_ms)

    dims = dict(hidden=w.hidden, word_dim=w.word_dim, feat_dim=w.feat_dim)
    sup_cfg = bp.TrainConfig(epochs=w.sup_epochs, alpha=w.alpha, seed=TRAIN_SEED, **dims)
    rl_cfg = bp.TrainConfig(epochs=RL_EPOCHS, alpha=w.alpha, seed=TRAIN_SEED, k=RL_K, **dims)
    (sup_model, sup_hist), r.sup_s = _timed(lambda: bp.train_supervised(train, dev, KIND, sup_cfg))
    (rl_model, rl_hist), r.rl_s = _timed(
        lambda: bp.train_rl(train, dev, KIND, rl_cfg, bp.REGIME_RL_BACKTRACK))

    _check_decodes(r, w, model, sents, batch, closed)
    _check_training(r, train, sup_hist, rl_hist)
    h = hashlib.sha256()
    h.update(batch_text.encode())
    for _, reply in closed:
        h.update(reply.encode())
    h.update(json.dumps([sup_hist, rl_hist], sort_keys=True).encode())
    for net in (sup_model.net, rl_model.net):
        for name in net.param_names():
            h.update(np.ascontiguousarray(net.get_param(name)).tobytes())
    r.digest = h.hexdigest()
    # train_supervised keeps the checkpoint with the best (UAS, UPOS) on dev.
    best = max(sup_hist, key=lambda row: (row["dev_uas"], row["dev_upos"]))
    r.quality = (100.0 * best["dev_uas"], 100.0 * best["dev_upos"])
    r.closed_digest = hashlib.sha256("".join(reply for _, reply in closed[:len(sents)]).encode()).hexdigest()
    r.w1_grad_mb = rl_model.net.w1.size * rl_model.net.w1.itemsize / 1e6
    r.decode_tokens = sum(s.n for s in sents)
    r.train_tokens = sum(s.n for s in train)
    r.wall_s, r.cpu_s = perf_counter() - t_round, clock() - c_round
    if first and batch:
        r.decode_decisions = sum(decisions(x) for x in batch)
    return r


def _check_decodes(r: Round, w: Workload, model, sents, batch, closed) -> None:
    """Failures: a decode that raised, broke the action bound or gave a
    malformed tree.  score() is the check the CLI's eval runs; it stays
    outside the timed spans."""
    tags = set(model.machine.tags)
    machine = model.machine
    outputs = [res for res, _ in closed] + (batch or [None] * len(sents))
    for s, res in zip(sents * (w.closed_passes + 1), outputs):
        r.attempted += 1
        if res is None or res.n_actions > max_actions(s.n, machine.k, machine.kind):
            r.failed += 1
            continue
        problem = tree_problem(res.predicted, s, tags)
        if problem:
            r.failed += 1
            r.multi_root += problem == "not single-rooted"
    if batch is None:
        return
    want = [x.predicted for x in batch]
    if [res.predicted if res else None for res, _ in closed] != want * w.closed_passes:
        r.problems.append("closed-loop replies differ from the batch decode")
    m = bp.score(want, sents)
    r.fingerprint["decode.uas"] = m.uas
    r.fingerprint["decode.actions"] = sum(x.n_actions for x in batch)
    r.fingerprint["decode.backs"] = sum(1 for x in batch for e in x.log if e.action == BACK)


def _check_training(r: Round, train, sup_hist, rl_hist) -> None:
    """Failures: epochs with a non-finite loss and RL episodes that were
    aborted for breaking the action bound."""
    for row in sup_hist + rl_hist:
        r.attempted += 1
        r.failed += not math.isfinite(row["mean_loss"])
    for row in rl_hist:
        r.attempted += len(train)
        r.failed += row["aborted"]
    r.fingerprint["train.history"] = json.dumps([sup_hist, rl_hist], sort_keys=True)


def median(values):
    return statistics.median(values) if values else math.nan
