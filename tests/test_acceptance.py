"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""
import math
import random
import time

import numpy as np
import pytest

from backparse.corpus import is_projective
from backparse.machine import (
    BACK,
    Machine,
    NOBACK,
    REDUCE,
    SHIFT,
    max_actions,
    tag_action,
)
from backparse.evaluation import back_stats, score
from backparse.neural import QNetwork, cross_entropy, heads_for_kind, slot_layout, smooth_l1
from backparse.oracle import reachable_gold_arcs
from backparse.rewards import back_reward, parse_reward, tag_reward
from backparse.training import (
    REGIME_RL,
    REGIME_RL_BACKTRACK,
    DecodeResult,
    build_model,
    decode,
    schedule_defaults,
    train_rl,
    train_supervised,
)
from helpers import (
    alternation_corpus,
    brute_max_gold_arcs,
    dense_grads,
    lookahead_corpus,
    random_legal_walk,
    random_projective_heads,
    random_tagged_sentence,
    sent,
    simple_sent,
    small_config,
    toy_grammar_corpus,
)

TAGS = ("A", "B", "C")


def report(cid, text):
    print(f"\nACCEPTANCE {cid}: PASS - {text}")


def test_c01_undo_exactness():
    started = time.monotonic()
    rng = random.Random(20240)
    checked = 0
    kinds = [
        Machine("tagger", k=1, tags=TAGS),
        Machine("parser", k=1),
        Machine("tagparser", k=2, tags=TAGS),
    ]
    while checked < 10_000:
        m = kinds[checked % len(kinds)]
        s = random_tagged_sentence(rng.randint(1, 10), rng, tags=TAGS)
        c = m.initial(s)
        for _ in range(40):
            if c.terminal:
                break
            legal = m.legal_actions(c)
            backs = [a for a in legal if a.kind == "back"]
            a = backs[0] if backs and rng.random() < 0.4 else legal[rng.randrange(len(legal))]
            c2 = m.apply(c, a)
            undone = m.undo(c2, a)
            assert undone.core_fields() == c.core_fields(), (m.kind, a)
            assert undone.log == c.log and undone.live == c.live
            checked += 1
            c = c2
            if checked == 10_000:
                break
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"10,000 undo(apply(c,a)) == c checks, {elapsed:.1f}s")


def test_c02_dynamic_oracle_matches_brute_force():
    started = time.monotonic()
    rng = random.Random(777)
    suite = []
    while len(suite) < 100:
        n = rng.randint(1, 8)
        suite.append(simple_sent(random_projective_heads(n, rng)))
    m = Machine("parser", k=1)
    checked = 0
    for s in suite:
        for _ in range(3):
            c = m.initial(s)
            for _ in range(12):
                if c.terminal:
                    break
                assert reachable_gold_arcs(c, s) == brute_max_gold_arcs(c, s), (s.heads, c)
                checked += 1
                legal = m.legal_actions(c)
                c = m.apply(c, legal[rng.randrange(len(legal))])
            if not c.terminal:
                assert reachable_gold_arcs(c, s) == brute_max_gold_arcs(c, s)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    report(2, f"reachable arcs == exhaustive completions on {checked} configs, {elapsed:.1f}s")


def test_c03_complexity_bound():
    rng = random.Random(31)
    cfg = small_config(epochs=2, hidden=16, word_dim=8, feat_dim=4)
    trained = {
        "tagger": train_rl(alternation_corpus(30, seed=1), [], "tagger", cfg, REGIME_RL)[0],
        "tagparser": train_rl(
            alternation_corpus(30, seed=2), [], "tagparser",
            small_config(epochs=2, hidden=16, word_dim=8, feat_dim=4, k=1),
            REGIME_RL_BACKTRACK,
        )[0],
        "parser": train_supervised(toy_grammar_corpus(30, seed=3), [], "parser", cfg)[0],
    }
    decoded = 0
    for kind, model in trained.items():
        for k in (0, 1, 2):
            for _ in range(112):
                n = rng.randint(1, 12)
                s = random_tagged_sentence(n, rng, tags=("X", "Y"))
                res = decode(model, s, k=k)
                assert res.n_actions <= max_actions(n, k, kind), (kind, k, n, res.n_actions)
                if kind == "tagparser" and k == 0:
                    assert res.n_actions == 4 * n, (n, res.n_actions)
                decoded += 1
    assert decoded >= 1000
    report(3, f"{decoded} decodes within 3nk+2n / 4nk+3n / 5nk+4n; k=0 tagparser exactly 4n")


def test_c04_reward_suite():
    assert back_reward([0.0]) == -1.0
    assert abs(back_reward([-1.0]) - math.log(2)) < 1e-9
    assert abs(back_reward([-1.0, -2.0]) - math.log(4)) < 1e-9
    m = Machine("parser", k=0)
    s = simple_sent([0, 1])
    c = m.apply(m.initial(s), NOBACK)
    assert parse_reward(c, REDUCE, s, m) == -1.5
    assert parse_reward(c, SHIFT, s, m) == 0.0
    assert tag_reward("N", "N") == 0.0
    report(4, "phi(0)=-1, phi(1)=ln2, phi(3)=ln4 (1e-9); illegal -1.5; correct 0")


CURVE_EPS = [0.6, 0.49, 0.4, 0.34, 0.28, 0.24, 0.21, 0.19, 0.17, 0.15,
              0.14, 0.13, 0.12, 0.12, 0.12, 0.11, 0.11, 0.11, 0.11, 0.1]
CURVE_BETA = [0.3, 0.18, 0.11, 0.07, 0.04, 0.02, 0.01, 0.01, 0.01, 0.0,
               0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_c05_schedule_fidelity():
    worst = 0.0
    for epoch in range(1, 21):
        eps, beta = schedule_defaults(epoch)
        d_eps = abs(eps - CURVE_EPS[epoch - 1])
        d_beta = abs(beta - CURVE_BETA[epoch - 1])
        worst = max(worst, d_eps, d_beta)
        assert d_eps <= 0.01, (epoch, eps)
        assert d_beta <= 0.01, (epoch, beta)
    report(5, f"epsilon/beta match all plotted epochs 1-20, worst gap {worst:.4f}")


def _tiny_float64_net(kind, seed):
    sizes = {"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9}
    dims = {"word": 6, "pos": 4, "letter": 3, "action": 5, "flag": 2}
    net = QNetwork(
        layout=slot_layout(kind),
        vocab_sizes=sizes,
        space_dims=dims,
        hidden=8,
        heads=heads_for_kind(kind, 3),
        dropout=0.3,
        seed=seed,
        dtype=np.float64,
    )
    rng = random.Random(seed)
    ids = np.array([rng.randrange(sizes[sp]) for sp, _ in net.layout], dtype=np.int64)
    return net, ids, rng


def _check_grads(net, ids, head, loss_fn, dloss_fn):
    q, cache = net.forward(ids, head)
    analytic = dense_grads(net, net.backward(cache, dloss_fn(q)))
    eps = 1e-6
    worst = 0.0
    for name in net.param_names():
        param = net.get_param(name)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            up = loss_fn(net.forward(ids, head)[0])
            param[idx] = orig - eps
            down = loss_fn(net.forward(ids, head)[0])
            param[idx] = orig
            numeric = (up - down) / (2 * eps)
            a = analytic[name][idx]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
            assert rel < 1e-4, (name, idx, a, numeric)
            it.iternext()
    return worst


def test_c06_gradient_checks():
    worst = 0.0
    for i in range(50):
        net, ids, rng = _tiny_float64_net("tagger", seed=i)
        target = rng.uniform(-2, 2)

        def l1_loss(q):
            return smooth_l1(q[1], target)[0]

        def l1_grad(q):
            d = np.zeros_like(q)
            d[1] = smooth_l1(q[1], target)[1]
            return d

        worst = max(worst, _check_grads(net, ids, "tag", l1_loss, l1_grad))
    for i in range(50):
        net, ids, rng = _tiny_float64_net("tagparser", seed=1000 + i)
        gold = rng.randrange(4)

        def ce_loss(q):
            return cross_entropy(q, gold)[0]

        def ce_grad(q):
            return cross_entropy(q, gold)[1]

        worst = max(worst, _check_grads(net, ids, "parse", ce_loss, ce_grad))
    report(6, f"100 finite-difference gradient checks, worst relative error {worst:.2e}")


def test_c07_supervised_overfit():
    started = time.monotonic()
    corpus = toy_grammar_corpus(50, seed=1)
    assert all(is_projective(s) for s in corpus)
    cfg = small_config(epochs=30, alpha=0.05, hidden=64, word_dim=16, feat_dim=8, dropout=0.1)
    tagger, _ = train_supervised(corpus, corpus[:10], "tagger", cfg)
    upos = score([decode(tagger, s).predicted for s in corpus], corpus).upos_accuracy
    parser, _ = train_supervised(corpus, corpus[:10], "parser", cfg)
    uas = score([decode(parser, s).predicted for s in corpus], corpus).uas
    elapsed = time.monotonic() - started
    assert upos >= 0.99, upos
    assert uas >= 0.95, uas
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(7, f"50-sentence overfit: train UPOS {upos:.3f}, train UAS {uas:.3f}, {elapsed:.0f}s")


def test_c08_rl_sanity_two_seeds():
    corpus = alternation_corpus(200, seed=0)
    dev = alternation_corpus(25, seed=101)
    finals = []
    for seed in (0, 1):
        cfg = small_config(
            epochs=100, alpha=0.02, hidden=32, word_dim=8, feat_dim=8,
            dropout=0.0, seed=seed, stop_score=1.0,
        )
        _, hist = train_rl(corpus, dev, "tagger", cfg, REGIME_RL)
        best = max(r["dev_upos"] for r in hist)
        assert best == 1.0, (seed, best)
        finals.append(len(hist))
    report(8, f"alternation language: dev UPOS 1.0 after {finals} epochs (seeds 0, 1)")


def test_c09_backtrack_benefit():
    corpus = lookahead_corpus(200, seed=0)
    dev = lookahead_corpus(40, seed=99)
    gaps = []
    for seed in (0, 1, 2):
        cfg = small_config(
            epochs=30, alpha=0.02, hidden=32, word_dim=8, feat_dim=8,
            dropout=0.0, seed=seed, k=1,
        )
        _, h_rl = train_rl(corpus, dev, "tagger", cfg, REGIME_RL)
        _, h_bt = train_rl(corpus, dev, "tagger", cfg, REGIME_RL_BACKTRACK)
        best_rl = max(r["dev_upos"] for r in h_rl)
        best_bt = max(r["dev_upos"] for r in h_bt)
        assert best_bt > best_rl, (seed, best_rl, best_bt)
        gaps.append(best_bt - best_rl)
    assert min(gaps) >= 0.10, gaps
    report(9, f"right-context task: undo beats no-undo by {[round(g, 3) for g in gaps]} UPOS")


def _drive(machine, sentence, actions):
    c = machine.initial(sentence)
    for a in actions:
        c = machine.apply(c, a)
    return DecodeResult(
        sentence=sentence,
        predicted=sentence,
        log=c.log,
        back_counts=c.back_counts,
        n_actions=len(c.log),
        machine=machine,
    )


def test_c10_back_stats_bookkeeping():
    m = Machine("tagger", k=1, tags=("A", "B"))
    s = simple_sent([0, 1], tag="A")
    corrected = _drive(
        m, s,
        [NOBACK, tag_action("B"), BACK, NOBACK, tag_action("A"), NOBACK, tag_action("A")],
    )
    stats = back_stats(m, [corrected], [s])
    assert (stats.b_prec, stats.b_rec, stats.ec) == (1.0, 1.0, 1.0)
    assert stats.cc == stats.ee == stats.ce == 0.0

    futile = _drive(
        m, s,
        [NOBACK, tag_action("A"), BACK, NOBACK, tag_action("A"), NOBACK, tag_action("A")],
    )
    stats = back_stats(m, [futile], [s])
    assert (stats.cc, stats.b_prec, stats.b_rec) == (1.0, 0.0, 0.0)

    # Mixed pair of traces, values computed by hand: two undo events, one
    # after an error (corrected), one after a correct span (reproduced).
    stats = back_stats(m, [corrected, futile], [s, s])
    assert stats.n_backs == 2
    assert stats.b_prec == 0.5 and stats.b_rec == 1.0
    assert stats.ec == 0.5 and stats.cc == 0.5 and stats.ee == stats.ce == 0.0

    # Category ratios partition the undo events on machine-generated traces.
    rng = random.Random(4)
    walk_results, golds = [], []
    m2 = Machine("tagparser", k=1, tags=TAGS)
    for _ in range(40):
        g = random_tagged_sentence(rng.randint(1, 7), rng, tags=TAGS)
        c = random_legal_walk(m2, g, rng, steps=400, back_bias=0.6)[-1]
        assert c.terminal
        walk_results.append(
            DecodeResult(sentence=g, predicted=g, log=c.log,
                         back_counts=c.back_counts, n_actions=len(c.log), machine=m2)
        )
        golds.append(g)
    full = back_stats(m2, walk_results, golds)
    assert full.n_backs > 0
    assert full.cc + full.ee + full.ce + full.ec == pytest.approx(1.0)
    assert full.ec <= full.b_prec  # corrected errors are a subset of error-undos
    report(10, f"hand-computed bPrec/bRec and categories exact; partition holds "
               f"({full.n_backs} undo events on random traces)")


def test_c11_determinism_and_serialization(tmp_path):
    corpus = lookahead_corpus(30, seed=2)
    cfg = small_config(epochs=3, hidden=16, word_dim=8, feat_dim=4, dropout=0.2, seed=5, k=1)
    m1, h1 = train_rl(corpus, corpus[:8], "tagger", cfg, REGIME_RL_BACKTRACK)
    m2, h2 = train_rl(corpus, corpus[:8], "tagger", cfg, REGIME_RL_BACKTRACK)
    assert h1 == h2
    p1, p2 = tmp_path / "run1.bpm", tmp_path / "run2.bpm"
    m1.save(p1)
    m2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    from backparse.neural import Model

    loaded = Model.load(p1)
    for s in corpus:
        a = decode(m1, s)
        b = decode(loaded, s)
        assert a.predicted == b.predicted
        assert [e.action for e in a.log] == [e.action for e in b.log]
    report(11, "same seed twice -> bit-identical models; save/load/decode exact")
