import copy
import math
import os
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from backparse.machine import BACK, ERASED, Machine, NOBACK, SHIFT, cell_is_value, tag_action
from backparse.neural import (
    BLOCK_ELEMS,
    DEFER_RANK,
    EMPTY_STACK,
    ERASED_SYM,
    FeatureExtractor,
    Grads,
    HISTORY_LEN,
    Model,
    NO_DEP_GOV,
    NOT_SEEN,
    OUT_OF_BOUNDS,
    PAD,
    QNetwork,
    SPECIALS,
    STACK_DEPTH,
    build_vocabs,
    cross_entropy,
    head_for_state,
    heads_for_kind,
    q_target,
    slot_layout,
    smooth_l1,
    supervised_update,
    tag_inventory,
    td_update,
)
from backparse.training import build_model
from helpers import (
    BAD_HEADER_NUMBERS,
    corrupt_model,
    dense_grads,
    dense_params,
    dense_w1,
    emb_grad_triples,
    random_legal_walk,
    random_tagged_sentence,
    sent,
    set_header_field,
    sgd_reference,
    simple_sent,
    small_config,
)

TAGS = ("<unk>", "A", "B")


def tiny_net(kind="tagger", hidden=8, seed=0, dtype=np.float64, n_tags=3):
    layout = slot_layout(kind)
    sizes = {"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9}
    dims = {"word": 6, "pos": 4, "letter": 3, "action": 5, "flag": 2}
    return QNetwork(
        layout=layout,
        vocab_sizes=sizes,
        space_dims=dims,
        hidden=hidden,
        heads=heads_for_kind(kind, n_tags),
        dropout=0.3,
        seed=seed,
        dtype=dtype,
    )


def random_ids(net, rng):
    sizes = {"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9}
    return np.array([rng.randrange(sizes[sp]) for sp, _ in net.layout], dtype=np.int64)


class TestFeatures:
    def make(self, kind, k=1):
        corpus = [sent(["the", "cat"], ["DET", "NOUN"], [2, 0])]
        tags = tag_inventory(corpus)
        vocabs = build_vocabs(corpus, tags)
        machine = Machine(kind, k=k, tags=() if kind == "parser" else tags)
        return FeatureExtractor(kind, vocabs), machine, corpus[0], vocabs

    def test_initial_window_unavailability(self):
        ex, m, s, vocabs = self.make("tagger")
        ids = ex.extract(m.initial(s), s, m)
        names = [name for _, name in ex.layout]
        pos_ids = {name: ids[i] for i, name in enumerate(names)}
        assert pos_ids["w-2.pos"] == vocabs["pos"].id(OUT_OF_BOUNDS)
        assert pos_ids["w-1.pos"] == vocabs["pos"].id(OUT_OF_BOUNDS)
        assert pos_ids["w+1.pos"] == vocabs["pos"].id(NOT_SEEN)
        assert pos_ids["w+2.pos"] == vocabs["pos"].id(OUT_OF_BOUNDS)
        assert pos_ids["w+0.form"] == vocabs["word"].id("the")

    def test_erased_tag_visible_after_back(self):
        ex, m, s, vocabs = self.make("tagger")
        c = m.initial(s)
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("NOUN"))
        c = m.apply(c, BACK)
        ids = ex.extract(c, s, m)
        slot = [name for _, name in ex.layout].index("w+0.pos")
        assert ids[slot] == vocabs["pos"].id(ERASED_SYM)

    def test_history_padding(self):
        ex, m, s, vocabs = self.make("tagger")
        c = m.apply(m.initial(s), NOBACK)
        ids = ex.extract(c, s, m)
        names = [name for _, name in ex.layout]
        hist = [ids[names.index(f"hist{i}")] for i in range(1, HISTORY_LEN + 1)]
        assert hist[0] == vocabs["action"].id("noback")
        assert all(h == vocabs["action"].id(PAD) for h in hist[1:])

    def test_empty_stack_markers(self):
        ex, m, s, vocabs = self.make("tagparser")
        c = m.initial(s)
        ids = ex.extract(c, s, m)
        names = [name for _, name in ex.layout]
        for r in (1, 2, 3):
            assert ids[names.index(f"s{r}.gov.pos")] == vocabs["pos"].id(EMPTY_STACK)

    def test_affix_padding_short_word(self):
        ex, m, s, vocabs = self.make("tagger")
        c = m.initial(s)  # current word "the", 3 letters
        ids = ex.extract(c, s, m)
        names = [name for _, name in ex.layout]
        assert ids[names.index("prefix4")] == vocabs["letter"].id(PAD)
        assert ids[names.index("suffix1")] == vocabs["letter"].id(PAD)
        assert ids[names.index("prefix1")] == vocabs["letter"].id("t")
        assert ids[names.index("suffix4")] == vocabs["letter"].id("e")

    def test_back_allowed_flag(self):
        ex, m, s, vocabs = self.make("tagger", k=1)
        c = m.initial(s)
        ids = ex.extract(c, s, m)
        assert ids[-1] == vocabs["flag"].id("0")  # nothing to undo yet
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("DET"))
        ids = ex.extract(c, s, m)
        assert ids[-1] == vocabs["flag"].id("1")

    def test_ids_of_the_last_configuration_are_reused(self):
        ex, m, s, vocabs = self.make("tagger", k=1)
        c = m.apply(m.apply(m.initial(s), NOBACK), tag_action("DET"))
        ids = ex.extract(c, s, m)
        assert ex.extract(c, s, m) is ids
        # The same configuration under another budget: the flag is recomputed.
        no_undo = Machine("tagger", k=0, tags=m.tags)
        assert ex.extract(c, s, no_undo)[-1] == vocabs["flag"].id("0")
        assert ex.extract(c, s, m)[-1] == vocabs["flag"].id("1")

    def test_every_slot_always_populated(self):
        rng = random.Random(8)
        corpus = [random_tagged_sentence(rng.randint(1, 7), rng) for _ in range(10)]
        tags = tag_inventory(corpus)
        vocabs = build_vocabs(corpus, tags)
        for kind in ("tagger", "parser", "tagparser"):
            m = Machine(kind, k=1, tags=() if kind == "parser" else tags)
            ex = FeatureExtractor(kind, vocabs)
            for s in corpus:
                for c in random_legal_walk(m, s, rng, steps=25):
                    if c.terminal:
                        continue
                    ids = ex.extract(c, s, m)
                    assert len(ids) == len(ex.layout)
                    assert all(0 <= i for i in ids)

    @staticmethod
    def reference_pos_id(kind, pos_v, c, s, p):
        if p < 1 or p > s.n:
            return pos_v.id(OUT_OF_BOUNDS)
        if p > c.frontier:
            return pos_v.id(NOT_SEEN)
        if kind == "parser":
            return pos_v.id(s.upos(p))
        cell = c.pos_tape[p - 1]
        if cell is ERASED:
            return pos_v.id(ERASED_SYM)
        return pos_v.id(cell) if cell_is_value(cell) else pos_v.id(NOT_SEEN)

    @pytest.mark.parametrize("kind", ["parser", "tagparser"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_dependent_slots_match_brute_force_scan(self, kind, k):
        rng = random.Random(31 + k)
        corpus = [random_tagged_sentence(rng.randint(2, 12), rng, projective=False)
                  for _ in range(12)]
        tags = tag_inventory(corpus)
        vocabs = build_vocabs(corpus, tags)
        pos_v = vocabs["pos"]
        m = Machine(kind, k=k, tags=() if kind == "parser" else tags)
        ex = FeatureExtractor(kind, vocabs)
        names = [name for _, name in ex.layout]
        erased_seen = spread_seen = 0
        for s in corpus:
            for c in random_legal_walk(m, s, rng, steps=120, back_bias=0.3):
                if c.terminal:
                    continue
                ids = ex.extract(c, s, m)
                erased_seen += ERASED in c.gov_tape
                for r in range(1, STACK_DEPTH + 1):
                    if r > len(c.stack):
                        want = [pos_v.id(EMPTY_STACK)] * 2
                    else:
                        e = c.stack[-r]
                        deps = [j + 1 for j, g in enumerate(c.gov_tape) if cell_is_value(g) and g == e]
                        spread_seen += len(deps) > 1
                        want = [self.reference_pos_id(kind, pos_v, c, s, pick(deps))
                                if deps else pos_v.id(NO_DEP_GOV) for pick in (min, max)]
                    got = [ids[names.index(f"s{r}.ldep.pos")], ids[names.index(f"s{r}.rdep.pos")]]
                    assert got == want, (c, r)
        assert erased_seen > 0 and spread_seen > 0


class TestQLegal:
    @pytest.mark.parametrize("kind", ["tagger", "parser", "tagparser"])
    def test_values_are_the_head_columns_of_the_legal_actions(self, kind):
        rng = random.Random(12)
        corpus = [random_tagged_sentence(rng.randint(1, 8), rng, projective=False)
                  for _ in range(6)]
        model = build_model(kind, corpus, small_config(hidden=8), k=2)
        m = model.machine
        for s in corpus:
            for c in random_legal_walk(m, s, rng, steps=60, back_bias=0.3):
                if c.terminal:
                    continue
                head = head_for_state(c.state)
                q, _ = model.net.forward(model.extractor.extract(c, s, m), head)
                legal, values = model.q_legal(c, s)
                assert legal == m.legal_actions(c)
                assert list(values) == [q[model.head_actions(head).index(a)] for a in legal]
                assert values.dtype == q.dtype


class TestLosses:
    def test_smooth_l1_quadratic_branch(self):
        loss, grad = smooth_l1(1.5, 1.0)
        assert loss == pytest.approx(0.125) and grad == pytest.approx(0.5)

    def test_smooth_l1_linear_branch(self):
        loss, grad = smooth_l1(4.0, 1.0)
        assert loss == pytest.approx(2.5) and grad == 1.0

    def test_smooth_l1_zero(self):
        loss, grad = smooth_l1(2.0, 2.0)
        assert loss == 0.0 and grad == 0.0

    def test_cross_entropy_uniform(self):
        loss, _ = cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(math.log(4))

    def test_cross_entropy_confident(self):
        logits = np.array([20.0, 0.0, 0.0])
        loss, _ = cross_entropy(logits, 0)
        assert loss == pytest.approx(0.0, abs=1e-6)


class TestQTarget:
    def test_bellman_arithmetic(self):
        assert q_target(-1.0, np.array([2.0, 1.0]), 0.9) == pytest.approx(0.8)

    def test_terminal_bootstrap(self):
        assert q_target(-1.0, None, 0.9) == -1.0

    def test_gamma_zero(self):
        assert q_target(-0.5, np.array([10.0]), 0.0) == -0.5


class TestForward:
    @pytest.mark.parametrize("kind", ["tagger", "parser", "tagparser"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_is_the_per_slot_embedding_concatenation(self, kind, dtype):
        net = tiny_net(kind, dtype=dtype)
        rng = random.Random(2)
        for _ in range(20):
            ids = random_ids(net, rng)
            _, (_, x, *_) = net.forward(ids, "back")
            want = np.concatenate([net.emb[sp][ids[i]] for i, (sp, _) in enumerate(net.layout)])
            assert x.dtype == want.dtype and x.tobytes() == want.tobytes()

    def test_deterministic_without_dropout(self):
        net = tiny_net()
        rng = random.Random(0)
        ids = random_ids(net, rng)
        q1, _ = net.forward(ids, "tag")
        q2, _ = net.forward(ids, "tag")
        assert np.array_equal(q1, q2)

    def test_back_head_width_two(self):
        net = tiny_net("tagparser")
        ids = random_ids(net, random.Random(1))
        q, _ = net.forward(ids, "back")
        assert q.shape == (2,)

    def test_zeroed_head_gives_zero_q(self):
        net = tiny_net()
        net.heads["tag"][0][...] = 0.0
        net.heads["tag"][1][...] = 0.0
        ids = random_ids(net, random.Random(2))
        q, _ = net.forward(ids, "tag")
        assert np.allclose(q, 0.0)


def rel_err(a, n):
    return abs(a - n) / max(1.0, abs(a), abs(n))


def numeric_grad(net, ids, head, loss_fn, eps=1e-6):
    grads = {}
    for name in net.param_names():
        param = net.get_param(name)
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            up = loss_fn(net.forward(ids, head)[0])
            param[idx] = orig - eps
            down = loss_fn(net.forward(ids, head)[0])
            param[idx] = orig
            g[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads[name] = g
    return grads


class TestGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_smooth_l1_gradcheck(self, seed):
        rng = random.Random(seed)
        net = tiny_net("tagparser", seed=seed)
        ids = random_ids(net, rng)
        target = rng.uniform(-2, 2)
        action = rng.randrange(4)

        q, cache = net.forward(ids, "parse")
        _, dpred = smooth_l1(q[action], target)
        dq = np.zeros_like(q)
        dq[action] = dpred
        analytic = dense_grads(net, net.backward(cache, dq))

        def loss_fn(qv):
            return smooth_l1(qv[action], target)[0]

        numeric = numeric_grad(net, ids, "parse", loss_fn)
        for name in analytic:
            worst = np.max(
                np.abs(analytic[name] - numeric[name])
                / np.maximum(1.0, np.maximum(np.abs(analytic[name]), np.abs(numeric[name])))
            )
            assert worst < 1e-4, (name, worst)

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_entropy_gradcheck(self, seed):
        rng = random.Random(seed + 50)
        net = tiny_net("tagger", seed=seed)
        ids = random_ids(net, rng)
        gold = rng.randrange(3)

        q, cache = net.forward(ids, "tag")
        _, dlogits = cross_entropy(q, gold)
        analytic = dense_grads(net, net.backward(cache, dlogits))

        def loss_fn(qv):
            return cross_entropy(qv, gold)[0]

        numeric = numeric_grad(net, ids, "tag", loss_fn)
        for name in analytic:
            worst = np.max(
                np.abs(analytic[name] - numeric[name])
                / np.maximum(1.0, np.maximum(np.abs(analytic[name]), np.abs(numeric[name])))
            )
            assert worst < 1e-4, (name, worst)

    def test_td_step_at_target_changes_nothing(self):
        net = tiny_net()
        ids = random_ids(net, random.Random(3))
        q, _ = net.forward(ids, "tag")
        before = net.copy_params()
        loss = td_update(net, ids, "tag", 1, float(q[1]), alpha=0.1)
        assert loss == 0.0
        after = net.copy_params()
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_td_step_reduces_loss(self):
        failures = 0
        for seed in range(200):
            rng = random.Random(seed)
            net = tiny_net(seed=seed)
            ids = random_ids(net, rng)
            target = rng.uniform(-3, 3)
            q, _ = net.forward(ids, "tag")
            before = smooth_l1(q[0], target)[0]
            td_update(net, ids, "tag", 0, target, alpha=1e-3)
            q2, _ = net.forward(ids, "tag")
            after = smooth_l1(q2[0], target)[0]
            if before > 1e-12 and after >= before:
                failures += 1
        assert failures <= 2  # >= 99% of single steps reduce their own loss

    def test_repeated_supervised_updates_drive_loss_down(self):
        net = tiny_net("tagger", seed=9)
        ids = random_ids(net, random.Random(9))
        losses = [supervised_update(net, [(ids, "tag", 2)], alpha=0.05) for _ in range(150)]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.05


class TestUpdate:
    def test_initial_weights_are_one_stream_of_draws(self):
        # w1 is drawn in four row blocks, the last one ragged; the weights
        # must be those of one call per tensor.
        net = tiny_net("tagger", hidden=BLOCK_ELEMS // 40, seed=3, dtype=np.float32)
        assert net.input_dim > 3 * len(net._block) and net.input_dim % len(net._block)
        rng = np.random.default_rng(3)
        expected = {f"emb:{sp}": rng.normal(0.0, 0.1, t.shape).astype(np.float32) for sp, t in net.emb.items()}
        lim = np.sqrt(6.0 / (net.input_dim + net.hidden))
        expected["w1"] = rng.uniform(-lim, lim, net.w1.shape).astype(np.float32)
        for name in sorted(net.heads):
            w = net.heads[name][0]
            lim = np.sqrt(6.0 / (net.hidden + w.shape[1]))
            expected[f"head:{name}:w"] = rng.uniform(-lim, lim, w.shape).astype(np.float32)
        for name, want in expected.items():
            assert np.array_equal(net.get_param(name), want), name

    def test_td_update_makes_no_dense_w1_gradient(self):
        dims = {"word": 32, "pos": 16, "letter": 16, "action": 16, "flag": 16}
        net = QNetwork(
            layout=slot_layout("tagparser"),
            vocab_sizes={"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9},
            space_dims=dims,
            hidden=2048,
            heads=heads_for_kind("tagparser", 3),
        )
        assert net.input_dim == 688
        ids = random_ids(net, random.Random(4))
        # One dense w1 gradient alone would take w1.nbytes.
        tracemalloc.start()
        try:
            td_update(net, ids, "parse", 1, 3.0, alpha=0.01, drop_rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < net.w1.nbytes / 2, (peak, net.w1.nbytes)

    def test_batch_step_is_the_mean_example_gradient(self):
        net = tiny_net("tagparser", seed=5)
        rng = random.Random(5)
        batch = [(random_ids(net, rng), "tag", 2), (random_ids(net, rng), "parse", 1),
                 (random_ids(net, rng), "tag", 0)]
        before = net.copy_params()
        total = {name: np.zeros_like(p) for name, p in before.items()}
        drop = np.random.default_rng(11)
        for ids, head, gold in batch:
            q, cache = net.forward(ids, head, drop)
            _, dlogits = cross_entropy(q, gold)
            for name, g in dense_grads(net, net.backward(cache, dlogits)).items():
                total[name] += g
        alpha = 0.1
        supervised_update(net, batch, alpha, drop_rng=np.random.default_rng(11))
        for name in net.param_names():
            expected = before[name] - (alpha / 3) * total[name]
            worst = np.max(np.abs(net.get_param(name) - expected) / np.maximum(1.0, np.abs(expected)))
            assert worst < 1e-12, (name, worst)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_non_finite_supervised_step_raises(self, batch_size):
        net = tiny_net("tagger", seed=4)
        net.w1[0, 0] = np.nan
        rng = random.Random(4)
        batch = [(random_ids(net, rng), "tag", 1) for _ in range(batch_size)]
        before = net.copy_params()
        with pytest.raises(FloatingPointError, match="non-finite"):
            supervised_update(net, batch, 0.1, drop_rng=np.random.default_rng(0))
        after = net.copy_params()
        assert all(np.array_equal(before[n], after[n], equal_nan=True) for n in before)


def wide_net(seed=0, hidden=6144, dtype=np.float32):
    """A tagparser network with a 688 x hidden w1; at the default hidden a
    fold updates it in 33 blocks of rows, the last one ragged."""
    dims = {"word": 32, "pos": 16, "letter": 16, "action": 16, "flag": 16}
    return QNetwork(
        layout=slot_layout("tagparser"),
        vocab_sizes={"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9},
        space_dims=dims,
        hidden=hidden,
        heads=heads_for_kind("tagparser", 3),
        seed=seed,
        dtype=dtype,
    )


def td_steps(net, steps, seed=0):
    """`steps` TD updates with dropout on varied ids, heads and targets."""
    rng, drop = random.Random(seed), np.random.default_rng(seed)
    for i in range(steps):
        head = ("parse", "tag", "back")[i % 3]
        td_update(net, random_ids(net, rng), head, i % net.head_sizes[head],
                  rng.uniform(-2.0, 2.0), alpha=0.02, drop_rng=drop)


class TestDeferredUpdate:
    @pytest.mark.parametrize("batch", [1, 3, 70])
    @pytest.mark.parametrize("hidden", [64, 6144])
    def test_step_matches_a_dense_float64_sgd_step(self, hidden, batch):
        # Desk size (688 x 64) and wide, with DEFER_RANK - 2 pairs pending:
        # batch 1 appends its pair; batch 3 folds, then appends; batch 70
        # folds, appends 32, folds, appends 32, folds and appends 6.
        net = wide_net(seed=9, hidden=hidden, dtype=np.float64)
        td_steps(net, DEFER_RANK - 2, seed=9)
        assert net._pending == DEFER_RANK - 2
        rng, drop = random.Random(10), np.random.default_rng(10)
        parts = []
        for i in range(batch):
            head = ("parse", "tag", "back")[i % 3]
            q, cache = net.forward(random_ids(net, rng), head, drop)
            parts.append(net.backward(cache, cross_entropy(q, i % net.head_sizes[head])[1]))
        grads, step = Grads.join(parts), 0.1 / batch
        want = sgd_reference(net, dense_params(net), grads, step)
        net.apply_grads(grads, step)
        assert net._pending == {1: DEFER_RANK - 1, 3: 3, 70: 70 - 2 * DEFER_RANK}[batch]
        got = dense_params(net)
        for name in net.param_names():
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(net.w1, want["w1"], rtol=1e-10, atol=1e-12)  # folded

    def test_forward_dx_and_q_match_a_dense_reference(self):
        net = wide_net(seed=1)
        td_steps(net, DEFER_RANK // 2 + 3, seed=1)
        assert net._pending == DEFER_RANK // 2 + 3
        w1 = dense_w1(net)
        ids = random_ids(net, random.Random(2))
        q, cache = net.forward(ids, "parse")
        x = cache[1].astype(np.float64)
        h = x @ w1 + net.b1
        w, b = net.heads["parse"]
        np.testing.assert_allclose(cache[2], h, rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(q, np.maximum(h, 0) @ w + b, rtol=1e-4, atol=1e-6)
        # dx, read through the embedding update it drives (no dropout, so
        # no mask): each slot's row moves by -step * (w1 @ dh)[its columns].
        grads = net.backward(cache, np.array([0.0, 1.0, 0.0, 0.0]))
        dx = w1 @ grads.dh[0].astype(np.float64)
        expected = {sp: t.astype(np.float64) for sp, t in net.emb.items()}
        off = 0
        for i, (sp, _) in enumerate(net.layout):
            width = net.space_dims[sp]
            expected[sp][ids[i]] -= 0.5 * dx[off : off + width]
            off += width
        net.apply_grads(grads, 0.5)
        assert net._pending == DEFER_RANK // 2 + 4
        for sp, table in net.emb.items():
            np.testing.assert_allclose(table, expected[sp], rtol=1e-5, atol=1e-7, err_msg=sp)
        np.testing.assert_allclose(net.w1, w1 - 0.5 * np.outer(cache[1], grads.dh[0]), rtol=1e-5, atol=1e-7)

    def test_seeded_runs_are_byte_identical(self):
        a, b = wide_net(seed=4), wide_net(seed=4)
        td_steps(a, DEFER_RANK + 5, seed=5)
        td_steps(b, DEFER_RANK + 5, seed=5)
        for name in a.param_names():
            assert a.get_param(name).tobytes() == b.get_param(name).tobytes(), name

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_trains_like_a_built_twin(self, how):
        # Copied with pairs pending, the copy's tables must stay views of
        # its own flat buffer, so that its embedding updates reach the
        # weights forward reads.
        duplicate = copy.deepcopy if how == "deepcopy" else lambda net: pickle.loads(pickle.dumps(net))
        net, twin = wide_net(seed=6, hidden=64), wide_net(seed=6, hidden=64)
        td_steps(net, 5, seed=6)
        td_steps(twin, 5, seed=6)
        dup = duplicate(net)
        assert dup._pending == 5
        assert all(np.shares_memory(t, dup._emb_flat) for t in dup.emb.values())
        td_steps(dup, DEFER_RANK + 5, seed=7)
        td_steps(twin, DEFER_RANK + 5, seed=7)
        for name in twin.param_names():
            assert dup.get_param(name).tobytes() == twin.get_param(name).tobytes(), name
        # The precomputed table is not copied; a copy builds its own.
        twin.precompute()
        assert twin.table is not None and duplicate(twin).table is None

    @pytest.mark.parametrize("reader", ["get_param", "copy_params", "save", "precompute"])
    def test_readers_see_folded_weights(self, tmp_path, reader):
        corpus = [random_tagged_sentence(5, random.Random(4)) for _ in range(5)]
        model = build_model("tagparser", corpus, small_config(hidden=6144, word_dim=32, feat_dim=16), k=1)
        net = model.net
        assert net.table_fits
        rng, drop = random.Random(6), np.random.default_rng(6)
        sizes = {sp: len(t) for sp, t in net.emb.items()}
        for i in range(5):
            ids = np.array([rng.randrange(sizes[sp]) for sp, _ in net.layout])
            td_update(net, ids, "parse", i % 4, 1.0, alpha=0.02, drop_rng=drop)
        assert net._pending == 5
        want = dense_w1(net)
        if reader == "get_param":
            w1 = net.get_param("w1")
        elif reader == "copy_params":
            w1 = net.copy_params()["w1"]
        elif reader == "save":
            model.save(tmp_path / "m.bpm")
            w1 = Model.load(tmp_path / "m.bpm").net.w1
            assert np.array_equal(w1, net.w1)
        else:
            net.precompute()
            (sp, lo, hi), base = net._offsets[0], net._table_base[0]
            rows = net.table[base : base + len(net.emb[sp])]
            np.testing.assert_allclose(rows, net.emb[sp] @ want[lo:hi], rtol=1e-4, atol=1e-6)
            w1 = net.w1
        assert net._pending == 0
        np.testing.assert_allclose(w1, want, rtol=1e-6, atol=1e-7)

    def test_set_params_drops_pending_factors(self, monkeypatch):
        net = wide_net(seed=7)
        td_steps(net, 3, seed=7)
        params = net.copy_params()
        td_steps(net, 4, seed=8)
        assert net._pending == 4
        # Folding factors that are about to be overwritten would be a wasted
        # pass over w1.
        monkeypatch.setattr(net, "_fold", lambda: pytest.fail("set_params folded"))
        net.set_params(params)
        assert net._pending == 0 and net._u is None and net._v is None
        for name in net.param_names():
            assert np.array_equal(net.get_param(name), params[name]), name

    def test_td_update_peak_memory(self):
        # The first deferred update makes the factor buffers and the
        # (DEFER_RANK + 1)-th folds them; neither may hold a w1-sized array.
        net = wide_net(seed=8)
        limit = net.w1.nbytes / 4
        rng, drop = random.Random(8), np.random.default_rng(8)
        peaks = []
        tracemalloc.start()
        try:
            for i in range(DEFER_RANK + 1):
                tracemalloc.reset_peak()
                td_update(net, random_ids(net, rng), "parse", i % 4, 1.0, alpha=0.02, drop_rng=drop)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert net._pending == 1
        assert max(peaks) < limit, (max(peaks), limit)


def emb_triples(net, ids, cache, grads):
    """The (space, row, vector) triples of one example, one per slot, with
    dx recomputed from the cache as w1 @ dh times the input dropout mask."""
    dx = (net.w1 @ grads.dh[0]).astype(net.dtype)
    if cache[5] is not None:
        dx = dx * cache[5]
    triples, off = [], 0
    for i, (sp, _) in enumerate(net.layout):
        width = net.space_dims[sp]
        triples.append((sp, int(ids[i]), dx[off : off + width]))
        off += width
    return triples


def repeating_ids(net, rng):
    """Random ids with PAD in every history slot, a repeat within one run
    of slots, and one pos id shared by a window slot and a stack slot, a
    repeat across runs."""
    names = [name for _, name in net.layout]
    ids = random_ids(net, rng)
    for i, name in enumerate(names):
        if name.startswith("hist"):
            ids[i] = SPECIALS.index(PAD)
    ids[names.index("s1.gov.pos")] = ids[names.index("w+0.pos")]
    return ids


class TestEmbeddingUpdate:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_scatter_update_equals_per_row_loop_bit_for_bit(self, batch):
        net = tiny_net("tagparser", dtype=np.float32)
        rng, drop = random.Random(8), np.random.default_rng(8)
        examples = [(repeating_ids(net, rng), head, gold)
                    for head, gold in (("tag", 1), ("parse", 3), ("tag", 0))[:batch]]
        grads = []
        for ids, head, gold in examples:
            q, cache = net.forward(ids, head, drop)
            grads.append(net.backward(cache, cross_entropy(q, gold)[1]))
        rows = [(sp, row) for g in grads for sp, row, _ in emb_grad_triples(net, g)]
        per_example = len(net.layout)
        assert len(set(rows[:per_example])) < per_example
        if batch > 1:
            assert set(rows[:per_example]) & set(rows[per_example:])

        step = 0.5 / batch
        expected = net.copy_params()
        for g in grads:
            for sp, row, vec in emb_grad_triples(net, g):
                expected[f"emb:{sp}"][row] -= step * vec
        net.apply_grads(Grads.join(grads), 0.5 * (1.0 / batch))
        for sp in net.emb:
            assert net.emb[sp].dtype == np.float32
            assert np.array_equal(net.emb[sp], expected[f"emb:{sp}"]), sp

    def test_emb_grad_yields_the_per_slot_triples(self):
        net = tiny_net("tagparser", dtype=np.float32)
        rng, drop = random.Random(7), np.random.default_rng(7)
        grads, expected = [], []
        for head, gold in (("tag", 1), ("parse", 3), ("back", 0)):
            ids = random_ids(net, rng)
            q, cache = net.forward(ids, head, drop)
            g = net.backward(cache, cross_entropy(q, gold)[1])
            grads.append(g)
            expected.append(emb_triples(net, ids, cache, g))

        def same(got, want):
            assert len(got) == len(want)
            for (sp, row, vec), (sp2, row2, vec2) in zip(got, want):
                assert sp == sp2 and type(row) is int and row == row2
                assert vec.dtype == vec2.dtype and np.array_equal(vec, vec2)

        for g, want in zip(grads, expected):
            same(list(emb_grad_triples(net, g)), want)
        same(list(emb_grad_triples(net, Grads.join(grads))), [t for want in expected for t in want])

    @pytest.mark.parametrize("batch", [1, 3])
    def test_blocked_dx_is_one_gemv_over_w1_before_the_update(self, batch):
        # A w1 that folds in several row blocks, the last one ragged, with
        # input dropout: dx must be, bit for bit, the whole w1 @ dh taken
        # before the step.  The folded w1 rounds otherwise than the summed
        # outer products, so it is checked against float64.
        net = tiny_net("tagparser", hidden=BLOCK_ELEMS // 40, dtype=np.float32)
        rows = len(net._block)
        assert net.input_dim > 3 * rows and net.input_dim % rows
        rng, drop = random.Random(12), np.random.default_rng(12)
        grads, examples = [], []
        for head, gold in (("tag", 1), ("parse", 3), ("back", 0))[:batch]:
            ids = repeating_ids(net, rng)
            q, cache = net.forward(ids, head, drop)
            g = net.backward(cache, cross_entropy(q, gold)[1])
            assert cache[5] is not None
            grads.append(g)
            examples.append((ids, (net.w1 @ g.dh[0]) * cache[5]))
        total = Grads.join(grads)

        step = 0.5 * (1.0 / batch)
        expected = net.copy_params()
        w1 = expected.pop("w1").astype(np.float64) - step * (total.x.T.astype(np.float64) @ total.dh)
        expected["b1"] -= step * sum(g.dh[0] for g in grads)
        for head, (w, b) in total.heads.items():
            expected[f"head:{head}:w"] -= step * w
            expected[f"head:{head}:b"] -= step * b
        triples = []
        for ids, dx in examples:
            for i, (sp, _) in enumerate(net.layout):
                lo, hi = net._offsets[i][1:]
                triples.append((sp, int(ids[i]), dx[lo:hi]))
                expected[f"emb:{sp}"][ids[i]] -= step * dx[lo:hi]
        # Before the update, the gradient still iterates as these triples.
        got = list(emb_grad_triples(net, total))
        assert [(sp, row) for sp, row, _ in got] == [(sp, row) for sp, row, _ in triples]
        assert all(np.array_equal(v, w) for (_, _, v), (_, _, w) in zip(got, triples))

        net.apply_grads(total, step)
        for name in expected:
            assert np.array_equal(net.get_param(name), expected[name]), name
        np.testing.assert_allclose(net.w1, w1, rtol=1e-6, atol=1e-8)

    def test_tables_stay_views_of_one_buffer(self, tmp_path):
        corpus = [random_tagged_sentence(5, random.Random(4)) for _ in range(5)]
        model = build_model("tagparser", corpus, small_config(), k=1)
        net = model.net

        def one_buffer(net):
            return (sum(t.size for t in net.emb.values()) == net._emb_flat.size
                    and all(np.shares_memory(t, net._emb_flat) for t in net.emb.values()))

        assert one_buffer(net)
        net.set_params({name: p * 0.5 for name, p in net.copy_params().items()})
        assert one_buffer(net)
        m, s = model.machine, corpus[0]
        ids = model.extractor.extract(m.initial(s), s, m)
        flat = net._emb_flat.copy()
        supervised_update(net, [(ids, "tag", 1)], alpha=0.1)
        assert one_buffer(net) and not np.array_equal(flat, net._emb_flat)

        model.save(tmp_path / "m.bpm")
        loaded = Model.load(tmp_path / "m.bpm")
        assert one_buffer(loaded.net)
        for head in net.heads:
            assert np.array_equal(net.forward(ids, head)[0], loaded.net.forward(ids, head)[0])


class TestSerialization:
    def test_save_load_bit_exact(self, tmp_path):
        corpus = [random_tagged_sentence(5, random.Random(4)) for _ in range(5)]
        model = build_model("tagparser", corpus, small_config(), k=1)
        path = tmp_path / "m.bpm"
        model.save(path)
        loaded = Model.load(path)
        for name in model.net.param_names():
            assert np.array_equal(model.net.get_param(name), loaded.net.get_param(name))
        assert loaded.machine == model.machine
        assert loaded.gamma == model.gamma
        assert loaded.extractor.layout == model.extractor.layout
        for sp in model.extractor.vocabs:
            assert loaded.extractor.vocabs[sp].symbols == model.extractor.vocabs[sp].symbols

    def test_save_twice_identical_bytes(self, tmp_path):
        corpus = [random_tagged_sentence(4, random.Random(6)) for _ in range(4)]
        model = build_model("tagger", corpus, small_config(), k=0)
        p1, p2 = tmp_path / "a.bpm", tmp_path / "b.bpm"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        corpus = [random_tagged_sentence(4, random.Random(6)) for _ in range(4)]
        model = build_model("tagger", corpus, small_config(), k=0)
        path = tmp_path / "m.bpm"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            Model.load(path)

    def test_load_draws_no_random_weights(self, tmp_path):
        # Loading allocates the network and copies each tensor in; drawing
        # random weights first made a float64 w1 temporary (twice w1) and
        # reading the payload whole held it, briefly twice, beside the net.
        corpus = [random_tagged_sentence(5, random.Random(4)) for _ in range(5)]
        model = build_model("tagparser", corpus, small_config(hidden=2048, word_dim=32, feat_dim=16), k=1)
        assert model.net.input_dim == 688
        path = tmp_path / "m.bpm"
        model.save(path)
        tracemalloc.start()
        try:
            loaded = Model.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.net.w1, model.net.w1)
        assert peak < 3 * model.net.w1.nbytes, (peak, model.net.w1.nbytes)

    def test_load_reads_each_tensor_in_place(self, tmp_path):
        # Each tensor is read into the network's own array; a staging copy
        # of w1's bytes alone would take the peak past 1.5 x w1.
        corpus = [random_tagged_sentence(5, random.Random(4)) for _ in range(5)]
        model = build_model("tagparser", corpus, small_config(hidden=2048, word_dim=32, feat_dim=16), k=1)
        assert model.net.input_dim == 688
        path = tmp_path / "m.bpm"
        model.save(path)
        tracemalloc.start()
        try:
            loaded = Model.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for name in model.net.param_names():
            assert np.array_equal(loaded.net.get_param(name), model.net.get_param(name)), name
        assert peak < 1.5 * model.net.w1.nbytes, (peak, model.net.w1.nbytes)

    def test_short_read_names_file_and_tensor(self, tmp_path, monkeypatch):
        # A payload that ends early although the header check passed (the
        # file shrank after it was sized): the read of the last tensor
        # comes up short.
        corpus = [random_tagged_sentence(4, random.Random(6)) for _ in range(4)]
        model = build_model("tagparser", corpus, small_config(), k=1)
        path = tmp_path / "m.bpm"
        model.save(path)
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat

        def fstat(fd):
            st = tuple(real_fstat(fd))
            return os.stat_result(st[:6] + (st[6] + 8,) + st[7:])

        monkeypatch.setattr(os, "fstat", fstat)
        last = model.net.param_names()[-1]
        with pytest.raises(ValueError, match=f"tensor {last} ends after") as info:
            Model.load(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)

    @pytest.mark.parametrize("key,value", BAD_HEADER_NUMBERS)
    def test_header_number_out_of_range_rejected(self, tmp_path, key, value):
        corpus = [random_tagged_sentence(4, random.Random(6)) for _ in range(4)]
        path = tmp_path / "m.bpm"
        build_model("tagparser", corpus, small_config(), k=1).save(path)
        set_header_field(path, key, value)
        with pytest.raises(ValueError, match=f"{key} must be") as info:
            Model.load(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "case,message",
        [("missing-hidden", "lacks hidden"), ("short-layout", "layout"), ("nan-weight", "non-finite")],
    )
    def test_malformed_file_is_one_value_error_naming_it(self, tmp_path, case, message):
        corpus = [random_tagged_sentence(4, random.Random(6)) for _ in range(4)]
        path = tmp_path / "m.bpm"
        build_model("tagparser", corpus, small_config(), k=1).save(path)
        corrupt_model(path, case)
        with pytest.raises(ValueError, match=message) as info:
            Model.load(path)
        assert str(info.value).startswith(f"{path}: ")
