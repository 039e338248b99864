import gc
import hashlib
import random
import tracemalloc
import warnings
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backparse import training
from backparse.machine import BACK, BACK_STATE, Configuration, Machine, NOBACK, max_actions
from backparse.neural import (
    BACK_ACTIONS,
    HEAD_BACK,
    Model,
    QNetwork,
    head_for_state,
    heads_for_kind,
    load_word_vectors,
    slot_layout,
    supervised_update,
    td_update,
)
from backparse.oracle import oracle_action
from backparse.training import (
    REGIME_RL,
    REGIME_RL_BACKTRACK,
    REGIME_SUP,
    ExplorationSchedule,
    build_model,
    decode,
    decode_corpus,
    schedule_defaults,
    select_action,
    train_rl,
    train_supervised,
)
from helpers import (
    alternation_corpus,
    lookahead_corpus,
    random_legal_walk,
    random_projective_heads,
    random_tagged_sentence,
    sent,
    simple_sent,
    small_config,
    toy_grammar_corpus,
)

# Exploration curve anchor points (epoch, epsilon, beta).
CURVE_POINTS = [
    (1, 0.6, 0.3),
    (5, 0.28, 0.04),
    (10, 0.15, 0.0),
    (20, 0.1, 0.0),
]


class TestSchedule:
    @pytest.mark.parametrize("epoch,eps,beta", CURVE_POINTS)
    def test_anchor_points(self, epoch, eps, beta):
        e, b = schedule_defaults(epoch)
        assert e == pytest.approx(eps, abs=0.01)
        assert b == pytest.approx(beta, abs=0.01)

    def test_monotone_and_bounded(self):
        sched = ExplorationSchedule()
        values = [(sched.epsilon(t), sched.beta(t)) for t in range(1, 200)]
        for (e1, b1), (e2, b2) in zip(values, values[1:]):
            assert e2 <= e1 + 1e-12 and b2 <= b1 + 1e-12
            assert (1 - e2 - b2) >= (1 - e1 - b1) - 1e-12
        assert all(0 <= e <= 1 and 0 <= b <= 1 and e + b <= 1 for e, b in values)


class TestSelectAction:
    def setup_method(self):
        self.corpus = alternation_corpus(5, seed=3)
        self.model = build_model("tagger", self.corpus, small_config(), k=0)
        self.machine = self.model.machine
        self.s = self.corpus[0]
        c = self.machine.initial(self.s)
        self.c = self.machine.apply(c, NOBACK)

    def test_epsilon_one_is_uniform_over_legal(self):
        rng = np.random.default_rng(0)
        legal = set(self.machine.legal_actions(self.c))
        seen = {select_action(self.model, self.machine, self.c, self.s, 1.0, 0.0, rng)
                for _ in range(200)}
        assert seen == legal

    def test_beta_one_is_oracle(self):
        rng = np.random.default_rng(0)
        gold = oracle_action(self.c, self.s, self.machine)
        for _ in range(20):
            assert select_action(self.model, self.machine, self.c, self.s, 0.0, 1.0, rng) == gold

    def test_exploit_is_greedy_argmax(self):
        rng = np.random.default_rng(0)
        a = select_action(self.model, self.machine, self.c, self.s, 0.0, 0.0, rng)
        legal, q = self.model.q_legal(self.c, self.s)
        assert a == legal[int(np.argmax(q))]


class TestSupervised:
    def test_two_epochs_is_pure_static(self):
        corpus = toy_grammar_corpus(10, seed=2)
        model, hist = train_supervised(corpus, [], "tagger", small_config(epochs=2))
        assert len(hist) == 2

    def test_deterministic_across_runs(self):
        corpus = toy_grammar_corpus(12, seed=4)
        cfg = small_config(epochs=4, dropout=0.2)
        m1, h1 = train_supervised(corpus, corpus[:4], "tagparser", cfg)
        m2, h2 = train_supervised(corpus, corpus[:4], "tagparser", cfg)
        assert h1 == h2
        for name in m1.net.param_names():
            assert np.array_equal(m1.net.get_param(name), m2.net.get_param(name))

    def test_overfits_single_sentence(self):
        corpus = toy_grammar_corpus(1, seed=8)
        cfg = small_config(epochs=12, alpha=0.1, hidden=32, dropout=0.0)
        model, _ = train_supervised(corpus, corpus, "tagparser", cfg)
        res = decode(model, corpus[0])
        assert res.predicted.tags == corpus[0].tags
        assert res.predicted.heads == corpus[0].heads

    def test_rejects_fully_nonprojective_parser_corpus(self):
        corpus = [simple_sent([0, 4, 1, 2])]
        with pytest.raises(ValueError, match="projective"):
            train_supervised(corpus, [], "parser", small_config(epochs=1))

    def test_nonprojective_sentences_join_the_dynamic_phase(self):
        corpus = toy_grammar_corpus(6, seed=3) + [simple_sent([0, 4, 1, 2])]
        cfg = small_config(epochs=4, hidden=16, word_dim=8, feat_dim=4)
        model, hist = train_supervised(corpus, [], "parser", cfg)
        assert len(hist) == 4  # the non-projective sentence never crashes labelling

    def test_supervised_machine_never_backtracks(self):
        corpus = toy_grammar_corpus(8, seed=7)
        model, _ = train_supervised(corpus, [], "tagger", small_config(epochs=2))
        assert model.machine.k == 0
        for s in corpus:
            res = decode(model, s)
            assert all(e.action.kind != "back" for e in res.log)


class TestRL:
    def test_rl_regime_never_backtracks(self):
        corpus = alternation_corpus(20, seed=5)
        cfg = small_config(epochs=2, hidden=16, word_dim=8)
        model, _ = train_rl(corpus, [], "tagger", cfg, REGIME_RL)
        assert model.machine.k == 0
        for r in decode_corpus(model, corpus):
            assert all(e.action.kind != "back" for e in r.log)

    def test_rl_backtrack_validates_budget(self):
        corpus = alternation_corpus(5, seed=5)
        with pytest.raises(ValueError, match="k >= 1"):
            train_rl(corpus, [], "tagger", small_config(epochs=1, k=0), REGIME_RL_BACKTRACK)

    def test_bad_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            train_rl([], [], "tagger", small_config(), "sup")

    @pytest.mark.parametrize("regime", [REGIME_RL, REGIME_RL_BACKTRACK])
    def test_batch_size_rejected(self, regime):
        corpus = alternation_corpus(5, seed=5)
        with pytest.raises(ValueError, match="batch_size 7 is supervised-only"):
            train_rl(corpus, [], "tagger", small_config(epochs=1, k=1, batch_size=7), regime)

    def test_deterministic_across_runs(self):
        corpus = lookahead_corpus(15, seed=1)
        cfg = small_config(epochs=3, hidden=16, word_dim=8, dropout=0.1, k=1)
        m1, h1 = train_rl(corpus, corpus[:5], "tagger", cfg, REGIME_RL_BACKTRACK)
        m2, h2 = train_rl(corpus, corpus[:5], "tagger", cfg, REGIME_RL_BACKTRACK)
        assert h1 == h2
        for name in m1.net.param_names():
            assert np.array_equal(m1.net.get_param(name), m2.net.get_param(name))


class TestDecode:
    def make_model(self, k=1):
        corpus = alternation_corpus(10, seed=6)
        return build_model("tagger", corpus, small_config(), k=k), corpus

    def test_k_zero_trace_has_no_backs(self):
        model, corpus = self.make_model(k=1)
        for s in corpus:
            res = decode(model, s, k=0)
            assert all(e.action.kind != "back" for e in res.log)

    def test_action_count_within_bound(self):
        model, corpus = self.make_model(k=1)
        for s in corpus:
            res = decode(model, s)
            assert res.n_actions <= max_actions(s.n, 1, "tagger")

    def test_decode_is_deterministic(self):
        model, corpus = self.make_model()
        a = decode(model, corpus[0])
        b = decode(model, corpus[0])
        assert a.predicted == b.predicted and a.log == b.log

    def test_log_entries_keep_no_configuration_alive(self):
        # A result outlives its decode; an entry that pointed at a
        # configuration would keep every configuration of the decode alive.
        corpus = toy_grammar_corpus(8, seed=9)
        model = build_model("tagparser", corpus, small_config(), k=1)
        model.net.heads[HEAD_BACK][1][BACK_ACTIONS.index(BACK)] = 0.5  # let BACK fire
        results = decode_corpus(model, corpus)
        assert any(e.action == BACK for r in results for e in r.log)
        for entry in (e for r in results for e in r.log):
            refs = gc.get_referents(entry)
            refs += [v for r in refs if isinstance(r, dict) for v in r.values()]
            assert not any(isinstance(x, Configuration) for x in refs)

    def test_predictions_cover_every_token(self):
        corpus = toy_grammar_corpus(6, seed=9)
        model = build_model("tagparser", corpus, small_config(), k=1)
        for s in corpus:
            res = decode(model, s)
            assert all(t.upos is not None for t in res.predicted.tokens)
            assert all(0 <= t.head <= s.n for t in res.predicted.tokens)


class TestDecodeBudgetOverride:
    def test_k_override_equals_model_with_that_budget(self):
        corpus = toy_grammar_corpus(8, seed=9)
        model = build_model("tagparser", corpus, small_config(), k=1)
        model.net.heads[HEAD_BACK][1][BACK_ACTIONS.index(BACK)] = 0.5  # let BACK fire
        own = model.machine
        backs = {}
        for j in (0, 1, 2):
            with_budget = replace(model, machine=replace(own, k=j))
            results = [decode(model, s, k=j) for s in corpus]
            assert results == [decode(with_budget, s) for s in corpus]
            assert all(r.machine.k == j for r in results)
            backs[j] = sum(e.action == BACK for r in results for e in r.log)
        assert model.machine is own and own.k == 1
        assert backs[0] == 0 and backs[2] > backs[1] > 0


class TestGoldenDecode:
    """Seeded hidden-8 models of every kind and budget decode a fixed set
    of sentences; the digest of their action logs, heads and tags was
    computed before the per-decision scoring path was optimised, so any
    change to what decode does shows here."""

    DIGEST = "ec13fc80de50bfb44d5b9986e940dad27a311980b80fa3bff35c7a9da6d47f3b"

    def test_decodes_match_recorded_digest(self):
        rng = random.Random(5)
        corpus = (
            toy_grammar_corpus(6, seed=9)
            + alternation_corpus(3, seed=6)
            + lookahead_corpus(3, seed=2)
            + [random_tagged_sentence(n, rng, projective=False) for n in (1, 4, 9, 14)]
        )
        lines = []
        for kind in ("tagger", "parser", "tagparser"):
            for k in (0, 1, 2):
                model = build_model(kind, corpus, small_config(hidden=8), k=k)
                for s in corpus:
                    res = decode(model, s)
                    lines.append(" ".join(
                        [kind, str(k), "|", *(e.action.symbol for e in res.log), "|",
                         *(f"{t.head}/{t.upos}" for t in res.predicted.tokens)]
                    ))
        backs = sum(line.count(" back ") for line in lines)
        assert backs > 0
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST


class TestGoldenTraining:
    """Desk-size (hidden 64, word 32, feature 16) tagparser models trained
    with batch-1 supervised steps and with rl-backtrack TD steps; the
    digest of their saved bytes pins how the deferred w1 update rounds
    (recorded with numpy 2.4.6 and one BLAS thread).  A change that rounds
    otherwise re-records it and must still match the float64 SGD reference
    (test_neural.py, test_step_matches_a_dense_float64_sgd_step)."""

    DIGEST = "7dbb437f7a7997d0b9d7191092c074819cdf2256cba73922d21ce7b370201d54"

    def test_model_bytes_match_recorded_digest(self, tmp_path):
        corpus = toy_grammar_corpus(8, seed=11)
        cfg = small_config(epochs=3, hidden=64, word_dim=32, feat_dim=16, dropout=0.3)
        digest = hashlib.sha256()
        for model, _ in (train_supervised(corpus, corpus[:3], "tagparser", cfg),
                         train_rl(corpus, corpus[:3], "tagparser", cfg, REGIME_RL_BACKTRACK)):
            model.save(tmp_path / "m")
            digest.update((tmp_path / "m").read_bytes())
        assert digest.hexdigest() == self.DIGEST

    # The same corpus and sizes trained with batch-3 supervised steps; it
    # pins the batch sum, its scaling and the fold of a batch's pairs.
    BATCH_DIGEST = "e9194322fb7c7948c5b282051b48dc365191d29cca024c4573904c8c4a8d5b98"

    def test_batched_model_bytes_match_recorded_digest(self, tmp_path):
        corpus = toy_grammar_corpus(8, seed=11)
        cfg = small_config(epochs=3, hidden=64, word_dim=32, feat_dim=16, dropout=0.3, batch_size=3)
        model, _ = train_supervised(corpus, corpus[:3], "tagparser", cfg)
        model.save(tmp_path / "m")
        assert hashlib.sha256((tmp_path / "m").read_bytes()).hexdigest() == self.BATCH_DIGEST

    def test_batched_supervised_run_is_deterministic(self, tmp_path):
        corpus = toy_grammar_corpus(8, seed=12)
        cfg = small_config(epochs=3, batch_size=3)
        blobs = []
        for i in range(2):
            model, _ = train_supervised(corpus, corpus[:3], "tagparser", cfg)
            model.save(tmp_path / f"m{i}")
            blobs.append((tmp_path / f"m{i}").read_bytes())
        assert blobs[0] == blobs[1]


class TestGoldenModelFile:
    """A format-1 tagparser model file (hidden 8, word 4, feature 2, k=1),
    written by train_rl (rl-backtrack, two epochs) on toy_grammar_corpus(6,
    seed=21) before the embedding tables moved into one buffer and load
    stopped drawing random weights.  Reading it must not depend on either."""

    PATH = Path(__file__).parent / "data" / "golden_v1.model"
    SHA256 = "e79a74d3cd69d809596408b2d0ac6bded2b5248ab7169f9bceee3406a92d6ecf"
    # Per toy_grammar_corpus(2, seed=22) sentence: predicted tags, heads and BACKs.
    DECODES = [
        (["ADJ", "ADJ", "NOUN", "NOUN", "NOUN", "ADJ"], [2, 3, 4, 5, 6, 0], 5),
        (["NOUN", "ADJ", "NOUN", "NOUN", "NOUN", "ADJ"], [2, 3, 4, 5, 6, 0], 5),
    ]

    def test_file_is_unchanged(self):
        assert hashlib.sha256(self.PATH.read_bytes()).hexdigest() == self.SHA256

    def test_load_then_save_rewrites_the_same_bytes(self, tmp_path):
        Model.load(self.PATH).save(tmp_path / "m")
        assert (tmp_path / "m").read_bytes() == self.PATH.read_bytes()

    def test_decodes_match_recorded_tags_and_heads(self):
        model = Model.load(self.PATH)
        assert model.machine.kind == "tagparser" and model.machine.k == 1
        for s, (tags, heads, backs) in zip(toy_grammar_corpus(2, seed=22), self.DECODES):
            res = decode(model, s)
            assert [t.upos for t in res.predicted.tokens] == tags
            assert [t.head for t in res.predicted.tokens] == heads
            assert sum(e.action == BACK for e in res.log) == backs


class TestWordVectors:
    def test_pretrained_rows_are_used(self, tmp_path):
        corpus = alternation_corpus(5, seed=0)
        vec_file = tmp_path / "vectors.txt"
        dim = 8
        vec_file.write_text("tok " + " ".join(["0.25"] * dim) + "\n", encoding="utf-8")
        cfg = small_config(word_dim=dim, word_vectors=str(vec_file))
        model = build_model("tagger", corpus, cfg, k=0)
        row = model.extractor.vocabs["word"].index["tok"]
        assert np.allclose(model.net.emb["word"][row], 0.25)

    def test_any_whitespace_separates_fields(self, tmp_path):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text("2 2\ntok  0.5 0.25\nfoo\t1 2 \n\n", encoding="utf-8")
        vectors = load_word_vectors(vec_file)
        assert sorted(vectors) == ["foo", "tok"]
        assert vectors["tok"].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("row", ["foo 0.1 x", "foo 0.1", "foo 0.1 nan", "foo"])
    def test_bad_row_names_path_and_line(self, tmp_path, row):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text(f"tok 0.5 0.25\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt:2: "):
            load_word_vectors(vec_file)

    def test_dim_mismatch_rejected(self, tmp_path):
        corpus = alternation_corpus(5, seed=0)
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text("tok 0.1 0.2\n", encoding="utf-8")
        cfg = small_config(word_dim=16, word_vectors=str(vec_file))
        with pytest.raises(ValueError, match="dim"):
            build_model("tagger", corpus, cfg, k=0)

    def test_width_checked_without_vocabulary_overlap(self, tmp_path):
        corpus = alternation_corpus(5, seed=0)
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text("zzz-absent 0.1 0.2 0.3\n", encoding="utf-8")
        cfg = small_config(word_dim=32, word_vectors=str(vec_file))
        with pytest.raises(ValueError, match="vectors.txt: pretrained vectors have dim 3, expected 32"):
            build_model("tagger", corpus, cfg, k=0)

    @pytest.mark.parametrize("text", ["", "\n\n", "0 300\n", "2 300\n\n"])
    def test_file_without_vectors_rejected(self, tmp_path, text):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt: holds no word vectors"):
            load_word_vectors(vec_file)
        cfg = small_config(word_dim=300, word_vectors=str(vec_file))
        with pytest.raises(ValueError, match="vectors.txt: holds no word vectors"):
            build_model("tagger", alternation_corpus(5, seed=0), cfg, k=0)

    def test_header_dim_must_match_rows(self, tmp_path):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text("2 300\ntok 0.5 0.25\nfoo 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt:1: header declares dim 300, but rows hold 2"):
            load_word_vectors(vec_file)

    def test_non_utf8_file_names_path(self, tmp_path):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_bytes(b"tok 0.5 \xff\n")
        with pytest.raises(ValueError, match="vectors.txt: not UTF-8 text"):
            load_word_vectors(vec_file)

    FIELDS = st.one_of(
        st.sampled_from(["tok", "foo", "2", "300", "0", "0.5", "-1e3", "1e40", "nan", "inf", "x",
                         "\u00b2", "\u0661", "\t", "\n", "\r"]),
        st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
    )
    CONTENTS = st.one_of(
        st.lists(st.lists(FIELDS, max_size=5).map(" ".join), max_size=6)
        .map(lambda lines: "\n".join(lines).encode("utf-8")),
        st.binary(max_size=40),
    )

    @settings(max_examples=300, deadline=None)
    @given(CONTENTS)
    def test_fuzz_loader_returns_vectors_or_names_the_file(self, tmp_path_factory, content):
        vec_file = tmp_path_factory.getbasetemp() / "fuzz-vectors.txt"
        vec_file.write_bytes(content)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would be a second stderr line
                vectors = load_word_vectors(vec_file)
        except ValueError as e:
            assert str(vec_file) in str(e)
        else:
            widths = {len(v) for v in vectors.values()}
            assert len(widths) == 1 and 0 not in widths
            assert all(v.dtype == np.float32 and np.isfinite(v).all() for v in vectors.values())


def table_model(kind, k=1):
    """A toy-vocabulary model whose dims let the precomputed table fit,
    with a BACK bias that makes BACK fire."""
    corpus = toy_grammar_corpus(8, seed=9)
    model = build_model(kind, corpus, small_config(hidden=64, word_dim=64, feat_dim=32), k=k)
    model.net.heads[HEAD_BACK][1][BACK_ACTIONS.index(BACK)] = 0.5
    assert model.net.table_fits
    return model, corpus


def decisions(model, result):
    """The configurations on a decode path that offered a choice."""
    machine = result.machine
    c = machine.initial(result.sentence)
    for entry in result.log:
        if len(machine.legal_actions(c)) > 1:
            yield c
        c = machine.apply(c, entry.action)


class TestPrecomputedTable:
    @pytest.mark.parametrize("kind", ["tagger", "parser", "tagparser"])
    def test_q_through_the_table_is_forward(self, kind, monkeypatch):
        model, corpus = table_model(kind, k=2)
        net = model.net
        net.precompute()
        assert net.table is not None
        forward = net.forward
        monkeypatch.setattr(net, "forward", None)  # q_legal must not call it
        rng = random.Random(3)
        checked = 0
        for s in corpus:
            for c in random_legal_walk(model.machine, s, rng, steps=60, back_bias=0.3):
                if c.terminal:
                    continue
                head = head_for_state(c.state)
                (q,), _ = forward(model.extractor.extract(c, s, model.machine)[None], [head])
                legal, values = model.q_legal(c, s)
                want = [q[model.action_index(head, a)] for a in legal]
                np.testing.assert_allclose(values, want, rtol=0, atol=1e-5)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("kind", ["tagger", "parser", "tagparser"])
    def test_decode_equals_the_direct_path(self, kind, monkeypatch):
        model, corpus = table_model(kind)
        through_table = [decode(model, s, k=k) for k in (0, 1, 2) for s in corpus]
        assert model.net.table is not None
        model.net.table = None
        monkeypatch.setattr(model.net, "table_fits", False)
        direct = [decode(model, s, k=k) for k in (0, 1, 2) for s in corpus]
        assert model.net.table is None
        assert through_table == direct
        assert sum(e.action == BACK for r in direct for e in r.log) > 0

    def test_no_table_outlives_the_weights_it_was_built_from(self, tmp_path):
        model, corpus = table_model("tagparser")
        other, _ = table_model("tagparser")
        net = model.net
        ids = model.extractor.extract(model.machine.initial(corpus[0]), corpus[0], model.machine)

        def decodes_like_a_fresh_load():
            results = [decode(model, s) for s in corpus]
            model.save(tmp_path / "m")
            fresh = Model.load(tmp_path / "m")
            assert results == [decode(fresh, s) for s in corpus]
            # Both read Q through tables; the same weights give the same bits.
            for r in results:
                for c in decisions(model, r):
                    assert np.array_equal(model.q_legal(c, r.sentence)[1],
                                          fresh.q_legal(c, r.sentence)[1])
            assert net.table is not None
            return net.table

        tables = [decodes_like_a_fresh_load()]
        td_update(net, ids, "tag", 1, 5.0, alpha=0.5)
        tables.append(decodes_like_a_fresh_load())
        supervised_update(net, [(ids, "tag", 2)], alpha=0.5)
        tables.append(decodes_like_a_fresh_load())
        net.set_params(other.net.copy_params())
        tables.append(decodes_like_a_fresh_load())
        assert all(a is not b for a, b in zip(tables, tables[1:]))

    def test_desk_size_models_never_build_a_table(self):
        rng = random.Random(4)
        words = [f"word{i}" for i in range(100)]
        corpus = [sent([rng.choice(words) for _ in heads], ["A"] * len(heads), heads)
                  for heads in (random_projective_heads(n, rng) for n in (3, 5, 7, 9) * 3)]
        for kind in ("tagger", "parser", "tagparser"):
            model = build_model(kind, corpus, small_config(hidden=64, word_dim=32, feat_dim=16), k=1)
            assert not model.net.table_fits
            for s in corpus:
                decode(model, s)
            assert model.net.table is None

    @pytest.mark.parametrize("regime", [REGIME_SUP, REGIME_RL_BACKTRACK])
    def test_trained_models_keep_no_table(self, regime):
        corpus = toy_grammar_corpus(6, seed=9)
        cfg = small_config(epochs=3, hidden=64, word_dim=64, feat_dim=32)
        if regime == REGIME_SUP:
            model, _ = train_supervised(corpus, corpus[:2], "tagparser", cfg)
        else:
            model, _ = train_rl(corpus, corpus[:2], "tagparser", cfg, regime)
        assert model.net.table_fits and model.net.table is None

    def test_rl_training_reads_forward_between_dev_decodes(self, tmp_path, monkeypatch):
        # The dev decodes build a table; the TD targets and greedy picks of
        # the next epoch must still read forward, as a run with no table does.
        corpus = toy_grammar_corpus(6, seed=9)
        cfg = small_config(epochs=3, hidden=64, word_dim=64, feat_dim=32, dropout=0.0)
        runs = []
        for build in (True, False):
            if not build:
                # folds the pending updates, as the real one does
                monkeypatch.setattr(QNetwork, "precompute", lambda net: net.w1)
            model, history = train_rl(corpus, corpus[:2], "tagparser", cfg, REGIME_RL_BACKTRACK)
            model.save(tmp_path / "m")
            runs.append(((tmp_path / "m").read_bytes(), history))
        assert runs[0] == runs[1]


class TestBestCheckpoint:
    @pytest.mark.parametrize("regime", [REGIME_SUP, REGIME_RL])
    def test_later_improvements_copy_into_the_first_checkpoint(self, regime, monkeypatch):
        # Every epoch improves on the last, so each one takes a checkpoint.
        scores = iter(range(100))
        monkeypatch.setattr(training, "_selection_score", lambda kind, metrics: (next(scores),))
        checkpoints = []
        copy_params = QNetwork.copy_params

        def spy(net, into=None):
            checkpoints.append(copy_params(net, into))
            return checkpoints[-1]

        monkeypatch.setattr(QNetwork, "copy_params", spy)
        corpus = toy_grammar_corpus(4, seed=9)
        cfg = small_config(epochs=3, hidden=16)
        if regime == REGIME_SUP:
            model, _ = train_supervised(corpus, corpus[:2], "tagger", cfg)
        else:
            model, _ = train_rl(corpus, corpus[:2], "tagger", cfg, regime)
        first, *later = checkpoints
        assert len(later) == 2
        for ckpt in later:
            assert all(ckpt[name] is first[name] for name in first)
        for name in first:  # the last improvement is what the model keeps
            assert np.array_equal(model.net.get_param(name), first[name])

    def test_copy_into_a_checkpoint_allocates_no_parameters(self):
        dims = {"word": 32, "pos": 16, "letter": 16, "action": 16, "flag": 16}
        net = QNetwork(
            layout=slot_layout("tagparser"),
            vocab_sizes={"word": 12, "pos": 10, "letter": 9, "action": 11, "flag": 9},
            space_dims=dims,
            hidden=2048,
            heads=heads_for_kind("tagparser", 3),
        )
        best = net.copy_params()
        net.w1[...] += 1.0
        tracemalloc.start()
        try:
            again = net.copy_params(best)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again is best and np.array_equal(best["w1"], net.w1)
        assert peak < net.w1.nbytes / 10, (peak, net.w1.nbytes)
