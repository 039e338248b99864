import random

import pytest
from hypothesis import given, settings, strategies as st

from backparse.corpus import (
    ConlluError,
    UNK_TAG,
    ValidationError,
    is_projective,
    kfold_split,
    load_split_manifest,
    parse_conllu,
    save_split_manifest,
    serialize,
)
from helpers import brute_projective, random_tree_heads, simple_sent


def conllu_line(i, form, upos, head):
    return "\t".join([str(i), form, "_", upos, "_", "_", str(head), "_", "_", "_"])


TWO_TOKENS = conllu_line(1, "the", "DET", 2) + "\n" + conllu_line(2, "cat", "NOUN", 0) + "\n"


class TestParseConllu:
    def test_two_token_block(self):
        (s,) = parse_conllu(TWO_TOKENS)
        assert [(t.id, t.form, t.upos, t.head) for t in s.tokens] == [
            (1, "the", "DET", 2),
            (2, "cat", "NOUN", 0),
        ]

    def test_empty_input(self):
        assert parse_conllu("") == []

    def test_range_line_skipped(self):
        text = "\n".join(
            [
                "3-4\tdu\t_\t_\t_\t_\t_\t_\t_\t_",
                conllu_line(1, "a", "X", 0),
                conllu_line(2, "b", "X", 1),
            ]
        )
        (s,) = parse_conllu(text)
        assert s.n == 2

    def test_empty_node_skipped(self):
        text = "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n" + conllu_line(1, "a", "X", 0)
        (s,) = parse_conllu(text)
        assert s.n == 1

    def test_comments_ignored(self):
        (s,) = parse_conllu("# sent_id = 1\n" + TWO_TOKENS)
        assert s.n == 2

    def test_wrong_column_count(self):
        with pytest.raises(ConlluError, match="line 1"):
            parse_conllu("1\tthe\tDET\n")

    def test_non_integer_head(self):
        text = conllu_line(1, "a", "X", 0).replace("\t0\t", "\tx\t", 1)
        with pytest.raises(ConlluError, match="HEAD"):
            parse_conllu(text)

    def test_head_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_conllu(conllu_line(1, "a", "X", 5))

    def test_self_head(self):
        with pytest.raises(ValidationError, match="own head"):
            parse_conllu(conllu_line(1, "a", "X", 1))

    def test_cycle_rejected(self):
        text = "\n".join(
            [conllu_line(1, "a", "X", 2), conllu_line(2, "b", "X", 1), conllu_line(3, "c", "X", 0)]
        )
        with pytest.raises(ValidationError):
            parse_conllu(text)

    def test_several_roots_only_where_allowed(self):
        text = "\n".join([conllu_line(1, "a", "X", 0), conllu_line(2, "b", "X", 0)])
        (s,) = parse_conllu(text, single_root=False)
        assert s.heads == (0, 0)
        with pytest.raises(ValidationError, match="2 root-attached tokens"):
            parse_conllu(text)

    @pytest.mark.parametrize("heads,message", [
        ((2, 1, 0), "cycle"),
        ((2, 3, 1), "cycle"),
        ((1, 0), "own head"),
        ((0, 3), "out of range"),
    ])
    def test_several_roots_allowed_still_needs_a_forest(self, heads, message):
        text = "\n".join(conllu_line(i, "w", "X", h) for i, h in enumerate(heads, start=1))
        with pytest.raises(ValidationError, match=message):
            parse_conllu(text, single_root=False)

    @pytest.mark.parametrize("heads,token", [
        ((5, 3, 2, 0, 6, 5, 4), 1),   # token 1 leads into the 5-6 cycle
        ((0, 3, 4, 2, 6, 5), 2),      # two cycles; 2-3-4 holds the first failing token
        ((0, 1, 5, 3, 4, 7, 6, 6), 3),
    ])
    def test_cycle_names_the_first_token_that_cannot_reach_the_root(self, heads, token):
        # The token each walk from token 1, 2, ... first fails on, as the
        # per-token walk with a fresh set of visited nodes named it.
        text = "\n".join(conllu_line(i, "w", "X", h) for i, h in enumerate(heads, start=1))
        with pytest.raises(ValidationError, match=f"^block at line 1: cycle through token {token}$"):
            parse_conllu(text, single_root=False)

    def test_tree_check_matches_the_per_token_walk(self):
        # Reference: walk every token to the root with a fresh set of
        # visited nodes; the first token whose walk revisits a node fails.
        def reference(heads):
            for i in range(1, len(heads) + 1):
                seen, cur = set(), i
                while cur != 0:
                    if cur in seen:
                        return f"cycle through token {i}"
                    seen.add(cur)
                    cur = heads[cur - 1]
            return None

        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 12)
            heads = [rng.choice([h for h in range(n + 1) if h != i]) for i in range(1, n + 1)]
            text = "\n".join(conllu_line(i, "w", "X", h) for i, h in enumerate(heads, start=1))
            want = reference(heads)
            if want is None:
                (s,) = parse_conllu(text, single_root=False)
                assert list(s.heads) == heads
            else:
                with pytest.raises(ValidationError, match=f"^block at line 1: {want}$"):
                    parse_conllu(text, single_root=False)

    def test_long_chain(self):
        n = 2000
        chain = [conllu_line(i, "w", "X", i + 1) for i in range(1, n)]
        (s,) = parse_conllu("\n".join(chain + [conllu_line(n, "w", "X", 0)]))
        assert s.heads == tuple(range(2, n + 1)) + (0,)
        looped = chain + [conllu_line(n, "w", "X", n - 1)]
        with pytest.raises(ValidationError, match="cycle through token 1$"):
            parse_conllu("\n".join(looped), single_root=False)

    @pytest.mark.parametrize("column,value,message", [
        (0, "1.5x", "malformed ID"),
        (0, "1-x", "malformed ID"),
        (0, " 2", "malformed ID"),
        (6, "1_0", "non-integer HEAD"),
        (1, "", "empty FORM"),
    ])
    def test_malformed_field_names_its_line(self, column, value, message):
        fields = conllu_line(2, "b", "X", 1).split("\t")
        fields[column] = value
        text = conllu_line(1, "a", "X", 0) + "\n" + "\t".join(fields) + "\n"
        with pytest.raises(ConlluError, match=f"^line 2: {message}"):
            parse_conllu(text)

    def test_missing_upos_becomes_unk(self):
        (s,) = parse_conllu(conllu_line(1, "a", "_", 0))
        assert s.upos(1) == UNK_TAG

    def test_round_trip(self):
        sentences = parse_conllu(TWO_TOKENS + "\n" + conllu_line(1, "hi", "_", 0) + "\n")
        assert parse_conllu(serialize(sentences)) == sentences

    def test_multiple_blocks(self):
        text = TWO_TOKENS + "\n" + TWO_TOKENS
        assert len(parse_conllu(text)) == 2


class TestProjectivity:
    def test_two_token_chain(self):
        assert is_projective(simple_sent([2, 0]))

    def test_crossing_arcs(self):
        # arcs 2->4 and 1->3 cross
        assert not is_projective(simple_sent([0, 4, 1, 2]))

    def test_single_token(self):
        assert is_projective(simple_sent([0]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_matches_descendant_interval_oracle(self, n, seed):
        heads = random_tree_heads(n, random.Random(seed))
        s = simple_sent(heads)
        assert is_projective(s) == brute_projective(s)


class TestKfold:
    def make(self, n):
        return [simple_sent([0]) for _ in range(n)]

    def test_ten_fold_sizes(self):
        splits = kfold_split(self.make(10), folds=10, seed=0, proportions=(0.8, 0.1, 0.1))
        for sp in splits:
            assert (len(sp.train_idx), len(sp.dev_idx), len(sp.test_idx)) == (8, 1, 1)

    def test_deterministic(self):
        a = kfold_split(self.make(20), folds=5, seed=7)
        b = kfold_split(self.make(20), folds=5, seed=7)
        assert a == b

    def test_two_fold_disjoint_halves(self):
        splits = kfold_split(self.make(4), folds=2, seed=1, proportions=(0.5, 0.0, 0.5))
        t0, t1 = set(splits[0].test_idx), set(splits[1].test_idx)
        assert len(t0) == len(t1) == 2
        assert not (t0 & t1)

    def test_test_sets_partition_corpus(self):
        corpus = self.make(23)
        splits = kfold_split(corpus, folds=10, seed=3)
        seen = [i for sp in splits for i in sp.test_idx]
        assert sorted(seen) == list(range(23))

    def test_splits_disjoint_within_fold(self):
        for sp in kfold_split(self.make(30), folds=5, seed=0):
            parts = [set(sp.train_idx), set(sp.dev_idx), set(sp.test_idx)]
            assert sum(len(p) for p in parts) == 30
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_too_small_corpus(self):
        with pytest.raises(ValueError, match="smaller"):
            kfold_split(self.make(3), folds=5, seed=0)

    def test_bad_proportions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            kfold_split(self.make(10), folds=2, seed=0, proportions=(0.5, 0.1, 0.1))

    def test_manifest_round_trip(self, tmp_path):
        splits = kfold_split(self.make(12), folds=3, seed=2)
        path = tmp_path / "splits.json"
        save_split_manifest(path, splits)
        assert load_split_manifest(path) == splits
