import gc
import hashlib
import random
import weakref

import pytest

from backparse.machine import (
    BACK,
    BACK_STATE,
    EMPTY,
    ERASED,
    LEFT,
    NOBACK,
    POS_STATE,
    REDUCE,
    RIGHT,
    SHIFT,
    SYNT_STATE,
    IllegalActionError,
    Machine,
    TerminalError,
    UndoError,
    max_actions,
    render_trace,
    replay,
    tag_action,
)
from backparse.neural import BACK_ACTIONS, PARSE_ACTIONS
from helpers import random_legal_walk, random_tagged_sentence, sent, simple_sent

TAGS = ("A", "B", "C")


def machines(k=1):
    return [
        Machine("tagger", k=k, tags=TAGS),
        Machine("parser", k=k),
        Machine("tagparser", k=k, tags=TAGS),
    ]


class TestMaxActions:
    def test_tagger(self):
        assert max_actions(10, 1, "tagger") == 50

    def test_parser(self):
        assert max_actions(10, 1, "parser") == 70

    def test_tagparser_no_budget(self):
        assert max_actions(5, 0, "tagparser") == 20


class TestInitial:
    def test_back_counts_start_at_zero(self):
        s = simple_sent([0, 1, 1, 1, 1])
        c = Machine("tagparser", k=1, tags=TAGS).initial(s)
        assert c.back_counts == (0, 0, 0, 0, 0)
        assert c.state == BACK_STATE

    def test_single_token(self):
        c = Machine("tagger", k=1, tags=TAGS).initial(simple_sent([0]))
        assert c.word_index == 1 and c.frontier == 1 and not c.terminal

    def test_empty_sentence_terminal(self):
        for m in machines():
            assert m.initial(sent([], [], [])).terminal


class TestLegalActions:
    def test_budget_exhausted_forces_noback(self):
        m = Machine("tagger", k=1, tags=("A",))
        s = simple_sent([0, 1], tag="A")
        c = m.initial(s)
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("A"))
        assert m.legal_actions(c) == (NOBACK, BACK)
        c = m.apply(c, BACK)
        assert m.legal_actions(c) == (NOBACK,)  # counter for word 2 is spent

    def test_empty_stack_forces_shift(self):
        m = Machine("parser", k=0)
        c = m.initial(simple_sent([2, 0]))
        c = m.apply(c, NOBACK)
        assert c.state == SYNT_STATE
        assert m.legal_actions(c) == (SHIFT,)

    def test_nothing_to_undo_forces_noback(self):
        m = Machine("tagger", k=1, tags=TAGS)
        c = m.initial(simple_sent([0, 1]))
        assert m.legal_actions(c) == (NOBACK,)

    def test_terminal_raises(self):
        m = Machine("tagger", k=0, tags=TAGS)
        c = m.initial(sent([], [], []))
        with pytest.raises(TerminalError):
            m.legal_actions(c)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_fixed_head_order_in_every_state(self, k):
        rng = random.Random(40 + k)
        head_order = {BACK_STATE: BACK_ACTIONS, POS_STATE: tuple(tag_action(t) for t in TAGS),
                      SYNT_STATE: PARSE_ACTIONS}
        seen = set()
        for m in machines(k):
            for _ in range(8):
                s = random_tagged_sentence(rng.randint(1, 8), rng, projective=False)
                for c in random_legal_walk(m, s, rng, steps=80, back_bias=0.3):
                    if c.terminal:
                        continue
                    legal = m.legal_actions(c)
                    order = head_order[c.state]
                    assert legal == tuple(a for a in order if a in legal), (c.state, legal)
                    seen.add((m.kind, c.state, legal))
        # every legal set a parsing state can offer turned up
        synt = {legal for kind, state, legal in seen if state == SYNT_STATE}
        assert synt == {(SHIFT,), (REDUCE,), (LEFT, RIGHT, SHIFT), (RIGHT, REDUCE, SHIFT)}

    def test_left_blocked_once_governed(self):
        m = Machine("parser", k=0)
        c = m.initial(simple_sent([0, 1, 1]))
        for a in (NOBACK, SHIFT, NOBACK, RIGHT):  # gov(2) = 1
            c = m.apply(c, a)
        c = m.apply(c, NOBACK)
        legal = m.legal_actions(c)
        assert LEFT not in legal and REDUCE in legal


class TestApply:
    def test_illegal_action_explains(self):
        m = Machine("parser", k=0)
        c = m.apply(m.initial(simple_sent([2, 0])), NOBACK)
        with pytest.raises(IllegalActionError, match="stack"):
            m.apply(c, LEFT)

    def test_tagparser_tag_does_not_advance(self):
        m = Machine("tagparser", k=0, tags=TAGS)
        c = m.apply(m.initial(simple_sent([0, 1])), NOBACK)
        c = m.apply(c, tag_action("A"))
        assert c.word_index == 1 and c.state == SYNT_STATE

    def test_tagger_tag_advances(self):
        m = Machine("tagger", k=0, tags=TAGS)
        c = m.apply(m.initial(simple_sent([0, 1])), NOBACK)
        c = m.apply(c, tag_action("A"))
        assert c.word_index == 2 and c.state == BACK_STATE and c.frontier == 2

    def test_k0_tagparser_runs_exactly_4n(self):
        m = Machine("tagparser", k=0, tags=TAGS)
        s = simple_sent([2, 0, 2, 3])
        c = m.initial(s)
        while not c.terminal:
            c = m.apply(c, m.legal_actions(c)[0])
        assert len(c.log) == 4 * s.n

    def test_back_restores_earlier_word_with_wider_frontier(self):
        m = Machine("tagger", k=1, tags=TAGS)
        c = m.initial(simple_sent([0, 1, 1]))
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("A"))
        before = c
        c = m.apply(c, BACK)
        assert c.word_index == 1
        assert c.frontier == before.frontier == 2
        assert c.pos_tape[0] is ERASED
        assert c.back_counts == (0, 1, 0)

    def test_erased_cell_rewritten_then_backed_stays_erased_shape(self):
        m = Machine("tagger", k=2, tags=TAGS)
        c = m.initial(simple_sent([0, 1]))
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("A"))
        c = m.apply(c, BACK)
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("B"))
        c = m.apply(c, BACK)
        assert c.pos_tape[0] is ERASED

    def test_gov_arcs_erased_by_back(self):
        m = Machine("parser", k=1)
        c = m.initial(simple_sent([2, 0, 2]))
        for a in (NOBACK, SHIFT, NOBACK, LEFT, SHIFT):
            c = m.apply(c, a)
        assert c.gov_tape[0] == 2
        c = m.apply(c, BACK)
        assert c.gov_tape[0] is ERASED
        assert c.word_index == 2 and c.stack == (1,)

    def test_terminal_back_allowed_then_forced_stop(self):
        m = Machine("tagger", k=1, tags=("A",))
        s = simple_sent([0], tag="A")
        c = m.initial(s)
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("A"))
        assert not c.terminal and c.word_index == 2  # terminal backtrack still open
        c = m.apply(c, BACK)
        c = m.apply(c, NOBACK)
        c = m.apply(c, tag_action("A"))
        assert c.terminal  # budget spent, machine halts without a free decision
        assert len(c.log) == 5 == max_actions(1, 1, "tagger")

    def test_apply_on_terminal_raises(self):
        m = Machine("tagger", k=0, tags=TAGS)
        c = m.initial(sent([], [], []))
        with pytest.raises(TerminalError):
            m.apply(c, NOBACK)


class TestUndo:
    def test_undo_restores_popped_element(self):
        m = Machine("parser", k=0)
        c = m.initial(simple_sent([2, 0]))
        for a in (NOBACK, SHIFT, NOBACK):
            c = m.apply(c, a)
        before = c
        c = m.apply(c, LEFT)
        restored = m.undo(c, LEFT)
        assert restored.core_fields() == before.core_fields()
        assert restored.stack == (1,)

    def test_undo_mismatch(self):
        m = Machine("tagger", k=0, tags=TAGS)
        c = m.apply(m.initial(simple_sent([0, 1])), NOBACK)
        with pytest.raises(UndoError):
            m.undo(c, tag_action("A"))

    def test_undo_empty_history(self):
        m = Machine("tagger", k=0, tags=TAGS)
        with pytest.raises(UndoError):
            m.undo(m.initial(simple_sent([0, 1])), NOBACK)

    @pytest.mark.parametrize("kind", ["tagger", "parser", "tagparser"])
    def test_inverse_fuzz(self, kind):
        rng = random.Random(1234)
        m = Machine(kind, k=1, tags=() if kind == "parser" else TAGS)
        for trial in range(300):
            s = random_tagged_sentence(rng.randint(1, 10), rng, tags=TAGS)
            visited = random_legal_walk(m, s, rng, steps=rng.randint(0, 30))
            c = visited[-1]
            if c.terminal:
                continue
            legal = m.legal_actions(c)
            a = legal[rng.randrange(len(legal))]
            c2 = m.apply(c, a)
            back = m.undo(c2, a)
            assert back.core_fields() == c.core_fields(), (kind, trial, a)
            assert back.log == c.log and back.live == c.live

    def test_replay_reproduces_configuration(self):
        rng = random.Random(77)
        m = Machine("tagparser", k=2, tags=TAGS)
        for _ in range(50):
            s = random_tagged_sentence(rng.randint(1, 8), rng, tags=TAGS)
            c = random_legal_walk(m, s, rng, steps=40)[-1]
            assert replay(m, s, c.log) == c


class TestPinnedWalks:
    """Seeded random walks over every kind and budget; the digest was
    recorded before BACK and undo were rebuilt on back-pointers, so it pins
    the tapes (ERASED marks included), frontier, counters and histories
    that hand-picked cases only sample."""

    DIGEST = "87c544375b0a5d87c1bf71c43cc7e0b8b2be91e98cd48590d33dc097e050ed8d"

    def test_walks_match_recorded_digest(self):
        rng = random.Random(2026)
        h = hashlib.sha256()
        for k in (0, 1, 2):
            for m in machines(k):
                for _ in range(30):
                    s = random_tagged_sentence(rng.randint(1, 9), rng, tags=TAGS,
                                               projective=rng.random() < 0.5)
                    visited = random_legal_walk(m, s, rng, steps=70, back_bias=0.5)
                    for c in visited:
                        h.update(repr((c.core_fields(), [e.action.symbol for e in c.log],
                                       [e.action.symbol for e in c.live])).encode())
                        if c.log:
                            h.update(repr(m.undo(c, c.log[-1].action).core_fields()).encode())
                        if not c.terminal and BACK in m.legal_actions(c):
                            backed = m.apply(c, BACK)
                            h.update(repr(backed.core_fields()).encode())
                            h.update(repr(m.undo(backed, BACK).core_fields()).encode())
        assert h.hexdigest() == self.DIGEST

    def test_long_walk_compares_prints_and_frees(self):
        # Deep histories must not make repr, == or deallocation recurse
        # once per action.
        m = Machine("tagparser", k=2, tags=TAGS)
        s = simple_sent([0] + [1] * 149, tag="A")
        c = m.initial(s)
        for _ in range(3000):
            if c.terminal:
                break
            legal = m.legal_actions(c)
            c = m.apply(c, BACK if BACK in legal else legal[-1])
        assert c.terminal and len(c.log) >= 1500
        assert repr(c).startswith("Configuration(")
        assert replay(m, s, c.log) == c
        gone = weakref.ref(c)
        del c
        gc.collect()
        assert gone() is None


class TestBudgetInvariants:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_counts_bounded_and_total(self, k):
        rng = random.Random(k * 31 + 5)
        m = Machine("tagparser", k=k, tags=TAGS)
        for _ in range(60):
            s = random_tagged_sentence(rng.randint(1, 8), rng, tags=TAGS)
            c = random_legal_walk(m, s, rng, steps=200, back_bias=0.9)[-1]
            assert all(0 <= b <= k for b in c.back_counts)
            n_backs = sum(1 for e in c.log if e.action.kind == "back")
            assert n_backs <= s.n * k

    def test_back_equals_undoing_span(self):
        m = Machine("tagparser", k=1, tags=TAGS)
        s = simple_sent([2, 0, 2], tag="A")
        c = m.initial(s)
        for a in (NOBACK, tag_action("A"), SHIFT, NOBACK, tag_action("A")):
            c = m.apply(c, a)
        c = m.apply(c, LEFT)
        c = m.apply(c, SHIFT)
        span = m.peek_back_span(c)
        assert [e.action for e in span] == [NOBACK, tag_action("A"), LEFT, SHIFT]
        stepwise = c
        for e in reversed(span):
            stepwise = m.undo(stepwise, e.action)
        backed = m.apply(c, BACK)
        # Same configuration except the erasure marks, the counter and the
        # preserved frontier, which are what make backtracking informative.
        assert backed.word_index == stepwise.word_index
        assert backed.stack == stepwise.stack
        assert backed.frontier == c.frontier > stepwise.frontier
        assert backed.back_counts == (0, 0, 1)
        assert backed.pos_tape[1] is ERASED and stepwise.pos_tape[1] is EMPTY


class TestGardenPathWalkthrough:
    """Five-word noun/verb ambiguity, re-analysed through two undos."""

    def test_two_successive_backs(self):
        m = Machine("tagparser", k=1, tags=("DET", "ADJ", "NOUN", "VERB"))
        s = sent(
            ["the", "old", "man", "the", "boat"],
            ["DET", "NOUN", "VERB", "DET", "NOUN"],
            [3, 3, 0, 5, 3],
        )
        c = m.initial(s)
        for a in (NOBACK, tag_action("DET"), SHIFT, NOBACK, tag_action("ADJ"), SHIFT):
            c = m.apply(c, a)
        assert c.word_index == 3 and c.pos_tape[:2] == ("DET", "ADJ")

        # misread: "man" taken as the noun both earlier words depend on
        for a in (NOBACK, tag_action("NOUN"), LEFT, LEFT, SHIFT):
            c = m.apply(c, a)
        assert c.gov_tape[:3] == (3, 3, EMPTY) and c.pos_tape[2] == "NOUN"

        c = m.apply(c, BACK)
        assert c.word_index == 3
        assert c.pos_tape[:3] == ("DET", "ADJ", ERASED)
        assert c.gov_tape[0] is ERASED and c.gov_tape[1] is ERASED

        c = m.apply(c, BACK)
        assert c.word_index == 2
        assert c.pos_tape[:3] == ("DET", ERASED, ERASED)
        assert c.back_counts == (0, 0, 1, 1, 0)
        assert c.frontier == 4  # the second determiner stays visible

        # re-analysis: old=NOUN, man=VERB, both undo counters now spent
        for a in (NOBACK, tag_action("NOUN"), LEFT, SHIFT):
            c = m.apply(c, a)
        assert m.legal_actions(c) == (NOBACK,)
        for a in (NOBACK, tag_action("VERB"), LEFT, SHIFT):
            c = m.apply(c, a)
        assert c.pos_tape[:3] == ("DET", "NOUN", "VERB")
        assert c.gov_tape[:2] == (2, 3)


class TestWorstCaseBound:
    @pytest.mark.parametrize(
        "kind,n,k",
        [
            ("tagger", 2, 2),
            ("parser", 2, 1),
            ("tagparser", 2, 1),
            ("tagparser", 1, 2),
            ("tagparser", 3, 0),
        ],
    )
    def test_no_legal_sequence_exceeds_bound(self, kind, n, k):
        # Exhaustive over every legal action sequence, not just greedy runs.
        m = Machine(kind, k=k, tags=() if kind == "parser" else ("A",))
        s = simple_sent([0] + [1] * (n - 1), tag="A")
        bound = max_actions(n, k, kind)
        worst = 0

        def dfs(c):
            nonlocal worst
            if c.terminal:
                worst = max(worst, len(c.log))
                return
            assert len(c.log) <= bound
            for a in m.legal_actions(c):
                dfs(m.apply(c, a))

        dfs(m.initial(s))
        assert worst <= bound
        if k == 0:
            assert worst == bound

    # raises=AssertionError: a walk stopped by its step cap (pytest.fail)
    # is a plain failure, not an expected one.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the parser bound 4nk+3n does not hold: pops after a redo grow with the stack")
    def test_parser_bound_holds_on_pop_then_redo_walk(self):
        # A legal k=1 walk: at each word LEFT-pop the whole stack, SHIFT,
        # BACK, then redo the word with a bare SHIFT.  The redo leaves every
        # word on the stack, so the pops grow with i and the walk takes 93
        # actions at n=10 (bound 70) and 978 at n=40 (bound 280).
        m = Machine("parser", k=1)
        recorded = {10: 93, 40: 978}
        lengths = {}
        for n in recorded:
            c = m.initial(simple_sent([0] + [1] * (n - 1)))
            redo = False
            while not c.terminal:
                if c.n_actions >= 10 * recorded[n]:
                    pytest.fail(f"the walk at n={n} did not end within {c.n_actions} actions")
                legal = m.legal_actions(c)
                if c.state == BACK_STATE:
                    a = BACK if BACK in legal and not redo else NOBACK
                elif LEFT in legal and not redo:
                    a = LEFT
                else:
                    a = SHIFT if SHIFT in legal else REDUCE
                redo = a == BACK or (redo and a != SHIFT)
                c = m.apply(c, a)
            lengths[n] = len(c.log)
        assert lengths == recorded  # the walk is the one described above
        assert all(count <= max_actions(n, 1, "parser") for n, count in lengths.items())


class TestTrace:
    def test_trace_blocks_mirror_visits(self):
        m = Machine("tagparser", k=1, tags=("DET", "NOUN"))
        s = sent(["the", "cat"], ["DET", "NOUN"], [2, 0])
        c = m.initial(s)
        while not c.terminal:
            c = m.apply(c, m.legal_actions(c)[0])
        text = render_trace(m, s, c.log)
        assert "*the*" in text and "actions:" in text
        assert text.count("NOBACK") >= 2
