"""Transition machines with an undoable BACK action.

Three machine kinds share one topology family: a BACK state deciding
whether to undo the previous word's actions, plus task states that tag
(POS) and/or parse (SYNT).  Configurations are immutable and each keeps
the one it was made from, so undo returns that one, and BACK returns to
the configuration before the last word's actions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

TAGGER = "tagger"
PARSER = "parser"
TAGPARSER = "tagparser"
KINDS = (TAGGER, PARSER, TAGPARSER)

BACK_STATE = "back"
POS_STATE = "pos"
SYNT_STATE = "synt"


class _Erased:
    """Tape cell marker left where an undone write reverted to empty."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-"

    def __eq__(self, other):
        return isinstance(other, _Erased)

    def __hash__(self):
        return hash(_Erased)


ERASED = _Erased()
EMPTY = None


def cell_is_value(cell) -> bool:
    return cell is not EMPTY and not isinstance(cell, _Erased)


class IllegalActionError(ValueError):
    pass


class UndoError(ValueError):
    pass


class TerminalError(ValueError):
    pass


@dataclass(frozen=True)
class Action:
    kind: str                 # tag | left | right | shift | reduce | back | noback
    tag: str | None = None    # set for tag actions only
    symbol: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symbol", f"tag:{self.tag}" if self.kind == "tag" else self.kind)

    def __repr__(self):
        return self.symbol.upper()


LEFT = Action("left")
RIGHT = Action("right")
SHIFT = Action("shift")
REDUCE = Action("reduce")
BACK = Action("back")
NOBACK = Action("noback")


def tag_action(tag: str) -> Action:
    return Action("tag", tag)


# Every legal-action set outside POS, each in its head's fixed order.
_NOBACK_ONLY = (NOBACK,)
_BACK_OR_NOT = (NOBACK, BACK)
_REDUCE_ONLY = (REDUCE,)
_SHIFT_ONLY = (SHIFT,)
_TOP_GOVERNED = (RIGHT, REDUCE, SHIFT)
_TOP_UNGOVERNED = (LEFT, RIGHT, SHIFT)


@dataclass(frozen=True)
class Applied:
    """A history entry: the action and its training reward."""

    action: Action
    reward: float | None = None


@dataclass(frozen=True)
class Configuration:
    state: str
    word_index: int                  # 1-based; n+1 once every word is consumed
    stack: tuple[int, ...]
    pos_tape: tuple
    gov_tape: tuple
    back_counts: tuple[int, ...]
    frontier: int                    # rightmost word index ever reached
    terminal: bool
    entry: Applied | None = None     # the action that made this configuration
    n_actions: int = 0               # length of the history
    # The configuration `entry` was applied to, and the one the last live
    # NOBACK was applied to (None while nothing can be undone).  Both lead
    # down the whole history, so neither is compared or printed.
    prev: Configuration | None = field(default=None, compare=False, repr=False)
    back_to: Configuration | None = field(default=None, compare=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.core_fields() == other.core_fields() and self.log == other.log

    @property
    def n(self) -> int:
        return len(self.pos_tape)

    @property
    def log(self) -> tuple[Applied, ...]:
        """Every applied action, oldest first."""
        entries = []
        c = self
        while c.entry is not None:
            entries.append(c.entry)
            c = c.prev
        return tuple(reversed(entries))

    @property
    def live(self) -> tuple[Applied, ...]:
        """The applied actions whose effects are in force, oldest first."""
        return tuple(self.live_entries())[::-1]

    def live_entries(self):
        """The live history, newest first: each BACK and the span it undid
        are skipped by going on from the configuration BACK returned to."""
        c = self
        while c.entry is not None:
            if c.entry.action.kind == "back":
                c = c.prev.back_to
            else:
                yield c.entry
                c = c.prev

    def core_fields(self):
        """Everything except the histories, for inverse-exactness checks."""
        return (
            self.state,
            self.word_index,
            self.stack,
            self.pos_tape,
            self.gov_tape,
            self.back_counts,
            self.frontier,
            self.terminal,
        )


def max_actions(n: int, k: int, kind: str) -> int:
    """Worst-case action count for a sentence of n words under budget k."""
    if kind == TAGGER:
        return 3 * n * k + 2 * n
    if kind == PARSER:
        return 4 * n * k + 3 * n
    if kind == TAGPARSER:
        return 5 * n * k + 4 * n
    raise ValueError(f"unknown machine kind {kind!r}")


_NEXT_STATE = {
    TAGGER: {"noback": POS_STATE, "tag": BACK_STATE},
    PARSER: {
        "noback": SYNT_STATE,
        "left": SYNT_STATE,
        "reduce": SYNT_STATE,
        "right": BACK_STATE,
        "shift": BACK_STATE,
    },
    TAGPARSER: {
        "noback": POS_STATE,
        "tag": SYNT_STATE,
        "left": SYNT_STATE,
        "reduce": SYNT_STATE,
        "right": BACK_STATE,
        "shift": BACK_STATE,
    },
}


@dataclass(frozen=True)
class Machine:
    """A machine kind plus its per-word undo budget and tag inventory."""

    kind: str
    k: int = 0
    tags: tuple[str, ...] = ()
    # One action per tag, in tag order: the POS state's legal actions.
    tag_actions: tuple[Action, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown machine kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("undo budget k must be >= 0")
        if self.kind != PARSER and not self.tags:
            raise ValueError(f"{self.kind} machine needs a tag inventory")
        object.__setattr__(self, "tag_actions", tuple(tag_action(t) for t in self.tags))

    # ------------------------------------------------------------------
    # construction and action inventory

    def initial(self, sentence) -> Configuration:
        n = sentence.n
        state, terminal = self._settle(BACK_STATE, 1, n, (), (0,) * n, None)
        return Configuration(state, 1, (), (EMPTY,) * n, (EMPTY,) * n, (0,) * n, 1, terminal)

    def legal_actions(self, c: Configuration) -> tuple[Action, ...]:
        """Legal actions, in the fixed per-head order used everywhere."""
        if c.terminal:
            raise TerminalError("terminal configuration has no legal actions")
        if c.state == BACK_STATE:
            if self._back_possible(c.back_counts, c.word_index, c.n, c.back_to):
                return _BACK_OR_NOT
            return _NOBACK_ONLY
        if c.state == POS_STATE:
            return self.tag_actions
        # SYNT
        if c.word_index > c.n:
            return _REDUCE_ONLY  # end-of-sentence stack cleanup
        if not c.stack:
            return _SHIFT_ONLY
        if cell_is_value(c.gov_tape[c.stack[-1] - 1]):
            return _TOP_GOVERNED
        return _TOP_UNGOVERNED

    def back_allowed(self, c: Configuration) -> bool:
        return self._back_possible(c.back_counts, c.word_index, c.n, c.back_to)

    def _back_possible(self, back_counts, word_index, n, back_to) -> bool:
        if self.k == 0 or n == 0:
            return False
        idx = min(word_index, n)
        return back_counts[idx - 1] < self.k and back_to is not None

    def _why_illegal(self, c: Configuration, a: Action) -> str:
        if a.kind in ("back", "noback") and c.state != BACK_STATE:
            return f"{a} only applies in the {BACK_STATE} state"
        if a.kind == "tag" and c.state != POS_STATE:
            return f"{a} only applies in the {POS_STATE} state"
        if a.kind in ("left", "right", "shift", "reduce") and c.state != SYNT_STATE:
            return f"{a} only applies in the {SYNT_STATE} state"
        if a.kind == "back":
            idx = min(c.word_index, c.n)
            if self.k == 0 or c.back_counts[idx - 1] >= self.k:
                return f"undo budget exhausted at word {idx} (k={self.k})"
            return "history holds nothing to undo"
        if a.kind == "tag" and a.tag not in self.tags:
            return f"tag {a.tag!r} not in the inventory"
        if a.kind in ("left", "right", "reduce") and not c.stack:
            return f"{a} needs a non-empty stack"
        if a.kind == "shift" and c.word_index > c.n:
            return "no word left to shift"
        if a.kind == "left" and cell_is_value(c.gov_tape[c.stack[-1] - 1]):
            return "stack top already has a governor"
        if a.kind == "reduce" and c.word_index <= c.n and not cell_is_value(
            c.gov_tape[c.stack[-1] - 1]
        ):
            return "stack top has no governor yet"
        if a.kind in ("left", "right") and c.word_index > c.n:
            return "no current word to attach"
        return "not legal here"

    # ------------------------------------------------------------------
    # apply / undo

    def apply(self, c: Configuration, a: Action, reward: float | None = None) -> Configuration:
        if c.terminal:
            raise TerminalError("cannot apply an action to a terminal configuration")
        if a not in self.legal_actions(c):
            raise IllegalActionError(f"{a}: {self._why_illegal(c, a)}")
        entry = Applied(a, reward)
        if a.kind == "back":
            return self._back(c, entry)
        wi, stack, pos_tape, gov_tape = c.word_index, c.stack, c.pos_tape, c.gov_tape
        if a.kind == "tag":
            pos_tape = _set(pos_tape, wi - 1, a.tag)
            if self.kind == TAGGER:
                wi += 1
        elif a.kind == "left":
            gov_tape = _set(gov_tape, stack[-1] - 1, wi)
            stack = stack[:-1]
        elif a.kind == "right":
            gov_tape = _set(gov_tape, wi - 1, stack[-1])
            stack += (wi,)
            wi += 1
        elif a.kind == "shift":
            stack += (wi,)
            wi += 1
        elif a.kind == "reduce":
            top = stack[-1]
            if wi > c.n and not cell_is_value(gov_tape[top - 1]):
                gov_tape = _set(gov_tape, top - 1, 0)  # cleanup: headless words go to the root
            stack = stack[:-1]
        back_to = c if a.kind == "noback" else c.back_to
        state, terminal = self._settle(
            _NEXT_STATE[self.kind][a.kind], wi, c.n, stack, c.back_counts, back_to
        )
        return Configuration(state, wi, stack, pos_tape, gov_tape, c.back_counts,
                             max(c.frontier, wi), terminal, entry, c.n_actions + 1, c, back_to)

    def undo(self, c: Configuration, a: Action) -> Configuration:
        """Exact inverse of apply; `a` must be the most recent log entry."""
        if c.entry is None:
            raise UndoError("history is empty")
        if c.entry.action != a:
            raise UndoError(f"last applied action is {c.entry.action}, not {a}")
        return c.prev

    def peek_back_span(self, c: Configuration) -> tuple[Applied, ...]:
        """The live suffix a BACK applied now would undo, oldest first."""
        span = []
        for entry in c.live_entries():
            span.append(entry)
            if entry.action.kind == "noback":
                return tuple(reversed(span))
        raise IllegalActionError("history holds nothing to undo")

    # ------------------------------------------------------------------
    # internals

    @staticmethod
    def _back(c: Configuration, entry: Applied) -> Configuration:
        """Return to `c.back_to`, the configuration the last live NOBACK was
        applied to, but keep what the undone span saw: the frontier stays,
        the current word's undo counter rises, and every tape cell the span
        wrote reads ERASED, not empty, so later feature extraction can tell."""
        q = c.back_to
        idx = min(c.word_index, c.n) - 1
        counts = _set(c.back_counts, idx, c.back_counts[idx] + 1)
        return Configuration(BACK_STATE, q.word_index, q.stack, _erase(c.pos_tape, q.pos_tape),
                             _erase(c.gov_tape, q.gov_tape), counts, c.frontier, False,
                             entry, c.n_actions + 1, c, q.back_to)

    def _settle(self, state, word_index, n, stack, back_counts, back_to):
        """State and terminal flag after the free transitions that follow
        once every word has been consumed.

        With no word left there is nothing to decide in POS, and the BACK
        state only stops if a backtrack is still permitted; otherwise the
        machine moves straight to stack cleanup or halts.
        """
        if word_index <= n:
            return state, False
        if state == BACK_STATE and self._back_possible(back_counts, word_index, n, back_to):
            return state, False
        if not stack:  # a tagger's stack is always empty
            return BACK_STATE, True
        return SYNT_STATE, False


def _set(tape: tuple, idx: int, value) -> tuple:
    return tape[:idx] + (value,) + tape[idx + 1 :]


def _erase(tape: tuple, before: tuple) -> tuple:
    """`tape` with ERASED in every cell that differs from `before`."""
    if tape is before:
        return tape
    return tuple(cell if cell == old else ERASED for cell, old in zip(tape, before))


def replay(machine: Machine, sentence, log) -> Configuration:
    """Fold apply over a history; reproduces the recorded configuration."""
    c = machine.initial(sentence)
    for entry in log:
        c = machine.apply(c, entry.action, reward=entry.reward)
    return c


def render_trace(machine: Machine, sentence, log) -> str:
    """Text blocks, one per BACK-state visit: tapes, words, undo counters
    and the actions taken since the previous visit."""
    blocks = []
    c = machine.initial(sentence)
    since: list[Action] = []
    blocks.append(_render_block(c, sentence, since))
    for entry in log:
        c = machine.apply(c, entry.action, reward=entry.reward)
        since.append(entry.action)
        if c.state == BACK_STATE and (not c.terminal or entry is log[-1]):
            blocks.append(_render_block(c, sentence, since))
            since = []
    if since:
        blocks.append(_render_block(c, sentence, since))
    return "\n\n".join(blocks) + "\n"


def _render_block(c: Configuration, sentence, since) -> str:
    def fmt(cell):
        return "" if cell is EMPTY else str(cell)

    words = [
        f"*{sentence.form(i)}*" if i == c.word_index else sentence.form(i)
        for i in range(1, c.n + 1)
    ]
    rows = [
        [fmt(x) for x in c.gov_tape],
        [fmt(x) for x in c.pos_tape],
        words,
        [str(x) for x in c.back_counts],
    ]
    widths = [max(len(r[i]) for r in rows) if rows[0] else 0 for i in range(c.n)]
    lines = []
    if since:
        lines.append("actions: " + ", ".join(str(a) for a in since))
    for row in rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    if c.terminal:
        lines.append("(terminal)")
    return "\n".join(lines)
