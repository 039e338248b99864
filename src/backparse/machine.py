"""Transition machines with an undoable BACK action.

Three machine kinds share one topology family: a BACK state deciding
whether to undo the previous word's actions, plus task states that tag
(POS) and/or parse (SYNT).  Configurations are immutable and each keeps
the one it was made from, so undo returns that one, and BACK returns to
the configuration before the last word's actions.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

TAGGER = "tagger"
PARSER = "parser"
TAGPARSER = "tagparser"
KINDS = (TAGGER, PARSER, TAGPARSER)

BACK_STATE = "back"
POS_STATE = "pos"
SYNT_STATE = "synt"


class _Erased:
    """Tape cell marker left where an undone write reverted to empty.  There
    is one instance (copies and unpickles included), so it compares by
    identity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-"


ERASED = _Erased()
EMPTY = None


def cell_is_value(cell) -> bool:
    return cell is not EMPTY and cell is not ERASED


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


class Applied(namedtuple("Applied", ("action", "reward"), defaults=(None,))):
    """A history entry: the action and its training reward."""

    __slots__ = ()


class _Slots:
    """A configuration's fields, one slot each."""

    __slots__ = (
        "state",
        "word_index",    # 1-based; n+1 once every word is consumed
        "stack",
        # (leftmost, rightmost) dependent of each stack word, bottom first,
        # then those of the current word, which has only LEFT dependents; 0
        # for none
        "deps",
        "pos_tape",
        "gov_tape",
        "back_counts",
        "frontier",      # rightmost word index ever reached
        "terminal",
        "entry",         # the Applied that made this configuration
        "n_actions",     # length of the history
        # The configuration `entry` was applied to, and the one the last
        # live NOBACK was applied to (None while nothing can be undone).
        # Both lead down the whole history, so neither is compared or printed.
        "prev",
        "back_to",
        "__weakref__",
    )


class _Draft(_Slots):
    """Sets a configuration's fields, then makes it a Configuration, whose
    __setattr__ refuses every write.  apply makes one per action, and plain
    slot writes on a class that keeps object's __setattr__ cost a fifth of
    a frozen dataclass's object.__setattr__ call per field."""

    __slots__ = ()

    def __init__(self, state, word_index, stack, deps, pos_tape, gov_tape, back_counts, frontier,
                 terminal, entry=None, n_actions=0, prev=None, back_to=None):
        self.state = state
        self.word_index = word_index
        self.stack = stack
        self.deps = deps
        self.pos_tape = pos_tape
        self.gov_tape = gov_tape
        self.back_counts = back_counts
        self.frontier = frontier
        self.terminal = terminal
        self.entry = entry
        self.n_actions = n_actions
        self.prev = prev
        self.back_to = back_to
        self.__class__ = Configuration


class Configuration(_Slots):
    """An immutable machine configuration; construct it with the fields in
    _Slots order."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        return _Draft(*fields, **named)

    def __setattr__(self, name, value):
        raise AttributeError(f"Configuration is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Configuration is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.core_fields() == other.core_fields() and self.log == other.log

    def __hash__(self):
        return hash(self.core_fields())

    def __repr__(self):
        printed = _Slots.__slots__[:-3]  # all but prev, back_to and __weakref__
        return f"Configuration({', '.join(f'{f}={getattr(self, f)!r}' for f in printed)})"

    def __reduce__(self):  # copies and pickles
        return _Draft, tuple(getattr(self, f) for f in _Slots.__slots__[:-1])

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
        return _Draft(state, 1, (), ((0, 0),), (EMPTY,) * n, (EMPTY,) * n, (0,) * n, 1, terminal)

    def legal_actions(self, c: Configuration) -> tuple[Action, ...]:
        """Legal actions, in the fixed per-head order used everywhere."""
        if c.terminal:
            raise TerminalError("terminal configuration has no legal actions")
        if c.state == BACK_STATE:
            if self._back_possible(c.back_counts, c.word_index, len(c.pos_tape), c.back_to):
                return _BACK_OR_NOT
            return _NOBACK_ONLY
        if c.state == POS_STATE:
            return self.tag_actions
        # SYNT
        if c.word_index > len(c.pos_tape):
            return _REDUCE_ONLY  # end-of-sentence stack cleanup
        if not c.stack:
            return _SHIFT_ONLY
        if cell_is_value(c.gov_tape[c.stack[-1] - 1]):
            return _TOP_GOVERNED
        return _TOP_UNGOVERNED

    def back_allowed(self, c: Configuration) -> bool:
        return self._back_possible(c.back_counts, c.word_index, len(c.pos_tape), c.back_to)

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
        legal = self.legal_actions(c)
        # Callers pass the machine's own action objects, so an identity hit
        # saves Action.__eq__ on the actions listed before `a`.
        for x in legal:
            if x is a:
                break
        else:
            if a not in legal:
                raise IllegalActionError(f"{a}: {self._why_illegal(c, a)}")
        kind = a.kind
        entry = Applied(a, reward)
        if kind == "back":
            return self._back(c, entry)
        wi, stack, deps, pos_tape, gov_tape = c.word_index, c.stack, c.deps, c.pos_tape, c.gov_tape
        if kind == "tag":
            pos_tape = _set(pos_tape, wi - 1, a.tag)
            if self.kind == TAGGER:
                wi += 1
        elif kind == "left":
            # The top becomes the current word's new leftmost dependent; its
            # first one stays the rightmost.
            top = stack[-1]
            gov_tape = _set(gov_tape, top - 1, wi)
            stack = stack[:-1]
            deps = deps[:-2] + ((top, deps[-1][1] or top),)
        elif kind == "right":
            # The current word becomes the top's rightmost dependent, goes on
            # the stack with its dependents, and the next word has none.
            gov_tape = _set(gov_tape, wi - 1, stack[-1])
            stack += (wi,)
            deps = deps[:-2] + ((deps[-2][0] or wi, wi), deps[-1], (0, 0))
            wi += 1
        elif kind == "shift":
            stack += (wi,)
            deps += ((0, 0),)
            wi += 1
        elif kind == "reduce":
            top = stack[-1]
            if wi > len(pos_tape) and not cell_is_value(gov_tape[top - 1]):
                gov_tape = _set(gov_tape, top - 1, 0)  # cleanup: headless words go to the root
            stack = stack[:-1]
            deps = deps[:-2] + deps[-1:]
        back_to = c if kind == "noback" else c.back_to
        state, terminal = self._settle(
            _NEXT_STATE[self.kind][kind], wi, len(pos_tape), stack, c.back_counts, back_to
        )
        frontier = c.frontier if c.frontier > wi else wi
        return _Draft(state, wi, stack, deps, pos_tape, gov_tape, c.back_counts, frontier, terminal,
                      entry, c.n_actions + 1, c, back_to)

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
        wrote reads ERASED, not empty, so later feature extraction can tell.
        No action writes over a value, so those cells held none at
        `c.back_to`, and the arcs and the stack dependents are its own."""
        q = c.back_to
        idx = min(c.word_index, len(c.pos_tape)) - 1
        counts = _set(c.back_counts, idx, c.back_counts[idx] + 1)
        pos_cells, gov_cells = _cells_written(c, q)
        return _Draft(BACK_STATE, q.word_index, q.stack, q.deps, _erase(q.pos_tape, pos_cells),
                      _erase(q.gov_tape, gov_cells), counts, c.frontier, False, entry,
                      c.n_actions + 1, c, q.back_to)

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


def _cells_written(c: Configuration, q: Configuration) -> tuple[list[int], list[int]]:
    """The pos and gov tape cells the actions from q to c wrote.  The walk
    from c down to q passes every action applied since q, those of undone
    spans included, since a BACK's configuration points to the one BACK was
    applied to.  (A REDUCE writes only in end-of-sentence cleanup, which no
    BACK state follows.)"""
    pos_cells, gov_cells = [], []
    while c is not q:
        p = c.prev
        kind = c.entry.action.kind
        if kind == "tag":
            pos_cells.append(p.word_index - 1)
        elif kind == "right":
            gov_cells.append(p.word_index - 1)
        elif kind == "left":
            gov_cells.append(p.stack[-1] - 1)
        c = p
    return pos_cells, gov_cells


def _erase(tape: tuple, cells) -> tuple:
    """`tape` with ERASED in `cells`."""
    if not cells:
        return tape
    out = list(tape)
    for i in cells:
        out[i] = ERASED
    return tuple(out)


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
