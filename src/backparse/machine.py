"""Transition machines with an undoable BACK action.

Three machine kinds share one topology family: a BACK state deciding
whether to undo the previous word's actions, plus task states that tag
(POS) and/or parse (SYNT).  Every action records the payload its exact
inverse needs, so any configuration can be rolled back action by action.
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
    """A history entry: the action, its undo payload, its training reward."""

    action: Action
    payload: dict
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
    log: tuple[Applied, ...] = ()    # every applied action, append-only
    live: tuple[Applied, ...] = ()   # actions whose effects are in force

    @property
    def n(self) -> int:
        return len(self.pos_tape)

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
        work = {
            "state": BACK_STATE,
            "word_index": 1,
            "stack": (),
            "pos_tape": (EMPTY,) * n,
            "gov_tape": (EMPTY,) * n,
            "back_counts": (0,) * n,
            "frontier": 1,
            "terminal": False,
            "log": (),
            "live": (),
        }
        self._settle(work)
        return Configuration(**work)

    def legal_actions(self, c: Configuration) -> tuple[Action, ...]:
        """Legal actions, in the fixed per-head order used everywhere."""
        if c.terminal:
            raise TerminalError("terminal configuration has no legal actions")
        if c.state == BACK_STATE:
            if self._back_possible(c.back_counts, c.word_index, c.n, c.live):
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
        return self._back_possible(c.back_counts, c.word_index, c.n, c.live)

    def _back_possible(self, back_counts, word_index, n, live) -> bool:
        if self.k == 0 or n == 0:
            return False
        idx = min(word_index, n)
        if back_counts[idx - 1] >= self.k:
            return False
        return any(e.action.kind == "noback" for e in live)

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
        work = self._work(c)
        if a.kind == "back":
            payload = self._execute_back(work)
            entry = Applied(a, payload, reward)
        else:
            payload = self._make_payload(work, a)
            self._apply_core(work, a, payload)
            self._settle(work)
            entry = Applied(a, payload, reward)
            work["live"] = work["live"] + (entry,)
        work["log"] = work["log"] + (entry,)
        return Configuration(**work)

    def undo(self, c: Configuration, a: Action) -> Configuration:
        """Exact inverse of apply; `a` must be the most recent log entry."""
        if not c.log:
            raise UndoError("history is empty")
        entry = c.log[-1]
        if entry.action != a:
            raise UndoError(f"last applied action is {entry.action}, not {a}")
        work = self._work(c)
        if a.kind == "back":
            self._unexecute_back(work, entry.payload)
        else:
            if not c.live or c.live[-1] is not entry:
                raise UndoError("live history out of sync with the log")
            self._unapply_core(work, a, entry.payload)
            work["live"] = work["live"][:-1]
        work["log"] = work["log"][:-1]
        return Configuration(**work)

    def peek_back_span(self, c: Configuration) -> tuple[Applied, ...]:
        """The live suffix a BACK applied now would undo, oldest first."""
        span = []
        for entry in reversed(c.live):
            span.append(entry)
            if entry.action.kind == "noback":
                return tuple(reversed(span))
        raise IllegalActionError("history holds nothing to undo")

    # ------------------------------------------------------------------
    # internals

    @staticmethod
    def _work(c: Configuration) -> dict:
        return {
            "state": c.state,
            "word_index": c.word_index,
            "stack": c.stack,
            "pos_tape": c.pos_tape,
            "gov_tape": c.gov_tape,
            "back_counts": c.back_counts,
            "frontier": c.frontier,
            "terminal": c.terminal,
            "log": c.log,
            "live": c.live,
        }

    def _make_payload(self, work: dict, a: Action) -> dict:
        p = {"st": work["state"], "fr": work["frontier"], "tm": work["terminal"]}
        wi = work["word_index"]
        if a.kind == "tag":
            p["cell"] = work["pos_tape"][wi - 1]
        elif a.kind == "left":
            top = work["stack"][-1]
            p["popped"] = top
            p["cell"] = work["gov_tape"][top - 1]
        elif a.kind == "right":
            p["cell"] = work["gov_tape"][wi - 1]
        elif a.kind == "reduce":
            top = work["stack"][-1]
            p["popped"] = top
            if wi > len(work["pos_tape"]) and not cell_is_value(work["gov_tape"][top - 1]):
                p["wrote"] = True
                p["cell"] = work["gov_tape"][top - 1]
        return p

    def _apply_core(self, work: dict, a: Action, p: dict) -> None:
        """Effects of one non-BACK action; shared by apply and redo."""
        wi = work["word_index"]
        if a.kind == "tag":
            work["pos_tape"] = _set(work["pos_tape"], wi - 1, a.tag)
            if self.kind == TAGGER:
                work["word_index"] = wi + 1
                work["frontier"] = max(work["frontier"], wi + 1)
        elif a.kind == "left":
            top = work["stack"][-1]
            work["gov_tape"] = _set(work["gov_tape"], top - 1, wi)
            work["stack"] = work["stack"][:-1]
        elif a.kind == "right":
            work["gov_tape"] = _set(work["gov_tape"], wi - 1, work["stack"][-1])
            work["stack"] = work["stack"] + (wi,)
            work["word_index"] = wi + 1
            work["frontier"] = max(work["frontier"], wi + 1)
        elif a.kind == "shift":
            work["stack"] = work["stack"] + (wi,)
            work["word_index"] = wi + 1
            work["frontier"] = max(work["frontier"], wi + 1)
        elif a.kind == "reduce":
            top = work["stack"][-1]
            if p.get("wrote"):
                work["gov_tape"] = _set(work["gov_tape"], top - 1, 0)
            work["stack"] = work["stack"][:-1]
        elif a.kind == "noback":
            pass
        else:
            raise AssertionError(a.kind)
        work["state"] = _NEXT_STATE[self.kind][a.kind]

    def _unapply_core(self, work: dict, a: Action, p: dict):
        """Exact inverse of _apply_core; returns tape cells the action wrote."""
        writes = []
        if a.kind == "tag":
            if self.kind == TAGGER:
                work["word_index"] -= 1
            wi = work["word_index"]
            work["pos_tape"] = _set(work["pos_tape"], wi - 1, p["cell"])
            writes.append(("pos", wi - 1))
        elif a.kind == "left":
            top = p["popped"]
            work["gov_tape"] = _set(work["gov_tape"], top - 1, p["cell"])
            work["stack"] = work["stack"] + (top,)
            writes.append(("gov", top - 1))
        elif a.kind == "right":
            work["word_index"] -= 1
            wi = work["word_index"]
            work["gov_tape"] = _set(work["gov_tape"], wi - 1, p["cell"])
            work["stack"] = work["stack"][:-1]
            writes.append(("gov", wi - 1))
        elif a.kind == "shift":
            work["word_index"] -= 1
            work["stack"] = work["stack"][:-1]
        elif a.kind == "reduce":
            top = p["popped"]
            if p.get("wrote"):
                work["gov_tape"] = _set(work["gov_tape"], top - 1, p["cell"])
                writes.append(("gov", top - 1))
            work["stack"] = work["stack"] + (top,)
        elif a.kind == "noback":
            pass
        else:
            raise AssertionError(a.kind)
        work["state"] = p["st"]
        work["frontier"] = p["fr"]
        work["terminal"] = p["tm"]
        return writes

    def _execute_back(self, work: dict) -> dict:
        p = {
            "wi": work["word_index"],
            "fr": work["frontier"],
            "bidx": min(work["word_index"], len(work["pos_tape"])),
        }
        span = []
        writes = []
        while True:
            if not work["live"]:
                raise AssertionError("BACK applied with no undoable history")
            entry = work["live"][-1]
            work["live"] = work["live"][:-1]
            span.append(entry)
            writes.extend(self._unapply_core(work, entry.action, entry.payload))
            if entry.action.kind == "noback":
                break
        p["span"] = tuple(reversed(span))
        # Re-expose the erasures: cells the undone span had written show as
        # erased, not empty, so later feature extraction can tell.
        marks = []
        for tape_name, idx in writes:
            key = "pos_tape" if tape_name == "pos" else "gov_tape"
            cur = work[key][idx]
            if not cell_is_value(cur) and cur is not ERASED:
                marks.append((tape_name, idx, cur))
                work[key] = _set(work[key], idx, ERASED)
        p["marks"] = tuple(marks)
        # The stepwise undo rolled the frontier back; the whole point of
        # backtracking is that the widest view survives.
        p["fr_unwound"] = work["frontier"]
        work["frontier"] = p["fr"]
        counts = list(work["back_counts"])
        counts[p["bidx"] - 1] += 1
        work["back_counts"] = tuple(counts)
        work["state"] = BACK_STATE
        work["terminal"] = False
        return p

    def _unexecute_back(self, work: dict, p: dict) -> None:
        counts = list(work["back_counts"])
        counts[p["bidx"] - 1] -= 1
        work["back_counts"] = tuple(counts)
        work["frontier"] = p["fr_unwound"]
        for tape_name, idx, prior in reversed(p["marks"]):
            key = "pos_tape" if tape_name == "pos" else "gov_tape"
            work[key] = _set(work[key], idx, prior)
        for entry in p["span"]:
            self._apply_core(work, entry.action, entry.payload)
        work["live"] = work["live"] + p["span"]
        work["state"] = BACK_STATE
        work["word_index"] = p["wi"]
        work["frontier"] = p["fr"]
        work["terminal"] = False

    def _settle(self, work: dict) -> None:
        """Resolve free transitions once every word has been consumed.

        With no word left there is nothing to decide in POS, and the BACK
        state only stops if a backtrack is still permitted; otherwise the
        machine moves straight to stack cleanup or halts.
        """
        n = len(work["pos_tape"])
        while work["word_index"] > n and not work["terminal"]:
            state = work["state"]
            if state == BACK_STATE:
                if self._back_possible(
                    work["back_counts"], work["word_index"], n, work["live"]
                ):
                    return
                if self.kind == TAGGER or not work["stack"]:
                    work["terminal"] = True
                    work["state"] = BACK_STATE
                else:
                    work["state"] = SYNT_STATE
            elif state == POS_STATE:
                if self.kind == TAGGER:
                    work["terminal"] = True
                    work["state"] = BACK_STATE
                else:
                    work["state"] = SYNT_STATE
            else:  # SYNT: cleanup reduce actions pending while the stack drains
                if work["stack"]:
                    return
                work["terminal"] = True
                work["state"] = BACK_STATE


def _set(tape: tuple, idx: int, value) -> tuple:
    return tape[:idx] + (value,) + tape[idx + 1 :]


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
