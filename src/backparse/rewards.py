"""Immediate reward functions for tagging, parsing and undo decisions."""
from __future__ import annotations

import math

from .corpus import Sentence
from .machine import Action, Configuration, Machine, TerminalError
from .oracle import dynamic_oracle

ILLEGAL_REWARD = -1.5


def tag_reward(predicted: str, gold: str) -> float:
    return 0.0 if predicted == gold else -1.0


def parse_reward(c: Configuration, a: Action, s: Sentence, machine: Machine) -> float:
    """Minus the action's dynamic-oracle cost, the number of gold arcs it
    destroys; -1.5 if the action cannot be executed at all (popping an
    empty stack and kin)."""
    try:
        legal = machine.legal_actions(c)
    except TerminalError:
        return ILLEGAL_REWARD
    if a not in legal:
        return ILLEGAL_REWARD
    return float(-dynamic_oracle(c, a, s, machine).loss)


def back_reward(undone_rewards) -> float:
    """Reward for undoing a span whose actions earned `undone_rewards`.

    The error mass E is the negated reward sum.  Undoing a clean span is
    penalized; undoing errors pays off logarithmically so that provoking
    errors on purpose never becomes profitable.
    """
    total = sum(r for r in undone_rewards if r is not None)
    e = -total
    if e < -1e-9:
        raise ValueError(f"negative error mass {e}; reward bookkeeping is broken")
    if e <= 1e-12:
        return -1.0
    return math.log(e + 1.0)


def noback_reward(c: Configuration, s: Sentence) -> float:
    # Neutral: keeps the undone-span error mass a pure error measure.
    return 0.0


def action_reward(c: Configuration, a: Action, s: Sentence, machine: Machine) -> float:
    """Reward dispatcher used by the training loops."""
    if a.kind == "tag":
        return tag_reward(a.tag, s.upos(c.word_index))
    if a.kind == "noback":
        return noback_reward(c, s)
    if a.kind == "back":
        span = machine.peek_back_span(c)
        return back_reward([e.reward for e in span])
    return parse_reward(c, a, s, machine)
