"""Per-layer tracing by wrapping the library's public functions from outside.

`Tracer.install` replaces each traced function at every place it is bound:
the defining module, every module that imported it by name, and the package
namespace.  A span is open while a wrapped call runs; a span's self time is
its duration minus the time of the spans it caused.  Counts are kept per
(layer, innermost phase, outermost phase), so that ratios can be taken
where the work happens: a dev-set decode inside `train_rl` has innermost
phase `training.decode` and outermost phase `training.train_rl`.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from backparse import corpus, evaluation, machine, neural, oracle, rewards, training

# (layer name, owner, attribute).  An owner is a module or a class.
TARGETS = (
    ("machine.apply", machine.Machine, "apply"),
    ("machine.legal_actions", machine.Machine, "legal_actions"),
    ("machine.peek_back_span", machine.Machine, "peek_back_span"),
    ("neural.extract", neural.FeatureExtractor, "extract"),
    ("neural.forward", neural.QNetwork, "forward"),
    ("neural.backward", neural.QNetwork, "backward"),
    ("neural.apply_grads", neural.QNetwork, "apply_grads"),
    ("neural.load", neural.Model, "load"),
    ("neural.td_update", neural, "td_update"),
    ("neural.supervised_update", neural, "supervised_update"),
    ("oracle.static_oracle", oracle, "static_oracle"),
    ("oracle.oracle_action", oracle, "oracle_action"),
    ("oracle.dynamic_oracle", oracle, "dynamic_oracle"),
    ("oracle.reachable_gold_arcs", oracle, "reachable_gold_arcs"),
    ("rewards.action_reward", rewards, "action_reward"),
    ("training.decode", training, "decode"),
    ("training.train_rl", training, "train_rl"),
    ("training.train_supervised", training, "train_supervised"),
    ("corpus.parse_conllu", corpus, "parse_conllu"),
    ("corpus.serialize", corpus, "serialize"),
    ("evaluation.score", evaluation, "score"),
)

# BACK runs through Machine.apply; its spans are reported under this name.
BACK_LAYER = "machine.back"
LAYERS = (TARGETS[0][0], BACK_LAYER) + tuple(name for name, _, _ in TARGETS[1:])

PHASES = ("training.decode", "training.train_rl", "training.train_supervised")
LOOKAHEAD_PREFIXES = ("oracle.", "rewards.")


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "backparse" or n.startswith("backparse.")}


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.phase_calls: dict[tuple, int] = defaultdict(int)
        self.lookahead_applies = 0
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [layer, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
                self._replace(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            if isinstance(owner, type):
                self._replace(owner, attr, raw, wrapped)
                continue
            for mod in modules.values():  # every module that bound the function by name
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, key, raw, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def unwrapped_sites(self) -> list[str]:
        """Names in the package still bound to an original traced function."""
        originals = {id(orig) for _, _, orig in self._saved}  # _saved keeps them alive
        return [f"{n}.{key}" for n, mod in _package_modules().items()
                for key, value in vars(mod).items() if id(value) in originals]

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        phase_calls = self.phase_calls
        is_apply = name == "machine.apply"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = name
            if is_apply:
                action = args[2] if len(args) > 2 else kwargs["a"]
                if action.kind == "back":
                    layer = BACK_LAYER
                elif any(f[0].startswith(LOOKAHEAD_PREFIXES) for f in stack):
                    self.lookahead_applies += 1
            phases = [f[0] for f in stack if f[0] in PHASES]
            if phases:
                phase_calls[(layer, phases[-1], phases[0])] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[layer]
                st.calls += 1
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level_s += dt

        return traced

    def calls_in(self, layer: str, innermost: str, outermost: str) -> int:
        return self.phase_calls.get((layer, innermost, outermost), 0)

