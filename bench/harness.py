"""Set-up, the timed round loop, output checks and metric assembly."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import backparse as bp

from fixtures import fixture_model
from tracer import LAYERS, LayerStats, Tracer
from workloads import (KIND, RL_EPOCHS, Workload, clock, closed_loop, input_problems, make_inputs,
                       median, run_round)

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 100, 3.0   # set-ups before the rounds, for setup_s
MIN_LATENCY_SAMPLES = 200   # so that at least ten closed-loop samples lie beyond p95


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)
        self.notes.append(f"{name} = {value:.6g} {unit}")


def cpu_reference_ms() -> float:
    """Median time of a fixed pure-Python loop, outside the library: shows
    how fast the machine ran, for reading one run against another."""
    times = []
    for _ in range(15):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment(cores: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "nproc": cores,
        "machine": platform.machine(),
    }


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    res = Result()
    texts = make_inputs(w, seed)
    res.problems += input_problems(w, texts)
    res.notes.append("inputs sha256 " + hashlib.sha256("".join(texts.values()).encode()).hexdigest())

    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=root)
    try:
        model_path = os.path.join(tmp, "fixture.model")
        fixture = fixture_model(bp.parse_conllu(texts["decode"]), KIND, w.decode_k, w.hidden,
                                w.word_dim, w.feat_dim, w.back_bias)
        fixture.save(model_path)
        del fixture
        res.notes.append(f"cpu reference loop before = {cpu_reference_ms():.3f} ms")
        start = perf_counter()
        if trace:
            _traced_loop(w, texts, model_path, seconds, res)
        else:
            _timed_loop(w, texts, model_path, start + seconds, res)
        res.notes.append(f"cpu reference loop after = {cpu_reference_ms():.3f} ms")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return res


def _setup_samples(texts, model_path) -> list[float]:
    """Set-up repeated on its own, so that setup_s has a median of many."""
    setup = []
    while len(setup) < SETUP_MAX_REPS and (len(setup) < SETUP_MIN_REPS or sum(setup) < SETUP_MIN_S):
        t0 = clock()
        for text in texts.values():
            bp.parse_conllu(text)
        bp.Model.load(model_path)
        setup.append(clock() - t0)
    return setup


def _rounds_until(deadline, one_round) -> None:
    """Repeat `one_round` while another one still fits before `deadline`."""
    lengths = []
    while True:
        t0 = perf_counter()
        one_round()
        lengths.append(perf_counter() - t0)
        if perf_counter() + median(lengths) > deadline:
            return


def _check_repeats(rounds, res: Result) -> None:
    """Every round must repeat the first; the result reports one round's
    counts, so they do not grow with the number of rounds that fit."""
    first = rounds[0]
    for i, r in enumerate(rounds[1:], start=2):
        if r.digest != first.digest:
            res.problems.append(f"round {i} outputs differ from round 1")
        if r.fingerprint != first.fingerprint:
            res.problems.append(f"round {i} fingerprints differ from round 1")
        if (r.attempted, r.failed) != (first.attempted, first.failed):
            res.problems.append(f"round {i} attempted/failed counts differ from round 1")
    for r in rounds:
        res.problems.extend(r.problems)
    res.attempted, res.failed = first.attempted, first.failed
    if first.multi_root:
        res.notes.append(f"decoded trees with more than one root: {first.multi_root} per round")


def _timed_loop(w, texts, model_path, deadline, res: Result) -> None:
    setup = _setup_samples(texts, model_path)
    rounds = []
    _rounds_until(deadline, lambda: rounds.append(run_round(w, texts, model_path, first=not rounds)))
    _check_repeats(rounds, res)
    latencies = [ms for r in rounds for ms in r.sent_ms]
    if len(latencies) < MIN_LATENCY_SAMPLES:  # a slow machine: top up the closed-loop sample
        model = bp.Model.load(model_path)
        sents = bp.parse_conllu(texts["decode"])
        first = rounds[0]
        while len(latencies) < MIN_LATENCY_SAMPLES:
            replies = closed_loop(model, sents, latencies)
            # The same replies as round 1's first pass, so the same failures.
            digest = hashlib.sha256("".join(reply for _, reply in replies).encode()).hexdigest()
            if digest != first.closed_digest:
                res.problems.append("top-up closed-loop replies differ from the first round")
    setup += [r.setup_s for r in rounds]
    r0 = rounds[0]
    res.notes.append(f"rounds = {len(rounds)}, closed-loop samples = {len(latencies)}, "
                     f"set-up samples = {len(setup)}, decode tokens/round = {r0.decode_tokens}, "
                     f"train tokens/round = {r0.train_tokens}")
    q = statistics.quantiles(latencies, n=20, method="inclusive")
    res.put("setup_s", median(setup), "s")
    res.put("decode_tok_s", median([r.decode_tokens / r.batch_s for r in rounds]), "tok/s")
    res.put("decode_sent_ms_p50", median(latencies), "ms")
    res.put("decode_sent_ms_p95", q[18], "ms")
    res.put("train_sup_tok_s", median([r.train_tokens * w.sup_epochs / r.sup_s for r in rounds]), "tok/s")
    res.put("train_rl_tok_s", median([r.train_tokens * RL_EPOCHS / r.rl_s for r in rounds]), "tok/s")
    res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    # Printed, not gated: deterministic per commit and seed, but a few
    # seconds of training leave them swinging by 10-25% between seeds.
    res.notes.append(f"dev_uas = {r0.quality[0]:.4f} %  dev_upos = {r0.quality[1]:.4f} %")
    res.notes.append(f"failed_share = {res.failed}/{res.attempted} (one round)")
    res.notes.append(f"round CPU time over wall time = {median([r.cpu_s / r.wall_s for r in rounds]):.3f}")


def _traced_loop(w, texts, model_path, seconds, res: Result) -> None:
    """Untraced and traced rounds in pairs; the untraced ones give the
    reference outputs and the wall time for trace_overhead."""
    plain, traced = [], []

    def pair():
        r = run_round(w, texts, model_path, first=not plain)
        plain.append((r, r.wall_s))
        tracer = Tracer()
        tracer.install()
        try:
            unwrapped = tracer.unwrapped_sites()
            if unwrapped:
                res.problems.append("traced functions left unwrapped at " + ", ".join(unwrapped))
            r = run_round(w, texts, model_path)
        finally:
            tracer.uninstall()
        traced.append((r, r.wall_s, tracer))

    _rounds_until(perf_counter() + seconds, pair)
    _check_repeats([r for r, _ in plain] + [r for r, _, _ in traced], res)

    first = plain[0][0]
    # The closed loop decodes the batch's sentences again, pass after pass.
    phase_decisions = (1 + w.closed_passes) * first.decode_decisions
    tokens = first.decode_tokens

    # Calls the round makes by construction: its decodes (batch, closed
    # loop, dev set after each epoch), three corpora parsed and one load.
    expected = {
        "training.decode": (1 + w.closed_passes) * w.decode_count + (w.sup_epochs + RL_EPOCHS) * w.dev_count,
        "corpus.parse_conllu": 3,
        "neural.load": 1,
    }
    per_round = {layer: [] for layer in LAYERS}
    for _, wall, tracer in traced:
        if not 0 < tracer.top_level_s < wall:
            res.problems.append(f"traced spans cover {tracer.top_level_s:.3f} s of a {wall:.3f} s round")
        for layer, calls in expected.items():
            if tracer.stats[layer].calls != calls:
                res.problems.append(f"layer {layer}: {tracer.stats[layer].calls} calls, {calls} expected")
        for layer in LAYERS:
            st = tracer.stats.get(layer, LayerStats())
            if st.calls == 0 and layer not in w.optional_layers:
                res.problems.append(f"layer {layer} made no calls")
            per_round[layer].append((st.calls, st.self_s, wall))
    for layer, rows in per_round.items():
        if len({c for c, _, _ in rows}) != 1:
            res.problems.append(f"layer {layer}: call count differs between traced rounds")
        calls = rows[0][0]
        self_s = median([s for _, s, _ in rows])
        res.put(f"{layer}.calls", calls, "count")
        res.put(f"{layer}.self_s", self_s, "s")
        res.put(f"{layer}.share", median([s / wl for _, s, wl in rows]), "share")
        res.put(f"{layer}.us_per_call", 1e6 * self_s / calls if calls else 0.0, "us")

    def per(count, base):  # a failed decode or an empty RL epoch leaves no base
        return count / base if base else 0.0

    tr = traced[0][2]
    dec = ("training.decode", "training.decode")
    rl = ("training.train_rl", "training.train_rl")
    td_steps = tr.calls_in("neural.td_update", *rl)
    applies = tr.stats["machine.apply"].calls + tr.stats["machine.back"].calls
    res.put("machine.legal_actions.per_decision",
            per(tr.calls_in("machine.legal_actions", *dec), phase_decisions), "calls/decision")
    res.put("machine.legal_actions.per_td_step",
            per(tr.calls_in("machine.legal_actions", *rl), td_steps), "calls/step")
    res.put("machine.apply.lookahead_share", per(tr.lookahead_applies, applies), "share")
    res.put("neural.forward.per_decision", per(tr.calls_in("neural.forward", *dec), phase_decisions),
            "calls/decision")
    res.put("neural.forward.per_td_step", per(tr.calls_in("neural.forward", *rl), td_steps), "calls/step")
    res.put("neural.backward.w1_grad_mb_computed", first.w1_grad_mb, "MB")
    res.put("decode.actions_per_tok", first.fingerprint.get("decode.actions", 0) / tokens, "count/tok")
    res.put("decode.backs_per_tok", first.fingerprint.get("decode.backs", 0) / tokens, "count/tok")
    res.put("decode.decisions_per_tok", first.decode_decisions / tokens, "count/tok")
    res.put("train_rl.td_steps", td_steps, "count")
    res.put("trace_overhead", median([wl for _, wl, _ in traced]) / median([wl for _, wl in plain]), "ratio")
    res.put("trace.untraced_share", median([(wl - t.top_level_s) / wl for _, wl, t in traced]), "share")
    res.notes.append(f"traced rounds = {len(traced)}, untraced rounds = {len(plain)}")
