"""Command-line entry point: train, decode, eval, stats, trace, split."""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .corpus import (
    ConlluError,
    ValidationError,
    kfold_split,
    parse_conllu,
    save_split_manifest,
    serialize,
)
from .evaluation import back_stats, format_metrics_table, paired_bootstrap, score
from .machine import KINDS, TAGGER, render_trace
from .neural import Model
from .training import (
    REGIME_RL,
    REGIME_RL_BACKTRACK,
    REGIME_SUP,
    REGIMES,
    ExplorationSchedule,
    TrainConfig,
    decode_corpus,
    train_rl,
    train_supervised,
)

log = logging.getLogger("backparse")


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("BACKPARSE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, AssertionError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _build_parser():
    p = argparse.ArgumentParser(prog="backparse")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a machine and write a model file")
    t.add_argument("--corpus", help="training corpus (or `corpus` in the config file)")
    t.add_argument("--dev")
    t.add_argument("--from-manifest", help="re-run a previous training run exactly")
    t.add_argument("--machine", choices=KINDS, default=None)
    t.add_argument("--regime", choices=REGIMES, default=None)
    t.add_argument("--k", type=int, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--alpha", type=float, default=None)
    t.add_argument("--gamma", type=float, default=None)
    t.add_argument("--hidden", type=int, default=None)
    t.add_argument("--word-dim", type=int, default=None)
    t.add_argument("--feat-dim", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--config", help="JSON config file; flags override its values")
    t.add_argument("--out", required=True, help="model file to write")
    t.add_argument("--metrics", help="per-epoch JSON-lines metrics log")
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("decode", help="annotate a corpus with a trained model")
    d.add_argument("--model", required=True)
    d.add_argument("--input", required=True)
    d.add_argument("--output", required=True)
    d.add_argument("--machine", choices=KINDS, help="assert the model kind")
    d.add_argument("--k", type=int, default=None, help="override the trained undo budget")
    d.add_argument("--trace", help="write per-visit trace blocks to this file")
    d.set_defaults(func=cmd_decode)

    e = sub.add_parser("eval", help="score predictions against gold")
    e.add_argument("--pred", required=True)
    e.add_argument("--gold", required=True)
    e.add_argument("--compare", help="second prediction file for significance testing")
    e.add_argument("--metric", choices=("upos", "uas"), default="uas")
    e.add_argument("--resamples", type=int, default=10000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("stats", help="undo-behaviour statistics on a gold corpus")
    s.add_argument("--model", required=True)
    s.add_argument("--gold", required=True)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_stats)

    r = sub.add_parser("trace", help="print trace blocks for a corpus")
    r.add_argument("--model", required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--k", type=int, default=None)
    r.set_defaults(func=cmd_trace)

    k = sub.add_parser("split", help="write shuffled k-fold split manifests")
    k.add_argument("--corpus", required=True)
    k.add_argument("--folds", type=int, default=10)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--proportions", default="0.8,0.1,0.1")
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_split)
    return p


def _read_corpus(path, single_root=True):
    """The sentences of a CoNLL-U file; an error in it is one ValueError
    that names the file (`path:line: ...` or `path: block at line N: ...`)."""
    if not os.path.exists(path):
        raise UsageError(f"corpus file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            return parse_conllu(f.read(), single_root)
    except ConlluError as e:
        raise ValueError(f"{path}:{e.line_no}: {e.message}") from None
    except ValidationError as e:
        raise ValueError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None


def _read_json(path):
    """The JSON value in `path`; a file that is not UTF-8 JSON is one usage
    error that names it."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}: not JSON ({e.msg})") from None


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _write_manifest(path, command, config, corpora, outputs, inputs=None):
    manifest = {
        "tool": "backparse",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs or dict(corpora),
        "corpus_sha256": {name: _sha256(p) for name, p in corpora.items() if p},
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def cmd_train(args) -> int:
    cfg_values = {}
    if args.from_manifest:
        manifest = _read_json(args.from_manifest)
        if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
                and isinstance(manifest.get("inputs"), dict)):
            raise UsageError(f"{args.from_manifest} is not a train manifest")
        cfg_values.update(manifest["config"])
        cfg_values.update({k: v for k, v in manifest["inputs"].items() if v})
    if args.config:
        values = _read_json(args.config)
        if not isinstance(values, dict):
            raise UsageError(f"config {args.config} is not a JSON object")
        cfg_values.update(values)
    for key in ("machine", "regime", "k", "epochs", "seed", "alpha", "gamma",
                "hidden", "word_dim", "feat_dim", "batch_size", "corpus", "dev"):
        flag = getattr(args, key)
        if flag is not None:
            cfg_values[key] = flag

    corpus_path = cfg_values.pop("corpus", None)
    dev_path = cfg_values.pop("dev", None)
    if not corpus_path:
        raise UsageError("no training corpus given (use --corpus or the config file)")
    if not all(isinstance(p, str) for p in (corpus_path, dev_path or "")):
        raise UsageError("corpus and dev must be file paths")
    kind = cfg_values.pop("machine", TAGGER)
    regime = cfg_values.pop("regime", REGIME_SUP)
    if regime not in REGIMES:
        raise UsageError(f"unknown regime {regime!r}")
    if kind not in KINDS:
        raise UsageError(f"unknown machine {kind!r}")
    k = cfg_values.pop("k", None)
    if regime != REGIME_RL_BACKTRACK and k not in (None, 0):
        raise UsageError(f"--k {k} conflicts with --regime {regime}; undo needs rl-backtrack")
    if regime == REGIME_RL_BACKTRACK and k == 0:
        raise UsageError("--regime rl-backtrack needs --k >= 1")
    batch_size = cfg_values.get("batch_size")
    if regime != REGIME_SUP and batch_size not in (None, 1):
        raise UsageError(f"--batch-size {batch_size} conflicts with --regime {regime}; batches are supervised-only")

    schedule_values = cfg_values.pop("schedule", None)
    known = {f for f in TrainConfig.__dataclass_fields__}
    unknown = set(cfg_values) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if schedule_values is not None and not (
        isinstance(schedule_values, dict)
        and set(schedule_values) <= set(ExplorationSchedule.__dataclass_fields__)
    ):
        raise UsageError(f"schedule must be an object with keys from "
                         f"{sorted(ExplorationSchedule.__dataclass_fields__)}")
    try:
        cfg = TrainConfig(**cfg_values)
        if schedule_values:
            cfg = replace(cfg, schedule=ExplorationSchedule(**schedule_values))
        if regime == REGIME_RL_BACKTRACK and k is not None:
            cfg = replace(cfg, k=k)
    except ValueError as e:
        raise UsageError(f"bad training config: {e}") from None

    train = _read_corpus(corpus_path)
    if not train:
        raise UsageError(f"corpus {corpus_path} holds no sentences")
    dev = _read_corpus(dev_path) if dev_path else []

    log.info("training %s (%s) on %d sentences", kind, regime, len(train))
    # A step that diverges raises FloatingPointError, which main prints as
    # one error line; numpy's overflow warnings before it would add lines.
    with np.errstate(over="ignore", invalid="ignore"):
        if regime == REGIME_SUP:
            model, history = train_supervised(train, dev, kind, cfg)
        else:
            model, history = train_rl(train, dev, kind, cfg, regime)

    model.save(args.out)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as f:
            for row in history:
                f.write(json.dumps(row, sort_keys=True) + "\n")
    resolved = {f: getattr(cfg, f) for f in known if f != "schedule"}
    resolved["schedule"] = cfg.schedule.__dict__
    resolved.update({"machine": kind, "regime": regime, "k": model.machine.k})
    _write_manifest(
        args.out + ".manifest.json",
        "train",
        resolved,
        {"train": corpus_path, "dev": dev_path},
        {"model": args.out, "metrics": args.metrics},
        inputs={"corpus": corpus_path, "dev": dev_path},
    )
    last = history[-1] if history else {}
    print(json.dumps({"epochs_run": len(history), **{k2: last.get(k2) for k2 in ("dev_upos", "dev_uas")}}))
    return 0


def _load_model(path, k=None) -> Model:
    """The model in `path`, its undo budget replaced by `k` when given."""
    if not os.path.exists(path):
        raise UsageError(f"model file not found: {path}")
    model = Model.load(path)
    if k is not None:
        model = model.with_k(k)
    return model


def cmd_decode(args) -> int:
    model = _load_model(args.model, args.k)
    if args.machine and args.machine != model.machine.kind:
        raise ValueError(
            f"model is a {model.machine.kind}, not the requested {args.machine}"
        )
    sentences = _read_corpus(args.input)
    results = decode_corpus(model, sentences)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(serialize([r.predicted for r in results]))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for r in results:
                f.write(render_trace(model.machine, r.sentence, r.log))
                f.write("\n")
    _write_manifest(
        args.output + ".manifest.json",
        "decode",
        {"model": args.model, "k": args.k},
        {"input": args.input},
        {"output": args.output, "trace": args.trace},
    )
    return 0


def cmd_eval(args) -> int:
    gold = _read_corpus(args.gold)
    # Decoding leaves every word still headless at the end on the root, so
    # predictions may hold several root-attached words; gold trees may not.
    pred = _read_corpus(args.pred, single_root=False)
    metrics = score(pred, gold)
    out = {
        "upos": metrics.upos_accuracy,
        "uas": metrics.uas,
        "tokens": metrics.n_tokens,
        "sentences": metrics.n_sentences,
    }
    if args.compare:
        other = _read_corpus(args.compare, single_root=False)
        out["compare_" + args.metric] = getattr(
            score(other, gold), "uas" if args.metric == "uas" else "upos_accuracy"
        )
        out["p_value"] = paired_bootstrap(
            pred, other, gold, metric=args.metric, resamples=args.resamples, seed=args.seed
        )
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(format_metrics_table([(os.path.basename(args.pred), out)]))
    return 0


def cmd_stats(args) -> int:
    model = _load_model(args.model, args.k)
    gold = _read_corpus(args.gold)
    stats = back_stats(model.machine, decode_corpus(model, gold), gold)
    out = {
        "n_actions": stats.n_actions,
        "n_errors": stats.n_errors,
        "n_error_words": stats.n_error_words,
        "n_backs": stats.n_backs,
        "bPrec": stats.b_prec,
        "bRec": stats.b_rec,
        "C->C": stats.cc,
        "E->E": stats.ee,
        "C->E": stats.ce,
        "E->C": stats.ec,
        "degenerate": stats.degenerate,
    }
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(format_metrics_table([(model.machine.kind, out)]))
    return 0


def cmd_trace(args) -> int:
    model = _load_model(args.model, args.k)
    for r in decode_corpus(model, _read_corpus(args.input)):
        print(render_trace(model.machine, r.sentence, r.log))
    return 0


def cmd_split(args) -> int:
    corpus = _read_corpus(args.corpus)
    try:
        proportions = tuple(float(x) for x in args.proportions.split(","))
    except ValueError:
        raise UsageError(f"bad proportions {args.proportions!r}") from None
    splits = kfold_split(corpus, folds=args.folds, seed=args.seed, proportions=proportions)
    save_split_manifest(args.out, splits)
    print(json.dumps({"folds": len(splits), "sentences": len(corpus)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
