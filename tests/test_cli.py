import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from backparse.cli import main
from backparse.corpus import parse_conllu, serialize
from backparse.neural import Model
from helpers import (
    BAD_HEADER_NUMBERS,
    CONFIGS,
    CONLLU_TEXTS,
    alternation_corpus,
    corrupt_model,
    set_header_field,
    toy_grammar_corpus,
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.conllu"
    path.write_text(serialize(toy_grammar_corpus(12, seed=0)), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def train_args(corpus_file, out, *extra):
    return (
        "train",
        "--corpus", corpus_file,
        "--machine", "tagger",
        "--regime", "sup",
        "--epochs", "3",
        "--hidden", "16",
        "--word-dim", "8",
        "--feat-dim", "4",
        "--out", out,
        *extra,
    )


class TestTrain:
    def test_writes_model_metrics_and_manifest(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "model.bpm"
        metrics = tmp_path / "metrics.jsonl"
        code = run(*train_args(corpus_file, out, "--metrics", metrics, "--dev", corpus_file))
        assert code == 0
        assert out.exists() and metrics.exists()
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1, 2, 3]
        manifest = json.loads((tmp_path / "model.bpm.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "train" in manifest["corpus_sha256"]

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        code = run(*train_args(tmp_path / "nope.conllu", tmp_path / "m.bpm"))
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_dev_corpus_is_usage_error_naming_dev(self, tmp_path, corpus_file, capsys):
        code = run(*train_args(corpus_file, tmp_path / "m.bpm", "--dev", tmp_path / "nope.conllu"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: dev corpus file not found: ")
        assert not (tmp_path / "m.bpm").exists()

    def test_k_conflicts_with_sup(self, tmp_path, corpus_file, capsys):
        code = run(*train_args(corpus_file, tmp_path / "m.bpm", "--k", "1"))
        assert code == 2

    @pytest.mark.parametrize("regime", ["rl", "rl-backtrack"])
    def test_batch_size_conflicts_with_rl(self, tmp_path, capsys, regime):
        # Refused before the corpus is read: this one does not exist.
        code = run("train", "--corpus", tmp_path / "nope.conllu", "--regime", regime,
                   "--batch-size", "4", "--out", tmp_path / "m.bpm")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: --batch-size 4 conflicts")

    def test_word_vectors_without_vectors_is_one_error_line(self, tmp_path, corpus_file, capsys):
        vec_file = tmp_path / "vectors.txt"
        vec_file.write_text("0 8\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"word_vectors": str(vec_file)}))
        code = run(*train_args(corpus_file, tmp_path / "m.bpm", "--config", cfg))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {vec_file}: holds no word vectors\n"
        assert not (tmp_path / "m.bpm").exists()

    def test_zero_epochs_rejected(self, tmp_path, corpus_file):
        code = run(
            "train", "--corpus", corpus_file, "--epochs", "0",
            "--out", tmp_path / "m.bpm",
        )
        assert code == 2

    def test_rerun_with_same_flags_is_bit_identical(self, tmp_path, corpus_file):
        a, b = tmp_path / "a.bpm", tmp_path / "b.bpm"
        assert run(*train_args(corpus_file, a)) == 0
        assert run(*train_args(corpus_file, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.02, "hidden": 16, "word_dim": 8, "feat_dim": 4}))
        out = tmp_path / "m.bpm"
        code = run(
            "train", "--corpus", corpus_file, "--config", cfg,
            "--machine", "tagger", "--regime", "sup", "--epochs", "2", "--out", out,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "m.bpm.manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.02
        assert manifest["config"]["epochs"] == 2

    def test_unknown_config_key(self, tmp_path, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 1}))
        code = run(
            "train", "--corpus", corpus_file, "--config", cfg, "--out", tmp_path / "m.bpm",
        )
        assert code == 2

    @pytest.mark.parametrize("config", [
        [{"alpha": 0.02}],
        {"alpha": "x"},
        {"gamma": "0.5"},
        {"schedule": 3},
        {"schedule": {"eps_floor": "0.1"}},
        {"hidden": 0},
        {"dropout": 1.0},
        b"{bad",
        b"\xff\xfe",
    ])
    def test_malformed_config_is_one_usage_error_line(self, tmp_path, corpus_file, capsys, config):
        # Bytes are written as they are: a file that is not JSON, or not UTF-8.
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        code = run(
            "train", "--corpus", corpus_file, "--config", cfg, "--epochs", "1",
            "--out", tmp_path / "m.bpm",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "m.bpm").exists()
        if isinstance(config, bytes):
            assert err.startswith(f"error: {cfg}:")

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path, corpus_file):
        a, b = tmp_path / "a.bpm", tmp_path / "b.bpm"
        assert run(*train_args(corpus_file, a)) == 0
        assert run("train", "--from-manifest", f"{a}.manifest.json", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("manifest", [
        [], {"config": {}}, {"config": [], "inputs": {}}, b"{bad", b"\xff\xfe",
    ])
    def test_malformed_manifest_is_one_usage_error_line(self, tmp_path, capsys, manifest):
        path = tmp_path / "run.manifest.json"
        path.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        code = run("train", "--from-manifest", path, "--out", tmp_path / "m.bpm")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        if isinstance(manifest, bytes):
            assert err.startswith(f"error: {path}:")

    @pytest.mark.filterwarnings("error")  # a numpy warning would be one more stderr line
    @pytest.mark.parametrize("regime", ["sup", "rl"])
    def test_diverging_run_is_one_error_line(self, tmp_path, corpus_file, capsys, regime):
        code = run("train", "--corpus", corpus_file, "--machine", "parser", "--regime", regime,
                   "--epochs", "1", "--hidden", "16", "--alpha", "1e30", "--out", tmp_path / "m.bpm")
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: non-finite")
        assert not (tmp_path / "m.bpm").exists()

    def test_network_too_large_to_allocate_is_one_error_line(self, tmp_path, corpus_file, capsys):
        # numpy refuses the petabytes of this w1 at once, without touching
        # memory; never test with a size that can actually be allocated.
        code = run("train", "--corpus", corpus_file, "--machine", "tagparser", "--epochs", "1",
                   "--hidden", "1000000000000", "--out", tmp_path / "m.bpm")
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: out of memory: a network of hidden "
                                                       "1000000000000, word dim 300 and feature dim 128")
        assert not (tmp_path / "m.bpm").exists()

    def test_rl_backtrack_model_honours_k(self, tmp_path):
        corpus = tmp_path / "amb.conllu"
        corpus.write_text(serialize(alternation_corpus(15, seed=4)), encoding="utf-8")
        out = tmp_path / "bt.bpm"
        code = run(
            "train", "--corpus", corpus, "--machine", "tagger",
            "--regime", "rl-backtrack", "--k", "1", "--epochs", "2",
            "--hidden", "16", "--word-dim", "8", "--feat-dim", "4", "--out", out,
        )
        assert code == 0
        from backparse.neural import Model

        assert Model.load(out).machine.k == 1


@pytest.fixture
def trained(tmp_path, corpus_file):
    out = tmp_path / "model.bpm"
    assert run(*train_args(corpus_file, out)) == 0
    return out


class TestDecodeEvalStats:
    def test_decode_output_reparses(self, tmp_path, corpus_file, trained):
        pred = tmp_path / "pred.conllu"
        assert run("decode", "--model", trained, "--input", corpus_file, "--output", pred) == 0
        sentences = parse_conllu(pred.read_text())
        assert len(sentences) == 12

    def test_machine_mismatch_fails(self, tmp_path, corpus_file, trained, capsys):
        code = run(
            "decode", "--model", trained, "--input", corpus_file,
            "--output", tmp_path / "p.conllu", "--machine", "parser",
        )
        assert code == 1

    def test_eval_identical_files(self, corpus_file, trained, capsys):
        assert run("eval", "--pred", corpus_file, "--gold", corpus_file, "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["upos"] == 1.0 and out["uas"] == 1.0

    def test_eval_compare_self_not_significant(self, corpus_file, capsys):
        code = run(
            "eval", "--pred", corpus_file, "--gold", corpus_file,
            "--compare", corpus_file, "--resamples", "500", "--json",
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_value"] > 0.05

    def test_eval_misaligned_is_runtime_error(self, tmp_path, corpus_file, capsys):
        other = tmp_path / "other.conllu"
        other.write_text(serialize(toy_grammar_corpus(3, seed=5)), encoding="utf-8")
        assert run("eval", "--pred", other, "--gold", corpus_file) == 1

    def test_parser_decodes_evaluate(self, tmp_path, capsys):
        # Decoded parses may leave several words on the root; eval reads
        # them as predictions, but not as gold.
        train, test = tmp_path / "train.conllu", tmp_path / "test.conllu"
        train.write_text(serialize(toy_grammar_corpus(20, seed=1)), encoding="utf-8")
        test.write_text(serialize(toy_grammar_corpus(20, seed=2)), encoding="utf-8")
        model, pred = tmp_path / "parser.bpm", tmp_path / "pred.conllu"
        assert run("train", "--corpus", train, "--machine", "parser", "--regime", "sup",
                   "--epochs", "1", "--hidden", "16", "--out", model) == 0
        assert run("decode", "--model", model, "--input", test, "--output", pred) == 0
        decoded = parse_conllu(pred.read_text(), single_root=False)
        assert any(s.heads.count(0) > 1 for s in decoded)
        capsys.readouterr()
        assert run("eval", "--pred", pred, "--gold", test, "--compare", pred,
                   "--resamples", "50", "--json") == 0
        assert json.loads(capsys.readouterr().out)["sentences"] == 20
        assert run("eval", "--pred", test, "--gold", pred) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "root-attached tokens, expected 1" in err

    @pytest.mark.parametrize("line", [
        "1.5x\ta\t_\tX\t_\t_\t0\t_\t_\t_",
        "1-x\ta\t_\tX\t_\t_\t0\t_\t_\t_",
        " 1\ta\t_\tX\t_\t_\t0\t_\t_\t_",
        "1\ta\t_\tX\t_\t_\t1_0\t_\t_\t_",
        "1\t\t_\tX\t_\t_\t0\t_\t_\t_",
    ], ids=["id-1.5x", "id-1-x", "id-space-1", "head-1_0", "empty-form"])
    def test_malformed_line_is_one_error_line(self, tmp_path, corpus_file, capsys, line):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# sent_id = 1\n" + line + "\n", encoding="utf-8")
        assert run("eval", "--pred", bad, "--gold", corpus_file) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}:2: ")

    def test_invalid_tree_names_its_file(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("# sent_id = 1\n1\ta\t_\tX\t_\t_\t2\t_\t_\t_\n"
                       "2\tb\t_\tX\t_\t_\t1\t_\t_\t_\n", encoding="utf-8")
        assert run("eval", "--pred", bad, "--gold", corpus_file) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: block at line 2: cycle through token 1\n"

    def test_non_utf8_corpus_is_one_error_line(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "latin1.conllu"
        bad.write_bytes("1\tcaf\u00e9\t_\tX\t_\t_\t0\t_\t_\t_\n".encode("latin-1"))
        assert run("eval", "--pred", bad, "--gold", corpus_file) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}: not UTF-8 text (")

    def test_stats_without_backs_is_degenerate(self, corpus_file, trained, capsys):
        assert run("stats", "--model", trained, "--gold", corpus_file, "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_backs"] == 0 and out["degenerate"] is True

    def test_trace_prints_blocks(self, corpus_file, trained, capsys):
        assert run("trace", "--model", trained, "--input", corpus_file) == 0
        assert "actions:" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["missing-hidden", "short-layout", "nan-weight"])
    def test_malformed_model_is_one_error_line(self, tmp_path, corpus_file, trained, capsys, case):
        corrupt_model(trained, case)
        code = run("decode", "--model", trained, "--input", corpus_file,
                   "--output", tmp_path / "p.conllu")
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {trained}: ")

    @pytest.mark.parametrize("key,value", BAD_HEADER_NUMBERS)
    def test_header_number_out_of_range_is_one_error_line(self, tmp_path, corpus_file, trained,
                                                          capsys, key, value):
        set_header_field(trained, key, value)
        code = run("decode", "--model", trained, "--input", corpus_file,
                   "--output", tmp_path / "p.conllu")
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {trained}: ") and key in err

    def test_decode_trace_k0_has_no_back_lines(self, tmp_path, corpus_file, trained):
        pred = tmp_path / "pred.conllu"
        trace = tmp_path / "trace.txt"
        assert run(
            "decode", "--model", trained, "--input", corpus_file,
            "--output", pred, "--k", "0", "--trace", trace,
        ) == 0
        import re

        assert not re.search(r"\bBACK\b", trace.read_text())  # NOBACK is fine


GOLDEN = (Path(__file__).parent / "data" / "golden_v1.model").read_bytes()
HEADER_END = GOLDEN.index(b"\n")
# Up to three edits of the golden model file: ("flip", offset, xor mask),
# half of the offsets in the JSON header, or ("cut", length).
EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"),
                  st.one_of(st.integers(0, HEADER_END), st.integers(0, len(GOLDEN) - 1)),
                  st.integers(1, 255)),
        st.tuples(st.just("cut"), st.integers(0, len(GOLDEN) - 1)),
    ),
    min_size=1, max_size=3,
)


def damaged(edits) -> bytes:
    data = bytearray(GOLDEN)
    for op, at, *mask in edits:
        if op == "cut":
            del data[at:]
        elif at < len(data):
            data[at] ^= mask[0]
    return bytes(data)


class TestDamagedModelFile:
    @settings(max_examples=200, deadline=None)
    @given(EDITS)
    def test_loads_or_is_one_error_line(self, tmp_path_factory, edits):
        # Either the file loads and decodes, or load raises one ValueError
        # that names the file and decode prints it as its one error line.
        base = tmp_path_factory.getbasetemp()
        path, corpus = base / "damaged.model", base / "damaged-input.conllu"
        path.write_bytes(damaged(edits))
        corpus.write_text(serialize(toy_grammar_corpus(2, seed=22)), encoding="utf-8")
        try:
            Model.load(path)
            error = None
        except ValueError as e:
            error = str(e)
            assert error.startswith(f"{path}: ") and "\n" not in error
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("decode", "--model", path, "--input", corpus, "--output", base / "damaged.conllu")
        if error is None:
            assert code == 0
        else:
            assert code in (1, 2) and err.getvalue() == f"error: {error}\n"


class TestSplit:
    def test_split_writes_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "all.conllu"
        corpus.write_text(serialize(alternation_corpus(20, seed=1)), encoding="utf-8")
        out = tmp_path / "folds.json"
        assert run("split", "--corpus", corpus, "--folds", "4", "--out", out) == 0
        data = json.loads(out.read_text())
        assert len(data) == 4
        covered = sorted(i for fold in data for i in fold["test"])
        assert covered == list(range(20))

    @pytest.mark.parametrize("folds, proportions", [
        ("10", "1"),
        ("10", "1.5,-0.5"),
        ("10", "1,nan"),
        ("10", "1.5,-0.5,0"),
        ("10", "nan,0.5,0.5"),
        ("10", "0.8,x,0.1"),
        ("10", "0.5,0.1,0.1"),
        ("2", "0.1,0.8,0.1"),
    ])
    def test_bad_proportions_are_one_usage_error_line(self, tmp_path, capsys, folds, proportions):
        corpus = tmp_path / "all.conllu"
        corpus.write_text(serialize(alternation_corpus(10, seed=1)), encoding="utf-8")
        out = tmp_path / "folds.json"
        code = run("split", "--corpus", corpus, "--folds", folds, "--proportions", proportions, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: --proportions {proportions!r}: ")
        assert not out.exists()


class TestFuzzedInputs:
    """Any corpus or config file either works or ends in one error line
    with exit code 1 or 2: main returns, so a traceback fails the test."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(CONLLU_TEXTS.map(lambda text: text.encode("utf-8")), st.binary(max_size=40)))
    def test_corpus_evaluates_or_is_one_error_line_naming_it(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzz.conllu"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("eval", "--pred", path, "--gold", path, "--json")
        if code != 0:
            assert code in (1, 2)
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith(f"error: {path}")

    @settings(max_examples=200, deadline=None)
    @given(CONFIGS)
    def test_config_trains_or_is_one_error_line(self, tmp_path_factory, config):
        base = tmp_path_factory.getbasetemp()
        corpus, cfg, out = base / "fuzz-train.conllu", base / "fuzz-config.json", base / "fuzz.bpm"
        corpus.write_text(serialize(toy_grammar_corpus(2, seed=3)), encoding="utf-8")
        cfg.write_bytes(config)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("train", "--corpus", corpus, "--config", cfg, "--out", out)
        line = err.getvalue()
        if code == 0:
            assert out.exists()
            return
        assert code in (1, 2) and not out.exists()
        assert line.count("\n") == 1 and line.startswith("error: ")
        if code == 2:  # a usage error names the file or a key of the config
            try:
                value = json.loads(config)
            except (UnicodeDecodeError, json.JSONDecodeError):
                value = None
            keys = list(value) if isinstance(value, dict) else []
            assert any(name in line for name in [str(cfg)] + [k.replace("_", "-") for k in keys] + keys)
