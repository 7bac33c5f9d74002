"""Command-line surface: subcommands, exit codes, reproducibility, and
machine-readable outputs."""

from __future__ import annotations

import csv
import json
import struct
import zlib

import pytest

from specdec.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from specdec.engine import SpecConfig, decode
from specdec.model_io import FORMAT_VERSION, MAGIC, load_model
from specdec.models import random_model
from specdec.tokenizers import ByteTokenizer


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the cat sat on the mat. the cat sat on the hat.\n" * 20)
    return str(path)


@pytest.fixture
def model_file(tmp_path, corpus_file):
    path = str(tmp_path / "model.sdng")
    code = main(["train", "--corpus", corpus_file, "--order", "3", "--out", path])
    assert code == EXIT_OK
    return path


def run(capsys, argv):
    capsys.readouterr()  # flush fixture output
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_train_prints_summary(self, capsys, corpus_file, tmp_path):
        out_path = str(tmp_path / "m.sdng")
        code, out, _ = run(capsys, ["train", "--corpus", corpus_file, "--order", "2",
                                    "--out", out_path])
        assert code == EXIT_OK
        assert "vocab=258" in out and "contexts=" in out and "bytes=" in out

    def test_unigram(self, capsys, corpus_file, tmp_path):
        code, out, _ = run(capsys, ["train", "--corpus", corpus_file, "--order", "1",
                                    "--out", str(tmp_path / "u.sdng")])
        assert code == EXIT_OK
        assert "order-1" in out

    def test_unreadable_corpus_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["train", "--corpus", str(tmp_path / "missing.txt"),
                                    "--order", "2", "--out", str(tmp_path / "m.sdng")])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_word_mode(self, capsys, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c a b c a b\n")
        out_path = str(tmp_path / "w.sdng")
        code, out, _ = run(capsys, ["train", "--corpus", str(corpus), "--order", "2",
                                    "--tokenizer", "word", "--out", out_path])
        assert code == EXIT_OK
        assert "vocab=5" in out  # a, b, c + BOS + EOS

    def test_unwritable_vocab_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c a b c a b\n")
        code, _, err = run(capsys, ["train", "--corpus", str(corpus), "--order", "2",
                                    "--tokenizer", "word",
                                    "--out", str(tmp_path / "missing" / "w.sdng")])
        assert code == EXIT_USAGE
        assert err.startswith("error:")


class TestDecode:
    def test_seeded_run_is_byte_identical(self, capsys, model_file):
        argv = ["decode", "--target", model_file, "--draft", "same",
                "--prompt", "the cat", "--gamma", "3", "--seed", "7",
                "--max-tokens", "40", "--color", "never"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_same_draft_emits_gamma_plus_one_per_call(self, capsys, model_file):
        code, out, _ = run(capsys, ["decode", "--target", model_file, "--draft", "same",
                                    "--prompt", "the", "--gamma", "1", "--seed", "1",
                                    "--max-tokens", "20", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        # identical models accept every draft: 2 tokens per target call,
        # modulo the final truncated step
        assert payload["totals"]["target_calls"] == 10

    def test_json_round_trip_and_accounting(self, capsys, model_file):
        code, out, _ = run(capsys, ["decode", "--target", model_file, "--draft", "uniform:258",
                                    "--prompt", "the cat", "--gamma", "2", "--seed", "3",
                                    "--max-tokens", "30", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        # The same request in process: the payload is its to_dict().
        tok = ByteTokenizer()
        result = decode(load_model(model_file), random_model(258), tok.encode("the cat"),
                        SpecConfig(gamma=2, seed=3, max_new_tokens=30), bos_token=tok.BOS)
        assert json.loads(json.dumps(result.to_dict())) == {
            k: payload[k] for k in ("tokens", "traces", "totals")
        }
        assert payload["text"] == tok.decode(result.tokens)
        emitted = sum(t["accepted_n"] + 1 for t in payload["traces"])
        assert payload["totals"]["tokens_emitted"] <= emitted
        assert payload["totals"]["target_calls"] <= payload["totals"]["tokens_emitted"]
        assert payload["config"]["gamma"] == 2

    def test_trace_renders_colors_when_forced(self, capsys, model_file):
        code, out, _ = run(capsys, ["decode", "--target", model_file, "--draft", "same",
                                    "--prompt", "the", "--gamma", "2", "--seed", "5",
                                    "--max-tokens", "12", "--trace", "--color", "always"])
        assert code == EXIT_OK
        assert "\x1b[32m" in out and "\x1b[34m" in out  # green drafts, blue corrections

    def test_trace_plain_without_tty(self, capsys, model_file):
        code, out, _ = run(capsys, ["decode", "--target", model_file, "--draft", "same",
                                    "--prompt", "the", "--gamma", "2", "--seed", "5",
                                    "--max-tokens", "12", "--trace", "--color", "auto"])
        assert code == EXIT_OK
        assert "\x1b[" not in out  # capsys is not a terminal

    def test_vocab_mismatch_exits_2(self, capsys, model_file):
        code, _, err = run(capsys, ["decode", "--target", model_file,
                                    "--draft", "uniform:10", "--prompt", "x"])
        assert code == EXIT_USAGE
        assert "vocab" in err

    def test_missing_vocab_file_exits_2(self, capsys, model_file, tmp_path):
        code, _, err = run(capsys, ["decode", "--target", model_file, "--draft", "same",
                                    "--prompt", "x", "--tokenizer", "word",
                                    "--vocab-file", str(tmp_path / "missing.vocab")])
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_synthetic_models_with_token_prompt(self, capsys):
        code, out, _ = run(capsys, ["decode", "--target", "stateless:0.6,0.4",
                                    "--draft", "stateless:0.4,0.6", "--prompt-tokens", "0",
                                    "--gamma", "2", "--seed", "11", "--max-tokens", "16",
                                    "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["tokens"]) == 16
        assert set(payload["tokens"]) <= {0, 1}

    def test_stop_token(self, capsys):
        code, out, _ = run(capsys, ["decode", "--target", "stateless:0,1",
                                    "--draft", "same", "--prompt-tokens", "0",
                                    "--stop-token", "1", "--gamma", "3", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["tokens"] == [1]

    def test_low_temperature_decodes(self, capsys):
        # Every 0.25 ** 1000 underflows to 0.0: the policy must not divide by it.
        code, out, _ = run(capsys, ["decode", "--target", "uniform:4", "--draft", "same",
                                    "--prompt-tokens", "0", "--temperature", "0.001",
                                    "--max-tokens", "8", "--json"])
        assert code == EXIT_OK
        assert len(json.loads(out)["tokens"]) == 8


class TestVerify:
    def test_exactness_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "exactness", "--pairs", "200",
                                    "--seed", "1"])
        assert code == EXIT_OK
        assert "PASS" in out

    def test_equivalence_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "equivalence",
                                    "--samples", "20000", "--seed", "2"])
        assert code == EXIT_OK
        assert "PASS" in out

    @pytest.mark.parametrize("mutation", ["skip-residual", "resample-q", "accept-off-by-one"])
    def test_mutated_engine_fails(self, capsys, mutation):
        code, out, _ = run(capsys, ["verify", "--suite", "equivalence",
                                    "--samples", "20000", "--seed", "3",
                                    "--mutate", mutation])
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in out

    def test_geometric(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "geometric", "--alpha", "0.8",
                                    "--gamma", "5", "--steps", "20000", "--seed", "4"])
        assert code == EXIT_OK
        assert "3.68" in out  # expected mean from the closed form

    def test_rejection(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "rejection", "--pairs", "2000",
                                    "--seed", "5"])
        assert code == EXIT_OK
        assert "violations=0" in out


class TestSweep:
    def test_table1_pretty(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--kind", "table1"])
        assert code == EXIT_OK
        assert "1.63X" in out and "3.69X" in out and "6.86X" in out

    def test_fig2_csv_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, ["sweep", "--kind", "fig2",
                                  "--alphas", "0.1,0.5,0.9", "--gammas", "2,5",
                                  "--out", str(out_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 6
        assert set(rows[0]) == {"alpha", "gamma", "expected_tokens"}

    def test_fig3_has_saturation_column(self, capsys, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, ["sweep", "--kind", "fig3", "--alphas", "0.5",
                                  "--cs", "0,0.05", "--gamma-max", "60",
                                  "--out", str(out_path)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.open()))
        assert {r["c"]: r["saturated"] for r in rows} == {"0": "true", "0.05": "false"}

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--kind", "fig4", "--alphas", "0.5",
                                    "--gammas", "3"])
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "alpha,gamma,speedup,ops_increase"

    def test_no_kind_exits_2(self, capsys):
        code, _, err = run(capsys, ["sweep"])
        assert code == EXIT_USAGE
        assert "error" in err


class TestSimulate:
    def test_stateless_pair_gap(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--stateless-alpha", "0.7", "--gamma", "3",
                                    "--c", "0.02", "--n-tokens", "5000", "--seed", "6"])
        assert code == EXIT_OK
        assert "Exp" in out and "Emp" in out and "ops_factor=" in out

    def test_free_same_model_gives_gamma_plus_one(self, capsys, model_file):
        code, out, _ = run(capsys, ["simulate", "--target", model_file, "--draft", "same",
                                    "--gamma", "3", "--c", "0", "--n-tokens", "500",
                                    "--seed", "7"])
        assert code == EXIT_OK
        assert " 4.000" in out  # Emp column

    def test_missing_models_exits_2(self, capsys):
        code, _, err = run(capsys, ["simulate", "--gamma", "2"])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_timeline_and_csv_report(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, out, _ = run(capsys, ["simulate", "--stateless-alpha", "0.5", "--gamma", "2",
                                    "--n-tokens", "200", "--seed", "8", "--timeline",
                                    "--out", str(out_path)])
        assert code == EXIT_OK
        assert "step   1: [q][q][P] ->" in out
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 1
        assert "ops_factor" in rows[0] and "emp" in rows[0]


class TestBeamCommand:
    def test_equivalence_verdict(self, capsys, model_file):
        code, out, _ = run(capsys, ["beam", "--target", model_file, "--draft", "uniform:258",
                                    "--width", "2", "--draft-width", "4", "--gamma", "3",
                                    "--steps", "6", "--prompt-tokens", "116"])
        assert code == EXIT_OK
        assert "beam equivalence: PASS" in out
        assert "accept_fraction=" in out

    def test_wide_draft(self, capsys):
        code, out, _ = run(capsys, ["beam", "--target", "stateless:0.5,0.3,0.2",
                                    "--draft", "stateless:0.2,0.3,0.5",
                                    "--width", "1", "--draft-width", "3",
                                    "--gamma", "1", "--steps", "4"])
        assert code == EXIT_OK
        assert "beam equivalence: PASS" in out


class TestConfigFileAndEnv:
    def test_config_file_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=5\nmax-tokens=9\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "decode",
                                    "--target", "stateless:0.5,0.5", "--draft", "same",
                                    "--prompt-tokens", "0", "--seed", "1", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["gamma"] == 5
        assert len(payload["tokens"]) == 9

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=5\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "decode",
                                    "--target", "stateless:0.5,0.5", "--draft", "same",
                                    "--prompt-tokens", "0", "--gamma", "2", "--seed", "1",
                                    "--max-tokens", "6", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["gamma"] == 2

    @pytest.mark.parametrize("key,value", [("gamma", "abc"), ("color", "purple"),
                                           ("json", "maybe")])
    def test_bad_config_value_exits_2(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        code, out, err = run(capsys, ["--config", str(cfg), "decode",
                                      "--target", "stateless:0.5,0.5", "--draft", "same",
                                      "--prompt-tokens", "0", "--json"])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--{key}" in err and f"'{value}'" in err

    @pytest.mark.parametrize("text,argv", [
        ("target=stateless:0.5,0.5\ndraft=same\nprompt=-x",
         ["decode", "--prompt-tokens", "0", "--max-tokens", "4"]),
        ("gamma=3\nstateless-alpha=0.7", ["simulate", "--n-tokens", "300"]),
    ], ids=["decode", "simulate"])
    def test_config_supplies_required_flags(self, capsys, tmp_path, text, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, ["--config", str(cfg), *argv])
        assert code == EXIT_OK, err
        header = out.splitlines()[0].split()
        assert all(setting in header for setting in text.splitlines())

    def test_flag_overrides_config_for_required_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target=stateless:0.9,0.1\ndraft=same\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "decode",
                                    "--target", "stateless:0.5,0.5", "--prompt-tokens", "0",
                                    "--max-tokens", "3", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["target"] == "stateless:0.5,0.5"

    @pytest.mark.parametrize("text,flags", [
        ("json=yes", ["--json"]),
        ("json=TRUE\nargmax=false", ["--json"]),
        ("json=1\nargmax=on", ["--json", "--argmax"]),
        ("json=off", []),
    ], ids=["yes", "true-false", "one-on", "off"])
    def test_flag_keys_take_true_or_false(self, capsys, tmp_path, text, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        argv = ["decode", "--target", "stateless:0.6,0.4", "--draft", "stateless:0.4,0.6",
                "--prompt-tokens", "0", "--seed", "2", "--max-tokens", "12"]
        via_file = run(capsys, ["--config", str(cfg), *argv])
        assert via_file == run(capsys, [*argv, *flags])
        assert via_file[0] == EXIT_OK

    def test_config_path_named_like_a_subcommand(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "decode").write_text("max-tokens=3\n")
        code, out, _ = run(capsys, ["--config", "decode", "decode",
                                    "--target", "stateless:0.5,0.5", "--draft", "same",
                                    "--prompt-tokens", "0", "--json"])
        assert code == EXIT_OK
        assert len(json.loads(out)["tokens"]) == 3

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamam=3\n")
        code, out, err = run(capsys, ["--config", str(cfg), "decode",
                                      "--target", "stateless:0.5,0.5", "--draft", "same",
                                      "--prompt-tokens", "0", "--json"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "gamam" in err

    def test_other_subcommands_keys_are_ignored(self, capsys, tmp_path):
        # "suite" and "pairs" belong to verify only; decode must still run.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite=geometric\npairs=7\nmax-tokens=5\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "decode",
                                    "--target", "stateless:0.5,0.5", "--draft", "same",
                                    "--prompt-tokens", "0", "--seed", "1", "--json"])
        assert code == EXIT_OK
        assert len(json.loads(out)["tokens"]) == 5

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["--config", str(tmp_path / "none.cfg"), "sweep",
                                    "--kind", "table1"])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECDEC_SEED", "321")
        # Parser defaults are bound at build time, so invoke a fresh parse.
        code, out, _ = run(capsys, ["decode", "--target", "stateless:0.5,0.5",
                                    "--draft", "same", "--prompt-tokens", "0",
                                    "--max-tokens", "4", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["seed"] == 321

    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECDEC_SEED", "12x")
        code, out, err = run(capsys, ["sweep", "--kind", "table1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "SPECDEC_SEED" in err and "'12x'" in err


class TestUsageErrors:
    def test_bad_explicit_flag_returns_2(self, capsys):
        code, out, err = run(capsys, ["decode", "--target", "stateless:0.5,0.5",
                                      "--draft", "same", "--gamma", "abc"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--gamma" in err and "'abc'" in err

    def test_short_flag_prefix_is_not_config(self, capsys):
        # --c is simulate's cost ratio, not an abbreviation of --config.
        code, out, err = run(capsys, ["simulate", "--c", "0.02", "--stateless-alpha", "0.5",
                                      "--gamma", "2", "--n-tokens", "100", "--seed", "1"])
        assert code == EXIT_OK, err
        assert "c=0.02" in out.splitlines()[0].split()

    @pytest.mark.parametrize("argv,removed", [
        (["sweep", "--kind", "table1", "--table1"], "--table1"),
        (["sweep", "--kind", "table1", "--seed", "1"], "--seed"),
        (["train", "--corpus", "c.txt", "--order", "2", "--out", "m.sdng", "--seed", "1"],
         "--seed"),
        (["beam", "--target", "uniform:4", "--draft", "same", "--seed", "1"], "--seed"),
        (["beam", "--target", "uniform:4", "--draft", "same", "-w", "2"], "-w"),
        (["beam", "--target", "uniform:4", "--draft", "same", "-u", "2"], "-u"),
        (["--conf=run.cfg", "sweep", "--kind", "table1"], "--conf=run.cfg"),
    ])
    def test_removed_spellings_exit_2(self, capsys, argv, removed):
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"unrecognized arguments: {removed}" in err


class TestInputErrors:
    """Bad flag values exit 2 with an error line; a ValueError from inside the
    engine is not a usage error and propagates."""

    @pytest.mark.parametrize("argv,needle", [
        # SpecConfig
        (["decode", "--target", "uniform:4", "--draft", "same", "--gamma", "0"], "gamma"),
        (["decode", "--target", "uniform:4", "--draft", "same", "--lenience", "1.5"], "lenience"),
        (["decode", "--target", "uniform:4", "--draft", "same", "--max-tokens", "0"],
         "max_new_tokens"),
        (["verify", "--suite", "equivalence", "--samples", "20000", "--gamma", "0"], "gamma"),
        (["simulate", "--stateless-alpha", "0.5", "--gamma", "2", "--lenience", "0"], "lenience"),
        # SamplingPolicy
        (["decode", "--target", "uniform:4", "--draft", "same", "--argmax", "--top-k", "2"],
         "excludes"),
        (["decode", "--target", "uniform:4", "--draft", "same", "--temperature", "-1"],
         "temperature"),
        (["decode", "--target", "uniform:4", "--draft", "same", "--top-k", "9"], "--top-k"),
        # sample and step minimums
        (["verify", "--suite", "equivalence", "--samples", "100"], "--samples"),
        (["verify", "--suite", "geometric", "--steps", "0"], "--steps"),
        (["verify", "--suite", "exactness", "--vocab", "0"], "--vocab"),
        (["verify", "--suite", "rejection", "--vocab", "0"], "--vocab"),
        (["simulate", "--stateless-alpha", "0.5", "--gamma", "2", "--n-tokens", "0"],
         "--n-tokens"),
        (["beam", "--target", "uniform:4", "--draft", "same", "--width", "3",
          "--draft-width", "2"], "--draft-width"),
        # values that become models or grids
        (["verify", "--suite", "geometric", "--alpha", "1.5"], "alpha"),
        (["decode", "--target", "uniform:x", "--draft", "same"], "'x'"),
        (["decode", "--target", "stateless:0.5,-0.5", "--draft", "same"], "negative"),
        (["sweep", "--kind", "fig2", "--alphas", "1.5"], "alpha"),
        (["simulate", "--stateless-alpha", "2", "--gamma", "2"], "alpha"),
        (["simulate", "--stateless-alpha", "0.5", "--gamma", "2", "--n-tokens", "100",
          "--c-hat", "-1"], "c_hat"),
        (["decode", "--target", "uniform:0", "--draft", "same"], "vocab_size"),
        (["decode", "--target", "copy:0", "--draft", "same"], "vocab_size"),
        (["decode", "--target", "copy:1.5", "--draft", "same"], "'1.5'"),
        (["decode", "--target", "copy:4,2.7", "--draft", "same"], "'2.7'"),
        (["verify", "--suite", "exactness", "--pairs", "0"], "--pairs"),
        (["verify", "--suite", "exactness", "--pairs", "-5"], "--pairs"),
        (["verify", "--suite", "rejection", "--pairs", "0"], "--pairs"),
        (["verify", "--suite", "rejection", "--pairs", "-5"], "--pairs"),
        # every command that takes two models or raw prompt ids checks them
        (["beam", "--target", "uniform:4", "--draft", "uniform:6"], "vocab mismatch"),
        (["beam", "--target", "uniform:4", "--draft", "same", "--prompt-tokens=9,-2"],
         "[9, -2] outside vocab 4"),
        (["simulate", "--target", "uniform:4", "--draft", "uniform:6", "--gamma", "2"],
         "vocab mismatch"),
        (["decode", "--target", "copy:4,2,0.9,7", "--draft", "same", "--prompt-tokens", "0"],
         "at most 3 fields"),
        # inputs the verify suites cannot check
        (["verify", "--suite", "exactness", "--vocab", "5000", "--pairs", "1"], "--vocab"),
        (["verify", "--suite", "equivalence", "--vocab", "100000", "--samples", "10000",
          "--mutate", "skip-residual"], "pool into one bin"),
        (["verify", "--suite", "geometric", "--steps", "2"], "pool into one bin"),
    ])
    def test_bad_value_exits_2(self, capsys, argv, needle):
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and needle in err

    def test_unknown_word_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c a b c a b\n")
        model = str(tmp_path / "w.sdng")
        assert main(["train", "--corpus", str(corpus), "--order", "2",
                     "--tokenizer", "word", "--out", model]) == EXIT_OK
        code, out, err = run(capsys, ["decode", "--target", model, "--draft", "same",
                                      "--tokenizer", "word", "--vocab-file", model + ".vocab",
                                      "--prompt", "a zebra"])
        assert code == EXIT_USAGE
        assert out == "" and "zebra" in err

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing_exits_2(self, capsys, corpus_file, tmp_path, smoothing):
        code, out, err = run(capsys, ["train", "--corpus", corpus_file, "--order", "2",
                                      "--smoothing", smoothing, "--out", str(tmp_path / "m.sdng")])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "smoothing_k" in err

    @pytest.mark.parametrize("order,smoothing,vocab", [
        (0, 0.01, 4),  # order below 1
        (2, 0.0, 4),  # smoothing not positive
        (2, float("nan"), 4),  # smoothing not finite
        (2, 0.01, 0),  # empty vocabulary
    ], ids=["order-0", "smoothing-0", "smoothing-nan", "vocab-0"])
    def test_header_out_of_domain_exits_2(self, capsys, tmp_path, order, smoothing, vocab):
        # A checksummed file with no contexts whose header NGramModel rejects.
        body = MAGIC + struct.pack("<HIdIQ", FORMAT_VERSION, order, smoothing, vocab, 0)
        path = tmp_path / "bad.sdng"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code, out, err = run(capsys, ["decode", "--target", str(path), "--draft", "same"])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "bad header" in err

    def test_corpus_too_short_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "tiny.txt"
        corpus.write_text("ab")
        code, _, err = run(capsys, ["train", "--corpus", str(corpus), "--order", "3",
                                    "--out", str(tmp_path / "m.sdng")])
        assert code == EXIT_USAGE
        assert "cannot train order 3" in err

    @pytest.mark.parametrize("argv,module,attr", [
        (["decode", "--target", "uniform:4", "--draft", "same", "--prompt-tokens", "0"],
         "specdec.engine", "speculative_step"),
        (["verify", "--suite", "equivalence", "--samples", "20000"],
         "specdec.harness", "speculative_steps"),
    ])
    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch, argv,
                                                       module, attr):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(f"{module}.{attr}", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(argv)
