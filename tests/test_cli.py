"""Command-line surface: subcommands, exit codes, reproducibility, and
machine-readable outputs."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from specdec import cli, harness
from specdec.cli import _COMMANDS, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main, resolve_model
from specdec.engine import SpecConfig, decode
from specdec.model_io import FORMAT_VERSION, MAGIC, load_model
from specdec.models import MAX_VOCAB, CopyModel, random_model
from specdec.tokenizers import ByteTokenizer, WordTokenizer

from conftest import run_limited


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


# Runs main on each argv of a JSON list inside the directory given second,
# each case under a CPU-time limit (the third argument, in seconds), and
# prints [code, stdout, stderr] per case: "timeout" for a case that ran out
# of time, the repr of an exception that escaped main.
_CLI_CASES = """
import contextlib, io, json, os, signal, sys
from specdec.cli import main

class Timeout(BaseException):
    pass

def stop(*_):
    raise Timeout

signal.signal(signal.SIGPROF, stop)
os.chdir(sys.argv[2])
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_PROF, float(sys.argv[3]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Timeout:
        code = "timeout"
    except Exception as exc:
        code = repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


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

    def test_model_files_are_pinned(self, capsys, tmp_path):
        # Exact bytes of the files train writes for one seeded corpus: a change
        # in the counts, or in context or entry order, shows up here.
        rng = random.Random(16)
        words = ["the", "cat", "sat", "on", "a", "mat", "hat", "ran", "and", "dog"]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(" ".join(rng.choice(words) for _ in range(3000)) + "\n")
        for name, argv in _PINNED_TRAIN.items():
            code, _, _ = run(capsys, ["train", "--corpus", str(corpus), *argv,
                                      "--out", str(tmp_path / name)])
            assert code == EXIT_OK
        for name, digest in _PINNED_TRAIN_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


_PINNED_TRAIN = {"byte.sdng": ["--order", "3"],
                 "word.sdng": ["--order", "2", "--tokenizer", "word"]}
_PINNED_TRAIN_SHA256 = {
    "byte.sdng": "ac26f1eb14ed7c5d9f8263bdecd8d752268c4cbc0146c97df0ca2e25ccd0531c",
    "word.sdng": "f64ba13840f4cc49b225a05b4c2d1bc244a9d405bb56a1321447b12bb9d7254c",
    "word.sdng.vocab": "47f4f23f2ed3c4fec5696ef8b663a56831d4176762481c7344561135b0f77a99",
}

_PINNED_JSON_SHA256 = "5c39571bad34620e62a27c2e58c1c742e91449f02120dd0cfe5be615eb0b01bd"

# The exact stdout of small seeded `verify` runs, each suite's and each
# engine mutation's: the header, every printed figure and the verdict.
_PINNED_VERIFY_SHA256 = {
    "--suite exactness --pairs 50 --vocab 8 --seed 1":
        "8c0ad264463f1a8c0855c4bf013db5b85297e2ade5b13e47bfc809d94549c513",
    "--suite rejection --pairs 200 --seed 5":
        "fde70de2e38c9e256006c39ed46ceacf17eb114f3049217d626288c9e55e4f6a",
    "--suite geometric --alpha 0.8 --gamma 5 --steps 10000 --seed 4":
        "a0b94ca68c4bc19cf1aee5f9701d018f6b087255414413109c5dda57a959c107",
    "--suite equivalence --samples 10000 --seed 2":
        "9532c702dfa2c2a2bad34b2f0656afc7939fa68094d75a20ff8091250f56ca7f",
    "--suite equivalence --samples 10000 --seed 3 --lenience 0.5":
        "2802f207170bf59e95db05cd33db91a7acb9304489c4473684975474ea2a5739",
    "--suite equivalence --samples 10000 --seed 3 --mutate skip-residual":
        "7596ff712bebd7b86989f74463b3a94d4efb6da0bbdf61e671775db917541a18",
    "--suite equivalence --samples 10000 --seed 3 --mutate resample-q":
        "e165ffbcbdcd05954fe76f7ac817567449d5f8ca884b97b1a909726d994a8e1c",
    "--suite equivalence --samples 10000 --seed 3 --mutate accept-off-by-one":
        "f798cac21813d3003ac4a5848579bc798acc5b2997644d106f8a971df1e73092",
}

# A colored trace line: green accepted drafts, a struck red rejected draft,
# then the blue correction, each span closed by a reset.
_SPAN = re.compile(r"\x1b\[(32|31|34)m(\x1b\[9m)?(.*?)\x1b\[0m")
_COLOR = {"32": "green", "31": "red", "34": "blue"}


def trace_matches_json(capsys, argv, tok) -> dict:
    """Check ``argv``'s colored trace against the traces of its ``--json`` run:
    one line per step, the accepted drafts shown in green up to the budget,
    the rejected draft struck in red, the correction in blue, and green and
    blue together spelling the kept tokens. Counts the rejected drafts and
    the steps the budget cut short."""
    code, out, _ = run(capsys, argv + ["--trace", "--color", "always"])
    assert code == EXIT_OK
    code, js, _ = run(capsys, argv + ["--json"])
    assert code == EXIT_OK
    payload = json.loads(js)
    header, *lines = out.splitlines()
    assert header.startswith("# specdec decode")
    assert len(lines) == len(payload["traces"])
    kept, stats = [], {"rejected": 0, "cut": 0}
    for line, trace in zip(lines, payload["traces"]):
        spans = _SPAN.findall(line)
        assert "".join(f"\x1b[{c}m{s}{t}\x1b[0m" for c, s, t in spans) == line
        assert all((c == "31") == bool(s) for c, s, _ in spans)  # struck only if red
        shown = {color: [t for c, _, t in spans if _COLOR[c] == color]
                 for color in ("green", "red", "blue")}
        assert [_COLOR[c] for c, _, _ in spans] == sorted(
            (_COLOR[c] for c, _, _ in spans), key=["green", "red", "blue"].index)
        n, drafted = trace["accepted_n"], [d[0] for d in trace["drafted"]]
        assert shown["green"] == [tok.render_token(x) for x in drafted[:len(shown["green"])]]
        assert len(shown["green"]) <= n
        assert shown["red"] == [tok.render_token(x) for x in drafted[n:n + 1]]
        assert shown["blue"] in ([], [tok.render_token(trace["correction"])])
        assert not shown["blue"] or len(shown["green"]) == n
        kept += shown["green"] + shown["blue"]
        stats["rejected"] += len(shown["red"])
        stats["cut"] += len(shown["green"]) + len(shown["blue"]) < n + 1
    assert kept == [tok.render_token(x) for x in payload["tokens"]]
    return stats


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

    def test_trace_shows_rejections_and_cuts_as_json_traces_say(self, capsys):
        # Seed 1 accepts all four drafts at its third step, so budgets 3-5 cut
        # that step among its accepted drafts; seed 3 rejects at every step.
        seen = {"rejected": 0, "cut": 0}
        for seed, max_tokens in itertools.product((1, 3), range(1, 9)):
            argv = ["decode", "--target", "uniform:8", "--draft", "stateless:8,1,1,1,1,1,1,1",
                    "--gamma", "4", "--seed", str(seed), "--max-tokens", str(max_tokens)]
            stats = trace_matches_json(capsys, argv, ByteTokenizer())
            for k in seen:
                seen[k] += stats[k]
        assert seen["rejected"] > 0 and seen["cut"] > 0

    def test_word_trace_shows_words(self, capsys, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c a b c a c a b b\n")
        model = str(tmp_path / "w.sdng")
        assert main(["train", "--corpus", str(corpus), "--order", "2",
                     "--tokenizer", "word", "--out", model]) == EXIT_OK
        argv = ["decode", "--target", model, "--draft", "uniform:5", "--prompt", "a",
                "--tokenizer", "word", "--vocab-file", model + ".vocab",
                "--gamma", "3", "--seed", "2", "--max-tokens", "12"]
        stats = trace_matches_json(capsys, argv, WordTokenizer(["a", "b", "c"]))
        assert stats["rejected"] > 0

    def test_word_trace_of_a_larger_target(self, capsys, tmp_path):
        # Ids past the three words are shown by number in the trace.
        vocab = tmp_path / "three.vocab"
        vocab.write_text("a\nb\nc\n")
        argv = ["decode", "--target", "uniform:50", "--draft", "same", "--prompt-tokens", "1",
                "--tokenizer", "word", "--vocab-file", str(vocab), "--max-tokens", "6"]
        trace_matches_json(capsys, argv, WordTokenizer(["a", "b", "c"]))
        assert re.search(r"<\d+> ", run(capsys, argv + ["--trace", "--color", "never"])[1])

    def test_json_bytes_are_pinned(self, capsys):
        # The exact stdout of one small request: traces, floats, key order and
        # spacing. The round-trip test above compares parsed values only.
        code, out, _ = run(capsys, ["decode", "--target", "uniform:8",
                                    "--draft", "stateless:8,1,1,1,1,1,1,1", "--gamma", "4",
                                    "--seed", "3", "--max-tokens", "8", "--json"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_JSON_SHA256


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

    @pytest.mark.parametrize("spec,fields", [("copy:6", (6,)), ("copy:6,3", (6, 3)),
                                             ("copy:6,3,0.5", (6, 3, 0.5))])
    def test_copy_spec_defaults_are_copy_models(self, spec, fields):
        model, expected = resolve_model(spec), CopyModel(*fields)
        assert (model.vocab_size, model.min_match, model.copy_mass) == (
            expected.vocab_size, expected.min_match, expected.copy_mass)

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
    @pytest.mark.parametrize("sizes", [["--pairs", "200"], ["--pairs", "20", "--vocab", "5000"]])
    def test_exactness_passes(self, capsys, sizes):
        code, out, _ = run(capsys, ["verify", "--suite", "exactness", *sizes, "--seed", "1"])
        assert code == EXIT_OK
        assert "PASS" in out

    def test_equivalence_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "equivalence",
                                    "--samples", "20000", "--seed", "2"])
        assert code == EXIT_OK
        assert "PASS" in out

    def test_lenient_equivalence_passes(self, capsys):
        # Below lenience 1 the first token follows the lenient law, not p.
        code, out, _ = run(capsys, ["verify", "--suite", "equivalence", "--samples", "20000",
                                    "--seed", "3", "--lenience", "0.5"])
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

    def test_geometric_ignores_vocab(self, capsys):
        # The geometric suite builds its own two-token pair and never reads --vocab.
        code, out, _ = run(capsys, ["verify", "--suite", "geometric", "--vocab", "0",
                                    "--steps", "20000"])
        assert code == EXIT_OK and "PASS" in out

    def test_rejection(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "rejection", "--pairs", "2000",
                                    "--seed", "5"])
        assert code == EXIT_OK
        assert "violations=0" in out

    def test_rejection_failure_is_reported(self, capsys, monkeypatch):
        # With beta forced to 0, rejection sampling out-accepts it on every pair.
        monkeypatch.setattr(harness, "beta", lambda p, q: 0.0)
        code, out, _ = run(capsys, ["verify", "--suite", "rejection", "--pairs", "40",
                                    "--seed", "5"])
        assert code == EXIT_VERIFY_FAIL
        line = out.splitlines()[-1]
        assert " violations=40 " in line
        assert float(re.search(r"min\(beta - accept\)=(\S+)", line)[1]) < 0
        assert line.endswith("-> FAIL")

    @pytest.mark.parametrize("flags", list(_PINNED_VERIFY_SHA256))
    def test_stdout_is_pinned(self, capsys, flags):
        code, out, _ = run(capsys, ["verify", *flags.split()])
        assert code == (EXIT_VERIFY_FAIL if "--mutate" in flags else EXIT_OK)
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_VERIFY_SHA256[flags]


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

    def test_closed_stdout_exits_2_with_one_error_line(self):
        # `specdec sweep --kind fig2 --alphas <999 values> | head -1`: the
        # CSV (about 100 KB) outgrows the pipe, so later writes find the
        # reader gone. Unbuffered, the reader takes exactly one line.
        alphas = ",".join(str(i / 1000) for i in range(1, 1000))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "specdec.cli", "sweep", "--kind", "fig2", "--alphas", alphas]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                              env=env) as proc:
            assert proc.stdout.readline() == b"alpha,gamma,expected_tokens\r\n"  # csv's line end
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        assert (code, err) == (EXIT_USAGE, "error: stdout closed before the output was written\n")


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

    def test_config_stop_token_outside_vocab_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stop-token=99\n")
        code, out, err = run(capsys, ["--config", str(cfg), "decode",
                                      "--target", "uniform:4", "--draft", "same",
                                      "--prompt-tokens", "0", "--json"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "--stop-token 99 outside vocab 4" in err

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
        (["decode", "--target", "uniform:4", "--draft", "same", "--prompt-tokens", "0",
          "--stop-token", "99"], "--stop-token 99 outside vocab 4"),
        (["decode", "--target", "uniform:4", "--draft", "same", "--prompt-tokens", "0",
          "--stop-token=-1"], "--stop-token -1 outside vocab 4"),
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
        (["verify", "--suite", "exactness", "--vocab", str(MAX_VOCAB + 1), "--pairs", "1"],
         "--vocab"),
        (["verify", "--suite", "equivalence", "--vocab", "100000", "--samples", "10000",
          "--mutate", "skip-residual"], "pool into one bin"),
        (["verify", "--suite", "geometric", "--steps", "2"], "pool into one bin"),
        # a draft length whose 2*gamma+1 variates would not fit in memory
        (["decode", "--target", "uniform:4", "--draft", "same", "--gamma", "99999999999"],
         "gamma"),
        (["simulate", "--stateless-alpha", "0.5", "--gamma", "99999999999"], "gamma"),
        (["verify", "--suite", "geometric", "--gamma", "99999999999"], "gamma"),
        (["verify", "--suite", "equivalence", "--gamma", "99999999999"], "gamma"),
        # a text prompt is range-checked as raw ids are
        (["decode", "--target", "uniform:3", "--draft", "same", "--prompt", "hi",
          "--max-tokens", "3"], "[104, 105] outside vocab 3"),
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

    def test_word_prompt_outside_target_vocab_exits_2(self, capsys, tmp_path):
        # "c" is id 2 of the vocabulary file, but the target has ids 0 and 1.
        vocab = tmp_path / "three.vocab"
        vocab.write_text("a\nb\nc\n")
        code, out, err = run(capsys, ["decode", "--target", "copy:2", "--draft", "same",
                                      "--tokenizer", "word", "--vocab-file", str(vocab),
                                      "--prompt", "c"])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "[2] outside vocab 2" in err

    @pytest.mark.parametrize("target", ["uniform:8", "trigram"])
    @pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
    def test_non_finite_temperature_exits_2(self, capsys, model_file, target, temperature):
        target = model_file if target == "trigram" else target
        code, out, err = run(capsys, ["decode", "--target", target, "--draft", "same",
                                      f"--temperature={temperature}"])
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "temperature" in err

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

    def test_huge_vocabulary_exits_2(self, tmp_path):
        # Each of these once asked for a dense 4e8-entry float64 row (3 GB),
        # or for 8 GiB of rows in one step. They run under a 1 GiB
        # address-space cap, where such an allocation fails.
        body = MAGIC + struct.pack("<HIdIQ", FORMAT_VERSION, 2, 0.01, 400_000_000, 0)
        path = tmp_path / "huge.sdng"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        cases = [
            (["decode", "--target", "uniform:400000000", "--draft", "same"], "vocab_size"),
            (["decode", "--target", "copy:400000000", "--draft", "same"], "vocab_size"),
            (["decode", "--target", str(path), "--draft", "same"], "vocab_size"),
            (["verify", "--suite", "equivalence", "--vocab", "400000000"], "--vocab"),
            (["verify", "--suite", "rejection", "--vocab", "400000000"], "--vocab"),
            # In range apart, but a step's block would be (1024+1) rows of 8 MiB.
            (["decode", "--target", "copy:1048576", "--draft", "same", "--gamma", "1024",
              "--prompt-tokens", "1,2", "--max-tokens", "4"], "gamma"),
            (["simulate", "--target", "copy:1048576", "--draft", "same", "--gamma", "1024",
              "--n-tokens", "4"], "gamma"),
        ]
        proc = run_limited(_CLI_CASES, json.dumps([argv for argv, _ in cases]), str(tmp_path),
                           "60")
        assert proc.returncode == 0, proc.stderr
        for (argv, needle), (code, out, err) in zip(cases, json.loads(proc.stdout)):
            assert code == EXIT_USAGE, (argv, code)
            assert out == "" and err.startswith("error:") and needle in err, (argv, err)

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


# A small valid run of each subcommand, which the fuzz cases start from.
_FUZZ_BASE = {
    "train": ["--corpus=corpus.txt", "--order=2", "--out=m.sdng"],
    "decode": ["--target=uniform:8", "--draft=same", "--prompt-tokens=0", "--max-tokens=8"],
    "verify": ["--suite=rejection", "--pairs=20", "--samples=10000", "--steps=2000",
               "--vocab=8"],
    "sweep": ["--kind=table1"],
    "simulate": ["--stateless-alpha=0.8", "--gamma=2", "--n-tokens=200"],
    "beam": ["--target=uniform:8", "--draft=same", "--steps=2"],
}
# Hostile values by option type; a string option also gets model specs.
_HOSTILE = {
    int: ["-1", "0", "99999999999", "", "x", "nan", "1.5"],
    float: ["-1", "0", "nan", "inf", "-inf", "1e308", "99999999999", "", "x"],
    str: ["", "-1", "0", "nan", "x", "uniform:0", "uniform:-1", "copy:nan", "copy:8,0",
          "stateless:", "stateless:nan,1", "stateless:-1,2", "0,-1", "inf"],
}


def _fuzz_argvs(n: int, seed: int) -> list[list[str]]:
    """``n`` argvs: a subcommand's small valid run with one to three options
    from its table in ``cli._COMMANDS`` set to hostile values (a flag
    toggled, a choice replaced)."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(n):
        name = rng.choice(sorted(_COMMANDS))
        options = _COMMANDS[name][2]
        argv = [name, *_FUZZ_BASE[name]]
        for flag in rng.sample(sorted(options), rng.randint(1, 3)):
            spec = options[flag]
            if spec.get("action") == "store_true":
                argv.append(flag)
            elif "choices" in spec and rng.random() < 0.5:
                argv.append(f"{flag}={rng.choice(spec['choices'])}")
            else:
                argv.append(f"{flag}={rng.choice(_HOSTILE[spec.get('type', str)])}")
        argvs.append(argv)
    return argvs


def test_fuzzed_argv_exits_cleanly(tmp_path):
    # Every case ends in 0, in 2 with nothing on stdout, or in 1 with a
    # verification FAIL; a case that only runs long (a huge count) is cut
    # off and passes. Under a 1 GiB address-space cap.
    (tmp_path / "corpus.txt").write_text("the cat sat on the mat. " * 20)
    argvs = _fuzz_argvs(300, seed=5)
    proc = run_limited(_CLI_CASES, json.dumps(argvs), str(tmp_path), "0.2")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for argv, (code, out, err) in zip(argvs, results):
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, "timeout"), (argv, code, err)
        assert code != EXIT_USAGE or out == "", (argv, out)
        assert code != EXIT_VERIFY_FAIL or "FAIL" in out, (argv, out)
    codes = [code for code, _, _ in results]
    assert codes.count(EXIT_OK) > 20 and codes.count(EXIT_USAGE) > 100


# Runs each argv with main in one interpreter, and prints its exit code and
# whether scipy.stats has been imported by then.
_FOOTPRINT = """
import contextlib, io, json, os, sys
from specdec.cli import main

os.chdir(sys.argv[2])
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([main(argv), "scipy.stats" in sys.modules])
print(json.dumps(seen))
"""


def test_only_a_chi_square_imports_scipy_stats(tmp_path):
    # Importing scipy.stats takes most of a short decode's wall time and about
    # half its peak memory, so no subcommand but verify may load it.
    (tmp_path / "corpus.txt").write_text("the cat sat on the mat. " * 20)
    argvs = [[name, *_FUZZ_BASE[name]] for name in ("train", "decode", "simulate", "sweep", "beam")]
    argvs.append(["verify", "--suite=equivalence", "--samples=10000", "--vocab=8", "--seed=1"])
    proc = run_limited(_FOOTPRINT, json.dumps(argvs), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK, False]] * 5 + [[EXIT_OK, True]]
