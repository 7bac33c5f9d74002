"""Command-line surface: train models, decode with colorized traces, run
verification suites, emit analysis sweeps, and simulate walltimes.

Exit codes are uniform across subcommands: 0 success, 1 verification
failure, 2 usage or I/O error. Every command is byte-reproducible, and the
ones that sample (decode, verify, simulate) take ``--seed``, by default
``$SPECDEC_SEED`` or 0. A flat ``key=value`` file given with ``--config``
can set any flag of the subcommand, required ones included, with ``true``
or ``false`` for a flag key; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import analysis, harness, models
from .beam import speculative_beam_search, standard_beam_search
from .distmath import SamplingPolicy, normalize
from .engine import MUTATIONS, DecodeResult, SpecConfig, check_pair, decode
from .model_io import ModelFormatError, load_model, save_model
from .models import CopyModel, LanguageModel, StatelessModel, random_model, stateless_pair, train_ngram
from .rng import RandomStream
from .tokenizers import ByteTokenizer, WordTokenizer

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

GREEN, RED, BLUE = "\x1b[32m", "\x1b[31m", "\x1b[34m"
STRIKE, RESET = "\x1b[9m", "\x1b[0m"


class CliError(Exception):
    """Usage or I/O problem; maps to exit code 2."""


def _from_flags(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on flag values: the ``ValueError`` or
    ``KeyError`` (an unknown word) that a bad value raises is a usage error."""
    try:
        return build(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        raise CliError(exc) from exc


def _at_least(args: argparse.Namespace, flag: str, minimum: int) -> None:
    value = getattr(args, flag.removeprefix("--").replace("-", "_"))
    if value < minimum:
        raise CliError(f"{flag} must be at least {minimum}, got {value}")


def _default_seed() -> int:
    raw = os.environ.get("SPECDEC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"SPECDEC_SEED must be an integer, got {raw!r}") from None


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated ``kind`` values; empty entries are skipped."""
    return _from_flags(lambda: [kind(x) for x in text.split(",") if x.strip() != ""])


def _write_csv(rows: list[dict], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            analysis.write_sweep_csv(rows, fh)
    except OSError as exc:
        raise CliError(f"cannot write CSV: {exc}") from exc


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return values


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items()) if k not in skip}


def _print_header(args: argparse.Namespace, out) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in _resolved_config(args).items())
    print(f"# specdec {args.func.__name__.removeprefix('cmd_')} {pairs}", file=out)


def _tokenizer(args: argparse.Namespace):
    if args.tokenizer == "byte":
        return ByteTokenizer()
    if not args.vocab_file:
        raise CliError("word tokenizer requires --vocab-file")
    try:
        return _from_flags(WordTokenizer.from_vocab_file, args.vocab_file)
    except OSError as exc:
        raise CliError(f"cannot read vocabulary: {exc}") from exc


def resolve_model(spec: str, other: LanguageModel | None = None) -> LanguageModel:
    """Model file path, or a builtin: ``same``, ``uniform:V``,
    ``stateless:p1,p2,...``, ``copy:V[,min_match[,copy_mass]]``."""
    if spec == "same":
        if other is None:
            raise CliError("'same' needs another model to alias")
        return other
    if spec.startswith(("uniform:", "stateless:", "copy:")):
        return _from_flags(_builtin_model, *spec.split(":", 1))
    try:
        return load_model(spec)
    except OSError as exc:
        raise CliError(f"cannot read model {spec!r}: {exc}") from exc
    except ModelFormatError as exc:
        raise CliError(f"bad model file {spec!r}: {exc}") from exc


def _builtin_model(kind: str, params: str) -> LanguageModel:
    if kind == "uniform":
        return random_model(int(params))
    if kind == "stateless":
        return StatelessModel(normalize(np.array(_parse_list(params, float))).probs)
    fields = params.split(",")
    if len(fields) > 3:
        raise ValueError(f"copy: takes at most 3 fields (V,min_match,copy_mass), got {params!r}")
    return CopyModel(*(parse(x) for parse, x in zip((int, int, float), fields)))


def _model_pair(args: argparse.Namespace) -> tuple[LanguageModel, LanguageModel]:
    """``--target`` and ``--draft`` resolved; a vocab mismatch is a usage error."""
    target = resolve_model(args.target)
    draft = resolve_model(args.draft, other=target)
    _from_flags(check_pair, target, draft)
    return target, draft


def _prompt_tokens(prompt: list[int], vocab_size: int) -> list[int]:
    """Prompt ids from either flag; an id outside the vocab is a usage error."""
    bad = [t for t in prompt if not 0 <= t < vocab_size]
    if bad:
        raise CliError(f"prompt tokens {bad} outside vocab {vocab_size}")
    return prompt


def _policy_from_args(args: argparse.Namespace) -> SamplingPolicy:
    return _from_flags(
        SamplingPolicy,
        temperature=args.temperature,
        top_k=args.top_k,
        top_p=args.top_p,
        argmax=args.argmax,
    )


def _use_color(mode: str) -> bool:
    return mode == "always" or mode == "auto" and sys.stdout.isatty()


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    try:
        with open(args.corpus, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read corpus: {exc}") from exc
    text = data if args.tokenizer == "byte" else _from_flags(data.decode, "utf-8")
    if args.tokenizer == "word" and not args.vocab_file:
        tok = WordTokenizer.from_corpus(text)
        vocab_out = args.out + ".vocab"
        try:
            with open(vocab_out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(tok._words) + "\n")
        except OSError as exc:
            raise CliError(f"cannot write vocabulary: {exc}") from exc
        print(f"wrote vocabulary to {vocab_out}", file=sys.stderr)
    else:
        tok = _tokenizer(args)
    corpus = _from_flags(tok.encode, text)

    model = _from_flags(train_ngram, corpus, args.order, tok.vocab_size, smoothing_k=args.smoothing)
    try:
        save_model(model, args.out)
    except OSError as exc:
        raise CliError(f"cannot write model: {exc}") from exc
    size = os.path.getsize(args.out)
    _print_header(args, sys.stdout)
    print(
        f"trained order-{model.order} model: vocab={model.vocab_size} "
        f"contexts={model.n_contexts} corpus_tokens={len(corpus)} bytes={size}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode


def _render_trace(result: DecodeResult, tok, color: bool) -> str:
    def paint(text: str, *codes: str) -> str:
        if not color:
            return text
        return "".join(codes) + text + RESET

    lines = []
    budget = len(result.tokens)
    for trace in result.traces:
        parts = []
        for d in trace.drafted[: trace.accepted_n]:
            if budget <= 0:
                break
            parts.append(paint(tok.render_token(d.token), GREEN))
            budget -= 1
        if trace.accepted_n < len(trace.drafted):
            rejected = trace.drafted[trace.accepted_n].token
            parts.append(paint(tok.render_token(rejected), RED, STRIKE))
        if budget > 0:
            parts.append(paint(tok.render_token(trace.correction), BLUE))
            budget -= 1
        lines.append("".join(parts))
    return "\n".join(lines)


def cmd_decode(args: argparse.Namespace) -> int:
    target, draft = _model_pair(args)
    tok = _tokenizer(args)

    if args.prompt_tokens is not None:
        prompt = _parse_list(args.prompt_tokens, int)
    elif args.prompt is not None:
        prompt = _from_flags(tok.encode, args.prompt)
    else:
        prompt = []
    prompt = _prompt_tokens(prompt, target.vocab_size)
    bos = tok.BOS if target.vocab_size >= tok.vocab_size else 0

    config = _from_flags(
        SpecConfig,
        gamma=args.gamma,
        policy=_policy_from_args(args),
        lenience=args.lenience,
        seed=args.seed,
        max_new_tokens=args.max_tokens,
        stop_token=args.stop_token,
    )
    if config.policy.top_k is not None and config.policy.top_k > target.vocab_size:
        raise CliError(f"--top-k {config.policy.top_k} exceeds vocab size {target.vocab_size}")
    if config.stop_token is not None and not 0 <= config.stop_token < target.vocab_size:
        raise CliError(f"--stop-token {config.stop_token} outside vocab {target.vocab_size}")
    _from_flags(check_pair, target, draft, config.gamma)
    result = decode(target, draft, prompt, config, bos_token=bos)

    if args.json:
        payload = {"config": _resolved_config(args), "text": tok.decode(result.tokens)}
        payload.update(result.to_dict())
        print(json.dumps(payload))
        return EXIT_OK

    _print_header(args, sys.stdout)
    if args.trace:
        print(_render_trace(result, tok, _use_color(args.color)))
    else:
        print(tok.decode(result.tokens))
    t = result.totals
    print(
        f"# tokens={t.tokens_emitted} target_calls={t.target_calls} "
        f"draft_calls={t.draft_calls} tokens_per_call={t.tokens_emitted / t.target_calls:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_exactness(args: argparse.Namespace) -> tuple[bool, str]:
    _at_least(args, "--pairs", 1)
    worst, worst_lenient = harness.exactness_check(args.pairs, args.vocab, args.seed)
    ok = worst < 1e-12 and worst_lenient <= 1e-12
    return ok, (f"exactness: pairs={args.pairs} vocab={args.vocab} "
                f"max|out-p|={worst:.3e} max lenient excess={worst_lenient:.3e} "
                f"-> {'PASS' if ok else 'FAIL'}")


def _verify_equivalence(args: argparse.Namespace) -> tuple[bool, str]:
    _at_least(args, "--samples", harness.MIN_SAMPLES)
    config = _from_flags(SpecConfig, gamma=args.gamma, seed=args.seed, lenience=args.lenience)
    p, q = harness.random_pair(RandomStream(args.seed), args.vocab)
    target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
    _from_flags(check_pair, target, draft, config.gamma)
    mutation = args.mutate.replace("-", "_") if args.mutate else None
    report = harness.equivalence_test(
        target, draft, config, args.samples, context_set=[[0]], mutation=mutation
    )
    tag = f" (mutation: {args.mutate})" if args.mutate else ""
    return report.verdict, f"equivalence{tag}: {report.summary()}"


def _verify_geometric(args: argparse.Namespace) -> tuple[bool, str]:
    _at_least(args, "--steps", 1)
    # The harness builds the pair and the config from these flags; building
    # them here first makes a bad value a usage error.
    _from_flags(stateless_pair, args.alpha)
    _from_flags(SpecConfig, gamma=args.gamma)
    report = harness.geometric_fit_test(args.alpha, args.gamma, args.steps, seed=args.seed)
    gap = report.extras["mean_rel_gap"]
    ok = report.verdict and gap <= 0.02
    return ok, (
        f"geometric: alpha={args.alpha} gamma={args.gamma} steps={args.steps} "
        f"p={report.p_value:.3g} mean={report.extras['mean_tokens']:.4f} "
        f"expected={report.extras['expected_mean']:.4f} gap={100 * gap:.2f}% "
        f"-> {'PASS' if ok else 'FAIL'}"
    )


def _verify_rejection(args: argparse.Namespace) -> tuple[bool, str]:
    _at_least(args, "--pairs", 1)
    violations, worst_margin = harness.rejection_check(args.pairs, args.vocab, args.seed)
    ok = violations == 0
    return ok, (f"rejection: pairs={args.pairs} vocab={args.vocab} violations={violations} "
                f"min(beta - accept)={worst_margin:.3e} -> {'PASS' if ok else 'FAIL'}")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "geometric":  # the one suite that reads no --vocab
        _at_least(args, "--vocab", 1)
        if args.vocab > models.MAX_VOCAB:
            raise CliError(f"--vocab must be at most {models.MAX_VOCAB}, got {args.vocab}")
    # Each suite checks its flags, runs, and returns its verdict and line; the
    # header is printed only then, so a usage error leaves stdout empty. Too
    # few samples to test the law is a usage error too.
    suite = {
        "exactness": _verify_exactness,
        "equivalence": _verify_equivalence,
        "geometric": _verify_geometric,
        "rejection": _verify_rejection,
    }[args.suite]
    try:
        ok, line = suite(args)
    except harness.TooFewSamplesError as exc:
        raise CliError(exc) from exc
    _print_header(args, sys.stdout)
    print(line)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = _from_flags(
        analysis.sweep,
        args.kind,
        alphas=_parse_list(args.alphas, float) if args.alphas else None,
        gammas=_parse_list(args.gammas, int) if args.gammas else None,
        cs=_parse_list(args.cs, float) if args.cs else None,
        gamma_max=args.gamma_max,
    )
    if args.out:
        _write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    elif args.kind == "table1":
        _print_header(args, sys.stdout)
        print(f"{'alpha':>6} {'gamma':>6} {'operations':>11} {'speed':>8}")
        for row in rows:
            print(f"{row['alpha']:>6.2f} {row['gamma']:>6d} "
                  f"{row['operations']:>10.2f}X {row['speed']:>7.2f}X")
    else:
        analysis.write_sweep_csv(rows, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.stateless_alpha is not None:
        target, draft = _from_flags(stateless_pair, args.stateless_alpha)
        task = f"stateless(a={args.stateless_alpha})"
    elif args.target and args.draft:
        target, draft = _model_pair(args)
        task = os.path.basename(args.target)
    else:
        raise CliError("simulate needs --stateless-alpha or both --target and --draft")
    _at_least(args, "--n-tokens", 1)
    _at_least(args, "--runs", 1)
    cost = _from_flags(analysis.CostModel, c=args.c, batch_penalty=args.batch_penalty)
    # The prediction at this gamma must be finite; checked before the runs.
    _from_flags(analysis.walltime_factor, 0.0, args.gamma, cost.c, cost.batch_cost(args.gamma))
    config = _from_flags(SpecConfig, gamma=args.gamma, seed=args.seed, lenience=args.lenience)
    _from_flags(check_pair, target, draft, config.gamma)
    report = harness.simulate_walltime(target, draft, cost, config,
                                       n_tokens=args.n_tokens, n_runs=args.runs)
    ops = _from_flags(analysis.ops_factor, report.alpha_hat, args.gamma, args.c_hat)
    mem = analysis.expected_tokens(report.alpha_hat, args.gamma)
    _print_header(args, sys.stdout)
    row = {**report.row(task), "ops_factor": ops, "memory_access_factor": mem}
    print(f"{'task':<24} {'gamma':>5} {'alpha':>7} {'c':>6} {'Exp':>6} {'Emp':>6} {'gap%':>7}")
    print(f"{row['task']:<24} {row['gamma']:>5d} {row['alpha']:>7.4f} {row['c']:>6.3f} "
          f"{row['exp']:>6.3f} {row['emp']:>6.3f} {row['gap_pct']:>+7.2f}")
    print(f"# ops_factor={ops:.4f} memory_access_factor={mem:.4f} "
          f"steps={sum(r.steps for r in report.runs)} tokens={sum(r.tokens for r in report.runs)}")
    if args.timeline:
        print(report.timeline())
    if args.out:
        _write_csv([row], args.out)
        print(f"wrote report to {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# beam


def cmd_beam(args: argparse.Namespace) -> int:
    target, draft = _model_pair(args)
    prompt = _prompt_tokens(_parse_list(args.prompt_tokens or "0", int), target.vocab_size)
    for flag in ("--width", "--gamma", "--steps"):
        _at_least(args, flag, 1)
    _at_least(args, "--draft-width", args.width)
    spec_beams, stats = speculative_beam_search(
        target, draft, prompt, args.width, args.draft_width, args.gamma, args.steps
    )
    std_beams = standard_beam_search(target, prompt, args.width, args.steps)
    identical = [
        (a.tokens, a.score) == (b.tokens, b.score) for a, b in zip(spec_beams, std_beams)
    ]
    ok = len(spec_beams) == len(std_beams) and all(identical)

    _print_header(args, sys.stdout)
    print(f"{'rank':>4} {'speculative':<40} {'standard':<40}")
    for i, (a, b) in enumerate(zip(spec_beams, std_beams)):
        mark = "" if identical[i] else "  <-- DIFFERS"
        print(f"{i:>4} {str(list(a.tokens)):<28} {a.score:>10.4f} "
              f"{str(list(b.tokens)):<28} {b.score:>10.4f}{mark}")
    per_step = "".join("A" if a else "R" for a in stats.per_step_accepted)
    print(f"# steps={stats.steps} accepted={stats.accepted_steps} "
          f"accept_fraction={stats.accept_fraction:.3f} per_step={per_step} "
          f"blocks={stats.blocks} target_batched_calls={stats.target_batched_calls} "
          f"target_sequences={stats.target_sequences}")
    print(f"beam equivalence: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser


# Every subcommand's options, declared once: ``build_parser`` adds them, and
# ``_with_config`` reads a config file's keys and flag keys from them.
_SEED = dict(type=int, help="PRNG seed (default: $SPECDEC_SEED or 0)")
_TOKENIZER = {"--tokenizer": dict(choices=["byte", "word"], default="byte"), "--vocab-file": {}}

_COMMANDS = {
    "train": (cmd_train, "train an n-gram model from a corpus file", {
        "--corpus": dict(required=True),
        "--order": dict(type=int, required=True),
        "--smoothing": dict(type=float, default=0.01),
        **_TOKENIZER,
        "--out": dict(required=True),
    }),
    "decode": (cmd_decode, "speculative decoding with optional colorized trace", {
        "--target": dict(required=True, help="model file or builtin spec"),
        "--draft": dict(required=True,
                        help="model file or builtin: same | uniform:V | stateless:... | copy:V"),
        "--prompt": dict(help="prompt text (encoded with the tokenizer)"),
        "--prompt-tokens": dict(help="comma-separated raw token ids"),
        "--gamma": dict(type=int, default=4),
        "--lenience": dict(type=float, default=1.0),
        "--temperature": dict(type=float, default=1.0),
        "--top-k": dict(type=int),
        "--top-p": dict(type=float),
        "--argmax": dict(action="store_true"),
        "--seed": _SEED,
        "--max-tokens": dict(type=int, default=64),
        "--stop-token": dict(type=int),
        "--trace": dict(action="store_true",
                        help="colorized step trace: green accepted drafts, "
                             "struck red rejection, blue correction"),
        "--json": dict(action="store_true"),
        "--color": dict(choices=["auto", "always", "never"], default="auto"),
        **_TOKENIZER,
    }),
    "verify": (cmd_verify, "run a verification suite", {
        "--suite": dict(required=True,
                        choices=["exactness", "equivalence", "geometric", "rejection"]),
        "--pairs": dict(type=int, default=1000),
        "--samples": dict(type=int, default=100_000),
        "--steps": dict(type=int, default=100_000),
        "--vocab": dict(type=int, default=16),
        "--alpha": dict(type=float, default=0.8),
        "--gamma": dict(type=int, default=5),
        "--lenience": dict(type=float, default=1.0),
        "--mutate": dict(choices=[m.replace("_", "-") for m in MUTATIONS],
                         help="inject a named engine fault (the suite must then fail)"),
        "--seed": _SEED,
    }),
    "sweep": (cmd_sweep, "emit analysis grids as CSV, or print Table 1", {
        "--kind": dict(required=True, choices=["fig2", "fig3", "fig4", "table1"]),
        "--alphas": dict(help="comma-separated alpha grid"),
        "--gammas": dict(help="comma-separated gamma set"),
        "--cs": dict(help="comma-separated cost-ratio set"),
        "--gamma-max": dict(type=int, default=1000),
        "--out": dict(help="CSV output path (default: stdout; table1 prints a table)"),
    }),
    "simulate": (cmd_simulate, "cost-model walltime simulation (Exp vs Emp)", {
        "--target": {},
        "--draft": {},
        "--stateless-alpha": dict(type=float,
                                  help="use the canonical stateless pair with this acceptance rate"),
        "--gamma": dict(type=int, required=True),
        "--c": dict(type=float, default=0.0),
        "--c-hat": dict(type=float, default=0.0),
        "--lenience": dict(type=float, default=1.0),
        "--n-tokens": dict(type=int, default=10_000),
        "--runs": dict(type=int, default=1),
        "--batch-penalty": dict(type=float, default=0.0),
        "--timeline": dict(action="store_true",
                           help="print a schematic per-step trace of the first steps"),
        "--out": dict(help="also write the report row as CSV"),
        "--seed": _SEED,
    }),
    "beam": (cmd_beam, "speculative vs standard beam search", {
        "--target": dict(required=True),
        "--draft": dict(required=True),
        "--prompt-tokens": dict(help="comma-separated raw token ids (default: 0)"),
        "--width": dict(type=int, default=2),
        "--draft-width": dict(type=int, default=4),
        "--gamma": dict(type=int, default=3),
        "--steps": dict(type=int, default=8),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    seed = _default_seed()
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Speculative decoding at desk scale: train, decode, verify, analyze.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="flat key=value file of flag settings; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **({**kwargs, "default": seed} if kwargs is _SEED else kwargs))
        p.set_defaults(func=func)
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's settings for the subcommand as
    flags right after its name, so that explicit flags, which come later,
    win. A key that no subcommand defines is an error; one defined only by
    another subcommand is ignored, so one file can serve several."""
    # No abbreviations, as in the full parser: ``--conf`` is not --config.
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    probe.add_argument("--config")
    probe.add_argument("command", nargs="?")
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        known, before = probe.parse_known_args(argv)
    except argparse.ArgumentError:
        return argv  # the full parse reports it
    if not known.config or known.command not in _COMMANDS:
        return argv
    values = _load_config_file(known.config)
    defined = {flag for _, _, options in _COMMANDS.values() for flag in options}
    unknown = sorted(key for key in values if "--" + key not in defined)
    if unknown:
        raise CliError(f"{known.config}: unknown config key(s): {', '.join(unknown)}")
    options = _COMMANDS[known.command][2]
    flags = []
    for key, raw in values.items():
        flag = "--" + key
        if flag not in options:
            continue
        if options[flag].get("action") != "store_true":
            flags.append(f"{flag}={raw}")  # the = form keeps a value such as -x a value
        elif raw.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif raw.lower() not in ("0", "false", "no", "off"):
            raise CliError(f"config key {key!r}: flag --{key} takes true or false, not {raw!r}")
    return [*before, known.command, *flags, *known.rest]


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        code = args.func(args)
        sys.stdout.flush()  # so that a reader gone away shows here, not at exit
        return code
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout's reader went away, e.g. `| head -1`
        with open(os.devnull, "wb") as devnull:  # so that the interpreter's last flush succeeds
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
