"""Command-line surface: train models, decode with colorized traces, run
verification suites, emit analysis sweeps, and simulate walltimes.

Exit codes are uniform across subcommands: 0 success, 1 verification
failure, 2 usage or I/O error. Every command honors ``--seed`` (defaulting
to the ``SPECDEC_SEED`` environment variable) and is byte-reproducible.
A flat ``key=value`` config file can pre-set any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import analysis, harness
from .beam import speculative_beam_search, standard_beam_search
from .distmath import Distribution, SamplingPolicy, normalize
from .engine import MUTATIONS, DecodeResult, SpecConfig, decode
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


def _default_seed() -> int:
    raw = os.environ.get("SPECDEC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"SPECDEC_SEED must be an integer, got {raw!r}") from None


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


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


def _apply_config_defaults(subparser: argparse.ArgumentParser, file_values: dict[str, str]) -> None:
    converted = {}
    for action in subparser._actions:
        key = action.dest.replace("_", "-")
        if key not in file_values:
            continue
        raw = file_values[key]
        if action.nargs == 0:  # store_true flags
            converted[action.dest] = raw.lower() in ("1", "true", "yes", "on")
            continue
        try:
            value = raw if action.type is None else action.type(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(raw)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise CliError(f"config key {key!r} has invalid value {raw!r}") from None
        converted[action.dest] = value
    subparser.set_defaults(**converted)


def _apply_config_file(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Pre-set ``command``'s defaults from a config file. A key that no
    subcommand defines is an error; one defined only by another subcommand
    is ignored, so one file can serve several subcommands."""
    file_values = _load_config_file(path)
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    known = {a.dest.replace("_", "-") for sub in subparsers.values() for a in sub._actions}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise CliError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    _apply_config_defaults(subparsers[command], file_values)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items()) if k not in skip}


def _print_header(args: argparse.Namespace, out) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in _resolved_config(args).items())
    print(f"# specdec {args.func.__name__.removeprefix('cmd_')} {pairs}", file=out)


def _tokenizer(args: argparse.Namespace):
    mode = getattr(args, "tokenizer", "byte")
    if mode == "byte":
        return ByteTokenizer()
    if mode == "word":
        vocab_file = getattr(args, "vocab_file", None)
        if not vocab_file:
            raise CliError("word tokenizer requires --vocab-file")
        return WordTokenizer.from_vocab_file(vocab_file)
    raise CliError(f"unknown tokenizer mode {mode!r}")


def resolve_model(spec: str, other: LanguageModel | None = None) -> LanguageModel:
    """Model file path, or a builtin: ``same``, ``uniform:V``,
    ``stateless:p1,p2,...``, ``copy:V[,min_match[,copy_mass]]``."""
    if spec == "same":
        if other is None:
            raise CliError("'same' needs another model to alias")
        return other
    if spec.startswith("uniform:"):
        return random_model(int(spec.split(":", 1)[1]))
    if spec.startswith("stateless:"):
        probs = np.array(_parse_float_list(spec.split(":", 1)[1]))
        return StatelessModel(normalize(probs).probs)
    if spec.startswith("copy:"):
        parts = _parse_float_list(spec.split(":", 1)[1])
        vocab = int(parts[0])
        min_match = int(parts[1]) if len(parts) > 1 else 2
        copy_mass = parts[2] if len(parts) > 2 else 0.9
        return CopyModel(vocab, min_match=min_match, copy_mass=copy_mass)
    try:
        return load_model(spec)
    except OSError as exc:
        raise CliError(f"cannot read model {spec!r}: {exc}") from exc
    except ModelFormatError as exc:
        raise CliError(f"bad model file {spec!r}: {exc}") from exc


def _policy_from_args(args: argparse.Namespace) -> SamplingPolicy:
    return SamplingPolicy(
        temperature=args.temperature,
        top_k=args.top_k,
        top_p=args.top_p,
        argmax=args.argmax,
    )


def _use_color(mode: str) -> bool:
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    if args.tokenizer == "byte":
        tok = ByteTokenizer()
        try:
            with open(args.corpus, "rb") as fh:
                corpus = tok.encode(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read corpus: {exc}") from exc
    else:
        try:
            with open(args.corpus, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read corpus: {exc}") from exc
        if args.vocab_file:
            tok = WordTokenizer.from_vocab_file(args.vocab_file)
        else:
            tok = WordTokenizer.from_corpus(text)
            vocab_out = args.out + ".vocab"
            with open(vocab_out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(tok._words) + "\n")
            print(f"wrote vocabulary to {vocab_out}", file=sys.stderr)
        corpus = tok.encode(text)

    model = train_ngram(corpus, args.order, tok.vocab_size, smoothing_k=args.smoothing)
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
    target = resolve_model(args.target)
    draft = resolve_model(args.draft, other=target)
    if target.vocab_size != draft.vocab_size:
        raise CliError(
            f"vocab mismatch: target {target.vocab_size} vs draft {draft.vocab_size}"
        )
    tok = _tokenizer(args)

    if args.prompt_tokens is not None:
        prompt = _parse_int_list(args.prompt_tokens)
        bad = [t for t in prompt if not 0 <= t < target.vocab_size]
        if bad:
            raise CliError(f"prompt tokens {bad} outside vocab {target.vocab_size}")
    elif args.prompt is not None:
        prompt = tok.encode(args.prompt)
    else:
        prompt = []
    bos = tok.BOS if target.vocab_size >= tok.vocab_size else 0

    config = SpecConfig(
        gamma=args.gamma,
        policy=_policy_from_args(args),
        lenience=args.lenience,
        seed=args.seed,
        max_new_tokens=args.max_tokens,
        stop_token=args.stop_token,
    )
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


def _random_distribution_pair(rng: RandomStream, vocab: int) -> tuple[Distribution, Distribution]:
    p = normalize(rng.uniform_block(vocab) + 1e-12)
    q = normalize(rng.uniform_block(vocab) + 1e-12)
    return p, q


def _verify_exactness(args: argparse.Namespace) -> int:
    rng = RandomStream(args.seed)
    worst = 0.0
    worst_lenient = 0.0
    for _ in range(args.pairs):
        p, q = _random_distribution_pair(rng, args.vocab)
        out = harness.exact_step_distribution(p, q, 1.0)
        worst = max(worst, float(np.abs(out.probs - p.probs).max()))
        lenience = 0.05 + 0.95 * rng.uniform()
        out_l = harness.exact_step_distribution(p, q, lenience)
        excess = float((out_l.probs - p.probs / lenience).max())
        worst_lenient = max(worst_lenient, excess)
    ok = worst < 1e-12 and worst_lenient <= 1e-12
    print(f"exactness: pairs={args.pairs} vocab={args.vocab} "
          f"max|out-p|={worst:.3e} max lenient excess={worst_lenient:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_equivalence(args: argparse.Namespace) -> int:
    rng = RandomStream(args.seed)
    p, q = _random_distribution_pair(rng, args.vocab)
    target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
    config = SpecConfig(gamma=args.gamma, seed=args.seed, lenience=args.lenience)
    mutation = args.mutate.replace("-", "_") if args.mutate else None
    report = harness.equivalence_test(
        target, draft, config, args.samples, context_set=[[0]], mutation=mutation
    )
    tag = f" (mutation: {args.mutate})" if args.mutate else ""
    print(f"equivalence{tag}: {report.summary()}")
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAIL


def _verify_geometric(args: argparse.Namespace) -> int:
    report = harness.geometric_fit_test(args.alpha, args.gamma, args.steps, seed=args.seed)
    gap = report.extras["mean_rel_gap"]
    ok = report.verdict and gap <= 0.02
    print(
        f"geometric: alpha={args.alpha} gamma={args.gamma} steps={args.steps} "
        f"p={report.p_value:.3g} mean={report.extras['mean_tokens']:.4f} "
        f"expected={report.extras['expected_mean']:.4f} gap={100 * gap:.2f}% "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_rejection(args: argparse.Namespace) -> int:
    rng = RandomStream(args.seed)
    worst_margin = 1.0
    violations = 0
    for _ in range(args.pairs):
        p, q = _random_distribution_pair(rng, args.vocab)
        b = analysis.beta(p, q)
        r = harness.rejection_accept_probability(p, q)
        if r > b + 1e-12:
            violations += 1
        worst_margin = min(worst_margin, b - r)
    ok = violations == 0
    print(f"rejection: pairs={args.pairs} vocab={args.vocab} violations={violations} "
          f"min(beta - accept)={worst_margin:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    _print_header(args, sys.stdout)
    suite = {
        "exactness": _verify_exactness,
        "equivalence": _verify_equivalence,
        "geometric": _verify_geometric,
        "rejection": _verify_rejection,
    }[args.suite]
    return suite(args)


# ---------------------------------------------------------------------------
# sweep


_SWEEP_KINDS = {
    "fig2": "fig2_tokens",
    "fig3": "fig3_optgamma",
    "fig4": "fig4_speedup_ops",
    "table1": "table1",
}


def cmd_sweep(args: argparse.Namespace) -> int:
    kind = "table1" if args.table1 else args.kind
    if kind is None:
        raise CliError("pick a sweep with --kind or --table1")
    rows = analysis.sweep(
        _SWEEP_KINDS[kind],
        alphas=_parse_float_list(args.alphas) if args.alphas else None,
        gammas=_parse_int_list(args.gammas) if args.gammas else None,
        cs=_parse_float_list(args.cs) if args.cs else None,
        gamma_max=args.gamma_max,
    )
    if args.table1 or (kind == "table1" and not args.out):
        _print_header(args, sys.stdout)
        print(f"{'alpha':>6} {'gamma':>6} {'operations':>11} {'speed':>8}")
        for row in rows:
            print(f"{row['alpha']:>6.2f} {row['gamma']:>6d} "
                  f"{row['operations']:>10.2f}X {row['speed']:>7.2f}X")
        if not args.out:
            return EXIT_OK
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                analysis.write_sweep_csv(rows, fh)
        except OSError as exc:
            raise CliError(f"cannot write CSV: {exc}") from exc
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        buf = io.StringIO()
        analysis.write_sweep_csv(rows, buf)
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.stateless_alpha is not None:
        target, draft = stateless_pair(args.stateless_alpha)
        task = f"stateless(a={args.stateless_alpha})"
    elif args.target and args.draft:
        target = resolve_model(args.target)
        draft = resolve_model(args.draft, other=target)
        task = os.path.basename(args.target)
    else:
        raise CliError("simulate needs --stateless-alpha or both --target and --draft")
    cost = analysis.CostModel(c=args.c, c_hat=args.c_hat)
    config = SpecConfig(gamma=args.gamma, seed=args.seed, lenience=args.lenience)
    report = harness.simulate_walltime(
        target, draft, cost, config,
        n_tokens=args.n_tokens, n_runs=args.runs, batch_penalty=args.batch_penalty,
    )
    _print_header(args, sys.stdout)
    row = report.row(task)
    ops = analysis.ops_factor(report.alpha_hat, args.gamma, args.c_hat)
    mem = analysis.memory_access_factor(report.alpha_hat, args.gamma)
    row["ops_factor"] = ops
    row["memory_access_factor"] = mem
    print(f"{'task':<24} {'gamma':>5} {'alpha':>7} {'c':>6} {'Exp':>6} {'Emp':>6} {'gap%':>7}")
    print(f"{row['task']:<24} {row['gamma']:>5d} {row['alpha']:>7.4f} {row['c']:>6.3f} "
          f"{row['exp']:>6.3f} {row['emp']:>6.3f} {row['gap_pct']:>+7.2f}")
    print(f"# ops_factor={ops:.4f} memory_access_factor={mem:.4f} "
          f"steps={sum(r.steps for r in report.runs)} tokens={sum(r.tokens for r in report.runs)}")
    if args.timeline:
        print(report.timeline())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                analysis.write_sweep_csv([row], fh)
        except OSError as exc:
            raise CliError(f"cannot write CSV: {exc}") from exc
        print(f"wrote report to {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# beam


def cmd_beam(args: argparse.Namespace) -> int:
    target = resolve_model(args.target)
    draft = resolve_model(args.draft, other=target)
    prompt = _parse_int_list(args.prompt_tokens) if args.prompt_tokens else [0]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Speculative decoding at desk scale: train, decode, verify, analyze.",
    )
    parser.add_argument("--config", help="flat key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_kw = dict(type=int, default=_default_seed(),
                   help="PRNG seed (default: $SPECDEC_SEED or 0)")

    p_train = sub.add_parser("train", help="train an n-gram model from a corpus file")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--order", type=int, required=True)
    p_train.add_argument("--smoothing", type=float, default=0.01)
    p_train.add_argument("--tokenizer", choices=["byte", "word"], default="byte")
    p_train.add_argument("--vocab-file")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", **seed_kw)  # training is deterministic; accepted for uniformity
    p_train.set_defaults(func=cmd_train)

    p_dec = sub.add_parser("decode", help="speculative decoding with optional colorized trace")
    p_dec.add_argument("--target", required=True, help="model file or builtin spec")
    p_dec.add_argument("--draft", required=True,
                       help="model file or builtin: same | uniform:V | stateless:... | copy:V")
    p_dec.add_argument("--prompt", help="prompt text (encoded with the tokenizer)")
    p_dec.add_argument("--prompt-tokens", help="comma-separated raw token ids")
    p_dec.add_argument("--gamma", type=int, default=4)
    p_dec.add_argument("--lenience", type=float, default=1.0)
    p_dec.add_argument("--temperature", type=float, default=1.0)
    p_dec.add_argument("--top-k", type=int, default=None)
    p_dec.add_argument("--top-p", type=float, default=None)
    p_dec.add_argument("--argmax", action="store_true")
    p_dec.add_argument("--seed", **seed_kw)
    p_dec.add_argument("--max-tokens", type=int, default=64)
    p_dec.add_argument("--stop-token", type=int, default=None)
    p_dec.add_argument("--trace", action="store_true",
                       help="colorized step trace: green accepted drafts, "
                            "struck red rejection, blue correction")
    p_dec.add_argument("--json", action="store_true")
    p_dec.add_argument("--color", choices=["auto", "always", "never"], default="auto")
    p_dec.add_argument("--tokenizer", choices=["byte", "word"], default="byte")
    p_dec.add_argument("--vocab-file")
    p_dec.set_defaults(func=cmd_decode)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=["exactness", "equivalence", "geometric", "rejection"])
    p_ver.add_argument("--pairs", type=int, default=1000)
    p_ver.add_argument("--samples", type=int, default=100_000)
    p_ver.add_argument("--steps", type=int, default=100_000)
    p_ver.add_argument("--vocab", type=int, default=16)
    p_ver.add_argument("--alpha", type=float, default=0.8)
    p_ver.add_argument("--gamma", type=int, default=5)
    p_ver.add_argument("--lenience", type=float, default=1.0)
    p_ver.add_argument("--mutate", choices=[m.replace("_", "-") for m in MUTATIONS],
                       default=None,
                       help="inject a named engine fault (the suite must then fail)")
    p_ver.add_argument("--seed", **seed_kw)
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="emit analysis grids as CSV")
    p_sw.add_argument("--kind", choices=list(_SWEEP_KINDS))
    p_sw.add_argument("--table1", action="store_true",
                      help="print the six-row operations/speed table")
    p_sw.add_argument("--alphas", help="comma-separated alpha grid")
    p_sw.add_argument("--gammas", help="comma-separated gamma set")
    p_sw.add_argument("--cs", help="comma-separated cost-ratio set")
    p_sw.add_argument("--gamma-max", type=int, default=1000)
    p_sw.add_argument("--out", help="CSV output path (default: stdout)")
    p_sw.add_argument("--seed", **seed_kw)
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="cost-model walltime simulation (Exp vs Emp)")
    p_sim.add_argument("--target")
    p_sim.add_argument("--draft")
    p_sim.add_argument("--stateless-alpha", type=float, default=None,
                       help="use the canonical stateless pair with this acceptance rate")
    p_sim.add_argument("--gamma", type=int, required=True)
    p_sim.add_argument("--c", type=float, default=0.0)
    p_sim.add_argument("--c-hat", type=float, default=0.0)
    p_sim.add_argument("--lenience", type=float, default=1.0)
    p_sim.add_argument("--n-tokens", type=int, default=10_000)
    p_sim.add_argument("--runs", type=int, default=1)
    p_sim.add_argument("--batch-penalty", type=float, default=0.0)
    p_sim.add_argument("--timeline", action="store_true",
                       help="print a schematic per-step trace of the first steps")
    p_sim.add_argument("--out", help="also write the report row as CSV")
    p_sim.add_argument("--seed", **seed_kw)
    p_sim.set_defaults(func=cmd_simulate)

    p_beam = sub.add_parser("beam", help="speculative vs standard beam search")
    p_beam.add_argument("--target", required=True)
    p_beam.add_argument("--draft", required=True)
    p_beam.add_argument("--prompt-tokens", help="comma-separated raw token ids (default: 0)")
    p_beam.add_argument("--width", "-w", type=int, default=2)
    p_beam.add_argument("--draft-width", "-u", type=int, default=4)
    p_beam.add_argument("--gamma", type=int, default=3)
    p_beam.add_argument("--steps", type=int, default=8)
    p_beam.add_argument("--seed", **seed_kw)
    p_beam.set_defaults(func=cmd_beam)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Two-phase parse so a config file can pre-set subcommand defaults
    # while explicit flags still win.
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        try:
            _apply_config_file(parser, probe.command, probe.config)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
