"""The benchmark's three workloads and the set-up they share.

Every input is generated from the workload seed: a seeded Markov source
supplies the training corpora and the prompts, so nothing is downloaded and
the same seed always yields the same models, prompts and tokens.

* ``ngram-long``: byte-vocabulary trigram target, bigram draft. Long and
  short requests on the same prompts, so the per-token cost of the long
  ones over the short ones isolates the growth with length.
* ``copy-draft``: the same kind of trigram target with a ``CopyModel``
  draft, on prompts that contain a passage the greedy continuation repeats
  and on random prompts with nothing to copy.
* ``verify``: fixed-size runs of every verification suite on a small
  vocabulary, timed from the first suite start to the last verdict.

A run is a closed loop with one caller: each call returns before the next
one is issued, in one process and one thread. Rounds of the workload repeat
until the time budget is spent; every timing is reported as the median
over rounds, and every round must reproduce the first round's tokens.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from specdec import cli, engine
from specdec.analysis import trace_accept_rate, walltime_factor
from specdec.beam import speculative_beam_search, standard_beam_search
from specdec.distmath import Distribution, SamplingPolicy, normalize
from specdec.engine import DecodeResult, SpecConfig, decode, standard_decode
from specdec.harness import (
    equivalence_test,
    exact_step_distribution,
    geometric_fit_test,
    rejection_comparison,
)
from specdec.model_io import load_model
from specdec.models import CopyModel
from specdec.rng import RandomStream

from tracing import SpanTable, TracedModel, Tracer, installed

GAMMA = 4
DRAWS_PER_STEP = 2 * GAMMA + 1
SETUP_REPEATS = 5
# One timed oracle pass makes at least this many harness calls, cycling over
# the workload's pairs, so that a pass lasts long enough to time. A decode
# run makes one pass after every request.
ORACLE_CALLS = 2000
EXACT_TOL = 1e-12
# Statistical verdicts use a strict threshold so that a correct engine
# essentially never fails on any seed, while the injected mutation (whose
# first-token law is the draft's) still lands many orders of magnitude below.
VERDICT_THRESHOLD = 1e-6
MUTATION = "accept_off_by_one"
CLI_TOKENS = 16
# A standard arm is repeated until it has produced this many tokens, so that
# even a short request's baseline lasts long enough to time.
STD_MIN_TOKENS = 2000
LOOP_CHUNKS = 20

IDENTITY = SamplingPolicy()
NUCLEUS = SamplingPolicy(temperature=0.7, top_p=0.9)
ARGMAX = SamplingPolicy(argmax=True)

# Printable bytes the synthetic byte corpus is written in.
ALPHABET = b"abcdefghijklmnopqrstuvwxyz .,;:!"
# Add-k mass on the 226 byte values the corpus never uses. Kept small so a
# sampled continuation rarely leaves the alphabet: once it does, the n-gram
# contexts are unseen, both models fall back to uniform, and acceptance
# jumps to one, which would make short requests bimodal across seeds.
BYTE_SMOOTHING = 1e-4
WORDS = tuple(f"w{i:02d}" for i in range(32))


@dataclass(frozen=True)
class Sizes:
    corpus: int
    prompt: int
    prompts: int  # prompts per prompt kind
    long_tokens: int
    short_tokens: int
    shorts: int  # short requests per long one
    oracle_contexts: int
    nucleus_tokens: int = 0  # per nucleus request (ngram-long only)


SIZES = {
    "ngram-long": Sizes(corpus=200_000, prompt=32, prompts=1, long_tokens=20_000,
                        short_tokens=600, shorts=6, oracle_contexts=2000, nucleus_tokens=500),
    "copy-draft": Sizes(corpus=200_000, prompt=32, prompts=4, long_tokens=200,
                        short_tokens=50, shorts=2, oracle_contexts=600),
}
SMOKE_SIZES = {
    "ngram-long": Sizes(corpus=20_000, prompt=16, prompts=1, long_tokens=200,
                        short_tokens=40, shorts=2, oracle_contexts=50, nucleus_tokens=20),
    "copy-draft": Sizes(corpus=20_000, prompt=24, prompts=1, long_tokens=40,
                        short_tokens=10, shorts=1, oracle_contexts=6),
}


@dataclass(frozen=True)
class VerifySizes:
    corpus: int
    exact_pairs: int
    equivalence_samples: int
    geometric_steps: int
    loop_steps: int
    beam_prompts: int


VERIFY_SIZES = VerifySizes(corpus=60_000, exact_pairs=1000, equivalence_samples=10_000,
                           geometric_steps=10_000, loop_steps=4_000, beam_prompts=4)
VERIFY_SMOKE_SIZES = VerifySizes(corpus=2_000, exact_pairs=50, equivalence_samples=10_000,
                                 geometric_steps=2_000, loop_steps=200, beam_prompts=1)


def digest(tokens) -> str:
    return hashlib.sha256(",".join(map(str, tokens)).encode()).hexdigest()[:16]


def _rng(seed: int, component: int) -> np.random.Generator:
    return np.random.default_rng([seed, component])


def markov_source(rng: np.random.Generator, n: int, n_symbols: int, order: int,
                  concentration: float) -> list[int]:
    """``n`` symbols from a random order-``order`` Markov chain whose
    transition rows are Dirichlet(``concentration``) draws."""
    n_states = n_symbols ** order
    rows = rng.dirichlet(np.full(n_symbols, concentration), size=n_states)
    cdfs = np.cumsum(rows, axis=1).tolist()
    out = []
    state = 0
    top = n_symbols - 1
    for u in rng.random(n).tolist():
        sym = min(bisect.bisect_right(cdfs[state], u), top)
        out.append(sym)
        state = (state * n_symbols + sym) % n_states
    return out


# ---------------------------------------------------------------------------
# Timing. The cores are shared with other tenants. Time the process spends
# descheduled is most of the burst noise, so every section is timed in the
# process's CPU time (``time.process_time``): the benchmark runs one thread
# and waits on nothing but small files, so on an idle machine this equals
# wall time. What remains is the speed of the core itself, which drifts over
# hours and, at times, swings between a slow and a fast state every few
# seconds (by up to 1.8x). So every timed section is bracketed by a short
# probe of fixed work -- list copies, dict stores and small-vector numpy
# calls, the mix the engine itself runs -- run with the garbage collector
# off, so the package's heap cannot leak into it; the section's CPU time is
# scaled by the mean of the two probes' speeds, relative to a reference at
# which one probe takes ``PROBE_REFERENCE_S``. Every reported time and rate,
# and every ratio of them, is built from these scaled times. A run-level
# median probe did worse: while the machine swings, its median jumps
# between the two states with the share of time spent in each.

PROBE_REFERENCE_S = 0.01
# A section that starts within this long of the previous probe's end shares
# that probe instead of taking its own "before" probe.
PROBE_SHARE_S = 0.05
_PROBE_VECTOR = np.linspace(1.0, 2.0, 258) / np.linspace(1.0, 2.0, 258).sum()


def _probe_work() -> float:
    store: dict[int, list[int]] = {}
    acc = 0.0
    base = list(range(256))
    for i in range(1000):
        seq = base[i % 256:] + base[:i % 256]
        store[i % 31] = seq[-4:]
        cdf = np.cumsum(_PROBE_VECTOR)
        acc += float(cdf[int(np.searchsorted(cdf, 0.5))])
        acc += float((_PROBE_VECTOR / _PROBE_VECTOR.sum()).max())
    return acc


def median_time(n: int, fn, *args, **kwargs):
    """``fn(*args)`` called ``n`` times -> (last result, median CPU seconds
    per call). The median keeps a slow spell of the core out of sections
    that are repeated."""
    times = []
    for _ in range(n):
        t0 = time.process_time()
        out = fn(*args, **kwargs)
        times.append(time.process_time() - t0)
    return out, statistics.median(times)


class SpeedMeter:
    """Times sections at the reference machine speed (see above)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last_end = -float("inf")  # perf_counter() at the last probe's end

    def probe(self) -> float:
        """The machine's speed now, relative to the reference (1.0)."""
        gc.disable()
        try:
            t0 = time.process_time()
            _probe_work()
            elapsed = time.process_time() - t0
        finally:
            gc.enable()
        self.samples.append(PROBE_REFERENCE_S / elapsed)
        self.last_end = time.perf_counter()
        return self.samples[-1]

    def time(self, n: int, fn, *args, **kwargs):
        """``median_time(n, fn, *args)`` with the median scaled by the mean
        speed of a probe right before and one right after the calls."""
        if time.perf_counter() - self.last_end <= PROBE_SHARE_S:
            before = self.samples[-1]
        else:
            before = self.probe()
        out, secs = median_time(n, fn, *args, **kwargs)
        return out, secs * (before + self.probe()) / 2

    @property
    def speed(self) -> float:
        """Mean speed over the run's probes (a diagnostic)."""
        return statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# Checks: every failed operation is recorded with a reason.


@dataclass
class Ledger:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """``fn(*args)``; if it raises, the failure is recorded and the
        result is None, so one failed operation does not end the run."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 -- any error is a failed operation
            traceback.print_exc()
            self.check(False, f"{what} raised {exc!r}")
            return None


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        yield out


def _cli(argv: list[str]) -> tuple[int, str]:
    with _quiet() as out:
        code = cli.main(argv)
    return code, out.getvalue()


def _timed(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# Set-up: corpus generation, then ``specdec train`` in-process (tokenize,
# train, save), then ``load_model``. Repeated and timed as ``setup_s``.


@dataclass
class Models:
    target: object
    draft: object
    target_path: str
    draft_spec: str
    heldout: list[int]


def setup_byte_models(name: str, seed: int, sizes: Sizes, workdir: str, ledger: Ledger,
                      tracer: Tracer | None = None) -> Models:
    def generate():
        symbols = markov_source(_rng(seed, 1), sizes.corpus + 20 * sizes.prompt,
                                len(ALPHABET), order=2, concentration=1.0)
        return [ALPHABET[s] for s in symbols]

    text = _timed(tracer, "corpus.generate", generate)
    train, heldout = text[: sizes.corpus], text[sizes.corpus:]
    corpus_path = os.path.join(workdir, "corpus.txt")
    with open(corpus_path, "wb") as fh:
        fh.write(bytes(train))
    paths = {}
    roles = (("target", 3),) if name == "copy-draft" else (("target", 3), ("draft", 2))
    for role, order in roles:
        paths[role] = os.path.join(workdir, f"{role}.sdng")
        code, _ = _timed(tracer, "cli.main", _cli,
                         ["train", "--corpus", corpus_path, "--order", str(order),
                          "--smoothing", repr(BYTE_SMOOTHING), "--out", paths[role]])
        ledger.check(code == 0, f"specdec train order {order} exited {code}")
    target = _timed(tracer, "model_io.load", load_model, paths["target"])
    if name == "copy-draft":
        draft, draft_spec = CopyModel(target.vocab_size), f"copy:{target.vocab_size}"
    else:
        draft = _timed(tracer, "model_io.load", load_model, paths["draft"])
        draft_spec = paths["draft"]
    return Models(target, draft, paths["target"], draft_spec, heldout)


def setup_word_models(seed: int, sizes: VerifySizes, workdir: str, ledger: Ledger,
                      tracer: Tracer | None = None) -> Models:
    def generate():
        symbols = markov_source(_rng(seed, 1), sizes.corpus, len(WORDS), order=1,
                                concentration=0.5)
        return " ".join(WORDS[s] for s in symbols)

    text = _timed(tracer, "corpus.generate", generate)
    corpus_path = os.path.join(workdir, "corpus.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    target_path = os.path.join(workdir, "target.sdng")
    draft_path = os.path.join(workdir, "draft.sdng")
    code, _ = _timed(tracer, "cli.main", _cli,
                     ["train", "--corpus", corpus_path, "--order", "2", "--tokenizer", "word",
                      "--out", target_path])
    ledger.check(code == 0, f"specdec train (word, order 2) exited {code}")
    code, _ = _timed(tracer, "cli.main", _cli,
                     ["train", "--corpus", corpus_path, "--order", "1", "--tokenizer", "word",
                      "--vocab-file", target_path + ".vocab", "--out", draft_path])
    ledger.check(code == 0, f"specdec train (word, order 1) exited {code}")
    target = _timed(tracer, "model_io.load", load_model, target_path)
    draft = _timed(tracer, "model_io.load", load_model, draft_path)
    return Models(target, draft, target_path, draft_path, [])


class Setups:
    """``setup`` run ``repeats`` times in fresh directories and timed, spread
    over a run of ``seconds`` so that one slow spell of the machine cannot
    take every sample: once on creation, and again at the first
    ``checkpoint()`` after each further ``seconds / repeats``. ``finish()``
    takes the samples the run had no time for. ``models`` are the first
    set-up's."""

    def __init__(self, setup, workdir: str, ledger: Ledger, repeats: int, seconds: float,
                 meter: SpeedMeter) -> None:
        self.setup, self.workdir, self.ledger, self.meter = setup, workdir, ledger, meter
        self.repeats = repeats
        self.every = seconds / repeats
        self.start = time.perf_counter()
        self.times: list[float] = []
        self.models = self._one()

    def _one(self):
        sub = os.path.join(self.workdir, f"setup{len(self.times)}")
        os.makedirs(sub, exist_ok=True)
        models, secs = self.meter.time(1, self.setup, sub, self.ledger)
        self.times.append(secs)
        return models

    def checkpoint(self) -> None:
        n = len(self.times)
        if n < self.repeats and time.perf_counter() >= self.start + n * self.every:
            self._one()

    def finish(self) -> list[float]:
        while len(self.times) < self.repeats:
            self._one()
        return self.times


# ---------------------------------------------------------------------------
# Decode workloads.


@dataclass(frozen=True)
class Request:
    name: str
    prompt: tuple[int, ...]
    config: SpecConfig
    long: bool | None  # None: not part of the long-against-short comparison


@dataclass
class Outcome:
    spec: DecodeResult
    std: DecodeResult
    spec_s: float  # seconds at the reference speed
    std_s: float  # median seconds of one call at the reference speed


def _long_and_short(tag: str, prompt, sizes: Sizes, seed: int, **cfg) -> list[Request]:
    """One long request and ``sizes.shorts`` short ones on the same prompt.
    The first short request shares the long one's seed, so its output is a
    prefix of the long output; further short ones take the next seeds."""
    out = [Request(f"{tag}-long", prompt, SpecConfig(
        gamma=GAMMA, seed=seed, max_new_tokens=sizes.long_tokens, **cfg), True)]
    for j in range(sizes.shorts):
        out.append(Request(f"{tag}-short{j}", prompt, SpecConfig(
            gamma=GAMMA, seed=seed + j, max_new_tokens=sizes.short_tokens, **cfg), False))
    return out


def ngram_requests(seed: int, models: Models, sizes: Sizes) -> list[Request]:
    """A long request and several short ones with identity sampling on one
    held-out prompt, and medium-length requests with temperature plus top-p
    on another. Only the identity requests enter the long-against-short
    comparison, so that both of its sides have the same policy. Half of the
    shorter requests run before the long one and half after it, so that
    they sample the machine on both sides of it."""
    held = models.heldout
    long, *shorts = _long_and_short("identity", tuple(held[: sizes.prompt]), sizes,
                                    seed * 100, policy=IDENTITY)
    prompt = tuple(held[sizes.prompt: 2 * sizes.prompt])
    for j in range(sizes.shorts):
        shorts.append(Request(f"nucleus{j}", prompt, SpecConfig(
            gamma=GAMMA, seed=seed * 100 + 10 + j, max_new_tokens=sizes.nucleus_tokens,
            policy=NUCLEUS), None))
    return shorts[0::2] + [long] + shorts[1::2]


def copy_requests(seed: int, models: Models, sizes: Sizes) -> list[Request]:
    """Prompts whose passage the greedy continuation repeats (the tail of
    the target's own argmax rollout, which has settled into its cycle),
    served sampled at lenience 1 and argmax at lenience 0.5; and random
    prompts with nothing to copy, served sampled. The sampled requests come
    long and short and carry the copy scan's cost. The argmax requests are
    short and stay out of the long-against-short comparison: whether the
    model's greedy cycle survives lenient acceptance varies so much between
    seeds (all drafts accepted at a few microseconds per token, or the
    cycle left and the scan run deep) that at full length they would swamp
    every other difference between seeds.

    Argmax requests on random prompts are left out on purpose: how soon the
    greedy continuation of a random prompt starts cycling varies so much
    from prompt to prompt that their acceptance rate would swamp every
    other difference between seeds."""
    picks = _rng(seed, 2).integers(0, len(ALPHABET), (sizes.prompts, sizes.prompt))
    out = []
    for k in range(sizes.prompts):
        start = models.heldout[2 * k: 2 * k + 2]
        rollout = standard_decode(models.target, start, SpecConfig(
            gamma=GAMMA, policy=ARGMAX, max_new_tokens=4 * sizes.prompt))
        copy_prompt = tuple(rollout.tokens[-sizes.prompt:])
        random_prompt = tuple(ALPHABET[int(i)] for i in picks[k])
        base = seed * 100 + 10 * k
        out += _long_and_short(f"copy{k}-sampled", copy_prompt, sizes, base,
                               policy=IDENTITY, lenience=1.0)
        out.append(Request(f"copy{k}-argmax", copy_prompt, SpecConfig(
            gamma=GAMMA, seed=base + 1, max_new_tokens=sizes.short_tokens, policy=ARGMAX,
            lenience=0.5), None))
        out += _long_and_short(f"nocopy{k}-sampled", random_prompt, sizes, base + 2,
                               policy=IDENTITY, lenience=1.0)
    return out


def decode_round(target, draft, requests: list[Request], round_idx: int, meter: SpeedMeter,
                 ledger: Ledger, tracer: Tracer | None = None,
                 after_request=None) -> list[Outcome | None]:
    """Each request through ``decode`` and ``standard_decode`` back to back,
    alternating which arm goes first so neither always runs warm, and
    ``after_request()`` (if given) after it. Each arm is timed on its own
    by ``meter``. The standard arm of a short request is repeated
    (``STD_MIN_TOKENS``) and timed by its median call.
    A request whose arm raises is recorded as failed and its outcome is None."""
    outcomes: list[Outcome | None] = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.current_request = i
        arms = {}
        order = ("spec", "std") if (round_idx + i) % 2 == 0 else ("std", "spec")
        repeats = -(-STD_MIN_TOKENS // req.config.max_new_tokens)
        for arm in order:
            if arm == "spec":
                arms[arm] = ledger.attempt(f"{req.name}/spec", meter.time, 1, _timed, tracer,
                                           "engine.decode", decode, target, draft, req.prompt,
                                           req.config)
            else:
                arms[arm] = ledger.attempt(f"{req.name}/std", meter.time, repeats, _timed,
                                           tracer, "engine.standard_decode", standard_decode,
                                           target, req.prompt, req.config)
        if after_request is not None:
            after_request()
        if None in arms.values():
            outcomes.append(None)
            continue
        (spec, spec_s), (std, std_s) = arms["spec"], arms["std"]
        outcomes.append(Outcome(spec, std, spec_s, std_s))
    if tracer is not None:
        tracer.current_request = -1
    return outcomes


def served(requests, outcomes) -> list[tuple[Request, Outcome]]:
    """The requests whose arms both returned, with their outcomes."""
    return [(r, o) for r, o in zip(requests, outcomes) if o is not None]


def round_digests(requests, outcomes) -> dict:
    out = {}
    for req, o in served(requests, outcomes):
        out[f"{req.name}/spec"] = digest(o.spec.tokens)
        out[f"{req.name}/std"] = digest(o.std.tokens)
    return out


def check_round(requests, outcomes, reference, expected: dict | None, ledger: Ledger) -> None:
    """Worst-case call guarantee, determinism against the first round, and
    the checked-in digests when the seed has them."""
    for req, out in served(requests, outcomes):
        t = out.spec.totals
        ledger.check(t.target_calls <= t.tokens_emitted,
                     f"{req.name}: {t.target_calls} target calls for {t.tokens_emitted} tokens")
        for arm, res in (("spec", out.spec), ("std", out.std)):
            key = f"{req.name}/{arm}"
            ok = digest(res.tokens) == reference.get(key)
            if expected is not None:
                ok = ok and expected.get(key) == reference[key]
            ledger.check(ok, f"{key}: tokens differ from the first round or the checked-in digest")


def oracle_pairs(target, draft, requests, n: int) -> list[tuple[Distribution, Distribution]]:
    """Target and draft distributions at ``n`` prefixes spread evenly over
    the target's own continuation of each request that claims exactness
    (lenience 1): ``standard_decode`` with the request's prompt and config,
    whose tokens follow the law that the request's speculative decode
    follows. They are computed once, before any timing, so the timed oracle
    is the harness alone and not the models' cost at those prefixes."""
    exact = [r for r in requests if r.config.lenience == 1.0]
    per = max(1, n // max(1, len(exact)))
    out = []
    for req in exact:
        seq = list(req.prompt) + standard_decode(target, req.prompt, req.config).tokens
        for j in np.linspace(len(req.prompt), len(seq) - 1, per).astype(int).tolist():
            policy = req.config.policy
            out.append((target.next_distribution(seq[:j], policy),
                        draft.next_distribution(seq[:j], policy)))
    return out[:n]


def exactness_oracle(pairs, tracer: Tracer | None = None) -> float:
    """Largest deviation of the analytically integrated speculative token
    from the target distribution over the given distribution pairs."""
    worst = 0.0
    for p, q in pairs:
        out = _timed(tracer, "harness.exact", exact_step_distribution, p, q, 1.0)
        worst = max(worst, float(np.abs(out.probs - p.probs).max()))
    return worst


def _tokens_per_s(pairs, arm: str, keep=lambda r: True) -> float:
    toks = sum(len(getattr(o, arm).tokens) for r, o in pairs if keep(r))
    secs = sum(getattr(o, arm + "_s") for r, o in pairs if keep(r))
    return toks / secs


def decode_round_metrics(requests, outcomes) -> dict:
    """Rates of one round, from times at the reference speed."""
    pairs = served(requests, outcomes)
    tok_s = _tokens_per_s(pairs, "spec")
    std_tok_s = _tokens_per_s(pairs, "std")
    return {"tok_s": tok_s, "standard_tok_s": std_tok_s, "speedup": tok_s / std_tok_s,
            "len_cost_ratio": _tokens_per_s(pairs, "spec", lambda r: r.long is False)
            / _tokens_per_s(pairs, "spec", lambda r: r.long is True)}


def cli_check(models: Models, req: Request, ledger: Ledger) -> float:
    """Serve ``req``'s prompt, policy and seed at a short budget directly and
    through ``specdec decode --json``; the tokens must match. Returns the
    CLI's extra time (argument parsing, model loading, JSON) over the direct
    call."""
    req = Request(req.name + "-cli", req.prompt,
                  dataclasses.replace(req.config, max_new_tokens=CLI_TOKENS), False)
    what = f"specdec decode --json ({req.name})"
    direct = ledger.attempt(what, median_time, 1, decode, models.target, models.draft,
                            req.prompt, req.config)
    via_cli = ledger.attempt(what, median_time, 1, cli_request, models, req)
    if direct is None or via_cli is None:
        return 0.0
    (code, tokens), cli_s = via_cli
    ledger.check(code == 0 and tokens == direct[0].tokens,
                 f"{what} exited {code} or returned other tokens")
    return cli_s - direct[1]


def cli_request(models: Models, req: Request) -> tuple[int, list[int] | None]:
    """One request through ``specdec decode --json``; returns the exit code
    and the tokens."""
    cfg = req.config
    argv = ["decode", "--target", models.target_path, "--draft", models.draft_spec,
            "--prompt-tokens", ",".join(map(str, req.prompt)), "--gamma", str(cfg.gamma),
            "--lenience", repr(cfg.lenience), "--temperature", repr(cfg.policy.temperature),
            "--seed", str(cfg.seed), "--max-tokens", str(cfg.max_new_tokens), "--json"]
    if cfg.policy.top_p is not None:
        argv += ["--top-p", repr(cfg.policy.top_p)]
    if cfg.policy.argmax:
        argv += ["--argmax"]
    code, out = _cli(argv)
    return code, json.loads(out)["tokens"] if code == 0 else None


# ---------------------------------------------------------------------------
# Verify workload.


@dataclass
class VerifyRound:
    suite_s: dict  # seconds at the reference speed, per suite
    loop_steps: int
    # Per loop chunk: (tokens, standard tokens, seconds, standard seconds).
    chunks: list[tuple[int, int, float, float]]
    outputs: dict
    beam_stats: list


def _tv(p: Distribution, q: Distribution) -> float:
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def verify_round(models: Models, seed: int, sizes: VerifySizes, ledger: Ledger, meter: SpeedMeter,
                 tracer: Tracer | None = None, stream_cls=RandomStream,
                 after_suite=None) -> VerifyRound:
    """Every suite once, each timed by ``meter``, with ``after_suite()``
    (if given) after it."""
    target, draft = models.target, models.draft
    n_words = len(WORDS)
    contexts = [[t] for t in range(n_words)]
    # The equivalence context is where target and draft disagree most, so
    # the injected mutation has the largest effect there.
    tvs = [_tv(target.next_distribution(c, IDENTITY), draft.next_distribution(c, IDENTITY))
           for c in contexts]
    eq_context = contexts[int(np.argmax(tvs))]
    suite_s: dict[str, float] = {}
    outputs = {}

    def suite(name, fn, *args, **kwargs):
        """Run one suite, timed; None if it raised (recorded as failed)."""
        timed = ledger.attempt(name, meter.time, 1, _timed, tracer, name, fn, *args, **kwargs)
        if after_suite is not None:
            after_suite()
        if timed is None:
            return None
        out, secs = timed
        suite_s[name] = suite_s.get(name, 0.0) + secs
        return out

    def exact_suite():
        rng = RandomStream(seed, stream=7)
        worst = excess = 0.0
        for _ in range(sizes.exact_pairs):
            p = normalize(rng.uniform_block(16) + 1e-12)
            q = normalize(rng.uniform_block(16) + 1e-12)
            out = _timed(tracer, "harness.exact", exact_step_distribution, p, q, 1.0)
            worst = max(worst, float(np.abs(out.probs - p.probs).max()))
            lenience = 0.05 + 0.95 * rng.uniform()
            out = _timed(tracer, "harness.exact", exact_step_distribution, p, q, lenience)
            excess = max(excess, float((out.probs - p.probs / lenience).max()))
        return worst, excess

    found = suite("suite.exact", exact_suite)
    if found is not None:
        worst, excess = found
        ledger.check(worst <= EXACT_TOL and excess <= EXACT_TOL,
                     f"exactness oracle error {worst:.3e}, lenient excess {excess:.3e}")

    cfg = SpecConfig(gamma=GAMMA, seed=seed)
    rep = suite("harness.equivalence", equivalence_test, target, draft, cfg,
                sizes.equivalence_samples, [eq_context], threshold=VERDICT_THRESHOLD)
    if rep is not None:
        ledger.check(rep.verdict, f"equivalence failed on the correct engine: {rep.summary()}")
    mut = suite("harness.equivalence_mutated", equivalence_test, target, draft, cfg,
                sizes.equivalence_samples, [eq_context], threshold=VERDICT_THRESHOLD,
                mutation=MUTATION)
    if mut is not None:
        ledger.check(not mut.verdict, f"mutation {MUTATION} passed: {mut.summary()}")
    if rep is not None and mut is not None:
        outputs["equivalence_p"] = (rep.p_value, mut.p_value)

    geo = suite("harness.geometric", geometric_fit_test, 0.8, GAMMA, sizes.geometric_steps,
                seed=seed, threshold=VERDICT_THRESHOLD)
    if geo is not None:
        ledger.check(geo.verdict and geo.extras["mean_rel_gap"] <= 0.02,
                     f"geometric fit failed: p={geo.p_value:.3g} "
                     f"gap={geo.extras['mean_rel_gap']:.4f}")
        outputs["geometric"] = geo.extras["histogram"]

    rows = suite("harness.rejection", rejection_comparison, target, draft, contexts)
    if rows is not None:
        ledger.check(all(r["rejection_accept"] <= r["speculative_alpha"] + EXACT_TOL
                         for r in rows),
                     "rejection sampling accepted more often than speculative sampling")

    def beam_suite():
        found = []
        for prompt in contexts[: sizes.beam_prompts]:
            spec, stats = _timed(tracer, "beam.speculative", speculative_beam_search,
                                 target, draft, prompt, 2, 4, 3, 8)
            std = _timed(tracer, "beam.standard", standard_beam_search, target, prompt, 2, 8)
            found.append((prompt, spec, std, stats))
        return found

    beam_stats = []
    beams = []
    for prompt, spec, std, stats in suite("suite.beam", beam_suite) or []:
        same = [(b.tokens, b.score) for b in spec] == [(b.tokens, b.score) for b in std]
        ledger.check(same, f"speculative beam search differs from standard at prompt {prompt}")
        beam_stats.append(stats)
        beams.append([(list(b.tokens), b.score.hex()) for b in spec])
    outputs["beam"] = beams

    # Step loop on the benchmark's own stream from short fixed contexts, in
    # chunks interleaved with the target alone producing twice the chunk's
    # tokens (a window long enough to time), so both arms see the same
    # machine. With fixed contexts the cost per token of the second half
    # should equal the first.
    loop_cfg = SpecConfig(gamma=GAMMA, seed=seed)
    rng = stream_cls(seed, stream=11)
    tokens: list[int] = []

    def loop(start: int, stop: int) -> int:
        before = len(tokens)
        for i in range(start, stop):
            toks, _ = engine.speculative_step(target, draft, contexts[i % n_words], loop_cfg, rng)
            tokens.extend(toks)
        return len(tokens) - before

    per = sizes.loop_steps // LOOP_CHUNKS
    chunks = []
    for c in range(LOOP_CHUNKS):
        if tracer is not None:
            tracer.current_request = 0
        n = suite("suite.loop", loop, c * per, (c + 1) * per)
        if tracer is not None:
            tracer.current_request = -1
        if n is None:
            break
        std = suite("engine.standard_decode", standard_decode, target, contexts[c % n_words],
                    SpecConfig(gamma=GAMMA, seed=seed + c, max_new_tokens=2 * n))
        if std is None:
            break
        chunks.append((n, len(std.tokens), suite_s.pop("suite.loop"),
                       suite_s.pop("engine.standard_decode")))
    suite_s["suite.loop"] = sum(c[2] for c in chunks)
    ledger.check(rng.n_drawn == per * LOOP_CHUNKS * DRAWS_PER_STEP,
                 f"step loop drew {rng.n_drawn} variates for {per * LOOP_CHUNKS} steps")
    outputs["loop"] = digest(tokens)
    return VerifyRound(suite_s=suite_s, loop_steps=per * LOOP_CHUNKS,
                       chunks=chunks, outputs=outputs, beam_stats=beam_stats)


def verify_round_metrics(r: VerifyRound) -> dict:
    half = len(r.chunks) // 2

    def rate(chunks, arm: int) -> float:
        return sum(c[arm] for c in chunks) / sum(c[arm + 2] for c in chunks)

    def relative_cost(chunks) -> float:
        """Median over chunks of the loop's time per token over that of the
        standard arm run right after it, which meets the same machine: slow
        spells last seconds, longer than half the loop."""
        return statistics.median((c[2] / c[0]) / (c[3] / c[1]) for c in chunks)

    tok_s, std_tok_s = rate(r.chunks, 0), rate(r.chunks, 1)
    return {"tok_s": tok_s, "standard_tok_s": std_tok_s, "speedup": tok_s / std_tok_s,
            "len_cost_ratio": relative_cost(r.chunks[half:]) / relative_cost(r.chunks[:half]),
            "verify_s": sum(r.suite_s.values())}


def verify_outputs_digest(r: VerifyRound) -> dict:
    return {"loop": r.outputs["loop"], "beam": digest([json.dumps(r.outputs["beam"])]),
            "geometric": digest(r.outputs.get("geometric", []))}


# ---------------------------------------------------------------------------
# Per-layer metrics from a finished trace.


def _share(counts, key: str, steps: int) -> float:
    return counts[key] / steps if steps else 0.0


def layer_metrics(tracer: Tracer, long_requests: set[int], alpha_requests: set[int],
                  measured_speedup: float) -> dict:
    st = SpanTable(tracer)
    c = tracer.counts
    m: dict[str, float] = {}
    target_names = [f"models.target.{x}" for x in
                    ("evaluate", "evaluate_batch", "next_distribution", "next_distribution_batch")]
    draft_names = [n.replace("target", "draft") for n in target_names]
    m["models.target.calls"] = st.count(*target_names)
    m["models.target.busy_s"] = st.busy(*target_names)
    m["models.target.us_per_seq"] = 1e6 * m["models.target.busy_s"] / max(1, c["models.target.seqs"])
    m["models.draft.calls"] = st.count(*draft_names)
    m["models.draft.busy_s"] = st.busy(*draft_names)
    m["models.draft.us_per_call"] = 1e6 * m["models.draft.busy_s"] / max(1, m["models.draft.calls"])
    step_mask = st.mask("engine.step")
    step_dur = st.dur[step_mask]
    steps = int(step_mask.sum())
    step_total = float(step_dur.sum())
    draft_in_step = sum(float(st.dur[st.under(n, "engine.step")].sum()) for n in draft_names)
    m["models.draft.busy_share"] = draft_in_step / step_total if step_total else 0.0
    for fn in ("standardize", "residual"):
        m[f"distmath.{fn}.calls"] = st.count(f"distmath.{fn}")
        m[f"distmath.{fn}.busy_s"] = st.busy(f"distmath.{fn}")
    m["distmath.inverse_cdf.calls"] = st.count("distmath.inverse_cdf", "distmath.sample")
    # A sample span's self time is its inverse-CDF lookup (its child is the draw).
    m["distmath.inverse_cdf.busy_s"] = st.busy("distmath.inverse_cdf") + st.self_busy("distmath.sample")
    m["engine.steps"] = steps  # also the sample count of the step percentiles
    m["engine.step_us_p50"] = 1e6 * float(np.percentile(step_dur, 50)) if steps else 0.0
    m["engine.step_us_p99"] = 1e6 * float(np.percentile(step_dur, 99)) if steps else 0.0
    m["engine.self_s"] = st.self_busy("engine.step")
    first, last = [], []
    req_of_step = st.request[step_mask]
    for r in sorted(long_requests):
        d = step_dur[req_of_step == r]
        k = len(d) // 10
        if k:
            first.append(d[:k])
            last.append(d[-k:])
    m["engine.step_us_first_tenth"] = 1e6 * float(np.concatenate(first).mean()) if first else 0.0
    m["engine.step_us_last_tenth"] = 1e6 * float(np.concatenate(last).mean()) if last else 0.0
    m["engine.tokens_per_step"] = _share(c, "engine.tokens", steps)
    m["engine.useful_draft_ratio"] = c["engine.accepted"] / c["engine.drafted"] if c["engine.drafted"] else 0.0
    for src in ("residual", "extra", "draft_fallback", "target_argmax"):
        m[f"engine.correction.{src}"] = _share(c, f"engine.correction.{src}", steps)
    m["rng.draws_per_step"] = _share(c, "rng.step_draws", steps)
    m["rng.busy_s"] = st.busy("rng.uniform", "rng.uniform_block")
    # Table 5 row from wall clock: alpha from the traces of the decode
    # requests (or the verify step loop), c from draft seconds per call over
    # target seconds per batched call inside the steps.
    traces = [t for r in sorted(alpha_requests) for t in tracer.step_traces.get(r, [])]
    alpha = trace_accept_rate(DecodeResult(tokens=[], traces=traces)).alpha
    draft_calls = sum(int(st.under(n, "engine.step").sum()) for n in draft_names)
    batch_names = ("models.target.next_distribution_batch", "models.target.evaluate_batch")
    batch_mask = np.zeros_like(step_mask)
    for n in batch_names:
        batch_mask |= st.under(n, "engine.step")
    per_batch = float(st.dur[batch_mask].sum()) / max(1, int(batch_mask.sum()))
    per_draft = draft_in_step / max(1, draft_calls)
    c_hat = per_draft / per_batch if per_batch else 0.0
    predicted = walltime_factor(min(alpha, 1.0 - 1e-15), GAMMA, c_hat)
    m["analysis.alpha_hat"] = alpha
    m["analysis.c_hat"] = c_hat
    m["analysis.predicted_speedup"] = predicted
    m["analysis.speedup_gap"] = measured_speedup / predicted
    m["harness.exact.busy_s"] = st.busy("harness.exact")
    m["harness.equivalence.steps_s"] = float(
        st.dur[st.under("engine.step", "harness.equivalence")].sum()
        + st.dur[st.under("engine.step", "harness.equivalence_mutated")].sum())
    m["harness.geometric.steps_s"] = float(st.dur[st.under("engine.step", "harness.geometric")].sum())
    m["harness.chi2.busy_s"] = st.busy("harness.chi2")
    m["beam.speculative.busy_s"] = st.busy("beam.speculative")
    m["beam.standard.busy_s"] = st.busy("beam.standard")
    m["tokenizers.encode_s"] = st.busy("tokenizers.encode")
    m["models.train_s"] = st.busy("models.train")
    m["model_io.save_s"] = st.busy("model_io.save")
    m["model_io.load_s"] = st.busy("model_io.load")
    return m


def beam_metrics(stats_list) -> dict:
    batched = sum(s.target_batched_calls for s in stats_list)
    seqs = sum(s.target_sequences for s in stats_list)
    steps = sum(s.steps for s in stats_list)
    accepted = sum(s.accepted_steps for s in stats_list)
    return {"beam.target_batched_calls": batched, "beam.target_sequences": seqs,
            "beam.accept_fraction": accepted / steps if steps else 0.0}


def wrap(models: Models, tracer: Tracer) -> tuple[TracedModel, TracedModel]:
    return TracedModel(models.target, "target", tracer), TracedModel(models.draft, "draft", tracer)

