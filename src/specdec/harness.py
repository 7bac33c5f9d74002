"""Verification and simulation harness.

The centerpiece is :func:`exact_step_distribution`: an analytic integration
of one speculative token that must reproduce the target distribution
bit-for-bit (to 1e-12) at lenience 1. Around it sit two sampled checks that
share one chi-square goodness of fit to a known law: the engine's tokens
against the target's exact distribution (with deliberate engine mutations
to prove the test has teeth), and tokens-per-step against the capped
geometric law. Then a cost-model walltime simulation reporting
expected-vs-empirical speedups, and the analytic acceptance rate of
non-iterative rejection sampling compared with speculative sampling's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .analysis import CostModel, beta, expected_tokens, trace_accept_rate, walltime_factor
from .distmath import Distribution, IDENTITY_POLICY, normalize
from .engine import DecodeResult, SpecConfig, StepTrace, check_tokens, decode, speculative_steps
from .engine import speculative_step  # unused here, but the traced benchmark wraps it here
from .models import LanguageModel, stateless_pair
from .rng import RandomStream

__all__ = [
    "ContextResult",
    "EquivalenceReport",
    "RunStats",
    "SimReport",
    "MIN_SAMPLES",
    "TooFewSamplesError",
    "random_pair",
    "exact_step_distribution",
    "exactness_check",
    "equivalence_test",
    "geometric_fit_test",
    "simulate_walltime",
    "rejection_comparison",
    "rejection_check",
    "rejection_accept_probability",
]


class _LazyStats:
    """Stands in for ``scipy.stats`` and imports it on the first attribute
    read, so that only a chi-square pays its start-up time and memory."""

    def __getattr__(self, attr):
        from scipy import stats
        return getattr(stats, attr)


scipy_stats = _LazyStats()

# Outcomes expected fewer times than this are pooled before chi-square.
_MIN_EXPECTED = 5.0

# The fewest samples equivalence_test accepts.
MIN_SAMPLES = 10_000


class TooFewSamplesError(ValueError):
    """A sample too small for chi-square: with every rare outcome pooled,
    fewer than two bins are left of a law with two or more outcomes."""


@dataclass(frozen=True)
class ContextResult:
    statistic: float
    dof: int
    p_value: float
    tv_distance: float


@dataclass
class EquivalenceReport:
    """Outcome of a sampled check over one or more contexts.

    ``p_value`` is the Bonferroni combination of the contexts' p-values, and
    ``verdict`` passes iff it exceeds the configured threshold.
    """

    per_context: list[ContextResult]
    threshold: float
    n_samples: int
    extras: dict = field(default_factory=dict)

    @property
    def p_value(self) -> float:
        return min(1.0, min(r.p_value for r in self.per_context) * len(self.per_context))

    @property
    def max_tv_distance(self) -> float:
        return max(r.tv_distance for r in self.per_context)

    @property
    def verdict(self) -> bool:
        return self.p_value > self.threshold

    def summary(self) -> str:
        state = "PASS" if self.verdict else "FAIL"
        return (
            f"{state}: combined p={self.p_value:.3g} (threshold {self.threshold}), "
            f"max TV={self.max_tv_distance:.3g}, n={self.n_samples}, "
            f"{len(self.per_context)} context(s)"
        )


def exact_step_distribution(p: Distribution, q: Distribution, lenience: float = 1.0) -> Distribution:
    """Analytically integrate one speculative token.

    Output mass at x is the accepted mass min(q(x), p(x)/l) plus the total
    rejection probability times the residual distribution. At lenience 1
    this must equal p exactly; for l < 1 no entry can exceed p(x)/l.
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError("vocab sizes differ")
    if not (0.0 < lenience <= 1.0):
        raise ValueError("lenience must lie in (0, 1]")
    # At lenience 1 the products are skipped, bitwise: x / 1.0 == 1.0 * x == x.
    accept_mass = np.minimum(q.probs, p.probs if lenience == 1.0 else p.probs / lenience)
    accept_total = float(accept_mass.sum())
    raw_residual = np.maximum(p.probs - (q.probs if lenience == 1.0 else lenience * q.probs), 0.0)
    residual_total = float(raw_residual.sum())
    if residual_total > 0.0:
        out = accept_mass + (1.0 - accept_total) * (raw_residual / residual_total)
    else:
        out = accept_mass  # acceptance is certain; no correction mass exists
    return Distribution(out)


def random_pair(rng: RandomStream, vocab: int) -> tuple[Distribution, Distribution]:
    """Two full-support random distributions, ``vocab`` variates each."""
    return normalize(rng.uniform_block(vocab) + 1e-12), normalize(rng.uniform_block(vocab) + 1e-12)


def exactness_check(pairs: int, vocab: int, seed: int) -> tuple[float, float]:
    """The oracle over ``pairs`` random pairs drawn from stream ``seed``: the
    worst max|out - p| at lenience 1, and the worst excess of out over p/l
    at a random lenience l in [0.05, 1)."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    rng = RandomStream(seed)
    worst = worst_lenient = 0.0
    for _ in range(pairs):
        p, q = random_pair(rng, vocab)
        out = exact_step_distribution(p, q, 1.0)
        worst = max(worst, float(np.abs(out.probs - p.probs).max()))
        lenience = 0.05 + 0.95 * rng.uniform()
        out = exact_step_distribution(p, q, lenience)
        worst_lenient = max(worst_lenient, float((out.probs - p.probs / lenience).max()))
    return worst, worst_lenient


def _fit(counts: np.ndarray, probs: np.ndarray) -> ContextResult:
    """Chi-square goodness of fit of the histogram ``counts`` to the law ``probs``.

    Mass on an outcome of probability 0 fails outright. The outcomes
    expected fewer than ``_MIN_EXPECTED`` times are pooled into one bin at
    the end, and TV is taken from the raw counts. A law with one possible
    outcome fits with p = 1; raises ``TooFewSamplesError`` when a law with
    more pools into one bin.
    """
    n = counts.sum()
    tv = 0.5 * float(np.abs(counts / n - probs).sum())
    if counts[probs == 0.0].any():
        return ContextResult(float("inf"), 0, 0.0, tv)
    possible = probs > 0.0
    observed, expected = counts[possible].astype(float), probs[possible] * n
    rare = expected < _MIN_EXPECTED
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    if len(observed) < 2 and possible.sum() > 1:
        raise TooFewSamplesError(f"{n} samples pool into one bin of {possible.sum()} outcomes")
    if len(observed) < 2:
        return ContextResult(0.0, 0, 1.0, tv)
    stat, p_value = scipy_stats.chisquare(observed, expected)
    return ContextResult(float(stat), len(observed) - 1, float(p_value), tv)


def equivalence_test(
    target: LanguageModel,
    draft: LanguageModel,
    config: SpecConfig,
    n_samples: int,
    context_set: Sequence[Sequence[int]],
    threshold: float = 0.001,
    mutation: str | None = None,
) -> EquivalenceReport:
    """Fit next-token samples from the engine to the exact law of its first token.

    For each context, draws ``n_samples`` first tokens from fresh
    speculative steps and chi-squares their histogram (see :func:`_fit`)
    against the target's distribution, or below lenience 1 against
    :func:`exact_step_distribution`, Bonferroni-combined over contexts. A
    correct engine passes; mutated ones fail. Raises ``TooFewSamplesError``
    for too few samples; ``speculative_steps`` refuses argmax-lenient decoding.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError("n_samples must be at least 10^4 for a meaningful test")
    if not context_set:
        raise ValueError("need at least one context")
    check_tokens([t for c in context_set for t in c], target.vocab_size, "context")
    results: list[ContextResult] = []
    for ci, context in enumerate(context_set):
        rng = RandomStream(config.seed, stream=2 * ci)
        steps = speculative_steps(target, draft, context, config, rng, n_samples,
                                  _mutation=mutation)
        p = target.next_distribution(list(context), config.policy)
        if config.lenience < 1.0:
            q = draft.next_distribution(list(context), config.policy)
            p = exact_step_distribution(p, q, config.lenience)
        results.append(_fit(np.bincount(steps.tokens_at(0), minlength=p.vocab_size), p.probs))
    return EquivalenceReport(results, threshold, n_samples)


def geometric_fit_test(
    alpha: float,
    gamma: int,
    n_steps: int,
    seed: int = 0,
    threshold: float = 0.001,
) -> EquivalenceReport:
    """Check tokens-per-step against the capped geometric law.

    Builds a stateless pair realizing ``alpha`` exactly, runs ``n_steps``
    speculative steps, and chi-squares the histogram of emitted counts
    against P(k) = (1-alpha) * alpha^(k-1) for k <= gamma and
    P(gamma+1) = alpha^gamma. Also reports how far the sample mean sits
    from the closed-form expectation (2% is the conventional gate).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    target, draft = stateless_pair(alpha)
    config = SpecConfig(gamma=gamma, seed=seed)
    steps = speculative_steps(target, draft, [0], config, RandomStream(seed), n_steps)
    counts = np.bincount(steps.accepted_n, minlength=gamma + 1)  # index k-1 holds "k tokens"
    probs = np.array(
        [(1.0 - alpha) * alpha ** k for k in range(gamma)] + [alpha ** gamma]
    )
    mean_tokens = float((counts * np.arange(1, gamma + 2)).sum() / n_steps)
    expected_mean = expected_tokens(alpha, gamma)
    rel_gap = abs(mean_tokens - expected_mean) / expected_mean
    return EquivalenceReport(
        [_fit(counts, probs)],
        threshold,
        n_steps,
        extras={
            "mean_tokens": mean_tokens,
            "expected_mean": expected_mean,
            "mean_rel_gap": rel_gap,
            "histogram": counts.tolist(),
        },
    )


@dataclass(frozen=True)
class RunStats:
    tokens: int
    steps: int
    cost: float


# Tokens-per-step kept for the schematic timeline, first run only.
_TIMELINE_STEPS = 40


@dataclass
class SimReport:
    """Expected-vs-empirical walltime comparison under a unit cost model."""

    runs: list[RunStats]
    gamma: int
    cost: CostModel
    alpha_hat: float
    expected_speedup: float
    empirical_speedup: float
    first_step_tokens: list[int] = field(default_factory=list)

    @property
    def rel_gap(self) -> float:
        return self.empirical_speedup / self.expected_speedup - 1.0

    def row(self, task: str = "-") -> dict:
        return {
            "task": task,
            "gamma": self.gamma,
            "alpha": self.alpha_hat,
            "c": self.cost.c,
            "exp": self.expected_speedup,
            "emp": self.empirical_speedup,
            "gap_pct": 100.0 * self.rel_gap,
        }

    def timeline(self, max_steps: int = 12) -> str:
        """Schematic per-step trace: gamma draft calls, one batched target
        call, and the tokens each step yielded."""
        lines = []
        for i, emitted in enumerate(self.first_step_tokens[:max_steps]):
            blocks = "[q]" * self.gamma + "[P]"
            lines.append(f"step {i + 1:>3}: {blocks} -> {emitted} token(s)")
        return "\n".join(lines)


def simulate_walltime(
    target: LanguageModel,
    draft: LanguageModel,
    cost: CostModel,
    config: SpecConfig,
    n_tokens: int = 10_000,
    n_runs: int = 1,
) -> SimReport:
    """Charge unit costs to a speculative decode and compare with theory.

    Each run is one :func:`decode` from the prompt ``(0,)`` of exactly
    ``n_tokens`` tokens (the last step is truncated to fit; the stop token
    is ignored), and run ``i`` decodes with seed ``config.seed + i``. Costs
    are in target runs, charged from the run's ``DecodeTotals``: each batched
    target call costs ``cost.batch_cost(gamma)`` and each draft call
    ``cost.c``. The standard-decoding arm pays 1 per token on an identical
    token budget.
    Acceptance is estimated from the traces of all runs and fed to the
    closed-form prediction, charged the same batch cost.
    """
    if n_tokens < 1 or n_runs < 1:
        raise ValueError(f"n_tokens and n_runs must be >= 1, got {n_tokens} and {n_runs}")
    batch_cost = cost.batch_cost(config.gamma)
    runs: list[RunStats] = []
    first_step_tokens: list[int] = []
    traces: list[StepTrace] = []
    for run_idx in range(n_runs):
        run_config = replace(config, seed=config.seed + run_idx,
                             max_new_tokens=n_tokens, stop_token=None)
        result = decode(target, draft, (0,), run_config)
        t = result.totals
        runs.append(RunStats(tokens=t.tokens_emitted, steps=len(result.traces),
                             cost=batch_cost * t.target_calls + cost.c * t.draft_calls))
        if run_idx == 0:
            first_step_tokens = [trace.emitted for trace in result.traces[:_TIMELINE_STEPS]]
        traces.extend(result.traces)
    total_tokens = sum(r.tokens for r in runs)
    total_cost = sum(r.cost for r in runs)
    empirical = total_tokens / total_cost
    alpha_hat = trace_accept_rate(DecodeResult(tokens=[], traces=traces)).alpha
    expected = walltime_factor(alpha_hat, config.gamma, cost.c, batch_cost)
    return SimReport(
        runs=runs,
        gamma=config.gamma,
        cost=cost,
        alpha_hat=alpha_hat,
        expected_speedup=expected,
        empirical_speedup=empirical,
        first_step_tokens=first_step_tokens,
    )


def rejection_accept_probability(p: Distribution, q: Distribution) -> float:
    """Acceptance probability of non-iterative rejection sampling:
    sum over q's support of p(x) / M with M the worst-case p/q ratio."""
    support = q.probs > 0.0
    m = float((p.probs[support] / q.probs[support]).max())
    if m == 0.0:
        return 0.0
    return float(p.probs[support].sum()) / m


def rejection_check(pairs: int, vocab: int, seed: int) -> tuple[int, float]:
    """Over ``pairs`` random pairs drawn from stream ``seed``: how many times
    rejection sampling accepts more often than speculative sampling (beyond
    1e-12), and the least margin beta - accept."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    rng, violations, worst_margin = RandomStream(seed), 0, 1.0
    for _ in range(pairs):
        b, r, bad = _rejection_row(*random_pair(rng, vocab))
        violations, worst_margin = violations + bad, min(worst_margin, b - r)
    return violations, worst_margin


def _rejection_row(p: Distribution, q: Distribution) -> tuple[float, float, bool]:
    """beta(p, q), rejection sampling's acceptance, and whether it exceeds beta beyond 1e-12."""
    b, r = beta(p, q), rejection_accept_probability(p, q)
    return b, r, r > b + 1e-12


def rejection_comparison(
    target: LanguageModel,
    draft: LanguageModel,
    contexts: Sequence[Sequence[int]],
) -> list[dict]:
    """Per-context speculative acceptance (beta) vs rejection-sampling acceptance.

    Raises ``RuntimeError`` if the paper-level ordering fails: rejection
    sampling never accepts more often than speculative sampling does.
    """
    check_tokens([t for c in contexts for t in c], target.vocab_size, "context")
    rows = []
    for context in contexts:
        b, r, bad = _rejection_row(target.next_distribution(list(context), IDENTITY_POLICY),
                                   draft.next_distribution(list(context), IDENTITY_POLICY))
        if bad:
            raise RuntimeError(f"rejection acceptance {r} exceeds speculative {b}")
        rows.append({"context": list(context), "speculative_alpha": b, "rejection_accept": r})
    return rows
