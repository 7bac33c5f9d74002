"""Closed-form performance analysis of the speculative decoding loop.

Everything here is driven by two scalars: the expected per-position
acceptance probability ``alpha`` (an intrinsic property of the model pair
and sampling policy) and the draft/target cost ratio ``c`` (a property of
the deployment). From those: expected tokens per step (which is also the
memory-access factor, since the weights are read once per step), walltime
and arithmetic-operation factors, the optimal number of drafts, and the
grid sweeps behind the standard plots and tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .distmath import Distribution
from .engine import DecodeResult

__all__ = [
    "CostModel",
    "AlphaEstimate",
    "DomainError",
    "GammaChoice",
    "beta",
    "expected_tokens",
    "walltime_factor",
    "ops_factor",
    "optimal_gamma",
    "trace_accept_rate",
    "sweep",
    "write_sweep_csv",
    "TABLE1_GRID",
]

# Near alpha = 1 the closed forms are evaluated via their algebraic limits
# to avoid 0/0.
_ALPHA_ONE_EPS = 1e-12

#: The six (alpha, gamma) pairs of the canonical operations/speed table.
TABLE1_GRID: tuple[tuple[float, int], ...] = (
    (0.6, 2), (0.7, 3), (0.8, 2), (0.8, 5), (0.9, 2), (0.9, 10),
)


class DomainError(ValueError):
    """Analysis input outside its mathematical domain."""


@dataclass(frozen=True)
class CostModel:
    """Relative costs of the draft model and of a batched target call, in
    target runs: ``c`` is walltime per draft run over walltime per target
    run, and a target call over gamma+1 prefixes costs ``batch_cost(gamma)``
    target runs, 1 + ``batch_penalty`` * gamma.
    """

    c: float = 0.0
    batch_penalty: float = 0.0

    def batch_cost(self, gamma: int) -> float:
        return 1.0 + self.batch_penalty * gamma  # exactly 1.0 at penalty 0

    def __post_init__(self):
        for name in ("c", "batch_penalty"):
            _check_cost(name, getattr(self, name))


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    n_tokens: int
    std_error: float


@dataclass(frozen=True)
class GammaChoice:
    gamma: int
    factor: float
    saturated: bool = False


def _check_alpha(alpha: float, *, allow_one: bool) -> None:
    if not math.isfinite(alpha) or alpha < 0.0 or alpha > 1.0 or (alpha == 1.0 and not allow_one):
        hi = "1" if allow_one else "1)"
        raise DomainError(f"alpha={alpha!r} outside [0, {hi}")


def _check_cost(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"{name} must be finite and non-negative")


def beta(p: Distribution, q: Distribution, lenience: float = 1.0) -> float:
    """Acceptance probability for one position: sum(min(p / l, q)).

    At the default lenience 1 this is the overlap sum(min(p, q)) exactly,
    since p / 1.0 == p in floating point; one minus it is the min-overlap
    divergence between p and q.
    """
    if not (0.0 < lenience <= 1.0):
        raise DomainError("lenience must lie in (0, 1]")
    if p.vocab_size != q.vocab_size:
        raise DomainError("beta requires equal vocab sizes")
    return float(np.minimum(p.probs / lenience, q.probs).sum())


def expected_tokens(alpha: float, gamma: int) -> float:
    """Expected tokens per decoding step: (1 - alpha^(gamma+1)) / (1 - alpha)."""
    _check_alpha(alpha, allow_one=True)
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    if abs(1.0 - alpha) < _ALPHA_ONE_EPS:
        return float(gamma + 1)
    return (1.0 - alpha ** (gamma + 1)) / (1.0 - alpha)


def walltime_factor(alpha: float, gamma: int, c: float, batch_cost: float = 1.0) -> float:
    """Expected walltime improvement: (1-alpha^(gamma+1)) / ((1-alpha)(gamma*c + batch_cost))."""
    _check_cost("c", c)
    if not math.isfinite(gamma * c + batch_cost) or batch_cost <= 0:
        raise DomainError("batch_cost must be positive, and gamma*c + batch_cost finite")
    return expected_tokens(alpha, gamma) / (gamma * c + batch_cost)


def ops_factor(alpha: float, gamma: int, c_hat: float) -> float:
    """Expected increase in total arithmetic operations:
    (1-alpha)(gamma*c_hat + gamma + 1) / (1 - alpha^(gamma+1))."""
    _check_alpha(alpha, allow_one=True)
    if gamma < 1:
        raise DomainError("gamma must be >= 1")
    _check_cost("c_hat", c_hat)
    return (gamma * c_hat + gamma + 1.0) / expected_tokens(alpha, gamma)


def optimal_gamma(alpha: float, c: float, gamma_max: int = 1000) -> GammaChoice:
    """Exhaustively scan gamma in [0, gamma_max] for the best walltime factor.

    Returns the smallest maximizer; gamma=0 (factor 1) when nothing
    improves. With c = 0 and alpha > 0 the factor increases monotonically,
    so the scan tops out at ``gamma_max`` and the result is flagged
    ``saturated``.
    """
    _check_alpha(alpha, allow_one=False)
    _check_cost("c", c)
    if gamma_max < 1:
        raise DomainError("gamma_max must be >= 1")
    if c == 0.0 and alpha > 0.0:
        # Free drafts: the factor rises monotonically toward 1/(1-alpha),
        # so the scan ceiling is the answer and the choice is flagged.
        return GammaChoice(
            gamma=gamma_max, factor=walltime_factor(alpha, gamma_max, 0.0), saturated=True
        )
    best_gamma, best_factor = 0, 1.0
    for g in range(1, gamma_max + 1):
        f = walltime_factor(alpha, g, c)
        if f > best_factor:
            best_gamma, best_factor = g, f
    still_rising = best_gamma == gamma_max and best_factor > walltime_factor(
        alpha, gamma_max - 1, c
    )
    return GammaChoice(gamma=best_gamma, factor=best_factor, saturated=still_rising)


def trace_accept_rate(result: DecodeResult) -> AlphaEstimate:
    """Empirical acceptance rate from decode traces.

    Counts one Bernoulli event per judged draft position: the accepted
    prefix plus the first rejection. Positions after the first rejection
    were never judged and do not count.
    """
    accepted = 0
    judged = 0
    for tr in result.traces:
        gamma = len(tr.drafted)
        accepted += tr.accepted_n
        judged += min(tr.accepted_n + 1, gamma)
    if judged == 0:
        return AlphaEstimate(alpha=0.0, n_tokens=0, std_error=0.0)
    rate = accepted / judged
    se = math.sqrt(max(rate * (1.0 - rate), 0.0) / judged)
    return AlphaEstimate(alpha=rate, n_tokens=judged, std_error=se)


_DEFAULT_ALPHAS = tuple(round(a, 2) for a in np.arange(0.05, 1.0, 0.05))
_DEFAULT_GAMMAS = (1, 2, 3, 5, 7, 10)
# Representative draft-cost ratios for the optimal-gamma sweep.
_DEFAULT_CS = (0.01, 0.02, 0.05, 0.1)


def sweep(
    kind: str,
    alphas: Sequence[float] | None = None,
    gammas: Sequence[int] | None = None,
    cs: Sequence[float] | None = None,
    gamma_max: int = 1000,
) -> list[dict]:
    """Grid sweeps for plots and tables.

    Kinds: ``fig2`` (expected tokens vs alpha per gamma), ``fig3``
    (optimal gamma vs alpha per c), ``fig4`` (speedup and operations
    increase vs alpha per gamma, zero-cost draft), ``table1`` (the six
    canonical rows).
    """
    alphas = tuple(alphas) if alphas is not None else _DEFAULT_ALPHAS
    gammas = tuple(gammas) if gammas is not None else _DEFAULT_GAMMAS
    cs = tuple(cs) if cs is not None else _DEFAULT_CS
    read = {"fig2": (alphas, gammas), "fig3": (alphas, cs), "fig4": (alphas, gammas)}
    if not all(read.get(kind, ())):
        raise ValueError(f"the grids a {kind} sweep reads must be non-empty")

    rows: list[dict] = []
    if kind == "fig2":
        for a in alphas:
            for g in gammas:
                rows.append({"alpha": a, "gamma": g, "expected_tokens": expected_tokens(a, g)})
    elif kind == "fig3":
        for a in alphas:
            for c in cs:
                choice = optimal_gamma(a, c, gamma_max)
                rows.append({
                    "alpha": a, "c": c, "gamma_star": choice.gamma,
                    "factor": choice.factor, "saturated": choice.saturated,
                })
    elif kind == "fig4":
        for a in alphas:
            for g in gammas:
                rows.append({
                    "alpha": a, "gamma": g,
                    "speedup": walltime_factor(a, g, 0.0),
                    "ops_increase": ops_factor(a, g, 0.0),
                })
    elif kind == "table1":
        for a, g in TABLE1_GRID:
            rows.append({
                "alpha": a, "gamma": g,
                "operations": ops_factor(a, g, 0.0),
                "speed": walltime_factor(a, g, 0.0),
            })
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_sweep_csv(rows: Sequence[dict], out: IO[str]) -> None:
    """CSV with a header naming every column; floats at 6 significant digits."""
    if not rows:
        raise ValueError("no rows to write")
    writer = csv.writer(out)
    header = list(rows[0])
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in header])
