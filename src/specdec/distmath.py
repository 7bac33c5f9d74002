"""Probability-vector arithmetic over a finite vocabulary.

A token id is a plain ``int`` in ``[0, vocab_size)``; a :class:`Distribution`
is a dense float64 vector summing to one. Everything downstream (models,
decoders, analysis) trades in these two currencies.

The functions here cover: normalization of raw non-negative scores,
casting any sampling policy (argmax / temperature / top-k / top-p) into
plain sampling from an adjusted distribution, inverse-CDF sampling, and
residual distributions for the accept/reject correction step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

__all__ = [
    "Distribution",
    "SamplingPolicy",
    "AllZeroError",
    "NegativeEntryError",
    "NonFiniteError",
    "PolicyConflictError",
    "VocabMismatchError",
    "normalize",
    "standardize",
    "standardize_rows",
    "sample",
    "inverse_cdf",
    "inverse_cdf_many",
    "residual",
]

# Construction re-normalizes within this slack and rejects beyond it:
# absorbs float drift without masking genuinely unnormalized inputs.
_SUM_SLACK = 1e-6

# Cumulative-mass comparisons in top-p use this slack so that e.g.
# 0.5 + 0.3 >= 0.8 holds despite binary rounding.
_TOP_P_SLACK = 1e-9


class AllZeroError(ValueError):
    """A vector that must carry mass sums to zero (degenerate residual)."""


class NegativeEntryError(ValueError):
    """A probability-like vector contains a negative entry."""


class NonFiniteError(ValueError):
    """A score vector contains NaN or infinity."""


class PolicyConflictError(ValueError):
    """Mutually exclusive sampling-policy knobs were combined."""


class VocabMismatchError(ValueError):
    """Two distributions or models disagree on vocabulary size."""


class Distribution:
    """Immutable dense probability vector.

    Entries are non-negative and sum to one (re-normalized on construction
    when within ``1e-6`` of one, rejected otherwise). The CDF is cached
    lazily for repeated inverse-CDF sampling.
    """

    __slots__ = ("probs", "_cdf")

    def __init__(self, probs: np.ndarray):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] == 0:
            raise ValueError("distribution must be a non-empty 1-D vector")
        if not np.isfinite(p).all():
            raise NonFiniteError("distribution contains non-finite entries")
        if (p < 0).any():
            raise NegativeEntryError("distribution contains negative entries")
        total = float(p.sum())
        if total == 0.0:
            raise AllZeroError("distribution sums to zero")
        if abs(total - 1.0) > _SUM_SLACK:
            raise ValueError(f"distribution sums to {total!r}, not 1 (beyond 1e-6 slack)")
        if total != 1.0:
            p = p / total
        p = p.copy() if p is probs else p
        p.flags.writeable = False
        self.probs = p
        self._cdf = None

    @classmethod
    def rows(cls, probs: np.ndarray) -> list["Distribution"]:
        """One distribution per row of a 2-D block, with ``__init__``'s checks and
        renormalization run once over the block; each holds a read-only row view."""
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 2 or 0 in p.shape:
            raise ValueError("distribution block must be a non-empty 2-D array")
        if not np.isfinite(p).all():
            raise NonFiniteError("distribution contains non-finite entries")
        if (p < 0).any():
            raise NegativeEntryError("distribution contains negative entries")
        total = p.sum(axis=1, keepdims=True)
        if (total == 0.0).any():
            raise AllZeroError("distribution sums to zero")
        worst = float(total.flat[np.abs(total - 1.0).argmax()])
        if abs(worst - 1.0) > _SUM_SLACK:
            raise ValueError(f"distribution sums to {worst!r}, not 1 (beyond 1e-6 slack)")
        p = p / total  # x / 1.0 == x: rows that already sum to one stay as they are
        p.flags.writeable = False
        dists = [object.__new__(cls) for _ in range(len(p))]
        for d, row in zip(dists, p):
            d.probs, d._cdf = row, None
        return dists

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[0]

    @property
    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            c = np.cumsum(self.probs)
            c.flags.writeable = False
            self._cdf = c
        return self._cdf

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:  # pragma: no cover
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Distribution({np.array2string(self.probs, precision=4, threshold=8)})"


@dataclass(frozen=True)
class SamplingPolicy:
    """How raw model scores become the distribution actually sampled.

    ``argmax`` (equivalently ``temperature == 0``) collapses mass uniformly
    onto the tied maxima and excludes the other knobs. Otherwise transforms
    compose in a fixed order: temperature, then top-k, then top-p.
    """

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    argmax: bool = False

    def __post_init__(self):
        if self.temperature < 0:
            raise PolicyConflictError("temperature must be non-negative")
        if self.is_argmax and (self.top_k is not None or self.top_p is not None):
            raise PolicyConflictError("argmax (temperature 0) excludes top-k/top-p")
        if self.top_k is not None and self.top_k < 1:
            raise PolicyConflictError("top_k must be a positive integer")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise PolicyConflictError("top_p must lie in (0, 1]")

    @property
    def is_argmax(self) -> bool:
        return self.argmax or self.temperature == 0.0


#: Plain sampling: no transform beyond normalization.
IDENTITY_POLICY = SamplingPolicy()


def normalize(raw: np.ndarray) -> Distribution:
    """Scale a non-negative vector to sum one.

    Raises ``AllZeroError`` when there is no mass at all; callers decide
    what a degenerate residual means in their context.
    """
    r = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteError("cannot normalize non-finite entries")
    if np.any(r < 0):
        raise NegativeEntryError("cannot normalize negative entries")
    total = float(r.sum())
    if total <= 0.0:
        raise AllZeroError("cannot normalize an all-zero vector")
    return Distribution(r / total)


def _descending(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``p.ravel()`` that sort each row in descending order (stable:
    ties keep the lower token index), and the sorted values as a fresh array."""
    order = np.argsort(-p, axis=-1, kind="stable")
    if p.ndim > 1:
        order += np.arange(0, p.size, p.shape[-1])[:, None]
    return order, p.reshape(-1)[order]


def _unsort(p: np.ndarray, order: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Put the sorted, partly zeroed rows back in token order, renormalized."""
    kept = np.empty(p.shape)
    kept.reshape(-1)[order] = ranked  # a view, since kept is contiguous
    return kept / kept.sum(axis=-1, keepdims=True)


def _apply_policy(s: np.ndarray, policy: SamplingPolicy) -> np.ndarray:
    """The policy's transforms along the last axis of a float64 score array:
    each row comes out exactly as it would on its own."""
    if not np.isfinite(s).all():
        raise NonFiniteError("scores contain non-finite entries")
    if (s < 0).any():
        raise NegativeEntryError("probability scores contain negative entries")

    if policy.is_argmax:
        # Tie-aware: zero out non-max entries, normalize over the ties.
        mask = (s == s.max(axis=-1, keepdims=True)).astype(np.float64)
        return mask / mask.sum(axis=-1, keepdims=True)

    total = s.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise AllZeroError("probability scores sum to zero")
    p = s / total
    t = policy.temperature
    if t != 1.0:
        # Scaled so each row's largest entry is 1: the power cannot underflow
        # a whole row to zero at a low temperature.
        p = (p / p.max(axis=-1, keepdims=True)) ** (1.0 / t)
        p = p / p.sum(axis=-1, keepdims=True)

    if policy.top_k is not None:
        k = policy.top_k
        if k > p.shape[-1]:
            raise PolicyConflictError(f"top_k={k} exceeds vocab size {p.shape[-1]}")
        if k < p.shape[-1]:
            order, ranked = _descending(p)
            ranked[..., k:] = 0.0
            p = _unsort(p, order, ranked)

    if policy.top_p is not None and policy.top_p < 1.0:
        # Sorted entry i stays iff the mass before it falls short of top_p.
        order, ranked = _descending(p)
        short = np.cumsum(ranked, axis=-1)[..., :-1] < policy.top_p - _TOP_P_SLACK
        ranked[..., 1:] *= short
        p = _unsort(p, order, ranked)

    return p


def standardize(scores: np.ndarray, policy: SamplingPolicy = IDENTITY_POLICY) -> Distribution:
    """Cast raw model scores into the adjusted distribution a policy samples from.

    ``scores`` are non-negative probability weights. Temperature t
    power-renormalizes them, ``p**(1/t)``, which equals softmax(logits / t)
    when p is softmax(logits). Argmax puts uniform mass on all entries tied
    for the maximum.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] == 0:
        raise ValueError("scores must be a non-empty 1-D vector")
    return Distribution(_apply_policy(s, policy))


def standardize_rows(
    scores: np.ndarray, policy: SamplingPolicy = IDENTITY_POLICY
) -> list[Distribution]:
    """``standardize`` for each row of a 2-D block, every transform and check run
    once over the block: row ``i`` is bitwise equal to ``standardize(scores[i],
    policy)``, and a bad row raises what it would raise."""
    return Distribution.rows(_apply_policy(np.asarray(scores, dtype=np.float64), policy))


def inverse_cdf(d: Distribution, u: float) -> int:
    """Token at quantile ``u`` of ``d``; P(token = i) = d.probs[i] for u ~ U[0,1)."""
    idx = int(np.searchsorted(d.cdf, u, side="right"))
    if idx >= d.vocab_size:
        # Reachable only when rounding leaves cdf[-1] slightly below 1.
        idx = d.vocab_size - 1
        while idx > 0 and d.probs[idx] == 0.0:
            idx -= 1
    return idx


def sample(d: Distribution, rng: RandomStream) -> int:
    """Draw one token, consuming exactly one uniform variate."""
    return inverse_cdf(d, rng.uniform())


def inverse_cdf_many(d: Distribution, u: np.ndarray) -> np.ndarray:
    """``inverse_cdf`` of every variate in ``u`` at once, bitwise equal to it."""
    idx = np.searchsorted(d.cdf, u, side="right")
    np.minimum(idx, d.vocab_size - 1, out=idx)
    # Same float-edge guard as inverse_cdf: a variate above cdf[-1] must
    # not land on a zero-probability token.
    bad = d.probs[idx] == 0.0
    if bad.any():
        idx[bad] = [inverse_cdf(d, float(v)) for v in u[bad]]
    return idx


def residual(p: Distribution, q: Distribution, lenience: float = 1.0) -> Distribution:
    """Correction distribution after a rejected draft: norm(max(0, p - l*q)).

    Raises ``AllZeroError`` when p <= l*q everywhere, which means rejection
    had probability zero and no correction is ever needed.
    """
    if not (0.0 < lenience <= 1.0):
        raise ValueError("lenience must lie in (0, 1]")
    if p.vocab_size != q.vocab_size:
        raise VocabMismatchError("residual requires equal vocab sizes")
    raw = p.probs - lenience * q.probs
    np.maximum(raw, 0.0, out=raw)
    total = float(raw.sum())
    if total <= 0.0:
        raise AllZeroError("residual has no mass: p <= lenience*q everywhere")
    return Distribution(raw / total)
