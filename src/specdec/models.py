"""Autoregressive model zoo: the uniform model interface plus desk-scale models.

Everything that can answer "given this token prefix, what comes next?" is a
:class:`LanguageModel`. The zoo covers trainable add-k n-gram models, the
copy-from-context heuristic, the uniform random baseline, and fixed-output
synthetic models used to make acceptance rates exactly i.i.d. in tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Sequence

import numpy as np

from .distmath import Distribution, SamplingPolicy, standardize

__all__ = [
    "LanguageModel",
    "NGramModel",
    "CopyModel",
    "StatelessModel",
    "CorpusTooShortError",
    "train_ngram",
    "copy_predict",
    "random_model",
    "stateless_pair",
]


class CorpusTooShortError(ValueError):
    """Training corpus shorter than the n-gram order."""


class LanguageModel(ABC):
    """Maps a token prefix to a raw next-token score vector.

    ``score_kind`` declares whether ``evaluate`` returns probability weights
    or logits, so callers know how to standardize. Batching is strictly a
    performance contract: ``evaluate_batch(prefixes)[i]`` must be elementwise
    identical to ``evaluate(prefixes[i])``, and evaluation is deterministic.

    ``context_window`` is another performance contract: the number of
    trailing prefix tokens that ``evaluate`` reads. A model declaring ``w``
    must return bitwise-identical scores for ``prefix`` and for its last
    ``w`` tokens (all of it when shorter), so callers may pass just that
    tail; ``0`` means the prefix is ignored. ``None`` means the whole prefix
    may matter and callers must pass it all.
    """

    score_kind: str = "probs"  # or "logits"
    context_window: int | None = None

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @abstractmethod
    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        """Raw next-token scores for one prefix."""

    def evaluate_batch(self, prefixes: Sequence[Sequence[int]]) -> list[np.ndarray]:
        return [self.evaluate(p) for p in prefixes]

    # Standardized views. Overridable as a performance contract only:
    # results must equal standardize(evaluate(prefix), policy).
    def next_distribution(self, prefix: Sequence[int], policy: SamplingPolicy) -> Distribution:
        return standardize(self.evaluate(prefix), policy, from_logits=self.score_kind == "logits")

    def next_distribution_batch(
        self, prefixes: Sequence[Sequence[int]], policy: SamplingPolicy
    ) -> list[Distribution]:
        from_logits = self.score_kind == "logits"
        return [standardize(s, policy, from_logits=from_logits) for s in self.evaluate_batch(prefixes)]


class StatelessModel(LanguageModel):
    """Returns one fixed distribution for every prefix.

    With both decoder models stateless, the per-position acceptance
    probability is a constant, which makes the i.i.d. analysis of the
    decoding loop exact rather than approximate.
    """

    context_window = 0

    def __init__(self, probs: np.ndarray):
        self._dist = Distribution(np.asarray(probs, dtype=np.float64))
        self._by_policy: dict[SamplingPolicy, Distribution] = {}

    @property
    def vocab_size(self) -> int:
        return self._dist.vocab_size

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        return self._dist.probs

    def next_distribution(self, prefix: Sequence[int], policy: SamplingPolicy) -> Distribution:
        d = self._by_policy.get(policy)
        if d is None:
            d = standardize(self._dist.probs, policy)
            self._by_policy[policy] = d
        return d

    def next_distribution_batch(
        self, prefixes: Sequence[Sequence[int]], policy: SamplingPolicy
    ) -> list[Distribution]:
        d = self.next_distribution((), policy)
        return [d] * len(prefixes)


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram model with uniform backoff.

    Contexts are the trailing ``order - 1`` tokens of the prefix. A context
    seen in training yields ``(count + k) / (total + k * V)``; an unseen
    context backs off to the uniform distribution. With ``smoothing_k > 0``
    every token keeps strictly positive probability, so ratio-based
    baselines stay finite.
    """

    def __init__(
        self,
        order: int,
        vocab_size: int,
        smoothing_k: float = 0.01,
        counts: dict[tuple[int, ...], dict[int, int]] | None = None,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing_k <= 0:
            raise ValueError("smoothing_k must be positive")
        self.order = order
        self.context_window = order - 1
        self.smoothing_k = float(smoothing_k)
        self._vocab_size = vocab_size
        self.counts: dict[tuple[int, ...], dict[int, int]] = counts if counts is not None else {}
        self._dense_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._uniform = np.full(vocab_size, 1.0 / vocab_size)
        self._uniform.flags.writeable = False  # shared across callers

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    def context_of(self, prefix: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return tuple(prefix[-(self.order - 1):])

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        ctx = self.context_of(prefix)
        dense = self._dense_cache.get(ctx)
        if dense is None:
            table = self.counts.get(ctx)
            if table is None:
                dense = self._uniform
            else:
                v = np.full(self._vocab_size, self.smoothing_k)
                for tok, c in table.items():
                    v[tok] += c
                dense = v / v.sum()
                dense.flags.writeable = False
            self._dense_cache[ctx] = dense
        return dense

    @property
    def n_contexts(self) -> int:
        return len(self.counts)


def train_ngram(
    corpus: Sequence[int],
    order: int,
    vocab_size: int,
    smoothing_k: float = 0.01,
) -> NGramModel:
    """Count all length-``order`` sliding windows of the corpus."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(corpus) < order:
        raise CorpusTooShortError(f"corpus of {len(corpus)} tokens cannot train order {order}")
    counts: dict[tuple[int, ...], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for i in range(len(corpus) - order + 1):
        ctx = tuple(corpus[i : i + order - 1])
        nxt = int(corpus[i + order - 1])
        if not 0 <= nxt < vocab_size:
            raise ValueError(f"corpus token {nxt} outside vocab of {vocab_size}")
        counts[ctx][nxt] += 1
    frozen = {ctx: dict(tbl) for ctx, tbl in counts.items()}
    return NGramModel(order, vocab_size, smoothing_k, counts=frozen)


class CopyModel(LanguageModel):
    """Predicts by copying from the longest repeated suffix of the context.

    If the trailing ``min_match`` or more tokens of the prefix re-occur
    earlier in the prefix, the token that followed the most recent earlier
    occurrence gets ``copy_mass`` and the remainder is spread uniformly;
    otherwise the prediction is uniform. Parameter-free apart from the two
    knobs, so it costs nothing to deploy next to any target model. One
    ``evaluate`` costs O(n) in the prefix length n (see :func:`copy_predict`),
    and it may read the whole prefix, so ``context_window`` stays ``None``.
    """

    def __init__(self, vocab_size: int, min_match: int = 2, copy_mass: float = 0.9):
        if min_match < 1:
            raise ValueError("min_match must be >= 1")
        if not (0.0 < copy_mass < 1.0):
            raise ValueError("copy_mass must lie in (0, 1)")
        self._vocab_size = vocab_size
        self.min_match = min_match
        self.copy_mass = copy_mass

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        return copy_predict(self, prefix)


def copy_predict(model: CopyModel, prefix: Sequence[int]) -> np.ndarray:
    """Copy-heuristic distribution for one prefix, in O(n) time.

    The longest suffix of length at least ``min_match`` that also occurs
    earlier in the prefix wins; among equal-length matches the most recent
    earlier occurrence wins. An occurrence may overlap the suffix, it just
    has to start earlier. The copied token is the one right after that
    occurrence.

    One pass of the Z-function over the reversed prefix ``r`` finds it:
    ``z[i]``, the longest common prefix of ``r`` and ``r[i:]``, is the
    longest common suffix of ``prefix[:n-i]`` and ``prefix``, i.e. the
    length of the match that ends just before ``prefix[n-i] == r[i-1]``.
    The largest ``z[i]`` over ``i >= 1`` is the longest match, and the
    smallest such ``i`` its most recent occurrence.
    """
    v = model.vocab_size
    r = list(prefix)
    r.reverse()
    n = len(r)
    z = [0] * n
    best, at = 0, 0
    lo = hi = 0  # rightmost window [lo, hi) with r[lo:hi] == r[:hi-lo]
    for i in range(1, n):
        if n - i <= best:
            break  # z[i] <= n - i, so no later start can match longer
        zi = min(hi - i, z[i - lo]) if i < hi else 0
        while i + zi < n and r[zi] == r[i + zi]:
            zi += 1
        z[i] = zi
        if i + zi > hi:
            lo, hi = i, i + zi
        if zi > best:
            best, at = zi, i
    if best < model.min_match:
        return np.full(v, 1.0 / v)
    out = np.full(v, (1.0 - model.copy_mass) / v)
    out[r[at - 1]] += model.copy_mass
    return out


def random_model(vocab_size: int) -> StatelessModel:
    """Uniform proposal over the vocabulary: the weakest useful draft model."""
    return StatelessModel(np.full(vocab_size, 1.0 / vocab_size))


def stateless_pair(alpha: float, vocab_size: int = 2) -> tuple[StatelessModel, StatelessModel]:
    """Target/draft stateless pair whose acceptance probability is exactly ``alpha``.

    Uses mirrored two-point masses p = [1 - a/2, a/2, 0, ...] and
    q = [a/2, 1 - a/2, 0, ...]: sum(min(p, q)) = alpha, with full support
    on the first two tokens whenever alpha > 0.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if vocab_size < 2:
        raise ValueError("need vocab_size >= 2")
    p = np.zeros(vocab_size)
    q = np.zeros(vocab_size)
    p[0], p[1] = 1.0 - alpha / 2.0, alpha / 2.0
    q[0], q[1] = alpha / 2.0, 1.0 - alpha / 2.0
    return StatelessModel(p), StatelessModel(q)
