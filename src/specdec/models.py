"""Autoregressive model zoo: the uniform model interface plus desk-scale models.

Everything that can answer "given this token prefix, what comes next?" is a
:class:`LanguageModel`. The zoo covers trainable add-k n-gram models, the
copy-from-context heuristic, the uniform random baseline, and fixed-output
synthetic models used to make acceptance rates exactly i.i.d. in tests.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Sequence

import numpy as np

from .distmath import Distribution, SamplingPolicy, standardize, standardize_rows

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
    """Maps a token prefix to raw next-token scores: non-negative probability
    weights (a model with logits returns their softmax). Batching is strictly
    a performance contract: ``evaluate_batch(prefixes)[i]`` must be
    elementwise identical to ``evaluate(prefixes[i])``, and evaluation is
    deterministic.

    ``context_window`` is another performance contract: the number of
    trailing prefix tokens that ``evaluate`` reads. A model declaring ``w``
    must return bitwise-identical scores for ``prefix`` and for its last
    ``w`` tokens (all of it when shorter), so callers may pass just that
    tail; ``0`` means the prefix is ignored, so the standardized views return
    one distribution per policy, computed once. ``None`` means the whole
    prefix may matter and callers must pass it all.
    """

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
        if self.context_window == 0:
            return self._fixed_distribution(policy)
        return standardize(self.evaluate(prefix), policy)

    def next_distribution_batch(
        self, prefixes: Sequence[Sequence[int]], policy: SamplingPolicy
    ) -> list[Distribution]:
        if self.context_window == 0:
            return [self._fixed_distribution(policy)] * len(prefixes)
        return standardize_rows(self.evaluate_batch(prefixes), policy)

    def _fixed_distribution(self, policy: SamplingPolicy) -> Distribution:
        """A window-0 model's distribution under ``policy``, memoized per instance."""
        memo = self.__dict__.setdefault("_by_policy", {})
        d = memo.get(policy)
        if d is None:
            d = memo[policy] = standardize(self.evaluate(()), policy)
        return d


class StatelessModel(LanguageModel):
    """Returns one fixed distribution for every prefix.

    With both decoder models stateless, the per-position acceptance
    probability is a constant, which makes the i.i.d. analysis of the
    decoding loop exact rather than approximate.
    """

    context_window = 0

    def __init__(self, probs: np.ndarray):
        self._dist = Distribution(np.asarray(probs, dtype=np.float64))

    @property
    def vocab_size(self) -> int:
        return self._dist.vocab_size

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        return self._dist.probs


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
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not 0 < smoothing_k < math.inf:  # also rejects NaN
            raise ValueError("smoothing_k must be positive and finite")
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
    knobs, so it costs nothing to deploy next to any target model. It may
    read the whole prefix, so ``context_window`` stays ``None``.

    Calls are incremental: the model keeps a copy of the last prefix and
    the match lengths of its last ``_KEEP`` call lengths. A prefix that
    extends one of those by k tokens costs an O(n) list copy and compare
    plus k numpy passes of length n; any other prefix one O(n) pass in
    Python, as :func:`copy_predict`. ``next_distribution`` reuses one
    distribution per (policy, copied token). This state makes a
    ``CopyModel`` unsafe to share between threads.
    """

    _KEEP = 16  # lets a draft of up to 15 tokens fork back to any position

    def __init__(self, vocab_size: int, min_match: int = 2, copy_mass: float = 0.9):
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if min_match < 1:
            raise ValueError("min_match must be >= 1")
        if not (0.0 < copy_mass < 1.0):
            raise ValueError("copy_mass must lie in (0, 1)")
        self._vocab_size = vocab_size
        self.min_match = min_match
        self.copy_mass = copy_mass
        self._path: list[int] = []
        self._tokens = np.empty(0, dtype=np.int64)  # self._path as an array
        self._lengths: dict[int, np.ndarray] = {}  # prefix length -> match lengths
        self._dists: dict[tuple[SamplingPolicy, int | None], Distribution] = {}

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        return _copy_scores(self, self._copied(prefix))

    def next_distribution(self, prefix: Sequence[int], policy: SamplingPolicy) -> Distribution:
        key = (policy, self._copied(prefix))
        d = self._dists.get(key)
        if d is None:
            d = self._dists[key] = standardize(_copy_scores(self, key[1]), policy)
        return d

    def _copied(self, prefix: Sequence[int]) -> int | None:
        """The token :func:`copy_predict` would copy for ``prefix``, or None."""
        path = list(prefix)
        n = len(path)
        # The longest kept length whose tokens are a prefix of this call's;
        # contents are compared, since callers may grow one list in place.
        m = next((k for k in sorted(self._lengths, reverse=True)
                  if k <= n and path[:k] == self._path[:k]), None)
        if m is None:
            same, m, lcs = 0, n, _common_suffixes(path)
        else:
            same, lcs = m, self._lengths[m]
        if same < len(self._path):  # drop what was kept for the old path past `same`
            self._lengths = {k: v for k, v in self._lengths.items() if k <= same}
        if len(self._tokens) < n:
            self._tokens = np.resize(self._tokens, 2 * n)
        self._tokens[same:n] = path[same:]
        for i in range(m, n):
            # Appending t: the match ending at j extends the one ending at j-1.
            lcs = (self._tokens[: i + 1] == self._tokens[i]) * np.concatenate(([1], lcs + 1))
        self._path = path
        self._lengths[n] = lcs
        while len(self._lengths) > self._KEEP:
            del self._lengths[next(iter(self._lengths))]
        return _copied_token(path, lcs, self.min_match)


def _common_suffixes(tokens: list[int]) -> np.ndarray:
    """``lcs[j]``: length of the longest common suffix of ``tokens[:j+1]``
    and ``tokens``, for every ``j`` (so ``lcs[-1] == len(tokens)``).

    One pass of the Z-function over the reversed tokens ``r``: ``z[i]``,
    the longest common prefix of ``r`` and ``r[i:]``, is ``lcs[n-1-i]``.
    """
    r = tokens[::-1]
    n = len(r)
    z = [n] * n  # z[0] = n; the loop sets every later entry
    lo = hi = 0  # rightmost window [lo, hi) with r[lo:hi] == r[:hi-lo]
    for i in range(1, n):
        zi = min(hi - i, z[i - lo]) if i < hi else 0
        while i + zi < n and r[zi] == r[i + zi]:
            zi += 1
        z[i] = zi
        if i + zi > hi:
            lo, hi = i, i + zi
    return np.array(z[::-1], dtype=np.int64)


def _copied_token(tokens: Sequence[int], lcs: np.ndarray, min_match: int) -> int | None:
    """The token after the longest earlier match of the suffix (the most
    recent one among equals), if that match is at least ``min_match`` long."""
    back = lcs[-2::-1]  # the matches ending before the last token, most recent first
    if len(back) == 0:
        return None
    i = int(back.argmax())
    return tokens[-1 - i] if back[i] >= min_match else None


def _copy_scores(model: CopyModel, token: int | None) -> np.ndarray:
    v = model.vocab_size
    if token is None:
        return np.full(v, 1.0 / v)
    out = np.full(v, (1.0 - model.copy_mass) / v)
    out[token] += model.copy_mass
    return out


def copy_predict(model: CopyModel, prefix: Sequence[int]) -> np.ndarray:
    """Copy-heuristic distribution for one prefix, from scratch, in O(n) time.

    The longest suffix of length at least ``min_match`` that also occurs
    earlier in the prefix wins; among equal-length matches the most recent
    earlier occurrence wins. An occurrence may overlap the suffix, it just
    has to start earlier. The copied token is the one right after that
    occurrence (see :func:`_common_suffixes` and :func:`_copied_token`).
    """
    tokens = list(prefix)
    return _copy_scores(model, _copied_token(tokens, _common_suffixes(tokens), model.min_match))


def random_model(vocab_size: int) -> StatelessModel:
    """Uniform proposal over the vocabulary: the weakest useful draft model."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
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
