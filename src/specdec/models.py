"""Autoregressive model zoo: the uniform model interface plus desk-scale models.

Everything that can answer "given this token prefix, what comes next?" is a
:class:`LanguageModel`. The zoo covers trainable add-k n-gram models, the
copy-from-context heuristic, the uniform random baseline, and fixed-output
synthetic models used to make acceptance rates exactly i.i.d. in tests.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .distmath import Distribution, SamplingPolicy, standardize, standardize_rows

__all__ = [
    "MAX_VOCAB",
    "LanguageModel",
    "NGramModel",
    "CopyModel",
    "StatelessModel",
    "CorpusTooShortError",
    "train_ngram",
    "random_model",
    "stateless_pair",
]


# The largest vocabulary a model takes; a dense float64 row of it is 8 MiB.
MAX_VOCAB = 1 << 20


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

    def next_distribution_kept(self, prefix: list[int], policy: SamplingPolicy, kept: int):
        """``next_distribution``, told that ``kept`` leading tokens of list ``prefix`` are the
        same as at this model's last call, if that call had the same list (a count past that
        call's length vouches for all of it); a whole-prefix model may read only the rest."""
        return self.next_distribution(prefix, policy)

    def _fixed_distribution(self, policy: SamplingPolicy) -> Distribution:
        """A window-0 model's distribution under ``policy``, memoized per instance."""
        memo = self.__dict__.get("_by_policy") or self.__dict__.setdefault("_by_policy", {})
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
    baselines stay finite. Seen contexts' rows are cached, and all dropped
    before they would pass ``MAX_VOCAB`` floats.
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
        if not 1 <= vocab_size <= MAX_VOCAB:
            raise ValueError(f"vocab_size must lie in [1, {MAX_VOCAB}], got {vocab_size}")
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

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        ctx = tuple(prefix[-(self.order - 1):]) if self.order > 1 else ()
        dense = self._dense_cache.get(ctx)
        if dense is None:
            table = self.counts.get(ctx)
            if table is None:
                return self._uniform
            v = np.full(self._vocab_size, self.smoothing_k)
            for tok, c in table.items():
                v[tok] += c
            dense = v / v.sum()
            dense.flags.writeable = False
            if (len(self._dense_cache) + 1) * self._vocab_size > MAX_VOCAB:
                self._dense_cache.clear()
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
    """Count the corpus's length-``order`` windows, every token range-checked, with one numpy
    sort over their int64 codes in base ``vocab_size``, renumbered where a fold could overflow."""
    model = NGramModel(order, vocab_size, smoothing_k)  # checks the arguments
    if len(corpus) < order:
        raise CorpusTooShortError(f"corpus of {len(corpus)} tokens cannot train order {order}")
    try:
        a = np.array(corpus, dtype=np.int64)
        bad = a[(a < 0) | (a >= vocab_size)][:1].tolist()
    except OverflowError:  # a token outside int64 is outside every vocabulary
        bad = [next(t for t in corpus if not 0 <= t < vocab_size)]
    if bad:
        raise ValueError(f"corpus token {bad[0]} outside vocab of {vocab_size}")
    code, ranks = a[: len(a) - order + 1].copy(), {}  # ranks[j]: what fold j's ids stand for
    for j in range(1, order):
        if code.max() >= (1 << 63) // vocab_size:  # the fold could pass int64
            ranks[j], code = np.unique(code, return_inverse=True)
        code *= vocab_size
        code += a[j : j + len(code)]
    del a  # np.unique sorts a copy of code; rebinding code frees it too
    code, counts = np.unique(code, return_counts=True)
    code, nxt = np.divmod(code, vocab_size)  # each window's context code and next token
    start = np.flatnonzero(np.diff(code, prepend=-1))  # each context's first window
    code, ctx = code[start], np.empty((len(start), order - 1), dtype=np.int64)
    for j in range(order - 1, 0, -1):  # undo the folds, last first
        code = ranks[j][code] if j in ranks else code
        code, ctx[:, j - 1] = np.divmod(code, vocab_size)
    cut, nxt, counts = np.append(start, len(nxt)).tolist(), nxt.tolist(), counts.tolist()
    model.counts = {tuple(c): dict(zip(nxt[s:e], counts[s:e]))
                    for c, s, e in zip(ctx.tolist(), cut, cut[1:])}
    return model


class CopyModel(LanguageModel):
    """Predicts by copying from the longest repeated suffix of the context.

    If the trailing ``min_match`` or more tokens of the prefix re-occur
    earlier in the prefix, the token that followed the most recent earlier
    occurrence gets ``copy_mass`` and the remainder is spread uniformly;
    otherwise the prediction is uniform. Parameter-free apart from the two
    knobs, so it costs nothing to deploy next to any target model. It may
    read the whole prefix, so ``context_window`` stays ``None``.

    Calls are incremental. The model keeps the last prefix, the same prefix
    reversed as a ``str`` (one code point per token: ``chr`` takes every id
    below ``MAX_VOCAB``), and its longest recurring suffix. A call
    range-checks and converts only the tokens past those it keeps from the
    last call: the count the engine declares, capped at the last call's
    length, if the call has the last call's list and the count is at most
    the list's length, else one found by comparing contents. The suffix of
    length ``L`` recurs where ``rev.find(rev[:L], 1)`` finds it, and the
    lowest start is the most recent occurrence. (CPython's ``rfind`` on the
    forward text would find the same, but is quadratic in the worst case,
    where ``find`` switches to a linear-time search.) ``next_distribution``
    reuses one distribution per (policy, copied token), and drops them all
    before they would pass ``MAX_VOCAB`` floats. This state makes a
    ``CopyModel`` unsafe to share between threads.
    """

    def __init__(self, vocab_size: int, min_match: int = 2, copy_mass: float = 0.9):
        if not 1 <= vocab_size <= MAX_VOCAB:
            raise ValueError(f"vocab_size must lie in [1, {MAX_VOCAB}], got {vocab_size}")
        if min_match < 1:
            raise ValueError("min_match must be >= 1")
        if not (0.0 < copy_mass < 1.0):
            raise ValueError("copy_mass must lie in (0, 1)")
        self._vocab_size = vocab_size
        self.min_match = min_match
        self.copy_mass = copy_mass
        self._path: list[int] = []
        self._rev = ""  # _path reversed, one code point per token
        self._match = -1  # no suffix of _path longer than this recurs (exact if >= min_match)
        self._src: Sequence[int] | None = None  # the last call's prefix object
        self._dists: dict[tuple[int, int | None], tuple[SamplingPolicy, Distribution]] = {}

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    def evaluate(self, prefix: Sequence[int]) -> np.ndarray:
        return _copy_scores(self, self._copied(prefix))

    def next_distribution(self, prefix: Sequence[int], policy: SamplingPolicy,
                          kept: int | None = None) -> Distribution:
        # Keyed by the policy's id, cheaper than its hash; the entry keeps the id's policy alive.
        key = (id(policy), self._copied(prefix, kept))
        d = self._dists.get(key)
        if d is None:
            if (len(self._dists) + 1) * self._vocab_size > MAX_VOCAB:
                self._dists.clear()
            d = self._dists[key] = (policy, standardize(_copy_scores(self, key[1]), policy))
        return d[1]

    next_distribution_kept = next_distribution

    def _copied(self, prefix: Sequence[int], kept: int | None = None) -> int | None:
        """The token to copy for ``prefix``, or None: the one after the most
        recent earlier occurrence of its longest recurring suffix."""
        path, v = self._path, self._vocab_size
        if kept is None or prefix is not self._src or not 0 <= kept <= len(prefix):
            # Compare contents, since callers may grow one list in place: all
            # of the last prefix first, then backing off by 1, 2, 4, ... tokens.
            kept, step = min(len(prefix), len(path)), 1
            while kept and list(prefix[:kept]) != path[:kept]:
                kept, step = max(0, kept - step), 2 * step
        kept = min(kept, len(path))  # a count past the last call's length vouches for all of it
        new = prefix[kept:]
        for t in new:
            if not 0 <= t < v:
                raise ValueError(f"token {t} outside vocab of {v}")
        head = chr(new[0]) if len(new) == 1 else "".join(map(chr, reversed(new)))
        rev = self._rev = head + self._rev[len(path) - kept:]
        extends = kept == len(path)
        path[kept:] = new
        self._src, n = prefix, len(path)
        # lo recurs (or is min_match - 1), hi does not. An appended token lengthens the longest
        # recurring suffix by at most one, so a call that extends the last one guesses that
        # bound first (one find while a copy run goes on); then the guesses gallop and bisect.
        lo, hi = self.min_match - 1, (self._match + len(new) if extends else n - 1) + 1
        found, guess = -1, hi - 1 if extends else self.min_match
        while lo < guess < hi:
            if (j := rev.find(rev[:guess], 1)) >= 0:  # where that suffix recurs in rev
                lo, found = guess, j
            else:
                hi = guess
            guess = (lo + hi) // 2 if hi <= 3 * lo + 3 else 2 * lo + 1  # min(2 * lo + 1, mid)
        self._match = lo
        return path[n - found] if found >= 0 else None


def _copy_scores(model: CopyModel, token: int | None) -> np.ndarray:
    v = model.vocab_size
    if token is None:
        return np.full(v, 1.0 / v)
    out = np.full(v, (1.0 - model.copy_mass) / v)
    out[token] += model.copy_mass
    return out


def random_model(vocab_size: int) -> StatelessModel:
    """Uniform proposal over the vocabulary: the weakest useful draft model."""
    if not 1 <= vocab_size <= MAX_VOCAB:
        raise ValueError(f"vocab_size must lie in [1, {MAX_VOCAB}], got {vocab_size}")
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
