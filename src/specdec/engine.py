"""Speculative decoding: draft with the cheap model, verify with the target.

One decoding step drafts ``gamma`` tokens autoregressively from the draft
model, evaluates the target model on all ``gamma + 1`` candidate prefixes in
a single batched call, accepts a prefix of the drafts by the ratio test, and
finishes with one token sampled either from the residual distribution at the
first rejection or from the target's extra position when everything was
accepted. Every step therefore emits between 1 and ``gamma + 1`` tokens for
exactly one (batched) target call, and with lenience 1 the emitted tokens
are distributed exactly as if they had been sampled from the target alone.

RNG consumption per step is fixed regardless of outcomes: one block of
``2 * gamma + 1`` variates, ``gamma`` for the drafts, ``gamma`` for acceptance
(drawn even after an early rejection), then one for the final sample. This
keeps stream positions, and therefore whole traces, comparable across runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .distmath import (
    AllZeroError,
    Distribution,
    IDENTITY_POLICY,
    SamplingPolicy,
    VocabMismatchError,
    inverse_cdf,
    inverse_cdf_many,
    residual,
    sample,
    standardize,  # unused here, but the traced benchmark wraps engine.standardize
    standardize_rows,
)
from .models import LanguageModel
from .rng import RandomStream

__all__ = [
    "MAX_GAMMA",
    "MAX_BLOCK",
    "check_pair",
    "check_tokens",
    "SpecConfig",
    "DraftedToken",
    "StepTrace",
    "DecodeTotals",
    "DecodeResult",
    "speculative_step",
    "StepBlock",
    "speculative_steps",
    "decode",
    "standard_decode",
]

# Valid test-only fault injections for speculative_step.
MUTATIONS = ("skip_residual", "resample_q", "accept_off_by_one")

# The longest draft a SpecConfig takes: a step draws its 2*gamma+1 variates at once.
MAX_GAMMA = 1 << 10

# The most floats a step's dense block of (gamma+1) rows of V may hold (128 MiB
# of float64): the batched target call alone returns that many.
MAX_BLOCK = 1 << 24

# Variates per uniform_block in speculative_steps. Unless both models read no context, a row
# keeps distributions of V floats, so a block then takes at most MAX_BLOCK // V variates:
# block memory grows with neither gamma nor V.
_VARIATES_PER_BLOCK = 9 << 15


@dataclass(frozen=True)
class SpecConfig:
    """Decoding-run parameters shared by all engine entry points."""

    gamma: int
    policy: SamplingPolicy = IDENTITY_POLICY
    lenience: float = 1.0
    seed: int = 0
    max_new_tokens: int = 64
    stop_token: int | None = None

    def __post_init__(self):
        for name in ("gamma", "seed", "max_new_tokens"):  # numpy integers pass too
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.gamma <= MAX_GAMMA:
            raise ValueError(f"gamma must lie in [1, {MAX_GAMMA}], got {self.gamma}")
        if not (0.0 < self.lenience <= 1.0):
            raise ValueError("lenience must lie in (0, 1]")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


class DraftedToken(NamedTuple):
    token: int
    q_prob: float  # draft-model probability of the token at its position
    p_prob: float  # target-model probability of the token at its position


@dataclass(slots=True)
class StepTrace:
    """What one decoding step did: drafts, accept count, and the final token.

    ``correction_source`` is ``"residual"`` (rejection, resampled from the
    adjusted distribution), ``"extra"`` (all drafts accepted, sampled from
    the target's extra position), ``"draft_fallback"`` (rejection but the
    residual underflowed to zero, so the draft token stands), or
    ``"target_argmax"`` / ``"standard"`` for the argmax-lenient and plain
    autoregressive paths. Slots and a tuple of drafts (``()`` for a standard
    step) keep a long decode's traces small.
    """

    drafted: tuple[DraftedToken, ...]
    accepted_n: int
    correction: int
    correction_source: str
    target_calls: int = 1
    draft_calls: int = 0

    @property
    def emitted(self) -> int:
        return self.accepted_n + 1


@dataclass
class DecodeTotals:
    target_calls: int = 0
    draft_calls: int = 0
    tokens_emitted: int = 0


@dataclass
class DecodeResult:
    tokens: list[int]
    traces: list[StepTrace] = field(default_factory=list)
    totals: DecodeTotals = field(default_factory=DecodeTotals)

    def to_dict(self) -> dict:
        """The result as plain data; ``json.dumps`` writes each ``DraftedToken``
        as a list."""
        return asdict(self)


def check_pair(target: LanguageModel, draft: LanguageModel, gamma: int = 0) -> None:
    """Raise a ``ValueError`` unless both models have one vocabulary of V
    tokens with (gamma+1) * V at most ``MAX_BLOCK``."""
    if target.vocab_size != draft.vocab_size:
        raise VocabMismatchError(
            f"vocab mismatch: target {target.vocab_size} vs draft {draft.vocab_size}"
        )
    if (gamma + 1) * target.vocab_size > MAX_BLOCK:
        raise ValueError(f"(gamma+1) * vocab must be at most {MAX_BLOCK}, "
                         f"got ({gamma}+1) * {target.vocab_size}")


def check_tokens(tokens: Sequence, vocab: int, what: str) -> None:
    """Raise a ``ValueError`` naming every one of ``tokens`` that is not an integer in [0, vocab)."""
    if bad := [t for t in tokens if not (isinstance(t, (int, np.integer)) and 0 <= t < vocab)]:
        raise ValueError(f"{what} tokens {bad} are not token ids in [0, {vocab})")


def _rejects(u, p_x, q_x, lenience):
    """The ratio test, on floats (one step) or on arrays of rows (a block)."""
    return u > p_x / (lenience * q_x)


def _lenient_rejects(p_x, p_max, lenience):
    """:func:`speculative_step`'s argmax-lenient test on the raw target: ties
    at the boundary accept, and as lenience nears 0 any support passes."""
    return p_x < lenience * p_max


def speculative_step(
    target: LanguageModel,
    draft: LanguageModel,
    prefix: Sequence[int],
    config: SpecConfig,
    rng: RandomStream,
    *,
    kept: int | None = None,
    _mutation: str | None = None,
) -> tuple[list[int], StepTrace]:
    """One draft/verify step; returns 1..gamma+1 appended tokens and its trace.

    The step works on one list: the draft drafts into it, each call declaring
    its fork point through ``next_distribution_kept``, and the target's
    gamma+1 candidates are slices of it, each cut to the target's window.
    ``kept`` says that ``kept`` leading tokens of the list ``prefix`` are
    unchanged since the draft's last call: the step then drafts into
    ``prefix`` itself and cuts it back. Without ``kept`` it drafts into one
    copy of ``prefix``, and the draft compares contents.

    ``_mutation`` injects a named, deliberately broken variant (see
    ``MUTATIONS``) so statistical tests can prove they would catch an
    incorrect engine. Production callers leave it ``None``.
    """
    if _mutation is not None and _mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {_mutation!r}")
    check_pair(target, draft, config.gamma)
    if kept is not None and not isinstance(prefix, list):
        raise TypeError(f"a kept count needs a list to draft into, got {type(prefix).__name__}")
    gamma, lenience, policy = config.gamma, config.lenience, config.policy

    # Argmax-lenient mode judges drafts on the raw target distribution
    # (before the argmax collapse); the exact ratio test applies otherwise.
    argmax_lenient = policy.is_argmax and lenience < 1.0

    # The step's variates, one row as in _step_block (see the module docstring).
    u = rng.uniform_block(2 * gamma + 1).tolist()

    seq = prefix if kept is not None else list(prefix)
    n0, window = len(seq), target.context_window
    start = 0 if window is None else max(0, n0 - window)  # the target reads seq[start:]
    q_dists: list[Distribution] = []
    try:
        for i in range(gamma):
            # A later call keeps all but the draft appended since the last one.
            q_dists.append(draft.next_distribution_kept(seq, policy, n0 + i - 1 if i else kept))
            seq.append(inverse_cdf(q_dists[i], u[i]))
        # The gamma+1 candidate prefixes of the one batched target call, in prefix order.
        drafts, prefixes = seq[n0:], [seq[start:n0 + i] for i in range(gamma + 1)]
    finally:  # the caller's list leaves as it came, also when a draft call raised
        del seq[n0:]
    if argmax_lenient:
        scores = target.evaluate_batch(prefixes)
        p_dists = standardize_rows(scores, policy)
        raw_dists = standardize_rows(scores, IDENTITY_POLICY)
    else:
        p_dists = target.next_distribution_batch(prefixes, policy)

    q_x = [d.probs.item(x) for d, x in zip(q_dists, drafts)]
    p_x = [d.probs.item(x) for d, x in zip(p_dists, drafts)]
    n = gamma
    for i in range(gamma):
        if argmax_lenient:
            raw = raw_dists[i].probs
            rejected = _lenient_rejects(raw.item(drafts[i]), float(raw.max()), lenience)
        else:
            # A drafted token always has positive draft probability.
            if not q_x[i] > 0.0:
                raise RuntimeError("drafted token with zero draft probability")
            rejected = _rejects(u[gamma + i], p_x[i], q_x[i], lenience)
        if rejected:
            n = i
            break
    if _mutation == "accept_off_by_one":
        n += n < gamma  # deliberately accepts the rejected draft as well

    if argmax_lenient and n < gamma:  # a lenient rejection takes the target's argmax
        d, source = p_dists[n], "target_argmax"
    else:
        d, source = _last_token_dist(p_dists[n], q_dists[n] if n < gamma else None, lenience,
                                     _mutation)
    final = drafts[n] if d is None else inverse_cdf(d, u[2 * gamma])
    drafted = tuple(map(DraftedToken, drafts, q_x, p_x))
    return drafts[:n] + [final], StepTrace(drafted, n, final, source, draft_calls=gamma)


class StepBlock(NamedTuple):
    """``n`` steps side by side: step ``k`` emitted ``drafts[k, :accepted_n[k]]``,
    then ``correction[k]``."""

    drafts: np.ndarray  # (n, gamma)
    accepted_n: np.ndarray  # (n,)
    correction: np.ndarray  # (n,)

    def tokens_at(self, j: int) -> np.ndarray:
        """Each step's ``j``-th emitted token, or -1 where it emitted ``j`` or fewer."""
        drafted = self.drafts[:, min(j, self.drafts.shape[1] - 1)]
        return np.where(self.accepted_n > j, drafted,
                        np.where(self.accepted_n == j, self.correction, -1))


def speculative_steps(target: LanguageModel, draft: LanguageModel, prefix: Sequence[int],
                      config: SpecConfig, rng: RandomStream, n: int, *,
                      _mutation: str | None = None) -> StepBlock:
    """``n`` independent steps from one prefix, bitwise equal to ``n`` successive
    ``speculative_step`` calls on ``rng``: the same drafts, accept counts and
    corrections, and the same variates drawn.

    A step draws 2*gamma+1 variates, so one ``uniform_block`` row serves one
    step. At each position the rows are grouped by the tail each model reads
    (its ``context_window``; for ``None``, the whole prefix and the drafted
    tokens), the model is asked once per distinct tail, and each group is
    sampled at once with the scalar step's arithmetic. Argmax below lenience 1
    has no law to check: it raises ``ValueError`` before any draw or model call.
    """
    if _mutation is not None and _mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {_mutation!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    check_pair(target, draft, config.gamma)
    if config.policy.is_argmax and config.lenience < 1.0:
        raise ValueError("argmax-lenient decoding has no exact law to fit")
    if n == 0:  # no rows to group, and a model may not be asked about no prefixes
        return StepBlock(np.empty((0, config.gamma), dtype=np.int64), *np.empty((2, 0), np.int64))
    # A window-0 pair's rows share one distribution per position (see _VARIATES_PER_BLOCK).
    variates = (_VARIATES_PER_BLOCK if target.context_window == draft.context_window == 0
                else min(_VARIATES_PER_BLOCK, MAX_BLOCK // target.vocab_size))
    rows = max(1, variates // (2 * config.gamma + 1))
    blocks = [_step_block(target, draft, prefix, config, rng, min(rows, n - start), _mutation)
              for start in range(0, n, rows)]
    return StepBlock(*map(np.concatenate, zip(*blocks)))


def _step_block(target, draft, prefix, config, rng, rows, mutation) -> StepBlock:
    gamma, lenience, policy = config.gamma, config.lenience, config.policy
    u = rng.uniform_block(rows * (2 * gamma + 1)).reshape(rows, 2 * gamma + 1)
    drafts = np.empty((rows, gamma), dtype=np.int64)
    q_at = []  # per position: the distinct distributions, each row's index into them
    for i in range(gamma):
        tails, group, members = _tails(draft, prefix, drafts[:, :i])
        q_at.append((draft.next_distribution_batch(tails, policy), group))
        for d, at in zip(q_at[i][0], members):
            drafts[at, i] = inverse_cdf_many(d, u[at, i])
    p_at = []  # as q_at, for the target
    for i in range(gamma + 1):
        tails, group, _ = _tails(target, prefix, drafts[:, :i])
        p_at.append((target.next_distribution_batch(tails, policy), group))

    qx = np.column_stack([_prob_of(*q_at[i], drafts[:, i]) for i in range(gamma)])
    px = np.column_stack([_prob_of(*p_at[i], drafts[:, i]) for i in range(gamma)])
    with np.errstate(divide="ignore", invalid="ignore"):
        rejected = _rejects(u[:, gamma:2 * gamma], px, qx, lenience)
    n_acc = np.where(rejected.any(axis=1), rejected.argmax(axis=1), gamma)
    # The scalar step checks each drafted token up to its first rejection.
    if not (qx > 0.0)[np.arange(gamma) <= n_acc[:, None]].all():
        raise RuntimeError("drafted token with zero draft probability")
    if mutation == "accept_off_by_one":
        n_acc += n_acc < gamma  # deliberately accepts the rejected draft as well

    # Each row's last token, sampled by groups of rows with the same (p, q).
    u_final, final, r = u[:, 2 * gamma], np.empty(rows, dtype=np.int64), np.arange(rows)
    q_at.append(([None], 0 * r))  # the extra position has no q
    p_ix = np.stack([g for _, g in p_at])[n_acc, r]  # each row's p and q, as indices into
    q_ix = np.stack([g for _, g in q_at])[n_acc, r]  # those of its accept count k
    keys, _, members = _groups(np.column_stack([n_acc, p_ix, q_ix]))
    for (k, a, b), rows_j in zip(keys.tolist(), members):
        d, _ = _last_token_dist(p_at[k][0][a], q_at[k][0][b], lenience, mutation)
        final[rows_j] = drafts[rows_j, k] if d is None else inverse_cdf_many(d, u_final[rows_j])
    return StepBlock(drafts, n_acc, final)


def _groups(keys) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The distinct rows of the non-negative integer matrix ``keys`` in
    ascending order, each row's index into them, and the row numbers of each
    distinct row in ascending order: one stable sort and one compare of
    neighbours give all three."""
    # The narrowest type that holds the keys: numpy radix-sorts 8- and 16-bit ones.
    keys = keys.astype(np.min_scalar_type(keys.max()))
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = new.cumsum() - 1
    starts = np.flatnonzero(new).tolist()
    return ranked[starts], group, [order[a:b] for a, b in zip(starts, [*starts[1:], len(keys)])]


def _tails(model, prefix, drafted) -> tuple[list[list[int]], np.ndarray, list[np.ndarray]]:
    """The distinct tails ``model`` reads once a row of ``drafted`` is appended
    to ``prefix``, in ascending order of their drafted columns, each row's
    index into them, and each tail's rows (see :func:`_groups`). The rows
    share the prefix, so only the drafted columns the model reads are
    compared; the prefix part is the same for every tail."""
    window, i = model.context_window, drafted.shape[1]
    read = i if window is None else min(i, window)
    base = list(prefix[0 if window is None else max(0, len(prefix) - window + read):])
    if read == 0:
        return [base], np.zeros(len(drafted), dtype=np.int64), [np.arange(len(drafted))]
    cols, group, members = _groups(drafted[:, i - read:])
    return [base + row for row in cols.tolist()], group, members


def _prob_of(dists, group, tokens) -> np.ndarray:
    return np.stack([d.probs for d in dists])[group, tokens]


def _last_token_dist(p: Distribution, q: Distribution | None, lenience: float,
                     mutation: str | None) -> tuple[Distribution | None, str]:
    """The distribution a step samples its last token from, and its source: the
    target's extra position ``p`` if every draft was accepted (``q`` None),
    else the correction for the rejected draft's ``p`` and ``q``. A ``None``
    distribution means the draft token stands."""
    if q is None:
        return p, "extra"
    if mutation == "skip_residual":
        return p, "residual"
    if mutation == "resample_q":
        return q, "residual"
    try:
        return residual(p, q, lenience), "residual"
    except AllZeroError:
        # p <= l*q everywhere up to float underflow: rejection had
        # probability ~0, so the draft token stands.
        return None, "draft_fallback"


def decode(
    target: LanguageModel,
    draft: LanguageModel,
    prompt: Sequence[int],
    config: SpecConfig,
    *,
    bos_token: int | None = None,
) -> DecodeResult:
    """Full speculative generation loop.

    Stops once ``max_new_tokens`` tokens are kept or the stop token appears;
    a stop token inside an accepted block truncates the output right after
    it and discards the rest of the block, and a step overshooting the
    budget is truncated the same way. The number of batched target calls
    never exceeds the number of tokens kept.
    """
    def step(seq, rng):  # since the draft's last call on seq, only its last token can differ
        return speculative_step(target, draft, seq, config, rng, kept=len(seq) - 1)

    return _generate(step, target.vocab_size, prompt, config, bos_token)


def standard_decode(
    target: LanguageModel,
    prompt: Sequence[int],
    config: SpecConfig,
    *,
    bos_token: int | None = None,
) -> DecodeResult:
    """Plain autoregressive baseline: one target call per token, same standardize-then-sample
    path as the speculative engine; like ``decode``, it declares only the last token new."""
    def step(seq, rng):
        x = sample(target.next_distribution_kept(seq, config.policy, len(seq) - 1), rng)
        return [x], StepTrace(drafted=(), accepted_n=0, correction=x,
                              correction_source="standard", target_calls=1, draft_calls=0)

    return _generate(step, target.vocab_size, prompt, config, bos_token)


def _generate(step, vocab, prompt, config, bos_token) -> DecodeResult:
    """The loop both decoders share: ``step(seq, rng)`` returns the tokens one
    step appends to ``seq`` and its trace; the loop starts ``seq`` from the
    prompt (``[bos_token]`` when it is empty), checks it and the stop token
    against ``vocab`` and applies the stop-token and budget cut, totals and call guarantee."""
    seq = list(prompt)  # prompt plus kept tokens, grown in place
    if not seq:
        if bos_token is None:
            raise ValueError("empty prompt and no bos_token to inject")
        seq = [bos_token]
    check_tokens(seq if config.stop_token is None else [*seq, config.stop_token], vocab,
                 "prompt or stop")
    start = len(seq)
    rng = RandomStream(config.seed)
    traces: list[StepTrace] = []
    totals = DecodeTotals()
    while len(seq) - start < config.max_new_tokens:
        step_tokens, trace = step(seq, rng)
        totals.target_calls += trace.target_calls
        totals.draft_calls += trace.draft_calls
        traces.append(trace)
        for t in step_tokens:
            seq.append(t)
            if t == config.stop_token or len(seq) - start >= config.max_new_tokens:
                break
        if seq[-1] == config.stop_token:
            break
    tokens = seq[start:]
    totals.tokens_emitted = len(tokens)
    if totals.target_calls > totals.tokens_emitted:
        raise RuntimeError("worst-case call guarantee violated")
    return DecodeResult(tokens=tokens, traces=traces, totals=totals)
