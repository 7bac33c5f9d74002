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

from dataclasses import dataclass, field
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
    "argmax_lenient_accept",
]

# Valid test-only fault injections for speculative_step.
MUTATIONS = ("skip_residual", "resample_q", "accept_off_by_one")

# Steps per uniform_block in speculative_steps: a few MiB of working arrays.
_STEPS_PER_BLOCK = 1 << 15


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
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if not (0.0 < self.lenience <= 1.0):
            raise ValueError("lenience must lie in (0, 1]")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


class DraftedToken(NamedTuple):
    token: int
    q_prob: float  # draft-model probability of the token at its position
    p_prob: float  # target-model probability of the token at its position


@dataclass
class StepTrace:
    """What one decoding step did: drafts, accept count, and the final token.

    ``correction_source`` is ``"residual"`` (rejection, resampled from the
    adjusted distribution), ``"extra"`` (all drafts accepted, sampled from
    the target's extra position), ``"draft_fallback"`` (rejection but the
    residual underflowed to zero, so the draft token stands), or
    ``"target_argmax"`` / ``"standard"`` for the argmax-lenient and plain
    autoregressive paths.
    """

    drafted: list[DraftedToken]
    accepted_n: int
    correction: int
    correction_source: str
    target_calls: int = 1
    draft_calls: int = 0

    @property
    def emitted(self) -> int:
        return self.accepted_n + 1

    def to_dict(self) -> dict:
        return {
            "drafted": [list(d) for d in self.drafted],
            "accepted_n": self.accepted_n,
            "correction": self.correction,
            "correction_source": self.correction_source,
            "target_calls": self.target_calls,
            "draft_calls": self.draft_calls,
        }


@dataclass
class DecodeTotals:
    target_calls: int = 0
    draft_calls: int = 0
    tokens_emitted: int = 0

    def to_dict(self) -> dict:
        return {
            "target_calls": self.target_calls,
            "draft_calls": self.draft_calls,
            "tokens_emitted": self.tokens_emitted,
        }


@dataclass
class DecodeResult:
    tokens: list[int]
    traces: list[StepTrace] = field(default_factory=list)
    totals: DecodeTotals = field(default_factory=DecodeTotals)

    def to_dict(self) -> dict:
        return {
            "tokens": self.tokens,
            "traces": [t.to_dict() for t in self.traces],
            "totals": self.totals.to_dict(),
        }


def _check_vocab(target: LanguageModel, draft: LanguageModel) -> None:
    if target.vocab_size != draft.vocab_size:
        raise VocabMismatchError(
            f"target vocab {target.vocab_size} != draft vocab {draft.vocab_size}"
        )


def _tail(prefix: Sequence[int], window: int | None) -> list[int]:
    """The trailing ``window`` tokens of ``prefix`` as a new list (all of it
    for ``None``); a window of 0 gives ``[]``, not ``prefix[-0:]``."""
    if window is None:
        return list(prefix)
    return list(prefix[-window:]) if window else []


def argmax_lenient_accept(p: Distribution, draft: int, lenience: float) -> bool:
    """Lenient acceptance for argmax decoding, applied before standardizing.

    Accepts the drafted token iff ``p[draft] >= lenience * max(p)`` on the
    raw (un-argmaxed) target distribution; ties at the boundary accept.
    With lenience 1 only tokens tied for the maximum pass, and as lenience
    approaches 0 anything with positive probability passes.
    """
    if not (0.0 < lenience <= 1.0):
        raise ValueError("lenience must lie in (0, 1]")
    return bool(p.probs[draft] >= lenience * float(p.probs.max()))


def speculative_step(
    target: LanguageModel,
    draft: LanguageModel,
    prefix: Sequence[int],
    config: SpecConfig,
    rng: RandomStream,
    *,
    _mutation: str | None = None,
) -> tuple[list[int], StepTrace]:
    """One draft/verify step; returns 1..gamma+1 appended tokens and its trace.

    ``_mutation`` injects a named, deliberately broken variant (see
    ``MUTATIONS``) so statistical tests can prove they would catch an
    incorrect engine. Production callers leave it ``None``.
    """
    if _mutation is not None and _mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {_mutation!r}")
    _check_vocab(target, draft)
    gamma, lenience, policy = config.gamma, config.lenience, config.policy

    # Argmax-lenient mode judges drafts on the raw target distribution
    # (before the argmax collapse); the exact ratio test applies otherwise.
    argmax_lenient = policy.is_argmax and lenience < 1.0

    # The step's variates, one row as in _step_block (see the module docstring).
    u = rng.uniform_block(2 * gamma + 1).tolist()

    # Each model sees only the tail of the prefix it declares it reads, so
    # the per-step cost does not grow with the prefix for windowed models.
    base = _tail(prefix, draft.context_window)
    drafts: list[int] = []
    q_dists: list[Distribution] = []
    for i in range(gamma):
        qd = draft.next_distribution(base, policy)
        x = inverse_cdf(qd, u[i])
        drafts.append(x)
        q_dists.append(qd)
        base.append(x)

    target_base = _tail(prefix, target.context_window)
    # The single designated concurrency point: one batched target call
    # covering all gamma+1 candidate prefixes, results in prefix order.
    p_dists, raw_dists = _target_views(target, [target_base + drafts[:i] for i in range(gamma + 1)],
                                       policy, argmax_lenient)

    n = gamma
    for i in range(gamma):
        x = drafts[i]
        if argmax_lenient:
            accepted = argmax_lenient_accept(raw_dists[i], x, lenience)
        else:
            q_x = float(q_dists[i].probs[x])
            # A drafted token always has positive draft probability.
            if not q_x > 0.0:
                raise RuntimeError("drafted token with zero draft probability")
            ratio = float(p_dists[i].probs[x]) / (lenience * q_x)
            accepted = not (u[gamma + i] > ratio)
        if not accepted:
            n = i
            break
    if _mutation == "accept_off_by_one" and n < gamma:
        n += 1  # deliberately accepts the rejected draft as well

    d, source = _last_token_dist(p_dists[n], q_dists[n] if n < gamma else None, lenience,
                                 _mutation, argmax_lenient)
    final = drafts[n] if d is None else inverse_cdf(d, u[2 * gamma])

    tokens = drafts[:n] + [final]
    trace = StepTrace(
        drafted=[
            DraftedToken(drafts[i], float(q_dists[i].probs[drafts[i]]), float(p_dists[i].probs[drafts[i]]))
            for i in range(gamma)
        ],
        accepted_n=n,
        correction=final,
        correction_source=source,
        target_calls=1,
        draft_calls=gamma,
    )
    return tokens, trace


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
    sampled at once with the scalar step's arithmetic.
    """
    if _mutation is not None and _mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {_mutation!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_vocab(target, draft)
    if n == 0:  # no rows to group, and a model may not be asked about no prefixes
        return StepBlock(np.empty((0, config.gamma), dtype=np.int64), *np.empty((2, 0), np.int64))
    blocks = [_step_block(target, draft, prefix, config, rng, min(_STEPS_PER_BLOCK, n - start),
                          _mutation)
              for start in range(0, n, _STEPS_PER_BLOCK)]
    return StepBlock(*map(np.concatenate, zip(*blocks)))


def _step_block(target, draft, prefix, config, rng, rows, mutation) -> StepBlock:
    gamma, lenience, policy = config.gamma, config.lenience, config.policy
    argmax_lenient = policy.is_argmax and lenience < 1.0
    u = rng.uniform_block(rows * (2 * gamma + 1)).reshape(rows, 2 * gamma + 1)
    drafts = np.empty((rows, gamma), dtype=np.int64)
    q_at = []  # per position: the distinct distributions, each row's index into them
    for i in range(gamma):
        tails, group = _tails(draft, prefix, drafts[:, :i])
        q_at.append((draft.next_distribution_batch(tails, policy), group))
        for g, d in enumerate(q_at[i][0]):
            at = group == g
            drafts[at, i] = inverse_cdf_many(d, u[at, i])
    p_at, raw_at = [], []  # as q_at for the target, and its raw views if argmax-lenient
    for i in range(gamma + 1):
        tails, group = _tails(target, prefix, drafts[:, :i])
        p_dists, raw_dists = _target_views(target, tails, policy, argmax_lenient)
        p_at.append((p_dists, group))
        raw_at.append(raw_dists)

    qx = np.column_stack([_prob_of(*q_at[i], drafts[:, i]) for i in range(gamma)])
    if argmax_lenient:  # argmax_lenient_accept, row by row
        accepted = np.column_stack([
            _prob_of(raw_at[i], p_at[i][1], drafts[:, i])
            >= lenience * np.array([d.probs.max() for d in raw_at[i]])[p_at[i][1]]
            for i in range(gamma)])
    else:
        px = np.column_stack([_prob_of(*p_at[i], drafts[:, i]) for i in range(gamma)])
        with np.errstate(divide="ignore", invalid="ignore"):
            accepted = ~(u[:, gamma:2 * gamma] > px / (lenience * qx))
    n_acc = np.where(accepted.all(axis=1), gamma, accepted.argmin(axis=1))
    # The scalar step checks each drafted token up to its first rejection.
    if not argmax_lenient and not (qx > 0.0)[np.arange(gamma) <= n_acc[:, None]].all():
        raise RuntimeError("drafted token with zero draft probability")
    if mutation == "accept_off_by_one":
        n_acc += n_acc < gamma  # deliberately accepts the rejected draft as well

    # Each row's last token, sampled by groups of rows with the same (p, q).
    u_final, final = u[:, 2 * gamma], np.empty(rows, dtype=np.int64)
    no_q = ([None], np.zeros(rows, dtype=np.int64))
    for k in range(gamma + 1):
        (p_dists, p_group), (q_dists, q_group) = p_at[k], q_at[k] if k < gamma else no_q
        at = np.flatnonzero(n_acc == k)
        pairs, pair = np.unique(np.column_stack((p_group[at], q_group[at])), axis=0,
                                return_inverse=True)
        pair = pair.reshape(-1)  # its shape varies across numpy 2.x releases
        for j, (a, b) in enumerate(pairs.tolist()):
            rows_j = at[pair == j]
            d, _ = _last_token_dist(p_dists[a], q_dists[b], lenience, mutation, argmax_lenient)
            final[rows_j] = drafts[rows_j, k] if d is None else inverse_cdf_many(d, u_final[rows_j])
    return StepBlock(drafts, n_acc, final)


def _tails(model, prefix, drafted) -> tuple[list[list[int]], np.ndarray]:
    """The distinct tails ``model`` reads once a row of ``drafted`` is appended
    to ``prefix``, in ``np.unique``'s order, and each row's index into them.
    The rows share the prefix, so only the drafted columns the model reads
    are compared; the prefix part is the same for every tail."""
    window, i = model.context_window, drafted.shape[1]
    read = i if window is None else min(i, window)
    base = _tail(prefix, None if window is None else window - read)
    cols, group = np.unique(drafted[:, i - read:], axis=0, return_inverse=True)
    return [base + row for row in cols.tolist()], group.reshape(-1)


def _target_views(target, prefixes, policy, argmax_lenient):
    """The target's distributions at ``prefixes`` under ``policy`` and, under
    argmax-lenient decoding, its raw view too (else ``None``), which the
    lenient rule judges; both views come from one ``evaluate_batch``."""
    if not argmax_lenient:
        return target.next_distribution_batch(prefixes, policy), None
    scores = target.evaluate_batch(prefixes)
    return standardize_rows(scores, policy), standardize_rows(scores, IDENTITY_POLICY)


def _prob_of(dists, group, tokens) -> np.ndarray:
    return np.stack([d.probs for d in dists])[group, tokens]


def _last_token_dist(
    p: Distribution, q: Distribution | None, lenience: float, mutation: str | None,
    argmax_lenient: bool = False,
) -> tuple[Distribution | None, str]:
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
    if argmax_lenient:
        return p, "target_argmax"
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
    keep_traces: bool = True,
) -> DecodeResult:
    """Full speculative generation loop.

    Stops once ``max_new_tokens`` tokens are kept or the stop token appears;
    a stop token inside an accepted block truncates the output right after
    it and discards the rest of the block, and a step overshooting the
    budget is truncated the same way. The number of batched target calls
    never exceeds the number of tokens kept.
    """
    _check_vocab(target, draft)
    return _generate(lambda seq, rng: speculative_step(target, draft, seq, config, rng),
                     prompt, config, bos_token, keep_traces)


def standard_decode(
    target: LanguageModel,
    prompt: Sequence[int],
    config: SpecConfig,
    *,
    bos_token: int | None = None,
    keep_traces: bool = True,
) -> DecodeResult:
    """Plain autoregressive baseline: one target call per token, same
    standardize-then-sample path as the speculative engine."""
    def step(seq, rng):
        x = sample(target.next_distribution(seq, config.policy), rng)
        return [x], StepTrace(drafted=[], accepted_n=0, correction=x,
                              correction_source="standard", target_calls=1, draft_calls=0)

    return _generate(step, prompt, config, bos_token, keep_traces)


def _generate(step, prompt, config, bos_token, keep_traces) -> DecodeResult:
    """The loop both decoders share: ``step(seq, rng)`` returns the tokens
    one step appends to ``seq`` and its trace; the loop starts ``seq`` from
    the prompt (``[bos_token]`` when it is empty) and applies ``decode``'s
    stop-token and budget cut, totals and call guarantee."""
    seq = list(prompt)  # prompt plus kept tokens, grown in place
    if not seq:
        if bos_token is None:
            raise ValueError("empty prompt and no bos_token to inject")
        seq = [bos_token]
    rng = RandomStream(config.seed)
    tokens: list[int] = []
    traces: list[StepTrace] = []
    totals = DecodeTotals()
    while len(tokens) < config.max_new_tokens:
        step_tokens, trace = step(seq, rng)
        totals.target_calls += trace.target_calls
        totals.draft_calls += trace.draft_calls
        if keep_traces:
            traces.append(trace)
        for t in step_tokens:
            tokens.append(t)
            seq.append(t)
            if t == config.stop_token or len(tokens) >= config.max_new_tokens:
                break
        if tokens[-1] == config.stop_token:
            break
    totals.tokens_emitted = len(tokens)
    if totals.target_calls > totals.tokens_emitted:
        raise RuntimeError("worst-case call guarantee violated")
    return DecodeResult(tokens=tokens, traces=traces, totals=totals)
