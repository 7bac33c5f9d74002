"""Beam search, plain and speculative.

Both searches rank hypotheses by cumulative log-probability under plain
(policy-free) normalization, with ties broken by the lexicographically
smaller token sequence so results are fully deterministic.

The speculative variant runs draft-model beam search at a wider width for a
block of steps, then verifies the whole block against the target model with
one batched call. A draft step is accepted when the target's true top-w set
is contained in the draft's kept candidates; at the first violation the step
is recomputed from the target's own distributions (already fetched for the
verification) and a fresh block starts. Accepted or not, the surviving beams
are always identical to what plain beam search with the target alone would
produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distmath import IDENTITY_POLICY, Distribution, check_count
from .engine import check_pair, check_tokens
from .models import LanguageModel

__all__ = ["Beam", "BeamStats", "standard_beam_search", "speculative_beam_search"]


@dataclass(frozen=True)
class Beam:
    """One hypothesis: tokens generated after the prompt, with its score."""

    tokens: tuple[int, ...]
    score: float


@dataclass
class BeamStats:
    """Per-block accounting for the speculative search."""

    steps: int = 0
    accepted_steps: int = 0
    blocks: int = 0
    target_batched_calls: int = 0
    target_sequences: int = 0
    per_step_accepted: list[bool] = field(default_factory=list)

    @property
    def accept_fraction(self) -> float:
        return self.accepted_steps / self.steps if self.steps else 1.0


def _step(beams: Sequence[Beam], dists: Sequence[Distribution], width: int) -> list[Beam]:
    """The ``width`` best one-token extensions of ``beams`` (all of one length) under ``dists``,
    highest score first; rows in token order let a stable sort break ties to the smaller tokens."""
    beams, dists = zip(*sorted(zip(beams, dists), key=lambda pair: pair[0].tokens))
    with np.errstate(divide="ignore"):
        block = np.log(np.stack([d.probs for d in dists]))
    block += np.array([b.score for b in beams])[:, None]
    top = np.argsort(-block, axis=None, kind="stable")[:width]
    rows, cols = np.divmod(top, block.shape[1])
    return [Beam(beams[r].tokens + (c,), s) for r, c, s in
            zip(rows.tolist(), cols.tolist(), block.ravel()[top].tolist())]


def standard_beam_search(
    target: LanguageModel,
    prompt: Sequence[int],
    width: int,
    steps: int,
) -> list[Beam]:
    """Textbook beam search under the target model alone."""
    check_count("width", width, 1)
    check_count("steps", steps, 1)
    check_tokens(prompt, target.vocab_size, "prompt")
    prompt_list = list(prompt)
    beams = [Beam((), 0.0)]
    for _ in range(steps):
        dists = target.next_distribution_batch(
            [prompt_list + list(b.tokens) for b in beams], IDENTITY_POLICY
        )
        beams = _step(beams, dists, width)
    return beams


def speculative_beam_search(
    target: LanguageModel,
    draft: LanguageModel,
    prompt: Sequence[int],
    width: int,
    draft_width: int,
    gamma: int,
    steps: int,
) -> tuple[list[Beam], BeamStats]:
    """Beam search accelerated by a draft model, with identical results.

    ``draft_width`` (u) must be at least ``width`` (w). Each block costs one
    batched target call over at most ``w + u * (gamma - 1)`` sequences
    instead of one call per step.
    """
    check_count("width", width, 1)
    check_count("draft_width", draft_width, width)
    check_count("gamma", gamma, 1)
    check_count("steps", steps, 1)
    check_pair(target, draft)
    check_tokens(prompt, target.vocab_size, "prompt")
    prompt_list = list(prompt)

    def seqs(beams: Sequence[Beam]) -> list[list[int]]:
        return [prompt_list + list(b.tokens) for b in beams]

    exact = [Beam((), 0.0)]
    stats = BeamStats()
    while stats.steps < steps:
        block = min(gamma, steps - stats.steps)
        stats.blocks += 1

        # Draft pass: widen to u and run the block on the cheap model.
        # Draft beams inherit the exact scores of their roots; only the
        # per-step increments come from the draft model, and only the kept
        # *sets* matter for correctness.
        levels: list[list[Beam]] = []
        dbeams = exact
        for _ in range(block):
            ddists = draft.next_distribution_batch(seqs(dbeams), IDENTITY_POLICY)
            dbeams = _step(dbeams, ddists, draft_width)
            levels.append(dbeams)

        # One batched target call over the roots and every draft level but the
        # last, which the replay only uses as a kept set; beams are distinct
        # within a depth and differ in length across depths, so none repeats.
        evaluated = [b for level in (exact, *levels[:-1]) for b in level]
        eval_dists = target.next_distribution_batch(seqs(evaluated), IDENTITY_POLICY)
        tdist = {b.tokens: d for b, d in zip(evaluated, eval_dists)}
        stats.target_batched_calls += 1
        stats.target_sequences += len(evaluated)

        # Replay the exact search against the draft's kept sets.
        for level in levels:
            exact = _step(exact, [tdist[b.tokens] for b in exact], width)
            stats.steps += 1
            kept = {b.tokens for b in level}
            accepted = all(b.tokens in kept for b in exact)
            stats.per_step_accepted.append(accepted)
            if accepted:
                stats.accepted_steps += 1
            else:
                # The violated step was just recomputed from target
                # distributions; deeper draft levels no longer apply.
                break
    return exact, stats
