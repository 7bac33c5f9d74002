"""Decoding engine: the speculative step, the block kernel, the generation
loops, lenience, and the invariants that must hold under ``python -O``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import engine
from specdec.distmath import (
    AllZeroError,
    IDENTITY_POLICY,
    NegativeEntryError,
    NonFiniteError,
    SamplingPolicy,
    VocabMismatchError,
    inverse_cdf,
    inverse_cdf_many,
    residual,
)
from specdec.engine import (
    MUTATIONS,
    SpecConfig,
    _lenient_rejects,
    decode,
    speculative_step,
    speculative_steps,
    standard_decode,
)
from specdec.harness import equivalence_test, geometric_fit_test
from specdec.models import (
    CopyModel,
    LanguageModel,
    StatelessModel,
    random_model,
    stateless_pair,
    train_ngram,
)
from specdec.rng import RandomStream

from conftest import random_pair


class CountingModel(LanguageModel):
    """Counts evaluate/evaluate_batch invocations."""

    def __init__(self, inner: LanguageModel):
        self._inner = inner
        self.batch_calls = 0
        self.single_calls = 0

    @property
    def vocab_size(self) -> int:
        return self._inner.vocab_size

    def evaluate(self, prefix):
        self.single_calls += 1
        return self._inner.evaluate(prefix)

    def evaluate_batch(self, prefixes):
        self.batch_calls += 1
        return self._inner.evaluate_batch(prefixes)


class ReversedBatchModel(LanguageModel):
    """Evaluates batches in reverse internally; results stay in prefix order.

    Exercises the engine's determinism guarantee: internal batching order
    must not leak into outputs.
    """

    def __init__(self, inner: LanguageModel):
        self._inner = inner

    @property
    def vocab_size(self) -> int:
        return self._inner.vocab_size

    def evaluate(self, prefix):
        return self._inner.evaluate(prefix)

    def evaluate_batch(self, prefixes):
        done = [self._inner.evaluate(p) for p in reversed(list(prefixes))]
        return list(reversed(done))


@pytest.fixture
def ngram_pair():
    rng = RandomStream(101)
    vocab = 6
    corpus_p = [int(u * vocab) for u in rng.uniform_block(400)]
    corpus_q = [int(u * vocab) for u in rng.uniform_block(400)]
    return (
        train_ngram(corpus_p, order=2, vocab_size=vocab),
        train_ngram(corpus_q, order=2, vocab_size=vocab),
    )


class TestSpeculativeStep:
    def test_same_model_always_emits_gamma_plus_one(self):
        m = StatelessModel(np.array([0.2, 0.3, 0.5]))
        cfg = SpecConfig(gamma=4, seed=0)
        rng = RandomStream(0)
        for _ in range(50):
            tokens, trace = speculative_step(m, m, [0], cfg, rng)
            assert len(tokens) == 5
            assert trace.accepted_n == 4
            assert trace.correction_source == "extra"

    def test_zero_probability_draft_raises(self, monkeypatch):
        # A sampler that returns a token outside the draft's support breaks
        # the ratio test's precondition; the step must refuse, not divide.
        monkeypatch.setattr(engine, "inverse_cdf", lambda d, u: 1)
        m = StatelessModel(np.array([1.0, 0.0]))
        with pytest.raises(RuntimeError, match="zero draft probability"):
            speculative_step(m, m, [0], SpecConfig(gamma=2), RandomStream(0))

    def test_disjoint_support_always_rejects(self):
        p = StatelessModel(np.array([1.0, 0.0]))
        q = StatelessModel(np.array([0.0, 1.0]))
        cfg = SpecConfig(gamma=3, seed=0)
        rng = RandomStream(1)
        for _ in range(50):
            tokens, trace = speculative_step(p, q, [0], cfg, rng)
            assert tokens == [0]
            assert trace.accepted_n == 0
            assert trace.correction_source == "residual"

    def test_rng_consumption_is_fixed(self):
        # gamma drafts + gamma acceptance draws + one final draw, regardless
        # of where rejection happens.
        rng = RandomStream(7)
        pairs = [stateless_pair(a) for a in (0.0, 0.5, 1.0)]
        for gamma in (1, 3, 6):
            cfg = SpecConfig(gamma=gamma, seed=0)
            for p, q in pairs:
                before = rng.n_drawn
                speculative_step(p, q, [0], cfg, rng)
                assert rng.n_drawn - before == 2 * gamma + 1

    def test_tokens_per_step_in_range(self, ngram_pair):
        mp, mq = ngram_pair
        cfg = SpecConfig(gamma=3, seed=5)
        rng = RandomStream(5)
        ctx = [0]
        for _ in range(200):
            tokens, trace = speculative_step(mp, mq, ctx, cfg, rng)
            assert 1 <= len(tokens) <= 4
            assert trace.target_calls == 1
            assert trace.draft_calls == 3
            assert trace.emitted == len(tokens)
            ctx.extend(tokens)

    def test_vocab_mismatch(self):
        p = StatelessModel(np.array([0.5, 0.5]))
        q = StatelessModel(np.array([0.5, 0.25, 0.25]))
        with pytest.raises(VocabMismatchError):
            speculative_step(p, q, [0], SpecConfig(gamma=1), RandomStream(0))

    @pytest.mark.parametrize("fails_on", [1, 3])
    def test_failing_draft_call_leaves_the_prefix_as_it_came(self, fails_on):
        # A whole-prefix draft drafts into the caller's list; when one of its
        # calls raises, the drafts made before it must still be cut off.
        class Failing(CopyModel):
            calls = 0

            def next_distribution_kept(self, prefix, policy, kept):
                self.calls += 1
                if self.calls == fails_on:
                    raise RuntimeError("draft call failed")
                return super().next_distribution_kept(prefix, policy, kept)

        target, seq = StatelessModel(np.full(4, 0.25)), [0, 1, 2, 3, 0, 1]
        with pytest.raises(RuntimeError, match="draft call failed"):
            speculative_step(target, Failing(4), seq, SpecConfig(gamma=4), RandomStream(0),
                             kept=len(seq) - 1)
        assert seq == [0, 1, 2, 3, 0, 1]

    def test_trace_records_draft_probs(self):
        p, q = stateless_pair(0.6)
        cfg = SpecConfig(gamma=2, seed=3)
        tokens, trace = speculative_step(p, q, [0], cfg, RandomStream(3))
        for d in trace.drafted:
            assert d.q_prob == q.evaluate([])[d.token]
            assert d.p_prob == p.evaluate([])[d.token]

    @pytest.mark.parametrize("gamma", [1, 4])
    @pytest.mark.parametrize("policy, lenience", [
        (SamplingPolicy(), 1.0), (SamplingPolicy(argmax=True), 0.9),
    ], ids=["exact", "argmax-lenient"])
    def test_one_variate_block_per_step(self, ngram_pair, policy, lenience, gamma):
        target, draft = ngram_pair
        config = SpecConfig(gamma=gamma, policy=policy, lenience=lenience)
        rng, ctx, sources = RecordingStream(5), [0], set()
        for step in range(1, 31):
            tokens, trace = speculative_step(target, draft, ctx, config, rng)
            assert rng.calls == [2 * gamma + 1] * step
            ctx.extend(tokens)
            sources.add(trace.correction_source)
        assert rng.n_drawn == 30 * (2 * gamma + 1)
        assert ("target_argmax" if lenience < 1.0 else "residual") in sources

    def test_variate_layout(self):
        # Row u of a step: drafts from u[:gamma], acceptance from
        # u[gamma:2*gamma], the last token from u[2*gamma].
        p, q = random_pair(RandomStream(7), 5)
        target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
        gamma = 3
        for seed in range(40):
            u = RandomStream(seed).uniform_block(2 * gamma + 1)
            tokens, trace = speculative_step(target, draft, [0], SpecConfig(gamma=gamma),
                                             RandomStream(seed))
            drafts = [d.token for d in trace.drafted]
            assert drafts == [inverse_cdf(q, x) for x in u[:gamma]]
            ratios = p.probs[drafts] / q.probs[drafts]
            n = next((i for i in range(gamma) if u[gamma + i] > ratios[i]), gamma)
            assert trace.accepted_n == n
            last = residual(p, q) if n < gamma else p
            assert tokens == drafts[:n] + [inverse_cdf(last, u[2 * gamma])]


class RecordingStream(RandomStream):
    """Records each draw: ``n`` for ``uniform_block(n)``, ``"uniform"`` for ``uniform()``."""

    __slots__ = ("calls",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def uniform(self):
        self.calls.append("uniform")
        return super().uniform()

    def uniform_block(self, n):
        self.calls.append(n)
        return super().uniform_block(n)


# One zoo of every model class over one vocabulary for the block tests:
# n-gram orders 1-3 (windows 0-2) from two corpora, a full-support and a
# sparse stateless model (window 0), and a CopyModel (no window: fallback).
_V = 6
_ZOO_RNG = RandomStream(211)
ZOO = {
    **{f"ngram{order}{corpus}": train_ngram([int(u * _V) for u in _ZOO_RNG.uniform_block(300)],
                                            order, _V)
       for order in (1, 2, 3) for corpus in "ab"},
    "stateless": StatelessModel(np.array([0.1, 0.2, 0.3, 0.15, 0.05, 0.2])),
    "sparse": StatelessModel(np.array([0.5, 0.0, 0.3, 0.0, 0.2, 0.0])),
    "copy": CopyModel(_V),
}
POLICIES = [
    SamplingPolicy(),
    SamplingPolicy(temperature=0.7),
    SamplingPolicy(top_k=3),
    SamplingPolicy(top_p=0.8),
    SamplingPolicy(argmax=True),
]


def scalar_steps(target, draft, prefix, config, rng, n, mutation=None):
    """``n`` steps of the scalar loop: each step's tokens and trace."""
    return [speculative_step(target, draft, prefix, config, rng, _mutation=mutation)
            for _ in range(n)]


def block_or_refusal(target, draft, prefix, config, rng, n, **kwargs):
    """``speculative_steps``' block, or ``None`` where it refuses argmax-lenient
    decoding, which has no law to fit, having drawn no variate."""
    if not (config.policy.is_argmax and config.lenience < 1.0):
        return speculative_steps(target, draft, prefix, config, rng, n, **kwargs)
    drawn = rng.n_drawn
    with pytest.raises(ValueError, match="argmax-lenient"):
        speculative_steps(target, draft, prefix, config, rng, n, **kwargs)
    assert rng.n_drawn == drawn
    return None


def assert_block_equals_loop(block, steps):
    gamma = block.drafts.shape[1]
    assert block.drafts.tolist() == [[d.token for d in t.drafted] for _, t in steps]
    assert block.accepted_n.tolist() == [t.accepted_n for _, t in steps]
    assert block.correction.tolist() == [t.correction for _, t in steps]
    emitted = [[*d[:a], c] for d, a, c in
               zip(block.drafts.tolist(), block.accepted_n.tolist(), block.correction.tolist())]
    assert emitted == [tokens for tokens, _ in steps]
    for j in range(gamma + 1):
        assert block.tokens_at(j).tolist() == [
            tokens[j] if j < len(tokens) else -1 for tokens, _ in steps]


class TestSpeculativeSteps:
    """``speculative_steps`` is bitwise the scalar loop, on every path it runs."""

    @given(
        target=st.sampled_from(sorted(ZOO)),
        draft=st.sampled_from(sorted(ZOO)),
        policy=st.sampled_from(POLICIES),
        lenience=st.sampled_from([1.0, 0.6]),
        gamma=st.sampled_from([1, 3]),
        mutation=st.sampled_from([None, *MUTATIONS]),
        prompt=st.sampled_from([[], [0], [1, 2, 3], [5, 5, 4, 0, 2]]),
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=250, deadline=None)
    def test_block_equals_scalar_loop(self, target, draft, policy, lenience, gamma, mutation,
                                      prompt, n, seed):
        config = SpecConfig(gamma=gamma, policy=policy, lenience=lenience)
        loop_rng, block_rng = RandomStream(seed), RandomStream(seed)
        steps = scalar_steps(ZOO[target], ZOO[draft], prompt, config, loop_rng, n, mutation)
        with pytest.MonkeyPatch.context() as mp:
            # 16 steps a block: n up to 40 spans up to three blocks
            mp.setattr(engine, "_VARIATES_PER_BLOCK", 16 * (2 * gamma + 1))
            block = block_or_refusal(ZOO[target], ZOO[draft], prompt, config, block_rng, n,
                                     _mutation=mutation)
        assert loop_rng.n_drawn == n * (2 * gamma + 1)
        if block is not None:
            assert_block_equals_loop(block, steps)
            assert block_rng.n_drawn == loop_rng.n_drawn

    @pytest.mark.parametrize("lenience", [1.0, 0.6])
    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    def test_every_pair_and_policy(self, lenience, mutation):
        # Every ordered pair of a windowed n-gram, a stateless and the copy
        # model, under every policy; at 0.6 the block refuses argmax.
        names = ["ngram2a", "ngram3b", "ngram1a", "stateless", "copy"]
        for target, draft in itertools.product(names, names):
            for policy in POLICIES:
                config = SpecConfig(gamma=2, policy=policy, lenience=lenience)
                loop_rng, block_rng = RandomStream(3), RandomStream(3)
                steps = scalar_steps(ZOO[target], ZOO[draft], [4, 1], config, loop_rng, 12,
                                     mutation)
                block = block_or_refusal(ZOO[target], ZOO[draft], [4, 1], config, block_rng,
                                         12, _mutation=mutation)
                if block is not None:
                    assert_block_equals_loop(block, steps)
                    assert block_rng.n_drawn == loop_rng.n_drawn

    def test_crosses_the_real_block_boundary(self):
        p, q = stateless_pair(0.7, vocab_size=3)
        config = SpecConfig(gamma=4)
        n = engine._VARIATES_PER_BLOCK // (2 * config.gamma + 1) + 5
        loop_rng, block_rng = RandomStream(8), RandomStream(8)
        steps = scalar_steps(p, q, [0], config, loop_rng, n)
        assert_block_equals_loop(speculative_steps(p, q, [0], config, block_rng, n), steps)
        assert block_rng.n_drawn == loop_rng.n_drawn

    @pytest.mark.parametrize("lenience", [1.0, 0.6])
    def test_window_zero_pair_across_forced_blocks(self, monkeypatch, lenience):
        # 200 steps of a stateless pair in 13 blocks of 16 rows.
        p, q = stateless_pair(0.7, vocab_size=3)
        config = SpecConfig(gamma=4, lenience=lenience)
        steps = scalar_steps(p, q, [0], config, RandomStream(8), 200)
        monkeypatch.setattr(engine, "_VARIATES_PER_BLOCK", 16 * (2 * config.gamma + 1))
        assert_block_equals_loop(speculative_steps(p, q, [0], config, RandomStream(8), 200), steps)

    @pytest.mark.parametrize("gamma", [2, 4])
    def test_window_zero_pair_runs_in_one_block(self, monkeypatch, gamma):
        # Its rows share one distribution per position, so V does not cap the block.
        vocab, n = 10**5, 10**4
        probs = RandomStream(gamma).uniform_block(2 * vocab).reshape(2, vocab) + 0.5
        p, q = StatelessModel(probs[0] / probs[0].sum()), StatelessModel(probs[1] / probs[1].sum())
        rng, calls = RecordingStream(1), []
        monkeypatch.setattr(engine, "residual", lambda *args: calls.append(args) or residual(*args))
        block = speculative_steps(p, q, [0], SpecConfig(gamma=gamma), rng, n)
        assert rng.calls == [n * (2 * gamma + 1)]
        assert 0 < len(calls) <= gamma
        assert (block.accepted_n < gamma).any()

    def test_windowed_pair_keeps_blocks_bounded_by_vocab(self):
        # One windowed model is enough for rows to hold their own V floats:
        # MAX_BLOCK // 4096 variates are 455 rows at gamma 4, so 5 blocks.
        vocab, n, config = 4096, 2000, SpecConfig(gamma=4)
        corpus = (RandomStream(2).uniform_block(6000) * vocab).astype(int).tolist()
        target, draft = train_ngram(corpus, 2, vocab), random_model(vocab)
        loop_rng, block_rng = RandomStream(5), RecordingStream(5)
        steps = scalar_steps(target, draft, [corpus[0]], config, loop_rng, n)
        block = speculative_steps(target, draft, [corpus[0]], config, block_rng, n)
        assert block_rng.calls == [455 * 9] * 4 + [180 * 9]
        assert_block_equals_loop(block, steps)

    def test_blocks_bounded_by_max_block(self, monkeypatch):
        # Each row keeps distributions of V floats: a whole-prefix copy draft
        # reads a different tail per row. With MAX_BLOCK at 9 * V * 8, blocks
        # are 8 rows at gamma 4; 300 rows in one block peak near 7 MiB.
        vocab, config, n = 1024, SpecConfig(gamma=4), 300
        corpus = (RandomStream(1).uniform_block(4000) * vocab).astype(int).tolist()
        target, prompt = train_ngram(corpus, 3, vocab), corpus[:40] + corpus[:20]
        monkeypatch.setattr(engine, "MAX_BLOCK", 9 * vocab * 8)
        loop_rng, block_rng = RandomStream(1), RandomStream(1)
        steps = scalar_steps(target, CopyModel(vocab), prompt, config, loop_rng, n)
        tracemalloc.start()
        try:
            block = speculative_steps(target, CopyModel(vocab), prompt, config, block_rng, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_block_equals_loop(block, steps)
        assert block_rng.n_drawn == loop_rng.n_drawn
        assert peak <= 3 * 2**20

    def test_draft_fallback_matches(self, monkeypatch):
        # A residual with no mass takes float underflow to reach honestly, so
        # every residual is made to have none: each rejected draft then stands.
        def no_mass(p, q, lenience):
            raise AllZeroError("no mass")

        monkeypatch.setattr(engine, "residual", no_mass)
        target, draft = ZOO["ngram2a"], ZOO["ngram1b"]
        config = SpecConfig(gamma=3)
        loop_rng, block_rng = RandomStream(4), RandomStream(4)
        steps = scalar_steps(target, draft, [0], config, loop_rng, 200)
        assert {t.correction_source for _, t in steps} >= {"draft_fallback", "extra"}
        block = speculative_steps(target, draft, [0], config, block_rng, 200)
        assert_block_equals_loop(block, steps)

    def test_groups_rows_without_row_wise_unique(self, monkeypatch):
        # Rows are grouped by one stable integer sort. np.unique(axis=...)
        # sorts void-dtype records with generic compares, many times slower,
        # so with it refused a window-2 pair must still equal the scalar loop.
        unique = np.unique

        def flat_only(a, *args, **kwargs):
            assert kwargs.get("axis", args[3] if len(args) > 3 else None) is None
            return unique(a, *args, **kwargs)

        target, draft = ZOO["ngram3a"], ZOO["ngram2b"]
        config = SpecConfig(gamma=3)
        steps = scalar_steps(target, draft, [1], config, RandomStream(2), 300)
        monkeypatch.setattr(np, "unique", flat_only)
        block = speculative_steps(target, draft, [1], config, RandomStream(2), 300)
        assert_block_equals_loop(block, steps)

    @pytest.mark.parametrize("policy", [SamplingPolicy(), SamplingPolicy(top_k=2)])
    @pytest.mark.parametrize("names", [("ngram3a", "copy"), ("copy", "ngram3b")])
    def test_whole_prefix_copy_pair_at_gamma_five(self, names, policy):
        # The copy model reads every drafted token, so tails are compared on
        # up to five columns, and rows that share a last column part ways.
        target, draft = (ZOO[name] for name in names)
        config, prompt = SpecConfig(gamma=5, policy=policy), [4, 1, 2, 4, 1, 2, 4]
        steps = scalar_steps(target, draft, prompt, config, RandomStream(9), 300)
        block = speculative_steps(target, draft, prompt, config, RandomStream(9), 300)
        assert_block_equals_loop(block, steps)
        tails = {tuple(row) for row in block.drafts[:, :4].tolist()}
        assert len(tails) > len({tail[-1] for tail in tails})

    @pytest.mark.parametrize("draft", ["bigram", "copy"])
    def test_pair_past_two_to_the_sixteen(self, draft):
        # Tokens at and above 2**16: a 16-bit sort key would merge 0 with
        # 2**16, and four drafted columns would overflow one int64 code in
        # base V; the grouping must do neither.
        vocab = (1 << 16) + 5
        tokens = [0, 7, 40_000, vocab - 6, vocab - 5, vocab - 4, vocab - 1]
        corpus = [tokens[int(u * len(tokens))] for u in RandomStream(3).uniform_block(3000)]
        target = train_ngram(corpus, 3, vocab, smoothing_k=1e-4)
        models = {"bigram": train_ngram(corpus[::-1], 2, vocab, smoothing_k=1e-4),
                  "copy": CopyModel(vocab)}
        config, prompt = SpecConfig(gamma=4), corpus[:12] + corpus[:6]
        steps = scalar_steps(target, models[draft], prompt, config, RandomStream(4), 120)
        block = speculative_steps(target, models[draft], prompt, config, RandomStream(4), 120)
        assert_block_equals_loop(block, steps)
        assert block.drafts.max() >= 1 << 16

    def test_fast_path_skips_the_scalar_step(self, monkeypatch, ngram_pair):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar step called")

        monkeypatch.setattr(engine, "speculative_step", refuse)
        mp, mq = ngram_pair
        report = equivalence_test(mp, mq, SpecConfig(gamma=3, seed=6), 20_000, [[0], [2]])
        assert report.verdict
        assert geometric_fit_test(0.8, 4, 10_000, seed=6).verdict

    def test_every_pair_takes_the_block_path(self, monkeypatch):
        # No window and no policy sends a block back to the scalar step: with
        # it refusing to run, windowless pairs and a lenient pair still equal
        # the scalar loop, computed before the patch, and argmax-lenient
        # decoding is refused rather than handed to it.
        cases = [("copy", "copy", SpecConfig(gamma=3)),
                 ("ngram2a", "copy", SpecConfig(gamma=3, policy=SamplingPolicy(top_p=0.8))),
                 ("ngram3a", "ngram2b",
                  SpecConfig(gamma=3, policy=SamplingPolicy(temperature=0.7), lenience=0.5))]
        prefix = [4, 1, 2, 4, 1, 2]
        expected = [scalar_steps(ZOO[t], ZOO[d], prefix, cfg, RandomStream(5), 80)
                    for t, d, cfg in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("scalar step called")

        monkeypatch.setattr(engine, "speculative_step", refuse)
        for (t, d, cfg), steps in zip(cases, expected):
            block = speculative_steps(ZOO[t], ZOO[d], prefix, cfg, RandomStream(5), 80)
            assert_block_equals_loop(block, steps)
        argmax_lenient = SpecConfig(gamma=3, policy=SamplingPolicy(argmax=True), lenience=0.5)
        assert block_or_refusal(ZOO["ngram3a"], ZOO["ngram2b"], prefix, argmax_lenient,
                                RandomStream(5), 80) is None

    def test_windowless_block_builds_no_prefix_wide_array(self):
        # Rows share the prefix, so a None window costs the distinct tails,
        # not an (n, prefix + drafts) array: 40 MB here.
        prefix = [int(u * _V) for u in RandomStream(12).uniform_block(5000)]
        tracemalloc.start()
        try:
            speculative_steps(ZOO["ngram2a"], CopyModel(_V), prefix, SpecConfig(gamma=3),
                              RandomStream(1), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_block_memory_does_not_grow_with_gamma(self):
        # A block holds a bounded number of variates, not of steps: at gamma
        # 300 a step draws 601, and one block of all 1500 steps peaks at 31 MiB.
        p, q = stateless_pair(0.8)
        tracemalloc.start()
        try:
            block = speculative_steps(p, q, [0], SpecConfig(gamma=300), RandomStream(1), 1500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.drafts.shape == (1500, 300)
        assert peak < 20 * 2**20

    def test_zero_probability_checked_up_to_first_rejection(self, monkeypatch):
        # A sampler that always returns token 1 drafts it at position 1 with
        # draft probability 0, but the target rejects position 0 first, so the
        # scalar step never looks at position 1 and neither may the block.
        class AfterOne(LanguageModel):
            context_window = 1
            vocab_size = 2

            def evaluate(self, prefix):
                return np.array([1.0, 0.0]) if prefix and prefix[-1] == 1 else np.array([0.5, 0.5])

        target = StatelessModel(np.array([1.0, 0.0]))
        monkeypatch.setattr(engine, "inverse_cdf", lambda d, u: 1)
        monkeypatch.setattr(engine, "inverse_cdf_many",
                            lambda d, u: np.ones(len(u), dtype=np.int64))
        config = SpecConfig(gamma=2)
        steps = scalar_steps(target, AfterOne(), [0], config, RandomStream(1), 5)
        block = speculative_steps(target, AfterOne(), [0], config, RandomStream(1), 5)
        assert block.accepted_n.tolist() == [t.accepted_n for _, t in steps] == [0] * 5
        # At position 0 the same sampler does trip the check.
        with pytest.raises(RuntimeError, match="zero draft probability"):
            speculative_steps(target, target, [0], config, RandomStream(1), 5)

    def test_argument_checks(self):
        p, q = stateless_pair(0.5)
        config = SpecConfig(gamma=2)
        with pytest.raises(ValueError, match="mutation"):
            speculative_steps(p, q, [0], config, RandomStream(0), 3, _mutation="nope")
        with pytest.raises(ValueError, match="n must be"):
            speculative_steps(p, q, [0], config, RandomStream(0), -1)
        with pytest.raises(VocabMismatchError):
            speculative_steps(p, StatelessModel(np.ones(3) / 3), [0], config, RandomStream(0), 3)
        empty = speculative_steps(p, q, [0], config, RandomStream(0), 0)
        assert empty.drafts.shape == (0, 2) and empty.tokens_at(0).shape == (0,)

    @pytest.mark.parametrize("n", [0, 5])
    def test_argmax_lenient_refused_before_any_draw_or_call(self, n):
        # Argmax below lenience 1 has no law to fit, so the block kernel
        # refuses it before it draws a variate or asks either model anything.
        asked = []

        class Asked(StatelessModel):
            def __getattribute__(self, name):
                value = super().__getattribute__(name)
                if callable(value) and not name.startswith("_"):
                    asked.append(name)
                return value

        target, draft = Asked(np.array([0.2, 0.3, 0.5])), Asked(np.array([0.5, 0.3, 0.2]))
        config = SpecConfig(gamma=2, policy=SamplingPolicy(argmax=True), lenience=0.5)
        rng = RecordingStream(0)
        with pytest.raises(ValueError, match="argmax-lenient"):
            speculative_steps(target, draft, [0], config, rng, n)
        assert rng.n_drawn == 0 and rng.calls == []
        assert asked == []
        speculative_steps(target, draft, [0], SpecConfig(gamma=2), rng, 1)
        assert rng.n_drawn == 5 and asked  # the recording sees a run that is not refused


class BadAfterPrompt(LanguageModel):
    """Good scores at the one-token prompt and ``bad`` ones at every longer
    prefix, so only the prefixes that end in drafted tokens see them."""

    vocab_size = 3

    def __init__(self, bad):
        self.bad = np.array(bad)

    def evaluate(self, prefix):
        return self.bad if len(prefix) > 1 else np.array([0.2, 0.3, 0.5])


class TestBadTargetScores:
    # Scores are checked once, where they enter distmath; a target's bad row at
    # a drafted prefix must still raise its named error on every policy path.
    @pytest.mark.parametrize("bad, named", [
        ([np.nan, 0.5, 0.5], NonFiniteError),
        ([-0.1, 0.6, 0.5], NegativeEntryError),
        ([0.0, 0.0, 0.0], AllZeroError),
    ], ids=["nan", "negative", "all-zero"])
    @pytest.mark.parametrize("policy, lenience", [
        (IDENTITY_POLICY, 1.0),
        (SamplingPolicy(temperature=0.7, top_k=2), 0.6),
        (SamplingPolicy(argmax=True), 0.5),  # argmax-lenient: raw and argmax views, one kernel
    ], ids=["identity", "temperature-top-k", "argmax-lenient"])
    def test_raises_named_error(self, bad, named, policy, lenience):
        draft = StatelessModel(np.array([0.2, 0.3, 0.5]))
        config = SpecConfig(gamma=2, policy=policy, lenience=lenience)
        with pytest.raises(named):
            speculative_step(BadAfterPrompt(bad), draft, [0], config, RandomStream(0))
        if policy.is_argmax and lenience < 1.0:  # the block kernel refuses, asking nothing
            assert block_or_refusal(BadAfterPrompt(bad), draft, [0], config, RandomStream(0),
                                    8) is None
            return
        with pytest.raises(named):
            speculative_steps(BadAfterPrompt(bad), draft, [0], config, RandomStream(0), 8)


class TestSpecConfig:
    @pytest.mark.parametrize("name, value", [
        ("gamma", 2.0), ("max_new_tokens", 2.5), ("seed", 1.5), ("seed", "1"),
    ])
    def test_non_integral_integer_field_is_named(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SpecConfig(**{"gamma": 2, name: value})

    def test_numpy_integers_pass(self):
        config = SpecConfig(gamma=np.int64(2), seed=np.uint32(3), max_new_tokens=np.int8(5))
        p, q = stateless_pair(0.5)
        plain = SpecConfig(gamma=2, seed=3, max_new_tokens=5)
        assert decode(p, q, [0], config).tokens == decode(p, q, [0], plain).tokens


def _ngram_pair_v4():
    corpus = [int(u * 4) for u in RandomStream(17).uniform_block(200)]
    return train_ngram(corpus, 3, 4), train_ngram(corpus, 2, 4)


class TestRequestTokens:
    # Prompt (or injected BOS) and stop tokens are checked once against the
    # target's vocabulary, before any step, for both decoders.
    @pytest.mark.parametrize("draft", ["bigram", "copy"])
    @pytest.mark.parametrize("prompt, bos, stop, named", [
        ([9, -2], None, None, r"\[9, -2\]"),
        ([], 77, None, r"\[77\]"),
        ([0, 1], None, 99, r"\[99\]"),
        ([0, 4], None, -1, r"\[4, -1\]"),
        ([0, 1.5], None, 2.5, r"\[1.5, 2.5\]"),
    ], ids=["prompt", "bos", "stop", "both", "non-integer"])
    def test_not_a_token_id_raises(self, draft, prompt, bos, stop, named):
        target, bigram = _ngram_pair_v4()
        config = SpecConfig(gamma=3, max_new_tokens=8, stop_token=stop)
        message = rf"tokens {named} are not token ids in \[0, 4\)"
        with pytest.raises(ValueError, match=message):
            decode(target, bigram if draft == "bigram" else CopyModel(4), prompt, config,
                   bos_token=bos)
        with pytest.raises(ValueError, match=message):
            standard_decode(target, prompt, config, bos_token=bos)

    def test_vocab_edges_pass(self):
        target, draft = _ngram_pair_v4()
        config = SpecConfig(gamma=3, max_new_tokens=8, stop_token=3)
        assert decode(target, draft, np.array([0, 3]), config).tokens
        assert standard_decode(target, [], config, bos_token=0).tokens


class TestDecode:
    def test_max_one_token(self):
        p, q = stateless_pair(0.9)
        res = decode(p, q, [0], SpecConfig(gamma=4, seed=2, max_new_tokens=1))
        assert len(res.tokens) == 1
        assert res.totals.target_calls == 1

    def test_stop_token_truncates_inside_block(self):
        # Same model: every draft accepted, so the stop token arrives inside
        # an accepted block and must cut the block short.
        m = StatelessModel(np.array([0.5, 0.5]))
        cfg = SpecConfig(gamma=4, seed=11, max_new_tokens=64, stop_token=1)
        res = decode(m, m, [0], cfg)
        assert res.tokens[-1] == 1
        assert 1 not in res.tokens[:-1]
        assert len(res.tokens) <= 64

    def test_stop_token_first_position(self):
        point = StatelessModel(np.array([0.0, 1.0]))
        res = decode(point, point, [0], SpecConfig(gamma=3, seed=0, stop_token=1))
        assert res.tokens == [1]

    def test_overshoot_truncated_to_budget(self):
        m = StatelessModel(np.array([0.3, 0.7]))
        res = decode(m, m, [0], SpecConfig(gamma=5, seed=1, max_new_tokens=7))
        assert len(res.tokens) == 7

    def test_empty_prompt_needs_bos(self):
        m = StatelessModel(np.array([1.0]))
        with pytest.raises(ValueError):
            decode(m, m, [], SpecConfig(gamma=1))
        res = decode(m, m, [], SpecConfig(gamma=1, max_new_tokens=2), bos_token=0)
        assert res.tokens == [0, 0]

    def test_worst_case_call_guarantee(self, ngram_pair):
        mp, mq = ngram_pair
        for seed in range(10):
            for gamma in (1, 2, 5):
                res = decode(mp, mq, [0], SpecConfig(gamma=gamma, seed=seed, max_new_tokens=40))
                assert res.totals.target_calls <= res.totals.tokens_emitted

    def test_determinism_bitwise(self, ngram_pair):
        mp, mq = ngram_pair
        cfg = SpecConfig(gamma=3, seed=99, max_new_tokens=50)
        a = decode(mp, mq, [0], cfg)
        b = decode(mp, mq, [0], cfg)
        assert a.tokens == b.tokens
        assert a.traces == b.traces

    def test_determinism_independent_of_batch_internals(self, ngram_pair):
        mp, mq = ngram_pair
        cfg = SpecConfig(gamma=3, seed=42, max_new_tokens=50)
        plain = decode(mp, mq, [0], cfg)
        shuffled = decode(ReversedBatchModel(mp), mq, [0], cfg)
        assert plain.tokens == shuffled.tokens

    def test_totals_consistent_with_traces(self, ngram_pair):
        mp, mq = ngram_pair
        res = decode(mp, mq, [0], SpecConfig(gamma=2, seed=7, max_new_tokens=30))
        assert res.totals.target_calls == sum(t.target_calls for t in res.traces)
        assert res.totals.draft_calls == sum(t.draft_calls for t in res.traces)
        assert res.totals.tokens_emitted <= sum(t.emitted for t in res.traces)

    def test_high_alpha_generates_38_tokens_in_9_calls(self):
        # Qualitative reproduction of a long generation from few target runs.
        p, q = stateless_pair(0.95, vocab_size=4)
        res = decode(p, q, [0], SpecConfig(gamma=7, seed=123, max_new_tokens=38))
        assert len(res.tokens) == 38
        assert res.totals.target_calls <= 9

    def test_call_guarantee_violation_raises(self, monkeypatch):
        # A step that reports two target calls per emitted token breaks the
        # worst-case guarantee decode checks before returning.
        step = engine.speculative_step

        def costly_step(*args, **kwargs):
            tokens, trace = step(*args, **kwargs)
            trace.target_calls = 2 * len(tokens)
            return tokens, trace

        monkeypatch.setattr(engine, "speculative_step", costly_step)
        p, q = stateless_pair(0.5)
        with pytest.raises(RuntimeError, match="worst-case call guarantee"):
            decode(p, q, [0], SpecConfig(gamma=2, seed=3, max_new_tokens=10))

    def test_result_dict_is_plain_json(self, ngram_pair):
        mp, mq = ngram_pair
        res = decode(mp, mq, [0], SpecConfig(gamma=2, seed=1, max_new_tokens=12))
        d = json.loads(json.dumps(res.to_dict()))
        assert d["tokens"] == res.tokens
        assert d["totals"] == vars(res.totals)
        assert d["traces"] == [
            {f.name: getattr(t, f.name) for f in dataclasses.fields(t)}
            | {"drafted": [list(x) for x in t.drafted]} for t in res.traces
        ]


class TestStandardDecode:
    def test_one_call_per_token(self):
        m = StatelessModel(np.array([0.4, 0.6]))
        res = standard_decode(m, [0], SpecConfig(gamma=1, seed=0, max_new_tokens=17))
        assert res.totals.target_calls == 17
        assert res.totals.tokens_emitted == 17

    def test_reproducible(self):
        m = StatelessModel(np.array([0.4, 0.6]))
        cfg = SpecConfig(gamma=1, seed=31, max_new_tokens=25)
        assert standard_decode(m, [0], cfg).tokens == standard_decode(m, [0], cfg).tokens

    def test_empirical_frequencies_three_sigma(self):
        # The 10^6 seed-77 tokens are drawn in one inverse_cdf_many call;
        # standard_decode's first 10^4 of them must be the same tokens.
        probs = np.array([0.2, 0.3, 0.5])
        m = StatelessModel(probs)
        n = 1_000_000
        tokens = inverse_cdf_many(m.next_distribution([0], IDENTITY_POLICY),
                                  RandomStream(77).uniform_block(n))
        cfg = SpecConfig(gamma=1, seed=77, max_new_tokens=10_000)
        assert standard_decode(m, [0], cfg).tokens == tokens[:10_000].tolist()
        freqs = np.bincount(tokens, minlength=3) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freqs - probs) <= 3 * sigma)

    def test_traces_retain_few_bytes_per_token(self):
        # Every step keeps its trace in the result. With slots and a shared
        # empty draft tuple a standard token retains about 97 bytes; a
        # __dict__ and a list per trace would double that.
        m = StatelessModel(np.array([0.2, 0.3, 0.5]))
        standard_decode(m, [0], SpecConfig(gamma=1, max_new_tokens=10))  # first-use allocations
        n = 10_000
        tracemalloc.start()
        try:
            res = standard_decode(m, [0], SpecConfig(gamma=1, seed=5, max_new_tokens=n))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.traces) == n
        assert size / n <= 128

    def test_stop_token(self):
        point = StatelessModel(np.array([0.0, 0.0, 1.0]))
        res = standard_decode(point, [0], SpecConfig(gamma=1, seed=0, stop_token=2))
        assert res.tokens == [2]


def lenient_rejects_each(p, lenience):
    """``_lenient_rejects`` for every token of ``p``, asked one float at a time
    as ``speculative_step`` asks."""
    return [_lenient_rejects(float(x), float(p.max()), lenience) for x in p]


class TestArgmaxLenientAccept:
    def test_strict_lenience_accepts_only_max_ties(self):
        assert lenient_rejects_each(np.array([0.5, 0.5, 0.0]), 1.0) == [False, False, True]

    def test_tiny_lenience_accepts_any_support(self):
        assert lenient_rejects_each(np.array([0.999, 0.001]), 1e-9) == [False, False]

    def test_boundary_ties_accept(self):
        # 0.3 >= 0.5 * 0.6 exactly: a tie at the boundary accepts
        assert lenient_rejects_each(np.array([0.6, 0.3, 0.1]), 0.5) == [False, False, True]

    def test_argmax_decode_with_lenience_one_is_greedy(self):
        target = StatelessModel(np.array([0.6, 0.3, 0.1]))
        draft = StatelessModel(np.array([0.3, 0.6, 0.1]))
        cfg = SpecConfig(gamma=2, seed=5, max_new_tokens=8, policy=SamplingPolicy(argmax=True))
        spec = decode(target, draft, [0], cfg)
        greedy = standard_decode(target, [0], cfg)
        assert spec.tokens == greedy.tokens == [0] * 8

    def test_argmax_lenient_uses_one_batched_target_call(self):
        target = CountingModel(StatelessModel(np.array([0.6, 0.3, 0.1])))
        draft = StatelessModel(np.array([0.3, 0.6, 0.1]))
        cfg = SpecConfig(gamma=3, seed=1, policy=SamplingPolicy(argmax=True), lenience=0.5)
        _, trace = speculative_step(target, draft, [0], cfg, RandomStream(1))
        assert target.batch_calls == 1
        assert trace.target_calls == 1

    def test_argmax_lenient_decode_accepts_runner_up(self):
        # p(draft argmax) = 0.3 = 0.5 * max(p): boundary accepts, so the
        # draft's token 1 streams through while strict argmax would not.
        target = StatelessModel(np.array([0.6, 0.3, 0.1]))
        draft = StatelessModel(np.array([0.3, 0.6, 0.1]))
        cfg = SpecConfig(
            gamma=2, seed=5, max_new_tokens=6,
            policy=SamplingPolicy(argmax=True), lenience=0.5,
        )
        res = decode(target, draft, [0], cfg)
        assert 1 in res.tokens
        for trace in res.traces:
            assert trace.accepted_n == 2
            assert trace.correction_source == "extra"


# Triggers each invariant of the engine and harness by patching, as the
# monkeypatched tests above do, and reports any that stay silent. It runs
# under ``python -O``, so it checks with ``if``, never ``assert``.
_INVARIANTS_SCRIPT = """
import sys
import numpy as np
from specdec import engine, harness
from specdec.engine import SpecConfig, decode, speculative_step
from specdec.harness import rejection_comparison
from specdec.models import StatelessModel, stateless_pair
from specdec.rng import RandomStream

def raises(module, name, value, call):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        call()
    except RuntimeError:
        return True
    finally:
        setattr(module, name, saved)
    return False

step = engine.speculative_step

def costly_step(*args, **kwargs):
    tokens, trace = step(*args, **kwargs)
    trace.target_calls = 2 * len(tokens)
    return tokens, trace

one_hot = StatelessModel(np.array([1.0, 0.0]))
p, q = stateless_pair(0.5)
checks = {
    "zero draft probability": raises(engine, "inverse_cdf", lambda d, u: 1,
                                     lambda: speculative_step(one_hot, one_hot, [0],
                                                              SpecConfig(gamma=2), RandomStream(0))),
    "zero draft probability in a block": raises(
        engine, "inverse_cdf_many", lambda d, u: np.ones(len(u), dtype=np.int64),
        lambda: engine.speculative_steps(one_hot, one_hot, [0], SpecConfig(gamma=2),
                                         RandomStream(0), 5)),
    "call guarantee": raises(engine, "speculative_step", costly_step, lambda: decode(
        p, q, [0], SpecConfig(gamma=2, seed=3, max_new_tokens=10))),
    "rejection ordering": raises(harness, "beta", lambda p, q: 0.0, lambda: rejection_comparison(
        StatelessModel(np.array([0.8, 0.2])), StatelessModel(np.array([0.5, 0.5])), [[0]])),
}
if __debug__:
    sys.exit("assertions are on: not running under -O")
silent = [name for name, raised in checks.items() if not raised]
if silent:
    sys.exit("no RuntimeError from: " + ", ".join(silent))
print("all invariants raised")
"""


def test_invariants_hold_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _INVARIANTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "all invariants raised"
