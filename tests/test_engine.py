"""Decoding engine: the speculative step, the generation loops, lenience,
and the rejection-sampling baseline."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import engine
from specdec.distmath import AllZeroError, Distribution, SamplingPolicy, VocabMismatchError
from specdec.engine import (
    MUTATIONS,
    SpecConfig,
    argmax_lenient_accept,
    decode,
    speculative_step,
    speculative_steps,
    standard_decode,
)
from specdec.harness import equivalence_test, geometric_fit_test, rejection_baseline_step
from specdec.models import (
    CopyModel,
    LanguageModel,
    StatelessModel,
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
        monkeypatch.setattr(engine, "sample", lambda d, rng: 1)
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

    def test_trace_records_draft_probs(self):
        p, q = stateless_pair(0.6)
        cfg = SpecConfig(gamma=2, seed=3)
        tokens, trace = speculative_step(p, q, [0], cfg, RandomStream(3))
        for d in trace.drafted:
            assert d.q_prob == q.evaluate([])[d.token]
            assert d.p_prob == p.evaluate([])[d.token]


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
    """``speculative_steps`` is bitwise the scalar loop, on every path."""

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
            mp.setattr(engine, "_STEPS_PER_BLOCK", 16)  # n up to 40 spans up to three blocks
            block = speculative_steps(ZOO[target], ZOO[draft], prompt, config, block_rng, n,
                                      _mutation=mutation)
        assert_block_equals_loop(block, steps)
        assert block_rng.n_drawn == loop_rng.n_drawn == n * (2 * gamma + 1)

    @pytest.mark.parametrize("lenience", [1.0, 0.6])
    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    def test_every_pair_and_policy(self, lenience, mutation):
        # Every ordered pair of a windowed n-gram, a stateless and the copy
        # model, under every policy, with the argmax-lenient branch at 0.6.
        names = ["ngram2a", "ngram3b", "ngram1a", "stateless", "copy"]
        for target, draft in itertools.product(names, names):
            for policy in POLICIES:
                config = SpecConfig(gamma=2, policy=policy, lenience=lenience)
                loop_rng, block_rng = RandomStream(3), RandomStream(3)
                steps = scalar_steps(ZOO[target], ZOO[draft], [4, 1], config, loop_rng, 12,
                                     mutation)
                block = speculative_steps(ZOO[target], ZOO[draft], [4, 1], config, block_rng,
                                          12, _mutation=mutation)
                assert_block_equals_loop(block, steps)
                assert block_rng.n_drawn == loop_rng.n_drawn

    def test_crosses_the_real_block_boundary(self):
        p, q = stateless_pair(0.7, vocab_size=3)
        config = SpecConfig(gamma=2)
        n = engine._STEPS_PER_BLOCK + 5
        loop_rng, block_rng = RandomStream(8), RandomStream(8)
        steps = scalar_steps(p, q, [0], config, loop_rng, n)
        assert_block_equals_loop(speculative_steps(p, q, [0], config, block_rng, n), steps)
        assert block_rng.n_drawn == loop_rng.n_drawn

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

    def test_any_unique_inverse_shape(self, monkeypatch):
        # numpy 2.0.0 returned np.unique's inverse for axis=0 as a column;
        # later releases return it flat. Both must give the same steps.
        unique = np.unique

        def column_inverse(a, **kwargs):
            out = unique(a, **kwargs)
            if kwargs.get("axis") is not None and kwargs.get("return_inverse"):
                out = (out[0], out[1].reshape(-1, 1), *out[2:])
            return out

        target, draft = ZOO["ngram3a"], ZOO["ngram2b"]
        config = SpecConfig(gamma=3)
        steps = scalar_steps(target, draft, [1], config, RandomStream(2), 300)
        monkeypatch.setattr(np, "unique", column_inverse)
        block = speculative_steps(target, draft, [1], config, RandomStream(2), 300)
        assert_block_equals_loop(block, steps)

    def test_fast_path_skips_the_scalar_step(self, monkeypatch, ngram_pair):
        def refuse(*args, **kwargs):
            raise AssertionError("scalar step called")

        monkeypatch.setattr(engine, "speculative_step", refuse)
        mp, mq = ngram_pair
        report = equivalence_test(mp, mq, SpecConfig(gamma=3, seed=6), 20_000, [[0], [2]])
        assert report.verdict
        assert geometric_fit_test(0.8, 4, 10_000, seed=6).verdict

    def test_fallback_calls_the_module_step(self, monkeypatch):
        # A model without a window takes the scalar loop through
        # ``engine.speculative_step``, so a wrapper installed there sees it.
        calls = []
        step = engine.speculative_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(engine, "speculative_step", counted)
        speculative_steps(ZOO["ngram2a"], ZOO["copy"], [0], SpecConfig(gamma=2),
                          RandomStream(0), 7)
        assert len(calls) == 7

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
        monkeypatch.setattr(engine, "sample", lambda d, rng: (rng.uniform(), 1)[1])
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
        assert [t.to_dict() for t in a.traces] == [t.to_dict() for t in b.traces]

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

    def test_result_round_trips_through_dict(self, ngram_pair):
        from specdec.engine import DecodeResult

        mp, mq = ngram_pair
        res = decode(mp, mq, [0], SpecConfig(gamma=2, seed=1, max_new_tokens=12))
        again = DecodeResult.from_dict(res.to_dict())
        assert again.to_dict() == res.to_dict()


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
        probs = np.array([0.2, 0.3, 0.5])
        m = StatelessModel(probs)
        n = 1_000_000
        cfg = SpecConfig(gamma=1, seed=77, max_new_tokens=n)
        res = standard_decode(m, [0], cfg, keep_traces=False)
        freqs = np.bincount(res.tokens, minlength=3) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freqs - probs) <= 3 * sigma)

    def test_stop_token(self):
        point = StatelessModel(np.array([0.0, 0.0, 1.0]))
        res = standard_decode(point, [0], SpecConfig(gamma=1, seed=0, stop_token=2))
        assert res.tokens == [2]


class TestArgmaxLenientAccept:
    def test_strict_lenience_accepts_only_max_ties(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        assert argmax_lenient_accept(p, 0, 1.0)
        assert argmax_lenient_accept(p, 1, 1.0)
        assert not argmax_lenient_accept(p, 2, 1.0)

    def test_tiny_lenience_accepts_any_support(self):
        p = Distribution(np.array([0.999, 0.001]))
        assert argmax_lenient_accept(p, 1, 1e-9)

    def test_boundary_ties_accept(self):
        p = Distribution(np.array([0.6, 0.3, 0.1]))
        assert argmax_lenient_accept(p, 1, 0.5)  # 0.3 >= 0.5 * 0.6
        assert not argmax_lenient_accept(p, 2, 0.5)

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


class TestRejectionBaseline:
    def test_identical_models_always_accept(self):
        # M = 1, so the acceptance branch always fires: exactly two variates
        # per step (draft sample + acceptance draw), never a third.
        m = StatelessModel(np.array([0.3, 0.7]))
        rng = RandomStream(13)
        for i in range(50):
            rejection_baseline_step(m, m, [0], rng)
            assert rng.n_drawn == 2 * (i + 1)

    def test_output_distributed_as_target(self):
        p, q = random_pair(RandomStream(19), 6)
        mp, mq = StatelessModel(p.probs), StatelessModel(q.probs)
        rng = RandomStream(23)
        n = 200_000
        counts = np.zeros(6)
        for _ in range(n):
            counts[rejection_baseline_step(mp, mq, [0], rng)] += 1
        freqs = counts / n
        sigma = np.sqrt(p.probs * (1 - p.probs) / n)
        assert np.all(np.abs(freqs - p.probs) <= 4 * sigma)

    def test_acceptance_probability_hand_example(self):
        # p=[0.8, 0.2], q=[0.5, 0.5]: M=1.6, accept prob 1/M = 0.625 < alpha=0.7.
        mp = StatelessModel(np.array([0.8, 0.2]))
        mq = StatelessModel(np.array([0.5, 0.5]))
        rng = RandomStream(29)
        n = 100_000
        accepted = 0
        for _ in range(n):
            before = rng.n_drawn
            rejection_baseline_step(mp, mq, [0], rng)
            accepted += (rng.n_drawn - before) == 2
        rate = accepted / n
        se = math.sqrt(0.625 * 0.375 / n)
        assert abs(rate - 0.625) <= 4 * se


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
    "zero draft probability": raises(engine, "sample", lambda d, rng: 1, lambda: speculative_step(
        one_hot, one_hot, [0], SpecConfig(gamma=2), RandomStream(0))),
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
