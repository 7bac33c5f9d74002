"""Probability-vector arithmetic: normalization, policy transforms, sampling,
residuals, and the min-overlap divergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.analysis import beta
from specdec.distmath import (
    AllZeroError,
    Distribution,
    IDENTITY_POLICY,
    NegativeEntryError,
    NonFiniteError,
    PolicyConflictError,
    SamplingPolicy,
    VocabMismatchError,
    inverse_cdf,
    normalize,
    residual,
    sample,
    sample_many,
    standardize,
)
from specdec.rng import RandomStream

from conftest import paired_probs_strategy, probs_strategy, random_pair


class TestDistribution:
    def test_renormalizes_small_drift(self):
        d = Distribution(np.array([0.5, 0.5 + 5e-7]))
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            Distribution(np.array([-0.1, 1.1]))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Distribution(np.array([np.nan, 1.0]))

    def test_immutable(self):
        d = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestNormalize:
    def test_single_support(self):
        np.testing.assert_array_equal(normalize(np.array([0.0, 0.5])).probs, [0.0, 1.0])

    def test_proportionality(self):
        np.testing.assert_allclose(
            normalize(np.array([1.0, 1.0, 2.0])).probs, [0.25, 0.25, 0.5]
        )

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            normalize(np.array([0.0, 0.0]))

    def test_negative(self):
        with pytest.raises(NegativeEntryError):
            normalize(np.array([-1.0, 2.0]))

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            normalize(np.array([np.inf, 1.0]))


class TestStandardize:
    def test_argmax_ties_uniform(self):
        d = standardize(np.array([1.0, 1.0, 0.0]), SamplingPolicy(argmax=True))
        np.testing.assert_allclose(d.probs, [0.5, 0.5, 0.0])

    def test_temperature_zero_is_argmax(self):
        d = standardize(np.array([0.2, 0.7, 0.1]), SamplingPolicy(temperature=0.0))
        np.testing.assert_allclose(d.probs, [0.0, 1.0, 0.0])

    def test_top_k(self):
        d = standardize(np.array([0.5, 0.3, 0.2]), SamplingPolicy(top_k=2))
        np.testing.assert_allclose(d.probs, [0.625, 0.375, 0.0])

    def test_top_p(self):
        # cumulative 0.5 < 0.7 <= 0.8 keeps exactly two entries
        d = standardize(np.array([0.5, 0.3, 0.2]), SamplingPolicy(top_p=0.7))
        np.testing.assert_allclose(d.probs, [0.625, 0.375, 0.0])

    def test_top_p_boundary_binary_rounding(self):
        # 0.5 + 0.3 is 0.8 up to binary rounding; the boundary must still
        # keep two entries, not three.
        d = standardize(np.array([0.5, 0.3, 0.2]), SamplingPolicy(top_p=0.8))
        assert d.probs[2] == 0.0

    def test_temperature_logits_matches_softmax(self):
        logits = np.array([1.0, -0.5, 2.0, 0.0])
        t = 0.7
        d = standardize(logits, SamplingPolicy(temperature=t), from_logits=True)
        e = np.exp(logits / t)
        np.testing.assert_allclose(d.probs, e / e.sum(), atol=1e-14)

    def test_temperature_probs_power_renormalizes(self):
        p = np.array([0.5, 0.3, 0.2])
        d = standardize(p, SamplingPolicy(temperature=0.5))
        expect = p**2 / (p**2).sum()
        np.testing.assert_allclose(d.probs, expect, atol=1e-14)

    def test_composition_order_temperature_topk_topp(self):
        # Temperature sharpens first, then top-k trims, then top-p trims again.
        p = np.array([0.4, 0.3, 0.2, 0.1])
        policy = SamplingPolicy(temperature=0.5, top_k=3, top_p=0.8)
        stage1 = p**2 / (p**2).sum()                      # [.533, .3, .133, .033]
        kept = stage1.copy(); kept[3] = 0.0
        stage2 = kept / kept.sum()                        # top-3
        order = np.argsort(-stage2, kind="stable")
        csum = np.cumsum(stage2[order])
        cut = int(np.searchsorted(csum, 0.8 - 1e-9))
        kept2 = np.zeros_like(stage2)
        kept2[order[: cut + 1]] = stage2[order[: cut + 1]]
        expect = kept2 / kept2.sum()
        d = standardize(p, policy)
        np.testing.assert_allclose(d.probs, expect, atol=1e-14)

    def test_argmax_conflicts(self):
        with pytest.raises(PolicyConflictError):
            SamplingPolicy(argmax=True, top_k=3)
        with pytest.raises(PolicyConflictError):
            SamplingPolicy(temperature=0.0, top_p=0.5)

    def test_top_k_exceeds_vocab(self):
        with pytest.raises(PolicyConflictError):
            standardize(np.array([0.5, 0.5]), SamplingPolicy(top_k=3))

    @given(probs_strategy())
    @settings(max_examples=100, deadline=None)
    def test_identity_policy_is_identity(self, p):
        d = standardize(p, IDENTITY_POLICY)
        np.testing.assert_allclose(d.probs, p, atol=1e-12)


class TestSample:
    def test_point_mass(self):
        d = Distribution(np.array([0.0, 1.0, 0.0]))
        rng = RandomStream(0)
        assert all(sample(d, rng) == 1 for _ in range(20))

    def test_inverse_cdf_quantile(self):
        d = Distribution(np.array([0.5, 0.5]))
        assert inverse_cdf(d, 0.25) == 0
        assert inverse_cdf(d, 0.75) == 1

    def test_consumes_exactly_one_variate(self):
        d = Distribution(np.array([0.2, 0.3, 0.5]))
        rng = RandomStream(5)
        for expected in range(1, 30):
            sample(d, rng)
            assert rng.n_drawn == expected

    def test_frequency_three_sigma(self):
        # Binomial CI per bin at 1e6 draws.
        p = np.array([0.2, 0.3, 0.5])
        d = Distribution(p)
        rng = RandomStream(1234)
        n = 1_000_000
        tokens = sample_many(d, rng, n)
        freqs = np.bincount(tokens, minlength=3) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freqs - p) <= 3 * sigma)

    def test_sample_many_matches_sequential(self):
        d = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
        seq = [sample(d, RandomStream(7, stream=3)) for _ in [0]]
        rng_a, rng_b = RandomStream(7), RandomStream(7)
        block = sample_many(d, rng_a, 100)
        singles = [sample(d, rng_b) for _ in range(100)]
        assert list(block) == singles and seq  # streams identical either way


class TestResidual:
    def test_basic(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([1.0, 0.0]))
        np.testing.assert_allclose(residual(p, q).probs, [0.0, 1.0])

    def test_identical_distributions_all_zero(self):
        p = Distribution(np.array([0.4, 0.6]))
        with pytest.raises(AllZeroError):
            residual(p, p)

    def test_lenient(self):
        p = Distribution(np.array([0.8, 0.2]))
        q = Distribution(np.array([0.5, 0.5]))
        np.testing.assert_allclose(residual(p, q, 0.5).probs, [1.0, 0.0])

    def test_vocab_mismatch(self):
        with pytest.raises(VocabMismatchError):
            residual(Distribution(np.array([1.0])), Distribution(np.array([0.5, 0.5])))

    @given(paired_probs_strategy(), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_support_exactly_where_p_exceeds_lq(self, pq, lenience):
        p, q = (Distribution(x) for x in pq)
        try:
            r = residual(p, q, lenience)
        except AllZeroError:
            assert np.all(p.probs <= lenience * q.probs + 1e-15)
            return
        positive = p.probs > lenience * q.probs
        assert np.all(r.probs[~positive] == 0.0)
        assert np.all(r.probs[positive] > 0.0)


class TestDlk:
    """The min-overlap divergence 1 - beta(p, q)."""

    def test_equal_is_zero(self):
        p = Distribution(np.array([0.3, 0.7]))
        assert 1.0 - beta(p, p) == 0.0

    def test_disjoint_is_one(self):
        p, q = Distribution(np.array([1.0, 0.0])), Distribution(np.array([0.0, 1.0]))
        assert 1.0 - beta(p, q) == 1.0

    def test_half_overlap(self):
        p, q = Distribution(np.array([0.5, 0.5])), Distribution(np.array([1.0, 0.0]))
        assert 1.0 - beta(p, q) == 0.5

    @given(paired_probs_strategy())
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, pq):
        p, q = (Distribution(x) for x in pq)
        assert abs((1.0 - beta(p, q)) - (1.0 - beta(q, p))) < 1e-12

    @given(paired_probs_strategy())
    @settings(max_examples=150, deadline=None)
    def test_definition_equals_min_form(self, pq):
        # Two closed forms of the divergence must agree: the
        # |p - (p+q)/2| definition and 1 - sum(min(p, q)).
        p, q = (Distribution(x) for x in pq)
        mid = (p.probs + q.probs) / 2.0
        definition_form = float(np.abs(p.probs - mid).sum())
        assert abs(definition_form - (1.0 - beta(p, q))) < 1e-12

    @given(paired_probs_strategy())
    @settings(max_examples=100, deadline=None)
    def test_range(self, pq):
        p, q = (Distribution(x) for x in pq)
        v = 1.0 - beta(p, q)
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_random_pair_helper_is_full_support():
    rng = RandomStream(1)
    p, q = random_pair(rng, 8)
    assert np.all(p.probs > 0) and np.all(q.probs > 0)
    assert math.isclose(p.probs.sum(), 1.0, abs_tol=1e-12)
