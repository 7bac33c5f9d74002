"""Probability-vector arithmetic: normalization, policy transforms, sampling,
residuals, and the min-overlap divergence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    inverse_cdf_many,
    normalize,
    residual,
    sample,
    standardize,
    standardize_rows,
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
        with pytest.raises(NonFiniteError):
            normalize(np.array([np.nan, 1.0]))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=300)
           .filter(lambda xs: sum(xs) > 0.0))
    @example([0.1, 0.1, 0.8])
    @settings(max_examples=300, deadline=None)
    def test_bitwise_as_checked_construction(self, xs):
        # Scale by the total, then construct, which renormalizes once more
        # when that sum is not exactly 1.0.
        r = np.array(xs)
        assert normalize(r).probs.tobytes() == Distribution(r / r.sum()).probs.tobytes()

    @pytest.mark.parametrize("policy", [IDENTITY_POLICY, SamplingPolicy(temperature=0.5)])
    def test_overflowing_sum_is_non_finite(self, policy):
        # Finite scores whose sum overflows: dividing by it would zero every
        # entry and leave NaN after renormalizing.
        big = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            for build in (lambda: normalize(big), lambda: standardize(big, policy),
                          lambda: standardize_rows(np.array([[0.5, 0.5], big]), policy)):
                with pytest.raises(NonFiniteError):
                    build()


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

    def test_temperature_probs_power_renormalizes(self):
        p = np.array([0.5, 0.3, 0.2])
        d = standardize(p, SamplingPolicy(temperature=0.5))
        expect = p**2 / (p**2).sum()
        np.testing.assert_allclose(d.probs, expect, atol=1e-14)

    def test_low_temperature_does_not_underflow(self):
        # 0.25 ** 1000 and 0.2 ** 1000 are 0.0 in float64: without scaling each
        # row by its largest entry the power leaves nothing to renormalize.
        policy = SamplingPolicy(temperature=1e-3)
        scores = np.array([[0.25, 0.25, 0.25, 0.25], [0.2, 0.3, 0.3, 0.2]])
        expect = np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.5, 0.0]])
        for row, want, d in zip(scores, expect, standardize_rows(scores, policy)):
            np.testing.assert_allclose(standardize(row, policy).probs, want, atol=1e-150)
            assert d.probs.tobytes() == standardize(row, policy).probs.tobytes()

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_temperature_must_be_finite_and_non_negative(self, t):
        # nan < 0 is false, and inf turns every weight, zeros too, into 0**0 == 1.
        with pytest.raises(PolicyConflictError, match="temperature"):
            SamplingPolicy(temperature=t)

    def test_top_k_exceeds_vocab(self):
        with pytest.raises(PolicyConflictError):
            standardize(np.array([0.5, 0.5]), SamplingPolicy(top_k=3))

    @given(probs_strategy())
    @settings(max_examples=100, deadline=None)
    def test_identity_policy_is_identity(self, p):
        d = standardize(p, IDENTITY_POLICY)
        np.testing.assert_allclose(d.probs, p, atol=1e-12)


def reference_standardize(scores, policy) -> Distribution:
    """Oracle: ``standardize`` as it was written for one vector, before its
    transforms were shared with ``standardize_rows``."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("scores contain non-finite entries")
    if np.any(s < 0):
        raise NegativeEntryError("probability scores contain negative entries")
    if policy.is_argmax:
        mask = (s == s.max()).astype(np.float64)
        return Distribution(mask / mask.sum())
    total = float(s.sum())
    if total <= 0.0:
        raise AllZeroError("probability scores sum to zero")
    p = s / total
    t = policy.temperature
    if t != 1.0:
        p = (p / p.max()) ** (1.0 / t)
        p = p / p.sum()
    if policy.top_k is not None:
        k = policy.top_k
        if k > p.shape[0]:
            raise PolicyConflictError("top_k exceeds vocab size")
        if k < p.shape[0]:
            order = np.argsort(-p, kind="stable")
            kept = np.zeros_like(p)
            kept[order[:k]] = p[order[:k]]
            p = kept / kept.sum()
    if policy.top_p is not None and policy.top_p < 1.0:
        order = np.argsort(-p, kind="stable")
        csum = np.cumsum(p[order])
        cut = int(np.searchsorted(csum, policy.top_p - 1e-9, side="left"))
        kept = np.zeros_like(p)
        kept[order[: cut + 1]] = p[order[: cut + 1]]
        p = kept / kept.sum()
    return Distribution(p)


ROW_POLICIES = [
    IDENTITY_POLICY,
    SamplingPolicy(argmax=True),
    SamplingPolicy(temperature=0.7),
    SamplingPolicy(temperature=1.6),
    SamplingPolicy(top_k=1),
    SamplingPolicy(top_k=3),
    SamplingPolicy(top_p=0.5),
    SamplingPolicy(top_p=0.9),
    SamplingPolicy(temperature=0.7, top_p=0.9),
    SamplingPolicy(top_k=5, top_p=0.5),
    SamplingPolicy(temperature=1.3, top_k=2, top_p=0.95),
]


def _score_block(rows: int, vocab: int, kind: str, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    if kind == "ties":  # few distinct values: ties at the max and at every cutoff
        block = g.integers(0, 4, (rows, vocab)).astype(np.float64)
        block[block.sum(axis=1) == 0, 0] = 1.0
    elif kind == "spiky":
        block = g.exponential(size=(rows, vocab)) ** 4
    else:
        block = g.random((rows, vocab))
    return block


score_blocks = st.builds(
    _score_block,
    st.integers(1, 6),
    st.sampled_from([2, 3, 16, 34, 258]),
    st.sampled_from(["ties", "spiky", "smooth"]),
    st.integers(0, 2**32 - 1),
)


def _outcome(fn):
    """The bytes of each distribution ``fn`` returns, or the class it raises."""
    try:
        out = fn()
    except ValueError as exc:
        return type(exc)
    return [d.probs.tobytes() for d in (out if isinstance(out, list) else [out])]


class TestStandardizeRows:
    @given(score_blocks)
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_1d_and_reference_bitwise(self, block):
        for policy in ROW_POLICIES:
            if policy.top_k is not None and policy.top_k > block.shape[1]:
                continue
            rows = standardize_rows(block, policy)
            assert len(rows) == len(block)
            for row, d in zip(block, rows):
                one = standardize(row, policy).probs.tobytes()
                assert d.probs.tobytes() == one
                assert one == reference_standardize(row, policy).probs.tobytes()

    @pytest.mark.parametrize("policy", [IDENTITY_POLICY, SamplingPolicy(argmax=True),
                                        SamplingPolicy(temperature=0.7, top_p=0.9),
                                        SamplingPolicy(top_k=2)])
    @pytest.mark.parametrize("bad, named", [
        ([np.nan, 0.2, 0.3, 0.1, 0.4], NonFiniteError),
        ([-0.1, 0.4, 0.3, 0.1, 0.3], NegativeEntryError),
        ([0.0] * 5, AllZeroError),
        (None, PolicyConflictError),  # top_k larger than the vocabulary
    ], ids=["nan", "negative", "all-zero", "top-k-over-vocab"])
    def test_bad_row_raises_like_1d(self, bad, named, policy):
        block = np.array([[0.1, 0.2, 0.3, 0.25, 0.15], [0.5, 0.1, 0.1, 0.2, 0.1],
                          [0.2, 0.2, 0.2, 0.2, 0.2]])
        if bad is None:
            policy = SamplingPolicy(top_k=6)
        else:
            block[1] = bad
        one = [_outcome(lambda r=r: standardize(r, policy)) for r in block]
        errors = [o for o in one if isinstance(o, type)]
        expected = errors[0] if errors else [o[0] for o in one]
        got = _outcome(lambda: standardize_rows(block, policy))
        assert got == expected
        if policy == IDENTITY_POLICY or bad is None:
            assert expected is named

    def test_rejects_non_block(self):
        for scores in (np.ones(3), np.ones((0, 3)), np.ones((2, 0))):
            with pytest.raises(ValueError):
                standardize_rows(scores)


_NON_FINITE_SCORES = (NonFiniteError, "scores contain or sum to non-finite values")
_NEGATIVE_SCORES = (NegativeEntryError, "probability scores contain negative entries")
_NON_FINITE_DIST = (NonFiniteError, "distribution contains non-finite entries")
_ARGMAX = SamplingPolicy(argmax=True)

# One bad row, and what each validation site makes of it: Distribution(row),
# standardize(row, policy) and standardize_rows with the row between two good
# ones. None means the input is accepted. A Distribution takes no policy, so it
# rejects the all-zero row in the last case as well.
_VALIDATION_TABLE = [
    ("nan", [0.5, np.nan, 0.5], IDENTITY_POLICY, _NON_FINITE_DIST, _NON_FINITE_SCORES),
    ("+inf", [0.5, np.inf, 0.5], IDENTITY_POLICY, _NON_FINITE_DIST, _NON_FINITE_SCORES),
    ("-inf", [0.5, -np.inf, 0.5], IDENTITY_POLICY, _NON_FINITE_DIST, _NON_FINITE_SCORES),
    ("overflowing-sum", [1e308, 1e308, 0.0], IDENTITY_POLICY,
     (ValueError, "distribution sums to inf, not 1 (beyond 1e-6 slack)"), _NON_FINITE_SCORES),
    ("negative", [0.6, -0.1, 0.5], IDENTITY_POLICY,
     (NegativeEntryError, "distribution contains negative entries"), _NEGATIVE_SCORES),
    ("all-zero", [0.0, 0.0, 0.0], IDENTITY_POLICY,
     (AllZeroError, "distribution sums to zero"),
     (AllZeroError, "probability scores sum to zero")),
    ("nan-and-negative", [np.nan, -0.1, 0.5], IDENTITY_POLICY, _NON_FINITE_DIST,
     _NON_FINITE_SCORES),
    ("all-zero-argmax", [0.0, 0.0, 0.0], _ARGMAX,
     (AllZeroError, "distribution sums to zero"), None),
]


@pytest.mark.parametrize("row, policy, as_distribution, as_scores",
                         [case[1:] for case in _VALIDATION_TABLE],
                         ids=[case[0] for case in _VALIDATION_TABLE])
def test_validation_sites_agree_on_class_message_and_read_only(row, policy, as_distribution,
                                                               as_scores):
    row = np.array(row)
    block = np.array([[0.2, 0.3, 0.5], row, [0.25, 0.25, 0.5]])
    sites = [(lambda: Distribution(row), as_distribution),
             (lambda: standardize(row, policy), as_scores),
             (lambda: standardize_rows(block, policy), as_scores)]
    for build, expected in sites:
        with np.errstate(over="ignore"):  # the overflowing sum
            if expected is not None:
                with pytest.raises(ValueError) as info:
                    build()
                assert (type(info.value), str(info.value)) == expected
                continue
            out = build()
        rows = out if isinstance(out, list) else [None, out]
        for d in filter(None, rows):
            assert not d.probs.flags.writeable and not d.cdf.flags.writeable
        assert rows[1].probs.tolist() == [1 / 3] * 3  # every entry ties for the maximum


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
        tokens = inverse_cdf_many(d, rng.uniform_block(n))
        freqs = np.bincount(tokens, minlength=3) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freqs - p) <= 3 * sigma)

    def test_inverse_cdf_many_matches_sequential(self):
        d = Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
        block = inverse_cdf_many(d, RandomStream(7).uniform_block(100))
        rng = RandomStream(7)
        assert list(block) == [sample(d, rng) for _ in range(100)]

    def test_variate_past_the_cdf_lands_on_the_last_supported_token(self):
        # Rounding leaves this CDF at 1 - 2**-53, the largest variate below 1,
        # so that variate is past it; the walk-back must skip the
        # zero-probability token 4.
        d = Distribution(np.array([0.31626976648835176, 0.17862992253734838,
                                   0.3227458180253081, 0.1823544929489919, 0.0]))
        u = np.nextafter(1.0, 0.0)
        assert d.cdf[-1] == u
        assert inverse_cdf(d, float(u)) == 3
        assert inverse_cdf_many(d, np.array([u, 0.5, u])).tolist() == [3, 2, 3]


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

    @given(paired_probs_strategy(), st.floats(min_value=0.05, max_value=1.0))
    @example((np.array([0.1, 0.1, 0.8]),) * 2, 0.7)  # 0.3*p / sum rounds off 1: renormalized
    @settings(max_examples=150, deadline=None)
    def test_equals_checked_construction_bitwise(self, pq, lenience):
        # residual skips Distribution's checks but not its renormalization.
        p, q = (Distribution(x) for x in pq)
        raw = np.maximum(p.probs - lenience * q.probs, 0)
        total = float(raw.sum())
        if total == 0.0:
            return  # AllZeroError: test_support_exactly_where_p_exceeds_lq
        r = residual(p, q, lenience)
        assert r.probs.tobytes() == Distribution(raw / total).probs.tobytes()
        assert not r.probs.flags.writeable


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
