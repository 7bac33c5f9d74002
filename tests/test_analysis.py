"""Closed-form analysis: acceptance rates, token/walltime/ops factors,
optimal draft counts, and the sweep generators."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.analysis import (
    AlphaEstimate,
    CostModel,
    DomainError,
    TABLE1_GRID,
    beta,
    expected_tokens,
    ops_factor,
    optimal_gamma,
    sweep,
    trace_accept_rate,
    walltime_factor,
    write_sweep_csv,
)
from specdec.cli import main
from specdec.distmath import Distribution, IDENTITY_POLICY, SamplingPolicy
from specdec.engine import DecodeResult, DraftedToken, SpecConfig, StepTrace, decode
from specdec.models import CopyModel, StatelessModel, stateless_pair, train_ngram
from specdec.rng import RandomStream

from conftest import paired_probs_strategy, random_pair


class TestBeta:
    def test_identical(self):
        p = Distribution(np.array([0.3, 0.7]))
        assert beta(p, p) == 1.0

    def test_disjoint(self):
        assert beta(Distribution(np.array([1.0, 0.0])), Distribution(np.array([0.0, 1.0]))) == 0.0

    def test_hand_sum(self):
        p = Distribution(np.array([0.8, 0.2]))
        q = Distribution(np.array([0.5, 0.5]))
        assert beta(p, q) == pytest.approx(0.7)

    @given(paired_probs_strategy())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_overlap_sum(self, pq):
        p, q = (Distribution(x) for x in pq)
        assert beta(p, q).hex() == float(np.minimum(p.probs, q.probs).sum()).hex()

    @given(paired_probs_strategy(),
           st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_lenient_formula(self, pq, lenience):
        p, q = (Distribution(x) for x in pq)
        want = float(np.minimum(p.probs / lenience, q.probs).sum())
        assert beta(p, q, lenience).hex() == want.hex()


class TestLenientAlpha:
    def test_lenience_one_is_beta(self):
        p, q = random_pair(RandomStream(2), 8)
        assert beta(p, q, 1.0) == pytest.approx(beta(p, q), abs=1e-15)

    def test_lenience_to_zero_approaches_one(self):
        p, q = random_pair(RandomStream(3), 8)
        assert beta(p, q, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_hand_example(self):
        p = Distribution(np.array([0.8, 0.2]))
        q = Distribution(np.array([0.5, 0.5]))
        assert beta(p, q, 0.5) == pytest.approx(0.9)

    def test_domain(self):
        p, q = random_pair(RandomStream(4), 4)
        with pytest.raises(DomainError):
            beta(p, q, 0.0)


class TestExpectedTokens:
    def test_table_values(self):
        assert expected_tokens(0.8, 5) == pytest.approx(3.68928, abs=1e-5)
        assert expected_tokens(0.9, 10) == pytest.approx(6.8619, abs=1e-4)

    def test_zero_alpha(self):
        for gamma in (1, 3, 10):
            assert expected_tokens(0.0, gamma) == 1.0

    def test_alpha_one_limit(self):
        assert expected_tokens(1.0, 6) == 7.0
        assert expected_tokens(1.0 - 1e-14, 6) == pytest.approx(7.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expected_tokens(-0.1, 3)
        with pytest.raises(DomainError):
            expected_tokens(1.1, 3)

    def test_monotone_in_alpha_and_gamma(self):
        alphas = np.linspace(0.0, 0.99, 34)
        for gamma in (1, 2, 5, 10):
            vals = [expected_tokens(a, gamma) for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for a in (0.1, 0.5, 0.9):
            vals = [expected_tokens(a, g) for g in range(1, 30)]
            assert all(b >= a_ - 1e-12 for a_, b in zip(vals, vals[1:]))

    def test_bounded_by_cap_and_oracle(self):
        for a in (0.0, 0.3, 0.7, 0.95):
            for g in (1, 4, 12):
                v = expected_tokens(a, g)
                assert v <= g + 1 + 1e-12
                assert v <= 1.0 / (1.0 - a) + 1e-12
            # An oracle that never stops drafting reaches the bound.
            assert expected_tokens(a, 2000) == pytest.approx(1.0 / (1.0 - a))


class TestWalltimeFactor:
    def test_reference_settings(self):
        assert walltime_factor(0.75, 7, 0.02) == pytest.approx(3.157, abs=5e-4)
        assert walltime_factor(0.62, 7, 0.02) == pytest.approx(2.258, abs=5e-4)

    def test_gamma_one_zero_cost_is_one_plus_alpha(self):
        for a in (0.1, 0.5, 0.9):
            assert walltime_factor(a, 1, 0.0) == pytest.approx(1.0 + a)

    def test_gamma_zero_is_one(self):
        assert walltime_factor(0.7, 0, 0.05) == 1.0

    def test_never_exceeds_expected_tokens(self):
        rng = RandomStream(5)
        for _ in range(200):
            a = rng.uniform() * 0.999
            g = 1 + int(rng.uniform() * 15)
            c = rng.uniform() * 0.5
            assert walltime_factor(a, g, c) <= expected_tokens(a, g) + 1e-12
        assert walltime_factor(0.5, 3, 0.0) == expected_tokens(0.5, 3)

    def test_bigram_story_value(self):
        # alpha ~ 0.2 at negligible cost yields ~1.25x with 3 drafts.
        assert walltime_factor(0.2, 3, 0.0) == pytest.approx(1.248, abs=1e-3)


class TestCorollaries:
    """Some gamma improves walltime iff alpha > c, and gamma = 1 alone gives
    the factor (1 + alpha) / (1 + c)."""

    ALPHAS = [round(0.05 * k, 2) for k in range(20)]
    CS = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 1.0, 1.5)

    def test_some_gamma_improves_iff_alpha_exceeds_c(self):
        for a in self.ALPHAS:
            for c in self.CS:
                assert (optimal_gamma(a, c, gamma_max=64).gamma >= 1) == (a > c), (a, c)

    def test_gamma_one_floor(self):
        for a in self.ALPHAS:
            for c in self.CS:
                assert walltime_factor(a, 1, c) == pytest.approx((1 + a) / (1 + c))


class TestImprovementCondition:
    def test_boundary_equality_gives_factor_one(self):
        assert walltime_factor(0.5, 1, 0.5) == pytest.approx(1.0)
        choice = optimal_gamma(0.5, 0.5)
        assert (choice.gamma, choice.factor) == (0, 1.0)

    def test_cheap_draft(self):
        assert walltime_factor(0.2, 1, 0.0) == pytest.approx(1.2)
        choice = optimal_gamma(0.2, 0.1)
        assert choice.gamma >= 1 and choice.factor > 1.0


class TestOracleBound:
    """An oracle that drafts without limit: the gamma -> infinity limit of
    expected_tokens, 1 / (1 - alpha)."""

    def test_values(self):
        assert expected_tokens(0.0, 2000) == 1.0
        assert expected_tokens(0.5, 2000) == pytest.approx(2.0)

    def test_free_draft_scan_approaches_bound(self):
        # With c = 0 the best factor is the scan ceiling's, just under the bound.
        for a in (0.2, 0.5, 0.9):
            choice = optimal_gamma(a, 0.0, gamma_max=400)
            assert choice.saturated
            assert choice.factor <= 1.0 / (1.0 - a) + 1e-12
            assert choice.factor == pytest.approx(1.0 / (1.0 - a))

    def test_no_finite_bound_at_alpha_one(self):
        assert [expected_tokens(1.0, g) for g in (1, 10, 100)] == [2.0, 11.0, 101.0]
        with pytest.raises(DomainError):
            optimal_gamma(1.0, 0.1)


class TestOpsFactor:
    def test_table_values(self):
        assert ops_factor(0.6, 2, 0.0) == pytest.approx(1.5306, abs=1e-4)
        assert ops_factor(0.9, 2, 0.0) == pytest.approx(1.107, abs=1e-3)

    def test_all_rejected(self):
        # alpha=0, gamma=1: two prefixes evaluated per emitted token.
        assert ops_factor(0.0, 1, 0.0) == 2.0

    def test_at_least_one_when_free_draft(self):
        for a in (0.0, 0.4, 0.9, 0.999):
            for g in (1, 3, 10):
                assert ops_factor(a, g, 0.0) >= 1.0 - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            ops_factor(0.5, 0, 0.0)


class TestOptimalGamma:
    def test_no_improvement_when_alpha_below_cost(self):
        choice = optimal_gamma(0.3, 0.4)
        assert (choice.gamma, choice.factor) == (0, 1.0)
        assert not choice.saturated

    def test_zero_cost_saturates(self):
        choice = optimal_gamma(0.5, 0.0, gamma_max=50)
        assert choice.gamma == 50
        assert choice.saturated

    def test_scan_matches_direct_formula_argmax(self):
        # Independent oracle: re-evaluate the walltime formula directly
        # over the whole grid and take the argmax.
        alpha, c, gmax = 0.8, 0.05, 400
        factors = [
            (1 - alpha ** (g + 1)) / ((1 - alpha) * (g * c + 1)) for g in range(gmax + 1)
        ]
        best = int(np.argmax(factors))
        choice = optimal_gamma(alpha, c, gamma_max=gmax)
        assert choice.gamma == best
        assert choice.factor == pytest.approx(factors[best], rel=1e-12)
        assert not choice.saturated

    def test_local_optimality(self):
        for alpha in (0.3, 0.6, 0.9):
            for c in (0.01, 0.05, 0.2):
                choice = optimal_gamma(alpha, c)
                if choice.saturated:
                    continue
                here = walltime_factor(alpha, choice.gamma, c)
                assert here >= walltime_factor(alpha, choice.gamma + 1, c) - 1e-12
                if choice.gamma > 0:
                    assert here >= walltime_factor(alpha, choice.gamma - 1, c) - 1e-12

    def test_smallest_tie_wins(self):
        # alpha=0: every gamma gives factor 1 at c=0; gamma 0 must win.
        choice = optimal_gamma(0.0, 0.0)
        assert choice.gamma == 0 and not choice.saturated


class TestMonteCarloConsistency:
    def test_accept_rate_matches_beta(self):
        p, q = stateless_pair(0.65, vocab_size=4)
        res = decode(p, q, [0], SpecConfig(gamma=2, seed=10, max_new_tokens=100_000))
        emp = trace_accept_rate(res)
        assert emp.n_tokens > 50_000  # judged positions, fewer than tokens emitted
        assert abs(emp.alpha - 0.65) <= 3 * emp.std_error

    def test_accept_rate_with_lenience_matches_lenient_alpha(self):
        rng = RandomStream(12)
        p, q = random_pair(rng, 6)
        mp, mq = StatelessModel(p.probs), StatelessModel(q.probs)
        lenience = 0.45
        want = beta(p, q, lenience)
        res = decode(mp, mq, [0],
                     SpecConfig(gamma=2, seed=13, max_new_tokens=30_000, lenience=lenience))
        emp = trace_accept_rate(res)
        assert abs(emp.alpha - want) <= 3 * max(emp.std_error, 1e-4)


def _alpha_pairs():
    rng = RandomStream(21)
    corpus_p = [int(u * 6) for u in rng.uniform_block(400)]
    corpus_q = [int(u * 6) for u in rng.uniform_block(400)]
    target = train_ngram(corpus_p, order=3, vocab_size=6, smoothing_k=0.05)
    return {
        "ngram3/ngram2": (target, train_ngram(corpus_q, order=2, vocab_size=6)),
        "ngram3/copy": (target, CopyModel(6, min_match=1)),
    }


def _trace(gamma, accepted_n):
    drafted = [DraftedToken(token=0, q_prob=0.5, p_prob=0.5)] * gamma
    source = "extra" if accepted_n == gamma else "residual"
    return StepTrace(drafted=drafted, accepted_n=accepted_n, correction=0,
                     correction_source=source)


class TestTraceAcceptRate:
    def test_same_model_gives_one(self):
        m = train_ngram([0, 1, 2, 0, 1, 2], order=2, vocab_size=3)
        est = trace_accept_rate(decode(m, m, [0], SpecConfig(gamma=3, seed=4, max_new_tokens=60)))
        assert est.alpha == 1.0 and est.std_error == 0.0
        assert est.n_tokens >= 45  # three judged drafts per four tokens emitted

    @pytest.mark.parametrize("steps, accepted, judged", [
        ([(3, 3)], 3, 3),                      # all accepted: every draft judged
        ([(3, 0)], 0, 1),                      # first rejected: the rest never judged
        ([(4, 2)], 2, 3),                      # accepted prefix plus the rejection
        ([(2, 2), (4, 1), (1, 0)], 3, 5),      # pooled over steps of mixed gamma
    ])
    def test_counts_only_judged_positions(self, steps, accepted, judged):
        result = DecodeResult(tokens=[], traces=[_trace(g, k) for g, k in steps])
        est = trace_accept_rate(result)
        rate = accepted / judged
        assert est.n_tokens == judged
        assert est.alpha == rate
        assert est.std_error == pytest.approx(math.sqrt(rate * (1 - rate) / judged))

    def test_no_traces_gives_empty_estimate(self):
        assert trace_accept_rate(DecodeResult(tokens=[1, 2])) == AlphaEstimate(0.0, 0, 0.0)

    @pytest.mark.parametrize("policy", [IDENTITY_POLICY, SamplingPolicy(temperature=0.7, top_p=0.9)],
                             ids=["identity", "nucleus"])
    @pytest.mark.parametrize("pair", ["ngram3/ngram2", "ngram3/copy"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_beta_at_judged_contexts(self, policy, pair, seed):
        # Each judged draft is accepted with probability beta at its context,
        # so the rate and the mean beta over the same contexts differ only by
        # a martingale's noise. The contexts are rebuilt from the output.
        target, draft = _alpha_pairs()[pair]
        prompt = [1, 2]
        res = decode(target, draft, prompt,
                     SpecConfig(gamma=3, policy=policy, seed=seed, max_new_tokens=2000))
        betas, pos = [], 0
        for tr in res.traces:
            ctx = prompt + res.tokens[:pos]
            for j in range(min(tr.accepted_n + 1, len(tr.drafted))):
                cj = ctx + [d.token for d in tr.drafted[:j]]
                betas.append(beta(target.next_distribution(cj, policy),
                                  draft.next_distribution(cj, policy)))
            pos += tr.emitted
        emp = trace_accept_rate(res)
        assert emp.n_tokens == len(betas)
        b = np.array(betas)
        noise = math.sqrt(float(np.sum(b * (1 - b)))) / len(b)
        assert abs(emp.alpha - float(b.mean())) <= 3.0 * noise + 1e-12


class TestSweeps:
    def test_table1_rows(self):
        rows = sweep("table1")
        assert [(r["alpha"], r["gamma"]) for r in rows] == list(TABLE1_GRID)
        by_key = {(r["alpha"], r["gamma"]): r for r in rows}
        assert by_key[(0.8, 5)]["speed"] == pytest.approx(3.68928, abs=1e-5)
        assert by_key[(0.8, 5)]["operations"] == pytest.approx(1.62633, abs=1e-5)

    def test_fig2_alpha_zero_rows_are_one(self):
        rows = sweep("fig2", alphas=[0.0], gammas=[1, 2, 5])
        assert all(r["expected_tokens"] == 1.0 for r in rows)

    def test_fig2_row_count(self):
        rows = sweep("fig2", alphas=[0.1, 0.2, 0.3], gammas=[1, 5])
        assert len(rows) == 6

    def test_fig3_local_optimality_and_saturation(self):
        rows = sweep("fig3", alphas=[0.3, 0.7], cs=[0.0, 0.05], gamma_max=200)
        for row in rows:
            if row["saturated"]:
                assert row["c"] == 0.0
                continue
            g = row["gamma_star"]
            here = walltime_factor(row["alpha"], g, row["c"])
            assert here >= walltime_factor(row["alpha"], g + 1, row["c"]) - 1e-12

    def test_fig4_columns(self):
        rows = sweep("fig4", alphas=[0.5], gammas=[2])
        assert rows[0]["speedup"] == pytest.approx(expected_tokens(0.5, 2))
        assert rows[0]["ops_increase"] == pytest.approx(ops_factor(0.5, 2, 0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sweep("fig9")

    @pytest.mark.parametrize("kind,reads", [
        ("fig2", {"alphas", "gammas"}), ("fig3", {"alphas", "cs"}),
        ("fig4", {"alphas", "gammas"}), ("table1", set()),
    ])
    @pytest.mark.parametrize("grid", ["alphas", "gammas", "cs"])
    def test_empty_grid_rejected_only_if_read(self, kind, reads, grid):
        if grid in reads:
            with pytest.raises(ValueError, match="non-empty"):
                sweep(kind, **{grid: []})
        else:
            assert sweep(kind, **{grid: []}) == sweep(kind)

    @pytest.mark.parametrize("argv", [["--kind", "fig2", "--cs", ",,"],
                                      ["--kind", "fig3", "--gammas", ",,"]])
    def test_cli_ignores_empty_grid_not_read(self, capsys, argv):
        assert main(["sweep", *argv]) == 0
        assert capsys.readouterr().out.startswith("alpha,")

    def test_csv_emission(self):
        rows = sweep("table1")
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,gamma,operations,speed"
        assert len(lines) == 7
        # 6 significant digits
        assert lines[4].split(",")[3] == "3.68928"


class TestCostModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            CostModel(c=-0.1)
        with pytest.raises(DomainError):
            CostModel(c=float("nan"))
        with pytest.raises(DomainError):
            CostModel(batch_penalty=-0.1)
        with pytest.raises(DomainError):
            walltime_factor(0.5, 3, 0.1, batch_cost=0.0)

    def test_batch_cost(self):
        assert CostModel(batch_penalty=0.2).batch_cost(3) == pytest.approx(1.6)
        # With no penalty the charged formula is walltime_factor itself, bit for bit.
        for alpha, gamma, c in [(0.3, 2, 0.05), (0.7, 3, 0.02), (0.9, 5, 0.01), (1.0, 4, 0.0)]:
            b = CostModel(c=c).batch_cost(gamma)
            assert b == 1.0
            assert walltime_factor(alpha, gamma, c, b) == walltime_factor(alpha, gamma, c)
        assert walltime_factor(0.7, 3, 0.02, 1.6) == pytest.approx(
            expected_tokens(0.7, 3) / (3 * 0.02 + 1.6))

    def test_alpha_estimate_fields(self):
        est = AlphaEstimate(alpha=0.5, n_tokens=10, std_error=0.01)
        assert 0.0 <= est.alpha <= 1.0
