"""Verification harness: the analytic exactness oracle, statistical
equivalence with mutation sensitivity, the geometric fit, cost simulation,
and the rejection-sampling comparison."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from specdec import harness
from specdec.analysis import CostModel, beta, expected_tokens, walltime_factor
from specdec.distmath import Distribution, SamplingPolicy
from specdec.engine import MUTATIONS, SpecConfig, decode, speculative_step, speculative_steps
from specdec.harness import (
    equivalence_test,
    exact_step_distribution,
    exactness_check,
    geometric_fit_test,
    rejection_accept_probability,
    rejection_check,
    rejection_comparison,
    simulate_walltime,
)
from specdec.models import StatelessModel, stateless_pair, train_ngram
from specdec.rng import RandomStream

from conftest import random_pair


class TestExactStepDistribution:
    def test_identity_at_full_strictness(self):
        # The single most important invariant in the repository.
        rng = RandomStream(100)
        worst = 0.0
        for _ in range(1000):
            p, q = random_pair(rng, 16)
            out = exact_step_distribution(p, q, 1.0)
            worst = max(worst, float(np.abs(out.probs - p.probs).max()))
        assert worst < 1e-12

    def test_identity_across_vocab_sizes(self):
        rng = RandomStream(101)
        for vocab in (2, 3, 7, 64, 512, 5000):
            p, q = random_pair(rng, vocab)
            out = exact_step_distribution(p, q, 1.0)
            np.testing.assert_allclose(out.probs, p.probs, atol=1e-12, rtol=0)

    def test_equal_distributions_any_lenience(self):
        p = Distribution(np.array([0.25, 0.5, 0.25]))
        for lenience in (1.0, 0.5, 0.1):
            out = exact_step_distribution(p, p, lenience)
            np.testing.assert_allclose(out.probs, p.probs, atol=1e-12, rtol=0)

    def test_lenience_bound_entrywise(self):
        rng = RandomStream(102)
        for _ in range(500):
            p, q = random_pair(rng, 12)
            lenience = 0.05 + 0.95 * rng.uniform()
            out = exact_step_distribution(p, q, lenience)
            assert np.all(out.probs <= p.probs / lenience + 1e-12)

    def test_concentrates_known_case(self):
        # p=[.8,.2], q=[.5,.5], l=1: accepted mass [.5,.2], reject .3 to
        # residual [1,0] -> [.8,.2] back exactly.
        p = Distribution(np.array([0.8, 0.2]))
        q = Distribution(np.array([0.5, 0.5]))
        out = exact_step_distribution(p, q, 1.0)
        np.testing.assert_allclose(out.probs, [0.8, 0.2], atol=1e-15)


@pytest.fixture(scope="module")
def model_pair():
    rng = RandomStream(103)
    p, q = random_pair(rng, 16)
    return StatelessModel(p.probs), StatelessModel(q.probs)


class TestEquivalence:
    def test_honest_engine_passes(self, model_pair):
        mp, mq = model_pair
        report = equivalence_test(mp, mq, SpecConfig(gamma=2, seed=1), 50_000, [[0]])
        assert report.verdict
        assert report.p_value > 0.001

    def test_same_model_passes_with_tiny_tv(self, model_pair):
        mp, _ = model_pair
        report = equivalence_test(mp, mp, SpecConfig(gamma=2, seed=2), 20_000, [[0]])
        assert report.verdict
        assert report.max_tv_distance < 0.02

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutations_are_caught(self, model_pair, mutation):
        mp, mq = model_pair
        report = equivalence_test(
            mp, mq, SpecConfig(gamma=2, seed=3), 50_000, [[0]], mutation=mutation
        )
        assert not report.verdict, f"mutation {mutation} slipped through"

    @pytest.mark.parametrize("lenience", [0.5, 0.2])
    def test_lenient_law_is_fitted(self, model_pair, lenience):
        mp, mq = model_pair
        config = SpecConfig(gamma=2, seed=3, lenience=lenience)
        assert equivalence_test(mp, mq, config, 20_000, [[0]]).verdict
        # At 0.5 a mutant still fails; at 0.2 the residual is close enough to
        # p that skipping it passes.
        skipped = equivalence_test(mp, mq, config, 20_000, [[0]], mutation="skip_residual")
        assert skipped.verdict == (lenience == 0.2)

    def test_argmax_lenient_has_no_law(self, model_pair):
        mp, mq = model_pair
        config = SpecConfig(gamma=2, lenience=0.5, policy=SamplingPolicy(argmax=True))
        with pytest.raises(ValueError, match="argmax-lenient"):
            equivalence_test(mp, mq, config, 20_000, [[0]])

    def test_multiple_contexts_bonferroni(self, model_pair):
        mp, mq = model_pair
        report = equivalence_test(
            mp, mq, SpecConfig(gamma=1, seed=4), 20_000, [[0], [1], [0, 1]]
        )
        assert len(report.per_context) == 3
        assert report.p_value <= 1.0
        assert report.verdict

    def test_rejects_small_samples(self, model_pair):
        mp, mq = model_pair
        with pytest.raises(ValueError):
            equivalence_test(mp, mq, SpecConfig(gamma=1, seed=0), 999, [[0]])

    def test_verdict_matches_threshold_rule(self, model_pair):
        mp, mq = model_pair
        report = equivalence_test(mp, mq, SpecConfig(gamma=1, seed=5), 20_000, [[0]])
        assert report.verdict == (report.p_value > report.threshold)

    def test_fits_the_target_law(self, model_pair):
        # The statistic is the goodness of fit of the engine's counts to n * p.
        mp, mq = model_pair
        config, n = SpecConfig(gamma=2, seed=6), 20_000
        report = equivalence_test(mp, mq, config, n, [[0]])
        counts = np.bincount(speculative_steps(mp, mq, [0], config, RandomStream(6), n)
                             .tokens_at(0), minlength=16)
        p = mp.next_distribution([0], config.policy).probs
        assert report.max_tv_distance == 0.5 * np.abs(counts / n - p).sum()
        assert (n * p >= 5.0).all()  # no pooling on this pair: chisquare sees every bin
        stat, p_value = scipy_stats.chisquare(counts, n * p)
        assert report.per_context[0] == harness.ContextResult(stat, 15, p_value,
                                                              report.max_tv_distance)

    @pytest.mark.parametrize("mutation", MUTATIONS[1:])
    def test_mass_on_an_impossible_token_fails_outright(self, mutation):
        # A token of target probability 0 that the engine emits: p = 0, whatever n.
        target = StatelessModel(np.array([0.6, 0.4, 0.0]))
        draft = StatelessModel(np.array([0.2, 0.3, 0.5]))
        report = equivalence_test(target, draft, SpecConfig(gamma=2, seed=0), 10_000, [[0]],
                                  mutation=mutation)
        assert report.per_context[0].statistic == float("inf")
        assert report.p_value == 0.0 and not report.verdict

    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    def test_too_few_samples_for_the_law_raise(self, mutation):
        # 10^4 samples of a 10^5-token law pool into one bin: there is
        # nothing to test, and no verdict is given.
        p, q = random_pair(RandomStream(11), 100_000)
        target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
        with pytest.raises(harness.TooFewSamplesError):
            equivalence_test(target, draft, SpecConfig(gamma=2), 10_000, [[0]],
                             mutation=mutation)


def _markov_text(rng: RandomStream, vocab: int, stride: int, n: int = 2000) -> list[int]:
    """Text where each token mostly follows its predecessor plus ``stride``."""
    tokens = [0]
    for u in rng.uniform_block(n - 1):
        tokens.append((tokens[-1] + stride + int(3 * u * u)) % vocab)
    return tokens


class TestTwoTokenExactness:
    """The first two emitted tokens on an n-gram pair follow the target's joint
    law p(x0) p(x1 | x0). ``equivalence_test`` looks at the first token only,
    so a step that misuses a later position's draft distribution passes it."""

    def test_first_two_tokens_follow_target_joint(self):
        vocab, n = 6, 200_000
        rng = RandomStream(307)
        target = train_ngram(_markov_text(rng, vocab, 1), 2, vocab)
        draft = train_ngram(_markov_text(rng, vocab, 2), 2, vocab)
        config = SpecConfig(gamma=3)
        ctx = [0]
        steps = speculative_steps(target, draft, ctx, config, RandomStream(0), n)
        first, second = steps.tokens_at(0), steps.tokens_at(1)
        for x in range(vocab):
            # A step that emitted x alone: the next token is the first of a
            # fresh step at ctx + [x], on a stream of its own.
            short = np.flatnonzero((second < 0) & (first == x))
            more = speculative_steps(target, draft, ctx + [x], config,
                                     RandomStream(0, stream=1 + x), len(short))
            second[short] = more.tokens_at(0)
        observed = np.bincount(first * vocab + second, minlength=vocab * vocab)
        p0 = target.next_distribution(ctx, config.policy).probs
        p1 = np.stack([target.next_distribution(ctx + [x], config.policy).probs
                       for x in range(vocab)])
        expected = n * (p0[:, None] * p1).ravel()
        keep = expected >= 5.0  # pool the bins too small for chi-square
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        _, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 1e-3, f"joint of the first two tokens: p={p_value:.3g}"


class TestGeometricFit:
    def test_alpha_zero_always_one_token(self):
        report = geometric_fit_test(0.0, gamma=3, n_steps=5000, seed=6)
        assert report.extras["histogram"][0] == 5000
        assert report.extras["mean_tokens"] == 1.0
        assert report.verdict
        # One possible outcome fits with p = 1 however few the steps.
        for n in (1, 2):
            assert geometric_fit_test(0.0, gamma=3, n_steps=n, seed=6).p_value == 1.0

    def test_hand_mean_alpha_07_gamma_3(self):
        # (1 - 0.7^4) / 0.3 = 2.533
        report = geometric_fit_test(0.7, gamma=3, n_steps=50_000, seed=7)
        assert report.extras["expected_mean"] == pytest.approx(2.533, abs=1e-3)
        assert report.extras["mean_rel_gap"] <= 0.02
        assert report.verdict

    def test_table_value_alpha_08_gamma_5(self):
        report = geometric_fit_test(0.8, gamma=5, n_steps=50_000, seed=8)
        assert report.extras["expected_mean"] == pytest.approx(3.689, abs=1e-3)
        assert report.extras["mean_rel_gap"] <= 0.02
        assert report.verdict

    def test_histogram_sums_to_steps(self):
        report = geometric_fit_test(0.5, gamma=4, n_steps=2000, seed=9)
        assert sum(report.extras["histogram"]) == 2000

    # Pinned bit for bit: the shared fit must not move these values. The
    # last case pools its four rarest outcomes into one bin.
    @pytest.mark.parametrize("alpha,gamma,n,seed,p_value,tv,dof", [
        (0.7, 3, 50_000, 7, 0.7892807641902624, 0.0021200000000000524, 3),
        (0.8, 5, 50_000, 8, 0.6536944917892882, 0.0035400000000000292, 5),
        (0.3, 10, 3_000, 12, 0.7535119023983368, 0.005965666666666701, 6),
    ], ids=["a0.7-g3", "a0.8-g5", "a0.3-g10-pooled"])
    def test_pinned_fit_values(self, alpha, gamma, n, seed, p_value, tv, dof):
        report = geometric_fit_test(alpha, gamma, n, seed=seed)
        assert report.p_value == p_value
        assert report.max_tv_distance == tv
        assert report.per_context[0].dof == dof

    def test_too_few_steps_raise(self):
        with pytest.raises(harness.TooFewSamplesError):
            geometric_fit_test(0.8, gamma=5, n_steps=2)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_no_steps_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            geometric_fit_test(0.8, gamma=5, n_steps=n_steps)


class TestSimulateWalltime:
    def test_free_draft_same_model_gives_gamma_plus_one(self):
        m = StatelessModel(np.array([0.4, 0.6]))
        report = simulate_walltime(
            m, m, CostModel(c=0.0), SpecConfig(gamma=3, seed=10), n_tokens=2000
        )
        assert report.empirical_speedup == pytest.approx(4.0)
        assert report.alpha_hat == 1.0

    def test_stateless_gap_below_two_percent(self):
        target, draft = stateless_pair(0.7)
        report = simulate_walltime(
            target, draft, CostModel(c=0.02), SpecConfig(gamma=3, seed=11), n_tokens=10_000
        )
        assert abs(report.rel_gap) < 0.02

    def test_speedup_bounds(self):
        for alpha, gamma, c in [(0.3, 2, 0.05), (0.7, 5, 0.02), (0.9, 8, 0.0)]:
            target, draft = stateless_pair(alpha)
            report = simulate_walltime(
                target, draft, CostModel(c=c), SpecConfig(gamma=gamma, seed=12), n_tokens=5000
            )
            upper = min(gamma + 1.0, 1.0 / (1.0 - alpha)) / (gamma * c + 1.0)
            lower = 1.0 / (gamma * c + 1.0)
            assert lower - 1e-9 <= report.empirical_speedup <= upper + 0.05 * upper

    def test_multi_run_aggregation(self):
        target, draft = stateless_pair(0.5)
        report = simulate_walltime(
            target, draft, CostModel(c=0.01), SpecConfig(gamma=2, seed=13),
            n_tokens=1000, n_runs=3,
        )
        assert len(report.runs) == 3
        assert all(r.tokens >= 1000 for r in report.runs)
        assert report.row("demo")["gamma"] == 2

    def test_batch_penalty_charges_more(self):
        target, draft = stateless_pair(0.6)
        cfg = SpecConfig(gamma=3, seed=14)
        free = simulate_walltime(target, draft, CostModel(), cfg, n_tokens=2000)
        taxed = simulate_walltime(target, draft, CostModel(batch_penalty=0.2), cfg,
                                  n_tokens=2000)
        assert taxed.empirical_speedup < free.empirical_speedup

    def test_batch_penalty_gap_below_two_percent(self):
        # The expected figure is charged the same batch cost as the simulation.
        target, draft = stateless_pair(0.7)
        cost = CostModel(c=0.02, batch_penalty=0.2)
        report = simulate_walltime(target, draft, cost, SpecConfig(gamma=3, seed=11),
                                   n_tokens=10_000)
        assert abs(report.rel_gap) < 0.02
        assert report.expected_speedup == walltime_factor(report.alpha_hat, 3, 0.02,
                                                          cost.batch_cost(3))

    @pytest.mark.parametrize("n_tokens, n_runs", [(100, 0), (100, -1), (0, 1)])
    def test_no_runs_or_tokens_rejected(self, n_tokens, n_runs):
        target, draft = stateless_pair(0.5)
        with pytest.raises(ValueError, match=f"got {n_tokens} and {n_runs}"):
            simulate_walltime(target, draft, CostModel(), SpecConfig(gamma=2),
                              n_tokens=n_tokens, n_runs=n_runs)

    def test_timeline_reflects_real_steps(self):
        target, draft = stateless_pair(0.5)
        report = simulate_walltime(target, draft, CostModel(), SpecConfig(gamma=2, seed=18),
                                   n_tokens=100)
        lines = report.timeline(max_steps=5).splitlines()
        assert len(lines) == 5
        assert all("[q][q][P]" in line for line in lines)
        shown = [int(line.rsplit("->", 1)[1].split()[0]) for line in lines]
        assert shown == report.first_step_tokens[:5]
        assert all(1 <= k <= 3 for k in shown)

    def test_runs_use_consecutive_seeds(self):
        target, draft = stateless_pair(0.5)
        cost = CostModel(c=0.01)
        multi = simulate_walltime(target, draft, cost, SpecConfig(gamma=2, seed=13),
                                  n_tokens=500, n_runs=3)
        for i in range(3):
            single = simulate_walltime(target, draft, cost, SpecConfig(gamma=2, seed=13 + i),
                                       n_tokens=500)
            assert multi.runs[i] == single.runs[0]

    def test_ngram_pair_gap_is_reported_not_asserted(self):
        # Non-stateless models break the i.i.d. assumption; the gap is
        # informational output, so just require the report to be well formed.
        mp, mq = ngram_pair()
        report = simulate_walltime(
            mp, mq, CostModel(c=0.05), SpecConfig(gamma=3, seed=16), n_tokens=3000
        )
        assert 0.0 <= report.alpha_hat <= 1.0
        assert report.empirical_speedup > 0.0
        assert np.isfinite(report.rel_gap)


def ngram_pair():
    """Two bigram models over 6 tokens, each trained on 400 random tokens."""
    rng = RandomStream(15)
    vocab = 6
    mp = train_ngram([int(u * vocab) for u in rng.uniform_block(400)], 2, vocab)
    mq = train_ngram([int(u * vocab) for u in rng.uniform_block(400)], 2, vocab)
    return mp, mq


class TestSimulateCharge:
    """Each run is charged from its decode's totals: the batch cost per
    target call plus c per draft call."""

    @pytest.mark.parametrize("pair", [lambda: stateless_pair(0.7), ngram_pair],
                             ids=["stateless", "ngram"])
    def test_speedup_is_tokens_over_charge(self, pair):
        target, draft = pair()
        cost = CostModel(c=0.05, batch_penalty=0.1)
        config = SpecConfig(gamma=3, seed=21, lenience=0.6)
        report = simulate_walltime(target, draft, cost, config, n_tokens=700, n_runs=2)
        tokens = charge = 0.0
        for seed in (21, 22):  # the runs decode independently with consecutive seeds
            totals = decode(target, draft, [0], SpecConfig(gamma=3, seed=seed, lenience=0.6,
                                                           max_new_tokens=700)).totals
            tokens += totals.tokens_emitted
            charge += cost.batch_cost(3) * totals.target_calls + cost.c * totals.draft_calls
        assert report.empirical_speedup == pytest.approx(tokens / charge, rel=1e-12, abs=0)


def loop_simulation(target, draft, config, n_tokens, prompt=(0,)):
    """Reference for one ``simulate_walltime`` run: a hand-written loop of
    speculative steps (the last one untruncated) with its own count of
    judged positions."""
    rng = RandomStream(config.seed)
    ctx = list(prompt)
    emitted = steps = accepted_total = judged_total = 0
    first_step_tokens = []
    while emitted < n_tokens:
        tokens, trace = speculative_step(target, draft, ctx, config, rng)
        ctx.extend(tokens)
        emitted += len(tokens)
        steps += 1
        accepted_total += trace.accepted_n
        judged_total += min(trace.accepted_n + 1, config.gamma)
        if steps <= 40:
            first_step_tokens.append(len(tokens))
    alpha_hat = accepted_total / judged_total if judged_total else 0.0
    return alpha_hat, steps, first_step_tokens


class TestSimulateMatchesLoopOracle:
    def _check(self, target, draft, config, n_tokens):
        report = simulate_walltime(target, draft, CostModel(c=0.02), config, n_tokens=n_tokens)
        alpha_hat, steps, first = loop_simulation(target, draft, config, n_tokens)
        assert report.alpha_hat.hex() == alpha_hat.hex()
        assert report.runs[0].steps == steps
        assert report.first_step_tokens == first
        assert report.runs[0].tokens == n_tokens

    def test_stateless_pair(self):
        target, draft = stateless_pair(0.7)
        self._check(target, draft, SpecConfig(gamma=3, seed=11), 3000)

    def test_ngram_pair(self):
        mp, mq = ngram_pair()
        self._check(mp, mq, SpecConfig(gamma=3, seed=16), 1500)

    def test_odd_length_run(self):
        target, draft = stateless_pair(0.9)
        self._check(target, draft, SpecConfig(gamma=5, seed=19), 997)


class TestRejectionComparison:
    def test_equal_distributions_both_one(self):
        m = StatelessModel(np.array([0.3, 0.7]))
        rows = rejection_comparison(m, m, [[0]])
        assert rows[0]["speculative_alpha"] == pytest.approx(1.0)
        assert rows[0]["rejection_accept"] == pytest.approx(1.0)

    def test_hand_example(self):
        mp = StatelessModel(np.array([0.8, 0.2]))
        mq = StatelessModel(np.array([0.5, 0.5]))
        rows = rejection_comparison(mp, mq, [[0]])
        assert rows[0]["speculative_alpha"] == pytest.approx(0.7)
        assert rows[0]["rejection_accept"] == pytest.approx(0.625)

    def test_dominance_over_random_pairs(self):
        rng = RandomStream(104)
        for _ in range(10_000):
            p, q = random_pair(rng, 16)
            r = rejection_accept_probability(p, q)
            b = beta(p, q)
            assert r <= b + 1e-12

    def test_ordering_violation_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "beta", lambda p, q: 0.0)
        mp = StatelessModel(np.array([0.8, 0.2]))
        mq = StatelessModel(np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError, match="exceeds speculative"):
            rejection_comparison(mp, mq, [[0]])

    def test_strict_dominance_when_different(self):
        rng = RandomStream(105)
        for _ in range(500):
            p, q = random_pair(rng, 8)
            if float(np.abs(p.probs - q.probs).max()) > 1e-9:
                assert rejection_accept_probability(p, q) < beta(p, q)


def test_simulated_speedup_vs_expected_tokens_identity():
    # Free draft: empirical speedup equals tokens per step, which must land
    # near the closed form.
    target, draft = stateless_pair(0.8)
    report = simulate_walltime(
        target, draft, CostModel(c=0.0), SpecConfig(gamma=5, seed=17), n_tokens=20_000
    )
    assert report.empirical_speedup == pytest.approx(expected_tokens(0.8, 5), rel=0.02)


class TestContextTokens:
    # With V 2, a bigram pair would read an unseen context as uniform, so a
    # context that holds no token id must be refused before any step is drawn.
    @staticmethod
    def bigram_pair():
        corpus = [int(u * 2) for u in RandomStream(40).uniform_block(300)]
        return train_ngram(corpus, 2, 2), train_ngram(corpus, 2, 2, smoothing_k=1.0)

    @pytest.mark.parametrize("contexts, named", [([[7]], r"\[7\]"), ([[0], [1, -1]], r"\[-1\]"),
                                                 ([[0.5]], r"\[0.5\]")],
                             ids=["unseen", "negative", "non-integer"])
    def test_equivalence_refuses(self, monkeypatch, contexts, named):
        monkeypatch.setattr(harness, "speculative_steps", None)  # a step would raise TypeError
        with pytest.raises(ValueError, match=rf"context tokens {named} are not token ids in "
                                             r"\[0, 2\)"):
            equivalence_test(*self.bigram_pair(), SpecConfig(gamma=2), 10_000, contexts)

    @pytest.mark.parametrize("contexts, named", [([[9]], r"\[9\]"), ([[0], [1, 2]], r"\[2\]")],
                             ids=["unseen", "second"])
    def test_rejection_comparison_refuses(self, contexts, named):
        with pytest.raises(ValueError, match=rf"context tokens {named} are not token ids in "
                                             r"\[0, 2\)"):
            rejection_comparison(*self.bigram_pair(), contexts)

    def test_token_ids_pass(self):
        target, draft = self.bigram_pair()
        assert len(rejection_comparison(target, draft, [[0], [1, 0], np.array([1])])) == 3


class TestRandomPairSweeps:
    @pytest.mark.parametrize("check", [exactness_check, rejection_check],
                             ids=["exactness", "rejection"])
    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_pairs_rejected(self, check, pairs):
        # A sweep over no pairs would read as a clean pass.
        with pytest.raises(ValueError, match=f"pairs must be >= 1, got {pairs}"):
            check(pairs, 4, 0)

    def test_one_pair_is_a_sweep(self):
        worst, worst_lenient = exactness_check(1, 4, 0)
        assert worst < 1e-12 and worst_lenient <= 1e-12
        violations, worst_margin = rejection_check(1, 4, 0)
        assert violations == 0 and 0.0 <= worst_margin <= 1.0
