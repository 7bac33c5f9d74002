"""The exact law of the first k decoded tokens, for both step kernels.

A step is a function of its 2*gamma+1 variates (gamma draft variates, gamma
acceptance variates, one final variate; see ``specdec.engine``). The oracle
splits [0, 1)^(2*gamma+1) into cells on which that function is constant:

- each draft variate at the CDF breakpoints of q at its drafted prefix;
- each acceptance variate at min(1, p(x)/(l*q(x))) for lenience l;
- the final variate at the breakpoints of ``residual(p, q, l)`` at the first
  rejection, or of the target's extra position when every draft is accepted.

Under argmax at l < 1 a draft is judged on the raw target instead, whatever
its acceptance variate, and a rejection is corrected from p; the oracle
splits the same way from its own copy of that rule. Only the scalar kernel
runs that rule: the block kernel refuses it, since it has no law to fit.

It runs the kernel at each cell's midpoint through a scripted stream, weights
the emitted tokens by the cell's volume, and recurses into the next step from
each distinct output until k tokens are out. For a correct kernel the sum is
its exact law of the first k tokens. At l = 1 it must equal the target's
chain of next-token probabilities to 1e-12, at every position and across
steps. At l < 1 each position's conditional law must stay within p/l, and
under argmax every emitted token must pass the lenient test on the raw
target.

Variates that cannot change the first k tokens are not split and are held at
0.5: the drafts and acceptance tests after the first rejection, and every
variate after the step's k-th token. Empty cells (p(x) = 0) are skipped.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
import pytest

from specdec.distmath import IDENTITY_POLICY, SamplingPolicy, residual
from specdec.engine import SpecConfig, speculative_step, speculative_steps
from specdec.models import train_ngram
from specdec.rng import RandomStream

_V = 3


class ScriptedStream:
    """Hands out the given variates in order, as ``RandomStream`` would."""

    def __init__(self, variates):
        self._u = np.asarray(variates, dtype=np.float64).ravel()
        self.n_drawn = 0

    def uniform_block(self, n: int) -> np.ndarray:
        assert self.n_drawn + n <= self._u.size, "the kernel drew more variates than scripted"
        out = self._u[self.n_drawn:self.n_drawn + n].copy()
        self.n_drawn += n
        return out


def _scalar(target, draft, prefix, config, rows):
    out = []
    for row in rows:
        stream = ScriptedStream(row)
        out.append(speculative_step(target, draft, prefix, config, stream)[0])
        assert stream.n_drawn == len(row)
    return out


def _block(target, draft, prefix, config, rows):
    stream = ScriptedStream(rows)
    b = speculative_steps(target, draft, prefix, config, stream, len(rows))
    assert stream.n_drawn == len(rows) * len(rows[0])
    return [b.drafts[r, :n].tolist() + [int(b.correction[r])]
            for r, n in enumerate(b.accepted_n.tolist())]


KERNELS = {"scalar": _scalar, "block": _block}


def _cells_of(d):
    """(midpoint, width) of each token's inverse-CDF cell, by token, for tokens
    with positive probability."""
    lo = np.concatenate(([0.0], d.cdf[:-1]))
    return {x: ((lo[x] + d.cdf[x]) / 2, float(d.probs[x]))
            for x in np.flatnonzero(d.probs > 0).tolist()}


class Oracle:
    """The cells of ``kernel``'s steps on one model pair and config, with the
    pair's distributions memoized by prefix."""

    def __init__(self, target, draft, config, kernel):
        self.target, self.draft, self.config, self.kernel = target, draft, config, kernel
        self._memo = {}

    def _dist(self, model, prefix, policy):
        key = (model is self.target, policy, tuple(prefix))
        if key not in self._memo:
            self._memo[key] = model.next_distribution(prefix, policy)
        return self._memo[key]

    def p(self, prefix):
        return self._dist(self.target, prefix, self.config.policy)

    def q(self, prefix):
        return self._dist(self.draft, prefix, self.config.policy)

    def raw_p(self, prefix):
        return self._dist(self.target, prefix, IDENTITY_POLICY)

    def step_cells(self, prefix, need):
        """Every cell of one step from ``prefix`` that can change its first
        ``need`` tokens: (its row of variates, its volume)."""
        gamma, lenience = self.config.gamma, self.config.lenience
        argmax_lenient = self.config.policy.is_argmax and lenience < 1.0
        cells = []

        def walk(i, row, volume, drafted):
            if i == need:  # the first ``need`` tokens are accepted drafts
                cells.append((row, volume))
                return
            p = self.p(prefix + drafted)
            if i == gamma:  # every draft accepted: the extra position
                for mid, w in _cells_of(p).values():
                    cells.append((_with(row, {2 * gamma: mid}), volume * w))
                return
            q = self.q(prefix + drafted)
            for x, (mid, w) in _cells_of(q).items():
                if argmax_lenient:
                    raw = self.raw_p(prefix + drafted).probs
                    t = float(raw[x] >= lenience * raw.max())
                else:
                    t = min(1.0, p.probs[x] / (lenience * q.probs[x]))
                if t > 0.0:
                    walk(i + 1, _with(row, {i: mid, gamma + i: t / 2}), volume * w * t,
                         drafted + [x])
                if t < 1.0:
                    correction = p if argmax_lenient else residual(p, q, lenience)
                    for mid_r, w_r in _cells_of(correction).values():
                        rejected = _with(row, {i: mid, gamma + i: (1 + t) / 2, 2 * gamma: mid_r})
                        cells.append((rejected, volume * w * (1 - t) * w_r))

        walk(0, [0.5] * (2 * gamma + 1), 1.0, [])
        return cells

    def law(self, prompt, k):
        """The kernel's law of its first ``k`` tokens from ``prompt``."""
        law = defaultdict(float)

        def expand(prefix, emitted, weight):
            need = k - len(emitted)
            cells = self.step_cells(prefix, need)
            outputs = self.kernel(self.target, self.draft, prefix, self.config,
                                  [row for row, _ in cells])
            by_output = defaultdict(float)
            for (_, volume), tokens in zip(cells, outputs):
                by_output[tuple(tokens[:need])] += volume
            for tokens, volume in by_output.items():
                if len(tokens) == need:
                    law[emitted + tokens] += weight * volume
                else:
                    expand(prefix + list(tokens), emitted + tokens, weight * volume)

        expand(list(prompt), (), 1.0)
        return law

    def target_law(self, prompt, k):
        law = {}
        for seq in itertools.product(range(self.target.vocab_size), repeat=k):
            prob = 1.0
            for j, x in enumerate(seq):
                prob *= float(self.p(list(prompt) + list(seq[:j])).probs[x])
            law[seq] = prob
        return law


def _with(row, values):
    row = list(row)
    for i, u in values.items():
        row[i] = u
    return row


def _markov_text(seed, rule, n=400):
    tokens = [0, 1]
    for u in RandomStream(seed).uniform_block(n):
        tokens.append(rule(tokens, u) % _V)
    return tokens


def _pair():
    """An order-3 target and an order-2 draft, add-k 0.5, trained on texts
    from different rules, so that p and q disagree at every position."""
    target_text = _markov_text(41, lambda t, u: 2 * t[-1] + t[-2] + int(3 * u ** 3))
    draft_text = _markov_text(42, lambda t, u: t[-1] + 1 + int(2 * u * u))
    return (train_ngram(target_text, 3, _V, smoothing_k=0.5),
            train_ngram(draft_text, 2, _V, smoothing_k=0.5))


POLICIES = {"identity": IDENTITY_POLICY, "top_k2": SamplingPolicy(top_k=2),
            "temperature": SamplingPolicy(temperature=0.5), "top_p": SamplingPolicy(top_p=0.8),
            "argmax": SamplingPolicy(argmax=True)}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_first_k_tokens_follow_target_law(kernel, policy, gamma, k):
    target, draft = _pair()
    oracle = Oracle(target, draft, SpecConfig(gamma=gamma, policy=POLICIES[policy]),
                    KERNELS[kernel])
    prompt = [0, 1]
    expected = oracle.target_law(prompt, k)
    got = oracle.law(prompt, k)
    assert set(got) <= set(expected)
    worst = max(abs(got.get(seq, 0.0) - prob) for seq, prob in expected.items())
    assert worst <= 1e-12, f"first {k} tokens off the target's law by {worst:.3g}"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("gamma", [1, 2, 3])
@pytest.mark.parametrize("lenience", [0.5, 0.8])
def test_first_k_tokens_within_lenient_bound(kernel, policy, gamma, lenience):
    target, draft = _pair()
    config = SpecConfig(gamma=gamma, policy=POLICIES[policy], lenience=lenience)
    oracle = Oracle(target, draft, config, KERNELS[kernel])
    prompt = [0, 1]
    if kernel == "block" and config.policy.is_argmax:
        stream = ScriptedStream([0.5] * (2 * gamma + 1))
        with pytest.raises(ValueError, match="argmax-lenient"):
            speculative_steps(target, draft, prompt, config, stream, 1)
        assert stream.n_drawn == 0
        return
    law = oracle.law(prompt, 3)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    mass = defaultdict(float)  # the law's mass on each head of its sequences
    for seq, prob in law.items():
        for j in range(len(seq) + 1):
            mass[seq[:j]] += prob
    for seq in [seq for seq in mass if seq]:
        head, x = seq[:-1], seq[-1]
        context = prompt + list(head)
        if config.policy.is_argmax:
            raw = oracle.raw_p(context).probs
            assert raw[x] >= lenience * raw.max(), f"{seq} emits a token the lenient test rejects"
        else:
            bound = oracle.p(context).probs[x] / lenience
            assert mass[seq] / mass[head] <= bound + 1e-12, f"P({x} | {head}) exceeds {bound:.6g}"
