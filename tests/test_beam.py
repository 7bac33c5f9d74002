"""Beam search: determinism, tie-breaking, and speculative/standard equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from specdec import beam
from specdec.beam import Beam, speculative_beam_search, standard_beam_search
from specdec.distmath import Distribution
from specdec.models import StatelessModel, random_model, train_ngram
from specdec.rng import RandomStream
from specdec.tokenizers import ByteTokenizer


def make_ngram_pair(seed: int, vocab: int = 8, order: int = 2, length: int = 300):
    rng = RandomStream(seed)
    corpus_p = [int(u * vocab) for u in rng.uniform_block(length)]
    corpus_q = [int(u * vocab) for u in rng.uniform_block(length)]
    return (
        train_ngram(corpus_p, order=order, vocab_size=vocab),
        train_ngram(corpus_q, order=order, vocab_size=vocab),
    )


def _reference_step(beams, dists, width):
    """The sort-based kernel: build every one-token extension, sort by (-score, tokens)."""
    with np.errstate(divide="ignore"):
        rows = [np.log(d.probs).tolist() for d in dists]
    out = [Beam(b.tokens + (t,), b.score + lp) for b, row in zip(beams, rows)
           for t, lp in enumerate(row)]
    return sorted(out, key=lambda b: (-b.score, b.tokens))[:width]


def _bits(beams):
    return [(b.tokens, b.score.hex()) for b in beams]


def _random_case(rng: np.random.Generator):
    """1-5 distinct beams of one length in shuffled order, V 1-11 and a width of 1-7.
    Scores and probabilities come from small sets, so exact ties, -inf scores and
    zero-probability tokens are common."""
    vocab, length = int(rng.integers(1, 12)), int(rng.integers(0, 4))
    n = min(int(rng.integers(1, 6)), 3 ** length)
    tokens = sorted({tuple(int(t) for t in rng.integers(0, 3, length)) for _ in range(4 * n)})
    tokens = [tokens[i] for i in rng.permutation(len(tokens))[:n]]
    scores = rng.choice([0.0, np.log(0.5), np.log(0.25), -1.5, -np.inf], n).tolist()
    dists = []
    for _ in range(n):
        counts = rng.choice([0.0, 1.0, 1.0, 2.0, 4.0], vocab)
        counts[int(rng.integers(vocab))] += 1.0
        dists.append(Distribution(counts / counts.sum()))
    return [Beam(t, s) for t, s in zip(tokens, scores)], dists, int(rng.integers(1, 8))


class TestStepKernel:
    def test_random_cases_match_the_sort_bitwise(self):
        rng = np.random.default_rng(31)
        seen = {"tie": 0, "-inf": 0, "zero-prob": 0, "unsorted": 0, "past-all": 0}
        for case in range(3000):
            beams, dists, width = _random_case(rng)
            want = _reference_step(beams, dists, width)
            assert _bits(beam._step(beams, dists, width)) == _bits(want), f"case {case}"
            scores = [b.score for b in want]
            seen["tie"] += len(set(scores)) < len(scores)
            seen["-inf"] += -np.inf in scores
            seen["zero-prob"] += any((d.probs == 0).any() for d in dists)
            seen["unsorted"] += [b.tokens for b in beams] != sorted(b.tokens for b in beams)
            seen["past-all"] += width > len(beams) * dists[0].probs.size
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("n, vocab, width", [(1, 3, 2), (4, 34, 4), (2, 258, 8), (2, 3, 9)])
    def test_builds_only_the_beams_it_keeps(self, monkeypatch, n, vocab, width):
        built = []

        class CountedBeam(Beam):
            def __init__(self, tokens, score):
                built.append(tokens)
                super().__init__(tokens, score)

        beams = [Beam((i,), -float(i)) for i in range(n)]
        dists = [Distribution(np.full(vocab, 1.0 / vocab)) for _ in range(n)]
        monkeypatch.setattr(beam, "Beam", CountedBeam)
        kept = beam._step(beams, dists, width)
        assert len(built) == len(kept) == min(width, n * vocab)


class TestStandardBeamSearch:
    def test_width_one_is_greedy(self):
        mp, _ = make_ngram_pair(3)
        beams = standard_beam_search(mp, [0], width=1, steps=6)
        # Independent greedy oracle with the same first-max tie rule.
        seq, greedy = [0], []
        for _ in range(6):
            t = int(np.argmax(mp.evaluate(seq)))
            greedy.append(t)
            seq.append(t)
        assert list(beams[0].tokens) == greedy

    def test_sorted_by_score_descending(self):
        mp, _ = make_ngram_pair(4)
        beams = standard_beam_search(mp, [0], width=4, steps=5)
        scores = [b.score for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_lexicographically(self):
        uniform = random_model(3)
        beams = standard_beam_search(uniform, [0], width=4, steps=2)
        # All sequences score identically, so the kept beams are the four
        # lexicographically smallest.
        assert [b.tokens for b in beams] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_ties_across_beams_break_lexicographically(self):
        # (1, 0) and (0, 1) score the same, and the root (1,) ranks above (0,),
        # so only the tie rule puts (0, 1) ahead of (1, 0).
        model = StatelessModel(np.array([0.3, 0.5, 0.2]))
        beams = standard_beam_search(model, [0], width=2, steps=2)
        assert [b.tokens for b in beams] == [(1, 1), (0, 1)]

    def test_deterministic(self):
        mp, _ = make_ngram_pair(5)
        a = standard_beam_search(mp, [1], width=3, steps=7)
        b = standard_beam_search(mp, [1], width=3, steps=7)
        assert a == b

    def test_rejects_bad_widths(self):
        mp, _ = make_ngram_pair(6)
        with pytest.raises(ValueError):
            standard_beam_search(mp, [0], width=0, steps=3)


class _CountingBatches:
    """Wraps a model and records the size of each batched call."""

    def __init__(self, model, sizes):
        self._model, self._sizes = model, sizes
        self.vocab_size = model.vocab_size

    def next_distribution_batch(self, prefixes, policy):
        self._sizes.append(len(prefixes))
        return self._model.next_distribution_batch(prefixes, policy)


class TestSpeculativeBeamSearch:
    @pytest.mark.parametrize("w,u,gamma", [(2, 4, 3), (3, 8, 2), (1, 2, 4)])
    def test_equiv_random_pairs(self, w, u, gamma):
        for seed in range(25):
            mp, mq = make_ngram_pair(1000 + seed)
            prompt = [seed % 8]
            spec, _ = speculative_beam_search(mp, mq, prompt, w, u, gamma, steps=8)
            std = standard_beam_search(mp, prompt, w, steps=8)
            assert spec == std, f"beams differ at seed {seed}"

    def test_same_model_same_width_accepts_everything(self):
        mp, _ = make_ngram_pair(7)
        spec, stats = speculative_beam_search(mp, mp, [0], 2, 2, 3, steps=9)
        assert stats.accepted_steps == stats.steps == 9
        assert spec == standard_beam_search(mp, [0], 2, steps=9)
        # Three blocks: 1 root + 2 + 2 beams, then 2 roots + 2 + 2 twice;
        # the last draft level of a block is never sent to the target.
        assert stats.target_sequences == 17

    def test_draft_width_covering_all_candidates_accepts(self):
        # With one root beam, one draft step, and u = vocab the draft keeps
        # every candidate, so the subset condition is vacuous.
        mp, mq = make_ngram_pair(8)
        vocab = mp.vocab_size
        spec, stats = speculative_beam_search(mp, mq, [0], 1, vocab, 1, steps=6)
        assert stats.accepted_steps == stats.steps == 6
        assert spec == standard_beam_search(mp, [0], 1, steps=6)

    def test_wide_draft_still_equal_on_violations(self):
        mp, mq = make_ngram_pair(9)
        spec, stats = speculative_beam_search(mp, mq, [0], 2, mp.vocab_size, 3, steps=9)
        assert spec == standard_beam_search(mp, [0], 2, steps=9)
        assert 0.0 <= stats.accept_fraction <= 1.0

    def test_stats_accounting(self):
        mp, mq = make_ngram_pair(10)
        w, u, gamma = 2, 4, 3
        sizes = []
        counting = _CountingBatches(mp, sizes)
        _, stats = speculative_beam_search(counting, mq, [0], w, u, gamma, steps=10)
        assert stats.steps == 10  # violations cut blocks short, never the search
        assert stats.accepted_steps <= stats.steps
        assert len(stats.per_step_accepted) == stats.steps
        assert stats.target_batched_calls == stats.blocks == len(sizes)
        assert stats.target_sequences == sum(sizes)
        # No block sends the target more than the roots and gamma - 1 levels.
        assert max(sizes) <= w + u * (gamma - 1)

    def test_rejects_narrow_draft_width(self):
        mp, mq = make_ngram_pair(11)
        with pytest.raises(ValueError):
            speculative_beam_search(mp, mq, [0], 3, 2, 2, steps=4)

    def test_point_mass_models(self):
        # Degenerate distributions: beams hit -inf scores but stay ordered.
        mp = StatelessModel(np.array([0.0, 1.0, 0.0]))
        mq = StatelessModel(np.array([1.0, 0.0, 0.0]))
        spec, _ = speculative_beam_search(mp, mq, [0], 2, 3, 2, steps=4)
        std = standard_beam_search(mp, [0], 2, steps=4)
        assert spec == std
        assert spec[0].tokens == (1, 1, 1, 1)

    @pytest.mark.parametrize("w,u,gamma", [(2, 4, 3), (3, 8, 2)])
    def test_byte_vocabulary_with_smoothed_ties(self, monkeypatch, w, u, gamma):
        # Add-k smoothing gives every unseen byte the same probability, and the prompt's
        # last bytes are an unseen context, so the first step is a 258-way tie.
        rng = RandomStream(31)
        corpus = ByteTokenizer().encode(bytes(97 + int(6 * u) for u in rng.uniform_block(600)))
        mp, mq = (train_ngram(corpus, order, ByteTokenizer.vocab_size, 0.01) for order in (3, 2))
        for prompt in ([0, 1], [97, 98], [99]):
            spec, _ = speculative_beam_search(mp, mq, prompt, w, u, gamma, steps=8)
            std = standard_beam_search(mp, prompt, w, steps=8)
            assert spec == std, f"beams differ at prompt {prompt}"
            with monkeypatch.context() as m:
                m.setattr(beam, "_step", _reference_step)
                assert _bits(standard_beam_search(mp, prompt, w, steps=8)) == _bits(std)

    def test_beam_dataclass_equality(self):
        assert Beam((1, 2), -0.5) == Beam((1, 2), -0.5)
        assert Beam((1, 2), -0.5) != Beam((1, 2), -0.6)


class _Unasked(StatelessModel):
    """A stateless model that fails the test if it is ever asked for a distribution."""

    def next_distribution_batch(self, prefixes, policy):
        raise AssertionError("model asked before the request was checked")


class TestRequestChecks:
    # An unseen context falls back to uniform in an n-gram model, so a bad
    # token would otherwise search as if it were a real one.
    @pytest.mark.parametrize("prompt, named", [([99, -3], r"\[99, -3\]"), ([0, 1.5], r"\[1.5\]")],
                             ids=["outside", "non-integer"])
    def test_prompt_outside_vocab_refused(self, prompt, named):
        target, draft = _Unasked(np.full(4, 0.25)), _Unasked(np.full(4, 0.25))
        match = rf"prompt tokens {named} are not token ids in \[0, 4\)"
        with pytest.raises(ValueError, match=match):
            standard_beam_search(target, prompt, 2, 3)
        with pytest.raises(ValueError, match=match):
            speculative_beam_search(target, draft, prompt, 2, 2, 2, 3)

    def test_vocab_mismatch_refused(self):
        with pytest.raises(ValueError, match="vocab mismatch: target 4 vs draft 6"):
            speculative_beam_search(_Unasked(np.full(4, 0.25)), _Unasked(np.full(6, 1 / 6)),
                                    [0], 2, 2, 2, 3)

    @pytest.mark.parametrize("name, value", [("width", 2.5), ("steps", 2.0)])
    def test_standard_non_integer_count_refused(self, name, value):
        counts = {"width": 2, "steps": 3, name: value}
        with pytest.raises(TypeError, match=rf"{name} must be an integer, got {value!r}"):
            standard_beam_search(_Unasked(np.full(4, 0.25)), [0], **counts)

    @pytest.mark.parametrize("name, value", [("width", 2.5), ("draft_width", 4.0),
                                             ("gamma", 1.5), ("steps", 2.5)])
    def test_speculative_non_integer_count_refused(self, name, value):
        target, draft = _Unasked(np.full(4, 0.25)), _Unasked(np.full(4, 0.25))
        counts = {"width": 2, "draft_width": 4, "gamma": 2, "steps": 3, name: value}
        with pytest.raises(TypeError, match=rf"{name} must be an integer, got {value!r}"):
            speculative_beam_search(target, draft, [0], **counts)

    @pytest.mark.parametrize("counts, message", [
        ({"width": 0}, "width must be >= 1, got 0"),
        ({"steps": -1}, "steps must be >= 1, got -1"),
        ({"width": 3, "draft_width": 2}, "draft_width must be >= 3, got 2"),
        ({"gamma": 0}, "gamma must be >= 1, got 0"),
    ], ids=["width", "steps", "draft_width", "gamma"])
    def test_count_out_of_range_named(self, counts, message):
        target, draft = _Unasked(np.full(4, 0.25)), _Unasked(np.full(4, 0.25))
        all_counts = {"width": 2, "draft_width": 4, "gamma": 2, "steps": 3, **counts}
        with pytest.raises(ValueError, match=f"^{message}$"):
            speculative_beam_search(target, draft, [0], **all_counts)
        if set(counts) <= {"width", "steps"}:
            with pytest.raises(ValueError, match=f"^{message}$"):
                standard_beam_search(target, [0], **{"width": 2, "steps": 3, **counts})

    def test_numpy_integer_counts_pass(self):
        mp, mq = make_ngram_pair(13, vocab=4)
        plain = standard_beam_search(mp, [0], 2, 3)
        assert standard_beam_search(mp, [0], np.int64(2), np.int32(3)) == plain
        spec, _ = speculative_beam_search(mp, mq, [0], np.int64(2), np.int16(3), np.int64(2),
                                          np.int32(3))
        assert spec == plain

    def test_last_token_id_passes(self):
        mp, mq = make_ngram_pair(12, vocab=4)
        spec, _ = speculative_beam_search(mp, mq, [3, 0], 2, 3, 2, steps=3)
        assert spec == standard_beam_search(mp, [3, 0], 2, 3)
