"""Model zoo: n-gram training, copy heuristic, stateless and uniform models,
tokenizers, and the batching/standardization contracts."""

from __future__ import annotations

import hashlib
import random
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import engine, models
from specdec.analysis import beta
from specdec.distmath import Distribution, IDENTITY_POLICY, SamplingPolicy, standardize
from specdec.engine import SpecConfig, decode, standard_decode
from specdec.model_io import serialize_model
from specdec.models import (
    MAX_VOCAB,
    CopyModel,
    CorpusTooShortError,
    LanguageModel,
    NGramModel,
    StatelessModel,
    random_model,
    stateless_pair,
    train_ngram,
)
from specdec.models import _copy_scores
from specdec.rng import RandomStream
from specdec.tokenizers import ByteTokenizer, UnknownTokenError, WordTokenizer


def brute_force_conditional(corpus, order, vocab, k, context):
    """Independent oracle: recount sliding windows directly."""
    totals = np.zeros(vocab)
    for i in range(len(corpus) - order + 1):
        if tuple(corpus[i : i + order - 1]) == tuple(context):
            totals[corpus[i + order - 1]] += 1
    if totals.sum() == 0 and order > 1:
        return np.full(vocab, 1.0 / vocab)  # uniform backoff
    smoothed = totals + k
    return smoothed / smoothed.sum()


def loop_counts(corpus, order, vocab):
    """Reference counter: the per-window loop that ``train_ngram`` replaced."""
    counts = defaultdict(lambda: defaultdict(int))
    for i in range(len(corpus) - order + 1):
        ctx = tuple(corpus[i : i + order - 1])
        nxt = int(corpus[i + order - 1])
        assert 0 <= nxt < vocab
        counts[ctx][nxt] += 1
    return {ctx: dict(tbl) for ctx, tbl in counts.items()}


def assert_counts_match_loop(corpus, order, vocab):
    model = train_ngram(corpus, order, vocab)
    expected = loop_counts(corpus, order, vocab)
    assert model.counts == expected
    assert all(type(x) is int
               for ctx, tbl in model.counts.items() for x in (*ctx, *tbl, *tbl.values()))
    assert serialize_model(model) == serialize_model(
        models.NGramModel(order, vocab, model.smoothing_k, counts=expected))


@st.composite
def ngram_corpora(draw):
    """(corpus, order, vocab): tokens from a small alphabet anywhere in the
    vocabulary, so windows repeat even when the vocabulary is large."""
    vocab = draw(st.one_of(st.integers(1, 5), st.integers(1, MAX_VOCAB)))
    alphabet = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
    order = draw(st.integers(1, 6))
    corpus = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=300))
    return corpus, order, vocab


def _repetitive_corpus(vocab: int, size: int, seed: int) -> list[int]:
    """A corpus that repeats one block with a few substitutions, over tokens
    that include the top of the vocabulary, so long windows recur."""
    rng = random.Random(seed)
    alphabet = sorted({0, 1, vocab // 2, vocab - 2, vocab - 1} & set(range(vocab)))
    block = [rng.choice(alphabet) for _ in range(61)]
    corpus = (block * (size // len(block) + 1))[:size]
    for i in rng.sample(range(size), size // 20):
        corpus[i] = rng.choice(alphabet)
    return corpus


class TestNGram:
    def test_hand_counted_bigram(self):
        # corpus a,b,a,b,a: context (a) precedes b twice; the final a ends
        # the corpus and contributes no window.
        vocab, k = 4, 0.01
        model = train_ngram([0, 1, 0, 1, 0], order=2, vocab_size=vocab, smoothing_k=k)
        p_b_given_a = model.evaluate([0])[1]
        assert p_b_given_a == pytest.approx((2 + k) / (2 + k * vocab), abs=1e-15)

    def test_matches_brute_force_on_random_corpus(self):
        rng = RandomStream(11)
        vocab, order, k = 7, 3, 0.25
        corpus = [int(u * vocab) for u in rng.uniform_block(500)]
        model = train_ngram(corpus, order, vocab, smoothing_k=k)
        for ctx in [(0, 1), (3, 3), (6, 0), (2, 5)]:
            expected = brute_force_conditional(corpus, order, vocab, k, ctx)
            np.testing.assert_allclose(model.evaluate(list(ctx)), expected, atol=1e-12)

    def test_unigram_is_context_independent(self):
        model = train_ngram([0, 0, 1, 2, 0], order=1, vocab_size=3, smoothing_k=0.01)
        np.testing.assert_array_equal(model.evaluate([]), model.evaluate([2, 1, 0]))
        counts = np.array([3, 1, 1]) + 0.01
        np.testing.assert_allclose(model.evaluate([]), counts / counts.sum(), atol=1e-12)

    def test_unseen_context_backs_off_to_uniform(self):
        model = train_ngram([0, 1, 0, 1], order=2, vocab_size=5)
        np.testing.assert_allclose(model.evaluate([4]), np.full(5, 0.2))

    def test_short_prefix_backs_off(self):
        model = train_ngram([0, 1, 2, 0, 1, 2], order=3, vocab_size=3)
        np.testing.assert_allclose(model.evaluate([]), np.full(3, 1 / 3))

    def test_corpus_too_short(self):
        with pytest.raises(CorpusTooShortError):
            train_ngram([0], order=2, vocab_size=4)

    def test_full_support_with_positive_smoothing(self):
        model = train_ngram([0, 1, 0, 1, 0], order=2, vocab_size=6, smoothing_k=0.01)
        for prefix in ([0], [1], [5]):
            assert np.all(model.evaluate(prefix) > 0)

    @pytest.mark.parametrize("corpus, vocab, bad", [
        ([0, 9], 4, 9),
        ([300, 1, 2, 3], 10, 300),  # a context-only position
        ([-1, 1, 2, 3], 10, -1),
        ([1, 2, 2**63, 3], 10, 2**63),  # outside int64
        ([1, -2**63 - 1, 3], 10, -2**63 - 1),
        ([1, 11, 2**64, -1], 10, 11),  # the first in corpus order
        ([1, 2**64, 11, -1], 10, 2**64),
    ])
    def test_rejects_out_of_vocab_token(self, corpus, vocab, bad):
        with pytest.raises(ValueError, match=rf"^corpus token {bad} outside vocab of {vocab}$"):
            train_ngram(corpus, order=2, vocab_size=vocab)

    @given(ngram_corpora())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_window_loop(self, case):
        corpus, order, vocab = case
        if len(corpus) < order:
            with pytest.raises(CorpusTooShortError):
                train_ngram(corpus, order, vocab)
        else:
            assert_counts_match_loop(corpus, order, vocab)

    @pytest.mark.parametrize("vocab, order", [(MAX_VOCAB, 4), (MAX_VOCAB, 6), (258, 9), (3, 40)])
    def test_counts_match_window_loop_past_int64(self, vocab, order):
        # vocab ** order exceeds 2**63, so the window codes are renumbered
        # before the fold that would overflow.
        assert vocab ** order > 2**63
        corpus = _repetitive_corpus(vocab, 3000, seed=order)
        assert max(corpus) == vocab - 1
        assert_counts_match_loop(corpus, order, vocab)
        assert max(c for tbl in loop_counts(corpus, order, vocab).values() for c in tbl.values()) > 1

    @pytest.mark.parametrize("last", [1, 2])
    def test_counts_match_window_loop_at_the_int64_edge(self, last):
        # The context's code is 2**63 // 3, so with a last token of 1 the
        # window's code is 2**63 - 1, and with 2 it would pass int64.
        code, ctx = (1 << 63) // 3, []
        while code:
            code, digit = divmod(code, 3)
            ctx.insert(0, digit)
        assert_counts_match_loop(ctx + [last], len(ctx) + 1, 3)

    def test_training_memory_is_bounded(self):
        # Set-up memory is gated end to end (peak_rss_mb). On this corpus, over
        # the 32 symbols of the benchmark's byte text, the per-window loop
        # peaks at 2.5 MB and the numpy count at 4.2 MB; one that also asks
        # np.unique for each window's first index, and keeps the corpus array
        # to read the windows back, peaks at 9.3 MB.
        alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz .,;:!", dtype=np.uint8)
        corpus = np.random.default_rng(16).choice(alphabet, 200_000).tolist()
        tracemalloc.start()
        try:
            model = train_ngram(corpus, order=3, vocab_size=258)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(sum, (t.values() for t in model.counts.values()))) == 200_000 - 2
        assert peak <= 6 * 10**6

    def test_row_cache_is_bounded(self):
        # Unbounded, and storing the uniform row for every unseen context,
        # this decode left 660 entries in the caches, 76 of them rows of
        # seen contexts (38 MiB); either rule alone still passes 2**20 floats.
        vocab = 1 << 16
        corpus = np.random.default_rng(7).integers(0, 400, 20_000).tolist()
        target = train_ngram(corpus, 2, vocab, smoothing_k=1e-4)
        draft = train_ngram(corpus[:4000], 2, vocab, smoothing_k=1e-4)
        tracemalloc.start()
        try:
            decode(target, draft, corpus[:5], SpecConfig(gamma=4, max_new_tokens=300))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for model in (target, draft):
            assert 0 < len(model._dense_cache) * vocab <= MAX_VOCAB
            assert model._dense_cache.keys() <= model.counts.keys()
        assert size <= 16 * 2**20


def _common_suffixes(tokens: list[int]) -> np.ndarray:
    """``lcs[j]``: length of the longest common suffix of ``tokens[:j+1]``
    and ``tokens``, for every ``j`` (so ``lcs[-1] == len(tokens)``).

    One pass of the Z-function over the reversed tokens ``r``: ``z[i]``,
    the longest common prefix of ``r`` and ``r[i:]``, is ``lcs[n-1-i]``.
    """
    r = tokens[::-1]
    n = len(r)
    z = [n] * n  # z[0] = n; the loop sets every later entry
    lo = hi = 0  # rightmost window [lo, hi) with r[lo:hi] == r[:hi-lo]
    for i in range(1, n):
        zi = min(hi - i, z[i - lo]) if i < hi else 0
        while i + zi < n and r[zi] == r[i + zi]:
            zi += 1
        z[i] = zi
        if i + zi > hi:
            lo, hi = i, i + zi
    return np.array(z[::-1], dtype=np.int64)


def _copied_token(tokens: list[int], lcs: np.ndarray, min_match: int) -> int | None:
    """The token after the longest earlier match of the suffix (the most
    recent one among equals), if that match is at least ``min_match`` long."""
    back = lcs[-2::-1]  # the matches ending before the last token, most recent first
    if len(back) == 0:
        return None
    i = int(back.argmax())
    return tokens[-1 - i] if back[i] >= min_match else None


def copy_predict(model: CopyModel, prefix) -> np.ndarray:
    """Oracle: the copy heuristic's distribution for one prefix, from scratch,
    in O(n) time.

    The longest suffix of length at least ``min_match`` that also occurs
    earlier in the prefix wins; among equal-length matches the most recent
    earlier occurrence wins. An occurrence may overlap the suffix, it just
    has to start earlier. The copied token is the one right after that
    occurrence.
    """
    tokens = list(prefix)
    return _copy_scores(model, _copied_token(tokens, _common_suffixes(tokens), model.min_match))


class TestCopyModel:
    def test_matched_suffix_copies_follower(self):
        # prefix a,b,c,a,b: suffix (a,b) matched at position 0, followed by c.
        model = CopyModel(vocab_size=10, min_match=2, copy_mass=0.9)
        out = copy_predict(model, [0, 1, 2, 0, 1])
        assert out[2] == pytest.approx(0.9 + 0.1 / 10)
        assert out[0] == pytest.approx(0.1 / 10)

    def test_no_match_is_uniform(self):
        model = CopyModel(vocab_size=4, min_match=2, copy_mass=0.9)
        np.testing.assert_allclose(copy_predict(model, [0]), np.full(4, 0.25))

    def test_overlapping_match(self):
        # a,a,a: suffix (a,a) re-occurs starting at 0, followed by a.
        model = CopyModel(vocab_size=4, min_match=2, copy_mass=0.8)
        out = copy_predict(model, [1, 1, 1])
        assert out[1] == pytest.approx(0.8 + 0.2 / 4)

    def test_longest_match_wins(self):
        # b,c,d,c,e,b,c: the 2-token suffix (b,c) matches at 0 (follower d);
        # the 1-token suffix (c) alone would pick follower e.
        model = CopyModel(vocab_size=6, min_match=1, copy_mass=0.9)
        out = copy_predict(model, [1, 2, 3, 2, 4, 1, 2])
        assert np.argmax(out) == 3

    def test_most_recent_occurrence_wins(self):
        # suffix (a) occurs earlier at 1 (-> c) and 3 (-> d): most recent wins.
        model = CopyModel(vocab_size=6, min_match=1, copy_mass=0.9)
        out = copy_predict(model, [1, 0, 2, 0, 3, 0])
        assert np.argmax(out) == 3

    def test_output_is_valid_distribution(self):
        model = CopyModel(vocab_size=5)
        for prefix in ([], [0], [0, 1, 0, 1], [4, 4, 4, 4]):
            Distribution(model.evaluate(prefix))


def scan_copy_predict(model: CopyModel, prefix) -> np.ndarray:
    """Oracle: the original quadratic-per-length scan behind ``copy_predict``."""
    v = model.vocab_size
    n = len(prefix)
    base = (1.0 - model.copy_mass) / v
    seq = list(prefix)
    for m in range(n - 1, model.min_match - 1, -1):
        suffix = seq[n - m :]
        for start in range(n - m - 1, -1, -1):
            if seq[start : start + m] == suffix:
                out = np.full(v, base)
                out[seq[start + m]] += model.copy_mass
                return out
    return np.full(v, 1.0 / v)


def _scan_oldest_on_ties(model: CopyModel, prefix) -> np.ndarray:
    """Broken oracle variant: among equal-length matches the oldest wins."""
    v, n, seq = model.vocab_size, len(prefix), list(prefix)
    for m in range(n - 1, model.min_match - 1, -1):
        for start in range(n - m):
            if seq[start : start + m] == seq[n - m :]:
                out = np.full(v, (1.0 - model.copy_mass) / v)
                out[seq[start + m]] += model.copy_mass
                return out
    return np.full(v, 1.0 / v)


def _scan_no_overlap(model: CopyModel, prefix) -> np.ndarray:
    """Broken oracle variant: an occurrence may not overlap the suffix."""
    v, n, seq = model.vocab_size, len(prefix), list(prefix)
    for m in range(n - 1, model.min_match - 1, -1):
        for start in range(n - 2 * m, -1, -1):
            if seq[start : start + m] == seq[n - m :]:
                out = np.full(v, (1.0 - model.copy_mass) / v)
                out[seq[start + m]] += model.copy_mass
                return out
    return np.full(v, 1.0 / v)


# Small vocabularies force repeats, overlapping occurrences and ties.
copy_cases = st.tuples(
    st.integers(2, 4).flatmap(
        lambda v: st.tuples(st.just(v), st.lists(st.integers(0, v - 1), max_size=80))
    ),
    st.integers(1, 4),
    st.sampled_from([0.05, 0.5, 0.9, 0.999]),
)


def _assert_matches_scan(impl, case) -> None:
    (vocab, prefix), min_match, copy_mass = case
    model = CopyModel(vocab, min_match=min_match, copy_mass=copy_mass)
    assert impl(model, prefix).tobytes() == scan_copy_predict(model, prefix).tobytes()


class TestCopyOracle:
    @given(copy_cases)
    @settings(max_examples=500, deadline=None)
    def test_matches_scan_bitwise(self, case):
        _assert_matches_scan(copy_predict, case)

    @pytest.mark.parametrize("broken", [_scan_oldest_on_ties, _scan_no_overlap],
                             ids=["oldest-on-ties", "no-overlap"])
    def test_oracle_check_catches_broken_variant(self, broken):
        @given(copy_cases)
        @settings(max_examples=500, deadline=None, derandomize=True, database=None)
        def check(case):
            _assert_matches_scan(broken, case)

        with pytest.raises(AssertionError):
            check()

    def test_long_prefix_matches_scan(self):
        rng = RandomStream(5)
        model = CopyModel(vocab_size=8, min_match=2)
        prefix = [int(u * 8) for u in rng.uniform_block(300)]
        for n in range(0, 301, 25):
            assert copy_predict(model, prefix[:n]).tobytes() == scan_copy_predict(
                model, prefix[:n]).tobytes()


COPY_POLICIES = [IDENTITY_POLICY, SamplingPolicy(argmax=True),
                 SamplingPolicy(temperature=0.7, top_p=0.9), SamplingPolicy(top_k=2)]

# One call pattern step: a decode step drafting gamma tokens on a list grown
# in place, then keeping `keep` of them plus a correction; cutting the
# sequence back; a prefix unrelated to the sequence; or overwriting one
# token of the sequence in place.
copy_ops = st.lists(st.one_of(
    st.tuples(st.just("step"), st.integers(1, 5), st.integers(0, 5),
              st.lists(st.integers(0, 3), min_size=6, max_size=6)),
    st.tuples(st.just("cut"), st.integers(0, 40)),
    st.tuples(st.just("unrelated"), st.lists(st.integers(0, 3), max_size=40)),
    st.tuples(st.just("overwrite"), st.integers(0, 200), st.integers(0, 3)),
), max_size=25)


# The ends of the id range and of each code point class chr maps them to.
EDGE_IDS = [0, 0xD7FF, 0xD800, 0xDFFF, 0xFFFF, 0x10000, MAX_VOCAB - 1]


def _check_copy_call(model: CopyModel, prefix, n_call: int, oracle) -> None:
    """Both entry points of the stateful ``model`` against a stateless oracle;
    which one sees the prefix first alternates between calls."""
    fresh = CopyModel(model.vocab_size, min_match=model.min_match, copy_mass=model.copy_mass)
    policy = COPY_POLICIES[n_call % len(COPY_POLICIES)]
    want_scores = oracle(fresh, prefix).tobytes()
    want_dist = standardize(copy_predict(fresh, prefix), policy).probs.tobytes()
    if n_call % 2:
        assert model.next_distribution(prefix, policy).probs.tobytes() == want_dist
    assert model.evaluate(prefix).tobytes() == want_scores
    assert model.next_distribution(prefix, policy).probs.tobytes() == want_dist


def _run_copy_ops(model: CopyModel, start, ops, oracle=scan_copy_predict) -> None:
    v = model.vocab_size
    seq = [t % v for t in start]
    n_call = 0

    def check(prefix):
        nonlocal n_call
        _check_copy_call(model, prefix, n_call, oracle)
        n_call += 1

    for op in ops:
        if op[0] == "step":
            _, gamma, keep, toks = op
            base = list(seq)
            for t in toks[:gamma]:
                check(base)
                base.append(t % v)
            seq.extend(base[len(seq): len(seq) + min(keep, gamma)])
            seq.append(toks[-1] % v)
        elif op[0] == "cut":
            del seq[op[1]:]
        elif op[0] == "unrelated":
            check([t % v for t in op[1]])
            continue
        elif seq:
            seq[op[1] % len(seq)] = op[2] % v
        check(seq)


# Engine-like calls on one list with a declared count of kept tokens: append a
# token; cut k tokens and append some (a step's fork point); append tokens and
# declare k more kept than the last call's length, up to the list's (the cap);
# a call on another list in between; a token overwritten in place, then the
# list passed without a count.
kept_ops = st.lists(st.one_of(
    st.tuples(st.just("extend"), st.integers(0, 3)),
    st.tuples(st.just("fork"), st.integers(0, 6), st.lists(st.integers(0, 3), min_size=1,
                                                           max_size=3)),
    st.tuples(st.just("vouch"), st.integers(0, 6), st.lists(st.integers(0, 3), max_size=3)),
    st.tuples(st.just("foreign"), st.lists(st.integers(0, 3), max_size=30)),
    st.tuples(st.just("overwrite"), st.integers(0, 200), st.integers(0, 3)),
), max_size=40)


class TestIncrementalCopy:
    @given(st.integers(2, 4), st.integers(1, 3), st.lists(st.integers(0, 3), max_size=30),
           copy_ops)
    @settings(max_examples=300, deadline=None)
    def test_call_sequences_match_oracle_bitwise(self, vocab, min_match, start, ops):
        _run_copy_ops(CopyModel(vocab, min_match=min_match), start, ops)

    def test_long_decode_like_run_matches_oracle(self):
        # copy_predict is itself checked against the scan above, which is
        # too slow for prefixes of several hundred tokens.
        rng = RandomStream(11)
        model = CopyModel(vocab_size=6, min_match=2)
        u = iter(rng.uniform_block(4000))
        ops = [("step", 4, int(next(u) * 6), [int(next(u) * 6) for _ in range(6)])
               for _ in range(150)]
        _run_copy_ops(model, [int(next(u) * 6) for _ in range(20)], ops, oracle=copy_predict)

    def test_list_overwritten_in_place(self):
        model = CopyModel(4, min_match=1)
        seq = [0, 1, 2, 0, 1]
        assert model.evaluate(seq).argmax() == 2
        seq[4] = 3  # same list, same length: nothing to copy any more
        assert model.evaluate(seq).tobytes() == scan_copy_predict(model, seq).tobytes()

    @given(st.integers(2, 4), st.integers(1, 3), st.lists(st.integers(0, 3), max_size=30),
           kept_ops)
    @settings(max_examples=300, deadline=None)
    def test_kept_counts_match_oracle_bitwise(self, vocab, min_match, start, ops):
        model = CopyModel(vocab, min_match=min_match)
        fresh = CopyModel(vocab, min_match=min_match)
        seq = [t % vocab for t in start]
        kept = 0  # leading tokens of seq unchanged since the model's last call on it
        for n_call, op in enumerate(ops):
            policy = COPY_POLICIES[n_call % len(COPY_POLICIES)]
            if op[0] == "foreign":
                other = [t % vocab for t in op[1]]
                assert model.evaluate(other).tobytes() == copy_predict(fresh, other).tobytes()
                continue
            if op[0] == "overwrite":
                if seq:
                    seq[op[1] % len(seq)] = op[2] % vocab
                got = model.next_distribution(seq, policy)
            else:
                if op[0] == "fork":
                    del seq[max(0, len(seq) - op[1]):]
                    kept = min(kept, len(seq))
                seq += [t % vocab for t in (op[2] if len(op) == 3 else [op[1]])]
                if op[0] == "vouch":  # the last call's list is still a prefix of seq
                    kept = min(kept + op[1], len(seq))
                got = model.next_distribution_kept(seq, policy, kept)
            want = standardize(copy_predict(fresh, seq), policy)
            assert got.probs.tobytes() == want.probs.tobytes()
            kept = len(seq)

    @pytest.mark.parametrize("count", [-1, 4, 5, 6])
    def test_count_outside_the_list_is_no_count(self, count):
        # A count past the list itself (or below 0) vouches for nothing: the
        # model compares contents, so a list cut back below its last call's
        # length loses neither the cut nor the tokens after it.
        model = CopyModel(4, min_match=1)
        seq = [0, 1, 2, 3, 0, 1]
        model.next_distribution_kept(seq, IDENTITY_POLICY, 0)
        del seq[-3:]
        got = model.next_distribution_kept(seq, IDENTITY_POLICY, count)
        assert got.probs.tobytes() == np.full(4, 0.25).tobytes()
        assert model._path == [0, 1, 2]
        seq.append(0)
        got = model.next_distribution_kept(seq, IDENTITY_POLICY, 3)
        assert got.probs.tobytes() == standardize(copy_predict(model, seq),
                                                  IDENTITY_POLICY).probs.tobytes()
        assert got.probs.argmax() == 1

    @pytest.mark.parametrize("bad", [-1, 4, 2**20, 2**21])
    def test_rejects_tokens_outside_the_vocabulary(self, bad):
        model = CopyModel(4, min_match=1)
        with pytest.raises(ValueError, match=f"token {bad} outside vocab of 4"):
            model.evaluate([0, 1, bad])
        with pytest.raises(ValueError, match=f"token {bad} outside vocab of 4"):
            model.next_distribution([bad] * 3, IDENTITY_POLICY)
        # A rejected call converts nothing, so the next call on the list
        # still reuses the last one's state.
        seq = [0, 1, 2, 0]
        model.next_distribution_kept(seq, IDENTITY_POLICY, 0)
        seq.append(bad)
        with pytest.raises(ValueError, match=f"token {bad} outside vocab of 4"):
            model.next_distribution_kept(seq, IDENTITY_POLICY, 4)
        seq[-1] = 1
        got = model.next_distribution_kept(seq, IDENTITY_POLICY, 4)
        assert got.probs.tobytes() == standardize(scan_copy_predict(model, seq),
                                                  IDENTITY_POLICY).probs.tobytes()
        assert got.probs.argmax() == 2

    def test_state_stays_bounded_over_a_long_decode(self):
        vocab, prompt = 8, [0, 1, 2, 3, 0, 1]
        model = CopyModel(vocab, min_match=2)

        def check(last):
            # Exactly the last call's prefix, as a list and reversed as text;
            # its longest recurring suffix (a bound below min_match); and at
            # most one cached distribution per copied token and policy.
            assert model._path == last
            assert model._rev == "".join(map(chr, reversed(last)))
            lcs = _common_suffixes(last)
            longest = int(lcs[-2::-1].max()) if len(last) > 1 else 0
            assert model._match == longest if longest >= 2 else model._match <= 1
            assert len(model._dists) <= vocab + 1

        res = standard_decode(model, prompt, SpecConfig(gamma=1, max_new_tokens=3000))
        assert len(res.tokens) == 3000
        check(prompt + res.tokens[:-1])
        target = train_ngram(res.tokens, order=3, vocab_size=vocab, smoothing_k=0.05)
        res = decode(target, model, prompt, SpecConfig(gamma=20, max_new_tokens=1000))
        *steps, last = res.traces
        kept = sum(t.emitted for t in steps)
        check(prompt + res.tokens[:kept] + [d.token for d in last.drafted[:-1]])

    def test_distribution_cache_is_bounded(self):
        # A repeated passage of distinct tokens copies a new token at every
        # call: unbounded, the cache kept 1499 distributions (94 MiB).
        vocab = 8192
        passage = np.random.default_rng(5).permutation(vocab)[:1500].tolist()
        model = CopyModel(vocab)
        tracemalloc.start()
        try:
            digests = [hashlib.sha256(model.next_distribution(passage + passage[:j],
                                                              IDENTITY_POLICY).probs).digest()
                       for j in range(len(passage))]
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < len(model._dists) * vocab <= MAX_VOCAB
        assert size <= 10 * 2**20
        for j in {1, 2, *range(120, 136), *range(0, len(passage), 100)}:  # and the first clear
            fresh = CopyModel(vocab).next_distribution(passage + passage[:j], IDENTITY_POLICY)
            assert hashlib.sha256(fresh.probs).digest() == digests[j]

    def test_long_drafts_convert_only_new_tokens(self, monkeypatch):
        # Each call converts to text only the tokens past the prefix it shares
        # with the last call; a step that keeps few of its 20 drafts forks back.
        converted = []
        monkeypatch.setattr(models, "chr", lambda t: converted.append(t) or chr(t), raising=False)
        rng = RandomStream(7)
        corpus = [int(u * 6) for u in rng.uniform_block(400)]
        target = train_ngram(corpus, order=3, vocab_size=6, smoothing_k=0.05)
        draft, gamma = CopyModel(6, min_match=2), 20
        for k in range(3):
            prompt = [k] + corpus[40 * k: 40 * k + 30]  # each starts with another token
            converted.clear()
            res = decode(target, draft, prompt, SpecConfig(gamma=gamma, seed=k, max_new_tokens=300))
            assert sum(t.accepted_n < 4 for t in res.traces) > 10
            assert len(prompt) <= len(converted) <= len(prompt) + 2 * gamma * len(res.traces)

    def test_long_prompt_work_is_the_prompt_once_plus_gamma_per_step(self, monkeypatch):
        # Counts the tokens that chr() converts: the first call converts the
        # prompt; after that each step converts its own drafts and correction
        # only. Every draft call gets decode's own list and declares all but
        # its last token kept, so nothing copies or compares the prefix. A
        # draft handed the whole prefix anew converts all 20k tokens every step.
        handled = [0]
        monkeypatch.setattr(models, "chr", lambda t: handled.__setitem__(0, handled[0] + 1)
                            or chr(t), raising=False)
        rng = RandomStream(8)
        vocab, gamma = 6, 4
        corpus = [int(u * vocab) for u in rng.uniform_block(2000)]
        target = train_ngram(corpus, order=3, vocab_size=vocab, smoothing_k=0.05)
        prompt = [int(u * vocab) for u in rng.uniform_block(20_000)]
        for draft in (_RecordingCopy(vocab), _RecordingCopy(vocab, min_match=1)):
            handled[0] = 0
            res = decode(target, draft, prompt, SpecConfig(gamma=gamma, max_new_tokens=300))
            assert len(res.tokens) == 300
            assert handled[0] <= 2 * len(prompt) + 4 * gamma * len(res.traces)
            seq = draft.calls[0][0]
            assert seq is not prompt and seq == prompt + res.tokens
            assert len(draft.calls) == gamma * len(res.traces)
            assert all(prefix is seq and kept == n - 1 for prefix, kept, n in draft.calls)

    @pytest.mark.parametrize("period", [1, 2, 4])
    def test_cyclic_prefixes_match_oracle_bitwise(self, period):
        # Long runs of a cycle make long matches with many ties; drafts of 3
        # rarer tokens break them in between.
        rng = RandomStream(period)
        u = iter(rng.uniform_block(5000))
        model = CopyModel(period + 3, min_match=2)
        cycle = list(range(period))

        def draw(at):  # the cycle's token at position `at`, or one of 3 rarer tokens
            x = next(u)
            return period + int((x - 0.9) * 30) if x >= 0.9 else at % period

        seq = cycle * 10
        ops = []
        while len(seq) < 650:
            keep = int(next(u) * 5)
            kept = min(keep, 4)
            toks = [draw(len(seq) + i) for i in range(4)] + [0, draw(len(seq) + kept)]
            ops.append(("step", 4, keep, toks))
            seq = seq + toks[:kept] + [toks[-1]]
        _run_copy_ops(model, cycle * 10, ops, oracle=copy_predict)

    def test_worst_case_for_reverse_search_stays_linear(self):
        # CPython's rfind is quadratic here and took 2.6 s; find takes ms.
        seq = [0] * 20000 + [1] + [0] * 20000
        model = CopyModel(2, min_match=2)
        start = time.process_time()
        assert model.evaluate(seq).argmax() == 1
        seq.append(0)
        assert model.evaluate(seq).argmax() == 0
        assert time.process_time() - start < 0.5

    @given(st.integers(1, 3), st.lists(st.sampled_from(EDGE_IDS), max_size=60),
           st.lists(st.integers(0, 60), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_ids_at_the_edges_of_the_range_match_oracle(self, min_match, tokens, cuts):
        # Surrogate and astral code points, and the largest id, over one-token
        # extensions and then forks. A row of MAX_VOCAB floats is 8 MiB, so
        # the copied tokens are compared.
        model = CopyModel(MAX_VOCAB, min_match=min_match)
        for n in [*range(len(tokens) + 1), *cuts]:
            prefix = tokens[:n]
            assert model._copied(prefix) == _copied_token(prefix, _common_suffixes(prefix),
                                                          min_match)


class StatelessCopy(LanguageModel):
    """Reference draft: ``copy_predict`` from scratch on every call, no state."""

    def __init__(self, inner: CopyModel):
        self.inner = inner

    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    def evaluate(self, prefix):
        return copy_predict(self.inner, prefix)


class _CountedStream(engine.RandomStream):
    __slots__ = ()
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CountedStream.made.append(self)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy, lenience", [
    (IDENTITY_POLICY, 1.0),
    (SamplingPolicy(top_p=0.9), 1.0),
    (SamplingPolicy(argmax=True), 0.5),
], ids=["identity", "top-p", "argmax-lenient"])
def test_decode_with_copy_draft_matches_stateless_draft(monkeypatch, seed, policy, lenience):
    rng = RandomStream(100 + seed)
    corpus = [int(u * 6) for u in rng.uniform_block(400)]
    target = train_ngram(corpus, order=3, vocab_size=6, smoothing_k=0.05)
    passage = corpus[:40]
    prompt = passage + [int(u * 6) for u in rng.uniform_block(10)] + passage[:12]
    config = SpecConfig(gamma=4, policy=policy, lenience=lenience, seed=seed,
                        max_new_tokens=150)
    monkeypatch.setattr(engine, "RandomStream", _CountedStream)
    runs = []
    for draft in (CopyModel(6, min_match=2), StatelessCopy(CopyModel(6, min_match=2))):
        _CountedStream.made = []
        res = decode(target, draft, prompt, config)
        (stream,) = _CountedStream.made
        runs.append((res.to_dict(), stream.n_drawn))
    assert runs[0] == runs[1]
    assert any(t.accepted_n for t in res.traces)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("policy, lenience", [
    (IDENTITY_POLICY, 1.0),
    (SamplingPolicy(top_p=0.9), 1.0),
    (SamplingPolicy(argmax=True), 0.5),
], ids=["identity", "top-p", "argmax-lenient"])
def test_one_copy_model_as_target_and_draft_matches_two(seed, policy, lenience):
    # The CLI's --draft same: one instance sees the draft's calls on the
    # decode's list and the target's calls on other lists in between.
    rng = RandomStream(200 + seed)
    passage = [int(u * 6) for u in rng.uniform_block(30)]
    prompt = passage + [int(u * 6) for u in rng.uniform_block(10)] + passage[:8]
    config = SpecConfig(gamma=4, policy=policy, lenience=lenience, seed=seed,
                        max_new_tokens=120)
    shared = CopyModel(6, min_match=2)
    one = decode(shared, shared, prompt, config)
    two = decode(CopyModel(6, min_match=2), CopyModel(6, min_match=2), prompt, config)
    assert one.to_dict() == two.to_dict()


class _RecordingCopy(CopyModel):
    """A ``CopyModel`` that records each call's list, declared count and length."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def next_distribution(self, prefix, policy, kept=None):
        self.calls.append((prefix, kept, len(prefix)))
        return super().next_distribution(prefix, policy, kept)

    next_distribution_kept = next_distribution


def test_standard_decode_declares_only_the_last_token_new():
    # Every call is on the decode's own list and keeps all but its last
    # token, so a whole-prefix target reads one token per call; the tokens
    # are those of a target that reads the whole prefix from scratch.
    rng = RandomStream(9)
    prompt = [int(u * 32) for u in rng.uniform_block(2000)]
    config = SpecConfig(gamma=1, seed=3, max_new_tokens=60)
    target = _RecordingCopy(32)
    res = standard_decode(target, prompt, config)
    seq = target.calls[0][0]
    assert seq == prompt + res.tokens and len(target.calls) == 60
    assert all(prefix is seq and kept == n - 1 for prefix, kept, n in target.calls)
    assert res.tokens == standard_decode(StatelessCopy(CopyModel(32)), prompt, config).tokens
    assert any(t != res.tokens[0] for t in res.tokens)


@pytest.mark.parametrize("policy", [IDENTITY_POLICY, SamplingPolicy(temperature=0.7, top_p=0.9)],
                         ids=["identity", "top-p"])
def test_one_copy_model_reused_across_decoders_matches_fresh(policy):
    # One instance as target and draft of a decode, then the target of two
    # standard decodes, prompt after prompt: each call on a list it did not
    # see last compares contents, so every run decodes as fresh models do.
    rng = RandomStream(300)
    shared = CopyModel(6, min_match=2)
    for k in range(10):
        passage = [int(u * 6) for u in rng.uniform_block(30)]
        prompt = passage + [int(u * 6) for u in rng.uniform_block(10)] + passage[:8]
        config = SpecConfig(gamma=4, policy=policy, seed=k, max_new_tokens=60)
        assert (decode(shared, shared, prompt, config).to_dict()
                == decode(CopyModel(6, min_match=2), CopyModel(6, min_match=2), prompt,
                          config).to_dict())
        for _ in range(2):
            assert (standard_decode(shared, prompt, config).to_dict()
                    == standard_decode(CopyModel(6, min_match=2), prompt, config).to_dict())


class TestStatelessAndUniform:
    def test_random_model_uniform(self):
        m = random_model(5)
        np.testing.assert_allclose(m.evaluate([1, 2, 3]), np.full(5, 0.2))

    @pytest.mark.parametrize("make", [random_model, CopyModel], ids=["uniform", "copy"])
    @pytest.mark.parametrize("vocab", [0, -1])
    def test_empty_vocab_rejected(self, make, vocab):
        with pytest.raises(ValueError, match="vocab_size"):
            make(vocab)

    @pytest.mark.parametrize("build, name, value", [
        (lambda: random_model(4.0), "vocab_size", 4.0),
        (lambda: CopyModel(4.0), "vocab_size", 4.0),
        (lambda: CopyModel(4, min_match=1.5), "min_match", 1.5),
        (lambda: NGramModel(2.0, 3), "order", 2.0),
        (lambda: NGramModel(2, "3"), "vocab_size", "3"),
        (lambda: train_ngram([0, 1, 2, 1], 2.0, 3), "order", 2.0),
        (lambda: stateless_pair(0.5, 3.0), "vocab_size", 3.0),
    ], ids=["uniform", "copy-vocab", "copy-min-match", "ngram-order", "ngram-vocab", "train",
            "stateless-pair"])
    def test_non_integer_count_named(self, build, name, value):
        # CopyModel(4, min_match=1.5) would otherwise construct and fail at its first evaluate.
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value!r}$"):
            build()

    @pytest.mark.parametrize("vocab", [1, MAX_VOCAB + 1])
    def test_stateless_pair_vocab_outside_range_named(self, vocab):
        with pytest.raises(ValueError,
                           match=rf"^vocab_size must lie in \[2, {MAX_VOCAB}\], got {vocab}$"):
            stateless_pair(0.5, vocab)

    def test_numpy_counts_pass(self):
        corpus = [0, 1, 2, 1, 0, 2, 2, 1]
        plain = train_ngram(corpus, 2, 3)
        assert train_ngram(corpus, np.int64(2), np.int32(3)).counts == plain.counts
        ngram = NGramModel(np.int8(3), np.int8(100))  # stored as ints, whose products never wrap
        assert type(ngram.order) is type(ngram.vocab_size) is int and ngram.context_window == 2
        copy, numpy_copy = CopyModel(4, min_match=2), CopyModel(np.int8(4), min_match=np.int8(2))
        seq = [i % 3 for i in range(300)]  # a match past 127 tokens would wrap an int8
        for n in range(1, len(seq) + 1):
            assert np.array_equal(copy.evaluate(seq[:n]), numpy_copy.evaluate(seq[:n])), n
        assert random_model(np.int16(4)).evaluate(()).tolist() == [0.25] * 4
        for a, b in zip(stateless_pair(0.5, 3), stateless_pair(0.5, np.int64(3))):
            assert a.evaluate(()).tolist() == b.evaluate(()).tolist()

    def test_uniform_draft_alpha_is_positive(self):
        target = StatelessModel(np.array([0.9, 0.1]))
        alpha = beta(
            target.next_distribution([], IDENTITY_POLICY),
            random_model(2).next_distribution([], IDENTITY_POLICY),
        )
        assert alpha == pytest.approx(0.6)
        assert alpha > 0

    def test_stateless_ignores_prefix(self):
        m = StatelessModel(np.array([0.25, 0.75]))
        np.testing.assert_array_equal(m.evaluate([]), m.evaluate([1, 0, 1]))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 0.9, 1.0])
    def test_stateless_pair_realizes_alpha(self, alpha):
        p, q = stateless_pair(alpha, vocab_size=4)
        got = beta(
            p.next_distribution([], IDENTITY_POLICY),
            q.next_distribution([], IDENTITY_POLICY),
        )
        assert got == pytest.approx(alpha, abs=1e-15)


class TestBatchingContract:
    @pytest.mark.parametrize(
        "model",
        [
            train_ngram([0, 1, 2, 0, 1, 2, 2, 1], order=2, vocab_size=4),
            CopyModel(vocab_size=4),
            StatelessModel(np.array([0.1, 0.2, 0.3, 0.4])),
        ],
        ids=["ngram", "copy", "stateless"],
    )
    def test_batch_equals_sequential_bitwise(self, model):
        rng = RandomStream(3)
        prefixes = [[int(u * 4) for u in rng.uniform_block(n)] for n in (1, 2, 5, 9)]
        batched = model.evaluate_batch(prefixes)
        for prefix, out in zip(prefixes, batched):
            np.testing.assert_array_equal(out, model.evaluate(prefix))

    @pytest.mark.parametrize(
        "policy",
        [
            IDENTITY_POLICY,
            SamplingPolicy(temperature=0.7),
            SamplingPolicy(top_k=2),
            SamplingPolicy(top_p=0.8),
            SamplingPolicy(argmax=True),
        ],
    )
    def test_all_outputs_standardize(self, policy):
        models = [
            train_ngram([0, 1, 2, 3, 0, 1], order=2, vocab_size=4),
            CopyModel(vocab_size=4),
            StatelessModel(np.array([0.7, 0.1, 0.1, 0.1])),
            random_model(4),
        ]
        for model in models:
            d = standardize(model.evaluate([0, 1]), policy)
            assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_next_distribution_matches_standardize(self):
        m = StatelessModel(np.array([0.5, 0.25, 0.25]))
        policy = SamplingPolicy(top_k=2)
        cached = m.next_distribution([0], policy)
        direct = standardize(m.evaluate([0]), policy)
        np.testing.assert_array_equal(cached.probs, direct.probs)


class FixedScores(LanguageModel):
    """A bare window-0 model with unnormalized probability scores."""

    context_window = 0
    vocab_size = 4

    def evaluate(self, prefix):
        return np.array([0.5, 0.1, 2.0, 0.4])


WINDOW_ZERO = {
    "stateless": lambda: StatelessModel(np.array([0.1, 0.2, 0.3, 0.4])),
    "ngram1": lambda: train_ngram([0, 1, 2, 3, 3, 2, 3, 1, 3], order=1, vocab_size=4),
    "bare": FixedScores,
}
MEMO_POLICIES = [
    IDENTITY_POLICY,
    SamplingPolicy(temperature=0.7),
    SamplingPolicy(top_k=2),
    SamplingPolicy(top_p=0.8),
    SamplingPolicy(argmax=True),
]


class TestWindowZeroMemo:
    """A window-0 model standardizes once per policy and returns that one
    distribution, bitwise ``standardize(evaluate(()), policy)``, from both views."""

    @pytest.mark.parametrize("make", WINDOW_ZERO.values(), ids=WINDOW_ZERO)
    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_one_distribution_per_policy(self, make, policy):
        m = make()
        d = m.next_distribution([], policy)
        ref = standardize(m.evaluate(()), policy)
        assert d.probs.tobytes() == ref.probs.tobytes()
        assert all(m.next_distribution(prefix, policy) is d for prefix in ([], [0], [3, 1, 2]))
        rows = m.next_distribution_batch([[0], [], [1, 2, 3], [0]], policy)
        assert len(rows) == 4 and all(r is d for r in rows)

    @pytest.mark.parametrize("make", WINDOW_ZERO.values(), ids=WINDOW_ZERO)
    def test_standardizes_once_per_policy_across_a_decode(self, make, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return standardize(*args, **kwargs)

        # The target's batched view goes through standardize_rows, so every
        # counted call is the draft's.
        monkeypatch.setattr(models, "standardize", counted)
        draft = make()
        target = train_ngram([0, 1, 2, 3, 3, 2, 3, 1, 3, 0, 2], order=2, vocab_size=4)
        for policy, seed in [(IDENTITY_POLICY, 0), (SamplingPolicy(top_k=2), 1),
                             (IDENTITY_POLICY, 2)]:
            res = decode(target, draft, [0], SpecConfig(gamma=1, policy=policy, seed=seed,
                                                        max_new_tokens=100))
            assert len(res.traces) >= 50
        assert calls == [IDENTITY_POLICY, SamplingPolicy(top_k=2)]

    def test_policies_and_instances_do_not_share(self):
        a, b = StatelessModel(np.array([0.1, 0.2, 0.3, 0.4])), FixedScores()
        twin = StatelessModel(np.array([0.1, 0.2, 0.3, 0.4]))
        for policy in MEMO_POLICIES:
            for m in (a, b):
                ref = standardize(m.evaluate(()), policy)
                assert m.next_distribution([], policy) == ref
            assert twin.next_distribution([], policy) is not a.next_distribution([], policy)
        top2 = a.next_distribution([], SamplingPolicy(top_k=2))
        assert top2 != a.next_distribution([], IDENTITY_POLICY)
        assert top2 == standardize(a.evaluate(()), SamplingPolicy(top_k=2))

    def test_windowed_and_copy_models_are_not_memoized(self):
        ngram = train_ngram([0, 1, 2, 3, 3, 2, 3, 1, 3, 0, 2], order=2, vocab_size=4)
        copy = CopyModel(4)
        for m, prefixes in [(ngram, ([0], [3])), (copy, ([1, 2, 0, 1, 2], [1, 2, 3, 3, 0]))]:
            first, second = (m.next_distribution(p, IDENTITY_POLICY) for p in prefixes)
            assert first != second
            for p, d in zip(prefixes, (first, second)):
                ref = standardize(m.evaluate(p), IDENTITY_POLICY)
                assert d.probs.tobytes() == ref.probs.tobytes()
        again = ngram.next_distribution([0], IDENTITY_POLICY)
        assert again is not ngram.next_distribution([0], IDENTITY_POLICY)
        assert "_by_policy" not in vars(ngram) and "_by_policy" not in vars(copy)


class TestTokenizers:
    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_byte_round_trip(self, text):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode(text)) == text

    def test_byte_vocab_and_specials(self):
        tok = ByteTokenizer()
        assert tok.vocab_size == 258
        assert tok.BOS == 256 and tok.EOS == 257
        assert tok.decode([72, 105, tok.EOS]) == "Hi"

    def test_word_tokenizer(self):
        tok = WordTokenizer(["hello", "world"])
        assert tok.encode("world hello") == [1, 0]
        assert tok.decode([0, 1]) == "hello world"
        assert tok.vocab_size == 4  # two words + BOS + EOS
        with pytest.raises(UnknownTokenError) as err:
            tok.encode("hello unknown world other")
        assert err.value.args == ("unknown",)

    def test_word_render_token(self):
        # An id past the word list (a target larger than the vocabulary file)
        # is shown as its number, the way a byte tokenizer escapes a byte.
        tok = WordTokenizer(["hello", "world"])
        assert [tok.render_token(t) for t in range(5)] == [
            "hello ", "world ", "<BOS> ", "<EOS> ", "<4> "]
        assert tok.render_token(40) == "<40> "

    def test_word_tokenizer_from_corpus(self):
        tok = WordTokenizer.from_corpus("a b a c")
        assert tok.encode("a b c") == [0, 1, 2]
