"""Model zoo: n-gram training, copy heuristic, stateless and uniform models,
tokenizers, and the batching/standardization contracts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import engine, models
from specdec.analysis import beta
from specdec.distmath import Distribution, IDENTITY_POLICY, SamplingPolicy, standardize
from specdec.engine import SpecConfig, decode, standard_decode
from specdec.models import (
    CopyModel,
    CorpusTooShortError,
    LanguageModel,
    StatelessModel,
    copy_predict,
    random_model,
    stateless_pair,
    train_ngram,
)
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

    def test_rejects_out_of_vocab_token(self):
        with pytest.raises(ValueError):
            train_ngram([0, 9], order=1, vocab_size=4)


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

    def test_state_stays_bounded_over_a_long_decode(self):
        vocab = 8
        model = CopyModel(vocab, min_match=2)
        res = standard_decode(model, [0, 1, 2, 3, 0, 1], SpecConfig(gamma=1, max_new_tokens=3000))
        assert len(res.tokens) == 3000
        assert len(model._lengths) <= model._KEEP
        assert all(len(lcs) <= 3006 for lcs in model._lengths.values())
        assert len(model._dists) <= vocab + 1
        assert len(model._tokens) <= 2 * 3006


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


class TestStatelessAndUniform:
    def test_random_model_uniform(self):
        m = random_model(5)
        np.testing.assert_allclose(m.evaluate([1, 2, 3]), np.full(5, 0.2))

    @pytest.mark.parametrize("make", [random_model, CopyModel], ids=["uniform", "copy"])
    @pytest.mark.parametrize("vocab", [0, -1])
    def test_empty_vocab_rejected(self, make, vocab):
        with pytest.raises(ValueError, match="vocab_size"):
            make(vocab)

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
        with pytest.raises(UnknownTokenError):
            tok.encode("unknown")

    def test_word_tokenizer_from_corpus(self):
        tok = WordTokenizer.from_corpus("a b a c")
        assert tok.encode("a b c") == [0, 1, 2]
