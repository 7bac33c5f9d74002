"""The ``context_window`` contract: a model that declares a window gives
bitwise-identical scores on the tail of a prefix, and the engine, which cuts
each target candidate and each block row to the tail its model reads,
decodes exactly as with full prefixes. A scalar step's draft drafts into the
step's one list, whatever its window, and the target's candidates are slices
of that list."""

from __future__ import annotations

import collections
import itertools

import numpy as np
import pytest

from specdec import engine
from specdec.distmath import SamplingPolicy
from specdec.engine import MUTATIONS, SpecConfig, decode, speculative_step
from specdec.model_io import deserialize_model, serialize_model
from specdec.models import (
    CopyModel,
    LanguageModel,
    StatelessModel,
    random_model,
    stateless_pair,
    train_ngram,
)
from specdec.rng import RandomStream

VOCAB = 5


def _corpus(seed: int, n: int = 600) -> list[int]:
    return [int(u * VOCAB) for u in RandomStream(seed).uniform_block(n)]


def _ngram(order: int, seed: int = 7):
    return train_ngram(_corpus(seed), order=order, vocab_size=VOCAB, smoothing_k=0.05)


class FullPrefix(LanguageModel):
    """Forwards every entry point to ``inner`` but declares no window, so the
    engine hands it whole prefixes."""

    def __init__(self, inner: LanguageModel):
        self.inner = inner

    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    def evaluate(self, prefix):
        return self.inner.evaluate(prefix)

    def evaluate_batch(self, prefixes):
        return self.inner.evaluate_batch(prefixes)

    def next_distribution(self, prefix, policy):
        return self.inner.next_distribution(prefix, policy)

    def next_distribution_batch(self, prefixes, policy):
        return self.inner.next_distribution_batch(prefixes, policy)


class Recorder(FullPrefix):
    """``inner`` behind the declared ``window`` (``inner``'s own by default):
    records each ``next_distribution_kept`` call's list object, its length
    and the declared count, and a copy of each batch of prefixes."""

    def __init__(self, inner: LanguageModel, window="inner"):
        super().__init__(inner)
        self.context_window = inner.context_window if window == "inner" else window
        self.calls: list[tuple[list[int], int, int | None]] = []
        self.batches: list[list[list[int]]] = []

    def next_distribution_kept(self, prefix, policy, kept):
        self.calls.append((prefix, len(prefix), kept))
        return self.inner.next_distribution_kept(prefix, policy, kept)

    def next_distribution_batch(self, prefixes, policy):
        self.batches.append([list(p) for p in prefixes])
        return self.inner.next_distribution_batch(prefixes, policy)


def _lists(calls) -> list[list[int]]:
    """The distinct list objects among recorded calls, in order of first use."""
    return list({id(p): p for p, _, _ in calls}.values())


class OverclaimingCopy(CopyModel):
    """Broken on purpose: reads the whole prefix but claims to read two tokens."""

    context_window = 2


def _tail(prefix, window):
    return prefix if window is None else prefix[len(prefix) - min(window, len(prefix)):]


def assert_window_contract(model: LanguageModel, prefixes) -> None:
    for prefix in prefixes:
        tail = _tail(prefix, model.context_window)
        assert model.evaluate(tail).tobytes() == model.evaluate(prefix).tobytes(), prefix


def _all_prefixes(vocab: int, max_len: int):
    for n in range(max_len + 1):
        for p in itertools.product(range(vocab), repeat=n):
            yield list(p)


ZOO = {
    "ngram1": lambda: _ngram(1),
    "ngram2": lambda: _ngram(2),
    "ngram3": lambda: _ngram(3),
    "ngram3-loaded": lambda: deserialize_model(serialize_model(_ngram(3))),
    "copy": lambda: CopyModel(VOCAB, min_match=1),
    "stateless": lambda: StatelessModel(np.array([0.1, 0.2, 0.3, 0.25, 0.15])),
    "uniform": lambda: random_model(VOCAB),
}


class TestEvaluateContract:
    def test_declared_windows(self):
        assert LanguageModel.context_window is None
        assert [_ngram(k).context_window for k in (1, 2, 3)] == [0, 1, 2]
        assert StatelessModel(np.array([0.5, 0.5])).context_window == 0
        assert CopyModel(VOCAB).context_window is None

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_tail_scores_equal_full_prefix_scores_bitwise(self, name):
        model = ZOO[name]()
        short = _all_prefixes(3, 5)  # every prefix over 3 tokens, up to length 5
        rng = RandomStream(13)
        long = [[int(u * VOCAB) for u in rng.uniform_block(n)] for n in (20, 57, 200)]
        assert_window_contract(model, itertools.chain(short, long))

    def test_overclaiming_model_fails_contract(self):
        with pytest.raises(AssertionError):
            assert_window_contract(OverclaimingCopy(VOCAB, min_match=1), _all_prefixes(3, 5))


def _pairs():
    copy = CopyModel(VOCAB, min_match=1)
    p, q = stateless_pair(0.7, vocab_size=VOCAB)
    return {
        "ngram3/ngram1": (_ngram(3, seed=7), _ngram(1, seed=8)),  # window 0 draft
        "ngram2/ngram3": (_ngram(2, seed=7), _ngram(3, seed=8)),
        "ngram1/ngram2": (_ngram(1, seed=7), _ngram(2, seed=8)),  # window 0 target
        "ngram3/copy": (_ngram(3, seed=7), copy),
        "copy/ngram2": (copy, _ngram(2, seed=8)),
        "stateless": (p, q),
    }


CONFIGS = {
    "identity": SpecConfig(gamma=3, seed=5, max_new_tokens=120),
    "nucleus": SpecConfig(gamma=4, policy=SamplingPolicy(temperature=0.8, top_p=0.9),
                          lenience=0.8, seed=6, max_new_tokens=120),
    "argmax-lenient": SpecConfig(gamma=3, policy=SamplingPolicy(argmax=True),
                                 lenience=0.5, seed=7, max_new_tokens=120),
}


class _RecordingStream(engine.RandomStream):
    __slots__ = ()
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingStream.made.append(self)


def _decode_run(monkeypatch, target, draft, prompt, config):
    _RecordingStream.made = []
    monkeypatch.setattr(engine, "RandomStream", _RecordingStream)
    res = decode(target, draft, prompt, config)
    (stream,) = _RecordingStream.made
    return res.to_dict(), stream.n_drawn


class TestEngineWindowsAreInvisible:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("pair", sorted(_pairs()))
    @pytest.mark.parametrize("prompt", [[1], [0, 3, 1, 4, 2, 2, 0, 1]], ids=["short", "long"])
    def test_decode_identical_with_and_without_windows(self, monkeypatch, pair, config, prompt):
        target, draft = _pairs()[pair]
        cfg = CONFIGS[config]
        windowed = _decode_run(monkeypatch, target, draft, prompt, cfg)
        full = _decode_run(monkeypatch, FullPrefix(target), FullPrefix(draft), prompt, cfg)
        assert windowed == full
        assert windowed[1] == len(windowed[0]["traces"]) * (2 * cfg.gamma + 1)

    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    @pytest.mark.parametrize("pair", sorted(_pairs()))
    def test_step_identical_with_and_without_windows(self, pair, mutation):
        target, draft = _pairs()[pair]
        cfg = SpecConfig(gamma=4, seed=3)
        prefixes = [[], [2], _corpus(21, 40)]
        for prefix in prefixes:
            for seed in range(5):
                rng_w, rng_f = RandomStream(seed), RandomStream(seed)
                out_w = speculative_step(target, draft, prefix, cfg, rng_w, _mutation=mutation)
                out_f = speculative_step(FullPrefix(target), FullPrefix(draft), prefix, cfg,
                                         rng_f, _mutation=mutation)
                assert out_w[0] == out_f[0]
                assert out_w[1] == out_f[1]
                assert rng_w.n_drawn == rng_f.n_drawn == 2 * cfg.gamma + 1

    def test_overclaiming_target_changes_decode(self, monkeypatch):
        # The engine trusts the declared window: a target that reads more
        # than it declares decodes differently, which the contract forbids.
        # Only the target's candidates are cut, so only a target can show it.
        draft = _ngram(2, seed=8)
        cfg = CONFIGS["identity"]
        prompt = _corpus(22, 30)
        windowed = _decode_run(monkeypatch, OverclaimingCopy(VOCAB, min_match=1), draft,
                               prompt, cfg)
        full = _decode_run(monkeypatch, FullPrefix(OverclaimingCopy(VOCAB, min_match=1)),
                           draft, prompt, cfg)
        assert windowed != full

    @pytest.mark.parametrize("target_order, target_lengths", [(3, {2, 3, 4, 5}),
                                                              (1, {0, 1, 2, 3})],
                             ids=["window-2-target", "window-0-target"])
    def test_models_see_only_their_window(self, target_order, target_lengths):
        # A target's window of 0 must reach it as [], not as prefix[-0:]; a
        # draft, window 0 or not, reads the step's list of 50 tokens and its drafts.
        target, draft = Recorder(_ngram(target_order)), Recorder(_ngram(1))
        speculative_step(target, draft, _corpus(23, 50), SpecConfig(gamma=3), RandomStream(0))
        assert {len(p) for batch in target.batches for p in batch} == target_lengths
        assert {n for _, n, _ in draft.calls} == {50, 51, 52}

    def test_block_asks_each_distinct_window_once(self):
        # speculative_steps asks a model once per position, on each distinct
        # tail it reads once: tails of exactly its window (shorter only while
        # prompt plus drafts are shorter), or the whole prompt plus the
        # drafted tokens for a None window. It refuses argmax-lenient decoding,
        # which has no law to fit, before asking either model.
        prompt = _corpus(23, 50)

        def asked(windows, cfg):
            seen: dict[str, list[tuple[str, list[tuple[int, ...]]]]] = {"target": [], "draft": []}

            class Recording(FullPrefix):
                def __init__(self, inner, role, window):
                    super().__init__(inner)
                    self.context_window = window
                    self.role = role

                def evaluate_batch(self, prefixes):
                    seen[self.role].append(("evaluate_batch", [tuple(p) for p in prefixes]))
                    return self.inner.evaluate_batch(prefixes)

                def next_distribution_batch(self, prefixes, policy):
                    seen[self.role].append(("next_distribution_batch",
                                            [tuple(p) for p in prefixes]))
                    return self.inner.next_distribution_batch(prefixes, policy)

            engine.speculative_steps(Recording(_ngram(3), "target", windows[0]),
                                     Recording(_ngram(2), "draft", windows[1]),
                                     prompt, cfg, RandomStream(0), 500)
            return seen

        identity, lenient = SpecConfig(gamma=3), SpecConfig(
            gamma=3, policy=SamplingPolicy(argmax=True), lenience=0.5)
        for windows in ((2, 1), (None, None)):
            seen = asked(windows, identity)
            for role, window in zip(("target", "draft"), windows):
                calls = seen[role]
                assert len(calls) == (4 if role == "target" else 3)
                assert {m for m, _ in calls} == {"next_distribution_batch"}
                for i, (_, tails) in enumerate(calls):
                    assert len(set(tails)) == len(tails)
                    if window is None:
                        assert {len(t) for t in tails} == {len(prompt) + i}
                        assert all(list(t[:len(prompt)]) == prompt for t in tails)
                        assert len(tails) <= VOCAB ** i
                    else:
                        assert {len(t) for t in tails} == {window}
                        assert len(tails) <= VOCAB ** window
        with pytest.raises(ValueError, match="argmax-lenient"):
            asked((2, 1), lenient)

    @pytest.mark.parametrize("windows", [(2, 1), (None, None)], ids=["windowed", "whole-prefix"])
    def test_block_takes_a_tuple_or_array_prefix(self, windows):
        # The block joins its rows' drafts to a list of the prefix's tail, so
        # an array prefix is not added to them elementwise.
        prompt, cfg = _corpus(27, 12), SpecConfig(gamma=3)
        target, draft = (FullPrefix(m) for m in (_ngram(3), CopyModel(VOCAB, min_match=1)))
        target.context_window, draft.context_window = windows
        blocks = [engine.speculative_steps(target, draft, p, cfg, RandomStream(3), 50)
                  for p in (prompt, tuple(prompt), np.array(prompt))]
        assert all(np.array_equal(a, b) for blk in blocks[1:] for a, b in zip(blocks[0], blk))

    def test_prefix_is_not_mutated(self):
        target, draft = _ngram(3, seed=7), _ngram(1, seed=8)
        prefix = [0, 1, 2]
        speculative_step(target, draft, prefix, SpecConfig(gamma=3), RandomStream(0))
        assert prefix == [0, 1, 2]


class TestOneListPerStep:
    @pytest.mark.parametrize("inner", ["ngram2", "copy", "ngram1"])
    def test_decode_drafts_into_its_own_list(self, inner):
        # Every draft call, windowed or not, gets decode's one list, which
        # ends as its prompt plus its output, and declares all but the last token kept.
        draft = Recorder({"ngram2": _ngram(2, seed=8), "ngram1": _ngram(1, seed=8),
                          "copy": CopyModel(VOCAB, min_match=1)}[inner])
        prompt = _corpus(24, 40)
        cfg = SpecConfig(gamma=3, seed=2, max_new_tokens=60)
        res = decode(_ngram(3, seed=7), draft, prompt, cfg)
        (seq,) = _lists(draft.calls)
        assert seq is not prompt and prompt == _corpus(24, 40)
        assert seq == prompt + res.tokens
        assert len(draft.calls) == cfg.gamma * len(res.traces)
        assert all(kept == n - 1 for _, n, kept in draft.calls)

    @pytest.mark.parametrize("window", [None, 0, 2, 60])
    @pytest.mark.parametrize("kept", [None, 39])
    def test_target_candidates_are_slices_of_the_list(self, window, kept):
        inner = {None: CopyModel(VOCAB, min_match=1), 0: _ngram(1)}.get(window, _ngram(3))
        target, cfg = Recorder(inner, window), SpecConfig(gamma=3)
        prefix = _corpus(26, 40)
        _, trace = speculative_step(target, _ngram(2, seed=8), prefix, cfg, RandomStream(1),
                                    kept=kept)
        seq = prefix + [d.token for d in trace.drafted]
        start = 0 if window is None else max(0, 40 - window)
        assert target.batches == [[seq[start:40 + i] for i in range(cfg.gamma + 1)]]
        assert prefix == _corpus(26, 40)

    def test_without_a_count_the_draft_gets_a_copy(self):
        draft = Recorder(CopyModel(VOCAB, min_match=1))
        prefix = _corpus(25, 30)
        speculative_step(_ngram(3), draft, prefix, SpecConfig(gamma=3), RandomStream(0))
        assert prefix == _corpus(25, 30)
        (copy,) = _lists(draft.calls)
        assert copy is not prefix
        assert [(n, kept) for _, n, kept in draft.calls] == [(30, None), (31, 30), (32, 31)]

    def test_a_count_needs_a_list(self):
        rng = RandomStream(0)
        with pytest.raises(TypeError, match="list to draft into, got tuple"):
            speculative_step(_ngram(3), CopyModel(VOCAB), tuple(_corpus(25, 30)),
                             SpecConfig(gamma=3), rng, kept=29)
        assert rng.n_drawn == 0

    def test_a_count_needs_a_list_not_a_deque(self):
        # A deque has append but no slices. A window-0 draft reads none of it,
        # so only the check keeps its drafts from being left appended.
        rng, prefix = RandomStream(0), collections.deque([0, 1, 2])
        with pytest.raises(TypeError, match="list to draft into, got deque"):
            speculative_step(_ngram(3), _ngram(1, seed=8), prefix, SpecConfig(gamma=3), rng,
                             kept=2)
        assert rng.n_drawn == 0 and list(prefix) == [0, 1, 2]
