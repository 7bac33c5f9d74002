"""Span recording for the traced benchmark run.

Everything here wraps the package from outside: a forwarding proxy for each
model, wrappers installed over the module attributes through which
``engine``, ``models``, ``harness`` and ``cli`` reach ``speculative_step``,
the ``distmath`` functions, ``RandomStream``, the tokenizers, training and
model I/O, and plain timers around the public calls the benchmark makes.

A span is (name, start, end, parent, request). Spans are kept in compact
arrays in memory and written out once, when the run ends; per-layer
numbers are computed from them afterwards.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial

import numpy as np

from specdec import cli, engine, harness, models
from specdec.models import LanguageModel
from specdec.rng import RandomStream

_now = time.perf_counter_ns


class Tracer:
    """In-memory span store with a parent stack and per-boundary counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_request = -1
        self.counts: Counter = Counter()
        self.in_step = 0
        self.step_traces: dict[int, list] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class TracedModel(LanguageModel):
    """Forwards every model entry point to ``inner`` inside a span."""

    def __init__(self, inner: LanguageModel, role: str, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self._prefix = f"models.{role}."

    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    @property
    def score_kind(self) -> str:
        return self.inner.score_kind

    def _call(self, method: str, n_seqs: int, *args):
        self.tracer.counts[self._prefix + "seqs"] += n_seqs
        return self.tracer.call(self._prefix + method, getattr(self.inner, method), *args)

    def evaluate(self, prefix):
        return self._call("evaluate", 1, prefix)

    def evaluate_batch(self, prefixes):
        return self._call("evaluate_batch", len(prefixes), prefixes)

    def next_distribution(self, prefix, policy):
        return self._call("next_distribution", 1, prefix, policy)

    def next_distribution_batch(self, prefixes, policy):
        return self._call("next_distribution_batch", len(prefixes), prefixes, policy)


def _traced_stream_class(tracer: Tracer) -> type:
    class TracedRandomStream(RandomStream):
        __slots__ = ()

        def uniform(self):
            if tracer.in_step:
                tracer.counts["rng.step_draws"] += 1
            return tracer.call("rng.uniform", RandomStream.uniform, self)

        def uniform_block(self, n):
            if tracer.in_step:
                tracer.counts["rng.step_draws"] += n
            return tracer.call("rng.uniform_block", RandomStream.uniform_block, self, n)

    return TracedRandomStream


def _traced_tokenizer(cls: type, tracer: Tracer) -> type:
    def encode(self, text):
        return tracer.call("tokenizers.encode", cls.encode, self, text)

    return type(cls.__name__, (cls,), {"encode": encode})


class _TimedStats:
    """Stands in for ``scipy.stats`` inside ``harness``; times the chi-square calls."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        fn = getattr(self._inner, attr)
        if attr in ("chi2_contingency", "chisquare"):
            return lambda *a, **k: self._tracer.call("harness.chi2", fn, *a, **k)
        return fn


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    original_step = engine.speculative_step

    def step(target, draft, prefix, config, rng, **kwargs):
        tracer.in_step += 1
        try:
            tokens, trace = tracer.call("engine.step", original_step,
                                        target, draft, prefix, config, rng, **kwargs)
        finally:
            tracer.in_step -= 1
        tracer.counts["engine.tokens"] += len(tokens)
        tracer.counts["engine.accepted"] += trace.accepted_n
        tracer.counts["engine.drafted"] += len(trace.drafted)
        tracer.counts["engine.correction." + trace.correction_source] += 1
        tracer.step_traces.setdefault(tracer.current_request, []).append(trace)
        return tokens, trace

    stream_cls = _traced_stream_class(tracer)
    patches = [
        (engine, "speculative_step", step),
        (harness, "speculative_step", step),
        (engine, "RandomStream", stream_cls),
        (harness, "RandomStream", stream_cls),
        (harness, "scipy_stats", _TimedStats(harness.scipy_stats, tracer)),
        (cli, "ByteTokenizer", _traced_tokenizer(cli.ByteTokenizer, tracer)),
        (cli, "WordTokenizer", _traced_tokenizer(cli.WordTokenizer, tracer)),
        (cli, "train_ngram", partial(tracer.call, "models.train", cli.train_ngram)),
        (cli, "save_model", partial(tracer.call, "model_io.save", cli.save_model)),
        (cli, "load_model", partial(tracer.call, "model_io.load", cli.load_model)),
        (models, "standardize", partial(tracer.call, "distmath.standardize", models.standardize)),
    ]
    for fn in ("standardize", "residual", "inverse_cdf", "sample"):
        patches.append((engine, fn, partial(tracer.call, "distmath." + fn, getattr(engine, fn))))
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, value in patches:
            setattr(mod, attr, value)
        yield stream_cls
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


class SpanTable:
    """Per-name aggregates over a finished trace: inclusive and self time."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.request = a["request"]
        self.dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def busy(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_busy(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def under(self, child: str, parent: str) -> np.ndarray:
        """Mask of ``child`` spans whose direct parent is a ``parent`` span."""
        m = self.mask(child)
        parents = self.mask(parent)
        ok = np.zeros_like(m)
        idx = np.nonzero(m & (self.parent >= 0))[0]
        ok[idx] = parents[self.parent[idx]]
        return ok
