"""The module attributes the benchmark's traced run patches must exist.

``specbench/tracing.py`` swaps wrappers over named attributes of ``engine``,
``harness``, ``models`` and ``cli`` (``getattr`` on each), so renaming or
dropping one of them breaks the traced run; these tests catch that without
running the benchmark, and check that a traced decode still shows every
sample, every draw and every standardization where the benchmark counts them,
and that the harness's steps still run as blocks under the tracer.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from specdec import engine, harness, models
from specdec.distmath import IDENTITY_POLICY, SamplingPolicy
from specdec.engine import SpecConfig, decode
from specdec.models import CopyModel, train_ngram

SPECBENCH = Path(__file__).resolve().parent.parent / "specbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(SPECBENCH))
    return importlib.import_module("tracing")


def test_traced_run_installs_and_restores(tracing):
    originals = (engine.speculative_step, harness.speculative_step, models.standardize)
    with tracing.installed(tracing.Tracer()):
        assert engine.speculative_step is not originals[0]
    assert (engine.speculative_step, harness.speculative_step, models.standardize) == originals


def test_traced_decode_sees_every_sample_and_draw(tracing):
    # The traced view must keep seeing a step's sampling and its draws: every
    # drafted and final token is an inverse_cdf (or sample) span under its
    # step, a step draws 2*gamma+1 variates, the order-1 draft standardizes
    # once per policy, and every rejected step builds one residual.
    corpus = [0, 1, 2, 3, 3, 2, 3, 1, 3, 0, 2, 2, 1, 0, 3]
    target = train_ngram(corpus, order=2, vocab_size=4)
    draft = train_ngram(corpus[3:], order=1, vocab_size=4)
    gamma = 3
    tracer = tracing.Tracer()
    traces = []
    with tracing.installed(tracer):
        for policy in (IDENTITY_POLICY, SamplingPolicy(top_k=2)):
            traces += decode(target, draft, [0], SpecConfig(gamma=gamma, policy=policy,
                                                            max_new_tokens=60)).traces
    table = tracing.SpanTable(tracer)
    steps = table.count("engine.step")
    assert steps == len(traces)
    sampled = (table.under("distmath.inverse_cdf", "engine.step").sum()
               + table.under("distmath.sample", "engine.step").sum())
    assert sampled == sum(gamma + (t.correction_source != "draft_fallback") for t in traces)
    assert tracer.counts["rng.step_draws"] == steps * (2 * gamma + 1)
    assert table.count("distmath.standardize") == 2
    # The benchmark's distmath.residual metrics count one residual per
    # rejected step (a draft_fallback step's raises AllZeroError inside it).
    rejected = sum(t.accepted_n < gamma for t in traces)
    assert rejected > 0
    assert table.under("distmath.residual", "engine.step").sum() == rejected
    assert table.count("distmath.residual") == rejected


def test_traced_copy_draft_decodes_as_untraced(tracing):
    # Wrapped as the benchmark wraps it, the CopyModel draft is asked through
    # next_distribution with no kept count, so it compares contents; the
    # tokens must still be the untraced ones, with gamma draft spans and
    # 2*gamma+1 draws per step.
    corpus = [0, 1, 2, 3, 3, 2, 3, 1, 3, 0, 2, 2, 1, 0, 3] * 3
    target = train_ngram(corpus, order=3, vocab_size=4, smoothing_k=0.05)
    prompt = corpus[:20]
    gamma = 4
    configs = [SpecConfig(gamma=gamma, seed=s, max_new_tokens=80) for s in range(2)]
    untraced = [decode(target, CopyModel(4), prompt, c) for c in configs]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        draft = tracing.TracedModel(CopyModel(4), "draft", tracer)
        traced = [decode(tracing.TracedModel(target, "target", tracer), draft, prompt, c)
                  for c in configs]
    assert [r.to_dict() for r in traced] == [r.to_dict() for r in untraced]
    table = tracing.SpanTable(tracer)
    steps = table.count("engine.step")
    assert steps == sum(len(r.traces) for r in traced) > 0
    assert table.under("models.draft.next_distribution", "engine.step").sum() == gamma * steps
    assert tracer.counts["rng.step_draws"] == steps * (2 * gamma + 1)


def test_traced_harness_runs_in_blocks(tracing):
    # The traced models forward no context_window, yet the harness's steps
    # still run as one block: no engine.step span opens, and the report is
    # the untraced one bit for bit.
    corpus = [0, 1, 2, 3, 3, 2, 3, 1, 3, 0, 2, 2, 1, 0, 3]
    target = train_ngram(corpus, order=2, vocab_size=4)
    draft = train_ngram(corpus[3:], order=1, vocab_size=4)
    config = SpecConfig(gamma=3, seed=4)
    untraced = harness.equivalence_test(target, draft, config, 10_000, [[0], [1, 2]])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = harness.equivalence_test(tracing.TracedModel(target, "target", tracer),
                                          tracing.TracedModel(draft, "draft", tracer),
                                          config, 10_000, [[0], [1, 2]])
    table = tracing.SpanTable(tracer)
    assert table.count("engine.step") == 0
    assert table.count("models.target.next_distribution_batch") > 0
    assert traced == untraced
