"""The module attributes the benchmark's traced run patches must exist.

``specbench/tracing.py`` swaps wrappers over named attributes of ``engine``,
``harness``, ``models`` and ``cli`` (``getattr`` on each), so renaming or
dropping one of them breaks the traced run; this test catches that without
running the benchmark.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from specdec import engine, harness, models

SPECBENCH = Path(__file__).resolve().parent.parent / "specbench"


def test_traced_run_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(SPECBENCH))
    tracing = importlib.import_module("tracing")
    originals = (engine.speculative_step, harness.speculative_step, models.standardize)
    with tracing.installed(tracing.Tracer()):
        assert engine.speculative_step is not originals[0]
    assert (engine.speculative_step, harness.speculative_step, models.standardize) == originals
