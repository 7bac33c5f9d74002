"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from specdec.harness import random_pair  # noqa: F401  (imported by the test modules)
from specdec.models import StatelessModel
from specdec.rng import RandomStream


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and of its reaped children."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


_START = (time.perf_counter(), _cpu_seconds())  # this file is imported as the run starts
_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.hookimpl(trylast=True)  # after the slowest-durations list, just above the totals
def pytest_terminal_summary(terminalreporter):
    """CPU seconds beside wall seconds, so that time the suite spent waiting
    while other work ran on the machine shows as the gap between them, and
    the line count of the package's Python source."""
    wall, cpu = time.perf_counter() - _START[0], _cpu_seconds() - _START[1]
    lines = sum(len(f.read_bytes().splitlines()) for f in _SRC.rglob("*.py"))
    terminalreporter.write_line(f"session CPU {cpu:.1f} s (this process and reaped children), "
                                f"wall {wall:.1f} s, src/ {lines} lines")


def run_limited(script: str, *args: str, limit: int = 1 << 30) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` in a fresh interpreter whose address space
    is capped at ``limit`` bytes, so that an oversized allocation fails there
    at once instead of taking the machine's memory. One BLAS thread keeps the
    interpreter well inside the cap."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    cap = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    return subprocess.run([sys.executable, "-c", cap + script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def probs_strategy(min_size=2, max_size=16):
    return st.lists(
        st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda xs: np.array(xs) / np.sum(xs))


def paired_probs_strategy():
    return st.integers(min_value=2, max_value=16).flatmap(
        lambda n: st.tuples(probs_strategy(n, n), probs_strategy(n, n))
    )


class Unasked(StatelessModel):
    """A stateless model that fails the test when any of its methods is looked up,
    so a request refused before any model call never reaches it."""

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if callable(value) and not name.startswith("_"):
            raise AssertionError(f"model asked for {name} before the request was checked")
        return value


class NoDraws(RandomStream):
    """A stream that fails the test when it is asked for a variate."""

    def uniform(self):
        raise AssertionError("variate drawn before the request was checked")

    def uniform_block(self, n):
        raise AssertionError("variate drawn before the request was checked")


@pytest.fixture
def rng() -> RandomStream:
    return RandomStream(20240613)


def assert_dist_close(a: np.ndarray, b: np.ndarray, atol: float = 1e-12) -> None:
    np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)
