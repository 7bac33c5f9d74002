"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from specdec.distmath import Distribution, normalize
from specdec.rng import RandomStream


def random_distribution(rng: RandomStream, vocab: int, floor: float = 1e-12) -> Distribution:
    """Full-support random distribution (floor keeps every entry positive)."""
    return normalize(rng.uniform_block(vocab) + floor)


def random_pair(rng: RandomStream, vocab: int) -> tuple[Distribution, Distribution]:
    return random_distribution(rng, vocab), random_distribution(rng, vocab)


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


@pytest.fixture
def rng() -> RandomStream:
    return RandomStream(20240613)


def assert_dist_close(a: np.ndarray, b: np.ndarray, atol: float = 1e-12) -> None:
    np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)
