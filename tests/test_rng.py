"""Reproducibility of the counter-based uniform stream."""

from __future__ import annotations

import numpy as np

from specdec.rng import RandomStream


def test_same_seed_same_sequence():
    a = [RandomStream(42).uniform() for _ in [0]]
    r1, r2 = RandomStream(42), RandomStream(42)
    assert [r1.uniform() for _ in range(100)] == [r2.uniform() for _ in range(100)]
    assert a  # non-empty draw as sanity


def test_different_seeds_differ():
    r1, r2 = RandomStream(1), RandomStream(2)
    assert [r1.uniform() for _ in range(8)] != [r2.uniform() for _ in range(8)]


def test_streams_differ():
    r1, r2 = RandomStream(1, stream=0), RandomStream(1, stream=1)
    assert [r1.uniform() for _ in range(8)] != [r2.uniform() for _ in range(8)]


def test_block_matches_scalar_across_buffer_boundary():
    n = 10_000  # spans several internal refills
    block = RandomStream(7).uniform_block(n)
    scalar_rng = RandomStream(7)
    scalars = np.array([scalar_rng.uniform() for _ in range(n)])
    np.testing.assert_array_equal(block, scalars)


def test_mixed_block_and_scalar_draws_are_one_stream():
    r1, r2 = RandomStream(9), RandomStream(9)
    got = [r1.uniform(), *r1.uniform_block(5).tolist(), r1.uniform()]
    want = [r2.uniform() for _ in range(7)]
    assert got == want


def test_draw_counter():
    r = RandomStream(3)
    r.uniform()
    r.uniform_block(10)
    r.uniform()
    assert r.n_drawn == 12
