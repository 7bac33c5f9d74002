"""Reproducibility of the counter-based uniform stream."""

from __future__ import annotations

import numpy as np
import pytest

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


def test_block_matches_scalar_over_many_draws():
    n = 10_000
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


# The first eight variates of three keys, as float.hex: any change to the
# generator, its keying or its float conversion changes every decode.
PINNED = {
    (0, 0): ["0x1.7a5d3204726c0p-7", "0x1.eeb1585ce5460p-3", "0x1.c8667a55d9028p-4",
             "0x1.20faf40a5fab6p-1", "0x1.0137e64510730p-1", "0x1.1c44a2e7a01fcp-2",
             "0x1.e4a1741b7d80cp-1", "0x1.f8ddaccecf48ap-1"],
    (7, 3): ["0x1.edb31ec618b30p-2", "0x1.72c1e5d4967f1p-1", "0x1.9bae5c02bbd60p-5",
             "0x1.43b6c348a9a9ap-2", "0x1.5c8b1237ef569p-1", "0x1.9002d572e3804p-3",
             "0x1.06702874aa26bp-1", "0x1.417166ef4cef0p-2"],
    ((1 << 64) - 1, 1): ["0x1.4f45d046d7f68p-1", "0x1.8e345d413179ep-1", "0x1.696d28ed8f814p-3",
                         "0x1.e76069c1913f0p-5", "0x1.0f0618dccdd94p-2", "0x1.95e2cd654fa00p-3",
                         "0x1.5d76d1082d5c3p-1", "0x1.4e6ec4a9f70c0p-3"],
}


@pytest.mark.parametrize("key", PINNED)
def test_pinned_stream(key):
    r = RandomStream(*key)
    assert [r.uniform().hex() for _ in range(8)] == PINNED[key]
    assert [float(u).hex() for u in RandomStream(*key).uniform_block(8)] == PINNED[key]


def test_pinned_mixed_draws():
    r = RandomStream(5, 2)
    got = [r.uniform(), *r.uniform_block(5).tolist(), r.uniform()]
    assert [u.hex() for u in got] == [
        "0x1.b187b1a3cfaeap-1", "0x1.6f090a0d50332p-1", "0x1.ae1b83f3cf1b4p-2",
        "0x1.d798d4926d118p-3", "0x1.c6b9459ce9e36p-1", "0x1.430bfb38fd49cp-2",
        "0x1.bda16c7c6781dp-1"]
    assert r.n_drawn == 7


def test_empty_and_negative_blocks():
    r = RandomStream(3)
    assert r.uniform_block(0).shape == (0,) and r.n_drawn == 0
    with pytest.raises(ValueError):
        r.uniform_block(-1)
    assert r.n_drawn == 0
