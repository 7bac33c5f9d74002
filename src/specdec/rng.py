"""Counter-based uniform random stream with an explicit draw counter.

All stochastic code in this package draws from a :class:`RandomStream`,
never from global RNG state. The stream is backed by numpy's Philox
(Philox-4x64-10, a counter-based generator), keyed by ``(seed, stream)``,
so runs are reproducible bit-for-bit across platforms and the number of
variates consumed is observable (``n_drawn``). Decoder code relies on a
fixed consumption order per step, so every draw is accounted for even
when its value ends up unused.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Uniform [0, 1) stream over Philox, keyed by (seed, stream index).

    The generator yields the same sequence whether variates are drawn one
    at a time or ``n`` at once. ``n_drawn`` counts variates handed out.
    """

    __slots__ = ("seed", "stream", "n_drawn", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.n_drawn = 0

    def uniform(self) -> float:
        """Draw exactly one uniform variate in [0, 1)."""
        u = self._gen.random()
        self.n_drawn += 1
        return u

    def uniform_block(self, n: int) -> np.ndarray:
        """Draw ``n`` variates at once; consumes the same stream positions
        as ``n`` successive :meth:`uniform` calls."""
        out = self._gen.random(n)
        self.n_drawn += n
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream={self.stream}, n_drawn={self.n_drawn})"
