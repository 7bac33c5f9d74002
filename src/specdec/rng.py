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
_BUFFER_SIZE = 4096


class RandomStream:
    """Uniform [0, 1) stream over Philox, keyed by (seed, stream index).

    Draws are buffered internally; the visible sequence is identical to
    drawing one variate at a time. ``n_drawn`` counts variates handed out.
    """

    __slots__ = ("seed", "stream", "n_drawn", "_gen", "_buf", "_pos")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.n_drawn = 0
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def uniform(self) -> float:
        """Draw exactly one uniform variate in [0, 1)."""
        if self._pos >= self._buf.shape[0]:
            self._buf = self._gen.random(_BUFFER_SIZE)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        self.n_drawn += 1
        return float(u)

    def uniform_block(self, n: int) -> np.ndarray:
        """Draw ``n`` variates at once; consumes the same stream positions
        as ``n`` successive :meth:`uniform` calls."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            if self._pos >= self._buf.shape[0]:
                self._buf = self._gen.random(_BUFFER_SIZE)
                self._pos = 0
            take = min(n - filled, self._buf.shape[0] - self._pos)
            out[filled : filled + take] = self._buf[self._pos : self._pos + take]
            self._pos += take
            filled += take
        self.n_drawn += n
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream={self.stream}, n_drawn={self.n_drawn})"
