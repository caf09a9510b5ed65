"""Deterministic scene RNG with a pinned, portable algorithm.

Synthetic scenes must reproduce bit-exactly across platforms and across ports
to other languages, so the generator is part of the public contract rather
than an implementation detail. Everything below is fixed:

Raw stream (splitmix64, counter form). Output ``i`` (1-based) is
``mix(seed + i * 0x9E3779B97F4A7C15)`` in 64-bit wrapping arithmetic, where
``mix`` is the splitmix64 finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Derived draws, each consuming raw outputs in order:

* ``uniform``: one raw ``r``; value ``(r >> 11) * 2**-53`` in ``[0, 1)``.
* ``normal``: two raws; ``u1 = ((r1 >> 11) + 1) * 2**-53`` in ``(0, 1]``,
  ``u2 = (r2 >> 11) * 2**-53``; value ``sqrt(-2 ln u1) * cos(2 pi u2)``
  (Box-Muller, cosine branch only — the sine mate is discarded).
* ``integer(n)``: one uniform ``u``; value ``min(floor(u * n), n - 1)``.
* ``shuffle``: Fisher-Yates, ``for i = len-1 .. 1: j = integer(i + 1); swap``.

The seed-0 raw stream starts ``0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...``
(the published splitmix64 reference vector); tests pin it.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def _below(u: float, bound: int) -> int:
    """Map a uniform ``u`` in [0, 1) to an integer in [0, bound)."""
    return min(int(u * bound), bound - 1)


# Outputs computed ahead per block; a draw that outruns the block starts a
# new one at the current counter. A block costs about as much to mix as a
# single output, and 256 hold a whole synthetic scene of up to 20 markers.
_BLOCK = 256


def _outputs(seed: int, after: int, n: int) -> np.ndarray:
    """Raw outputs ``after + 1 .. after + n`` of the stream for ``seed``."""
    with np.errstate(over="ignore"):
        idx = np.arange(after + 1, after + 1 + n, dtype=np.uint64)
        z = (np.uint64(seed) + idx * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Counter-based 64-bit generator (see module docstring for the contract)."""

    __slots__ = ("_seed", "_count", "_block", "_block_start")

    def __init__(self, seed: int):
        self._seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._count = 0  # outputs drawn so far
        self._block = np.zeros(0, dtype=np.uint64)  # outputs _block_start + 1, ...
        self._block_start = 0

    @property
    def seed(self) -> int:
        return self._seed

    def _take(self, n: int) -> np.ndarray:
        """Next ``n`` raw outputs as a read-only view of the block."""
        if n < 0:
            raise ValueError("n must be non-negative")
        offset = self._count - self._block_start
        if offset + n > len(self._block):
            self._block = _outputs(self._seed, self._count, max(n, _BLOCK))
            self._block.setflags(write=False)
            self._block_start = self._count
            offset = 0
        self._count += n
        return self._block[offset : offset + n]

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        return self._take(n).copy()

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform in [0, 1)."""
        return (self._take(n) >> np.uint64(11)).astype(np.float64) * _U53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles (Box-Muller, cosine branch)."""
        r = self._take(2 * n).reshape(n, 2) >> np.uint64(11)
        u1 = (r[:, 0].astype(np.float64) + 1.0) * _U53
        u2 = r[:, 1].astype(np.float64) * _U53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return _below(float(self.uniforms(1)[0]), bound)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws all ``len - 1`` uniforms at once; step i applies the rule of
        ``integer(i + 1)`` to its own uniform, so the result is the same.
        """
        if len(items) < 2:
            return
        steps = range(len(items) - 1, 0, -1)
        for i, u in zip(steps, self.uniforms(len(items) - 1).tolist()):
            j = _below(u, i + 1)
            items[i], items[j] = items[j], items[i]

    def rotation(self) -> np.ndarray:
        """Uniformly random proper rotation matrix (quaternion of 4 normals)."""
        while True:
            q = self.normals(4)
            norm = math.sqrt(q.dot(q))  # np.linalg.norm(q), without its dispatch
            if norm > 1e-12:
                return rotation_from_quaternion(q / norm)


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (3, 3) from one unit quaternion (w, x, y, z).

    Evaluated in Python floats, which round exactly like float64 arrays
    without numpy's per-call overhead.
    """
    w, x, y, z = np.asarray(q, dtype=np.float64).tolist()
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array([
        [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
        [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
        [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
    ])
