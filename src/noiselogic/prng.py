"""Deterministic random number generation for the whole package.

Every random choice in this package comes from SplitMix64, a published
64-bit generator: the k-th output for seed ``s`` is ``mix64(s + k * GOLDEN)``
where ``GOLDEN`` is the 64-bit golden-ratio constant and ``mix64`` is the
xor-shift/multiply finalizer of Steele, Lea and Flood's SplitMix.  Because
each output depends only on the seed and the output index, the same stream
can be produced one value at a time or as a vectorized block, and both
paths are bit-identical.

Independent substreams are derived with :func:`derive_seed`: child ``i`` of
seed ``s`` is simply the ``(i+1)``-th raw output of the root stream.  Per-trial
seeds derived this way make serial, chunked and vectorized runs agree
exactly, which is what the golden-file and Monte-Carlo tests rely on.
"""

import numpy as np

MASK64 = (1 << 64) - 1

# 2**64 / golden ratio, the SplitMix64 state increment.
GOLDEN = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_U = np.uint64


def mix64(z: int) -> int:
    """SplitMix64 output finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray, top_bit_only: bool = False) -> None:
    """:func:`mix64` on the uint64 array ``z`` in place, with ``tmp`` (same shape) as scratch.

    With ``top_bit_only`` the last stage, ``z ^ (z >> 31)``, is left out:
    it cannot change the top bit, so that bit is already final.
    """
    np.right_shift(z, _U(30), out=tmp)
    z ^= tmp
    z *= _U(_MUL1)
    np.right_shift(z, _U(27), out=tmp)
    z ^= tmp
    z *= _U(_MUL2)
    if not top_bit_only:
        np.right_shift(z, _U(31), out=tmp)
        z ^= tmp


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array (wraparound is native)."""
    z = z.astype(np.uint64, copy=True)
    _mix64_inplace(z, np.empty_like(z))
    return z


def derive_seed(seed: int, index: int) -> int:
    """Seed of child stream ``index``: the ``(index+1)``-th raw output of ``seed``'s stream."""
    return mix64((seed + GOLDEN * (index + 1)) & MASK64)


def derive_seeds(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Vectorized :func:`derive_seed` for indices ``start .. start+count-1`` (mod 2**64)."""
    z = np.arange(count, dtype=np.uint64)
    z *= _U(GOLDEN)
    z += _U((int(seed) + GOLDEN * (int(start) + 1)) & MASK64)
    _mix64_inplace(z, np.empty_like(z))
    return z


class SplitMix64:
    """One SplitMix64 stream with scalar and block output paths.

    ``next_u64`` and ``block`` draw from the same sequence: after any mix of
    calls, output ``k`` (1-based) is ``mix64(seed + k * GOLDEN)``.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._seed = seed
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._seed + GOLDEN * self._count) & MASK64)

    def block(self, n: int) -> np.ndarray:
        """Next ``n`` outputs as a uint64 array."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return mix64_array(_U(self._seed) + _U(GOLDEN) * ks)

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream; same convention as :func:`derive_seed`."""
        return SplitMix64(derive_seed(self._seed, index))
