"""Dense vector/matrix kernel and seeded random generation.

All operations are deterministic. Random constructors are pure functions of
the seed: the bit stream is equal to numpy's ``Philox(seed)`` stream, computed
here (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
and Gaussians are produced by an explicit Box-Muller transform, so identical
seeds give bit-identical output on every platform and with every numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError, SizeError

_RANK_TOL = 1e-12  # relative to the largest, a smaller singular value counts as zero


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 1-D array a is finite. A finite a.a, one BLAS
    call, settles it; only a bad entry or an overflow of a.a (entries beyond
    about 1e154) needs the scan. vdot, unlike dot, does not warn on overflow."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise SizeError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not all_finite(v):
        raise NumericError(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise SizeError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not all_finite(m.ravel()):
        raise NumericError(f"{name} contains non-finite entries")
    return m


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Uses the closed form A^T (A A^T)^-1 when A has full row rank, otherwise
    an SVD construction where singular values below ``_RANK_TOL * sigma_max`` are
    treated as zero.
    """
    a = as_matrix(a, "pseudoinverse input")
    rows, cols = a.shape
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.zeros((cols, rows))
    if rows <= cols and s[-1] > _RANK_TOL * smax:
        # full row rank shortcut
        return np.linalg.solve(a @ a.T, a).T
    keep = s > _RANK_TOL * smax
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T


# numpy's SeedSequence: the hash constants of its 4-word entropy pool
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10: the round multipliers, and the Weyl constants that bump the key
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_U32 = np.uint64(32)
_LO32 = np.uint64(_MASK32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _U32
# blocks of 4 words per kernel call; the kernel's cost is mostly its ~200
# numpy calls, so a run's small draws share one or two calls
_BATCH_BLOCKS = 256


def _philox_key(seed: int) -> tuple:
    """``SeedSequence(seed).generate_state(2, uint64)``, in Python ints.

    The entropy of a seed below 2^64 is its 32-bit words, low first (one
    word when the high one is 0), and the 4-word pool is padded with zeros.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    words, hash_const = [], _INIT_B
    for value in pool:
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _philox_round_keys(key: tuple) -> np.ndarray:
    """The key of each round, shape (rounds, 2, 1): round r uses key + r * W."""
    return np.array([[[(k + r * w) % 2**64] for k, w in zip(key, _PHILOX_W)]
                     for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)


def _philox_blocks(round_keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """The 4 * count words of Philox4x64-10 for counters first, ..., first + count - 1.

    A counter is word 0 of its block; words 1 to 3 start at 0. Each round
    multiplies words 0 and 2 by the round constants into 128 bits, whose high
    halves come from products of 32-bit halves (each fits in a uint64).
    Returns the words block by block, in numpy's output order.
    """
    s = np.zeros((4, count), dtype=np.uint64)
    s[0] = np.arange(first, first + count, dtype=np.uint64)
    for key in round_keys:
        x = s[0::2]
        x_lo, x_hi = x & _LO32, x >> _U32
        lo_lo, lo_hi, hi_lo = x_lo * _M_LO, x_lo * _M_HI, x_hi * _M_LO
        mid = (lo_lo >> _U32) + (lo_hi & _LO32) + (hi_lo & _LO32)
        high = x_hi * _M_HI + (lo_hi >> _U32) + (hi_lo >> _U32) + (mid >> _U32)
        nxt = np.empty_like(s)
        np.bitwise_xor(high[::-1], s[1::2], out=nxt[0::2])
        nxt[0::2] ^= key
        np.multiply(x[::-1], _PHILOX_M[::-1], out=nxt[1::2])  # low halves, wrapping
        s = nxt
    return s.T.ravel()


class SeededRng:
    """Deterministic random stream.

    Its words are equal to numpy's ``Philox(seed)`` stream, computed here: the
    Philox4x64-10 blocks for counters 1, 2, 3, ... under the key that
    ``SeedSequence(seed)`` derives. Uniforms are 53-bit doubles in [0, 1),
    taken in order across requests, and normals are produced pairwise by the
    Box-Muller transform.
    """

    def __init__(self, seed: int):
        if not (int(seed) == seed and 0 <= seed < 2**64):
            raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self.seed = int(seed)
        self._round_keys = _philox_round_keys(_philox_key(self.seed))
        self._blocks = 0  # counters used so far
        self._buffer = np.empty(0)  # uniforms computed ahead of requests
        self._pos = 0

    def _draw(self, count: int) -> np.ndarray:
        """The next count uniforms of the stream."""
        end = self._pos + count
        if end > self._buffer.size:
            left = self._buffer[self._pos:]
            blocks = max(_BATCH_BLOCKS, -(-(count - left.size) // 4))
            words = _philox_blocks(self._round_keys, self._blocks + 1, blocks)
            self._blocks += blocks
            self._buffer = np.concatenate([left, (words >> np.uint64(11)) * 2.0**-53])
            self._pos, end = 0, count
        out = self._buffer[self._pos:end]
        self._pos = end
        return out

    def uniform(self, *shape) -> np.ndarray:
        return self._draw(math.prod(shape)).reshape(shape)

    def normal(self, *shape) -> np.ndarray:
        count = math.prod(shape)
        half = (count + 1) // 2
        u = self._draw(2 * half)
        u1 = 1.0 - u[:half]  # (0, 1], keeps log finite
        u2 = u[half:]
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        z = z[:count]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """Integers in [low, high) derived from the uniform stream."""
        u = self.uniform(size)
        return (low + np.floor(u * (high - low))).astype(int)


def random_psd(rng: SeededRng, n: int) -> np.ndarray:
    """Symmetric positive semi-definite matrix G^T G from a Gaussian G."""
    g = rng.normal(n, n)
    a = g.T @ g
    return 0.5 * (a + a.T)


def random_orthogonal_rows(rng: SeededRng, rows: int, cols: int) -> np.ndarray:
    """Matrix with orthonormal rows via Gram-Schmidt on Gaussian rows.

    Degenerate draws (near-zero residual during orthogonalization) are
    resampled from the same stream, so the result stays a pure function of
    the seed.
    """
    if rows > cols:
        raise ParameterError(f"need rows <= cols, got {rows}x{cols}")
    q = np.zeros((rows, cols))
    i = 0
    while i < rows:
        v = rng.normal(cols)
        for j in range(i):
            v = v - (q[j] @ v) * q[j]
        norm = np.linalg.norm(v)
        if norm < 1e-8 * np.sqrt(cols):
            continue  # resample this row
        q[i] = v / norm
        i += 1
    return q
