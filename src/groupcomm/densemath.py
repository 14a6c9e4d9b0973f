"""Activations, stable softmax, and a seeded RNG.

Everything downstream builds on this module.  All values are 64-bit floats;
matrices are 2-D C-ordered ``numpy.ndarray`` (rows x cols, row-major).  All
operations are pure; the only stateful object is :class:`Rng`, which must not
be shared across threads of execution.

The RNG is a fixed, documented algorithm (splitmix64) rather than a platform
default, so a given seed produces the same stream on every platform:

    state += 0x9E3779B97F4A7C15          (per draw, mod 2**64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Uniform doubles take the top 53 bits of each output word; standard normals
come from Box-Muller pairs over consecutive uniforms (cos term first, then
sin), so the normal stream is also fully determined by the seed.

The state is a Python int.  Scalar draws (``uniform_scalar``, and so
``randint`` and ``permutation``) run the recurrence above in int arithmetic,
masking to 64 bits after each step; vector draws (``u64``, ``uniform``,
``normal``) run it on uint64 arrays, which wrap mod 2**64 by themselves.  Both
forms consume the same words in the same order and ``(z >> 11) * 2**-53`` is
exact in either, so interleaving them reproduces the vector-only stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_SM64_MUL1 = np.uint64(_MUL1)
_SM64_MUL2 = np.uint64(_MUL2)
_U53_SCALE = 2.0 ** -53

# (1..n) * GAMMA mod 2**64: the state offsets of the next n draws, shared
# (read-only) by every u64 call of up to this many words.
_GAMMA_STEPS = np.arange(1, 1025, dtype=np.uint64) * np.uint64(_GAMMA)
_GAMMA_STEPS.setflags(write=False)


def softmax_row(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a single row vector.

    Subtracts the row maximum before exponentiating, so entries of magnitude
    up to ~1e3 (and far beyond) cannot overflow.  Output entries are positive
    and sum to 1 within 1e-9.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"softmax_row expects a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax_row input contains non-finite entries")
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / np.sum(e)


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def relu_grad(v: np.ndarray) -> np.ndarray:
    """Subgradient mask of relu: 1 where x > 0 else 0 (0 at x == 0)."""
    return (np.asarray(v, dtype=np.float64) > 0.0).astype(np.float64)


class Rng:
    """Deterministic splitmix64 stream with uniform/normal derivations.

    Identical seeds produce byte-identical integer streams on any platform;
    the float derivations are fixed arithmetic on those integers.  One Rng
    per thread of execution.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        if n <= _GAMMA_STEPS.size:
            steps = _GAMMA_STEPS[:n]
        else:
            steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        # Array arithmetic throughout: numpy wraps unsigned arrays silently,
        # whereas scalar uint64 ops emit overflow warnings.
        z = np.uint64(self._state) + steps
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * _U53_SCALE

    def normal(self, n: int) -> np.ndarray:
        """``n`` i.i.d. standard-normal draws via Box-Muller.

        Draws ceil(n/2) uniform pairs; pair i yields outputs (2i, 2i+1) as
        (r*cos, r*sin).  A trailing odd draw discards the sin term, so
        consecutive calls are NOT equivalent to one larger call for odd n.
        """
        if n < 0:
            raise ValueError("draw count must be >= 0")
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        m = (n + 1) // 2
        u = self.uniform(2 * m)
        u1 = 1.0 - u[0::2]  # (0, 1]: keeps log() finite
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def uniform_scalar(self) -> float:
        """One double uniform on [0, 1): ``uniform(1)[0]`` in int arithmetic."""
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * _U53_SCALE

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return int(self.uniform_scalar() * bound)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
