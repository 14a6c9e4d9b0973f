"""Stable softmax, the row-invariant product, a seeded RNG, read-only arrays, index keys, and scalar and array checks.

Everything downstream builds on this module.  All values are 64-bit floats;
matrices are 2-D C-ordered ``numpy.ndarray`` (rows x cols, row-major).  All
operations are pure; the only stateful object is :class:`Rng`, which must not
be shared across threads of execution.

:func:`row_matmul` is the product the simulator and, by default, inference
run on (training and its validation run on gemm products).  One
``(R, d) @ (d, o)`` gemm rounds a row differently depending on how many rows
share the call, so it could not reproduce a lone agent's ``W @ x``.
``row_matmul`` runs each row as its own stacked ``(1, d) @ (d, o)`` product
instead: on this numpy/OpenBLAS build every row then rounds exactly as it does
alone and as ``W @ x`` does.  That is an observed property of the build, not a
documented numpy guarantee, so a test pins it (see "Defeating Nondeterminism
in LLM Inference", Thinking Machines, 2025, on batch-invariant kernels).

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

splitmix64 is counter-based: word k (from 1) after seed s is
``mix(s + k*GAMMA)``.  An ``Rng`` is its seed and the count of words drawn,
both Python ints.  Scalar draws (``uniform_scalar``, and so ``randint`` and
``permutation``) run the recurrence above in int arithmetic, masking to 64
bits after each step; vector draws (``u64``, ``uniform``, ``normal``) run it
on uint64 arrays, which wrap mod 2**64 by themselves.  Both forms consume the
same words in the same order and ``(z >> 11) * 2**-53`` is exact in either,
so interleaving them reproduces the vector-only stream.

``Rng.skip(n)`` jumps over n words in O(1) and returns the state they start
from, and :func:`normal_blocks` later draws the normals of many such skipped
blocks in one vector op, each bit-equal to the ``normal`` call it stands in
for (Steele, Lea and Flood, OOPSLA 2014; Salmon et al., SC 2011).  ``u64``
and ``normal`` are the one-block case of the same splitmix and Box-Muller
code.

:func:`keyed_streams` gives each of many streams its own key, word e of
``Rng(seed)`` for stream e, so stream e is reached without drawing the
streams before it.  One vector op draws the first ``AHEAD_WORDS`` words of
every stream of a block, and each stream's ``Rng`` serves its scalar draws
from them; past them it goes on in int arithmetic, with the same words.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_SM64_MUL1 = np.uint64(_MUL1)
_SM64_MUL2 = np.uint64(_MUL2)
_U53_SCALE = 2.0 ** -53

AHEAD_WORDS = 64  # words of each keyed stream drawn ahead by keyed_streams


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis.

    Subtracts each row's maximum before exponentiating, so entries of
    magnitude up to ~1e3 (and far beyond) cannot overflow.  Every row of a
    stack comes out bit-identical to :func:`softmax_row` of that row alone.
    """
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_row(v: np.ndarray) -> np.ndarray:
    """Softmax of a single finite row vector; entries are positive and sum to 1 within 1e-9."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"softmax_row expects a non-empty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("softmax_row input contains non-finite entries")
    return softmax(v)


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w @ x`` for every row ``x`` of a stack of any leading shape, each row as if alone.

    ``x`` is (..., d) and ``w`` is (o, d); the result is (..., o).  Each row
    is its own ``(1, d) @ (d, o)`` product, so its bits depend neither on the
    other rows nor on their number (see the module docstring).
    """
    return np.matmul(np.ascontiguousarray(x, dtype=np.float64)[..., None, :], w.T)[..., 0, :]


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only in place: a write into it, or into any view taken after, raises ValueError."""
    array.flags.writeable = False
    return array


def index_array(key) -> np.ndarray:
    """``key`` (a list, tuple, range or array of integers, or an empty one) as an intp array of row indices.

    A bool or float dtype, or a bool among a list's or tuple's integers,
    raises ValueError naming it, where a cast to intp would read ``[True, 5]``
    as rows 1 and 5, and 1.5 as row 1.  An array or a range is not scanned.
    """
    rows = np.asarray(key)
    if rows.size and not np.issubdtype(rows.dtype, np.integer):  # an empty list is float64, and gathers nothing
        raise ValueError(f"row indices must be integers, got dtype {rows.dtype}")
    if isinstance(key, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, key)):
        at = next(i for i, k in enumerate(key) if type(k) in (bool, np.bool_))
        raise ValueError(f"row indices must be integers, got the bool {key[at]} at position {at}")
    return rows.astype(np.intp, copy=False)


def integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int, if it is a Python or NumPy integer in [``low``, ``high``] (each bound optional).

    Anything else, a bool or a float such as 2.0 too, raises ValueError naming ``name``, the rule and ``value``.
    """
    number = int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else None
    if number is None or (low is not None and number < low) or (high is not None and number > high):
        if low is None:
            rule = "" if high is None else f" <= {high}"
        else:
            rule = f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer{rule}, got {value!r}")
    return number


def real(value, name: str, low: float, high: float) -> float:
    """``value`` as a Python float, if it is a Python or NumPy real whose float64 lies in [``low``, ``high``].

    Anything else (a bool, a string, a ``10**400`` no float64 holds, NaN) raises ValueError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a 10**400 compares as finite but never becomes a float64
        raise ValueError(f"{name} must be a finite float64, got {type(value).__name__} beyond its range") from None
    if not low <= number <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return number


def array(value, name: str, dtype, shape: tuple[int | None, ...]) -> np.ndarray:
    """``value`` itself, unconverted, if it is an ndarray of exactly ``dtype`` and ``shape``; a None matches any length.

    Anything else, a list too, raises ValueError naming ``name``, the dtype and shape needed, and what it got.
    """
    if isinstance(value, np.ndarray) and value.dtype == dtype:
        got = value.shape
        if got == shape or len(got) == len(shape) and all(s in (g, None) for g, s in zip(got, shape)):
            return value
    got = f"dtype {value.dtype} and shape {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
    shape = repr(shape).replace("None", "any")
    raise ValueError(f"{name} must be an ndarray of dtype {np.dtype(dtype)} and shape {shape}, got {got}")


def _words(starts: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` splitmix64 words after each state of the uint64 vector ``starts``, as (len(starts), n)."""
    # Array arithmetic throughout: numpy wraps unsigned arrays silently,
    # whereas scalar uint64 ops emit overflow warnings.
    z = starts[:, None] + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
    return z ^ (z >> np.uint64(31))


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits as a double on [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * _U53_SCALE


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from the uniform pairs along the last (even) axis: pair i gives (r*cos, r*sin)."""
    u1 = 1.0 - u[..., 0::2]  # (0, 1]: keeps log() finite
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u[..., 1::2]
    out = np.empty(u.shape, dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


def normal_blocks(starts: list[int], width: int) -> np.ndarray:
    """One (len(starts), width) draw: row i is ``normal(width)`` from state ``starts[i]``.

    ``starts`` are states returned by :meth:`Rng.skip`; ``width`` must be
    even, so each block is whole Box-Muller pairs.
    """
    if width < 0 or width % 2:
        raise ValueError(f"block width must be even and >= 0, got {width}")
    return _box_muller(_unit_doubles(_words(np.array(starts, dtype=np.uint64), width)))


class Rng:
    """Deterministic splitmix64 stream with uniform/normal derivations.

    ``seed`` is any Python or NumPy integer (see :func:`integer`), read mod
    2**64.  Identical seeds produce byte-identical integer streams on any
    platform; the float derivations are fixed arithmetic on those integers.
    One Rng per thread of execution.

    ``ahead``, when given, holds the unit doubles of the stream's first words
    (``Rng(seed).uniform(len(ahead))``, as :func:`keyed_streams` draws them);
    scalar draws read those instead of computing them, and past them go on
    with the same arithmetic.  Every draw is the same with or without it.
    """

    def __init__(self, seed: int, ahead: Sequence[float] = ()):
        # type() first: keyed_streams builds one Rng per generated episode, each from a Python int.
        self.seed = (seed if type(seed) is int else integer(seed, "Rng seed")) & _MASK64
        self._ahead = ahead
        self._drawn = 0  # words consumed: the state is seed + drawn * GAMMA

    def skip(self, n: int) -> int:
        """Jump over the next ``n`` words in O(1); return the state they start from.

        ``normal_blocks([start], n)[0]`` then equals what ``normal(n)`` would
        have returned here, for even ``n``.
        """
        if n < 0:
            raise ValueError("draw count must be >= 0")
        start = (self.seed + self._drawn * _GAMMA) & _MASK64
        self._drawn += n
        return start

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as a uint64 array."""
        return _words(np.array([self.skip(n)], dtype=np.uint64), n)[0]

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return _unit_doubles(self.u64(n))

    def normal(self, n: int) -> np.ndarray:
        """``n`` i.i.d. standard-normal draws via Box-Muller.

        Draws ceil(n/2) uniform pairs; pair i yields outputs (2i, 2i+1) as
        (r*cos, r*sin).  A trailing odd draw discards the sin term, so
        consecutive calls are NOT equivalent to one larger call for odd n.
        """
        if n < 0:
            raise ValueError("draw count must be >= 0")
        return _box_muller(self.uniform(n + n % 2))[:n]

    def uniform_scalar(self) -> float:
        """One double uniform on [0, 1): ``uniform(1)[0]``, drawn ahead or in int arithmetic."""
        k = self._drawn
        self._drawn = k + 1
        if k < len(self._ahead):
            return self._ahead[k]
        z = (self.seed + (k + 1) * _GAMMA) & _MASK64
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


def keyed_streams(seed: int, first: int, count: int) -> list[Rng]:
    """Streams ``first`` to ``first + count - 1`` keyed by ``seed``, each with its first words drawn ahead.

    Stream e is ``Rng(key)``, where ``key`` is word e (counting from 0) of
    ``Rng(seed)``'s stream, so it depends on (seed, e) alone and is reached
    without drawing the streams before it.  One :func:`_words` call gives
    the ``count`` keys and one more the first ``AHEAD_WORDS`` words of every
    stream, passed to its ``Rng`` as unit doubles.
    """
    keys = _words(np.array([(int(seed) + first * _GAMMA) & _MASK64], dtype=np.uint64), count)[0]
    ahead = _unit_doubles(_words(keys, AHEAD_WORDS)).tolist()
    return list(map(Rng, keys.tolist(), ahead))
