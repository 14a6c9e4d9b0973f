"""Foundation math: softmax, the row-invariant product, the seeded RNG stream, and the scalar rule."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupcomm import densemath, scenarios
from groupcomm.densemath import Rng, integer, normal_blocks, real, row_matmul, softmax, softmax_row
from groupcomm.neuralnet import PipelineConfig, head_sizes

# First five raw words of the seed-42 stream, frozen as the cross-platform
# contract for the documented splitmix64 algorithm.
GOLDEN_U64_SEED42 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
    6349198060258255764,
    701532786141963250,
]
GOLDEN_NORMAL_SEED42 = [
    0.8822489062222688,
    1.388473285287707,
    -0.4508498757188601,
    0.6707164409024291,
]


_DRAW_KINDS = ("uniform_scalar", "randint", "permutation", "skip", "u64", "normal")


class TestSoftmaxRow:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_row(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_closed_form(self):
        out = softmax_row(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_large_entry_stability(self):
        out = softmax_row(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_row(np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax_row(np.array([1.0, np.nan]))

    def test_sums_to_one_over_random_inputs(self):
        rng = Rng(3)
        for _ in range(1000):
            size = 1 + rng.randint(8)
            scale = 10.0 ** (rng.randint(4))  # magnitudes up to 1e3
            v = rng.normal(size) * scale
            out = softmax_row(v)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0.0)
            if scale <= 10.0:
                # Entries only underflow to exactly 0 at extreme score gaps.
                assert np.all(out > 0.0)


    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 17])
    def test_stacked_rows_match_single_rows_bitwise(self, n):
        # Matching matrices are softmaxed as (E, N, N) stacks; the simulator
        # softmaxes one row at a time.
        z = Rng(4 + n).normal(70 * n * n).reshape(70, n, n) * 3.0
        np.testing.assert_array_equal(softmax(z), [[softmax_row(row) for row in rows] for rows in z])


class TestScalarRule:
    """``integer`` and ``real``: Python or NumPy scalars in, plain Python values out, anything else named."""

    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), np.int32(7)])
    def test_an_integer_comes_back_as_a_python_int(self, value):
        got = integer(value, "n", 0, 9)
        assert type(got) is int and got == 7

    @pytest.mark.parametrize(
        "value, low, high, rule",
        [
            (True, None, None, ""),
            (np.True_, None, None, ""),
            (2.0, None, None, ""),
            (np.float64(2.0), 0, None, " >= 0"),
            ("3", None, 9, " <= 9"),
            (None, 0, 9, " in [0, 9]"),
            (-1, 0, None, " >= 0"),
            (np.int64(10), 0, 9, " in [0, 9]"),
            (10**30, None, 9, " <= 9"),
        ],
    )
    def test_anything_else_is_refused_naming_the_field_the_rule_and_the_value(self, value, low, high, rule):
        with pytest.raises(ValueError, match=f"^n must be an integer{re.escape(rule)}, got {re.escape(repr(value))}$"):
            integer(value, "n", low, high)

    @pytest.mark.parametrize("value", [0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)])
    def test_a_real_comes_back_as_a_python_float(self, value):
        got = real(value, "x", 0, 1)
        assert type(got) is float and got == 0.25
        assert type(real(np.int64(1), "x", 0, 1)) is float

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "x must be a real number, got True"),
            ("0.5", "x must be a real number, got '0.5'"),
            (None, "x must be a real number, got None"),
            (complex(0.5, 0), "x must be a real number, got (0.5+0j)"),
            (10**400, "x must be a finite float64, got int beyond its range"),
            (1.5, "x must lie in [0, 1], got 1.5"),
            (np.float32(-0.5), f"x must lie in [0, 1], got {np.float32(-0.5)!r}"),
            (math.nan, "x must lie in [0, 1], got nan"),
            (math.inf, "x must lie in [0, 1], got inf"),
        ],
    )
    def test_a_non_real_or_a_real_out_of_range_is_refused(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            real(value, "x", 0, 1)


def _kernel_shapes():
    """(out, in) of every layer of the default pipeline and of its w_g, plus one odd shape."""
    c = PipelineConfig()
    layers = {(o, i) for sizes in head_sizes(c) for i, o in zip(sizes[:-1], sizes[1:])}
    return sorted(layers | {(c.q_dim, c.k_dim), (7, 13)})


class TestRowMatmul:
    # Row invariance is observed on this numpy/BLAS build, not guaranteed by
    # numpy.  Inference (centralized, validation, the simulator's agents)
    # relies on it to agree bit for bit, so an upgrade that breaks it must
    # fail here rather than drift.
    @pytest.mark.parametrize("rows", [1, 2, 5, 63, 64, 65, 2500])
    @pytest.mark.parametrize("shape", _kernel_shapes())
    def test_each_row_as_alone_and_as_per_vector_product(self, shape, rows):
        out_dim, in_dim = shape
        rng = Rng(1000 * out_dim + in_dim + rows)
        w = rng.normal(out_dim * in_dim).reshape(out_dim, in_dim)
        x = rng.normal(rows * in_dim).reshape(rows, in_dim)
        stacked = row_matmul(x, w)
        assert stacked.shape == (rows, out_dim)
        np.testing.assert_array_equal(stacked, [row_matmul(v, w) for v in x])
        np.testing.assert_array_equal(stacked, [w @ v for v in x])
        np.testing.assert_array_equal(row_matmul(x[None], w)[0], stacked)


class TestUnitRows:
    # The scenario render scales every mrmps signature of a block to unit
    # norm at once.  Each row's norm, the root of its own (1, d) @ (d, 1)
    # product, must equal np.linalg.norm of the row alone bit for bit, or
    # saved datasets would drift; like row invariance, this is observed on
    # this numpy/BLAS build and pinned here.
    @pytest.mark.parametrize("width", [2, 5, 16, 17])
    def test_each_row_norm_is_linalg_norm_bit_for_bit(self, width):
        rng = Rng(3000 + width)
        v = rng.normal(2000 * width).reshape(2000, width)
        norms = np.array([np.linalg.norm(row) for row in v])
        np.testing.assert_array_equal(np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]), norms)
        np.testing.assert_array_equal(scenarios._unit_rows(v), [row / norm for row, norm in zip(v, norms)])

    def test_zero_row_rejected(self):
        v = np.eye(3)
        v[1] = 0.0
        with pytest.raises(ValueError, match="cannot normalize a zero vector"):
            scenarios._unit_rows(v)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(1000)
        b = Rng(123).normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_golden_u64_stream(self):
        assert [int(x) for x in Rng(42).u64(5)] == GOLDEN_U64_SEED42

    def test_golden_normals(self):
        np.testing.assert_allclose(Rng(42).normal(4), GOLDEN_NORMAL_SEED42, rtol=1e-14)

    def test_stream_continuity(self):
        r = Rng(9)
        first = r.u64(7)
        second = r.u64(7)
        np.testing.assert_array_equal(np.concatenate([first, second]), Rng(9).u64(14))

    def test_normal_moments(self):
        z = Rng(1).normal(100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.True_, "3"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        # int(seed) ran 1.5 and True as seed 1.
        with pytest.raises(ValueError, match=f"^Rng seed must be an integer, got {re.escape(repr(seed))}$"):
            Rng(seed)

    def test_numpy_integer_seeds_pass(self):
        for seed in (np.int64(7), np.uint64(7), np.int8(7)):
            assert Rng(seed).seed == 7
            np.testing.assert_array_equal(Rng(seed).u64(3), Rng(7).u64(3))

    def test_seed_sensitivity(self):
        a = Rng(1).normal(10)
        b = Rng(2).normal(10)
        assert np.all(a != b)

    def test_uniform_range(self):
        u = Rng(4).uniform(10000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)

    def test_randint_bounds(self):
        r = Rng(6)
        draws = [r.randint(5) for _ in range(2000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_permutation_is_permutation(self):
        r = Rng(8)
        perm = r.permutation(20)
        assert sorted(perm) == list(range(20))

    @pytest.mark.parametrize("seed", [0, 42, -1, 2**64 - 1])
    @pytest.mark.parametrize("ahead", [0, 3, 64])
    def test_scalar_draws_reproduce_vector_stream(self, seed, ahead):
        # Scalar draws (int arithmetic, or read from the words drawn ahead)
        # interleaved with skips and array draws of many sizes must give,
        # word for word, the values derived from one array draw of the whole
        # stream.
        table = 1024
        sizes = [1, 2, 16, table - 1, table, table + 1, 2 * table + 3]
        rng = Rng(seed, Rng(seed).uniform(ahead).tolist())
        draws = []  # (kind, first word index, argument, result)
        pos = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(480):
                n = sizes[k % len(sizes)]
                kind = _DRAW_KINDS[k % 6]
                if kind == "skip":
                    m = k % 5
                    draws.append((kind, pos, m, rng.skip(m)))
                    pos += m
                elif kind == "uniform_scalar":
                    draws.append((kind, pos, None, rng.uniform_scalar()))
                    pos += 1
                elif kind == "randint":
                    bound = 1 + k % 97
                    draws.append((kind, pos, bound, rng.randint(bound)))
                    pos += 1
                elif kind == "permutation":
                    m = k % 11
                    draws.append((kind, pos, m, rng.permutation(m)))
                    pos += max(m - 1, 0)
                elif kind == "u64":
                    draws.append((kind, pos, n, rng.u64(n)))
                    pos += n
                else:
                    draws.append((kind, pos, n, rng.normal(n)))
                    pos += n + n % 2
            assert pos >= 10_000
            whole = Rng(seed).u64(pos + 3)
            np.testing.assert_array_equal(rng.u64(3), whole[pos:])
        unit = np.array([(int(w) >> 11) * 2.0**-53 for w in whole])
        for kind, p, arg, got in draws:
            if kind == "uniform_scalar":
                assert got == unit[p]
            elif kind == "randint":
                assert got == int(unit[p] * arg)
            elif kind == "permutation":
                expected = list(range(arg))
                for t, i in enumerate(range(arg - 1, 0, -1)):
                    j = int(unit[p + t] * (i + 1))
                    expected[i], expected[j] = expected[j], expected[i]
                assert got == expected
            elif kind == "skip":
                assert got == (seed + p * 0x9E3779B97F4A7C15) % 2**64
            elif kind == "u64":
                np.testing.assert_array_equal(got, whole[p : p + arg])
            else:
                u = unit[p : p + arg + arg % 2]
                r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
                theta = 2.0 * math.pi * u[1::2]
                expected = np.empty(u.size)
                expected[0::2] = r * np.cos(theta)
                expected[1::2] = r * np.sin(theta)
                np.testing.assert_array_equal(got, expected[:arg])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        index=st.integers(0, 2**40),
        ops=st.lists(st.tuples(st.sampled_from(_DRAW_KINDS), st.integers(0, 40)), max_size=30),
    )
    def test_keyed_stream_draws_as_a_plain_rng_of_its_key(self, index, ops):
        # The words drawn ahead must change no draw of any mix, up to and past
        # the last of them.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ahead = densemath.keyed_streams(53, index, 1)[0]
            seed_stream = Rng(53)
            seed_stream.skip(index)
            plain = Rng(int(seed_stream.u64(1)[0]))  # word ``index`` of Rng(53)
            for kind, arg in ops + [("uniform_scalar", 0)] * (densemath.AHEAD_WORDS + 1):
                if kind == "randint":
                    assert ahead.randint(arg + 1) == plain.randint(arg + 1)
                elif kind in ("u64", "normal"):
                    np.testing.assert_array_equal(getattr(ahead, kind)(arg), getattr(plain, kind)(arg))
                elif kind == "uniform_scalar":
                    assert ahead.uniform_scalar() == plain.uniform_scalar()
                else:
                    assert getattr(ahead, kind)(arg) == getattr(plain, kind)(arg)
            np.testing.assert_array_equal(ahead.u64(3), plain.u64(3))

    def test_uniform_scalar_matches_top_53_bits(self):
        word = int(Rng(42).u64(1)[0])
        assert Rng(42).uniform_scalar() == (word >> 11) * 2.0**-53


class TestSkipAndBlocks:
    # Episode generation skips over each agent's noise block and draws all
    # of them later in one normal_blocks call; these pin that the stream is
    # unchanged by it, on both sides of the cached step table.
    SEEDS = [0, 42, -1, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("blocks", [1, 5, 9])
    @pytest.mark.parametrize("width", [2, 32, 1024, 1026])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_blocks_from_skipped_starts_match_normal_calls(self, seed, blocks, width, interleaved):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            skipping, drawing = Rng(seed), Rng(seed)
            starts, expected = [], []
            for b in range(blocks):
                if interleaved and b % 2:  # scalar draws between blocks
                    assert skipping.randint(7 + b) == drawing.randint(7 + b)
                starts.append(skipping.skip(width))
                expected.append(drawing.normal(width))
            got = normal_blocks(starts, width)
            assert got.shape == (blocks, width)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(skipping.u64(3), drawing.u64(3))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 7, 1024, 1025, 5000])
    def test_skip_leaves_the_stream_where_u64_would(self, seed, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            skipping, drawing = Rng(seed), Rng(seed)
            assert skipping.skip(n) == seed % 2**64
            drawing.u64(n)
            np.testing.assert_array_equal(skipping.u64(5), drawing.u64(5))
            assert skipping.uniform_scalar() == drawing.uniform_scalar()

    def test_negative_skip_raises_and_keeps_the_stream(self):
        rng = Rng(42)
        with pytest.raises(ValueError, match="draw count must be >= 0"):
            rng.skip(-1)
        assert [int(x) for x in rng.u64(5)] == GOLDEN_U64_SEED42

    @pytest.mark.parametrize("width", [-2, 3])
    def test_odd_or_negative_block_width_rejected(self, width):
        with pytest.raises(ValueError, match=f"block width must be even and >= 0, got {width}"):
            normal_blocks([0], width)
