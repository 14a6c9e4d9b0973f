"""Foundation math: softmax, relu, and the seeded RNG stream."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupcomm import densemath
from groupcomm.densemath import Rng, normal_blocks, relu, row_matmul, softmax, softmax_row
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


class TestRelu:
    def test_definition(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_idempotent(self):
        rng = Rng(5)
        v = rng.normal(64)
        np.testing.assert_array_equal(relu(relu(v)), relu(v))


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
        # interleaved with skips and array draws inside and beyond the cached
        # step table must give, word for word, the values derived from one
        # array draw of the whole stream.
        table = densemath._GAMMA_STEPS.size
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
