"""Matching-matrix math: scores, row softmax, pruning, fusion."""

import math

import numpy as np
import pytest

from groupcomm.commgraph import (
    attention_score,
    build_matching_matrix,
    fuse,
    prune,
)
from groupcomm.densemath import Rng


def bilinear_oracle(mu, kappa, w):
    """Independent double-loop bilinear form."""
    q, k = w.shape
    acc = 0.0
    for a in range(q):
        for b in range(k):
            acc += mu[a] * w[a, b] * kappa[b]
    return acc / math.sqrt(k)


def fuse_oracle(weights, features):
    acc = np.zeros_like(np.asarray(features[0], dtype=float))
    for w, f in zip(weights, features):
        acc = acc + w * np.asarray(f, dtype=float)
    return acc


class TestAttentionScore:
    def test_zero_query(self):
        rng = Rng(0)
        w = rng.normal(8).reshape(2, 4)
        kappa = rng.normal(4)
        assert attention_score(np.zeros(2), kappa, w) == 0.0

    def test_identity_closed_form(self):
        k = 4
        w = np.eye(k)
        e1 = np.zeros(k)
        e1[0] = 1.0
        assert attention_score(e1, e1, w) == pytest.approx(1.0 / math.sqrt(k), abs=1e-15)

    def test_against_double_loop_oracle(self):
        rng = Rng(2)
        for _ in range(20):
            w = rng.normal(64).reshape(4, 16)
            mu = rng.normal(4)
            kappa = rng.normal(16)
            assert attention_score(mu, kappa, w) == pytest.approx(
                bilinear_oracle(mu, kappa, w), abs=1e-12
            )

    def test_bilinearity(self):
        rng = Rng(3)
        for _ in range(100):
            w = rng.normal(12).reshape(3, 4)
            mu = rng.normal(3)
            kappa = rng.normal(4)
            a = float(rng.normal(1)[0])
            scaled = attention_score(a * mu, kappa, w)
            base = attention_score(mu, kappa, w)
            assert scaled == pytest.approx(a * base, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            attention_score(np.zeros(3), np.zeros(4), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            attention_score(np.zeros(2), np.zeros(5), np.zeros((2, 4)))


class TestBuildMatchingMatrix:
    def test_single_agent(self):
        rng = Rng(4)
        w = rng.normal(8).reshape(2, 4)
        m = build_matching_matrix([rng.normal(2)], [rng.normal(4)], w)
        np.testing.assert_array_equal(m, [[1.0]])

    def test_equal_scores_give_uniform_rows(self):
        # Zero queries make every raw score 0 regardless of keys.
        rng = Rng(5)
        w = rng.normal(8).reshape(2, 4)
        queries = [np.zeros(2) for _ in range(4)]
        keys = [rng.normal(4) for _ in range(4)]
        m = build_matching_matrix(queries, keys, w)
        np.testing.assert_allclose(m, np.full((4, 4), 0.25), atol=1e-15)

    def test_two_agent_closed_form(self):
        # Craft scores [1, 0] for row 0 and [0, 1] for row 1: Q=K=1, w=[[1]],
        # queries 1 and sqrt(K)=1 scaling; key_0 = 1, key_1 = 0.
        w = np.array([[1.0]])
        m = build_matching_matrix(
            [np.array([1.0]), np.array([1.0])], [np.array([1.0]), np.array([0.0])], w
        )
        e = math.e
        np.testing.assert_allclose(m[0], [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_matching_matrix([np.zeros(2)], [], np.zeros((2, 3)))

    def test_rows_stochastic_and_open_interval(self):
        rng = Rng(6)
        for _ in range(1000):
            n = 2 + rng.randint(5)
            q, k = 1 + rng.randint(4), 1 + rng.randint(6)
            w = rng.normal(q * k).reshape(q, k)
            queries = [rng.normal(q) for _ in range(n)]
            keys = [rng.normal(k) for _ in range(n)]
            m = build_matching_matrix(queries, keys, w)
            np.testing.assert_allclose(m.sum(axis=1), np.ones(n), atol=1e-9)
            assert np.all(m > 0.0)
            assert np.all(m < 1.0)

    def test_softmax_preserves_row_argmax(self):
        rng = Rng(7)
        for _ in range(200):
            n = 2 + rng.randint(5)
            w = rng.normal(8).reshape(2, 4)
            queries = [rng.normal(2) for _ in range(n)]
            keys = [rng.normal(4) for _ in range(n)]
            raw = np.array(
                [[attention_score(queries[i], keys[j], w) for j in range(n)] for i in range(n)]
            )
            m = build_matching_matrix(queries, keys, w)
            for i in range(n):
                assert int(np.argmax(m[i])) == int(np.argmax(raw[i]))


class TestPrune:
    def test_definition(self):
        row = np.array([[0.5, 0.3, 0.1, 0.06, 0.04]])
        np.testing.assert_array_equal(prune(row, 0.2), [[0.5, 0.3, 0.0, 0.0, 0.0]])

    def test_boundary_entries_kept(self):
        n = 5
        row = np.full((1, n), 1.0 / n)
        np.testing.assert_array_equal(prune(row, 1.0 / n), row)

    def test_delta_zero_noop(self):
        rng = Rng(8)
        m = np.abs(rng.normal(9).reshape(3, 3))
        np.testing.assert_array_equal(prune(m, 0.0), m)

    def test_never_empties_row_at_one_over_n(self):
        rng = Rng(9)
        for _ in range(1000):
            n = 2 + rng.randint(7)
            from groupcomm.densemath import softmax_row

            row = softmax_row(rng.normal(n) * 3.0)
            kept = prune(row.reshape(1, -1), 1.0 / n)
            assert np.count_nonzero(kept) >= 1
            survivors = kept[kept != 0.0]
            assert np.all(survivors >= 1.0 / n)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            prune(np.eye(2), 1.5)


class TestFuse:
    def test_one_hot_is_exact(self):
        rng = Rng(10)
        feats = [rng.normal(6) for _ in range(4)]
        w = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(fuse(w, feats), feats[2])

    def test_average(self):
        f = np.array([2.0, 4.0])
        g = np.array([0.0, 2.0])
        np.testing.assert_array_equal(fuse(np.array([0.5, 0.5]), [f, g]), (f + g) / 2.0)

    def test_against_naive_oracle(self):
        rng = Rng(11)
        for _ in range(100):
            n = 1 + rng.randint(6)
            feats = [rng.normal(8) for _ in range(n)]
            w = rng.normal(n)
            np.testing.assert_allclose(fuse(w, feats), fuse_oracle(w, feats), atol=1e-12)

    def test_zero_weight_never_touches_feature(self):
        poisoned = np.array([np.inf, np.nan, 1e300])
        good = np.array([1.0, 2.0, 3.0])
        out = fuse(np.array([0.0, 2.0]), [poisoned, good])
        np.testing.assert_array_equal(out, 2.0 * good)
        # Absent features are fine too, as long as their weight is zero.
        out = fuse(np.array([0.0, 1.0]), [None, good])
        np.testing.assert_array_equal(out, good)

    def test_pruned_row_equals_masked_row_bitwise(self):
        rng = Rng(12)
        from groupcomm.densemath import softmax_row

        for _ in range(100):
            n = 2 + rng.randint(5)
            feats = [rng.normal(8) for _ in range(n)]
            row = softmax_row(rng.normal(n) * 2.0)
            delta = 1.0 / n
            pruned = prune(row.reshape(1, -1), delta)[0]
            masked = row.copy()
            masked[masked < delta] = 0.0
            np.testing.assert_array_equal(fuse(pruned, feats), fuse(masked, feats))

    def test_feature_length_mismatch(self):
        with pytest.raises(ValueError):
            fuse(np.array([0.5, 0.5]), [np.zeros(3), np.zeros(4)])
