"""Matching-matrix math: scores, row softmax, pruning, fusion."""

import math
import re
import warnings

import numpy as np
import pytest

from groupcomm.commgraph import (
    attention_score,
    attention_scores,
    build_matching_matrix,
    fuse,
    fuse_rows,
    link_mask,
    prune,
    top1_rows,
)
from groupcomm.densemath import Rng, softmax_row


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


class TestAttentionScores:
    @pytest.mark.parametrize("r", [1, 2, 4, 9])
    def test_each_score_equals_its_lone_score_bitwise(self, r):
        rng = Rng(30 + r)
        for _ in range(50):
            q, k = 1 + rng.randint(6), 1 + rng.randint(17)
            w = rng.normal(q * k).reshape(q, k)
            queries = rng.normal(r * q).reshape(r, q) * 3.0
            kappa = rng.normal(k)
            scores = attention_scores(queries, kappa, w)
            assert scores.shape == (r,)
            assert scores.tolist() == [attention_score(mu, kappa, w) for mu in queries]
            assert scores.tolist() == [float(attention_scores(mu, kappa, w)) for mu in queries]
            # The bilinear form itself, to rounding.
            for mu, s in zip(queries, scores):
                assert s == pytest.approx(bilinear_oracle(mu, kappa, w), abs=1e-12)

    def test_leading_shape_kept(self):
        rng = Rng(50)
        w = rng.normal(12).reshape(3, 4)
        queries = rng.normal(2 * 5 * 3).reshape(2, 5, 3)
        kappa = rng.normal(4)
        scores = attention_scores(queries, kappa, w)
        assert scores.shape == (2, 5)
        np.testing.assert_array_equal(scores[1], attention_scores(queries[1], kappa, w))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_one_key_per_leading_index_equals_lone_scores_bitwise(self, n):
        # The score phase: agent a's (N-1)-query inbox against agent a's own
        # key, every inbox in one call.
        rng = Rng(70 + n)
        for _ in range(30):
            q, k = 1 + rng.randint(6), 1 + rng.randint(17)
            w = rng.normal(q * k).reshape(q, k)
            inboxes = rng.normal(n * (n - 1) * q).reshape(n, n - 1, q) * 3.0
            keys = rng.normal(n * k).reshape(n, k)
            scores = attention_scores(inboxes, keys, w)
            assert scores.shape == (n, n - 1)
            for a in range(n):
                assert scores[a].tolist() == attention_scores(inboxes[a], keys[a], w).tolist()
                assert scores[a].tolist() == [attention_score(mu, keys[a], w) for mu in inboxes[a]]
            # One key per query, the deepest leading index.
            paired = attention_scores(inboxes[0], keys[: n - 1], w)
            assert paired.tolist() == [attention_score(mu, kappa, w) for mu, kappa in zip(inboxes[0], keys)]

    def test_shapes_rejected(self):
        w = np.zeros((2, 4))
        for keys in (np.zeros((4, 4)), np.zeros((3, 2, 4)), np.zeros((3, 3)), np.zeros((3, 5, 2, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match=re.escape(f"key shape {keys.shape} does not match w_g shape (2, 4)")):
                attention_scores(np.zeros((3, 5, 2)), keys, w)
        with pytest.raises(ValueError, match="query shape"):
            attention_scores(np.zeros((3, 3)), np.zeros(4), w)
        with pytest.raises(ValueError, match="key shape"):
            attention_scores(np.zeros((3, 2)), np.zeros((2, 4)), w)
        with pytest.raises(ValueError, match="w_g must be 2-D"):
            attention_scores(np.zeros((3, 2)), np.zeros(4), np.zeros(8))
        with pytest.raises(ValueError, match="one query vector"):
            attention_score(np.zeros((3, 2)), np.zeros(4), w)


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


    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_stack_matches_per_pair_scores_bitwise(self, n):
        # Leading batch dimensions: every episode of the stack equals its own
        # call and the row softmax of per-pair attention_score calls.
        rng = Rng(40 + n)
        q, k = 1 + rng.randint(5), 1 + rng.randint(17)
        w = rng.normal(q * k).reshape(q, k)
        queries = rng.normal(3 * n * q).reshape(3, n, q) * 2.0
        keys = rng.normal(3 * n * k).reshape(3, n, k) * 2.0
        m = build_matching_matrix(queries, keys, w)
        assert m.shape == (3, n, n)
        for e in range(3):
            np.testing.assert_array_equal(m[e], build_matching_matrix(list(queries[e]), list(keys[e]), w))
            raw = [[attention_score(queries[e, i], keys[e, j], w) for j in range(n)] for i in range(n)]
            np.testing.assert_array_equal(m[e], [softmax_row(np.array(r)) for r in raw])

    def test_mismatched_shapes_rejected(self):
        w = np.zeros((2, 3))
        with pytest.raises(ValueError, match="do not pair"):
            build_matching_matrix(np.zeros((2, 4, 2)), np.zeros((3, 4, 3)), w)
        with pytest.raises(ValueError, match="do not match w_g"):
            build_matching_matrix(np.zeros((4, 3)), np.zeros((4, 3)), w)
        with pytest.raises(ValueError, match="at least one agent"):
            build_matching_matrix(np.zeros((0, 2)), np.zeros((0, 3)), w)
        with pytest.raises(ValueError, match=re.escape("w_g must be 2-D, got shape (2,)")):
            build_matching_matrix(np.zeros((4, 2)), np.zeros((4, 2)), np.ones(2))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_scores_rejected(self, bad):
        queries = np.ones((3, 2))
        queries[1, 0] = bad
        with pytest.raises(ValueError, match="^attention scores contain non-finite entries$"):
            build_matching_matrix(queries, np.ones((3, 2)), np.ones((2, 2)))


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


class TestTop1Rows:
    @staticmethod
    def oracle(rows):
        """Per agent: the lowest index among its largest off-diagonal weights (itself when alone)."""
        n = len(rows)
        out = np.zeros((n, n))
        for i in range(n):
            peers = [j for j in range(n) if j != i] or [i]
            best = max(rows[i][j] for j in peers)
            out[i, min(j for j in peers if rows[i][j] == best)] = 1.0
        return out

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_stack_equals_per_episode_calls_ties_included(self, n):
        rng = Rng(80 + n)
        # Weights on a coarse grid, so equal top weights are common; one
        # episode ties every weight.
        stack = np.floor(rng.uniform(7 * n * n).reshape(7, n, n) * 3.0) / 3.0
        stack[0] = 0.25
        hard = top1_rows(stack)
        assert hard.shape == (7, n, n)
        for e in range(7):
            np.testing.assert_array_equal(hard[e], top1_rows(stack[e]))
            np.testing.assert_array_equal(hard[e], self.oracle(stack[e].tolist()))
        np.testing.assert_array_equal(top1_rows(stack[None])[0], hard)


class TestLinkMask:
    def test_off_diagonal_nonzeros_of_one_episode_or_a_stack(self):
        rows = np.array([[0.5, 0.0, -0.1], [0.0, 1.0, 0.0], [0.2, 0.3, 0.0]])
        expected = [[False, False, True], [False, False, False], [True, True, False]]
        assert link_mask(rows).tolist() == expected
        assert link_mask(np.stack([rows, np.eye(3)])).tolist() == [expected, [[False] * 3] * 3]
        assert rows[0, 0] == 0.5


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

    def test_weights_of_another_length_than_the_features_rejected(self):
        with pytest.raises(ValueError, match=re.escape("weights shape (3,) does not match 2 features")):
            fuse(np.array([0.5, 0.25, 0.25]), [np.zeros(3), np.zeros(3)])

    def test_missing_payload_under_a_nonzero_weight_rejected(self):
        with pytest.raises(ValueError, match="^feature 1 has nonzero weight but no payload$"):
            fuse(np.array([0.0, 0.5, 0.5]), [np.zeros(3), None, np.zeros(3)])

    def test_every_feature_absent_rejected(self):
        with pytest.raises(ValueError, match="^cannot infer feature length: all features absent$"):
            fuse(np.zeros(2), [None, None])

    def test_rows_match_fuse_of_each_row_bitwise(self):
        rng = Rng(13)
        for n in (1, 2, 5, 9):
            feats = rng.normal(4 * n * 6).reshape(4, n, 6)
            rows = rng.normal(4 * n * n).reshape(4, n, n)
            rows[np.abs(rows) < 0.7] = 0.0  # pruned entries
            fused = fuse_rows(rows, feats)
            for e in range(4):
                for i in range(n):
                    np.testing.assert_array_equal(fused[e, i], fuse(rows[e, i], list(feats[e])))

    def test_rows_never_touch_features_under_zero_weights(self):
        # fuse_rows used to compute w * feature for every weight and drop
        # the zero ones afterwards, so an inf feature under a zero weight
        # raised "invalid value encountered in multiply".
        feats = np.array([[[np.inf, np.nan, 1e300], [1.0, 2.0, 3.0], [np.nan, -np.inf, np.inf]]] * 2)
        rows = np.array(
            [
                [[0.0, 2.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
                [[0.0, 0.25, 0.0], [0.0, 1.0, 0.0], [0.0, 0.75, 0.0]],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = fuse_rows(rows, feats)
            for e in range(2):
                for i in range(3):
                    np.testing.assert_array_equal(fused[e, i], fuse(rows[e, i], list(feats[e])))
        np.testing.assert_array_equal(fused[0], [[2.0, 4.0, 6.0], [0.5, 1.0, 1.5], [0.0, 0.0, 0.0]])
