"""Pipeline forward/backward, loss, Adam, training loop, and checkpoint IO."""

import hashlib
import json
import math
import os
import re
import struct
import tempfile
from dataclasses import FrozenInstanceError, astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupcomm import neuralnet
from groupcomm.commgraph import prune
from groupcomm.densemath import Rng, softmax
from groupcomm.neuralnet import (
    EVAL_BLOCK,
    POLICIES,
    TRAIN_POLICIES,
    AdamState,
    MlpParams,
    PipelineConfig,
    PipelineParams,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    episode_loss_and_grads,
    evaluate_task_accuracy,
    init_pipeline,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    mlp_infer,
    param_layout,
    pipeline_backward,
    pipeline_forward,
    policy_rows,
    save_checkpoint,
    train,
)
from groupcomm.evalcli import evaluate, world_for_run
from groupcomm.scenarios import generate_dataset, make_world


from helpers import episode_set, fd_gradcheck, fresh_backward, init_mlp, monolithic_forward, per_layer_init


def zeros_like_mlp(p):
    return MlpParams(tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers))


def random_pipeline(rng, n_agents=3, d_obs=8, q=2, k=4, f=8, c=3, hidden=10):
    cfg = PipelineConfig(d_obs=d_obs, q_dim=q, k_dim=k, f_dim=f, n_classes=c, hidden=hidden)
    theta = init_pipeline(cfg, rng)
    obs = [rng.normal(d_obs) for _ in range(n_agents)]
    labels = [rng.randint(c) for _ in range(n_agents)]
    return cfg, theta, obs, labels


class TestMlp:
    def test_zero_weights_return_bias(self):
        b = np.array([1.0, -2.0, 3.0])
        p = MlpParams(((np.zeros((3, 4)), b),))
        x = np.array([5.0, -1.0, 2.0, 0.5])
        np.testing.assert_array_equal(mlp_infer(p, x), b)
        np.testing.assert_array_equal(mlp_forward(p, x[None])[0], [b])

    def test_identity_layer(self):
        p = MlpParams(((np.eye(4), np.zeros(4)),))
        x = np.array([0.5, 1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mlp_infer(p, x), x)
        np.testing.assert_array_equal(mlp_forward(p, x[None])[0], [x])

    def test_two_layer_composition_oracle(self):
        rng = Rng(13)
        p = init_mlp([5, 7, 3], rng)
        x = rng.normal(5)
        w1, b1 = p.layers[0]
        w2, b2 = p.layers[1]
        expected = w2 @ np.maximum(w1 @ x + b1, 0.0) + b2
        # Inference equals the per-vector chain bit for bit; training's gemm to rounding.
        np.testing.assert_array_equal(mlp_infer(p, x), expected)
        np.testing.assert_allclose(mlp_forward(p, x[None])[0][0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        p = init_mlp([5, 7, 3], Rng(0))
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros((2, 6)))
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros(5))  # training takes a stack of rows
        with pytest.raises(ValueError):
            mlp_infer(p, np.zeros(6))

    def test_backward_outer_product_structure(self):
        # dW of any layer is outer(db, layer_input); a one-hot input isolates
        # a single column, matching the hand derivation.
        rng = Rng(14)
        p = init_mlp([6, 4, 2], rng)
        x = np.zeros(6)
        x[2] = 1.0
        _, inputs = mlp_forward(p, x[None])
        grads = zeros_like_mlp(p)
        mlp_backward(p, inputs, np.array([[1.0, -0.5]]), grads)
        dw1, db1 = grads.layers[0]
        np.testing.assert_allclose(dw1, np.outer(db1, x), atol=1e-15)
        nonzero_cols = np.nonzero(np.abs(dw1).sum(axis=0))[0]
        np.testing.assert_array_equal(nonzero_cols, [2])

    def test_backward_returns_first_pre_activation_derivative(self):
        # The middle unit's pre-activation is exactly 0, so relu's subgradient
        # stops it; the input derivative is the returned one times W0.
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        p = MlpParams(((w0, np.zeros(3)), (np.ones((1, 3)), np.zeros(1))))
        x = np.array([[1.0, 1.0]])
        _, inputs = mlp_forward(p, x)
        np.testing.assert_array_equal(inputs[1], [[1.0, 1.0, 0.0]])
        grads = zeros_like_mlp(p)
        d_pre = mlp_backward(p, inputs, np.array([[1.0]]), grads)
        np.testing.assert_array_equal(d_pre, [[1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(grads.layers[0][1], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(grads.layers[0][0], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(d_pre @ w0, [[1.0, 1.0]])

    def test_backward_of_one_layer_returns_output_derivative(self):
        p = init_mlp([4, 3], Rng(16))
        x = Rng(17).normal(2 * 4).reshape(2, 4)
        _, inputs = mlp_forward(p, x)
        dout = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        grads = zeros_like_mlp(p)
        np.testing.assert_array_equal(mlp_backward(p, inputs, dout, grads), dout)
        np.testing.assert_array_equal(grads.layers[0][0], dout.T @ x)
        np.testing.assert_array_equal(grads.layers[0][1], dout.sum(axis=0))

    @pytest.mark.parametrize("sizes", [[5, 5], [5, 7, 3]])
    def test_infer_leaves_input_alone_and_returns_fresh_memory(self, sizes):
        rng = Rng(15)
        p = init_mlp(sizes, rng)
        for x in (rng.normal(5), rng.normal(4 * 6 * 5).reshape(4, 6, 5)):
            before = x.copy()
            out = mlp_infer(p, x)
            np.testing.assert_array_equal(x, before)
            assert not np.shares_memory(out, x)
            assert not any(np.shares_memory(out, a) for layer in p.layers for a in layer)


class TestPipelineForward:
    def test_single_agent_fuses_own_feature(self):
        rng = Rng(15)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=1)
        res = pipeline_forward(theta, obs, mode="training")
        np.testing.assert_array_equal(res.m, [[1.0]])
        np.testing.assert_array_equal(res.fused[0], res.features[0])

    def test_inference_delta_zero_matches_training_bitwise(self):
        # Batched training products round differently from the per-vector
        # inference path, so the two agree to 1e-12; pruning at delta = 0
        # keeps every entry of the inference rows bit for bit.
        rng = Rng(16)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=4)
        a = pipeline_forward(theta, obs, mode="training")
        b = pipeline_forward(theta, obs, mode="inference", delta=0.0)
        np.testing.assert_allclose(a.logits, np.stack(b.logits), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(prune(b.m, 0.0), b.m)

    def test_matches_monolithic_oracle(self):
        rng = Rng(17)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=5)
        res = pipeline_forward(theta, obs, mode="training")
        expected_logits, expected_m = monolithic_forward(theta, np.stack(obs))
        np.testing.assert_allclose(np.stack(res.logits), expected_logits, atol=1e-12)
        np.testing.assert_allclose(res.m, expected_m, atol=1e-12)

    def test_inference_matches_monolithic_oracle_with_pruning(self):
        rng = Rng(18)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=5)
        delta = 1.0 / 5.0
        res = pipeline_forward(theta, obs, mode="inference", delta=delta)
        expected_logits, expected_m = monolithic_forward(theta, np.stack(obs), delta=delta)
        np.testing.assert_allclose(np.stack(res.logits), expected_logits, atol=1e-12)
        np.testing.assert_allclose(res.m_bar, expected_m, atol=1e-12)

    def test_permutation_covariance(self):
        rng = Rng(19)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=5)
        perm = [3, 0, 4, 1, 2]
        res = pipeline_forward(theta, obs, mode="training")
        res_p = pipeline_forward(theta, [obs[p] for p in perm], mode="training")
        for new_i, old_i in enumerate(perm):
            np.testing.assert_allclose(res_p.logits[new_i], res.logits[old_i], atol=1e-12)
        loss = cross_entropy_loss(res.logits, labels)
        loss_p = cross_entropy_loss(res_p.logits, [labels[p] for p in perm])
        assert abs(loss - loss_p) < 1e-12

    @pytest.mark.parametrize("lead", [(4,), (3, 4)])
    def test_both_modes_return_one_result_in_the_input_leading_shape(self, lead):
        # One (N, d_obs) episode and one (B, N, d_obs) stack; training adds
        # only what the backward reads, and each head keeps its layers' inputs.
        rng = Rng(20)
        cfg, theta, _, _ = random_pipeline(rng)
        obs = rng.normal(math.prod(lead) * cfg.d_obs).reshape(lead + (cfg.d_obs,))
        train = pipeline_forward(theta, obs, mode="training")
        infer = pipeline_forward(theta, obs, mode="inference", delta=0.0)
        for res in (train, infer):
            assert res.logits.shape == lead + (cfg.n_classes,)
            assert res.m.shape == lead + (lead[-1],)
            assert res.features.shape == res.fused.shape == lead + (cfg.f_dim,)
        np.testing.assert_allclose(train.fused, infer.fused, rtol=0.0, atol=1e-12)
        assert train.m_bar is None and infer.m_bar.shape == infer.m.shape
        assert infer.queries is infer.keys is infer.layer_inputs is None
        assert train.queries.shape == (math.prod(lead[:-1]), lead[-1], cfg.q_dim)
        assert train.keys.shape == (math.prod(lead[:-1]), lead[-1], cfg.k_dim)
        x = obs.reshape(-1, cfg.d_obs)
        heads = (theta.theta_q, theta.theta_k, theta.theta_e, theta.theta_d)
        for head, inputs in zip(heads, train.layer_inputs, strict=True):
            assert len(inputs) == len(head.layers)
            (w0, b0), _ = head.layers
            np.testing.assert_allclose(inputs[1], np.maximum(inputs[0] @ w0.T + b0, 0.0), rtol=0.0, atol=1e-12)
        for inputs in train.layer_inputs[:3]:
            np.testing.assert_array_equal(inputs[0], x)
        decoder_input = np.concatenate([train.features, train.fused], axis=-1).reshape(len(x), -1)
        np.testing.assert_array_equal(train.layer_inputs[3][0], decoder_input)

    def test_bad_mode_rejected(self):
        rng = Rng(20)
        cfg, theta, obs, labels = random_pipeline(rng)
        with pytest.raises(ValueError):
            pipeline_forward(theta, obs, mode="test")

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_randcom_without_rng_names_it(self, mode):
        # randcom draws its peers from rng; a lone agent has no peer to draw.
        cfg, theta, obs, labels = random_pipeline(Rng(21))
        with pytest.raises(ValueError, match="rng is None"):
            pipeline_forward(theta, obs, mode=mode, policy="randcom")
        lone = pipeline_forward(theta, obs[:1], mode=mode, policy="randcom")
        np.testing.assert_array_equal(lone.m, [[1.0]])


class TestPolicyRows:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_equals_one_episode_calls(self, policy, n):
        # randcom draws from equal Rngs, so the stack and the one-episode
        # calls must consume the same words in the same order.
        soft = softmax(Rng(n).normal(4 * n * n).reshape(4, n, n))
        stacked_rng, single_rng = Rng(9), Rng(9)
        stacked, threshold = policy_rows(policy, soft, n, 0.3, stacked_rng, 4)
        singles = [policy_rows(policy, soft[e : e + 1], n, 0.3, single_rng, 1) for e in range(4)]
        assert stacked.shape == (4, n, n) and all(rows.shape == (1, n, n) for rows, _ in singles)
        np.testing.assert_array_equal(stacked, np.concatenate([rows for rows, _ in singles]))
        assert {t for _, t in singles} == {threshold} == {0.3 if policy == "when2com" else 0.0}
        assert stacked_rng.uniform_scalar() == single_rng.uniform_scalar()

    def test_randcom_draws_episode_by_episode_then_agent_by_agent(self):
        n, rng = 4, Rng(11)
        expected = np.zeros((3, n, n))
        for e in range(3):
            for i in range(n):
                j = rng.randint(n - 1)
                expected[e, i, j + (j >= i)] = 1.0
        rows, threshold = policy_rows("randcom", None, n, 0.3, Rng(11), 3)
        np.testing.assert_array_equal(rows, expected)
        assert threshold == 0.0

    def test_unknown_policy_named(self):
        with pytest.raises(ValueError, match="unknown policy 'broadcast'"):
            policy_rows("broadcast", None, 3, 0.3, Rng(0), 2)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = [np.zeros(10)]
        assert cross_entropy_loss(logits, [3]) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_saturated_correct_class(self):
        z = np.zeros(5)
        z[2] = 50.0
        assert cross_entropy_loss([z], [2]) < 1e-9

    def test_two_class_closed_form(self):
        z = np.array([1.0, 0.0])
        expected = -math.log(math.e / (math.e + 1.0))
        assert cross_entropy_loss([z], [0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.313262, abs=1e-6)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            cross_entropy_loss([np.zeros(3)], [3])

    @pytest.mark.parametrize("labels, dtype", [([1.0, 2.0], "float64"), ([True, False], "bool")])
    def test_labels_that_are_not_integers_are_refused_naming_the_dtype(self, labels, dtype):
        with pytest.raises(ValueError, match=f"^labels must be integers, got dtype {dtype}$"):
            cross_entropy_loss(np.zeros((2, 3)), labels)

    def test_labels_of_another_shape_are_refused(self):
        with pytest.raises(ValueError, match=re.escape("logits of shape (2, 3) vs labels of shape (3,)")):
            cross_entropy_loss(np.zeros((2, 3)), [0, 1, 2])


class TestPipelineBackward:
    def test_finite_difference_agreement(self):
        rng = Rng(21)
        for _ in range(3):
            n = 1 + rng.randint(4)
            cfg, theta, obs, labels = random_pipeline(
                rng,
                n_agents=n,
                d_obs=4 + rng.randint(5),
                q=1 + rng.randint(3),
                k=2 + rng.randint(4),
                f=3 + rng.randint(4),
                c=2 + rng.randint(3),
                hidden=5 + rng.randint(5),
            )
            assert fd_gradcheck(theta, obs, labels) < 1e-4

    def test_gradients_vanish_at_saturation(self):
        rng = Rng(22)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=2)
        # Saturate the decoder so every agent predicts its label with huge margin.
        theta.theta_d.layers[-1][1][:] = 0.0
        theta.theta_d.layers[-1][0][:] = 0.0
        # All agents share label 0: bias +60 on class 0 saturates softmax.
        labels = [0 for _ in labels]
        theta.theta_d.layers[-1][1][0] = 60.0
        res = pipeline_forward(theta, obs, mode="training")
        assert cross_entropy_loss(res.logits, labels) < 1e-12
        grads = fresh_backward(res, theta, labels)
        norm = max(float(np.max(np.abs(a))) for a in grads.arrays)
        assert norm < 1e-6

    def test_backward_rejects_inference_cache(self):
        rng = Rng(23)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="inference", delta=0.2)
        with pytest.raises(ValueError):
            pipeline_backward(res, theta, labels, PipelineParams(theta.config))

    @pytest.mark.parametrize("labels, dtype", [([1.0, 2.0, 0.0], "float64"), ([True, False, True], "bool")])
    def test_backward_refuses_labels_that_are_not_integers_before_writing(self, labels, dtype):
        cfg, theta, obs, _ = random_pipeline(Rng(23))
        res = pipeline_forward(theta, obs, mode="training")
        grads = PipelineParams(theta.config)
        grads.flat[:] = 7.0
        with pytest.raises(ValueError, match=f"^labels must be integers, got dtype {dtype}$"):
            pipeline_backward(res, theta, labels, grads)
        assert np.all(grads.flat == 7.0)

    def test_backward_refuses_labels_of_another_count_before_writing(self):
        cfg, theta, obs, labels = random_pipeline(Rng(23))
        res = pipeline_forward(theta, obs, mode="training")
        grads = PipelineParams(theta.config)
        grads.flat[:] = 7.0
        n = len(labels)
        message = f"result holds 1 x {n} agents but got labels of shape ({n + 1},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pipeline_backward(res, theta, list(labels) + [0], grads)
        assert np.all(grads.flat == 7.0)

    def test_backward_rejects_tree_of_another_config(self):
        cfg, theta, obs, labels = random_pipeline(Rng(23))
        res = pipeline_forward(theta, obs, mode="training")
        other = PipelineParams(replace(cfg, hidden=cfg.hidden + 1))
        with pytest.raises(ValueError, match="gradient tree of .* does not match"):
            pipeline_backward(res, theta, labels, other)
        assert not np.any(other.flat)

    def test_fixed_rows_skip_attention_gradients(self):
        rng = Rng(24)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=3)
        res = pipeline_forward(theta, obs, mode="training", policy="nocom")
        np.testing.assert_array_equal(res.m, np.eye(3))
        grads = fresh_backward(res, theta, labels)
        assert float(np.max(np.abs(grads.w_g))) == 0.0
        for w, b in grads.theta_q.layers + grads.theta_k.layers:
            assert float(np.max(np.abs(w))) == 0.0
        assert any(float(np.max(np.abs(w))) > 0.0 for w, b in grads.theta_e.layers)

    @pytest.mark.parametrize("second", ["nocom", "randcom", "catall", "when2com"])
    def test_reused_tree_equals_fresh_tree(self, second):
        # A when2com step fills every gradient; a fixed-row step after it must
        # overwrite the attention heads and w_g, not leave them behind.
        cfg, theta, obs, labels = random_pipeline(Rng(24), n_agents=4)
        tree = PipelineParams(theta.config)
        first = pipeline_forward(theta, obs, mode="training")
        pipeline_backward(first, theta, labels, tree)
        assert np.all(tree.w_g != 0.0)
        res = pipeline_forward(theta, obs, mode="training", policy=second, rng=Rng(5))
        address = tree.flat.__array_interface__["data"][0]
        pipeline_backward(res, theta, labels, tree)
        assert tree.flat.__array_interface__["data"][0] == address
        np.testing.assert_array_equal(tree.flat, fresh_backward(res, theta, labels).flat)


def log_softmax_loss(logits, labels):
    """Mean cross-entropy from a log-softmax of its own, gathered at the labels: the loss's reference."""
    z, y = np.asarray(logits), np.asarray(labels)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    log_p = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return float(-np.mean(np.take_along_axis(log_p, y[..., None], axis=-1)))


def random_episodes(rng, cfg, n_agents, count):
    """``count`` episodes of random observations and labels, drawn episode by episode; none degraded."""
    observations, labels = [], []
    for _ in range(count):
        observations.append([rng.normal(cfg.d_obs) for _ in range(n_agents)])
        labels.append([rng.randint(cfg.n_classes) for _ in range(n_agents)])
    return episode_set(observations, labels, np.zeros((count, n_agents)), np.zeros((count, n_agents, n_agents)))


class TestBatchedTraining:
    CFG = PipelineConfig(d_obs=6, q_dim=2, k_dim=3, f_dim=4, n_classes=3, hidden=7)

    def test_finite_difference_agreement_on_stacked_batch(self):
        rng = Rng(41)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 3)
        obs, labels = episodes.observations, episodes.labels
        assert obs.shape == (3, 3, self.CFG.d_obs)
        assert fd_gradcheck(theta, obs, labels) < 1e-4

    @pytest.mark.parametrize("policy", ["when2com", "nocom", "randcom", "catall"])
    @pytest.mark.parametrize("n_agents", [1, 5, 9])
    def test_batch_gradients_are_mean_of_episode_gradients(self, policy, n_agents):
        rng = Rng(42 + n_agents)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, n_agents, 4)
        batch_rng, single_rng = Rng(7), Rng(7)

        def loss_and_grads(batch, rng):
            grads = PipelineParams(theta.config)
            return episode_loss_and_grads(theta, batch, policy, rng, grads), grads

        loss, grads = loss_and_grads(episodes, batch_rng)
        parts = [loss_and_grads(episodes[e : e + 1], single_rng) for e in range(len(episodes))]
        assert loss == pytest.approx(np.mean([l for l, _ in parts]), rel=0.0, abs=1e-12)
        for total, *singles in zip(grads.arrays, *(g.arrays for _, g in parts)):
            np.testing.assert_allclose(total, np.mean(singles, axis=0), rtol=0.0, atol=1e-12)
        assert batch_rng.u64(1) == single_rng.u64(1)

    def test_rejects_an_empty_batch(self):
        rng = Rng(44)
        theta = init_pipeline(self.CFG, rng)
        grads = PipelineParams(theta.config)
        empty = random_episodes(rng, self.CFG, 3, 2)[:0]
        with pytest.raises(ValueError, match=re.escape("observations of N >= 1 agents, got (0, 3, 6)")):
            episode_loss_and_grads(theta, empty, "when2com", rng, grads)
        assert not np.any(grads.flat)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(policy=st.sampled_from(TRAIN_POLICIES), b=st.integers(1, 9), n=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_step_loss_and_gradients_equal_standalone_loss_and_backward(self, policy, b, n, seed):
        # The step takes its loss from the backward's softmax.  It must equal
        # cross_entropy_loss and a separate log-softmax pass bit for bit, and
        # its tree must equal a standalone backward's, whose logit derivative
        # is densemath.softmax's probabilities minus the one-hot labels.
        rng = Rng(seed)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, n, b)
        grads = PipelineParams(theta.config)
        loss = episode_loss_and_grads(theta, episodes, policy, Rng(seed + 1), grads)
        obs, labels = episodes.observations, episodes.labels
        result = pipeline_forward(theta, obs, mode="training", policy=policy, rng=Rng(seed + 1))
        assert loss == cross_entropy_loss(result.logits, labels) == log_softmax_loss(result.logits, labels)
        standalone = fresh_backward(result, theta, labels)
        for step_array, alone in zip(grads.arrays, standalone.arrays, strict=True):
            assert np.array_equal(step_array, alone)
        dlogits = softmax(result.logits.reshape(b * n, -1))
        dlogits[np.arange(b * n), labels.reshape(-1)] -= 1.0
        dlogits /= b * n
        assert np.array_equal(grads.theta_d.layers[-1][1], np.add.reduce(dlogits, axis=0))

    @pytest.mark.parametrize("n_agents", [1, 5, 9])
    def test_training_matches_per_vector_inference(self, n_agents):
        rng = Rng(43)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, n_agents, 3)
        batch = pipeline_forward(theta, episodes.observations, mode="training")
        for b, ep in enumerate(episodes):
            ref = pipeline_forward(theta, list(ep.observations), mode="inference", delta=0.0)
            np.testing.assert_allclose(batch.logits[b], np.stack(ref.logits), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(batch.m[b], ref.m, rtol=0.0, atol=1e-12)

    def test_randcom_step_draw_order(self):
        # One step draws the batch indices first, then N peers per episode in
        # batch order, as the per-episode loop did.
        class RecordingRng(Rng):
            def __init__(self, seed):
                super().__init__(seed)
                self.bounds = []

            def randint(self, bound):
                self.bounds.append(bound)
                return super().randint(bound)

        world = make_world("srms", rng=Rng(37))
        dataset = generate_dataset(world, 40, seed=37)
        n_train, n = len(dataset.train_idx), world.n_agents
        config = TrainConfig(steps=1, eval_every=0, policy="randcom")
        rng = RecordingRng(3)
        train(config, dataset, rng)
        assert rng.bounds == [n_train] * 8 + [n - 1] * (8 * n)
        reference = Rng(3)
        init_pipeline(config.pipeline, reference)
        for bound in rng.bounds:
            reference.randint(bound)
        assert rng.u64(1) == reference.u64(1)


class TestValidation:
    CFG = TestBatchedTraining.CFG

    @pytest.mark.parametrize("policy", POLICIES)
    def test_blocks_match_single_episode_inference(self, policy):
        # Three blocks, the last one short; randcom draws in episode order.
        rng = Rng(51)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 4, 2 * EVAL_BLOCK + 3)
        single_rng = Rng(8)
        hits = 0
        for ep in episodes:
            res = pipeline_forward(theta, ep.observations, mode="inference", delta=0.25, policy=policy, rng=single_rng)
            hits += sum(int(np.argmax(z) == y) for z, y in zip(res.logits, ep.labels))
        assert evaluate_task_accuracy(theta, episodes, 0.25, policy, Rng(8)) == hits / (4 * len(episodes))
        # An index picks and orders the episodes, block by block, as a gathered set would.
        order = Rng(9).permutation(len(episodes))[: EVAL_BLOCK + 5]
        gathered = evaluate_task_accuracy(theta, episodes[order], 0.25, policy, Rng(8))
        assert evaluate_task_accuracy(theta, episodes, 0.25, policy, Rng(8), order) == gathered

    def test_rejects_an_empty_episode_set(self):
        # It used to report 0.0 accuracy over no predictions.
        rng = Rng(53)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 2)
        with pytest.raises(ValueError, match="evaluate_task_accuracy: episodes is empty"):
            evaluate_task_accuracy(theta, episodes[:0], 0.25)
        with pytest.raises(ValueError, match="evaluate_task_accuracy: episodes is empty"):
            evaluate_task_accuracy(theta, episodes, 0.25, index=[])

    @pytest.mark.parametrize(
        "key, dtype", [([True, False, True], "bool"), (np.array([False, True]), "bool"), ([1.5], "float64")]
    )
    def test_a_mask_or_a_float_index_is_refused_naming_its_dtype(self, key, dtype):
        # np.asarray(key, dtype=np.intp) read [True, False] as rows 1 and 0, and [1.5] as row 1.
        rng = Rng(54)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 4)
        sites = (
            lambda: episodes[key],
            lambda: neuralnet.infer_episodes(theta, episodes, 0.25, index=key),
            lambda: evaluate_task_accuracy(theta, episodes, 0.25, index=key),
        )
        for site in sites:
            with pytest.raises(ValueError, match=f"^row indices must be integers, got dtype {dtype}$"):
                site()

    @pytest.mark.parametrize("key, bad, at", [([True, 3], "True", 0), ((3, np.False_), "False", 1)])
    def test_a_bool_among_integers_is_refused_naming_it_and_its_position(self, key, bad, at):
        # NumPy infers int64 for the whole key, so [True, 3] gathered rows 1 and 3.
        rng = Rng(54)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 4)
        sites = (
            lambda: episodes[key],
            lambda: neuralnet.infer_episodes(theta, episodes, 0.25, index=key),
            lambda: evaluate_task_accuracy(theta, episodes, 0.25, index=key),
        )
        for site in sites:
            with pytest.raises(ValueError, match=f"^row indices must be integers, got the bool {bad} at position {at}$"):
                site()

    def test_a_bool_episode_index_is_refused(self):
        # operator.index reads True as episode 1.
        episodes = random_episodes(Rng(54), self.CFG, 3, 4)
        for key in (True, False):
            with pytest.raises(ValueError, match=f"^episode index must be an integer, got the bool {key}$"):
                episodes[key]

    def test_lists_tuples_ranges_and_integer_arrays_gather_the_same_rows(self):
        rng = Rng(55)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 6)
        rows = [1, 2, 3, 4]
        expected = episodes[rows]
        m_bar, predictions = neuralnet.infer_episodes(theta, episodes, 0.25, index=rows)
        accuracy = evaluate_task_accuracy(theta, episodes, 0.25, index=rows)
        keys = (tuple(rows), range(1, 5), np.array(rows), np.array(rows, np.int32), [np.int64(1), 2, np.uint8(3), 4])
        for key in keys:
            for a, b in zip(episodes[key].arrays, expected.arrays):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            got = neuralnet.infer_episodes(theta, episodes, 0.25, index=key)
            assert got[0].tobytes() == m_bar.tobytes() and got[1].tobytes() == predictions.tobytes()
            assert evaluate_task_accuracy(theta, episodes, 0.25, index=key) == accuracy


class TestGemmValidation:
    # train validates on the gemm products (row_invariant=False); evaluate
    # keeps the row-invariant kernel that its simulator audit compares.
    CFG = TestBatchedTraining.CFG

    @staticmethod
    def theta_and_episodes(source, policy="when2com"):
        """A seeded random model on 2 * EVAL_BLOCK + 7 random episodes, or one trained 80 steps under ``policy``."""
        if source == "random":
            rng, cfg = Rng(61), TestGemmValidation.CFG
            return init_pipeline(cfg, rng), random_episodes(rng, cfg, 4, 2 * EVAL_BLOCK + 7)
        dataset = generate_dataset(world_for_run("srms", None, 62), 400, 62)
        theta, _ = train(TrainConfig(steps=80, eval_every=0, policy=policy), dataset, Rng(62))
        return theta, dataset.episodes

    @pytest.mark.parametrize("source", ["random", "trained"])
    @pytest.mark.parametrize("policy", TRAIN_POLICIES)
    def test_predictions_equal_the_row_kernel(self, policy, source):
        # Index of three blocks, the last one short, out of order; randcom draws across blocks.
        theta, episodes = self.theta_and_episodes(source, policy)
        index = Rng(63).permutation(len(episodes))[: 2 * EVAL_BLOCK + 5]
        delta = 1.0 / episodes.labels.shape[1]
        row = neuralnet.infer_episodes(theta, episodes, delta, policy, Rng(64), index)
        gemm = neuralnet.infer_episodes(theta, episodes, delta, policy, Rng(64), index, row_invariant=False)
        np.testing.assert_array_equal(gemm[1], row[1])
        np.testing.assert_allclose(gemm[0], row[0], rtol=0.0, atol=1e-12)
        accuracy = evaluate_task_accuracy(theta, episodes, delta, policy, Rng(64), index, row_invariant=False)
        assert accuracy == evaluate_task_accuracy(theta, episodes, delta, policy, Rng(64), index)

    @pytest.mark.parametrize("policy", TRAIN_POLICIES)
    def test_delta_zero_equals_the_training_forward_bit_for_bit(self, policy):
        # The gemm path is training's arithmetic: on the same stack, pruning at 0 keeps every soft entry.
        theta, episodes = self.theta_and_episodes("random")
        obs = episodes.observations[:EVAL_BLOCK]
        trained = pipeline_forward(theta, obs, mode="training", policy=policy, rng=Rng(65))
        gemm = pipeline_forward(theta, obs, mode="inference", policy=policy, rng=Rng(65), row_invariant=False)
        for a, b in ((trained.logits, gemm.logits), (trained.m, gemm.m_bar), (trained.fused, gemm.fused)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 127, 128, 254, 320])
    def test_split_gemm_equals_one_product(self, rows):
        # A 64 x 64 layer takes 127 rows per gemm, so 128, 254 and 320 rows split, the last chunk short.
        rng = Rng(70)
        w, h = rng.normal(64 * 64).reshape(64, 64), rng.normal(rows * 64).reshape(rows, 64)
        assert (neuralnet.GEMM_THREAD_WORK - 1) // w.size == 127
        np.testing.assert_allclose(neuralnet._gemm(h, w), h @ w.T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_scores_raise_what_the_row_kernel_raises(self, bad):
        theta, episodes = self.theta_and_episodes("random")
        obs = episodes.observations[:3].copy()
        obs[1, 2, 0] = bad
        message = "^attention scores contain non-finite entries$"
        for row_invariant in (True, False):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
                pipeline_forward(theta, obs, mode="inference", delta=0.25, row_invariant=row_invariant)

    def test_train_validates_without_the_row_kernel_and_evaluate_keeps_it(self, monkeypatch):
        # Counts the row_matmul calls made through neuralnet's binding (every
        # mlp_infer layer); commgraph's scores bind their own.
        calls = []
        row_matmul = neuralnet.row_matmul

        def counted(*args):
            calls.append(args[0].shape)
            return row_matmul(*args)

        monkeypatch.setattr(neuralnet, "row_matmul", counted)
        dataset = generate_dataset(world_for_run("srms", None, 66), 200, 66)
        _, log = train(TrainConfig(steps=4, eval_every=2), dataset, Rng(66))
        assert sum("val_task_acc" in rec for rec in log) == 2
        assert calls == []
        evaluate("when2com", init_pipeline(PipelineConfig(), Rng(66)), dataset.test_episodes, 0.2, 66)
        assert len(calls) > 0


class TestInferenceBoundary:
    # The inference entry points name their episodes before any work.
    @staticmethod
    def record_work(monkeypatch):
        calls = []
        monkeypatch.setattr(neuralnet, "pipeline_forward", lambda *a, **k: calls.append(a))
        return calls

    @pytest.mark.parametrize("site", ["infer_episodes", "evaluate_task_accuracy"])
    def test_a_list_of_episodes_is_refused_naming_episodes(self, monkeypatch, site):
        # It used to raise AttributeError: 'list' object has no attribute 'labels'.
        data = generate_dataset(make_world("srms", rng=Rng(67)), 12, seed=67)
        episodes = [data.episodes[i] for i in range(12)]
        calls, rng = self.record_work(monkeypatch), Rng(67)
        with pytest.raises(ValueError, match="^episodes must be an EpisodeSet, got list$"):
            getattr(neuralnet, site)(init_pipeline(PipelineConfig(), Rng(1)), episodes, 0.2, "randcom", rng)
        assert calls == [] and rng.u64(1) == Rng(67).u64(1)

    @pytest.mark.parametrize("site", ["infer_episodes", "evaluate_task_accuracy"])
    def test_observations_of_another_width_are_named(self, monkeypatch, site):
        # It used to raise "input shape (12, 5, 10) does not match first layer (32)" from mlp_infer.
        episodes = generate_dataset(make_world("srms", obs_dim=10, rng=Rng(68)), 12, seed=68).episodes
        calls = self.record_work(monkeypatch)
        message = "^episodes.observations are 10 wide, but the model's d_obs is 32$"
        with pytest.raises(ValueError, match=message):
            getattr(neuralnet, site)(init_pipeline(PipelineConfig(), Rng(1)), episodes, 0.2)
        assert calls == []

    @pytest.mark.parametrize(
        "world, message",
        [
            (dict(obs_dim=10), "the model expects d_obs=32, but the dataset has obs_dim=10"),
            (dict(n_classes=12), "the model expects n_classes=10, but the dataset has n_classes=12"),
        ],
    )
    def test_train_names_a_world_the_model_does_not_fit_before_drawing(self, monkeypatch, world, message):
        # obs_dim 10 used to raise "input shape (40, 10) is not a stack of rows
        # matching the first layer (32)" at the first step; n_classes 12 to
        # train until a batch drew a label of 10 or 11.
        dataset = generate_dataset(make_world("srms", rng=Rng(69), **world), 50, seed=69)
        drawn = []
        monkeypatch.setattr(neuralnet, "init_pipeline", lambda *args: drawn.append(args))
        rng = Rng(69)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            train(TrainConfig(steps=3), dataset, rng)
        assert drawn == [] and rng.u64(1) == Rng(69).u64(1)


class TestInit:
    @pytest.mark.parametrize(
        "config",
        [
            PipelineConfig(),
            PipelineConfig(d_obs=4, q_dim=2, k_dim=2, f_dim=3, n_classes=2, hidden=3),
            PipelineConfig(d_obs=1, q_dim=1, k_dim=1, f_dim=1, n_classes=1, hidden=1),
            PipelineConfig(d_obs=5, q_dim=3, k_dim=5, f_dim=7, n_classes=3, hidden=9),
        ],
    )
    def test_one_draw_equals_per_layer_draws(self, config):
        # Odd-sized weights take an even span of the one draw, so every
        # weight starts a Box-Muller pair as its own normal() call did.
        rng, reference = Rng(61), Rng(61)
        theta = init_pipeline(config, rng)
        assert np.array_equal(theta.flat, per_layer_init(config, reference).flat)
        assert rng.u64(1) == reference.u64(1)
        assert not np.any(np.concatenate(theta.arrays[1:-1:2]))  # the biases


class TestFlatLayout:
    CFG = TestBatchedTraining.CFG

    @staticmethod
    def assert_views_of_flat(theta):
        arrays = theta.arrays
        assert all(np.shares_memory(a, theta.flat) for a in arrays)
        assert sum(a.size for a in arrays) == theta.flat.size
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), theta.flat)

    @pytest.mark.parametrize("size", [0, 1, 500])
    def test_rejects_flat_of_wrong_length(self, size):
        total = PipelineParams(self.CFG).flat.size
        message = f"PipelineParams.flat must be an ndarray of dtype float64 and shape ({total},), got dtype float64 and "
        message += f"shape ({size},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineParams(self.CFG, np.zeros(size))

    def test_rejects_flat_of_wrong_dtype_or_rank(self):
        total = PipelineParams(self.CFG).flat.size
        with pytest.raises(ValueError, match="got dtype float32"):
            PipelineParams(self.CFG, np.zeros(total, dtype=np.float32))
        with pytest.raises(ValueError, match=rf"shape \(1, {total}\)"):
            PipelineParams(self.CFG, np.zeros((1, total)))
        # A list once raised a bare AttributeError on .dtype.
        with pytest.raises(ValueError, match=rf"^PipelineParams.flat must be an ndarray .* shape \({total},\), got list$"):
            PipelineParams(self.CFG, [0.0] * total)

    def test_every_array_is_a_view_of_flat(self, tmp_path):
        rng = Rng(28)
        theta = init_pipeline(self.CFG, rng)
        self.assert_views_of_flat(theta)
        grads = PipelineParams(theta.config)
        self.assert_views_of_flat(grads)
        assert not np.any(grads.flat)
        res = pipeline_forward(theta, rng.normal(3 * self.CFG.d_obs).reshape(3, -1), mode="training")
        grads = fresh_backward(res, theta, [0, 1, 2])
        self.assert_views_of_flat(grads)
        state = AdamState.for_params(theta)
        adam_step(theta, grads, state)
        self.assert_views_of_flat(theta)
        assert state.m.shape == state.v.shape == theta.flat.shape
        save_checkpoint(str(tmp_path / "m.ckpt"), theta, self.CFG)
        loaded, _ = load_checkpoint(str(tmp_path / "m.ckpt"))
        self.assert_views_of_flat(loaded)
        loaded.w_g[0, 0] += 1.0  # writing a view writes the vector
        assert loaded.flat[-self.CFG.q_dim * self.CFG.k_dim] == theta.w_g[0, 0] + 1.0


    def test_parameters_cannot_come_apart(self, tmp_path):
        # Assigning theta.flat once left the heads and w_g views of the old
        # vector, so a step wrote weights the forward no longer read.
        rng = Rng(32)
        theta = init_pipeline(self.CFG, rng)
        for value, name in ((theta, "flat"), (theta, "w_g"), (theta, "theta_q"), (theta, "arrays"), (theta.theta_d, "layers")):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, getattr(value, name))
        original = theta.flat.copy()
        moved = replace(theta, flat=theta.flat.copy())
        self.assert_views_of_flat(moved)
        assert not any(np.shares_memory(a, theta.flat) for a in moved.arrays)
        obs, labels = rng.normal(3 * self.CFG.d_obs).reshape(3, -1), [0, 1, 2]
        grads, state = PipelineParams(self.CFG), AdamState.for_params(moved)
        for _ in range(3):
            pipeline_backward(pipeline_forward(moved, obs, mode="training"), moved, labels, grads)
            adam_step(moved, grads, state)
        assert not np.array_equal(moved.flat, original) and np.array_equal(theta.flat, original)
        save_checkpoint(str(tmp_path / "m.ckpt"), moved, self.CFG)
        heads = (moved.theta_q, moved.theta_k, moved.theta_e, moved.theta_d)
        read = [a.ravel() for head in heads for layer in head.layers for a in layer] + [moved.w_g.ravel()]
        assert (tmp_path / "m.ckpt").read_bytes()[36:] == np.concatenate(read).astype("<f8").tobytes()
        loaded, _ = load_checkpoint(str(tmp_path / "m.ckpt"))
        for mode in ("training", "inference"):
            ran, reloaded = (pipeline_forward(t, obs, mode=mode).logits for t in (moved, loaded))
            assert ran.tobytes() == reloaded.tobytes()


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        rng = Rng(25)
        cfg, theta, obs, labels = random_pipeline(rng)
        grads = PipelineParams(theta.config)
        state = AdamState.for_params(theta)
        before = theta.flat.copy()
        adam_step(theta, grads, state)
        np.testing.assert_array_equal(theta.flat, before)

    def test_zero_lr_advances_state_only(self):
        rng = Rng(26)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="training")
        grads = fresh_backward(res, theta, labels)
        state = AdamState.for_params(theta)
        before = theta.flat.copy()
        adam_step(theta, grads, state, lr=0.0)
        np.testing.assert_array_equal(theta.flat, before)
        assert state.t == 1
        assert np.any(state.m != 0.0) and np.any(state.v != 0.0)

    def test_first_step_hand_arithmetic(self):
        # With g = 1 everywhere, the bias-corrected first step moves every
        # parameter by lr * 1 / (1 + eps).
        rng = Rng(27)
        cfg, theta, obs, labels = random_pipeline(rng)
        grads = PipelineParams(theta.config)
        for a in grads.arrays:
            a[:] = 1.0
        state = AdamState.for_params(theta)
        before = [a.copy() for a in theta.arrays]
        adam_step(theta, grads, state, lr=0.1, eps=1e-8)
        expected_delta = 0.1 * 1.0 / (1.0 + 1e-8)
        for old, new in zip(before, theta.arrays):
            np.testing.assert_allclose(old - new, np.full_like(old, expected_delta), atol=1e-15)
        assert expected_delta == pytest.approx(0.1, abs=1e-8)

    def test_in_place_steps_match_documented_expression(self):
        # Several steps at non-default rates, against copies updated with the
        # docstring's expressions; the run's vectors never move.
        rng = Rng(29)
        cfg, theta, obs, labels = random_pipeline(rng)
        state = AdamState(m=rng.normal(theta.flat.size), v=np.abs(rng.normal(theta.flat.size)), t=3)
        flat, m, v, t = theta.flat.copy(), state.m.copy(), state.v.copy(), state.t
        vectors = (theta.flat, state.m, state.v)
        lr, beta1, beta2, eps = 0.01, 0.8, 0.99, 1e-6
        grads = PipelineParams(theta.config)
        for step in range(4):
            grads.flat[:] = rng.normal(theta.flat.size) * 10.0**-step
            g = grads.flat.copy()
            adam_step(theta, grads, state, lr, beta1, beta2, eps)
            t += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            flat = flat - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
            np.testing.assert_array_equal(theta.flat, flat)
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(grads.flat, g)
            assert state.t == t
            assert all(a is b for a, b in zip((theta.flat, state.m, state.v), vectors))
        assert all(np.shares_memory(a, theta.flat) for a in theta.arrays)

    @pytest.mark.parametrize(
        "bad, name",
        [
            ("grads", "gradient"),
            ("m", "first moment"),
            ("v", "second moment"),
            ("v32", "second moment"),
            ("glist", "gradient"),
            ("mlist", "first moment"),
        ],
    )
    def test_mismatched_vector_rejected_before_any_write(self, bad, name):
        rng = Rng(30)
        cfg, theta, obs, labels = random_pipeline(rng)
        size = theta.flat.size
        grads = PipelineParams(theta.config)
        grads.flat[:] = rng.normal(size)
        state = AdamState(m=rng.normal(size), v=np.abs(rng.normal(size)), t=3)
        message = f"the {name} vector must be an ndarray of dtype float64 and shape"
        if bad == "grads":
            grads = PipelineParams(replace(cfg, hidden=cfg.hidden + 1))
            grads.flat[:] = 1.0
            message = "^adam_step: gradient tree of .* does not match the parameters' "
        elif bad == "m":
            state.m = rng.normal(size + 1)
        elif bad == "v":
            state.v = np.abs(rng.normal(size + 1))
        elif bad == "v32":
            state.v = state.v.astype(np.float32)
        elif bad == "glist":
            # A list flat once reached the step; a frozen tree cannot take one, so the step never sees it.
            with pytest.raises(FrozenInstanceError, match="cannot assign to field 'flat'"):
                grads.flat = grads.flat.tolist()
            return
        else:
            state.m = state.m.tolist()
        before = [a.copy() for a in (theta.flat, state.m, state.v)]
        with pytest.raises(ValueError, match=message):
            adam_step(theta, grads, state)
        for a, b in zip((theta.flat, state.m, state.v), before):
            np.testing.assert_array_equal(a, b)
        assert state.t == 3

    @pytest.mark.parametrize("name", ["parameter", "first moment", "second moment"])
    def test_read_only_vector_rejected_before_any_write(self, name):
        # It used to raise numpy's "output array is read-only" with t, m and v already written.
        rng = Rng(31)
        cfg, theta, obs, labels = random_pipeline(rng)
        grads = PipelineParams(theta.config)
        grads.flat[:] = 1.0
        state = AdamState.for_params(theta)
        if name == "parameter":
            theta = PipelineParams(cfg, np.frombuffer(theta.flat.tobytes()))
        elif name == "first moment":
            state.m = np.frombuffer(state.m.tobytes())
        else:
            state.v = np.frombuffer(state.v.tobytes())
        before = [a.copy() for a in (theta.flat, state.m, state.v)]
        with pytest.raises(ValueError, match=f"^adam_step: the {name} vector is read-only"):
            adam_step(theta, grads, state)
        for a, b in zip((theta.flat, state.m, state.v), before):
            np.testing.assert_array_equal(a, b)
        assert state.t == 0

    @pytest.mark.parametrize(
        "m, v, message",
        [
            # A list once raised a bare AttributeError on .shape.
            ([0.0], [0.0], "AdamState.m must be an ndarray of dtype float64 and shape (any,), got list"),
            (np.zeros(3), [0.0] * 3, "AdamState.v must be an ndarray of dtype float64 and shape (3,), got list"),
            (
                np.zeros(3, np.float32),
                np.zeros(3),
                "AdamState.m must be an ndarray of dtype float64 and shape (any,), got dtype float32 and shape (3,)",
            ),
            (
                np.zeros((1, 3)),
                np.zeros((1, 3)),
                "AdamState.m must be an ndarray of dtype float64 and shape (any,), got dtype float64 and shape (1, 3)",
            ),
            (
                np.zeros(3),
                np.zeros(4),
                "AdamState.v must be an ndarray of dtype float64 and shape (3,), got dtype float64 and shape (4,)",
            ),
        ],
    )
    def test_state_refuses_what_is_not_a_float64_vector(self, m, v, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdamState(m=m, v=v)


class TestTrain:
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: TrainConfig(steps=-1), "steps"),
            (lambda: TrainConfig(batch_size=0), "batch_size"),
            (lambda: TrainConfig(eval_every=-1), "eval_every"),
            (lambda: TrainConfig(policy="telepathy"), "policy"),
            (lambda: PipelineConfig(q_dim=0), "q_dim"),
            (lambda: PipelineConfig(hidden=-3), "hidden"),
            (lambda: PipelineConfig(d_obs=3.5), "d_obs"),
            (lambda: PipelineConfig(q_dim=True), "q_dim"),
            (lambda: PipelineConfig(k_dim="16"), "k_dim"),
            (lambda: TrainConfig(steps=2.5), "steps"),
            (lambda: TrainConfig(batch_size=2.5), "batch_size"),
            (lambda: TrainConfig(eval_every=True), "eval_every"),
        ],
    )
    def test_bad_config_names_field(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    @pytest.mark.parametrize("policy", ["forced_top1", "fully_connected"])
    def test_a_policy_without_a_training_scheme_is_refused_before_any_work(self, monkeypatch, policy):
        # Both used to train when2com's soft rows under their own name.
        message = (
            f"policy {policy!r} has no training scheme (expected one of {TRAIN_POLICIES}); "
            "train when2com and evaluate under it"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(policy=policy)
        cfg, theta, obs, labels = random_pipeline(Rng(14))
        work = []
        monkeypatch.setattr(neuralnet, "init_pipeline", lambda *args: work.append(args))
        monkeypatch.setattr(neuralnet, "mlp_forward", lambda *args: work.append(args))
        config = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            config.policy = policy  # the constructor's check cannot be got past
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(config, policy=policy)
        assert config.policy == "when2com"
        rng = Rng(13)
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline_forward(theta, obs, mode="training", policy=policy, rng=rng)
        assert work == [] and rng.u64(1) == Rng(13).u64(1)

    def test_numpy_integer_sizes_accepted(self):
        assert PipelineConfig(d_obs=np.int64(8)).d_obs == 8
        assert TrainConfig(steps=np.int32(3)).steps == 3

    @pytest.mark.parametrize("steps, policy", [(1, "when2com"), (9, "when2com"), (9, "nocom")])
    def test_run_builds_two_parameter_trees(self, monkeypatch, steps, policy):
        # One PipelineParams for theta and one for the gradient tree, however
        # many steps and validations the run makes.
        built = []
        original = PipelineParams.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        dataset = generate_dataset(make_world("srms", rng=Rng(36)), 40, seed=36)
        monkeypatch.setattr(PipelineParams, "__post_init__", counting)
        theta, log = train(TrainConfig(steps=steps, eval_every=3, policy=policy), dataset, Rng(11))
        assert len(built) == 2 and built[0] is theta
        assert len([rec for rec in log if "loss" in rec]) == steps

    @staticmethod
    def count_steps(monkeypatch):
        """Record each training step's loss call and Adam update, in order, through the module bindings."""
        calls = []
        loss_step, adam = neuralnet.episode_loss_and_grads, neuralnet.adam_step

        def counted_loss(*args):
            calls.append("loss")
            return loss_step(*args)

        def counted_adam(*args):
            calls.append("adam")
            return adam(*args)

        monkeypatch.setattr(neuralnet, "episode_loss_and_grads", counted_loss)
        monkeypatch.setattr(neuralnet, "adam_step", counted_adam)
        return calls

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_label_stops_the_step_before_adam(self, monkeypatch, bad):
        # A Dataset refuses the label, so a plain namespace carries it to the public step.
        dataset = generate_dataset(make_world("srms", rng=Rng(38)), 40, seed=38)
        labels = dataset.episodes.labels.copy()
        labels[dataset.train_idx[5], 2] = bad
        episodes = replace(dataset.episodes, labels=labels)
        dataset = SimpleNamespace(
            world=dataset.world, episodes=episodes, train_idx=dataset.train_idx, val_idx=dataset.val_idx
        )
        calls = self.count_steps(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"label {bad} out of range [0, 10)")):
            train(TrainConfig(steps=200, eval_every=0), dataset, Rng(12))
        assert calls[-1] == "loss" and calls.count("loss") > 1
        assert calls[:-1] == ["loss", "adam"] * (len(calls) // 2)

    @pytest.mark.parametrize("val_idx", [(32,), (32, 33), (32, 33, 34)])
    def test_a_tuple_val_split_logs_what_a_list_does(self, val_idx):
        # A Dataset holds its splits as tuples, so the list side is a plain namespace.
        dataset = generate_dataset(make_world("srms", rng=Rng(39)), 40, seed=39)
        config = TrainConfig(steps=4, eval_every=2)
        as_list = SimpleNamespace(
            world=dataset.world, episodes=dataset.episodes, train_idx=list(dataset.train_idx), val_idx=list(val_idx)
        )
        logs = [train(config, d, Rng(7))[1] for d in (replace(dataset, val_idx=val_idx), as_list)]
        assert sum("val_task_acc" in rec for rec in logs[0]) == 2
        assert logs[0] == logs[1]

    def test_zero_steps_returns_initial_params(self):
        world = make_world("srms", rng=Rng(31))
        dataset = generate_dataset(world, 20, seed=31)
        config = TrainConfig(steps=0)
        theta, log = train(config, dataset, Rng(5))
        expected = init_pipeline(config.pipeline, Rng(5))
        for a, b in zip(theta.arrays, expected.arrays):
            np.testing.assert_array_equal(a, b)
        assert log == []

    def test_empty_dataset_rejected(self):
        world = make_world("srms", rng=Rng(32))
        dataset = replace(generate_dataset(world, 20, seed=32), train_idx=[])
        with pytest.raises(ValueError):
            train(TrainConfig(steps=1), dataset, Rng(0))

    def test_single_agent_separable_task(self):
        # One clean agent, no communication possible: plain classification
        # must reach 99% training accuracy within 2000 steps.
        world = make_world("srms", n_agents=1, degrade_prob=0.0, rng=Rng(33))
        dataset = generate_dataset(world, 600, seed=33)
        config = TrainConfig(steps=1200, eval_every=0)
        theta, _ = train(config, dataset, Rng(6))
        correct = 0
        total = 0
        for ep in dataset.episodes[dataset.train_idx]:
            res = pipeline_forward(theta, list(ep.observations), mode="inference", delta=1.0)
            correct += int(np.argmax(res.logits[0]) == ep.labels[0])
            total += 1
        assert config.steps <= 2000
        assert correct / total >= 0.99

    @pytest.mark.parametrize("eval_every, validated", [(0, []), (3, [3, 6]), (6, [6]), (7, [])])
    def test_eval_every_sets_validation_steps(self, eval_every, validated):
        dataset = generate_dataset(make_world("srms", rng=Rng(35)), 40, seed=35)
        _, log = train(TrainConfig(steps=6, eval_every=eval_every), dataset, Rng(10))
        assert [rec["step"] for rec in log if "val_task_acc" in rec] == validated
        assert [rec["step"] for rec in log if "loss" in rec] == [1, 2, 3, 4, 5, 6]

    def test_fixed_seed_loss_log_bit_reproducible(self):
        world = make_world("srms", rng=Rng(34))
        dataset = generate_dataset(world, 40, seed=34)
        config = TrainConfig(steps=25, eval_every=0)
        _, log_a = train(config, dataset, Rng(9))
        _, log_b = train(config, dataset, Rng(9))
        assert log_a == log_b


class TestTrainingBytes:
    # SHA-256 of the checkpoint and of the JSONL log of a 60-step run with two
    # validation records, pinned from the per-array layout that preceded the
    # flat parameter vector.  Any change to the training arithmetic, the Rng
    # draw order or the checkpoint format moves them.
    @pytest.mark.parametrize(
        "policy, ckpt_sha, log_sha",
        [
            (
                "when2com",
                "2962c8f925fe5419bddbb01d0036191cbe18aa17204b9c03603b6d6d16ccc8eb",
                "0c17356c2e0e381a059f5f8eddeacdd73ab88d9547632f742149e0cc3251eae3",
            ),
            (
                "randcom",
                "e8b080c0d59252b081af086c3d2dc7e80141a9c695197bbf8993bc62a4ba2570",
                "d24ba33417b4e9c5a3bb64a92423744406ccdd7c9df243c87bcc5d5fd07e44f4",
            ),
        ],
    )
    def test_pinned_checkpoint_and_log(self, tmp_path, policy, ckpt_sha, log_sha):
        config = TrainConfig(steps=60, eval_every=20, policy=policy)
        dataset = generate_dataset(world_for_run("srms", None, 3), 400, 3)
        theta, log = train(config, dataset, Rng(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), theta, config.pipeline)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha
        body = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log).encode()
        assert hashlib.sha256(body).hexdigest() == log_sha

    # The same for a 40-step run whose 200 validation episodes span four
    # EVAL_BLOCK stacks (the last one short), so the digests also cover the
    # block-by-block inference and randcom's draws across blocks.
    @pytest.mark.parametrize(
        "policy, ckpt_sha, log_sha",
        [
            (
                "when2com",
                "c4cdb93fb0f5a2f838c13f54e983be9a06dc48c170d3961daa8fc82e959ac25f",
                "27702508aeb9765edaec0da9c07f851255c9ddae41bcf2a85609387108270452",
            ),
            (
                "randcom",
                "edf55131f5cac8e795ca6fe257ba9c68e7d5fa6adec4476f0449ce7470a1ea48",
                "6c19a383c6118f40b2d0f8c661851313637c88632692dafefb8ba8eecfd62d3e",
            ),
        ],
    )
    def test_pinned_run_with_multi_block_validation(self, tmp_path, policy, ckpt_sha, log_sha):
        config = TrainConfig(steps=40, eval_every=20, policy=policy)
        data = generate_dataset(world_for_run("srms", None, 4), 300, 4)
        data = replace(data, train_idx=list(range(100)), val_idx=list(range(100, 300)), test_idx=[])
        assert len(data.val_idx) > 3 * EVAL_BLOCK
        theta, log = train(config, data, Rng(4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), theta, config.pipeline)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha
        body = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log).encode()
        assert hashlib.sha256(body).hexdigest() == log_sha


# The checkpoint loader's mutation property changes one header field, one
# parameter or a few bytes of this small checkpoint.
_CKPT_CONFIG = PipelineConfig(d_obs=4, q_dim=2, k_dim=2, f_dim=3, n_classes=2, hidden=3)
with tempfile.TemporaryDirectory() as _tmp:
    save_checkpoint(os.path.join(_tmp, "base.ckpt"), init_pipeline(_CKPT_CONFIG, Rng(44)), _CKPT_CONFIG)
    _CKPT_BASE = Path(_tmp, "base.ckpt").read_bytes()
_CKPT_HEADER_SIZE = struct.calcsize("<8sI6I")
_UINT32 = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 12), st.sampled_from([2**16, 2**31, 2**32 - 1]))
# ("header", field, value): field 0 is the magic (value repeated as a byte),
# 1 the version and 2-7 the dimensions; ("param", index, value) overwrites
# one float64 of the body; ("splice", pos, cut, insert) replaces ``cut``
# bytes at ``pos``.
_CKPT_MUTATIONS = st.one_of(
    st.tuples(st.just("header"), st.integers(0, 7), _UINT32),
    st.tuples(
        st.just("param"),
        st.integers(0, (len(_CKPT_BASE) - _CKPT_HEADER_SIZE) // 8 - 1),
        st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308])),
    ),
    st.tuples(st.just("splice"), st.integers(0, len(_CKPT_BASE)), st.integers(0, 16), st.binary(max_size=16)),
)


def _mutated_checkpoint(mutation) -> bytes:
    """The bytes of ``_CKPT_BASE`` with ``mutation`` applied."""
    kind, *args = mutation
    blob = _CKPT_BASE
    if kind == "header":
        field, value = args
        header = list(struct.unpack("<8sI6I", blob[:_CKPT_HEADER_SIZE]))
        header[field] = bytes([value % 256]) * 8 if field == 0 else value
        return struct.pack("<8sI6I", *header) + blob[_CKPT_HEADER_SIZE:]
    if kind == "param":
        index, value = args
        at = _CKPT_HEADER_SIZE + 8 * index
        return blob[:at] + struct.pack("<d", value) + blob[at + 8 :]
    pos, cut, insert = args
    return blob[:pos] + insert + blob[pos + cut :]


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = Rng(35)
        cfg, theta, obs, labels = random_pipeline(rng)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, theta, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for a, b in zip(theta.arrays, loaded.arrays):
            np.testing.assert_array_equal(a, b)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 9)] * 6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_roundtrip_over_random_dimensions(self, dims, seed):
        # The loader derives every tensor shape from the header's dimensions.
        cfg = PipelineConfig(*dims)
        theta = init_pipeline(cfg, Rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(path, theta, cfg)
            loaded, loaded_cfg = load_checkpoint(path)
            body = Path(path).read_bytes()[36:]
        assert loaded_cfg == cfg
        for a, b in zip(theta.arrays, loaded.arrays, strict=True):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)
        assert body == theta.flat.astype("<f8").tobytes()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(mutation=_CKPT_MUTATIONS)
    @example(mutation=("header", 0, 0))
    @example(mutation=("header", 1, 2))
    @example(mutation=("header", 7, 2**32 - 1))  # a header implying about 10**19 parameters
    @example(mutation=("header", 2, 0))
    @example(mutation=("param", 0, math.nan))
    @example(mutation=("splice", 0, 0, b"x"))
    @example(mutation=("splice", len(_CKPT_BASE) - 1, 1, b""))
    def test_any_mutation_loads_or_names_path(self, mutation):
        # Whatever one header field, parameter or few bytes become,
        # load_checkpoint either loads finite parameters or raises ValueError
        # naming the file.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            with open(path, "wb") as fh:
                fh.write(_mutated_checkpoint(mutation))
            try:
                theta, config = load_checkpoint(path)
            except ValueError as err:
                assert str(err).startswith(f"checkpoint {path}"), str(err)
            else:
                assert theta.config == config and np.isfinite(theta.flat).all()

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = Rng(36)
        cfg, theta, obs, labels = random_pipeline(rng)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, theta, cfg)
        save_checkpoint(p2, theta, cfg)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("keep", [20, -8])
    def test_truncated_checkpoint_names_path_and_sizes(self, tmp_path, keep):
        rng = Rng(38)
        cfg, theta, obs, labels = random_pipeline(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), theta, cfg)
        full = path.read_bytes()
        cut = full[:keep]
        path.write_bytes(cut)
        expected = 36 if keep > 0 else len(full)
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.*{len(cut)} bytes.*{expected}"):
            load_checkpoint(str(path))

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # A header claiming 2**30 hidden units implies about 1.4e11 parameters;
        # the size check must fire before any array of that size is built.
        cfg = PipelineConfig(hidden=2**30)
        path = tmp_path / "big.ckpt"
        save_checkpoint(str(path), init_pipeline(PipelineConfig(), Rng(39)), PipelineConfig())
        path.write_bytes(struct.pack("<8sI6I", b"GRPCOMM1", 1, *astuple(cfg)) + path.read_bytes()[36:])
        expected = 36 + 8 * sum(math.prod(shape) for _, shape in param_layout(cfg))
        with pytest.raises(ValueError, match=rf"holds {path.stat().st_size} bytes but .* implies {expected}"):
            load_checkpoint(str(path))

    def test_save_rejects_config_that_does_not_describe_params(self, tmp_path):
        # Swapping Q and K keeps the parameter count, so the file would load
        # with every tensor split at the wrong place.
        theta = init_pipeline(PipelineConfig(), Rng(40))
        path = tmp_path / "swap.ckpt"
        with pytest.raises(ValueError, match=r"q_dim=16, k_dim=4.*does not describe.*q_dim=4, k_dim=16"):
            save_checkpoint(str(path), theta, PipelineConfig(q_dim=16, k_dim=4))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match=rf"checkpoint {re.escape(str(path))}: bad checkpoint magic b'NOTMAGIC'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (8, 2, "unsupported checkpoint version 2"),
            (16, 0, "PipelineConfig.q_dim must be an integer >= 1, got 0"),  # the second dimension
        ],
    )
    def test_bad_header_field_names_path(self, tmp_path, offset, value, message):
        path = tmp_path / "odd.ckpt"
        save_checkpoint(str(path), init_pipeline(PipelineConfig(), Rng(41)), PipelineConfig())
        blob = path.read_bytes()
        path.write_bytes(blob[:offset] + struct.pack("<I", value) + blob[offset + 4 :])
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {message}")):
            load_checkpoint(str(path))

    # (position of the array in checkpoint order, flat index within it, the
    # message naming it); the index into theta.flat is derived from these.
    NON_FINITE_SITES = [
        (0, 0, "theta_q layer 0 weight holds {} at flat index 0"),
        (2, 5, "theta_q layer 1 weight holds {} at flat index 5"),
        (7, 3, "theta_k layer 1 bias holds {} at flat index 3"),
        # The decoder's first weight: a NaN there once evaluated to a
        # plausible 0.12 accuracy instead of failing.
        (12, 0, "theta_d layer 0 weight holds {} at flat index 0"),
        (16, 63, "w_g holds {} at flat index 63"),
    ]

    @staticmethod
    def flat_index(array, index):
        return sum(math.prod(shape) for _, shape in param_layout(PipelineConfig())[:array]) + index

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("array, index, where", NON_FINITE_SITES)
    def test_load_rejects_non_finite_parameter(self, tmp_path, bad, array, index, where):
        theta = init_pipeline(PipelineConfig(), Rng(42))
        path = tmp_path / "diverged.ckpt"
        save_checkpoint(str(path), theta, PipelineConfig())
        theta.flat[self.flat_index(array, index)] = bad
        path.write_bytes(path.read_bytes()[:36] + theta.flat.astype("<f8").tobytes())
        message = f"checkpoint {path}: " + where.format(bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("array, index, where", NON_FINITE_SITES)
    def test_save_refuses_non_finite_parameter(self, tmp_path, array, index, where):
        theta = init_pipeline(PipelineConfig(), Rng(43))
        theta.flat[self.flat_index(array, index)] = float("nan")
        path = tmp_path / "diverged.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"cannot save checkpoint {path}: " + where.format("nan"))):
            save_checkpoint(str(path), theta, PipelineConfig())
        assert not path.exists()
