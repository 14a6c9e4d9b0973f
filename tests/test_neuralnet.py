"""Pipeline forward/backward, loss, Adam, training loop, and checkpoint IO."""

import hashlib
import json
import math
import os
import re
import struct
import tempfile
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupcomm.commgraph import prune
from groupcomm.densemath import Rng, relu
from groupcomm.neuralnet import (
    EVAL_BLOCK,
    POLICIES,
    AdamState,
    MlpParams,
    PipelineConfig,
    PipelineParams,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    episode_loss_and_grads,
    evaluate_task_accuracy,
    init_mlp,
    init_pipeline,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    mlp_infer,
    param_arrays,
    param_shapes,
    pipeline_backward,
    pipeline_forward,
    save_checkpoint,
    train,
    zeros_like_params,
)
from groupcomm.evalcli import world_for_run
from groupcomm.scenarios import generate_dataset, make_world


from helpers import fd_gradcheck, fresh_backward, monolithic_forward


def zeros_like_mlp(p):
    return MlpParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers])


def random_pipeline(rng, n_agents=3, d_obs=8, q=2, k=4, f=8, c=3, hidden=10):
    cfg = PipelineConfig(d_obs=d_obs, q_dim=q, k_dim=k, f_dim=f, n_classes=c, hidden=hidden)
    theta = init_pipeline(cfg, rng)
    obs = [rng.normal(d_obs) for _ in range(n_agents)]
    labels = [rng.randint(c) for _ in range(n_agents)]
    return cfg, theta, obs, labels


class TestMlp:
    def test_zero_weights_return_bias(self):
        b = np.array([1.0, -2.0, 3.0])
        p = MlpParams([(np.zeros((3, 4)), b)])
        x = np.array([5.0, -1.0, 2.0, 0.5])
        np.testing.assert_array_equal(mlp_infer(p, x), b)
        np.testing.assert_array_equal(mlp_forward(p, x[None])[0], [b])

    def test_identity_layer(self):
        p = MlpParams([(np.eye(4), np.zeros(4))])
        x = np.array([0.5, 1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mlp_infer(p, x), x)
        np.testing.assert_array_equal(mlp_forward(p, x[None])[0], [x])

    def test_two_layer_composition_oracle(self):
        rng = Rng(13)
        p = init_mlp([5, 7, 3], rng)
        x = rng.normal(5)
        w1, b1 = p.layers[0]
        w2, b2 = p.layers[1]
        expected = w2 @ relu(w1 @ x + b1) + b2
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
        _, cache = mlp_forward(p, x[None])
        grads = zeros_like_mlp(p)
        mlp_backward(p, cache, np.array([[1.0, -0.5]]), grads)
        dw1, db1 = grads.layers[0]
        np.testing.assert_allclose(dw1, np.outer(db1, x), atol=1e-15)
        nonzero_cols = np.nonzero(np.abs(dw1).sum(axis=0))[0]
        np.testing.assert_array_equal(nonzero_cols, [2])

    def test_backward_returns_first_pre_activation_derivative(self):
        # The middle unit's pre-activation is exactly 0, so relu's subgradient
        # stops it; the input derivative is the returned one times W0.
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        p = MlpParams([(w0, np.zeros(3)), (np.ones((1, 3)), np.zeros(1))])
        x = np.array([[1.0, 1.0]])
        _, cache = mlp_forward(p, x)
        np.testing.assert_array_equal(cache.pre[0], [[1.0, 1.0, 0.0]])
        grads = zeros_like_mlp(p)
        d_pre = mlp_backward(p, cache, np.array([[1.0]]), grads)
        np.testing.assert_array_equal(d_pre, [[1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(grads.layers[0][1], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(grads.layers[0][0], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(d_pre @ w0, [[1.0, 1.0]])

    def test_backward_of_one_layer_returns_output_derivative(self):
        p = init_mlp([4, 3], Rng(16))
        x = Rng(17).normal(2 * 4).reshape(2, 4)
        _, cache = mlp_forward(p, x)
        dout = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        grads = zeros_like_mlp(p)
        np.testing.assert_array_equal(mlp_backward(p, cache, dout, grads), dout)
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
        np.testing.assert_array_equal(res.cache.fused[0], res.cache.features[0])

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
        grads = fresh_backward(res.cache, theta, labels)
        norm = max(float(np.max(np.abs(a))) for a in param_arrays(grads))
        assert norm < 1e-6

    def test_backward_rejects_inference_cache(self):
        rng = Rng(23)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="inference", delta=0.2)
        with pytest.raises(ValueError):
            pipeline_backward(res.cache, theta, labels, zeros_like_params(theta))

    def test_backward_rejects_tree_of_another_config(self):
        cfg, theta, obs, labels = random_pipeline(Rng(23))
        res = pipeline_forward(theta, obs, mode="training")
        other = PipelineParams(replace(cfg, hidden=cfg.hidden + 1))
        with pytest.raises(ValueError, match="gradient tree of .* does not match"):
            pipeline_backward(res.cache, theta, labels, other)
        assert not np.any(other.flat)

    def test_fixed_rows_skip_attention_gradients(self):
        rng = Rng(24)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=3)
        res = pipeline_forward(theta, obs, mode="training", policy="nocom")
        np.testing.assert_array_equal(res.m, np.eye(3))
        grads = fresh_backward(res.cache, theta, labels)
        assert float(np.max(np.abs(grads.w_g))) == 0.0
        for w, b in grads.theta_q.layers + grads.theta_k.layers:
            assert float(np.max(np.abs(w))) == 0.0
        assert any(float(np.max(np.abs(w))) > 0.0 for w, b in grads.theta_e.layers)

    @pytest.mark.parametrize("second", ["nocom", "randcom", "catall", "when2com"])
    def test_reused_tree_equals_fresh_tree(self, second):
        # A when2com step fills every gradient; a fixed-row step after it must
        # overwrite the attention heads and w_g, not leave them behind.
        cfg, theta, obs, labels = random_pipeline(Rng(24), n_agents=4)
        tree = zeros_like_params(theta)
        first = pipeline_forward(theta, obs, mode="training")
        pipeline_backward(first.cache, theta, labels, tree)
        assert np.all(tree.w_g != 0.0)
        res = pipeline_forward(theta, obs, mode="training", policy=second, rng=Rng(5))
        address = tree.flat.__array_interface__["data"][0]
        pipeline_backward(res.cache, theta, labels, tree)
        assert tree.flat.__array_interface__["data"][0] == address
        np.testing.assert_array_equal(tree.flat, fresh_backward(res.cache, theta, labels).flat)


def random_episodes(rng, cfg, n_agents, count):
    return [
        SimpleNamespace(
            observations=np.stack([rng.normal(cfg.d_obs) for _ in range(n_agents)]),
            labels=[rng.randint(cfg.n_classes) for _ in range(n_agents)],
        )
        for _ in range(count)
    ]


class TestBatchedTraining:
    CFG = PipelineConfig(d_obs=6, q_dim=2, k_dim=3, f_dim=4, n_classes=3, hidden=7)

    def test_finite_difference_agreement_on_stacked_batch(self):
        rng = Rng(41)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 3)
        obs = np.stack([ep.observations for ep in episodes])
        labels = np.array([ep.labels for ep in episodes])
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
            grads = zeros_like_params(theta)
            return episode_loss_and_grads(theta, batch, policy, rng, grads), grads

        loss, grads = loss_and_grads(episodes, batch_rng)
        parts = [loss_and_grads([ep], single_rng) for ep in episodes]
        assert loss == pytest.approx(np.mean([l for l, _ in parts]), rel=0.0, abs=1e-12)
        for total, *singles in zip(param_arrays(grads), *(param_arrays(g) for _, g in parts)):
            np.testing.assert_allclose(total, np.mean(singles, axis=0), rtol=0.0, atol=1e-12)
        assert batch_rng.u64(1) == single_rng.u64(1)

    def test_rejects_empty_and_mixed_batches(self):
        rng = Rng(44)
        theta = init_pipeline(self.CFG, rng)
        grads = zeros_like_params(theta)
        with pytest.raises(ValueError, match="need at least one episode"):
            episode_loss_and_grads(theta, [], "when2com", rng, grads)
        mixed = random_episodes(rng, self.CFG, 3, 2) + random_episodes(rng, self.CFG, 4, 1)
        with pytest.raises(ValueError, match="episode 2 has 4 agents, but episode 0 has 3"):
            episode_loss_and_grads(theta, mixed, "when2com", rng, grads)
        assert not np.any(grads.flat)

    @pytest.mark.parametrize("n_agents", [1, 5, 9])
    def test_training_matches_per_vector_inference(self, n_agents):
        rng = Rng(43)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, n_agents, 3)
        batch = pipeline_forward(theta, np.stack([ep.observations for ep in episodes]), mode="training")
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
        n_train, n = len(dataset.train_episodes), world.n_agents
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

    def test_rejects_mixed_agent_counts(self):
        rng = Rng(52)
        theta = init_pipeline(self.CFG, rng)
        episodes = random_episodes(rng, self.CFG, 3, 5) + random_episodes(rng, self.CFG, 4, 1)
        with pytest.raises(ValueError, match="episode 5 has 4 agents, but episode 0 has 3"):
            evaluate_task_accuracy(theta, episodes, 0.25)

    def test_rejects_empty_episode_list(self):
        # It used to report 0.0 accuracy over no predictions.
        theta = init_pipeline(self.CFG, Rng(53))
        with pytest.raises(ValueError, match="evaluate_task_accuracy: episodes is empty"):
            evaluate_task_accuracy(theta, [], 0.25)


class TestFlatLayout:
    CFG = TestBatchedTraining.CFG

    @staticmethod
    def assert_views_of_flat(theta):
        arrays = param_arrays(theta)
        assert all(np.shares_memory(a, theta.flat) for a in arrays)
        assert sum(a.size for a in arrays) == theta.flat.size
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), theta.flat)

    @pytest.mark.parametrize("size", [0, 1, 500])
    def test_rejects_flat_of_wrong_length(self, size):
        total = PipelineParams(self.CFG).flat.size
        with pytest.raises(ValueError, match=rf"vector of {total} values, got float64 of shape \({size},\)"):
            PipelineParams(self.CFG, np.zeros(size))

    def test_rejects_flat_of_wrong_dtype_or_rank(self):
        total = PipelineParams(self.CFG).flat.size
        with pytest.raises(ValueError, match="got float32"):
            PipelineParams(self.CFG, np.zeros(total, dtype=np.float32))
        with pytest.raises(ValueError, match=rf"shape \(1, {total}\)"):
            PipelineParams(self.CFG, np.zeros((1, total)))

    def test_every_array_is_a_view_of_flat(self, tmp_path):
        rng = Rng(28)
        theta = init_pipeline(self.CFG, rng)
        self.assert_views_of_flat(theta)
        grads = zeros_like_params(theta)
        self.assert_views_of_flat(grads)
        assert not np.any(grads.flat)
        res = pipeline_forward(theta, rng.normal(3 * self.CFG.d_obs).reshape(3, -1), mode="training")
        grads = fresh_backward(res.cache, theta, [0, 1, 2])
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


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        rng = Rng(25)
        cfg, theta, obs, labels = random_pipeline(rng)
        grads = zeros_like_params(theta)
        state = AdamState.for_params(theta)
        before = theta.flat.copy()
        adam_step(theta, grads, state)
        np.testing.assert_array_equal(theta.flat, before)

    def test_zero_lr_advances_state_only(self):
        rng = Rng(26)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="training")
        grads = fresh_backward(res.cache, theta, labels)
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
        grads = zeros_like_params(theta)
        for a in param_arrays(grads):
            a[:] = 1.0
        state = AdamState.for_params(theta)
        before = [a.copy() for a in param_arrays(theta)]
        adam_step(theta, grads, state, lr=0.1, eps=1e-8)
        expected_delta = 0.1 * 1.0 / (1.0 + 1e-8)
        for old, new in zip(before, param_arrays(theta)):
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
        grads = zeros_like_params(theta)
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
        assert all(np.shares_memory(a, theta.flat) for a in param_arrays(theta))

    @pytest.mark.parametrize(
        "bad, name",
        [("grads", "gradient"), ("m", "first moment"), ("v", "second moment"), ("v32", "second moment")],
    )
    def test_mismatched_vector_rejected_before_any_write(self, bad, name):
        rng = Rng(30)
        cfg, theta, obs, labels = random_pipeline(rng)
        size = theta.flat.size
        grads = zeros_like_params(theta)
        grads.flat[:] = rng.normal(size)
        state = AdamState(m=rng.normal(size), v=np.abs(rng.normal(size)), t=3)
        if bad == "grads":
            grads = PipelineParams(replace(cfg, hidden=cfg.hidden + 1))
            grads.flat[:] = 1.0
        elif bad == "m":
            state.m = rng.normal(size + 1)
        elif bad == "v":
            state.v = np.abs(rng.normal(size + 1))
        else:
            state.v = state.v.astype(np.float32)
        before = [a.copy() for a in (theta.flat, state.m, state.v)]
        with pytest.raises(ValueError, match=f"the {name} vector must be float64 of shape"):
            adam_step(theta, grads, state)
        for a, b in zip((theta.flat, state.m, state.v), before):
            np.testing.assert_array_equal(a, b)
        assert state.t == 3


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

    def test_zero_steps_returns_initial_params(self):
        world = make_world("srms", rng=Rng(31))
        dataset = generate_dataset(world, 20, seed=31)
        config = TrainConfig(steps=0)
        theta, log = train(config, dataset, Rng(5))
        expected = init_pipeline(config.pipeline, Rng(5))
        for a, b in zip(param_arrays(theta), param_arrays(expected)):
            np.testing.assert_array_equal(a, b)
        assert log == []

    def test_empty_dataset_rejected(self):
        world = make_world("srms", rng=Rng(32))
        dataset = generate_dataset(world, 20, seed=32)
        dataset.train_idx = []
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
        for ep in dataset.train_episodes:
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
        for a, b in zip(param_arrays(theta), param_arrays(loaded)):
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
        for a, b in zip(param_arrays(theta), param_arrays(loaded), strict=True):
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
        expected = 36 + 8 * sum(math.prod(s) for s in param_shapes(cfg))
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
        return sum(math.prod(s) for s in param_shapes(PipelineConfig())[:array]) + index

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
