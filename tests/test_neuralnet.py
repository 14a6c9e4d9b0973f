"""Pipeline forward/backward, loss, Adam, training loop, and checkpoint IO."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from groupcomm.commgraph import prune
from groupcomm.densemath import Rng, relu
from groupcomm.neuralnet import (
    AdamState,
    MlpParams,
    PipelineConfig,
    TrainConfig,
    adam_step,
    clone_params,
    cross_entropy_loss,
    episode_loss_and_grads,
    init_mlp,
    init_pipeline,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    param_arrays,
    pipeline_backward,
    pipeline_forward,
    save_checkpoint,
    train,
    zeros_like_params,
)
from groupcomm.scenarios import generate_dataset, make_world


from helpers import fd_gradcheck, monolithic_forward


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
        out, _ = mlp_forward(p, np.array([5.0, -1.0, 2.0, 0.5]))
        np.testing.assert_array_equal(out, b)

    def test_identity_layer(self):
        p = MlpParams([(np.eye(4), np.zeros(4))])
        x = np.array([0.5, 1.0, 0.0, 2.0])
        out, _ = mlp_forward(p, x)
        np.testing.assert_array_equal(out, x)

    def test_two_layer_composition_oracle(self):
        rng = Rng(13)
        p = init_mlp([5, 7, 3], rng)
        x = rng.normal(5)
        out, _ = mlp_forward(p, x)
        w1, b1 = p.layers[0]
        w2, b2 = p.layers[1]
        expected = w2 @ relu(w1 @ x + b1) + b2
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_mismatch(self):
        p = init_mlp([5, 7, 3], Rng(0))
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros(6))

    def test_backward_outer_product_structure(self):
        # dW of any layer is outer(db, layer_input); a one-hot input isolates
        # a single column, matching the hand derivation.
        rng = Rng(14)
        p = init_mlp([6, 4, 2], rng)
        x = np.zeros(6)
        x[2] = 1.0
        _, cache = mlp_forward(p, x)
        grads, _ = mlp_backward(p, cache, np.array([1.0, -0.5]))
        dw1, db1 = grads[0]
        np.testing.assert_allclose(dw1, np.outer(db1, x), atol=1e-15)
        nonzero_cols = np.nonzero(np.abs(dw1).sum(axis=0))[0]
        np.testing.assert_array_equal(nonzero_cols, [2])


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
        grads = pipeline_backward(res.cache, theta, labels)
        norm = max(float(np.max(np.abs(a))) for a in param_arrays(grads))
        assert norm < 1e-6

    def test_backward_rejects_inference_cache(self):
        rng = Rng(23)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="inference", delta=0.2)
        with pytest.raises(ValueError):
            pipeline_backward(res.cache, theta, labels)

    def test_fixed_rows_skip_attention_gradients(self):
        rng = Rng(24)
        cfg, theta, obs, labels = random_pipeline(rng, n_agents=3)
        rows = np.eye(3)
        res = pipeline_forward(theta, obs, mode="training", fixed_rows=rows)
        grads = pipeline_backward(res.cache, theta, labels)
        assert float(np.max(np.abs(grads.w_g))) == 0.0
        for w, b in grads.theta_q.layers + grads.theta_k.layers:
            assert float(np.max(np.abs(w))) == 0.0
        assert any(float(np.max(np.abs(w))) > 0.0 for w, b in grads.theta_e.layers)


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
        loss, grads = episode_loss_and_grads(theta, episodes, policy, batch_rng)
        parts = [episode_loss_and_grads(theta, [ep], policy, single_rng) for ep in episodes]
        assert loss == pytest.approx(np.mean([l for l, _ in parts]), rel=0.0, abs=1e-12)
        for total, *singles in zip(param_arrays(grads), *(param_arrays(g) for _, g in parts)):
            np.testing.assert_allclose(total, np.mean(singles, axis=0), rtol=0.0, atol=1e-12)
        assert batch_rng.u64(1) == single_rng.u64(1)

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


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        rng = Rng(25)
        cfg, theta, obs, labels = random_pipeline(rng)
        grads = zeros_like_params(theta)
        state = AdamState.for_params(theta)
        new_theta, new_state = adam_step(theta, grads, state)
        for a, b in zip(param_arrays(theta), param_arrays(new_theta)):
            np.testing.assert_array_equal(a, b)

    def test_zero_lr_advances_state_only(self):
        rng = Rng(26)
        cfg, theta, obs, labels = random_pipeline(rng)
        res = pipeline_forward(theta, obs, mode="training")
        grads = pipeline_backward(res.cache, theta, labels)
        state = AdamState.for_params(theta)
        new_theta, new_state = adam_step(theta, grads, state, lr=0.0)
        for a, b in zip(param_arrays(theta), param_arrays(new_theta)):
            np.testing.assert_array_equal(a, b)
        assert new_state.t == 1
        assert any(float(np.max(np.abs(m))) > 0.0 for m in new_state.m)

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
        new_theta, _ = adam_step(theta, grads, state, lr=0.1, eps=1e-8)
        expected_delta = 0.1 * 1.0 / (1.0 + 1e-8)
        for old, new in zip(before, param_arrays(new_theta)):
            np.testing.assert_allclose(old - new, np.full_like(old, expected_delta), atol=1e-15)
        assert expected_delta == pytest.approx(0.1, abs=1e-8)


class TestTrain:
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: TrainConfig(steps=-1), "steps"),
            (lambda: TrainConfig(batch_size=0), "batch_size"),
            (lambda: PipelineConfig(q_dim=0), "q_dim"),
            (lambda: PipelineConfig(hidden=-3), "hidden"),
        ],
    )
    def test_bad_config_names_field(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

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
        config = TrainConfig(steps=1200, eval_every=0, log_every=0)
        theta, _ = train(config, dataset, Rng(6))
        correct = 0
        total = 0
        for ep in dataset.train_episodes:
            res = pipeline_forward(theta, list(ep.observations), mode="inference", delta=1.0)
            correct += int(np.argmax(res.logits[0]) == ep.labels[0])
            total += 1
        assert config.steps <= 2000
        assert correct / total >= 0.99

    def test_fixed_seed_loss_log_bit_reproducible(self):
        world = make_world("srms", rng=Rng(34))
        dataset = generate_dataset(world, 40, seed=34)
        config = TrainConfig(steps=25, eval_every=0)
        _, log_a = train(config, dataset, Rng(9))
        _, log_b = train(config, dataset, Rng(9))
        assert log_a == log_b


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

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = Rng(36)
        cfg, theta, obs, labels = random_pipeline(rng)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, theta, cfg)
        save_checkpoint(p2, theta, cfg)
        assert open(p1, "rb").read() == open(p2, "rb").read()

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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
