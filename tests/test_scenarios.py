"""Scenario generators: constructions, ground-truth invariants, statistics."""

import hashlib
import json

import numpy as np
import pytest

from groupcomm.densemath import Rng
from groupcomm.scenarios import (
    CASES,
    Episode,
    generate_dataset,
    generate_episode,
    load_dataset,
    make_world,
    save_dataset,
)


def linear_probe_accuracy(x, y, n_classes, ridge=1e-3):
    """Closed-form ridge regression to one-hot targets; argmax readout."""
    x = np.asarray(x)
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = 1.0
    w = np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ onehot)
    return float(np.mean(np.argmax(x @ w, axis=1) == np.asarray(y)))


class TestMakeWorld:
    def test_prototypes_unit_norm_and_separated(self):
        world = make_world("srms", rng=Rng(1))
        norms = np.linalg.norm(world.prototypes, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        c = world.n_classes
        for a in range(c):
            for b in range(a + 1, c):
                assert np.linalg.norm(world.prototypes[a] - world.prototypes[b]) > 0.1

    def test_prototypes_live_in_content_half(self):
        world = make_world("srms", rng=Rng(2))
        np.testing.assert_array_equal(world.prototypes[:, : world.scene_dim], 0.0)

    def test_scene_codes_orthonormal(self):
        world = make_world("srms", rng=Rng(3))
        gram = world.scene_codes @ world.scene_codes.T
        np.testing.assert_allclose(gram, np.eye(world.n_scenes), atol=1e-9)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(case="nosuch"), r"world case 'nosuch' is not one of"),
            (dict(case="triplet", n_agents=7), r"world n_agents must be a multiple of 3 for case 'triplet', got 7"),
            (dict(case="srms", n_agents=0), r"world n_agents must be a positive integer, got 0"),
            (dict(case="srms", obs_dim=9), r"world obs_dim must be an even integer >= 4, got 9"),
            (dict(case="srms", degrade_prob=1.5), r"world degrade_prob must lie in \[0, 1\], got 1\.5"),
            (dict(case="srms", overlap_frac=-0.1), r"world overlap_frac must lie in \[0, 1\], got -0\.1"),
            (dict(case="srms", noise_sigma=0.0), r"world noise_sigma must be positive and finite, got 0\.0"),
        ],
    )
    def test_invalid_parameter_names_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_world(**kwargs)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_world("nosuch")
        with pytest.raises(ValueError):
            make_world("triplet", n_agents=7)
        with pytest.raises(ValueError):
            make_world("srms", degrade_prob=1.5)
        with pytest.raises(ValueError):
            make_world("srms", n_agents=40)  # more agents than scene codes


class TestGenerateEpisode:
    def test_degrade_prob_zero(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(4))
        rng = Rng(5)
        for _ in range(50):
            ep = generate_episode(world, rng)
            assert not any(ep.needs_comm)
            assert all(len(s) == 0 for s in ep.gt_support)

    def test_srms_forced_degradation(self):
        world = make_world("srms", degrade_prob=1.0, rng=Rng(6))
        rng = Rng(7)
        for _ in range(50):
            ep = generate_episode(world, rng)
            assert sum(ep.degraded) == 1
            d = ep.degraded.index(True)
            assert len(ep.gt_support[d]) == 1
            (s,) = ep.gt_support[d]
            assert s != d
            assert not ep.degraded[s]
            assert ep.labels[s] == ep.labels[d]

    def test_srms_degraded_fraction_statistics(self):
        world = make_world("srms", degrade_prob=0.5, rng=Rng(8))
        rng = Rng(9)
        degraded_frac = np.mean(
            [any(generate_episode(world, rng).degraded) for _ in range(10000)]
        )
        assert abs(degraded_frac - 0.5) < 0.02

    def test_mrms_distinct_supporters(self):
        world = make_world("mrms", degrade_prob=0.9, rng=Rng(10))
        rng = Rng(11)
        for _ in range(200):
            ep = generate_episode(world, rng)
            assert 2 * sum(ep.degraded) <= world.n_agents
            supporters = [list(ep.gt_support[i])[0] for i in range(world.n_agents) if ep.degraded[i]]
            assert len(supporters) == len(set(supporters))
            for s in supporters:
                assert not ep.degraded[s]

    def test_mrmps_gt_support_may_be_empty(self):
        world = make_world("mrmps", degrade_prob=0.5, rng=Rng(12))
        rng = Rng(13)
        any_empty = False
        for _ in range(300):
            ep = generate_episode(world, rng)
            for i in range(world.n_agents):
                if ep.needs_comm[i] and not ep.gt_support[i]:
                    any_empty = True
        assert any_empty

    def test_triplet_structure(self):
        world = make_world("triplet", degrade_prob=1.0, rng=Rng(14))
        rng = Rng(15)
        for _ in range(100):
            ep = generate_episode(world, rng)
            assert sum(ep.degraded) == world.n_agents // 3
            for i in range(world.n_agents):
                if ep.degraded[i]:
                    assert len(ep.gt_support[i]) == 2
                    for peer in ep.gt_support[i]:
                        assert ep.labels[peer] == ep.labels[i]
                        assert not ep.degraded[peer]

    def test_invariant_chain_over_random_episodes(self):
        # 10000 episodes total; gt_support may be empty only for mrmps.
        rng = Rng(16)
        for case in ("srms", "mrms", "triplet", "mrmps"):
            world = make_world(case, degrade_prob=0.6, rng=Rng(17))
            for _ in range(2500):
                ep = generate_episode(world, rng)
                for i in range(world.n_agents):
                    if ep.degraded[i]:
                        assert ep.needs_comm[i]
                        if case != "mrmps":
                            assert len(ep.gt_support[i]) > 0
                    else:
                        assert not ep.needs_comm[i]
                        assert len(ep.gt_support[i]) == 0
                    assert 0 <= ep.labels[i] < world.n_classes

    def test_clean_observation_nearest_prototype(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(18))
        rng = Rng(19)
        hits = 0
        total = 0
        for _ in range(500):
            ep = generate_episode(world, rng)
            for i in range(world.n_agents):
                dists = np.linalg.norm(world.prototypes - ep.observations[i], axis=1)
                hits += int(np.argmin(dists) == ep.labels[i])
                total += 1
        assert hits / total > 0.99

    def test_degraded_observation_carries_no_label_information(self):
        # A ridge probe trained on degraded observations only must sit at
        # chance: the content half is pure noise and the scene half is
        # label-independent.
        world = make_world("srms", degrade_prob=1.0, rng=Rng(20))
        rng = Rng(21)
        xs, ys = [], []
        for _ in range(4000):
            ep = generate_episode(world, rng)
            d = ep.degraded.index(True)
            xs.append(ep.observations[d])
            ys.append(ep.labels[d])
        half = len(xs) // 2
        onehot = np.zeros((half, world.n_classes))
        onehot[np.arange(half), ys[:half]] = 1.0
        x_train = np.asarray(xs[:half])
        w = np.linalg.solve(
            x_train.T @ x_train + 1e-3 * np.eye(world.obs_dim), x_train.T @ onehot
        )
        x_test = np.asarray(xs[half:])
        acc = float(np.mean(np.argmax(x_test @ w, axis=1) == np.asarray(ys[half:])))
        assert abs(acc - 1.0 / world.n_classes) < 0.05

    def test_clean_probe_far_above_degraded_probe(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(22))
        rng = Rng(23)
        xs, ys = [], []
        for _ in range(400):
            ep = generate_episode(world, rng)
            xs.extend(ep.observations)
            ys.extend(ep.labels)
        acc = linear_probe_accuracy(np.asarray(xs), ys, world.n_classes)
        assert acc > 0.95


class TestGenerateDataset:
    def test_same_seed_identical(self):
        world = make_world("srms", rng=Rng(24))
        a = generate_dataset(world, 50, seed=99)
        b = generate_dataset(world, 50, seed=99)
        for ea, eb in zip(a.episodes, b.episodes):
            np.testing.assert_array_equal(ea.observations, eb.observations)
            assert ea.labels == eb.labels

    def test_split_sizes(self):
        world = make_world("srms", rng=Rng(25))
        ds = generate_dataset(world, 10, seed=0)
        assert (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx)) == (8, 1, 1)
        all_idx = ds.train_idx + ds.val_idx + ds.test_idx
        assert sorted(all_idx) == list(range(10))

    def test_minimum_size(self):
        world = make_world("srms", rng=Rng(26))
        with pytest.raises(ValueError):
            generate_dataset(world, 9, seed=0)

    def test_label_histogram_uniformity(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(27))
        rng = Rng(28)
        counts = np.zeros(world.n_classes)
        n_episodes = 10000
        for _ in range(n_episodes):
            ep = generate_episode(world, rng)
            for y in ep.labels:
                counts[y] += 1
        total = counts.sum()
        expected = total / world.n_classes
        # Binomial std for each class count
        sigma = (total * (1 / world.n_classes) * (1 - 1 / world.n_classes)) ** 0.5
        assert np.all(np.abs(counts - expected) < 3.0 * sigma)


class TestDatasetExport:
    def test_round_trip_exact(self, tmp_path):
        world = make_world("mrms", rng=Rng(29))
        ds = generate_dataset(world, 20, seed=3)
        path = str(tmp_path / "data.json")
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.world.case == world.case
        np.testing.assert_array_equal(loaded.world.prototypes, world.prototypes)
        np.testing.assert_array_equal(loaded.world.scene_codes, world.scene_codes)
        assert loaded.train_idx == ds.train_idx
        for ea, eb in zip(ds.episodes, loaded.episodes):
            np.testing.assert_array_equal(ea.observations, eb.observations)
            assert ea.labels == eb.labels
            assert ea.degraded == eb.degraded
            assert ea.needs_comm == eb.needs_comm
            assert ea.gt_support == eb.gt_support

    @pytest.mark.parametrize("case", CASES)
    def test_bytes_match_one_shot_json_dump(self, tmp_path, case):
        ds = generate_dataset(make_world(case, rng=Rng(3)), 20, seed=5)
        path = tmp_path / "data.json"
        save_dataset(str(path), ds)
        w = ds.world
        doc = {
            "world": {
                "case": w.case,
                "n_agents": w.n_agents,
                "obs_dim": w.obs_dim,
                "scene_dim": w.scene_dim,
                "n_classes": w.n_classes,
                "degrade_prob": w.degrade_prob,
                "noise_sigma": w.noise_sigma,
                "overlap_frac": w.overlap_frac,
                "prototypes": w.prototypes.tolist(),
                "scene_codes": w.scene_codes.tolist(),
            },
            "episodes": [
                {
                    "observations": ep.observations.tolist(),
                    "labels": list(ep.labels),
                    "degraded": list(ep.degraded),
                    "needs_comm": list(ep.needs_comm),
                    "gt_support": [sorted(s) for s in ep.gt_support],
                }
                for ep in ds.episodes
            ],
            "splits": {"train": ds.train_idx, "val": ds.val_idx, "test": ds.test_idx},
        }
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    # SHA-256 of the saved 20-episode dataset of each case, frozen so that
    # neither the generators nor the file format drift silently.
    PINNED_SHA256 = {
        "srms": "ff83f1a0fb8252aef9434d9bb09e66100715511b86701a73e777a8a577b063ac",
        "mrms": "d2f402bf4ab647a5c64183f52b8b8eb7d339913a0cbd88542932dac126d15363",
        "mrmps": "bcca3f142b211b1693309172f8fe489441684b176d1f747173a0870ba14b4fa1",
        "triplet": "d05a47425089fc326cba99b369d20a448b3b4f2ba6bc52e21c73276e94203162",
    }

    # The same at obs_dim 10 with three agents: an odd scene half (5), so
    # the padding between the two halves of one observation's draw is pinned.
    PINNED_SHA256_OBS10 = {
        "srms": "a92350b0a4c3fa1961cbfc2ac4251c38a3e93677c1772ade39b233658c6520f1",
        "mrms": "47d4ef9ae14cd308776d6d210d7acac9e9b73ff920e9979ebaf0573e2e1b9846",
        "mrmps": "63fa8f4f7d8f0bfa828bd56e8658c4ff1ed756ef5a3719ffbd9fe44b6b9dce84",
        "triplet": "71432a00e7a6ffe89c123edec2de636bffbe6f2d495e8a7b5114e8b6f132f046",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned(self, tmp_path, case):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world(case, rng=Rng(3)), 20, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256[case]

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned_odd_scene_dim(self, tmp_path, case):
        path = tmp_path / "data.json"
        world = make_world(case, n_agents=3, obs_dim=10, rng=Rng(3))
        save_dataset(str(path), generate_dataset(world, 20, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256_OBS10[case]

    @pytest.mark.parametrize("bad_row", [[0.0] * 31, [0.0] * 33])
    def test_load_rejects_misshapen_observations(self, tmp_path, bad_row):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        doc["episodes"][7]["observations"][2] = bad_row
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: episode 7 observations have shape ragged, expected \(5, 32\)"):
            load_dataset(str(path))
        doc["episodes"][7]["observations"] = [bad_row] * 5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"episode 7 observations have shape \(5, {len(bad_row)}\)"):
            load_dataset(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_load_rejects_non_finite_observations(self, tmp_path, bad):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        doc["episodes"][4]["observations"][1][9] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: episode 4 observations contain non-finite values"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("labels", [1, 2, 3], r"labels has 3 entries, expected 5"),
            ("degraded", [False] * 6, r"degraded has 6 entries, expected 5"),
            ("needs_comm", [], r"needs_comm has 0 entries, expected 5"),
            ("gt_support", [[]] * 4, r"gt_support has 4 entries, expected 5"),
            ("labels", [0, 99, 0, 0, 0], r"label 99 is not an integer in \[0, 10\)"),
            ("labels", [0, 0, -1, 0, 0], r"label -1 is not an integer in \[0, 10\)"),
            ("labels", [0, 0, 0, 2.5, 0], r"label 2\.5 is not an integer in \[0, 10\)"),
            ("gt_support", [[], [5], [], [], []], r"gt_support index 5 is not an integer in \[0, 5\)"),
            ("gt_support", [[-1], [], [], [], []], r"gt_support index -1 is not an integer in \[0, 5\)"),
        ],
    )
    def test_load_rejects_episode_lists_that_do_not_fit_the_world(self, tmp_path, key, value, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        doc["episodes"][6][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: episode 6 " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda w: w.update(case="zzz"), r"world case 'zzz' is not one of"),
            (lambda w: w.update(prototypes=w["prototypes"][:9]), r"world prototypes have shape \(9, 32\), expected"),
            (lambda w: w.update(n_classes=11), r"world prototypes have shape \(10, 32\), expected"),
            (lambda w: w["prototypes"][3].pop(), r"world prototypes have shape ragged"),
            (
                lambda w: w.update(scene_codes=[r[:15] for r in w["scene_codes"]]),
                r"world scene_codes have shape \(16, 15\)",
            ),
            (lambda w: w.update(n_agents=2.0), r"world n_agents must be a positive integer, got 2\.0"),
            (lambda w: w.update(n_classes=0), r"world n_classes must be a positive integer, got 0"),
            (lambda w: w.update(obs_dim=31), r"world obs_dim must be an even integer >= 4, got 31"),
            (lambda w: w.update(scene_dim=8), r"world scene_dim must be obs_dim // 2 = 16, got 8"),
            (lambda w: w.update(n_agents=17), r"world n_agents 17 need 17 orthogonal scene signatures"),
            (lambda w: w.update(degrade_prob=float("nan")), r"world degrade_prob must lie in \[0, 1\], got nan"),
            (lambda w: w.update(overlap_frac="half"), r"world overlap_frac must be a real number, got 'half'"),
            (lambda w: w.update(noise_sigma=True), r"world noise_sigma must be a real number, got True"),
            (lambda w: w.update(noise_sigma=float("inf")), r"world noise_sigma must be positive and finite"),
        ],
    )
    def test_load_rejects_world_that_make_world_cannot_build(self, tmp_path, edit, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        edit(doc["world"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("needs_comm", [True] * 5, r"needs_comm\[\d\] is True but degraded\[\d\] is False"),
            ("gt_support", [[1], [], [], [], []], r"gt_support\[0\] is \[1\] but agent 0 does not need communication"),
        ],
    )
    def test_load_rejects_inconsistent_ground_truth(self, tmp_path, key, value, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", degrade_prob=0.0, rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        doc["episodes"][6][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: episode 6 " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "split, value, message",
        [
            ("test", [999], r"splits\.test index 999 is not an integer in \[0, 10\)"),
            ("test", [-1], r"splits\.test index -1 is not an integer"),
            ("val", [8.0], r"splits\.val index 8\.0 is not an integer"),
            ("test", [9, 9], r"episode 9 is listed twice in splits\.test"),
            ("test", [9, 0], r"episode 0 is listed in both splits\.train and splits\.test"),
        ],
    )
    def test_load_rejects_bad_splits(self, tmp_path, split, value, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        doc["splits"][split] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: " + message):
            load_dataset(str(path))
