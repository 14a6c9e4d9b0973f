"""Scenario generators: constructions, ground-truth invariants, statistics."""

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupcomm import scenarios
from groupcomm.densemath import Rng
from groupcomm.scenarios import (
    CASES,
    Dataset,
    Episode,
    EpisodeSet,
    World,
    generate_dataset,
    generate_episodes,
    load_dataset,
    make_world,
    save_dataset,
    split_bounds,
)

from helpers import (
    DATASET_MAGIC,
    DATASET_PREFIX,
    drawn_episodes,
    edit_dataset_file,
    one_episode,
    read_dataset_file,
    write_dataset_file,
)


def linear_probe_accuracy(x, y, n_classes, ridge=1e-3):
    """Closed-form ridge regression to one-hot targets; argmax readout."""
    x = np.asarray(x)
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = 1.0
    w = np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ onehot)
    return float(np.mean(np.argmax(x @ w, axis=1) == np.asarray(y)))


def _json_dataset_text(ds) -> str:
    """A dataset file as ``save_dataset`` wrote it before the binary layout: one JSON document."""
    w = ds.world
    doc = {
        "world": {f.name: getattr(w, f.name) for f in dataclasses.fields(World)}
        | {"prototypes": w.prototypes.tolist(), "scene_codes": w.scene_codes.tolist()},
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
    return json.dumps(doc, sort_keys=True) + "\n"


# Ground truth for the round-trip properties and the mutation property: two
# agents with four-float observations.
_PROPERTY_DATASET = generate_dataset(make_world("srms", n_agents=2, obs_dim=4, rng=Rng(3)), 10, seed=5)

# Finite floats of every magnitude: zeros of both signs, subnormals, and the
# values the JSON writer had to respell (below 1e-4, from 1e16 up).
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -2.2250738585072014e-308, 9.999999999999999e-05, 1e-5, 1e16, -1e16]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(-1e-4, 1e-4),
)
# World scalars of every magnitude, kept where load_dataset accepts them.
_UNIT_REALS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-05, 1e-4, 0.5, 1.0, 0, 1]),
    st.floats(0.0, 1.0),
)
_NOISE_SIGMAS = st.one_of(
    st.sampled_from([5e-324, 1e-5, 1e16, 1e300, 1.7976931348623157e308, 3]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
_OBSERVATIONS = st.lists(_FINITE, min_size=8, max_size=8).map(lambda v: np.array(v).reshape(2, 4))


def _saved_bytes(ds) -> bytes:
    """The bytes ``save_dataset`` writes for ``ds``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.bin")
        save_dataset(path, ds)
        return Path(path).read_bytes()


# The mutation property edits one header field, or bytes of this file.
_BASE = _saved_bytes(_PROPERTY_DATASET)
_HEADER_END = DATASET_PREFIX.size + DATASET_PREFIX.unpack_from(_BASE)[2]
_HEADER_KEYS = sorted(json.loads(_BASE[DATASET_PREFIX.size : _HEADER_END]))
_RAW = "\x00raw"  # stands in for the raw JSON text of a mutated field

# Raw JSON texts for a mutated field: numbers of every width and spelling,
# literals, strings, containers, splits and deep nesting.
_RAW_VALUES = st.one_of(
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", "1e400", "-0.0", "true", "false", "null", "[]", "{}", '""', '"srms"',
        '"mrms"', '"triplet"', '"\\ud800"', "0", "1", "2", "2.0", "3", "4", "9", "10", "16", "16.0", "32", "-1",
        "18446744073709551616", "1" + "0" * 400, "1" * 5000, "[" * 100000 + "]" * 100000,
    ]),
    st.integers(-3, 40).map(str),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.lists(st.integers(-2, 11), max_size=4).map(json.dumps),
    st.fixed_dictionaries({name: st.lists(st.integers(-1, 11), max_size=4) for name in ("train", "val", "test")}).map(
        json.dumps
    ),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
)

# A mutation is ("set", key, raw) (an unknown key adds a field), ("drop",
# key), ("overwrite", pos, data) of body bytes, ("splice", pos, cut, insert)
# anywhere in the file, or ("truncate", size).
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_HEADER_KEYS + ["colour"]), _RAW_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(_HEADER_KEYS)),
    st.tuples(st.just("overwrite"), st.integers(0, len(_BASE)), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("splice"), st.integers(0, len(_BASE)), st.integers(0, 3), st.binary(max_size=3)),
    st.tuples(st.just("truncate"), st.integers(0, len(_BASE) - 1)),
)


def _mutated(mutation) -> bytes:
    """The bytes of ``_BASE`` with ``mutation`` applied."""
    kind, *args = mutation
    if kind in ("set", "drop"):
        header = json.loads(_BASE[DATASET_PREFIX.size : _HEADER_END])
        if kind == "drop":
            del header[args[0]]
        else:
            header[args[0]] = _RAW
        text = json.dumps(header, sort_keys=True).replace(json.dumps(_RAW), args[-1]).encode()
        return DATASET_PREFIX.pack(DATASET_MAGIC, 1, len(text)) + text + _BASE[_HEADER_END:]
    if kind == "overwrite":
        pos, data = args
        pos = _HEADER_END + pos % (len(_BASE) - _HEADER_END)
        return _BASE[:pos] + data[: len(_BASE) - pos] + _BASE[pos + len(data) :]
    if kind == "splice":
        pos, cut, insert = args
        return _BASE[:pos] + insert + _BASE[pos + cut :]
    return _BASE[: args[0]]


def _load_outcome(path: str):
    """``load_dataset(path)``, or the message of the ValueError it raises."""
    try:
        return load_dataset(path)
    except ValueError as err:
        return str(err)


def _assert_identical(a: Dataset, b: Dataset) -> None:
    """Equal datasets, down to the bits of every float and the type of every world field."""
    for f in dataclasses.fields(World):
        x, y = getattr(a.world, f.name), getattr(b.world, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert type(x) is type(y) and x == y, f.name
    assert (a.train_idx, a.val_idx, a.test_idx) == (b.train_idx, b.val_idx, b.test_idx)
    assert len(a.episodes) == len(b.episodes)
    for x, y in zip(a.episodes, b.episodes):
        assert (x.observations.shape, x.observations.tobytes()) == (y.observations.shape, y.observations.tobytes())
        assert (x.labels, x.degraded, x.needs_comm, x.gt_support) == (y.labels, y.degraded, y.needs_comm, y.gt_support)


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
        np.testing.assert_allclose(gram, np.eye(world.scene_dim), atol=1e-9)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(case="nosuch"), r"world case 'nosuch' is not one of"),
            (dict(case="triplet", n_agents=7), r"world n_agents must be a multiple of 3 for case 'triplet', got 7"),
            (dict(case="srms", n_agents=0), r"world n_agents must be an integer >= 1, got 0"),
            (dict(case="srms", obs_dim=9), r"world obs_dim must be an even integer >= 4, got 9"),
            (dict(case="srms", degrade_prob=1.5), r"world degrade_prob must lie in \[0, 1\], got 1\.5"),
            (dict(case="srms", overlap_frac=-0.1), r"world overlap_frac must lie in \[0, 1\], got -0\.1"),
            (dict(case="srms", noise_sigma=0.0), r"world noise_sigma must be positive and finite, got 0\.0"),
            # Python numbers that compare inside the range but do not convert
            # to a finite float64, or convert to 0.0.
            (dict(case="srms", noise_sigma=10**400), r"world noise_sigma must be a finite float64, got int beyond its range"),
            (dict(case="srms", degrade_prob=-(10**400)), r"world degrade_prob must be a finite float64, got int beyond"),
            (dict(case="srms", overlap_frac=Fraction(10**400, 3)), r"world overlap_frac must be a finite float64, got Fraction"),
            (dict(case="srms", noise_sigma=Fraction(1, 10**400)), r"world noise_sigma must be positive and finite, got Fraction"),
            (
                dict(case="srms", n_agents=1),
                r"world n_agents must be >= 2 for case 'srms' when degrade_prob > 0 .*n_agents=1, degrade_prob=0\.5",
            ),
        ],
    )
    def test_invalid_parameter_names_field(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_world(**kwargs)

    @pytest.mark.parametrize("case", ["mrms", "mrmps"])
    def test_single_agent_worlds_generate(self, case):
        # A lone agent may be degraded only where it needs no peer: srms
        # without degradation, and mrms/mrmps, which then cannot pair it.
        for world in (make_world("srms", n_agents=1, degrade_prob=0.0, rng=Rng(1)), make_world(case, n_agents=1)):
            ds = generate_dataset(world, 20, seed=2)
            assert all(ep.observations.shape == (1, world.obs_dim) for ep in ds.episodes)

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
            ep = one_episode(world, rng)
            assert not any(ep.needs_comm)
            assert all(len(s) == 0 for s in ep.gt_support)

    def test_srms_forced_degradation(self):
        world = make_world("srms", degrade_prob=1.0, rng=Rng(6))
        rng = Rng(7)
        for _ in range(50):
            ep = one_episode(world, rng)
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
            [any(one_episode(world, rng).degraded) for _ in range(10000)]
        )
        assert abs(degraded_frac - 0.5) < 0.02

    def test_mrms_distinct_supporters(self):
        world = make_world("mrms", degrade_prob=0.9, rng=Rng(10))
        rng = Rng(11)
        for _ in range(200):
            ep = one_episode(world, rng)
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
            ep = one_episode(world, rng)
            for i in range(world.n_agents):
                if ep.needs_comm[i] and not ep.gt_support[i]:
                    any_empty = True
        assert any_empty

    def test_triplet_structure(self):
        world = make_world("triplet", degrade_prob=1.0, rng=Rng(14))
        rng = Rng(15)
        for _ in range(100):
            ep = one_episode(world, rng)
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
            for ep in drawn_episodes(world, rng, 2500):
                degraded, needs_comm, gt_support, labels = ep.degraded, ep.needs_comm, ep.gt_support, ep.labels
                for i in range(world.n_agents):
                    if degraded[i]:
                        assert needs_comm[i]
                        if case != "mrmps":
                            assert len(gt_support[i]) > 0
                    else:
                        assert not needs_comm[i]
                        assert len(gt_support[i]) == 0
                    assert 0 <= labels[i] < world.n_classes

    def test_clean_observation_nearest_prototype(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(18))
        rng = Rng(19)
        hits = 0
        total = 0
        for _ in range(500):
            ep = one_episode(world, rng)
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
            ep = one_episode(world, rng)
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
            ep = one_episode(world, rng)
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
        with pytest.raises(ValueError, match="need at least 10 episodes for a split, got 9"):
            split_bounds(9)

    @pytest.mark.parametrize("n", [10, 37, 100])
    def test_split_bounds_and_generate_episodes_are_the_dataset(self, n):
        world = make_world("mrmps", rng=Rng(26))
        ds = generate_dataset(world, n, seed=4)
        val_start, test_start = split_bounds(n)
        assert ds.val_idx == tuple(range(val_start, test_start))
        assert ds.test_idx == tuple(range(test_start, n))
        drawn = generate_episodes(world, n, seed=4)
        assert len(drawn) == n
        for a, b in zip(ds.episodes, drawn):
            np.testing.assert_array_equal(a.observations, b.observations)
            assert (a.labels, a.degraded, a.gt_support) == (b.labels, b.degraded, b.gt_support)

    def test_label_histogram_uniformity(self):
        world = make_world("srms", degrade_prob=0.0, rng=Rng(27))
        rng = Rng(28)
        counts = np.zeros(world.n_classes)
        n_episodes = 10000
        for _ in range(n_episodes):
            ep = one_episode(world, rng)
            for y in ep.labels:
                counts[y] += 1
        total = counts.sum()
        expected = total / world.n_classes
        # Binomial std for each class count
        sigma = (total * (1 / world.n_classes) * (1 - 1 / world.n_classes)) ** 0.5
        assert np.all(np.abs(counts - expected) < 3.0 * sigma)


def _assert_same_episodes(got, expected) -> None:
    """Bit-equal observations and equal ground truth, episode by episode."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()
        assert (a.labels, a.degraded, a.needs_comm, a.gt_support) == (b.labels, b.degraded, b.needs_comm, b.gt_support)


def _alone(world, seed, n):
    """Episodes 0..n-1 of ``seed``'s keyed streams, each drawn from a plain ``Rng`` of its key and rendered alone.

    Episode e's key is word e of ``Rng(seed)``'s stream.
    """
    return [one_episode(world, Rng(key)) for key in Rng(seed).u64(n).tolist()]


class TestBlockRender:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_renders_each_episode_as_alone(self, monkeypatch, case, block):
        world = make_world(case, degrade_prob=0.6, rng=Rng(40))
        alone = _alone(world, 41, 130)
        monkeypatch.setattr(scenarios, "RENDER_BLOCK", block)
        for n in (1, 63, 64, 65, 130):
            _assert_same_episodes(generate_episodes(world, n, seed=41), alone[:n])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block", [7, 64])
    def test_start_yields_the_tail_of_the_stream(self, monkeypatch, case, block):
        monkeypatch.setattr(scenarios, "RENDER_BLOCK", block)
        world = make_world(case, degrade_prob=0.6, rng=Rng(42))
        full = generate_episodes(world, 130, seed=43)
        for start in (0, 1, 7, 63, 64, 65, 129, 130):  # on block boundaries and off them
            _assert_same_episodes(generate_episodes(world, 130, seed=43, start=start), full[start:])

    def test_odd_scene_dim_renders_as_alone(self):
        # An odd scene half drops each block's spare sin term.
        world = make_world("mrmps", obs_dim=22, rng=Rng(44))
        _assert_same_episodes(generate_episodes(world, 70, seed=45), _alone(world, 45, 70))

    def test_start_outside_the_set_names_it(self):
        world = make_world("srms", rng=Rng(46))
        for start in (-1, 11):
            with pytest.raises(ValueError, match=rf"start must be an integer in \[0, 10\], got {start}"):
                generate_episodes(world, 10, seed=0, start=start)

    @pytest.mark.parametrize(
        "args, message",
        [
            ({"n_episodes": -5}, "n_episodes must be an integer >= 0, got -5"),
            ({"n_episodes": 20.0}, "n_episodes must be an integer >= 0, got 20.0"),
            ({"n_episodes": True}, "n_episodes must be an integer >= 0, got True"),
            ({"start": 3.0}, "start must be an integer in [0, 20], got 3.0"),
            ({"start": True}, "start must be an integer in [0, 20], got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
    )
    def test_bad_generation_arguments_are_named(self, args, message):
        world = make_world("srms", rng=Rng(46))
        call = {"n_episodes": 20, "seed": 0} | args
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            generate_episodes(world, **call)
        if "start" not in args:
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                generate_dataset(world, **call)

    def test_integer_seeds_are_read_mod_2_64(self):
        world = make_world("srms", rng=Rng(46))
        _assert_same_episodes(generate_episodes(world, 20, seed=-1), generate_episodes(world, 20, seed=2**64 - 1))
        _assert_same_episodes(generate_episodes(world, 20, seed=np.int64(7)), generate_episodes(world, 20, seed=7))


class TestKeyedStreams:
    @pytest.mark.parametrize("case", CASES)
    def test_episode_does_not_depend_on_the_dataset_size(self, case):
        world = make_world(case, rng=Rng(47))
        small = generate_dataset(world, 100, seed=48)
        large = generate_dataset(world, 1000, seed=48)
        _assert_same_episodes(small.episodes, large.episodes[:100])

    @pytest.mark.parametrize("start", [0, 1, 64, 65, 1999, 2000])
    def test_start_draws_nothing_before_it(self, monkeypatch, start):
        world = make_world("srms", rng=Rng(49))
        tail = generate_episodes(world, 2000, seed=50)[start:]
        calls = []

        def counted(world, rng, real=scenarios.generate_episode):
            calls.append(rng.seed)
            return real(world, rng)

        monkeypatch.setattr(scenarios, "generate_episode", counted)
        _assert_same_episodes(generate_episodes(world, 2000, seed=50, start=start), tail)
        assert len(calls) == 2000 - start
        assert calls == Rng(50).u64(2000).tolist()[start:]  # each call on its own episode's key

    def test_scene_picks_are_distinct_and_uniform(self):
        # 16 scenes, 5 picked by a partial Fisher-Yates shuffle.  A chi-square
        # test per pick position (15 degrees of freedom; 37.7 is its 0.1%
        # tail) on 16000 seeded draws.
        world = make_world("srms", rng=Rng(51))
        rng = Rng(52)
        picks = np.array([scenarios._scene_picks(world, rng, 5) for _ in range(16000)])
        assert all(len(set(row)) == 5 for row in picks.tolist())
        for position in range(5):
            counts = np.bincount(picks[:, position], minlength=world.scene_dim)
            expected = len(picks) / world.scene_dim
            assert ((counts - expected) ** 2 / expected).sum() < 37.7


def _assert_frozen_support(episodes) -> int:
    """Check every support an episode view gives is a frozenset; count the non-empty ones."""
    held = 0
    for ep in episodes:
        for support in ep.gt_support:
            assert type(support) is frozenset
            held += bool(support)
    return held


class TestSupportSets:
    @pytest.mark.parametrize("case", CASES)
    def test_generated_and_loaded_supports_are_frozen(self, tmp_path, case):
        ds = generate_dataset(make_world(case, degrade_prob=0.6, rng=Rng(30)), 200, seed=8)
        assert _assert_frozen_support(ds.episodes) > 0
        path = str(tmp_path / "data.json")
        save_dataset(path, ds)
        assert _assert_frozen_support(load_dataset(path).episodes) > 0

    @pytest.mark.parametrize("case", CASES)
    def test_gt_support_is_each_row_of_the_mask(self, case):
        episodes = generate_episodes(make_world(case, degrade_prob=0.6, rng=Rng(30)), 200, seed=9)
        for ep, mask in zip(episodes, episodes.support):
            assert ep.gt_support == [frozenset(np.flatnonzero(row).tolist()) for row in mask]

    def test_episode_has_no_instance_dict(self):
        ep = one_episode(make_world("srms", rng=Rng(31)), Rng(1))
        assert not hasattr(ep, "__dict__")
        with pytest.raises(AttributeError):
            ep.note = "an attribute the class does not declare"

    def test_needs_comm_is_degraded_and_read_only(self):
        ep = one_episode(make_world("mrms", degrade_prob=0.6, rng=Rng(31)), Rng(2))
        assert Episode.needs_comm is Episode.degraded  # one accessor: the need is not stored apart
        assert ep.needs_comm == ep.degraded and any(ep.degraded)
        with pytest.raises(AttributeError):
            ep.needs_comm = [True] * len(ep.degraded)
        with pytest.raises(AttributeError):
            ep.index = 0
        assert ep.needs_comm == ep.degraded

    def test_held_srms_episode_stays_small(self):
        # Per-agent mutable sets and an instance __dict__ held 3087 B per
        # srms episode, and one slotted object with frozen supports 1939 B.
        # A set holds the file body's arrays alone: 1350 B, of which the
        # (5, 32) observations are 1280.
        world = make_world("srms", rng=Rng(32))
        one_episode(world, Rng(0))  # warm any first-call caches outside the traced span
        n = 4000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            episodes = generate_episodes(world, n, seed=5)
            per_episode = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(episodes) == n
        assert per_episode < 1500


class TestEpisodeSet:
    @staticmethod
    def arrays(e=3, n=4, d=6):
        return np.zeros((e, n, d)), np.zeros((e, n), np.int64), np.zeros((e, n), bool), np.zeros((e, n, n), bool)

    @pytest.mark.parametrize(
        "position, array, needed, got",
        [
            # Episodes of another agent count, then of another episode count, than the labels'.
            (0, np.zeros((3, 5, 6)), "float64 and shape (3, 4, any)", "dtype float64 and shape (3, 5, 6)"),
            (2, np.zeros((3, 5), bool), "bool and shape (3, 4)", "dtype bool and shape (3, 5)"),
            (3, np.zeros((3, 4, 5), bool), "bool and shape (3, 4, 4)", "dtype bool and shape (3, 4, 5)"),
            (3, np.zeros((2, 4, 4), bool), "bool and shape (3, 4, 4)", "dtype bool and shape (2, 4, 4)"),
            (1, np.zeros((3, 4), np.int32), "int64 and shape (any, any)", "dtype int32 and shape (3, 4)"),
            (2, np.zeros((3, 4), np.uint8), "bool and shape (3, 4)", "dtype uint8 and shape (3, 4)"),
            (1, np.zeros(12, np.int64), "int64 and shape (any, any)", "dtype int64 and shape (12,)"),
            # Nested lists once raised a bare AttributeError on .ndim or .dtype.
            (1, [[0] * 4] * 3, "int64 and shape (any, any)", "list"),
            (0, np.zeros((3, 4, 6)).tolist(), "float64 and shape (3, 4, any)", "list"),
            (3, np.zeros((3, 4, 4), bool).tolist(), "bool and shape (3, 4, 4)", "list"),
        ],
    )
    def test_constructor_rejects_arrays_that_disagree(self, position, array, needed, got):
        arrays = list(self.arrays())
        arrays[position] = array
        name = ("observations", "labels", "degraded", "support")[position]
        message = f"EpisodeSet.{name} must be an ndarray of dtype {needed}, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EpisodeSet(*arrays)
        assert all(a.flags.writeable for a in arrays if isinstance(a, np.ndarray))

    def test_ints_and_slices_view_rows_and_index_arrays_gather_them(self):
        episodes = generate_episodes(make_world("mrms", degrade_prob=0.6, rng=Rng(60)), 20, seed=61)
        ep = episodes[-3]
        assert type(ep) is Episode and ep.index == 17
        assert np.shares_memory(ep.observations, episodes.observations)
        assert (ep.labels, ep.degraded) == (episodes.labels[17].tolist(), episodes.degraded[17].tolist())
        assert ep.gt_support == [frozenset(np.flatnonzero(row).tolist()) for row in episodes.support[17]]
        window = episodes[4:9]
        assert all(np.shares_memory(a, b) for a, b in zip(window.arrays, episodes.arrays))
        gathered = episodes[[9, 2, 9]]
        assert not any(np.shares_memory(a, b) for a, b in zip(gathered.arrays, episodes.arrays))
        for a, full in zip(gathered.arrays, episodes.arrays):
            assert a.tobytes() == full[[9, 2, 9]].tobytes()
        assert len(episodes[[]]) == 0 and episodes[[]].observations.shape == (0, 5, 32)
        assert [e.index for e in episodes] == list(range(20))
        for bad in (20, -21):
            with pytest.raises(IndexError, match=f"episode {bad} is out of range for a set of 20"):
                episodes[bad]

    def test_every_built_array_is_read_only(self, tmp_path):
        world = make_world("mrmps", degrade_prob=0.6, rng=Rng(62))
        ds = generate_dataset(world, 20, seed=63)
        path = str(tmp_path / "data.bin")
        save_dataset(path, ds)
        loaded = load_dataset(path)
        sets = [
            ds.episodes,  # generated
            generate_episodes(world, 20, seed=63, start=5),
            ds.episodes[2:7],  # sliced
            ds.episodes[[3, 1]],  # gathered
            ds.episodes[(3, 1)],
            ds.test_episodes,
            loaded.episodes,
            loaded.test_episodes,
            replace(ds.episodes, labels=ds.episodes.labels.copy()),
        ]
        for episodes in sets:
            for array in episodes.arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = array[(0,) * array.ndim]
            with pytest.raises(ValueError, match="read-only"):
                episodes[0].observations[0, 0] = 0.0
        for w in (world, loaded.world, replace(world, prototypes=world.prototypes.copy())):
            for array in (w.prototypes, w.scene_codes):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0.0

    @pytest.mark.parametrize("split", [(4,), (4, 5), (4, 5, 6)])
    def test_a_tuple_split_gathers_the_rows_of_the_list(self, split):
        # numpy reads a tuple key as one index per axis, so (4, 5) once meant row 4, agent 5.
        world = make_world("srms", rng=Rng(64))
        episodes = generate_episodes(world, 10, seed=65)
        expected = episodes[list(split)]
        ds = Dataset(world, episodes, (0, 1), [2, 3], split)
        for got in (ds.test_episodes, episodes[split]):
            assert len(got) == len(split)
            for a, b in zip(got.arrays, expected.arrays):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_splits_are_tuples_however_they_are_made(self, tmp_path):
        world = make_world("srms", rng=Rng(66))
        ds = generate_dataset(world, 20, seed=67)
        path = str(tmp_path / "data.bin")
        save_dataset(path, ds)
        loaded = load_dataset(path)
        given = Dataset(world, ds.episodes, list(range(16)), range(16, 18), (18, 19))
        for d in (ds, loaded, given, replace(ds, val_idx=[16, 17])):
            assert all(type(split) is tuple for split in (d.train_idx, d.val_idx, d.test_idx))
            assert (d.train_idx, d.val_idx, d.test_idx) == (tuple(range(16)), (16, 17), (18, 19))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.train_idx = ()

    def test_save_names_an_array_the_world_does_not_shape(self, tmp_path):
        # The Dataset constructor refuses the mix, so there is nothing to save.
        world = make_world("srms", rng=Rng(3))
        other = generate_dataset(make_world("srms", n_agents=4, rng=Rng(3)), 10, seed=5)
        path = tmp_path / "data.bin"
        message = (
            "Dataset.episodes.observations must be an ndarray of dtype float64 and shape (10, 5, 32), "
            "got dtype float64 and shape (10, 4, 32)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_dataset(str(path), replace(other, world=world))
        assert not path.exists()


class TestValuesCheckThemselves:
    """A World and a Dataset check themselves, so replace, generation, loading and saving share one set of checks."""

    @pytest.mark.parametrize(
        "change, message",
        [
            # Once built, and generate_dataset then ran on it without a word.
            (lambda w: dict(degrade_prob=7.0), "world degrade_prob must lie in [0, 1], got 7.0"),
            # Once a failure inside Rng.randint: "bound must be positive".
            (lambda w: dict(n_agents=0), "world n_agents must be an integer >= 1, got 0"),
            (
                lambda w: dict(n_agents=17),
                "world n_agents 17 need 17 orthogonal scene signatures but only 16 scene dimensions are available",
            ),
            (lambda w: dict(case="quad"), f"world case 'quad' is not one of {CASES}"),
            # A scene half that disagrees with the codebook was once a numpy broadcast error.
            (
                lambda w: dict(scene_codes=np.eye(3)),
                "world scene_codes must be an ndarray of dtype float64 and shape (16, 16), got dtype float64 and shape (3, 3)",
            ),
            (
                lambda w: dict(obs_dim=30),
                "world prototypes must be an ndarray of dtype float64 and shape (10, 30), got dtype float64 and shape (10, 32)",
            ),
            (
                lambda w: dict(prototypes=w.prototypes[:, :30]),
                "world prototypes must be an ndarray of dtype float64 and shape (10, 32), got dtype float64 and shape (10, 30)",
            ),
            (
                lambda w: dict(prototypes=w.prototypes.astype(np.float32)),
                "world prototypes must be an ndarray of dtype float64 and shape (10, 32), got dtype float32 and shape (10, 32)",
            ),
            (
                lambda w: dict(prototypes=w.prototypes.tolist()),
                "world prototypes must be an ndarray of dtype float64 and shape (10, 32), got list",
            ),
            (
                lambda w: dict(scene_codes=w.scene_codes.tolist()),
                "world scene_codes must be an ndarray of dtype float64 and shape (16, 16), got list",
            ),
            (
                lambda w: dict(prototypes=np.where(np.eye(10, 32, 20) > 0, np.nan, w.prototypes)),
                "world prototypes contain non-finite values",
            ),
            (lambda w: dict(scene_codes=w.scene_codes + np.inf), "world scene_codes contain non-finite values"),
        ],
    )
    def test_a_bad_world_is_refused_at_replace(self, change, message):
        world = make_world("srms", rng=Rng(70))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(world, **change(world))

    def test_scene_dim_is_derived_from_obs_dim(self):
        world = make_world("srms", obs_dim=10, rng=Rng(71))
        assert world.scene_dim == 5 and world.scene_codes.shape == (5, 5)
        assert "scene_dim" not in {f.name for f in dataclasses.fields(World)} and not hasattr(world, "n_scenes")
        with pytest.raises(TypeError, match="scene_dim"):
            replace(world, scene_dim=3)

    def test_worlds_compare_by_identity_and_hash(self):
        # Equal worlds built apart once raised "The truth value of an array ... is ambiguous".
        world, other = make_world("srms", rng=Rng(72)), make_world("srms", rng=Rng(72))
        assert world.prototypes.tobytes() == other.prototypes.tobytes()
        assert (world == other) is False and (world != other) is True and world == world
        assert hash(world) == hash(world) and len({world, other}) == 2

    @pytest.mark.parametrize(
        "splits, message",
        [
            # Once built, and train then gathered rows 0, 1 and 1, 5.
            (([0.0, 1.7], [2], []), "splits.train index must be an integer in [0, 9], got 0.0"),
            (([0, 1], [True, 5], []), "splits.val index must be an integer in [0, 9], got True"),
            (([0, 1], [np.True_], []), f"splits.val index must be an integer in [0, 9], got {np.True_!r}"),
            (([0, 1], [np.float64(2.0)], []), f"splits.val index must be an integer in [0, 9], got {np.float64(2.0)!r}"),
            (([0, 1], [2], ["3"]), "splits.test index must be an integer in [0, 9], got '3'"),
            (([0, 1], [2], [10]), "splits.test index must be an integer in [0, 9], got 10"),
            (([0, 1], [np.int64(-1)], []), f"splits.val index must be an integer in [0, 9], got {np.int64(-1)!r}"),
            (([0, 1, 0], [], []), "episode 0 is listed twice in splits.train"),
            (([0, 1], [1, 2], []), "episode 1 is listed in both splits.train and splits.val"),
            (([0, 1], [], [3, 0]), "episode 0 is listed in both splits.train and splits.test"),
            (([], [4, 5], [5]), "episode 5 is listed in both splits.val and splits.test"),
        ],
    )
    def test_bad_splits_are_refused_at_construction(self, splits, message):
        ds = generate_dataset(make_world("srms", rng=Rng(73)), 10, seed=73)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(ds.world, ds.episodes, *splits)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(ds, **dict(zip(("train_idx", "val_idx", "test_idx"), splits)))

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("label -1", "has label -1, not one in [0, 10)"),
            ("label 10", "has label 10, not one in [0, 10)"),
            ("self support", "is listed as its own supporter"),
            ("clean supported", "has supporters but is not degraded"),
            ("nan", "has non-finite observations"),
            ("-inf", "has non-finite observations"),
        ],
    )
    def test_bad_episodes_are_refused_at_construction(self, fault, message):
        ds = generate_dataset(make_world("srms", degrade_prob=0.0, rng=Rng(74)), 10, seed=74)
        obs, labels, degraded, support = (array.copy() for array in ds.episodes.arrays)
        if fault.startswith("label"):
            labels[6, 2] = int(fault.split()[1])
        elif fault == "self support":
            degraded[6, 2] = support[6, 2, 2] = True
        elif fault == "clean supported":
            support[6, 2, 1] = True
        else:
            obs[6, 2, 5] = float(fault)
        episodes = EpisodeSet(obs, labels, degraded, support)
        with pytest.raises(ValueError, match=f"^episode 6 agent 2 {re.escape(message)}$"):
            replace(ds, episodes=episodes)

    def test_observations_of_another_width_are_refused(self):
        # Another agent count is test_save_names_an_array_the_world_does_not_shape.
        world = make_world("srms", rng=Rng(75))
        episodes = generate_episodes(make_world("srms", obs_dim=30, rng=Rng(75)), 10, seed=75)
        message = (
            "Dataset.episodes.observations must be an ndarray of dtype float64 and shape (10, 5, 32), "
            "got dtype float64 and shape (10, 5, 30)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(world, episodes, [0], [1], [2])

    @pytest.mark.parametrize(
        "fields, message",
        [
            # Each once raised a bare AttributeError: 'list' object has no attribute 'arrays',
            # and 'str' object has no attribute 'n_agents'.
            (lambda ds: dict(episodes=list(ds.episodes)), "Dataset.episodes must be of type EpisodeSet, got list"),
            (lambda ds: dict(world="srms"), "Dataset.world must be of type World, got str"),
            (lambda ds: dict(world=ds.episodes), "Dataset.world must be of type World, got EpisodeSet"),
        ],
    )
    def test_a_world_or_episodes_of_another_type_is_refused(self, fields, message):
        ds = generate_dataset(make_world("srms", rng=Rng(75)), 10, seed=75)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(ds, **fields(ds))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(**{"world": ds.world, "episodes": ds.episodes, **fields(ds)}, train_idx=[0], val_idx=[1], test_idx=[2])

    def test_numpy_integer_splits_become_python_ints_and_round_trip(self, tmp_path):
        ds = generate_dataset(make_world("srms", rng=Rng(76)), 10, seed=76)
        given = replace(ds, train_idx=np.arange(8), val_idx=[np.int32(8)], test_idx=(np.uint64(9),))
        assert (given.train_idx, given.val_idx, given.test_idx) == (ds.train_idx, ds.val_idx, ds.test_idx)
        assert all(type(i) is int for split in (given.train_idx, given.val_idx, given.test_idx) for i in split)
        paths = [tmp_path / "python.bin", tmp_path / "numpy.bin"]
        for path, d in zip(paths, (ds, given)):
            save_dataset(str(path), d)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        _assert_identical(load_dataset(str(paths[1])), ds)


def _saved_srms(tmp_path, name="data.bin", **world):
    """The path of a saved 10-episode srms dataset (seed 5 of the world drawn from ``Rng(3)``)."""
    path = tmp_path / name
    save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3), **world), 10, seed=5))
    return path


class TestDatasetExport:
    @pytest.mark.parametrize("case", CASES)
    def test_round_trip_exact(self, tmp_path, case):
        ds = generate_dataset(make_world(case, degrade_prob=0.6, rng=Rng(29)), 40, seed=3)
        # Exact zeros and ones, and values the JSON writer had to respell.
        obs = ds.episodes.observations.copy()
        obs[3, 0, :6] = (0.0, 1.0, 1e-05, 1e16, -0.0, 5e-324)
        ds = replace(ds, episodes=replace(ds.episodes, observations=obs))
        path = str(tmp_path / "data.bin")
        save_dataset(path, ds)
        loaded = load_dataset(path)
        _assert_identical(loaded, ds)
        assert _assert_frozen_support(loaded.episodes) > 0
        for array in loaded.episodes.arrays:  # read-only views of the file's bytes
            assert not array.flags.writeable and not array.flags.owndata
        for ep in loaded.episodes:
            assert ep.needs_comm == ep.degraded
        test_split = loaded.test_episodes  # a gather, which does not keep the file's bytes alive
        assert all(array.base is None for array in test_split.arrays)
        _assert_same_episodes(test_split, ds.episodes[ds.test_idx])

    def test_empty_dataset_round_trips(self, tmp_path):
        # No episode: a header, the two world arrays and an empty body.
        world = make_world("mrmps", rng=Rng(3))
        ds = Dataset(world, generate_episodes(world, 0, seed=0), [], [], [])
        path = tmp_path / "data.bin"
        save_dataset(str(path), ds)
        header, arrays = read_dataset_file(path)
        assert header["n_episodes"] == 0 and arrays["observations"].shape == (0, world.n_agents, world.obs_dim)
        _assert_identical(load_dataset(str(path)), ds)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(observations=st.lists(_OBSERVATIONS, min_size=1, max_size=4))
    def test_any_finite_observation_round_trips(self, observations):
        base = _PROPERTY_DATASET
        episodes = base.episodes[list(range(len(observations)))]
        obs = episodes.observations.copy()
        obs[...] = observations
        episodes = replace(episodes, observations=obs)
        ds = Dataset(base.world, episodes, [0], list(range(1, len(episodes))), [])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.bin")
            save_dataset(path, ds)
            _assert_identical(load_dataset(path), ds)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        prototypes=st.lists(_FINITE, min_size=40, max_size=40),
        scene_codes=st.lists(_FINITE, min_size=4, max_size=4),
        degrade_prob=_UNIT_REALS,
        overlap_frac=_UNIT_REALS,
        noise_sigma=_NOISE_SIGMAS,
    )
    def test_any_finite_world_round_trips(self, prototypes, scene_codes, degrade_prob, overlap_frac, noise_sigma):
        # The world's scalars keep their type (0 stays an int) and every float its bits.
        base = _PROPERTY_DATASET
        world = replace(
            base.world,
            prototypes=np.array(prototypes).reshape(10, 4),
            scene_codes=np.array(scene_codes).reshape(2, 2),
            degrade_prob=degrade_prob,
            overlap_frac=overlap_frac,
            noise_sigma=noise_sigma,
        )
        ds = Dataset(world, base.episodes, base.train_idx, base.val_idx, base.test_idx)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.bin")
            save_dataset(path, ds)
            _assert_identical(load_dataset(path), ds)

    def test_layout_is_prefix_header_and_body(self, tmp_path):
        ds = generate_dataset(make_world("mrmps", degrade_prob=0.6, rng=Rng(3)), 20, seed=5)
        path = tmp_path / "data.bin"
        save_dataset(str(path), ds)
        blob = path.read_bytes()
        magic, version, size = DATASET_PREFIX.unpack_from(blob)
        assert (magic, version) == (b"GRPCDATA", 1)
        text = blob[DATASET_PREFIX.size : DATASET_PREFIX.size + size]
        header, arrays = read_dataset_file(path)
        assert text == json.dumps(header, sort_keys=True).encode()
        w = ds.world
        assert header == {
            "case": "mrmps", "n_agents": 5, "obs_dim": 32, "n_classes": 10, "degrade_prob": 0.6, "noise_sigma": 1.0,
            "overlap_frac": 0.5, "scene_dim": 16, "n_episodes": 20,
            "splits": {"train": list(ds.train_idx), "val": list(ds.val_idx), "test": list(ds.test_idx)},
        }
        assert arrays["prototypes"].tobytes() == w.prototypes.tobytes()
        assert arrays["scene_codes"].tobytes() == w.scene_codes.tobytes()
        for e, ep in enumerate(ds.episodes):
            assert arrays["observations"][e].tobytes() == ep.observations.tobytes()
            assert arrays["labels"][e].tolist() == ep.labels
            assert arrays["degraded"][e].tolist() == [int(d) for d in ep.degraded]
            assert [set(np.flatnonzero(row).tolist()) for row in arrays["gt_support"][e]] == ep.gt_support

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_save_refuses_non_finite_observations(self, tmp_path, bad):
        # load_dataset would refuse the file, and the Dataset constructor
        # refuses the set, so nothing is written at all.
        ds = generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5)
        obs = ds.episodes.observations.copy()
        obs[6, 3, 2] = bad
        path = tmp_path / "data.bin"
        path.write_text("an earlier save")
        with pytest.raises(ValueError, match=r"^episode 6 agent 3 has non-finite observations$"):
            save_dataset(str(path), replace(ds, episodes=replace(ds.episodes, observations=obs)))
        assert path.read_text() == "an earlier save"

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("self support", "is listed as its own supporter"),
            ("clean supported", "has supporters but is not degraded"),
            ("label 12", "has label 12, not one in [0, 10)"),
            ("non-finite prototype", None),
            ("overlapping splits", "episode 1 is listed in both splits.train and splits.val"),
            ("index 25", "splits.test index must be an integer in [0, 19], got 25"),
            ("index -1", "splits.val index must be an integer in [0, 19], got -1"),
        ],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, fault, message):
        # Each of these used to be saved; load_dataset then refused the file.
        # Now the World or Dataset constructor refuses it, with the message
        # load_dataset gives after the path, so there is nothing to save.
        if fault.startswith(("overlapping", "index")):
            ds = generate_dataset(make_world("srms", rng=Rng(3)), 20, seed=5)
            splits = {
                "overlapping splits": ([0, 1], [1], []),
                "index 25": (ds.train_idx, ds.val_idx, ds.test_idx + (25,)),
                "index -1": (ds.train_idx, (-1,) + ds.val_idx, ds.test_idx),
            }[fault]
            path = tmp_path / "data.bin"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                save_dataset(str(path), replace(ds, **dict(zip(("train_idx", "val_idx", "test_idx"), splits))))
            assert not path.exists()
            return
        ds = generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5)
        e = next(e for e, ep in enumerate(ds.episodes) if any(ep.degraded))
        ep = ds.episodes[e]
        agent = ep.degraded.index(fault != "clean supported")
        support, labels, prototypes = ds.episodes.support.copy(), ds.episodes.labels.copy(), ds.world.prototypes.copy()
        if fault == "self support":
            support[e, agent, agent] = True
        elif fault == "clean supported":
            support[e, agent, ep.degraded.index(True)] = True
        elif fault == "label 12":
            labels[e, agent] = 12
        else:
            prototypes[2, 20] = float("nan")
        episodes = replace(ds.episodes, support=support, labels=labels)
        path = tmp_path / "data.bin"
        where = f"episode {e} agent {agent} {message}" if message else "world prototypes contain non-finite values"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            save_dataset(str(path), replace(ds, world=replace(ds.world, prototypes=prototypes), episodes=episodes))
        assert not path.exists()

    # SHA-256 of the saved 20-episode dataset of each case, frozen so that
    # neither the generators nor the file format drift silently.
    PINNED_SHA256 = {
        "srms": "ee151cae108dc91ba5792808dc11ca4cd8fddd3345cc6b47a1c68bbf14c5a701",
        "mrms": "cc7c23233681101874d2b3627100e927c31d1c777e46262b9327819eea7400ff",
        "mrmps": "555e5c5efaa1273c6daac810cd0def190a44e9ca01f95b8878ba36fc266dc676",
        "triplet": "1deaefbc5c99f0f54031cf511db39944168adc91191aca9b99fb61c2dd24f7e0",
    }

    # The same at obs_dim 10 with three agents: an odd scene half (5), so
    # the padding between the two halves of one observation's draw is pinned.
    PINNED_SHA256_OBS10 = {
        "srms": "0f1559808eadcef7d23aeeadbda4be2ec689b9f0883ffb4d211ba52be470df9f",
        "mrms": "4d7599b68024ed233cde13273daf11d9ca00495bc4fd9646f60ea44941d508c2",
        "mrmps": "fcf4c3c8fa19e751cfc6b16e802984f57ca516894f3a7d56b77b62a5f7ae86be",
        "triplet": "bb66e96302b1c05d4f7bc010abb264dcd8cb9b70f3c97c354798083296dc6a0f",
    }

    # The same for 200 episodes at degrade_prob 0.9: mrmps then draws a
    # supporter's pick and overlap before the noise blocks in most episodes,
    # and srms and triplet draw a supporter or victim in most, so the
    # recorded block starts are pinned past those draws.
    PINNED_SHA256_DEGRADE09 = {
        "srms": "6b62e2b8f1ae0929ec7bf4fe16d43a9e738e19bad401473d38aa406d67859131",
        "mrms": "96a8e0eac7d722e03b1f2af504d12fb256471dd5102a7cb3e50ec51510e727d1",
        "mrmps": "699ef30cc4418a752616e063155dbb5d925a2a32ea77bdc2cd2f6f55e3e2ba3f",
        "triplet": "92a4ede3ecca4dc0b1fcd2df7f612a6ab785818bee78019261c433a57ca32217",
    }

    # The same for 200 episodes at the edges of the draws, pinned before the
    # draws were split into scalar draws and an array render: degrade_prob
    # 0 (no supporter pair and no mrmps mix in any block), degrade_prob 1
    # (mrms's cap loop in every episode, and no clean mrmps agent), and
    # mrmps overlap_frac 0 and 1 (every mix, or none, a supporter).
    PINNED_SHA256_EDGES = {
        ("srms", "degrade_prob", 0.0): "db825db1ea2e180048e8411fb3dc9aff3015d10ebe929e5b63d73752f30cbdf4",
        ("mrms", "degrade_prob", 0.0): "4b283574d5723ea6aa2dfbd40b96951c5acc778ea0a9eb74839b7c831c0bfef8",
        ("mrmps", "degrade_prob", 0.0): "ea029e4c04526101b8b4a1561f924b9bc0439a9db680ca1a91ff7d4bda22f120",
        ("triplet", "degrade_prob", 0.0): "913d0662bee783a42c802bb9c2dfac1e7a1b560dbe7e55d26699b21ae7a4b0bb",
        ("srms", "degrade_prob", 1.0): "cefe29817d31d66def384431c8bcc9a99c54da1091ec696ef67c12dbab0760fb",
        ("mrms", "degrade_prob", 1.0): "05bf1329e9329f19a56c403b33c4915a6fffd8559f763b2cd500c0217e1f1d9b",
        ("mrmps", "degrade_prob", 1.0): "8bdea8e902c368362496f6760cd641944d22a43426a30edabdd4c04965d386fa",
        ("triplet", "degrade_prob", 1.0): "5a359c3db851f47efd94a9e25bc31828c05760171fd55de208fdbe1074731e2d",
        ("mrmps", "overlap_frac", 0.0): "65e56051f347b8c1f0400c2561146f640beae66d5cb4b67f1255e2638bfc45d6",
        ("mrmps", "overlap_frac", 1.0): "e725d173893900b29cf9114c8fd253a9592cf37b6f3523b3f0dabd99ae2d71c1",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned(self, tmp_path, case):
        path = tmp_path / "data.bin"
        save_dataset(str(path), generate_dataset(make_world(case, rng=Rng(3)), 20, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256[case]

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned_odd_scene_dim(self, tmp_path, case):
        path = tmp_path / "data.bin"
        world = make_world(case, n_agents=3, obs_dim=10, rng=Rng(3))
        save_dataset(str(path), generate_dataset(world, 20, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256_OBS10[case]

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned_mostly_degraded(self, tmp_path, case):
        path = tmp_path / "data.bin"
        save_dataset(str(path), generate_dataset(make_world(case, degrade_prob=0.9, rng=Rng(3)), 200, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256_DEGRADE09[case]

    @pytest.mark.parametrize("case, field, value", sorted(PINNED_SHA256_EDGES))
    def test_saved_bytes_pinned_at_the_edges(self, tmp_path, case, field, value):
        path = tmp_path / "data.bin"
        save_dataset(str(path), generate_dataset(make_world(case, rng=Rng(3), **{field: value}), 200, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256_EDGES[case, field, value]

    def test_load_rejects_json_dataset_file(self, tmp_path):
        # The JSON document save_dataset wrote before the binary layout.
        path = tmp_path / "data.json"
        path.write_text(_json_dataset_text(_PROPERTY_DATASET))
        message = re.escape(f"{path}: not a groupcomm dataset file of this version: it starts with b'{{\"episod'") + "$"
        with pytest.raises(ValueError, match=message):
            load_dataset(str(path))

    @pytest.mark.parametrize("version", [0, 2, 2**32 - 1])
    def test_load_rejects_other_version(self, tmp_path, version):
        path = _saved_srms(tmp_path)
        header, arrays = read_dataset_file(path)
        write_dataset_file(path, header, arrays, version=version)
        with pytest.raises(ValueError, match=rf"data\.bin: unsupported dataset file version {version}, expected 1$"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # An observation row one value short or long.
            (
                lambda h, a: a.update(observations=a["observations"][:, :, :31]),
                r"the file holds 17956 bytes but its header implies 18356$",
            ),
            (lambda h, a: a.update(observations=np.zeros((10, 5, 33))), r"the file holds 18756 bytes but"),
            (lambda h, a: a.update(labels=a["labels"][:9]), r"the file holds \d+ bytes but its header implies"),
            (lambda h, a: h.update(n_episodes=11), r"the file holds \d+ bytes but its header implies"),
            (lambda h, a: h.update(n_classes=11), r"the file holds \d+ bytes but its header implies"),
            # Sizes beyond any int64 are compared as Python integers, not wrapped.
            (
                lambda h, a: h.update(obs_dim=2**40, scene_dim=2**39),
                r"the file holds 18377 bytes but its header implies 2417851639757023930745801$",
            ),
            (lambda h, a: h.update(n_episodes=10**400), r"the file holds 18755 bytes but its header implies 1350{397}\d{4}$"),
        ],
    )
    def test_load_rejects_misshapen_body(self, tmp_path, edit, message):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, edit)
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize("name", ["prototypes", "scene_codes", "observations", "labels", "degraded", "gt_support"])
    def test_load_rejects_body_array_one_row_short(self, tmp_path, name):
        # The size check catches a short array wherever it lies in the body,
        # and names the file's size and the size the header implies.
        path = _saved_srms(tmp_path)
        full = path.stat().st_size
        header, arrays = read_dataset_file(path)
        row = arrays[name][0].nbytes
        arrays[name] = arrays[name][1:]
        write_dataset_file(path, header, arrays)
        with pytest.raises(ValueError, match=rf"data\.bin: the file holds {full - row} bytes but its header implies {full}$"):
            load_dataset(str(path))

    @pytest.mark.parametrize("keep", [0, 7, 8, 15, 16, 100, -1])
    def test_load_rejects_truncated_file(self, tmp_path, keep):
        path = _saved_srms(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        size = len(blob[:keep])
        message = {
            0: r"not a groupcomm dataset file of this version: it starts with b''",
            7: r"not a groupcomm dataset file of this version: it starts with b'GRPCDAT'",
            8: r"not a groupcomm dataset file of this version: it starts with b'GRPCDATA'",
            15: r"not a groupcomm dataset file of this version",
            16: r"the header is not valid JSON: Expecting value",
            100: r"the header is not valid JSON: ",
            -1: rf"the file holds {size} bytes but its header implies {len(blob)}$",
        }[keep]
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_load_rejects_non_finite_observations(self, tmp_path, bad):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, lambda h, a: a["observations"].__setitem__((4, 1, 9), bad))
        with pytest.raises(ValueError, match=r"data\.bin: episode 4 agent 1 has non-finite observations$"):
            load_dataset(str(path))

    @pytest.mark.parametrize("label", [99, 10, -1, -(2**63), 2**63 - 1])
    def test_load_rejects_label_out_of_range(self, tmp_path, label):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, lambda h, a: a["labels"].__setitem__((6, 1), label))
        with pytest.raises(ValueError, match=rf"data\.bin: episode 6 agent 1 has label {label}, not one in \[0, 10\)$"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, a: h.update(case="zzz"), r"world case 'zzz' is not one of"),
            (lambda h, a: h.update(case=["srms"]), r"world case \['srms'\] is not one of"),
            (lambda h, a: h.update(case="triplet"), r"world n_agents must be a multiple of 3 for case 'triplet', got 5"),
            (lambda h, a: h.update(n_agents=10**30), rf"world n_agents {10**30} need {10**30} orthogonal scene signatures"),
            (lambda h, a: h.update(degrade_prob=None), r"world degrade_prob must be a real number, got None"),
            (lambda h, a: h.update(n_agents=2.0), r"world n_agents must be an integer >= 1, got 2\.0"),
            (lambda h, a: h.update(n_classes=0), r"world n_classes must be an integer >= 1, got 0"),
            (lambda h, a: h.update(obs_dim=31), r"world obs_dim must be an even integer >= 4, got 31"),
            (lambda h, a: h.update(scene_dim=8), r"world scene_dim must be obs_dim // 2 = 16, got 8"),
            # A float scene_dim equals obs_dim // 2 but cannot shape or index an array.
            (lambda h, a: h.update(scene_dim=16.0), r"world scene_dim must be obs_dim // 2 = 16, got 16\.0"),
            (lambda h, a: h.update(n_agents=17), r"world n_agents 17 need 17 orthogonal scene signatures"),
            (lambda h, a: h.update(n_agents=1), r"world n_agents must be >= 2 for case 'srms' when degrade_prob > 0"),
            (lambda h, a: h.update(degrade_prob=float("nan")), r"world degrade_prob must lie in \[0, 1\], got nan"),
            (lambda h, a: h.update(overlap_frac="half"), r"world overlap_frac must be a real number, got 'half'"),
            (lambda h, a: h.update(noise_sigma=True), r"world noise_sigma must be a real number, got True"),
            (lambda h, a: h.update(noise_sigma=float("inf")), r"world noise_sigma must be positive and finite"),
            # 401 digits: JSON holds it as an int that no float64 can.
            (lambda h, a: h.update(noise_sigma=10**400), r"world noise_sigma must be a finite float64, got int beyond its range"),
            (lambda h, a: a["prototypes"].__setitem__((4, 20), np.nan), r"world prototypes contain non-finite values"),
            (lambda h, a: a["scene_codes"].__setitem__((0, 3), -float("inf")), r"world scene_codes contain non-finite"),
        ],
    )
    def test_load_rejects_world_that_make_world_cannot_build(self, tmp_path, edit, message):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, edit)
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a["degraded"].__setitem__((6, 2), 2), r"has degraded flag 2, not 0 or 1"),
            (lambda a: a["gt_support"].__setitem__((6, 2, 1), 2), r"has a gt_support entry other than 0 or 1"),
            (lambda a: a["gt_support"].__setitem__((6, 2, 1), 1), r"has supporters but is not degraded"),
        ],
    )
    def test_load_rejects_inconsistent_ground_truth(self, tmp_path, edit, message):
        path = _saved_srms(tmp_path, degrade_prob=0.0)
        edit_dataset_file(path, lambda h, a: edit(a))
        with pytest.raises(ValueError, match=r"data\.bin: episode 6 agent 2 " + message + "$"):
            load_dataset(str(path))

    @pytest.mark.parametrize("members", [[4], [1, 4]])
    def test_load_rejects_agent_listed_as_its_own_supporter(self, tmp_path, members):
        # No agent transfers its feature to itself, so no policy could pick such a supporter.
        path = _saved_srms(tmp_path, degrade_prob=0.0)
        header, arrays = read_dataset_file(path)
        arrays["degraded"][6, 4] = 1
        arrays["gt_support"][6, 4, members] = 1
        write_dataset_file(path, header, arrays)
        with pytest.raises(ValueError, match=r"data\.bin: episode 6 agent 4 is listed as its own supporter$"):
            load_dataset(str(path))
        arrays["gt_support"][6, 4, 4] = 0
        write_dataset_file(path, header, arrays)
        episode = load_dataset(str(path)).episodes[6]
        assert (episode.gt_support[4], episode.degraded[4], episode.needs_comm[4]) == (set(members) - {4}, True, True)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.pop("n_episodes"), r"the header has no 'n_episodes' field"),
            (lambda h: h.pop("noise_sigma"), r"the header has no 'noise_sigma' field"),
            (lambda h: h.pop("splits"), r"the header has no 'splits' field"),
            (lambda h: h.update(colour="red"), r"the header has an unknown 'colour' field"),
            (lambda h: h.update(prototypes=[]), r"the header has an unknown 'prototypes' field"),
            (lambda h: h.update(n_episodes=-1), r"n_episodes must be an integer >= 0, got -1"),
            (lambda h: h.update(n_episodes=10.0), r"n_episodes must be an integer >= 0, got 10\.0"),
            (lambda h: h.update(n_episodes=True), r"n_episodes must be an integer >= 0, got True"),
            (lambda h: h.update(splits=[]), r"splits must be a JSON object, got list"),
            (lambda h: h["splits"].pop("val"), r"splits has no 'val' field"),
            (lambda h: h["splits"].update(extra=[]), r"splits has an unknown 'extra' field"),
            (lambda h: h["splits"].update(test=5), r"splits\.test must be a JSON array, got int"),
        ],
    )
    def test_load_names_file_and_problem_of_malformed_header(self, tmp_path, edit, message):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, lambda h, a: edit(h))
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"[]", r"the header must be a JSON object, got list"),
            (b'{"case": "srms",', r"the header is not valid JSON: Expecting property name"),
            (b'{"case": "\xff"}', r"the header is not valid JSON: 'utf-8' codec can't decode"),
            (b"\xef\xbb\xbf{}", r"the header is not valid JSON: Unexpected UTF-8 BOM"),
            (b"[" * 100000 + b"]" * 100000, r"the header is not valid JSON: maximum recursion depth exceeded"),
            (b"1" * 5000, r"the header is not valid JSON: Exceeds the limit \(4300 digits\)"),
        ],
    )
    def test_load_names_file_of_header_that_is_not_a_json_object(self, tmp_path, text, message):
        path = _saved_srms(tmp_path)
        path.write_bytes(DATASET_PREFIX.pack(DATASET_MAGIC, 1, len(text)) + text)
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.update(n_agents="5"), r"world n_agents must be an integer >= 1, got '5'"),
            (lambda h: h.update(obs_dim="32"), r"world obs_dim must be an integer >= 1, got '32'"),
            (lambda h: h.update(n_classes=False), r"world n_classes must be an integer >= 1, got False"),
            (lambda h: h.update(scene_dim="16"), r"world scene_dim must be obs_dim // 2 = 16, got '16'"),
            (lambda h: h.update(scene_dim=True), r"world scene_dim must be obs_dim // 2 = 16, got True"),
            (lambda h: h.update(degrade_prob="0.5"), r"world degrade_prob must be a real number, got '0\.5'"),
            (lambda h: h.update(overlap_frac=False), r"world overlap_frac must be a real number, got False"),
            (lambda h: h.update(n_episodes="10"), r"n_episodes must be an integer >= 0, got '10'"),
            (lambda h: h["splits"].update(train=["0"]), r"splits\.train index must be an integer in \[0, 9\], got '0'"),
            (lambda h: h["splits"].update(val=[True]), r"splits\.val index must be an integer in \[0, 9\], got True"),
        ],
    )
    def test_load_rejects_strings_and_booleans_as_numbers(self, tmp_path, edit, message):
        # A JSON string or boolean where the header holds a number is refused, never converted.
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, lambda h, a: edit(h))
        with pytest.raises(ValueError, match=r"data\.bin: " + message + "$"):
            load_dataset(str(path))

    def test_load_names_file_of_bytes_that_are_not_utf8(self, tmp_path):
        # Bytes that decode as no text are quoted, not decoded, in the message.
        path = tmp_path / "data.bin"
        path.write_bytes(b'{"world": "\xff"}')
        with pytest.raises(ValueError, match=r"""data\.bin: not a groupcomm dataset file of this version: it starts with b'\{"world"'$"""):
            load_dataset(str(path))
        path.write_bytes(b"\xff" * 20)
        with pytest.raises(ValueError, match=r"data\.bin: not a groupcomm dataset file of this version: it starts with b'(\\xff){8}'$"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "split, value, message",
        [
            ("test", [999], r"splits\.test index must be an integer in \[0, 9\], got 999"),
            ("test", [-1], r"splits\.test index must be an integer in \[0, 9\], got -1"),
            ("val", [8.0], r"splits\.val index must be an integer in \[0, 9\], got 8\.0"),
            ("test", [9, 9], r"episode 9 is listed twice in splits\.test"),
            ("test", [9, 0], r"episode 0 is listed in both splits\.train and splits\.test"),
        ],
    )
    def test_load_rejects_bad_splits(self, tmp_path, split, value, message):
        path = _saved_srms(tmp_path)
        edit_dataset_file(path, lambda h, a: h["splits"].__setitem__(split, value))
        with pytest.raises(ValueError, match=r"data\.bin: " + message):
            load_dataset(str(path))

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(mutation=_MUTATIONS)
    @example(mutation=("set", "degrade_prob", "NaN"))
    @example(mutation=("set", "noise_sigma", "1e400"))
    @example(mutation=("set", "noise_sigma", "1" + "0" * 400))
    @example(mutation=("set", "case", '"\\ud800"'))
    @example(mutation=("set", "case", "[" * 100000 + "]" * 100000))
    @example(mutation=("set", "case", "[" * 900 + "]" * 900))  # parses, and its message would quote it
    @example(mutation=("set", "n_episodes", "1" * 5000))
    @example(mutation=("set", "n_episodes", "18446744073709551616"))
    @example(mutation=("set", "scene_dim", "2.0"))
    @example(mutation=("set", "degrade_prob", "0.25"))  # loads
    @example(mutation=("set", "splits", '{"train": [], "val": [], "test": []}'))  # loads
    @example(mutation=("set", "colour", "[]"))
    @example(mutation=("drop", "splits"))
    @example(mutation=("overwrite", 0, b"\xff\xff\xff\xff\xff\xff\xf7\x7f"))  # a NaN prototype
    @example(mutation=("overwrite", len(_BASE), b"\x02"))  # the last support entry
    @example(mutation=("splice", 8, 1, b"\x07"))  # the version
    @example(mutation=("splice", 12, 1, b"\x00"))  # the header length
    @example(mutation=("splice", 12, 4, b"\xff\xff\xff\xff"))
    @example(mutation=("splice", 0, 0, b"\xef\xbb\xbf"))  # a BOM before the magic
    @example(mutation=("truncate", 15))
    @example(mutation=("truncate", _HEADER_END))
    def test_mutated_file_loads_or_names_itself(self, mutation):
        # Each mutation loads, and then saves and loads again unchanged, or
        # raises a ValueError that names the file; no other exception escapes.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.bin")
            Path(path).write_bytes(_mutated(mutation))
            outcome = _load_outcome(path)
            if isinstance(outcome, str):
                assert outcome.startswith(f"{path}: ")
            else:
                again = os.path.join(tmp, "again.bin")
                save_dataset(again, outcome)
                _assert_identical(load_dataset(again), outcome)
