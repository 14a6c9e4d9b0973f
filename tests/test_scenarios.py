"""Scenario generators: constructions, ground-truth invariants, statistics."""

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from groupcomm import scenarios
from groupcomm.densemath import Rng
from groupcomm.scenarios import (
    CASES,
    NO_SUPPORT,
    Dataset,
    Episode,
    World,
    generate_dataset,
    iter_episodes,
    load_dataset,
    make_world,
    save_dataset,
    split_bounds,
)

from helpers import one_episode


def linear_probe_accuracy(x, y, n_classes, ridge=1e-3):
    """Closed-form ridge regression to one-hot targets; argmax readout."""
    x = np.asarray(x)
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = 1.0
    w = np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ onehot)
    return float(np.mean(np.argmax(x @ w, axis=1) == np.asarray(y)))


def _edited(text: str, edit) -> str:
    """``text`` parsed as JSON, changed in place by ``edit``, and dumped again."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _one_shot_doc(ds) -> dict:
    """The document ``save_dataset`` writes for ``ds``, built in one piece for ``json.dump``."""
    w = ds.world
    return {
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


# Ground truth for the writer's property test: two agents with four-float
# observations, whose values the test draws.
_PROPERTY_DATASET = generate_dataset(make_world("srms", n_agents=2, obs_dim=4, rng=Rng(3)), 10, seed=5)

# save_dataset writes an episode through orjson when every observation's
# magnitude lies in [1e-4, 1e16).  Half the drawn episodes keep to that
# range; the others mix in floats of every magnitude, so one saved dataset
# can take both paths.
_IN_RANGE = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
    st.sampled_from([1e-4, -9999999999999998.0]),
)
_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.999999999999999e-05, 1e-5, 1e16, -1e16]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
)
# World arrays and scalars of every magnitude the writer must respell, with
# scalars kept where load_dataset accepts them.
_WORLD_ARRAY = st.one_of(st.just(0.0), _IN_RANGE, _ANY_FINITE)
_UNIT_REALS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-05, 1e-4, 0.5, 1.0, 0, 1]),
    st.floats(0.0, 1.0),
)
_NOISE_SIGMAS = st.one_of(
    st.sampled_from([5e-324, 1e-5, 1e16, 1e300, 1.7976931348623157e308, 3]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
_OBSERVATIONS = st.one_of(
    st.lists(_IN_RANGE, min_size=8, max_size=8),
    st.lists(st.one_of(_IN_RANGE, _ANY_FINITE), min_size=8, max_size=8),
).map(lambda v: np.array(v).reshape(2, 4))

# The loader's differential property mutates one node or a few bytes of this
# file (``json.dumps(doc, sort_keys=True)``, which is what save_dataset writes).
_DIFF_BASE = json.dumps(_one_shot_doc(_PROPERTY_DATASET), sort_keys=True)
_RAW = "\x00raw"  # stands in for the raw JSON text of a mutated node


def _node_paths(node, prefix=()):
    """The path (keys and indices) and value of every node below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from _node_paths(child, prefix + (key,))


_BASE_NODES = list(_node_paths(json.loads(_DIFF_BASE)))
_BASE_PATHS = [path for path, _ in _BASE_NODES]
# Most nodes are floats in an array; the rest are drawn as often as they are.
_FLOAT_PATHS = [path for path, value in _BASE_NODES if type(value) is float]
_OTHER_PATHS = [path for path, value in _BASE_NODES if type(value) is not float]
_DICT_PATHS = [()] + [path for path, value in _BASE_NODES if isinstance(value, dict)]

# Raw JSON texts for a mutated node: numbers of every width and spelling,
# literals orjson refuses, strings, containers and deep nesting.
_RAW_VALUES = st.one_of(
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-1e-400", "-0", "-0.0", "true", "false",
        "null", "[]", "{}", '""', '"srms"', '"\\u0073rms"', '"\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"',
        "18446744073709551615", "18446744073709551616", "-9223372036854775808", "-9223372036854775809",
        "1" + "0" * 30, "1e30", "1" + "0" * 400, "1" * 5000, "[" * 100000 + "]" * 100000,
    ]),
    st.integers().map(str),
    st.integers(2**63 - 2, 2**65).map(str),
    st.integers(-(2**65), -(2**63) + 2).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.text(max_size=4).map(json.dumps),
    st.lists(st.integers(-2, 11), max_size=4).map(json.dumps),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4).map(json.dumps),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
)

# A mutation is ("set", path, raw) (a new key in a dict adds a field),
# ("drop", path), or ("splice", pos, cut, insert, crlf): ``cut`` bytes at
# ``pos`` replaced by ``insert``, in the file as written or re-indented with
# CRLF line ends.
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_FLOAT_PATHS), _RAW_VALUES),
    st.tuples(st.just("set"), st.sampled_from(_OTHER_PATHS), _RAW_VALUES),
    st.tuples(
        st.just("set"),
        st.tuples(st.sampled_from(_DICT_PATHS), st.sampled_from(["colour", "x", "labels", "world"])).map(
            lambda t: t[0] + (t[1],)
        ),
        _RAW_VALUES,
    ),
    st.tuples(st.just("drop"), st.sampled_from(_BASE_PATHS)),
    st.tuples(
        st.just("splice"),
        st.integers(0, len(_DIFF_BASE)),
        st.integers(0, 3),
        st.one_of(st.binary(max_size=3), st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xed\xa0\x80", b"\r", b"9e9"])),
        st.booleans(),
    ),
)


def _mutated(mutation) -> bytes:
    """The bytes of ``_DIFF_BASE`` with ``mutation`` applied."""
    kind, *args = mutation
    doc = json.loads(_DIFF_BASE)
    if kind == "splice":
        pos, cut, insert, crlf = args
        data = (json.dumps(doc, indent=1).replace("\n", "\r\n") + "\r\n" if crlf else _DIFF_BASE).encode()
        pos %= len(data) + 1
        return data[:pos] + insert + data[pos + cut :]
    *parents, last = args[0]
    node = doc
    for key in parents:
        node = node[key]
    if kind == "drop":
        del node[last]
        return json.dumps(doc).encode()
    node[last] = _RAW
    return json.dumps(doc).replace(json.dumps(_RAW), args[1]).encode()


def _load_outcome(path: str):
    """``load_dataset(path)``, or the message of the ValueError it raises."""
    try:
        return load_dataset(path)
    except ValueError as err:
        return str(err)


def _refuse(data):
    raise orjson.JSONDecodeError("refused, so that json.load reads the file", "", 0)


def _load_through_json_only(path: str):
    """``_load_outcome(path)`` with orjson refusing every file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", _refuse)
        return _load_outcome(path)


def _load_through_detailed_checks_only(path: str):
    """``_load_outcome(path)`` with the whole-list episode checks declining every record."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_accept_episodes", lambda records, world: None)
        return _load_outcome(path)


def _holds_float(value) -> bool:
    """Whether ``value`` is, or holds at any depth, a float or an array."""
    if isinstance(value, dict):
        return any(map(_holds_float, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_float, value))
    return isinstance(value, (float, np.floating, np.ndarray))


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
            for _ in range(2500):
                ep = one_episode(world, rng)
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
    def test_split_bounds_and_iterator_are_the_dataset(self, n):
        world = make_world("mrmps", rng=Rng(26))
        ds = generate_dataset(world, n, seed=4)
        val_start, test_start = split_bounds(n)
        assert ds.val_idx == list(range(val_start, test_start))
        assert ds.test_idx == list(range(test_start, n))
        drawn = list(iter_episodes(world, n, seed=4))
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
    """Bit-equal observations, each array owning its rows, and equal ground truth, episode by episode."""
    got = list(got)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.observations.base is None
        assert a.observations.shape == b.observations.shape
        assert a.observations.tobytes() == b.observations.tobytes()
        assert (a.labels, a.degraded, a.needs_comm, a.gt_support) == (b.labels, b.degraded, b.needs_comm, b.gt_support)


class TestBlockRender:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_renders_each_episode_as_alone(self, monkeypatch, case, block):
        world = make_world(case, degrade_prob=0.6, rng=Rng(40))
        rng = Rng(41)
        alone = [one_episode(world, rng) for _ in range(130)]
        monkeypatch.setattr(scenarios, "RENDER_BLOCK", block)
        for n in (1, 63, 64, 65, 130):
            _assert_same_episodes(iter_episodes(world, n, seed=41), alone[:n])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block", [7, 64])
    def test_start_yields_the_tail_of_the_stream(self, monkeypatch, case, block):
        monkeypatch.setattr(scenarios, "RENDER_BLOCK", block)
        world = make_world(case, degrade_prob=0.6, rng=Rng(42))
        full = list(iter_episodes(world, 130, seed=43))
        for start in (0, 1, 7, 63, 64, 65, 129, 130):  # on block boundaries and off them
            _assert_same_episodes(iter_episodes(world, 130, seed=43, start=start), full[start:])

    def test_odd_scene_dim_renders_as_alone(self):
        # An odd scene half drops each block's spare sin term.
        world = make_world("mrmps", obs_dim=22, rng=Rng(44))
        rng = Rng(45)
        alone = [one_episode(world, rng) for _ in range(70)]
        _assert_same_episodes(iter_episodes(world, 70, seed=45), alone)

    def test_start_outside_the_set_names_it(self):
        world = make_world("srms", rng=Rng(46))
        for start in (-1, 11):
            with pytest.raises(ValueError, match=rf"start must lie in \[0, 10\], got {start}"):
                next(iter_episodes(world, 10, seed=0, start=start))


def _assert_frozen_support(episodes) -> int:
    """Check every support is a frozenset and every empty one the shared NO_SUPPORT; count the non-empty ones."""
    held = 0
    for ep in episodes:
        for support in ep.gt_support:
            assert type(support) is frozenset
            if support:
                held += 1
            else:
                assert support is NO_SUPPORT
    return held


class TestSupportSets:
    @pytest.mark.parametrize("case", CASES)
    def test_generated_and_loaded_supports_are_frozen(self, tmp_path, case):
        ds = generate_dataset(make_world(case, degrade_prob=0.6, rng=Rng(30)), 200, seed=8)
        assert _assert_frozen_support(ds.episodes) > 0
        path = str(tmp_path / "data.json")
        save_dataset(path, ds)
        assert _assert_frozen_support(load_dataset(path).episodes) > 0

    def test_episode_has_no_instance_dict(self):
        ep = one_episode(make_world("srms", rng=Rng(31)), Rng(1))
        assert not hasattr(ep, "__dict__")
        with pytest.raises(AttributeError):
            ep.note = "an attribute the class does not declare"

    def test_held_srms_episode_stays_small(self):
        # Per-agent mutable sets and an instance __dict__ held 3087 B per
        # srms episode; frozen supports with one shared empty set hold about
        # 2050 B, most of it the (5, 32) observation array.
        world = make_world("srms", rng=Rng(32))
        one_episode(world, Rng(0))  # warm any first-call caches outside the traced span
        n = 4000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            episodes = list(iter_episodes(world, n, seed=5))
            per_episode = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(episodes) == n
        assert per_episode < 2600


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
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(_one_shot_doc(ds), fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(observations=st.lists(_OBSERVATIONS, min_size=1, max_size=4))
    @example(  # one episode for each path: orjson, then json.dumps for 1e-05 and for 1e+16
        observations=[np.full((2, 4), 0.5), np.full((2, 4), 1e-5), np.full((2, 4), -1e16)]
    )
    def test_bytes_match_json_dumps_for_any_finite_observation(self, observations):
        # The writer formats in-range episodes through orjson and the rest
        # through json.dumps; either way the file must be json.dumps's bytes.
        base = _PROPERTY_DATASET
        episodes = [replace(base.episodes[i], observations=obs) for i, obs in enumerate(observations)]
        ds = Dataset(base.world, episodes, [0], list(range(1, len(episodes))), [])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.json")
            save_dataset(path, ds)
            with open(path, "rb") as fh:
                saved = fh.read()
            loaded = load_dataset(path)
        assert saved == (json.dumps(_one_shot_doc(ds), sort_keys=True) + "\n").encode()
        for ep, back in zip(ds.episodes, loaded.episodes, strict=True):
            np.testing.assert_array_equal(back.observations, ep.observations)
            assert np.array_equal(np.signbit(back.observations), np.signbit(ep.observations))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        prototypes=st.lists(_WORLD_ARRAY, min_size=40, max_size=40),
        scene_codes=st.lists(_WORLD_ARRAY, min_size=4, max_size=4),
        degrade_prob=_UNIT_REALS,
        overlap_frac=_UNIT_REALS,
        noise_sigma=_NOISE_SIGMAS,
    )
    @example(  # zeros, a subnormal, 1e-05 and 1e+16 in both arrays and in the scalars
        prototypes=[0.0, -0.0, 5e-324, 1e-5, -1e16, 0.5] + [0.25] * 34,
        scene_codes=[1e-5, 0.0, 1e16, -2.5e-310],
        degrade_prob=1e-5,
        overlap_frac=5e-324,
        noise_sigma=1e16,
    )
    def test_bytes_match_json_dumps_for_any_finite_world(
        self, prototypes, scene_codes, degrade_prob, overlap_frac, noise_sigma
    ):
        # The world's arrays go through orjson and its scalars through repr;
        # the file must still be json.dumps's bytes, and load back bit for bit.
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
            path = os.path.join(tmp, "data.json")
            save_dataset(path, ds)
            with open(path, "rb") as fh:
                saved = fh.read()
            loaded = load_dataset(path)
        assert saved == (json.dumps(_one_shot_doc(ds), sort_keys=True) + "\n").encode()
        _assert_identical(loaded, ds)

    @pytest.mark.parametrize("case", CASES)
    def test_generated_files_save_without_json_dumps_formatting_floats(self, tmp_path, monkeypatch, case):
        # Every float a generated dataset holds is formatted by orjson, or by
        # repr where orjson spells it otherwise; json.dumps formats none.
        ds = generate_dataset(make_world(case, degrade_prob=0.6, rng=Rng(3)), 40, seed=5)
        ds.episodes[3].observations[0, :3] = (1e-5, -3e16, 0.0)
        reference = (json.dumps(_one_shot_doc(ds), sort_keys=True) + "\n").encode()
        dumps = json.dumps

        def dumps_no_float(value, *args, **kwargs):
            assert not _holds_float(value), f"json.dumps formatted a float in {str(value)[:80]}"
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps_no_float)
        path = tmp_path / "data.json"
        save_dataset(str(path), ds)
        assert path.read_bytes() == reference

    @pytest.mark.parametrize(
        "convert",
        [lambda a: (a * 1000).astype(np.float32), lambda a: (a * 1000).astype(np.int64), np.asfortranarray],
        ids=["float32", "int64", "column-major"],
    )
    def test_bytes_match_json_dumps_for_other_arrays(self, tmp_path, convert):
        # orjson spells float32 and integer arrays in their own way, so only
        # float64 observations go through it; it also needs them row-major.
        ds = generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5)
        for ep in ds.episodes:
            ep.observations = convert(ep.observations)
        path = tmp_path / "data.json"
        save_dataset(str(path), ds)
        assert path.read_bytes() == (json.dumps(_one_shot_doc(ds), sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_save_refuses_non_finite_observations(self, tmp_path, bad):
        # load_dataset would refuse the file, so nothing is written at all.
        ds = generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5)
        ds.episodes[6].observations[3, 2] = bad
        path = tmp_path / "data.json"
        path.write_text("an earlier save")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: episode 6 agent 3 has non-finite observations"):
            save_dataset(str(path), ds)
        assert path.read_text() == "an earlier save"

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

    # The same for 200 episodes at degrade_prob 0.9: mrmps then draws a
    # supporter's pick and overlap between agents' noise blocks in most
    # episodes, so the recorded block starts are pinned past those draws.
    PINNED_SHA256_DEGRADE09 = {
        "srms": "78042441597a2c25f59da253468af81d3434d1397a3b2266ddfc867f63228086",
        "mrms": "527b6226160d01866a326dfc05cb08604711d6df733f0f280af407ad2f3c4bb6",
        "mrmps": "1ee3a8b8058a18809e038603d5ebc343fa32e77bbb6f4c4e77f4f41b58366059",
        "triplet": "1d3da270585b0b93bfa55a233d3eb72c17d4f863c2e9d100bdd26260aa9d6be6",
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

    @pytest.mark.parametrize("case", CASES)
    def test_saved_bytes_pinned_mostly_degraded(self, tmp_path, case):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world(case, degrade_prob=0.9, rng=Rng(3)), 200, seed=5))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256_DEGRADE09[case]

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
            (lambda w: w.update(n_agents=1), r"world n_agents must be >= 2 for case 'srms' when degrade_prob > 0"),
            (lambda w: w.update(degrade_prob=float("nan")), r"world degrade_prob must lie in \[0, 1\], got nan"),
            (lambda w: w.update(overlap_frac="half"), r"world overlap_frac must be a real number, got 'half'"),
            (lambda w: w.update(noise_sigma=True), r"world noise_sigma must be a real number, got True"),
            (lambda w: w.update(noise_sigma=float("inf")), r"world noise_sigma must be positive and finite"),
            # World(**fields) used to raise a bare TypeError for an unknown field.
            (lambda w: w.update(colour="red"), r"world has an unknown 'colour' field"),
            # Integers beyond float64 used to escape as OverflowError, naming no file.
            (lambda w: w["prototypes"][2].__setitem__(1, 10**400), r"world prototypes hold an integer beyond the float64 range"),
            (lambda w: w["scene_codes"][0].__setitem__(3, -(10**400)), r"world scene_codes hold an integer beyond the float64 range"),
            (lambda w: w["prototypes"][4].__setitem__(20, float("nan")), r"world prototypes contain non-finite values"),
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
            # Integer flags equal the booleans in Python and used to load, then saved as 0 where false was.
            ("degraded", [False, False, 0, False, False], r"degraded\[2\] is 0, not a JSON boolean"),
            ("needs_comm", [False, False, False, 0, False], r"needs_comm\[3\] is 0, not a JSON boolean"),
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

    @pytest.mark.parametrize("support", [[4], [1, 4]])
    def test_load_rejects_agent_listed_as_its_own_supporter(self, tmp_path, support):
        # Agent 4 degraded and supported by itself used to load as {4}: a
        # supporter no policy can pick, since no agent transfers to itself.
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", degrade_prob=0.0, rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        episode = doc["episodes"][6]
        episode["degraded"][4] = episode["needs_comm"][4] = True
        episode["gt_support"][4] = support
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data\.json: episode 6 agent 4 is listed as its own supporter in gt_support\[4\]"):
            load_dataset(str(path))
        episode["gt_support"][4] = [1]
        path.write_text(json.dumps(doc))
        assert load_dataset(str(path)).episodes[6].gt_support[4] == {1}

    @pytest.mark.parametrize("support, twice", [([1, 1], 1), ([2, 0, 3, 0], 0)])
    def test_load_rejects_supporter_listed_twice(self, tmp_path, support, twice):
        # A set used to drop the repeat, so a load and a save rewrote the file.
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", degrade_prob=0.0, rng=Rng(3)), 10, seed=5))
        doc = json.loads(path.read_text())
        episode = doc["episodes"][6]
        episode["degraded"][4] = episode["needs_comm"][4] = True
        episode["gt_support"][4] = support
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"data\.json: episode 6 agent 4 lists supporter {twice} twice in gt_support\[4\]"):
            load_dataset(str(path))
        episode["gt_support"][4] = sorted(set(support))
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        again = tmp_path / "again.json"
        save_dataset(str(again), load_dataset(str(path)))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text[:-40], r"data\.json: not valid JSON: "),
            (lambda text: "[" + text + "]", r"data\.json: the dataset must be a JSON object, got list"),
            (lambda text: _edited(text, lambda d: d.pop("world")), r"data\.json: the dataset has no 'world' field"),
            (lambda text: _edited(text, lambda d: d.pop("episodes")), r"data\.json: the dataset has no 'episodes' field"),
            (lambda text: _edited(text, lambda d: d.pop("splits")), r"data\.json: the dataset has no 'splits' field"),
            (lambda text: _edited(text, lambda d: d["episodes"][3].pop("labels")), r"data\.json: episode 3 has no 'labels' field"),
            (lambda text: _edited(text, lambda d: d["episodes"].__setitem__(8, [])), r"data\.json: episode 8 must be a JSON object, got list"),
            (lambda text: _edited(text, lambda d: d["world"].pop("noise_sigma")), r"data\.json: world has no 'noise_sigma' field"),
            (lambda text: _edited(text, lambda d: d["world"].pop("scene_codes")), r"data\.json: world has no 'scene_codes' field"),
            (lambda text: _edited(text, lambda d: d["splits"].pop("val")), r"data\.json: splits has no 'val' field"),
            (lambda text: _edited(text, lambda d: d.update(episodes=3)), r"data\.json: episodes must be a JSON array, got int"),
            (lambda text: _edited(text, lambda d: d.update(episodes={})), r"data\.json: episodes must be a JSON array, got dict"),
            (lambda text: _edited(text, lambda d: d["splits"].update(test=5)), r"data\.json: splits\.test must be a JSON array, got int"),
            (
                lambda text: _edited(text, lambda d: d["episodes"][2].update(gt_support=[3, [], [], [], []])),
                r"data\.json: episode 2 gt_support\[0\] must be a JSON array, got int",
            ),
            (
                lambda text: _edited(text, lambda d: d["episodes"][2].update(labels=7)),
                r"data\.json: episode 2 labels must be a JSON array, got int",
            ),
            (lambda text: _edited(text, lambda d: d.update(notes=[])), r"data\.json: the dataset has an unknown 'notes' field"),
            (lambda text: _edited(text, lambda d: d["episodes"][5].update(pose=0)), r"data\.json: episode 5 has an unknown 'pose' field"),
            (lambda text: _edited(text, lambda d: d["splits"].update(extra=[])), r"data\.json: splits has an unknown 'extra' field"),
            # np.asarray used to raise OverflowError, naming no file.
            (
                lambda text: _edited(text, lambda d: d["episodes"][4]["observations"][1].__setitem__(9, 10**400)),
                r"data\.json: episode 4 observations hold an integer beyond the float64 range",
            ),
            # json.load used to raise RecursionError, naming no file.
            (lambda text: "[" * 100000 + "]" * 100000, r"data\.json: JSON nests too deeply to load"),
            (lambda text: text[:-2] + ', "notes": ' + "[" * 100000 + "]" * 100000 + "}", r"data\.json: JSON nests too deeply"),
        ],
    )
    def test_load_names_file_and_problem_of_malformed_document(self, tmp_path, edit, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), generate_dataset(make_world("srms", rng=Rng(3)), 10, seed=5))
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=message):
            load_dataset(str(path))

    @pytest.mark.parametrize("read", [_load_outcome, _load_through_json_only], ids=["orjson", "json.load"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            # numpy used to read these as [0.5, 1.0, 7.0, 1000.0], and a world prototype false as 0.0.
            (
                lambda d: d["episodes"][3]["observations"].__setitem__(1, ["0.5", True, " 7 ", "1e3"]),
                r"episode 3 observations hold '0\.5', not a JSON number",
            ),
            (lambda d: d["episodes"][3]["observations"][0].__setitem__(2, False), r"episode 3 observations hold False, not a JSON number"),
            (lambda d: d["world"]["prototypes"][2].__setitem__(1, False), r"world prototypes hold False, not a JSON number"),
            (lambda d: d["world"]["scene_codes"][1].__setitem__(0, "1"), r"world scene_codes hold '1', not a JSON number"),
        ],
    )
    def test_load_rejects_strings_and_booleans_as_numbers(self, tmp_path, read, edit, message):
        path = tmp_path / "data.json"
        save_dataset(str(path), _PROPERTY_DATASET)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        outcome = read(str(path))
        assert isinstance(outcome, str) and re.fullmatch(re.escape(str(path)) + ": " + message, outcome), outcome

    def test_load_names_file_of_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_bytes(b'{"world": "\xff"}')
        with pytest.raises(ValueError, match=r"data\.json: not valid JSON: 'utf-8' codec can't decode"):
            load_dataset(str(path))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(mutation=_MUTATIONS)
    @example(mutation=("set", ("episodes", 4, "observations", 1, 2), "NaN"))
    @example(mutation=("set", ("episodes", 4, "observations", 1, 2), "1e400"))
    @example(mutation=("set", ("episodes", 4, "observations", 1, 2), "1" + "0" * 400))
    @example(mutation=("set", ("episodes", 1, "observations", 0, 0), "123456789012345678901234567890"))
    @example(mutation=("set", ("world", "case"), '"\\ud800"'))
    @example(mutation=("splice", 0, 0, b"\xef\xbb\xbf", False))  # a BOM
    @example(mutation=("splice", 3, 0, b"\xff", False))  # invalid UTF-8 in the first key
    @example(mutation=("set", ("episodes", 6, "labels", 0), str(2**64)))
    @example(mutation=("set", ("world", "noise_sigma"), str(10**30)))
    @example(mutation=("set", ("world", "noise_sigma"), "1e30"))
    @example(mutation=("splice", 0, len(_DIFF_BASE), b"[" * 100000 + b"]" * 100000, False))
    @example(mutation=("set", ("world", "colour"), "[" * 100000 + "]" * 100000))
    @example(mutation=("set", ("episodes", 2, "labels"), "[" * 2000 + "]" * 2000))
    @example(mutation=("set", ("world", "case"), "[" * 100000 + "]" * 100000))  # its message would quote it
    @example(mutation=("set", ("episodes", 3, "labels", 1), "1" * 5000))  # beyond int's 4300-digit limit
    @example(mutation=("splice", 0, 1, b"", True))  # a CRLF file with a syntax error on its second line
    @example(mutation=("splice", 0, 0, b"", True))  # the same file, valid
    @example(mutation=("set", ("episodes", 4, "observations", 1, 2), '"0.5"'))
    @example(mutation=("set", ("episodes", 4, "observations", 1, 2), "true"))
    @example(mutation=("set", ("episodes", 4, "observations", 0, 0), "false"))
    @example(mutation=("set", ("episodes", 4, "observations", 0, 0), "1.0"))  # loads; the whole-list checks decline it
    @example(mutation=("set", ("episodes", 4, "observations", 0, 0), "-0.0"))
    @example(mutation=("set", ("episodes", 4, "observations", 0, 0), "7"))
    @example(mutation=("set", ("world", "prototypes", 2, 1), "false"))
    @example(mutation=("set", ("episodes", 9, "gt_support", 0), "[1, 1]"))
    def test_orjson_and_json_load_alike(self, mutation):
        # load_dataset parses through orjson and falls back to json.load
        # wherever the two could differ; with orjson refusing every file, it
        # reads through json.load alone.  Episodes pass whole-list checks and
        # go to the element-by-element ones only where those decline; with
        # the whole-list checks declining every record, the element-by-element
        # ones check all.  All three must load the same dataset or raise the
        # same ValueError, which names the file.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.json")
            with open(path, "wb") as fh:
                fh.write(_mutated(mutation))
            fast, reference = _load_outcome(path), _load_through_json_only(path)
            detailed = _load_through_detailed_checks_only(path)
        if isinstance(reference, str):
            assert fast == reference == detailed
            assert reference.startswith(f"{path}: ")
        else:
            _assert_identical(fast, reference)
            _assert_identical(detailed, reference)

    @pytest.mark.parametrize("case", CASES)
    def test_generated_files_load_through_orjson_alone(self, tmp_path, monkeypatch, case):
        # Generated files never need json.load, nor the element-by-element
        # episode checks, and orjson reads them exactly.
        ds = generate_dataset(make_world(case, degrade_prob=0.6, rng=Rng(3)), 40, seed=5)
        path = str(tmp_path / "data.json")
        save_dataset(path, ds)
        reference = _load_through_json_only(path)
        monkeypatch.setattr(json, "load", lambda fh: pytest.fail("json.load read a generated file"))
        monkeypatch.setattr(scenarios, "_load_episode", lambda *args: pytest.fail("a generated episode was declined"))
        loaded = load_dataset(path)
        _assert_identical(loaded, reference)
        _assert_identical(loaded, ds)

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
