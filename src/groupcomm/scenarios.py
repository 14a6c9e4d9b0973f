"""Synthetic multi-agent perception scenarios with communication ground truth.

Observation model
-----------------
Each observation is a vector of two halves:

* a *scene signature* (first ``scene_dim`` entries): one of the world's
  fixed orthonormal scene codes, identifying what the agent is looking at.
  Agents that view the same scene (a degraded agent and the peer holding its
  clean counterpart, or members of one triplet) share the signature up to a
  small perturbation; agents on distinct scenes hold distinct (orthogonal)
  codes.  The signature carries no class information whatsoever.
* *content* (remaining entries): the class prototype plus a small
  perturbation for a clean view, or pure noise for a degraded view.

Degradation therefore destroys everything a classifier could use (the
degraded vector is statistically independent of its label) while the scene
signature still identifies which peers hold relevant views.  That asymmetry
is what makes learned grouping possible at all: a requester's query can only
advertise *where it is looking*, never the label it cannot see.

Every observation, in every case, is built by one rule (``_observe``) from
one ``Rng.normal`` draw per agent that covers both halves.  Each half of
that draw is padded to an even length, so no Box-Muller pair straddles the
two halves: for an odd ``scene_dim`` the spare sin term is dropped, and the
draw consumes the same words and yields the same values as one ``normal``
call per half, which keeps saved datasets stable for every even ``obs_dim``.

Cases
-----
``srms``   five agents, one designated agent degraded with probability
           ``degrade_prob``; when degraded, one random other agent carries the
           clean counterpart (same signature, same label).
``mrms``   every agent degraded independently (capped at N//2 so that each
           degraded agent gets a distinct clean counterpart).
``mrmps``  degraded agents have only partial support: each clean agent
           overlaps a random degraded requester by a uniform fraction, and
           ground-truth supporters are those overlapping above the threshold.
``triplet`` 3k agents in k triplets; a triplet shares one class and one
           signature, with at most one degraded member per triplet whose
           supporters are its two peers.

Generation is pure given an Rng; parallel generation requires independent
seeded Rngs per worker.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .densemath import Rng

CASES = ("srms", "mrms", "mrmps", "triplet")

PERTURBATION_SIGMA = 0.05
MIN_PROTOTYPE_DISTANCE = 0.1
DEFAULT_AGENTS = {"srms": 5, "mrms": 5, "mrmps": 5, "triplet": 9}


@dataclass
class World:
    n_agents: int
    obs_dim: int
    n_classes: int
    case: str
    degrade_prob: float
    noise_sigma: float
    overlap_frac: float
    prototypes: np.ndarray  # (C, obs_dim), zero on the scene half, unit norm
    scene_dim: int
    scene_codes: np.ndarray  # (scene_dim, scene_dim) orthonormal scene codebook

    @property
    def content_dim(self) -> int:
        return self.obs_dim - self.scene_dim

    @property
    def n_scenes(self) -> int:
        return self.scene_codes.shape[0]


@dataclass
class Episode:
    """One synchronized frame of N observations with ground truth.

    ``needs_comm[i]`` is true exactly when agent i is degraded (its own view
    is insufficient).  ``gt_support[i]`` lists the agents holding informative
    views for i; it is empty whenever ``needs_comm[i]`` is false, and may also
    be empty for mrmps requesters with no sufficiently overlapping peer.
    """

    observations: np.ndarray  # (N, obs_dim)
    labels: list[int]
    degraded: list[bool]
    needs_comm: list[bool]
    gt_support: list[set[int]] = field(default_factory=list)


@dataclass
class Dataset:
    world: World
    episodes: list[Episode]
    train_idx: list[int]
    val_idx: list[int]
    test_idx: list[int]

    @property
    def train_episodes(self) -> list[Episode]:
        return [self.episodes[i] for i in self.train_idx]

    @property
    def val_episodes(self) -> list[Episode]:
        return [self.episodes[i] for i in self.val_idx]

    @property
    def test_episodes(self) -> list[Episode]:
        return [self.episodes[i] for i in self.test_idx]


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def _orthonormal_rows(rng: Rng, n: int, dim: int) -> np.ndarray:
    """n mutually orthonormal random directions via modified Gram-Schmidt."""
    if n > dim:
        raise ValueError(f"cannot draw {n} orthonormal vectors in {dim} dimensions")
    rows = rng.normal(n * dim).reshape(n, dim)
    for i in range(n):
        for _ in range(2):  # re-orthogonalize once for numerical hygiene
            for j in range(i):
                rows[i] -= np.dot(rows[i], rows[j]) * rows[j]
        rows[i] = _unit(rows[i])
    return rows


def _check_world(
    where: str, case, n_agents, obs_dim, n_classes, degrade_prob, noise_sigma, overlap_frac, scene_dim
) -> None:
    """Reject world parameters ``make_world`` cannot build; each message starts with ``where``."""
    if case not in CASES:
        raise ValueError(f"{where}world case {case!r} is not one of {CASES}")
    for name, value in (("n_agents", n_agents), ("obs_dim", obs_dim), ("n_classes", n_classes)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{where}world {name} must be a positive integer, got {value!r}")
    if case == "triplet" and n_agents % 3 != 0:
        raise ValueError(f"{where}world n_agents must be a multiple of 3 for case 'triplet', got {n_agents}")
    if obs_dim < 4 or obs_dim % 2 != 0:
        raise ValueError(f"{where}world obs_dim must be an even integer >= 4, got {obs_dim}")
    if scene_dim != obs_dim // 2:
        raise ValueError(f"{where}world scene_dim must be obs_dim // 2 = {obs_dim // 2}, got {scene_dim!r}")
    if n_agents > scene_dim:
        raise ValueError(
            f"{where}world n_agents {n_agents} need {n_agents} orthogonal scene signatures "
            f"but only {scene_dim} scene dimensions are available"
        )
    reals = (("degrade_prob", degrade_prob), ("overlap_frac", overlap_frac), ("noise_sigma", noise_sigma))
    for name, value in reals:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{where}world {name} must be a real number, got {value!r}")
    for name, value in reals[:2]:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{where}world {name} must lie in [0, 1], got {value!r}")
    if not 0.0 < noise_sigma < math.inf:
        raise ValueError(f"{where}world noise_sigma must be positive and finite, got {noise_sigma!r}")


def make_world(
    case: str,
    n_agents: int | None = None,
    obs_dim: int = 32,
    n_classes: int = 10,
    degrade_prob: float = 0.5,
    noise_sigma: float = 1.0,
    overlap_frac: float = 0.5,
    rng: Rng | None = None,
) -> World:
    """Build a world: validated parameters plus rejection-sampled prototypes."""
    if n_agents is None and case in CASES:
        n_agents = DEFAULT_AGENTS[case]
    scene_dim = obs_dim // 2
    _check_world("", case, n_agents, obs_dim, n_classes, degrade_prob, noise_sigma, overlap_frac, scene_dim)
    if rng is None:
        rng = Rng(0)
    content_dim = obs_dim - scene_dim
    # Rejection-sample unit prototypes until pairwise separated.
    for _ in range(1000):
        protos = rng.normal(n_classes * content_dim).reshape(n_classes, content_dim)
        protos = np.stack([_unit(p) for p in protos])
        dists = [
            float(np.linalg.norm(protos[a] - protos[b]))
            for a in range(n_classes)
            for b in range(a + 1, n_classes)
        ]
        if not dists or min(dists) > MIN_PROTOTYPE_DISTANCE:
            break
    else:
        raise RuntimeError("prototype rejection sampling failed to separate classes")
    full = np.zeros((n_classes, obs_dim), dtype=np.float64)
    full[:, scene_dim:] = protos
    # The world's scenes form a fixed orthonormal codebook; each episode views
    # a subset of them.
    scene_codes = _orthonormal_rows(rng, scene_dim, scene_dim)
    return World(
        n_agents=n_agents,
        obs_dim=obs_dim,
        n_classes=n_classes,
        case=case,
        degrade_prob=degrade_prob,
        noise_sigma=noise_sigma,
        overlap_frac=overlap_frac,
        prototypes=full,
        scene_dim=scene_dim,
        scene_codes=scene_codes,
    )


def _episode_signatures(world: World, rng: Rng, n_scenes: int) -> np.ndarray:
    """Distinct (hence orthogonal) scene codes for this episode's viewpoints."""
    picks = rng.permutation(world.n_scenes)[:n_scenes]
    return world.scene_codes[picks].copy()


def _observe(
    world: World, signature: np.ndarray, content: np.ndarray | None, sigma: float, rng: Rng
) -> np.ndarray:
    """Signature and ``content`` (None: a degraded view), each plus noise, from one draw.

    Both halves of the draw are padded to an even length (see the module
    docstring), so the content noise starts on a fresh Box-Muller pair.
    """
    half = world.scene_dim + world.scene_dim % 2
    z = rng.normal(2 * half)
    scene = signature + PERTURBATION_SIGMA * z[: world.scene_dim]
    noise = sigma * z[half : half + world.content_dim]
    return np.concatenate([scene, noise if content is None else content + noise])


def _render(
    world: World,
    signatures: np.ndarray,
    labels: list[int],
    degraded: list[bool],
    gt_support: list[set[int]],
    rng: Rng,
) -> Episode:
    """Observe every agent in order: a clean view of its label, or a degraded one."""
    content = world.prototypes[:, world.scene_dim :]
    obs = np.empty((world.n_agents, world.obs_dim), dtype=np.float64)
    for i in range(world.n_agents):
        if degraded[i]:
            obs[i] = _observe(world, signatures[i], None, world.noise_sigma, rng)
        else:
            obs[i] = _observe(world, signatures[i], content[labels[i]], PERTURBATION_SIGMA, rng)
    return Episode(obs, labels, degraded, list(degraded), gt_support)


def _generate_srms(world: World, rng: Rng) -> Episode:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    signatures = _episode_signatures(world, rng, n)
    designated = rng.randint(n)
    degraded = [False] * n
    gt_support: list[set[int]] = [set() for _ in range(n)]
    if rng.uniform_scalar() < world.degrade_prob:
        degraded[designated] = True
        off = rng.randint(n - 1)
        supporter = off if off < designated else off + 1
        labels[supporter] = labels[designated]
        signatures[supporter] = signatures[designated]
        gt_support[designated] = {supporter}
    return _render(world, signatures, labels, degraded, gt_support, rng)


def _generate_mrms(world: World, rng: Rng) -> Episode:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    signatures = _episode_signatures(world, rng, n)
    degraded = [rng.uniform_scalar() < world.degrade_prob for _ in range(n)]
    # Each degraded agent needs a distinct clean counterpart, so at most
    # N//2 agents may stay degraded; surplus picks are cleared at random.
    while 2 * sum(degraded) > n:
        deg_list = [i for i, d in enumerate(degraded) if d]
        degraded[deg_list[rng.randint(len(deg_list))]] = False
    deg_list = [i for i, d in enumerate(degraded) if d]
    clean_list = [i for i, d in enumerate(degraded) if not d]
    perm = rng.permutation(len(clean_list))
    gt_support: list[set[int]] = [set() for _ in range(n)]
    for t, r in enumerate(deg_list):
        s = clean_list[perm[t]]
        labels[s] = labels[r]
        signatures[s] = signatures[r]
        gt_support[r] = {s}
    return _render(world, signatures, labels, degraded, gt_support, rng)


def _generate_mrmps(world: World, rng: Rng) -> Episode:
    # Not _render: a supporter's scalar draws fall between agents' observations.
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    signatures = _episode_signatures(world, rng, n)
    degraded = [rng.uniform_scalar() < world.degrade_prob for _ in range(n)]
    deg_list = [i for i, d in enumerate(degraded) if d]
    gt_support: list[set[int]] = [set() for _ in range(n)]
    content = world.prototypes[:, world.scene_dim :]
    obs = np.empty((n, world.obs_dim), dtype=np.float64)
    for i in range(n):
        if degraded[i]:
            obs[i] = _observe(world, signatures[i], None, world.noise_sigma, rng)
        elif deg_list:
            r = deg_list[rng.randint(len(deg_list))]
            overlap = rng.uniform_scalar()
            # Overlap is an energy fraction: the supporter's signature leans
            # toward the requester's scene by sqrt(overlap).
            mixed_sig = _unit(
                math.sqrt(overlap) * signatures[r] + math.sqrt(1.0 - overlap) * signatures[i]
            )
            mix = overlap * content[labels[r]] + (1.0 - overlap) * content[labels[i]]
            if overlap > 0.5:
                labels[i] = labels[r]
            if overlap > world.overlap_frac:
                gt_support[r].add(i)
            obs[i] = _observe(world, mixed_sig, mix, PERTURBATION_SIGMA, rng)
        else:
            obs[i] = _observe(world, signatures[i], content[labels[i]], PERTURBATION_SIGMA, rng)
    return Episode(obs, labels, degraded, list(degraded), gt_support)


def _generate_triplet(world: World, rng: Rng) -> Episode:
    n = world.n_agents
    k = n // 3
    classes = [rng.randint(world.n_classes) for _ in range(k)]
    signatures = _episode_signatures(world, rng, k)
    perm = rng.permutation(n)
    triplet_of = [0] * n
    members: list[list[int]] = []
    for t in range(k):
        group = [perm[3 * t], perm[3 * t + 1], perm[3 * t + 2]]
        members.append(group)
        for a in group:
            triplet_of[a] = t
    labels = [classes[triplet_of[i]] for i in range(n)]
    degraded = [False] * n
    gt_support: list[set[int]] = [set() for _ in range(n)]
    for t in range(k):
        if rng.uniform_scalar() < world.degrade_prob:
            victim = members[t][rng.randint(3)]
            degraded[victim] = True
            gt_support[victim] = set(members[t]) - {victim}
    return _render(world, signatures[triplet_of], labels, degraded, gt_support, rng)


_GENERATORS = {
    "srms": _generate_srms,
    "mrms": _generate_mrms,
    "mrmps": _generate_mrmps,
    "triplet": _generate_triplet,
}


def generate_episode(world: World, rng: Rng) -> Episode:
    """Draw one episode under the world's case-specific construction."""
    try:
        gen = _GENERATORS[world.case]
    except KeyError:
        raise ValueError(f"unknown case {world.case!r}") from None
    return gen(world, rng)


def generate_dataset(world: World, n_episodes: int, seed: int) -> Dataset:
    """Seeded episode list with a deterministic, disjoint 80/10/10 split."""
    if n_episodes < 10:
        raise ValueError(f"need at least 10 episodes for a split, got {n_episodes}")
    rng = Rng(seed)
    episodes = [generate_episode(world, rng) for _ in range(n_episodes)]
    n_train = int(0.8 * n_episodes)
    n_val = int(0.1 * n_episodes)
    train_idx = list(range(0, n_train))
    val_idx = list(range(n_train, n_train + n_val))
    test_idx = list(range(n_train + n_val, n_episodes))
    return Dataset(world, episodes, train_idx, val_idx, test_idx)


def save_dataset(path: str, dataset: Dataset) -> None:
    """Structured-text export: world parameters plus per-episode arrays.

    The file holds the bytes of ``json.dump(doc, sort_keys=True)`` plus a
    newline, where ``doc`` has the keys ``episodes``, ``splits`` and
    ``world`` (every ``World`` field, its arrays as nested lists).  It is
    streamed one episode at a time, and each piece goes through
    ``json.dumps``, which (unlike ``json.dump``) uses the C encoder.
    """
    w = dataset.world
    world = dict(vars(w), prototypes=w.prototypes.tolist(), scene_codes=w.scene_codes.tolist())
    splits = {"train": dataset.train_idx, "val": dataset.val_idx, "test": dataset.test_idx}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"episodes": [')
        for i, ep in enumerate(dataset.episodes):
            record = {
                "observations": ep.observations.tolist(),
                "labels": list(ep.labels),
                "degraded": list(ep.degraded),
                "needs_comm": list(ep.needs_comm),
                "gt_support": [sorted(s) for s in ep.gt_support],
            }
            fh.write((", " if i else "") + json.dumps(record, sort_keys=True))
        fh.write('], "splits": ' + json.dumps(splits, sort_keys=True))
        fh.write(', "world": ' + json.dumps(world, sort_keys=True) + "}\n")


def _load_episode(path: str, index: int, record: dict, world: World) -> Episode:
    """One saved episode, rejected (naming ``path`` and ``index``) unless it fits ``world``."""
    where = f"{path}: episode {index}"
    n = world.n_agents
    shape = (n, world.obs_dim)
    try:
        obs = np.asarray(record["observations"], dtype=np.float64)
    except (TypeError, ValueError):  # ragged or non-numeric rows
        obs = None
    if obs is None or obs.shape != shape:
        got = "ragged" if obs is None else obs.shape
        raise ValueError(f"{where} observations have shape {got}, expected {shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError(f"{where} observations contain non-finite values")
    for key in ("labels", "degraded", "needs_comm", "gt_support"):
        if len(record[key]) != n:
            raise ValueError(f"{where} {key} has {len(record[key])} entries, expected {n}")
    for c in record["labels"]:
        if type(c) is not int or not 0 <= c < world.n_classes:
            raise ValueError(f"{where} label {c!r} is not an integer in [0, {world.n_classes})")
    for j in (j for support in record["gt_support"] for j in support):
        if type(j) is not int or not 0 <= j < n:
            raise ValueError(f"{where} gt_support index {j!r} is not an integer in [0, {n})")
    # Every generator marks exactly the degraded agents as needing help, and
    # only they have supporters.
    needs, degraded = record["needs_comm"], record["degraded"]
    if needs != degraded:
        i = next(i for i, (a, b) in enumerate(zip(needs, degraded)) if a != b)
        raise ValueError(f"{where} needs_comm[{i}] is {needs[i]!r} but degraded[{i}] is {degraded[i]!r}")
    for i, (need, support) in enumerate(zip(needs, record["gt_support"])):
        if support and not need:
            raise ValueError(f"{where} gt_support[{i}] is {support!r} but agent {i} does not need communication")
    return Episode(
        observations=obs,
        labels=list(record["labels"]),
        degraded=list(record["degraded"]),
        needs_comm=list(record["needs_comm"]),
        gt_support=[set(s) for s in record["gt_support"]],
    )


def _load_world(path: str, w: dict) -> World:
    """The saved world, rejected (naming ``path``) unless ``make_world`` could have built it."""
    fields = ("case", "n_agents", "obs_dim", "n_classes", "degrade_prob", "noise_sigma", "overlap_frac", "scene_dim")
    _check_world(f"{path}: ", *(w[f] for f in fields))
    arrays = {}
    for key, rows, cols in (("prototypes", "n_classes", "obs_dim"), ("scene_codes", "scene_dim", "scene_dim")):
        shape = (w[rows], w[cols])
        try:
            arrays[key] = np.asarray(w[key], dtype=np.float64)
        except (TypeError, ValueError):  # ragged or non-numeric rows
            arrays[key] = None
        if arrays[key] is None or arrays[key].shape != shape:
            got = "ragged" if arrays[key] is None else arrays[key].shape
            raise ValueError(f"{path}: world {key} have shape {got}, expected ({rows}, {cols}) = {shape}")
    return World(**dict(w, **arrays))


def _load_splits(path: str, splits: dict, n_episodes: int) -> list[list[int]]:
    """The train, val and test index lists: in range, duplicate-free and disjoint."""
    names = ("train", "val", "test")
    members: dict[str, set[int]] = {}
    for name in names:
        members[name] = set()
        for i in splits[name]:
            if type(i) is not int or not 0 <= i < n_episodes:
                raise ValueError(f"{path}: splits.{name} index {i!r} is not an integer in [0, {n_episodes})")
            if i in members[name]:
                raise ValueError(f"{path}: episode {i} is listed twice in splits.{name}")
            members[name].add(i)
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        if members[a] & members[b]:
            i = min(members[a] & members[b])
            raise ValueError(f"{path}: episode {i} is listed in both splits.{a} and splits.{b}")
    return [list(splits[name]) for name in names]


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    world = _load_world(path, doc["world"])
    episodes = [_load_episode(path, i, e, world) for i, e in enumerate(doc["episodes"])]
    return Dataset(world, episodes, *_load_splits(path, doc["splits"], len(episodes)))
