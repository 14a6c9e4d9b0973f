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

Every observation, in every case, is built by one rule (``render_episodes``)
from one block of normals per agent that covers both halves.  Each half of a
block is padded to an even length, so no Box-Muller pair straddles the two
halves: for an odd ``scene_dim`` the spare sin term is dropped, and the
block consumes the same words and yields the same values as one
``Rng.normal`` call per half, which keeps saved datasets stable for every
even ``obs_dim``.

An episode is made in two steps.  First ``generate_episode`` runs every
scalar draw of one episode in stream order (labels, scene picks,
degradation, and mrmps's supporter picks and overlaps); where an agent's
noise block falls, ``Rng.skip`` jumps over it and records the state it
starts from.  The result is an ``EpisodeDraw``: everything but the noise.
Then ``render_episodes`` turns a block of draws, 64 episodes in
``iter_episodes``, into episodes: one ``densemath.normal_blocks`` call draws
every agent's noise from those states, and the observations are
(B, N, obs_dim) array arithmetic, each episode bit-equal to drawing its
blocks in place.  splitmix64 is counter-based, so the render needs no
stream, and episodes that are drawn but not needed are never rendered.

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
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from .densemath import Rng, normal_blocks

CASES = ("srms", "mrms", "mrmps", "triplet")

PERTURBATION_SIGMA = 0.05
MIN_PROTOTYPE_DISTANCE = 0.1
DEFAULT_AGENTS = {"srms": 5, "mrms": 5, "mrmps": 5, "triplet": 9}
# Every empty ``gt_support`` entry is this one object (``frozenset()`` is not
# a shared singleton on every Python this package supports).
NO_SUPPORT: frozenset[int] = frozenset()
RENDER_BLOCK = 64  # episodes drawn, then rendered by one render_episodes call


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


@dataclass(slots=True)
class Episode:
    """One synchronized frame of N observations with ground truth.

    ``needs_comm[i]`` is true exactly when agent i is degraded (its own view
    is insufficient).  ``gt_support[i]`` is the frozenset of agents holding
    informative views for i; it is empty whenever ``needs_comm[i]`` is false,
    and may also be empty for mrmps requesters with no sufficiently
    overlapping peer.  Every empty entry, generated or loaded, is the one
    shared :data:`NO_SUPPORT`, and the class has slots rather than a
    ``__dict__``, so a held episode is mostly its observation array.
    """

    observations: np.ndarray  # (N, obs_dim)
    labels: list[int]
    degraded: list[bool]
    needs_comm: list[bool]
    gt_support: list[frozenset[int]] = field(default_factory=list)


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
    if case == "srms" and n_agents < 2 and degrade_prob > 0.0:
        raise ValueError(
            f"{where}world n_agents must be >= 2 for case 'srms' when degrade_prob > 0 (a degraded "
            f"agent needs a peer holding its view), got n_agents={n_agents}, degrade_prob={degrade_prob!r}"
        )


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


@dataclass(slots=True)
class EpisodeDraw:
    """One episode's scalar draws: everything :func:`render_episodes` needs but its noise.

    ``starts[i]`` is the state agent i's noise block starts from (see
    ``Rng.skip``).  ``content`` is set only for mrmps, whose clean content is
    mixed during the draws; every other case takes the label prototypes.
    """

    labels: list[int]
    degraded: list[bool]
    gt_support: list[frozenset[int]]
    signatures: np.ndarray  # (N, scene_dim)
    starts: list[int]
    content: np.ndarray | None = None  # (N, content_dim)


def _episode_signatures(world: World, rng: Rng, n_scenes: int) -> np.ndarray:
    """Distinct (hence orthogonal) scene codes for this episode's viewpoints."""
    picks = rng.permutation(world.n_scenes)[:n_scenes]
    return world.scene_codes[picks].copy()


def _skip_noise(world: World, rng: Rng, n: int) -> list[int]:
    """Jump over ``n`` agents' noise blocks in turn; return the state each block starts from."""
    width = 2 * (world.scene_dim + world.scene_dim % 2)
    return [rng.skip(width) for _ in range(n)]


def _draw_srms(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    signatures = _episode_signatures(world, rng, n)
    designated = rng.randint(n)
    degraded = [False] * n
    gt_support = [NO_SUPPORT] * n
    if rng.uniform_scalar() < world.degrade_prob:
        degraded[designated] = True
        off = rng.randint(n - 1)
        supporter = off if off < designated else off + 1
        labels[supporter] = labels[designated]
        signatures[supporter] = signatures[designated]
        gt_support[designated] = frozenset((supporter,))
    return EpisodeDraw(labels, degraded, gt_support, signatures, _skip_noise(world, rng, n))


def _draw_mrms(world: World, rng: Rng) -> EpisodeDraw:
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
    gt_support = [NO_SUPPORT] * n
    for t, r in enumerate(deg_list):
        s = clean_list[perm[t]]
        labels[s] = labels[r]
        signatures[s] = signatures[r]
        gt_support[r] = frozenset((s,))
    return EpisodeDraw(labels, degraded, gt_support, signatures, _skip_noise(world, rng, n))


def _draw_mrmps(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    signatures = _episode_signatures(world, rng, n)
    degraded = [rng.uniform_scalar() < world.degrade_prob for _ in range(n)]
    deg_list = [i for i, d in enumerate(degraded) if d]
    gt_support = [NO_SUPPORT] * n
    content = world.prototypes[labels, world.scene_dim :]
    starts: list[int] = []
    for i in range(n):
        # A clean agent's supporter draws precede its noise block.  Only
        # clean rows change, and they read only their own and degraded rows.
        if not degraded[i] and deg_list:
            r = deg_list[rng.randint(len(deg_list))]
            overlap = rng.uniform_scalar()
            # Overlap is an energy fraction: the supporter's signature leans
            # toward the requester's scene by sqrt(overlap).
            signatures[i] = _unit(math.sqrt(overlap) * signatures[r] + math.sqrt(1.0 - overlap) * signatures[i])
            content[i] = overlap * content[r] + (1.0 - overlap) * content[i]
            if overlap > 0.5:
                labels[i] = labels[r]
            if overlap > world.overlap_frac:
                gt_support[r] = gt_support[r] | {i}
        starts += _skip_noise(world, rng, 1)
    return EpisodeDraw(labels, degraded, gt_support, signatures, starts, content)


def _draw_triplet(world: World, rng: Rng) -> EpisodeDraw:
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
    gt_support = [NO_SUPPORT] * n
    for t in range(k):
        if rng.uniform_scalar() < world.degrade_prob:
            victim = members[t][rng.randint(3)]
            degraded[victim] = True
            gt_support[victim] = frozenset(members[t]) - {victim}
    return EpisodeDraw(labels, degraded, gt_support, signatures[triplet_of], _skip_noise(world, rng, n))


_DRAWS = {
    "srms": _draw_srms,
    "mrms": _draw_mrms,
    "mrmps": _draw_mrmps,
    "triplet": _draw_triplet,
}


def generate_episode(world: World, rng: Rng) -> EpisodeDraw:
    """Draw one episode under the world's case-specific construction: its scalar draws, no noise yet.

    The draws run in stream order and leave ``rng`` where the whole episode,
    noise included, ends.  :func:`render_episodes` turns the result into an
    :class:`Episode`.
    """
    try:
        draw = _DRAWS[world.case]
    except KeyError:
        raise ValueError(f"unknown case {world.case!r}") from None
    return draw(world, rng)


def render_episodes(world: World, draws: list[EpisodeDraw]) -> list[Episode]:
    """The episodes of ``draws`` (all drawn for ``world``), rendered as one (B, N, obs_dim) block.

    One :func:`densemath.normal_blocks` call draws every agent's noise block
    from its recorded start.  Row (b, i) of ``content`` (the prototype of
    agent i's label unless the draw mixed its own) is its clean content; a
    degraded agent sees noise alone, taken unchanged.  Every operation is
    elementwise, so each episode is bit-equal to rendering it alone, and each
    owns a copy of its rows.
    """
    half = world.scene_dim + world.scene_dim % 2
    shape = (len(draws), world.n_agents)
    z = normal_blocks(list(chain.from_iterable(d.starts for d in draws)), 2 * half).reshape(*shape, 2 * half)
    labels = [d.labels for d in draws]
    if draws[0].content is None:
        content = world.prototypes[labels, world.scene_dim :]
    else:
        content = np.array([d.content for d in draws])
    signatures = np.array([d.signatures for d in draws])
    deg = np.array([d.degraded for d in draws])[..., None]
    noise = np.where(deg, world.noise_sigma, PERTURBATION_SIGMA) * z[..., half : half + world.content_dim]
    obs = np.empty((*shape, world.obs_dim), dtype=np.float64)
    obs[..., : world.scene_dim] = signatures + PERTURBATION_SIGMA * z[..., : world.scene_dim]
    obs[..., world.scene_dim :] = np.where(deg, noise, content + noise)
    return [
        Episode(rows, d.labels, d.degraded, list(d.degraded), d.gt_support)
        for rows, d in zip(map(np.ndarray.copy, obs), draws)
    ]


def split_bounds(n_episodes: int) -> tuple[int, int]:
    """Where the val and the test split start in a generated set of ``n_episodes`` (80/10/10)."""
    if n_episodes < 10:
        raise ValueError(f"need at least 10 episodes for a split, got {n_episodes}")
    n_train = int(0.8 * n_episodes)
    return n_train, n_train + int(0.1 * n_episodes)


def iter_episodes(world: World, n_episodes: int, seed: int, start: int = 0) -> Iterator[Episode]:
    """Episodes ``start`` to ``n_episodes - 1`` of ``generate_dataset(world, n_episodes, seed)``, in order.

    Each episode is drawn by one :func:`generate_episode` call, in stream
    order; every ``RENDER_BLOCK`` draws are rendered at once by
    :func:`render_episodes`.  The episodes before ``start`` are drawn, which
    moves the stream past them, but never rendered.
    """
    if not 0 <= start <= n_episodes:
        raise ValueError(f"start must lie in [0, {n_episodes}], got {start}")
    rng = Rng(seed)
    for _ in range(start):
        generate_episode(world, rng)
    for first in range(start, n_episodes, RENDER_BLOCK):
        draws = [generate_episode(world, rng) for _ in range(min(RENDER_BLOCK, n_episodes - first))]
        yield from render_episodes(world, draws)


def generate_dataset(world: World, n_episodes: int, seed: int) -> Dataset:
    """Seeded episode list with a deterministic, disjoint 80/10/10 split (see :func:`split_bounds`).

    The episodes are :func:`iter_episodes`'s: one :func:`generate_episode`
    draw per episode, rendered ``RENDER_BLOCK`` at a time.
    """
    val_start, test_start = split_bounds(n_episodes)
    return Dataset(
        world,
        list(iter_episodes(world, n_episodes, seed)),
        list(range(val_start)),
        list(range(val_start, test_start)),
        list(range(test_start, n_episodes)),
    )


_ALL_IN_RANGE = np.empty(0, dtype=np.intp)  # no value to respell


def _out_of_range(magnitudes: np.ndarray) -> np.ndarray:
    """Flat indices of the nonzero magnitudes below 1e-4 and of those of 1e16 or more."""
    return np.flatnonzero(((magnitudes < 1e-4) & (magnitudes != 0)) | (magnitudes >= 1e16))


def _array_text(array: np.ndarray, odd: np.ndarray) -> bytes:
    """The bytes ``json.dumps(array.tolist())`` writes.

    orjson formats a float64 array's shortest round-trip digits about ten
    times faster than ``repr``, and the two spell a value alike when its
    magnitude is 0 or lies in [1e-4, 1e16).  Outside that range orjson writes
    ``0.00001`` and ``1e16`` where ``repr`` writes ``1e-05`` and ``1e+16``, so
    the values at the flat indices ``odd`` (see :func:`_out_of_range`) are
    respelled by ``repr``.  orjson spells float32 and integer arrays its own
    way, so those go through ``json.dumps``.
    """
    import orjson  # here, as in save_dataset

    if array.dtype != np.float64:
        return json.dumps(array.tolist()).encode()
    array = np.ascontiguousarray(array)
    text = orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY)
    if odd.size:
        pieces = text.split(b",")  # piece k is flat value k, with the brackets around it
        for k, value in zip(odd.tolist(), array.flat[odd].tolist()):
            number = pieces[k].strip(b"[]")
            pieces[k] = pieces[k].replace(number, repr(value).encode())
        text = b",".join(pieces)
    return text.replace(b",", b", ")


def _field_text(value) -> bytes:
    """The bytes ``json.dumps(value)`` writes for one world field."""
    if isinstance(value, np.ndarray):
        return _array_text(value, _out_of_range(np.abs(value)))
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value).encode()  # how json.dumps spells a finite float
    return json.dumps(value).encode()


def save_dataset(path: str, dataset: Dataset) -> None:
    """Structured-text export: world parameters plus per-episode arrays.

    The file holds the bytes of ``json.dump(doc, sort_keys=True)`` plus a
    newline, where ``doc`` has the keys ``episodes``, ``splits`` and
    ``world`` (every ``World`` field, its arrays as nested lists).  It is
    streamed one episode at a time.  Every float64 array, each episode's
    observations and the world's ``prototypes`` and ``scene_codes``, is
    formatted by orjson, with the few values outside [1e-4, 1e16) respelled
    by ``repr`` (see :func:`_array_text`); an episode's other fields go
    through orjson too, and every text then gets ``json.dumps``'s spacing.
    A non-finite observation, which :func:`load_dataset` would refuse,
    raises ``ValueError`` before the file is opened.
    """
    import orjson  # here, not at the top: train and eval never save, so they do not load it

    odd = []  # per episode: the flat indices of the observations orjson spells other than repr
    for i, ep in enumerate(dataset.episodes):
        mag = np.abs(ep.observations)
        low, high = mag.min(), mag.max()
        if not high < np.inf:  # also true when max propagates a NaN
            agent = int(np.argwhere(~np.isfinite(ep.observations))[0][0])
            raise ValueError(f"{path}: episode {i} agent {agent} has non-finite observations, which would not load")
        odd.append(_ALL_IN_RANGE if low >= 1e-4 and high < 1e16 else _out_of_range(mag))
    options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    world = b", ".join(
        json.dumps(key).encode() + b": " + _field_text(value) for key, value in sorted(vars(dataset.world).items())
    )
    splits = {"train": dataset.train_idx, "val": dataset.val_idx, "test": dataset.test_idx}
    with open(path, "wb") as fh:
        fh.write(b'{"episodes": [')
        for i, ep in enumerate(dataset.episodes):
            record = {
                "labels": ep.labels,
                "degraded": ep.degraded,
                "needs_comm": ep.needs_comm,
                "gt_support": [sorted(s) for s in ep.gt_support],
            }
            text = orjson.dumps(record, option=options).replace(b",", b", ").replace(b":", b": ")
            # "observations" sorts after the other four keys.
            text = text[:-1] + b', "observations": ' + _array_text(ep.observations, odd[i]) + b"}"
            fh.write(b", " + text if i else text)
        fh.write(b'], "splits": ' + json.dumps(splits, sort_keys=True).encode())
        fh.write(b', "world": {' + world + b"}}\n")


def _require_fields(where: str, record, fields) -> None:
    """Raise naming ``where`` unless ``record`` is a JSON object holding exactly ``fields``."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(record).__name__}")
    for key in fields:
        if key not in record:
            raise ValueError(f"{where} has no {key!r} field")
    if len(record) != len(fields):
        key = next(key for key in record if key not in fields)
        raise ValueError(f"{where} has an unknown {key!r} field")


def _require_list(where: str, value) -> list:
    """``value``, rejected (naming ``where``) unless it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a JSON array, got {type(value).__name__}")
    return value


def _require_array(where: str, value, shape: tuple[int, int], expected: str) -> np.ndarray:
    """``value`` as a finite float64 array, rejected (naming ``where``) unless it has ``shape``."""
    if type(value) is list and set(map(type, value)) <= {list}:  # numpy would read "0.5" and true as numbers
        kinds = set(map(type, chain.from_iterable(value)))
        if str in kinds or bool in kinds:
            bad = next(x for x in chain.from_iterable(value) if type(x) in (str, bool))
            raise ValueError(f"{where} hold {bad!r}, not a JSON number")
    try:
        array = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer beyond the float64 range
        raise ValueError(f"{where} hold an integer beyond the float64 range") from None
    except (TypeError, ValueError):  # ragged or non-numeric rows
        array = None
    if array is None or array.shape != shape:
        raise ValueError(f"{where} have shape {'ragged' if array is None else array.shape}, expected {expected}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{where} contain non-finite values")
    return array


_EPISODE_FIELDS = ("observations", "labels", "degraded", "needs_comm", "gt_support")
_episode_values = itemgetter(*_EPISODE_FIELDS)
_LOAD_BLOCK = 64  # records checked, and their observations converted, at once


def _accept_episodes(records: list, world: World) -> list[Episode] | None:
    """``records`` as Episodes if whole-list checks find all of them well formed, else None.

    The checks hold every record to what :func:`_load_episode` checks, but
    run in C over all the records at once: key counts and ``itemgetter``,
    ``set(map(type, ...))`` and ``set(map(len, ...))``, ``min``/``max``, list
    equality, and one ``np.array`` with ``isfinite`` for all observations.
    Only the non-empty supports are visited one by one.  A JSON ``true`` or
    ``false`` in an observation row would read as 1.0 or 0.0 there, so
    records holding either value are declined as well.  Declined records go
    to :func:`_load_episode`, which loads them or names their first problem.
    """
    n = world.n_agents
    if set(map(type, records)) != {dict} or set(map(len, records)) != {len(_EPISODE_FIELDS)}:
        return None
    try:
        obs, labels, degraded, needs, support = zip(*map(_episode_values, records))
    except KeyError:
        return None
    lists = labels + degraded + needs + support
    if set(map(type, lists)) != {list} or set(map(len, lists)) != {n}:
        return None
    flat = list(chain.from_iterable(labels))
    if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= world.n_classes:
        return None
    if degraded != needs or set(map(type, chain.from_iterable(degraded + needs))) != {bool}:
        return None
    entries = list(chain.from_iterable(support))  # agent k % n of record k // n
    if set(map(type, entries)) != {list}:
        return None
    gt_support = [NO_SUPPORT] * len(entries)
    flat = list(chain.from_iterable(entries))
    if flat:
        if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= n:
            return None
        need = list(chain.from_iterable(needs))
        for k in compress(range(len(entries)), entries):
            members = frozenset(entries[k])
            if not need[k] or k % n in members or len(members) != len(entries[k]):
                return None
            gt_support[k] = members
    try:
        observations = np.array(obs)
    except ValueError:  # a row entry that is itself an array
        return None
    if observations.dtype != np.float64 or observations.shape[1:] != (n, world.obs_dim):  # strings, null, ...
        return None
    if not np.isfinite(observations).all() or (observations == 0.0).any() or (observations == 1.0).any():
        return None
    supports = (gt_support[k : k + n] for k in range(0, len(entries), n))
    return list(map(Episode, map(np.ndarray.copy, observations), labels, degraded, needs, supports))


def _load_episode(path: str, index: int, record: dict, world: World) -> Episode:
    """One saved episode, rejected (naming ``path`` and ``index``) unless it fits ``world``."""
    where = f"{path}: episode {index}"
    _require_fields(where, record, _EPISODE_FIELDS)
    n = world.n_agents
    shape = (n, world.obs_dim)
    obs = _require_array(f"{where} observations", record["observations"], shape, str(shape))
    for key in ("labels", "degraded", "needs_comm", "gt_support"):
        if len(_require_list(f"{where} {key}", record[key])) != n:
            raise ValueError(f"{where} {key} has {len(record[key])} entries, expected {n}")
    for c in record["labels"]:
        if type(c) is not int or not 0 <= c < world.n_classes:
            raise ValueError(f"{where} label {c!r} is not an integer in [0, {world.n_classes})")
    for key in ("degraded", "needs_comm"):
        for i, flag in enumerate(record[key]):
            if type(flag) is not bool:
                raise ValueError(f"{where} {key}[{i}] is {flag!r}, not a JSON boolean")
    gt_support = []
    for i, support in enumerate(record["gt_support"]):
        for k, j in enumerate(_require_list(f"{where} gt_support[{i}]", support)):
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"{where} gt_support index {j!r} is not an integer in [0, {n})")
            if j == i:  # no agent transfers its feature to itself
                raise ValueError(f"{where} agent {i} is listed as its own supporter in gt_support[{i}]")
            if j in support[:k]:  # a set would drop it, and a re-save would rewrite the file
                raise ValueError(f"{where} agent {i} lists supporter {j} twice in gt_support[{i}]")
        gt_support.append(frozenset(support) if support else NO_SUPPORT)
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
        gt_support=gt_support,
    )


def _load_world(path: str, w: dict) -> World:
    """The saved world, rejected (naming ``path``) unless ``make_world`` could have built it."""
    fields = ("case", "n_agents", "obs_dim", "n_classes", "degrade_prob", "noise_sigma", "overlap_frac", "scene_dim")
    _require_fields(f"{path}: world", w, fields + ("prototypes", "scene_codes"))
    _check_world(f"{path}: ", *(w[f] for f in fields))
    arrays = {}
    for key, rows, cols in (("prototypes", "n_classes", "obs_dim"), ("scene_codes", "scene_dim", "scene_dim")):
        shape = (w[rows], w[cols])
        arrays[key] = _require_array(f"{path}: world {key}", w[key], shape, f"({rows}, {cols}) = {shape}")
    return World(**dict(w, **arrays))


def _load_splits(path: str, splits: dict, n_episodes: int) -> list[list[int]]:
    """The train, val and test index lists: in range, duplicate-free and disjoint."""
    names = ("train", "val", "test")
    _require_fields(f"{path}: splits", splits, names)
    members: dict[str, set[int]] = {}
    for name in names:
        members[name] = set()
        for i in _require_list(f"{path}: splits.{name}", splits[name]):
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


def _dataset_from_doc(path: str, doc) -> Dataset:
    """The dataset a parsed file holds, rejected (naming ``path``) at the first problem found."""
    _require_fields(f"{path}: the dataset", doc, ("world", "episodes", "splits"))
    world = _load_world(path, doc["world"])
    records = _require_list(f"{path}: episodes", doc["episodes"])
    episodes = []
    for start in range(0, len(records), _LOAD_BLOCK):
        block = records[start : start + _LOAD_BLOCK]
        accepted = _accept_episodes(block, world)
        episodes += accepted if accepted is not None else [_load_episode(path, start + i, e, world) for i, e in enumerate(block)]
    return Dataset(world, episodes, *_load_splits(path, doc["splits"], len(episodes)))


def _load_through_orjson(path: str) -> Dataset | None:
    """The dataset at ``path`` as orjson parses it, or None where ``json.load`` must read the file."""
    import orjson  # here, as in save_dataset: train, and eval without --data, never load it

    with open(path, "rb") as fh:
        try:
            doc = orjson.loads(fh.read())
        except orjson.JSONDecodeError:  # NaN, 1e400, a lone surrogate, a BOM, invalid UTF-8, ...
            return None
    try:
        dataset = _dataset_from_doc(path, doc)
    except (ValueError, RecursionError):  # the message comes from json's document, positions included
        return None
    # orjson reads an integer wider than 64 bits as a float; noise_sigma is
    # the one checked field where such a float also passes.
    if type(dataset.world.noise_sigma) is float and dataset.world.noise_sigma >= 2.0**64:
        return None
    return dataset


def load_dataset(path: str) -> Dataset:
    """The dataset saved at ``path``; raises ValueError naming the file and the first problem found.

    The file is parsed by orjson, about twice as fast as ``json.load``, and
    the result is checked.  Wherever orjson could read the file other
    than ``json.load`` does, the file is read again through ``json.load``
    and checked as parsed there, so the dataset and every message are the
    standard module's: when orjson refuses the bytes (``NaN``, ``1e400``, a
    lone surrogate, a BOM, invalid UTF-8, any syntax error), when the checks
    refuse orjson's document, and when the world's ``noise_sigma`` is a float
    of at least 2**64, which orjson also makes of a wider integer.  Every
    object must hold exactly the fields ``save_dataset`` writes, and every
    array entry must be a JSON number.  Episodes are checked 64 at a time by
    whole-list checks (:func:`_accept_episodes`); only a block those decline
    is checked record by record, which names the first problem.  The cost is
    memory: orjson parses the whole document at once, which briefly holds
    about 1.8 times the file's size more than ``json.load`` needs.
    """
    dataset = _load_through_orjson(path)  # its frame frees orjson's document before json.load runs
    if dataset is not None:
        return dataset
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # also bad UTF-8, and an integer of more than 4300 digits
                raise ValueError(f"{path}: not valid JSON: {err}") from None
        return _dataset_from_doc(path, doc)
    except RecursionError:  # in json.load, or in the repr of a deeply nested value
        raise ValueError(f"{path}: JSON nests too deeply to load") from None
