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

Episode e of a generated set draws from its own stream, keyed by the set's
seed and e alone (``densemath.keyed_streams``), so any episode, and any
split, is reached without drawing the episodes before it.  An episode is
made in two steps.  First ``generate_episode`` runs every scalar draw of the
episode in stream order (labels, scene picks, degradation, and mrmps's
requester picks and overlaps), then ``Rng.skip`` jumps over each agent's
noise block and records the state it starts from.  The result is an
``EpisodeDraw`` of Python scalars alone: labels, flags, the index of each
agent's scene code, (requester, supporter) pairs and, for mrmps, each clean
agent's (requester, overlap) mix.  Then ``render_episodes`` does all the
array work for a block of draws, 64 episodes in ``generate_episodes``: one
``densemath.normal_blocks`` call draws every agent's noise from those
states, one gather takes the scene codes, one assignment fills the support
mask, one pass applies every mrmps mix, and the observations are
(B, N, obs_dim) array arithmetic, each episode bit-equal to drawing its
blocks in place.

Episodes are held as an ``EpisodeSet``, the dataset file's four arrays, from
generation through saving, loading, training and the metrics; an
``Episode`` is a read-only view of one row.  ``World``, ``EpisodeSet`` and
``Dataset`` each check themselves when built (by generation, loading or
``dataclasses.replace``), are frozen, and make their arrays read-only, so
the check keeps holding and ``save_dataset`` only writes.

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

Generation is pure given an Rng.  Keyed streams are independent of one
another, so workers may generate disjoint ranges of one set in parallel.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from operator import index
from typing import NamedTuple

import numpy as np

from .densemath import Rng, array, frozen, index_array, integer, keyed_streams, normal_blocks, real

CASES = ("srms", "mrms", "mrmps", "triplet")

PERTURBATION_SIGMA = 0.05
MIN_PROTOTYPE_DISTANCE = 0.1
DEFAULT_AGENTS = {"srms": 5, "mrms": 5, "mrmps": 5, "triplet": 9}
RENDER_BLOCK = 64  # episodes drawn, then rendered by one render_episodes call


@dataclass(frozen=True, eq=False)
class World:
    """A world's scalar settings and its two fixed arrays, checked and made read-only here.

    The scalars, Python or NumPy numbers, must be ones :func:`make_world`
    could build from, and are held as Python ints and floats; the arrays
    must be finite float64 ndarrays (``densemath.array``): ``prototypes``
    (C, obs_dim) and ``scene_codes`` (S, S), where S is ``scene_dim``, half
    of ``obs_dim``.  Two worlds are equal only when they are one object.
    """

    n_agents: int
    obs_dim: int
    n_classes: int
    case: str
    degrade_prob: float
    noise_sigma: float
    overlap_frac: float
    prototypes: np.ndarray  # (C, obs_dim), zero on the scene half, unit norm
    scene_codes: np.ndarray  # (scene_dim, scene_dim) orthonormal scene codebook

    def __post_init__(self):
        for key, value in _check_world(**{key: getattr(self, key) for key in _WORLD_FIELDS}).items():
            object.__setattr__(self, key, value)
        for name, shape in (("prototypes", (self.n_classes, self.obs_dim)), ("scene_codes", (self.scene_dim,) * 2)):
            values = array(getattr(self, name), f"world {name}", np.float64, shape)
            if not np.isfinite(values).all():
                raise ValueError(f"world {name} contain non-finite values")
            frozen(values)

    @property
    def scene_dim(self) -> int:
        return self.obs_dim // 2

    @property
    def content_dim(self) -> int:
        return self.obs_dim - self.scene_dim


@dataclass(frozen=True, eq=False)
class EpisodeSet:
    """E synchronized frames of N agents each: the dataset file's four arrays, row e episode e.

    ``support[e, i, j]`` is true when agent j holds an informative view for
    agent i, and ``degraded`` is also the need to communicate.  The
    constructor refuses an array that is not an ndarray of its dtype and of
    the labels' E and N (``densemath.array``), so all episodes share one N,
    and then makes each array read-only.  An int index gives an
    :class:`Episode` view, a slice a set of views, and any other key (see
    ``densemath.index_array``) a gathered copy.
    """

    observations: np.ndarray  # (E, N, obs_dim) float64
    labels: np.ndarray  # (E, N) int64
    degraded: np.ndarray  # (E, N) bool
    support: np.ndarray  # (E, N, N) bool

    def __post_init__(self):
        e, n = array(self.labels, "EpisodeSet.labels", np.int64, (None, None)).shape
        array(self.observations, "EpisodeSet.observations", np.float64, (e, n, None))
        array(self.degraded, "EpisodeSet.degraded", np.bool_, (e, n))
        array(self.support, "EpisodeSet.support", np.bool_, (e, n, n))
        for values in self.arrays:
            frozen(values)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four arrays in file order: observations, labels, degraded, support."""
        return self.observations, self.labels, self.degraded, self.support

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Episode]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, key) -> Episode | EpisodeSet:
        if isinstance(key, bool):  # operator.index would read it as episode 1 or 0
            raise ValueError(f"episode index must be an integer, got the bool {key}")
        try:
            e = index(key)
        except TypeError:  # a slice views rows; any other key gathers them, a tuple too
            rows = key if isinstance(key, slice) else index_array(key)
            return EpisodeSet(*(a[rows] for a in self.arrays))
        if not -len(self) <= e < len(self):
            raise IndexError(f"episode {e} is out of range for a set of {len(self)}")
        return Episode(self, e % len(self))


class Episode(NamedTuple):
    """Read-only view of row ``index`` of ``episodes``; each field is built on access.

    ``observations`` is a view; ``labels``, ``degraded`` and ``needs_comm``
    (``degraded`` again) are lists, and ``gt_support[i]`` is the frozenset
    of agent i's supporters: empty for a clean agent, and possibly for an
    mrmps requester with no peer overlapping enough.
    """

    episodes: EpisodeSet
    index: int

    @property
    def observations(self) -> np.ndarray:
        return self.episodes.observations[self.index]

    @property
    def labels(self) -> list[int]:
        return self.episodes.labels[self.index].tolist()

    @property
    def degraded(self) -> list[bool]:
        return self.episodes.degraded[self.index].tolist()

    needs_comm = degraded  # the ground-truth need to communicate

    @property
    def gt_support(self) -> list[frozenset[int]]:
        mask = self.episodes.support[self.index]
        supporters = [[] for _ in mask]
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(mask))):
            supporters[i].append(j)
        return list(map(frozenset, supporters))


@dataclass(frozen=True)
class Dataset:
    """A world, its episodes and three disjoint splits of episode indices, checked here.

    Each split, any sequence of Python or NumPy integers, is kept as a tuple
    of Python ints (``densemath.integer``).  The first fault raises
    ValueError: a ``world`` not a :class:`World`, or ``episodes`` not an
    :class:`EpisodeSet`; a split index that is a bool, not an integer or
    outside [0, E), or is listed twice or in two splits; observations not
    (E, N, obs_dim) for the world (``densemath.array``); then, naming the
    (episode, agent), a non-finite observation, a label outside [0, C), an
    agent its own supporter, or supporters of a clean agent.
    """

    world: World
    episodes: EpisodeSet
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]

    def __post_init__(self):
        for name, kind in (("world", World), ("episodes", EpisodeSet)):
            if not isinstance(value := getattr(self, name), kind):
                raise ValueError(f"Dataset.{name} must be of type {kind.__name__}, got {type(value).__name__}")
        n = len(self.episodes)
        members: dict[str, dict[int, None]] = {}
        for name in _SPLITS:
            split = members[name] = {}  # insertion-ordered, so the split keeps its order
            for i in getattr(self, f"{name}_idx"):
                if type(i) is not int or not 0 <= i < n:  # type() first: the check runs once per episode
                    i = integer(i, f"splits.{name} index", 0, n - 1)
                if i in split:
                    raise ValueError(f"episode {i} is listed twice in splits.{name}")
                split[i] = None
            object.__setattr__(self, f"{name}_idx", tuple(split))
        for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
            if both := members[a].keys() & members[b].keys():
                raise ValueError(f"episode {min(both)} is listed in both splits.{a} and splits.{b}")
        world, (obs, labels, degraded, support) = self.world, self.episodes.arrays
        array(obs, "Dataset.episodes.observations", np.float64, (n, world.n_agents, world.obs_dim))
        c = world.n_classes
        _reject_first(~np.isfinite(obs).all(axis=2), "has non-finite observations")
        _reject_first((labels < 0) | (labels >= c), f"has label {{}}, not one in [0, {c})", labels)
        _reject_first(np.diagonal(support, axis1=1, axis2=2), "is listed as its own supporter")
        _reject_first(support.any(axis=2) & ~degraded, "has supporters but is not degraded")

    @property
    def test_episodes(self) -> EpisodeSet:
        """The test split, gathered: a copy that holds no reference to the whole set."""
        return self.episodes[self.test_idx]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of the (R, d) ``v`` divided by its norm; raises ValueError on a zero row.

    A row's norm is the square root of its own ``(1, d) @ (d, 1)`` product:
    one ddot, as ``np.linalg.norm`` of the row alone takes it, bit for bit
    (a test pins this).
    """
    norm = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    if (norm < 1e-12).any():
        raise ValueError("cannot normalize a zero vector")
    return v / norm[:, None]


def _orthonormal_rows(rng: Rng, n: int, dim: int) -> np.ndarray:
    """n mutually orthonormal random directions via modified Gram-Schmidt."""
    if n > dim:
        raise ValueError(f"cannot draw {n} orthonormal vectors in {dim} dimensions")
    rows = rng.normal(n * dim).reshape(n, dim)
    for i in range(n):
        for _ in range(2):  # re-orthogonalize once for numerical hygiene
            for j in range(i):
                rows[i] -= np.dot(rows[i], rows[j]) * rows[j]
        rows[i] = _unit_rows(rows[i : i + 1])[0]
    return rows


def _check_world(case, n_agents, obs_dim, n_classes, degrade_prob, noise_sigma, overlap_frac) -> dict:
    """The world scalars ``make_world`` can build from, as Python ints and floats; raises naming the first at fault."""
    if case not in CASES:
        raise ValueError(f"world case {case!r} is not one of {CASES}")
    n_agents, obs_dim, n_classes = (
        integer(value, f"world {name}", 1)
        for name, value in (("n_agents", n_agents), ("obs_dim", obs_dim), ("n_classes", n_classes))
    )
    if case == "triplet" and n_agents % 3 != 0:
        raise ValueError(f"world n_agents must be a multiple of 3 for case 'triplet', got {n_agents}")
    if obs_dim < 4 or obs_dim % 2 != 0:
        raise ValueError(f"world obs_dim must be an even integer >= 4, got {obs_dim}")
    if n_agents > obs_dim // 2:
        raise ValueError(
            f"world n_agents {n_agents} need {n_agents} orthogonal scene signatures "
            f"but only {obs_dim // 2} scene dimensions are available"
        )
    degrade_prob = real(degrade_prob, "world degrade_prob", 0, 1)
    overlap_frac = real(overlap_frac, "world overlap_frac", 0, 1)
    sigma = real(noise_sigma, "world noise_sigma", -math.inf, math.inf)
    if not 0.0 < sigma < math.inf:  # after the cast: a Fraction(1, 10**400) becomes 0.0
        raise ValueError(f"world noise_sigma must be positive and finite, got {noise_sigma!r}")
    if case == "srms" and n_agents < 2 and degrade_prob > 0.0:
        raise ValueError(
            f"world n_agents must be >= 2 for case 'srms' when degrade_prob > 0 (a degraded "
            f"agent needs a peer holding its view), got n_agents={n_agents}, degrade_prob={degrade_prob!r}"
        )
    return dict(zip(_WORLD_FIELDS, (case, n_agents, obs_dim, n_classes, degrade_prob, sigma, overlap_frac)))


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
    """Build a world from its checked Python scalars (see :class:`World`), plus rejection-sampled prototypes."""
    if n_agents is None and case in CASES:
        n_agents = DEFAULT_AGENTS[case]
    scalars = _check_world(case, n_agents, obs_dim, n_classes, degrade_prob, noise_sigma, overlap_frac)
    obs_dim, n_classes = scalars["obs_dim"], scalars["n_classes"]
    if rng is None:
        rng = Rng(0)
    scene_dim = obs_dim // 2
    content_dim = obs_dim - scene_dim
    # Rejection-sample unit prototypes until pairwise separated.
    for _ in range(1000):
        protos = rng.normal(n_classes * content_dim).reshape(n_classes, content_dim)
        protos = _unit_rows(protos)
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
    return World(**scalars, prototypes=full, scene_codes=scene_codes)


@dataclass(slots=True)
class EpisodeDraw:
    """One episode's scalar draws, all Python scalars: everything :func:`render_episodes` needs but its noise.

    ``labels[i]`` is agent i's label before any mrmps mix relabels it, and
    ``picks[i]`` the row of ``world.scene_codes`` it views.  Each
    (requester, supporter) pair of ``pairs`` is one true entry of the
    support mask (see :class:`EpisodeSet`).  ``starts[i]`` is the state
    agent i's noise block starts from (see ``Rng.skip``).  ``mixes`` is set
    only for mrmps: each (clean agent, requester, overlap) leans that
    agent's view toward the requester's, and :func:`render_episodes`
    derives from it the agent's signature, content, label and support
    entry.
    """

    labels: list[int]
    degraded: list[bool]
    picks: list[int]
    pairs: list[tuple[int, int]]
    starts: list[int]
    mixes: list[tuple[int, int, float]] = ()


def _scene_picks(world: World, rng: Rng, n_scenes: int) -> list[int]:
    """Distinct (hence orthogonal) scene codes for this episode's viewpoints, as rows of ``world.scene_codes``.

    A partial Fisher-Yates shuffle picks them: one draw per scene picked.
    """
    total = world.scene_dim
    picks = list(range(total))
    for i in range(n_scenes):
        j = i + rng.randint(total - i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks[:n_scenes]


def _skip_noise(world: World, rng: Rng) -> list[int]:
    """Jump over every agent's noise block in turn; return the state each block starts from."""
    width = 2 * (world.scene_dim + world.scene_dim % 2)
    return [rng.skip(width) for _ in range(world.n_agents)]


def _draw_srms(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    picks = _scene_picks(world, rng, n)
    designated = rng.randint(n)
    degraded = [False] * n
    pairs = []
    if rng.uniform_scalar() < world.degrade_prob:
        degraded[designated] = True
        off = rng.randint(n - 1)
        supporter = off if off < designated else off + 1
        labels[supporter] = labels[designated]
        picks[supporter] = picks[designated]
        pairs.append((designated, supporter))
    return EpisodeDraw(labels, degraded, picks, pairs, _skip_noise(world, rng))


def _draw_mrms(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    picks = _scene_picks(world, rng, n)
    degraded = [rng.uniform_scalar() < world.degrade_prob for _ in range(n)]
    # Each degraded agent needs a distinct clean counterpart, so at most
    # N//2 agents may stay degraded; surplus picks are cleared at random.
    while 2 * sum(degraded) > n:
        deg_list = [i for i, d in enumerate(degraded) if d]
        degraded[deg_list[rng.randint(len(deg_list))]] = False
    deg_list = [i for i, d in enumerate(degraded) if d]
    clean_list = [i for i, d in enumerate(degraded) if not d]
    perm = rng.permutation(len(clean_list))
    pairs = [(r, clean_list[perm[t]]) for t, r in enumerate(deg_list)]
    for r, s in pairs:
        labels[s] = labels[r]
        picks[s] = picks[r]
    return EpisodeDraw(labels, degraded, picks, pairs, _skip_noise(world, rng))


def _draw_mrmps(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    labels = [rng.randint(world.n_classes) for _ in range(n)]
    picks = _scene_picks(world, rng, n)
    degraded = [rng.uniform_scalar() < world.degrade_prob for _ in range(n)]
    deg_list = [i for i, d in enumerate(degraded) if d]
    mixes = []
    for i in range(n):
        if not degraded[i] and deg_list:
            r = deg_list[rng.randint(len(deg_list))]
            mixes.append((i, r, rng.uniform_scalar()))
    return EpisodeDraw(labels, degraded, picks, [], _skip_noise(world, rng), mixes)


def _draw_triplet(world: World, rng: Rng) -> EpisodeDraw:
    n = world.n_agents
    k = n // 3
    classes = [rng.randint(world.n_classes) for _ in range(k)]
    scenes = _scene_picks(world, rng, k)
    perm = rng.permutation(n)
    members = [perm[3 * t : 3 * t + 3] for t in range(k)]
    triplet_of = [0] * n
    for t, group in enumerate(members):
        for a in group:
            triplet_of[a] = t
    labels = [classes[t] for t in triplet_of]
    degraded = [False] * n
    pairs = []
    for group in members:
        if rng.uniform_scalar() < world.degrade_prob:
            victim = group[rng.randint(3)]
            degraded[victim] = True
            pairs += [(victim, a) for a in group if a != victim]
    return EpisodeDraw(labels, degraded, [scenes[t] for t in triplet_of], pairs, _skip_noise(world, rng))


_DRAWS = {
    "srms": _draw_srms,
    "mrms": _draw_mrms,
    "mrmps": _draw_mrmps,
    "triplet": _draw_triplet,
}


def generate_episode(world: World, rng: Rng) -> EpisodeDraw:
    """Draw one episode under the world's case-specific construction: its scalar draws, no noise yet.

    The scalar draws run first, then each agent's noise block is skipped;
    ``rng`` is left where the whole episode, noise included, ends.
    :func:`render_episodes` turns the result into a row of an :class:`EpisodeSet`.
    """
    return _DRAWS[world.case](world, rng)


def render_episodes(world: World, draws: list[EpisodeDraw]) -> EpisodeSet:
    """The episodes of ``draws`` (all drawn for ``world``), rendered as one (B, N, obs_dim) block.

    All the array work of generation happens here, once per block: one
    :func:`densemath.normal_blocks` call draws every agent's noise block
    from its recorded start, one gather takes the picked scene codes as
    signatures, and one assignment sets every pair's support entry.  Clean
    content is the prototype of the agent's label; a degraded agent sees
    noise alone.  Then every mrmps mix of the block is applied at once.  A
    clean agent reads only its own row and its requester's, which is
    degraded and never mixed, so this equals mixing agent by agent.  Every
    operation is elementwise or one row at a time, so each episode is
    bit-equal to rendering it alone.
    """
    half = world.scene_dim + world.scene_dim % 2
    shape = (len(draws), world.n_agents)
    z = normal_blocks(list(chain.from_iterable(d.starts for d in draws)), 2 * half).reshape(*shape, 2 * half)
    labels = np.array([d.labels for d in draws], dtype=np.int64)
    degraded = np.array([d.degraded for d in draws], dtype=bool)
    signatures = world.scene_codes[np.array([d.picks for d in draws])]
    content = world.prototypes[labels, world.scene_dim :]
    support = np.zeros((*shape, world.n_agents), dtype=bool)
    pairs = [(b, r, s) for b, d in enumerate(draws) for r, s in d.pairs]
    if pairs:
        support[tuple(np.array(pairs).T)] = True
    mixes = [(b, *mix) for b, d in enumerate(draws) for mix in d.mixes]
    if mixes:
        b, i, r, overlap = (np.array(column) for column in zip(*mixes))
        # Overlap is an energy fraction: the agent's signature leans toward
        # the requester's scene by sqrt(overlap), and its content mixes
        # linearly; past 0.5 it takes the requester's label, and past the
        # world's overlap_frac it supports the requester.
        lean = np.sqrt(overlap)[:, None] * signatures[b, r] + np.sqrt(1.0 - overlap)[:, None] * signatures[b, i]
        signatures[b, i] = _unit_rows(lean)
        content[b, i] = overlap[:, None] * content[b, r] + (1.0 - overlap)[:, None] * content[b, i]
        labels[b, i] = np.where(overlap > 0.5, labels[b, r], labels[b, i])
        strong = overlap > world.overlap_frac
        support[b[strong], r[strong], i[strong]] = True
    deg = degraded[..., None]
    noise = np.where(deg, world.noise_sigma, PERTURBATION_SIGMA) * z[..., half : half + world.content_dim]
    obs = np.empty((*shape, world.obs_dim), dtype=np.float64)
    obs[..., : world.scene_dim] = signatures + PERTURBATION_SIGMA * z[..., : world.scene_dim]
    obs[..., world.scene_dim :] = np.where(deg, noise, content + noise)
    return EpisodeSet(obs, labels, degraded, support)


def split_bounds(n_episodes: int) -> tuple[int, int]:
    """Where the val and the test split start in a generated set of ``n_episodes`` (80/10/10)."""
    if n_episodes < 10:
        raise ValueError(f"need at least 10 episodes for a split, got {n_episodes}")
    n_train = int(0.8 * n_episodes)
    return n_train, n_train + int(0.1 * n_episodes)


def generate_episodes(world: World, n_episodes: int, seed: int, start: int = 0) -> EpisodeSet:
    """Episodes ``start`` to ``n_episodes - 1`` of ``generate_dataset(world, n_episodes, seed)``, in order.

    Episode e is one :func:`generate_episode` call on its own stream, whose
    key is word e of ``Rng(seed)`` (see ``densemath.keyed_streams``); the
    streams of every ``RENDER_BLOCK`` episodes are keyed, and their first
    words drawn, at once, and their draws rendered at once by
    :func:`render_episodes` into the rows of four preallocated arrays, which
    then become the set.  Nothing is drawn for the episodes before
    ``start``, and episode e does not depend on ``n_episodes``.  The three
    integers may be Python or NumPy ones; a seed is read mod 2**64, as ``Rng`` reads it.
    """
    n_episodes = integer(n_episodes, "n_episodes", 0)
    seed = integer(seed, "seed")
    start = integer(start, "start", 0, n_episodes)
    e, n = n_episodes - start, world.n_agents
    arrays = (
        np.empty((e, n, world.obs_dim)), np.empty((e, n), np.int64), np.empty((e, n), bool), np.empty((e, n, n), bool)
    )
    for first in range(start, n_episodes, RENDER_BLOCK):
        rngs = keyed_streams(seed, first, min(RENDER_BLOCK, n_episodes - first))
        block = render_episodes(world, [generate_episode(world, rng) for rng in rngs])
        for target, rows in zip(arrays, block.arrays):
            target[first - start : first - start + len(rows)] = rows
    return EpisodeSet(*arrays)


def generate_dataset(world: World, n_episodes: int, seed: int) -> Dataset:
    """Seeded episode set with a deterministic, disjoint 80/10/10 split (see :func:`split_bounds`).

    The episodes are :func:`generate_episodes`'s: one :func:`generate_episode`
    draw per episode, each on the stream keyed by (``seed``, its index), so
    the first k episodes of any larger set are these, and ``n_episodes`` and
    ``seed`` are checked there.
    """
    episodes = generate_episodes(world, n_episodes, seed)
    val_start, test_start = split_bounds(len(episodes))
    return Dataset(world, episodes, range(val_start), range(val_start, test_start), range(test_start, len(episodes)))


DATASET_MAGIC = b"GRPCDATA"
DATASET_VERSION = 1
_PREFIX = struct.Struct("<8sII")  # magic, version, header length
_WORLD_FIELDS = ("case", "n_agents", "obs_dim", "n_classes", "degrade_prob", "noise_sigma", "overlap_frac")
_SPLITS = ("train", "val", "test")


def _body_layout(header: dict) -> list[tuple[str, tuple[int, ...]]]:
    """The little-endian dtype and shape of each body array, in file order (see :func:`save_dataset`)."""
    e, n, d, c, s = (header[key] for key in ("n_episodes", "n_agents", "obs_dim", "n_classes", "scene_dim"))
    return [("<f8", (c, d)), ("<f8", (s, s)), ("<f8", (e, n, d)), ("<i8", (e, n)), ("u1", (e, n)), ("u1", (e, n, n))]


def _reject_first(bad: np.ndarray, what: str, values: np.ndarray | None = None) -> None:
    """Raise naming the first (episode, agent) where the (E, N) mask ``bad`` holds.

    ``what`` ends the message, formatted with that entry of ``values`` when given.
    """
    if bad.any():
        e, i = np.argwhere(bad)[0].tolist()
        raise ValueError(f"episode {e} agent {i} " + (what if values is None else what.format(values[e, i])))


def save_dataset(path: str, dataset: Dataset) -> None:
    """Binary layout: magic, version and header length, a JSON header, then a raw little-endian body.

    The header is ``json.dumps(..., sort_keys=True)`` of the world's scalar
    fields and ``scene_dim``, ``n_episodes`` (E) and the three splits.  The
    body holds, each row-major, the world's ``prototypes`` (C, obs_dim) and
    ``scene_codes`` (S, S) as f8, then the :class:`EpisodeSet`'s arrays:
    observations (E, N, obs_dim) as f8, labels (E, N) as i8, degraded flags
    (E, N) as u1 and the support mask (E, N, N) as u1, whose entry [e, i, j]
    is 1 when agent j supports agent i.  ``needs_comm`` is ``degraded`` and
    is not stored.  It checks nothing; the world and dataset checked themselves.
    """
    world, episodes = dataset.world, dataset.episodes
    header = {key: getattr(world, key) for key in _WORLD_FIELDS + ("scene_dim",)}
    header.update(n_episodes=len(episodes), splits={name: list(getattr(dataset, f"{name}_idx")) for name in _SPLITS})
    text = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(DATASET_MAGIC, DATASET_VERSION, len(text)) + text)
        for values, (dtype, _) in zip((world.prototypes, world.scene_codes, *episodes.arrays), _body_layout(header)):
            fh.write(values.astype(dtype, copy=False).tobytes())


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


def load_dataset(path: str) -> Dataset:
    """The dataset saved at ``path``; raises ValueError naming the file and the first problem found.

    The file is read once, and only what is about the file is checked here:
    its magic and version; a header of exactly :func:`save_dataset`'s
    fields, whose world scalars are checked before any size is computed
    from them; the size the header implies; and flag and support bytes of 0
    or 1.  The :class:`World`, :class:`EpisodeSet` and :class:`Dataset`
    constructors check the rest.  The episodes are read-only views of the
    file's bytes, the world's arrays read-only copies, and the splits tuples.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if len(blob) < _PREFIX.size or blob[:8] != DATASET_MAGIC:
            raise ValueError(f"not a groupcomm dataset file of this version: it starts with {blob[:8]!r}")
        _, version, header_size = _PREFIX.unpack_from(blob)
        if version != DATASET_VERSION:
            raise ValueError(f"unsupported dataset file version {version}, expected {DATASET_VERSION}")
        offset = _PREFIX.size + header_size
        try:
            header = json.loads(blob[_PREFIX.size : offset].decode())
        except (ValueError, RecursionError) as err:  # also bad UTF-8, a cut header and a 4301-digit integer
            raise ValueError(f"the header is not valid JSON: {err}") from None
        _require_fields("the header", header, _WORLD_FIELDS + ("scene_dim", "n_episodes", "splits"))
        scalars = _check_world(**{key: header[key] for key in _WORLD_FIELDS})
        scene_dim, splits = header["scene_dim"], header["splits"]
        if type(scene_dim) is not int or scene_dim != header["obs_dim"] // 2:  # 16.0 would not shape an array
            raise ValueError(f"world scene_dim must be obs_dim // 2 = {header['obs_dim'] // 2}, got {scene_dim!r}")
        integer(header["n_episodes"], "n_episodes", 0)
        _require_fields("splits", splits, _SPLITS)
        for name in _SPLITS:
            if not isinstance(splits[name], list):
                raise ValueError(f"splits.{name} must be a JSON array, got {type(splits[name]).__name__}")
        layout = _body_layout(header)
        expected = offset + sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout)
        if len(blob) != expected:
            raise ValueError(f"the file holds {len(blob)} bytes but its header implies {expected}")
        arrays = []
        for dtype, shape in layout:
            arrays.append(np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape))
            offset += arrays[-1].nbytes
        prototypes, scene_codes, obs, labels, degraded, support = arrays
        _reject_first(degraded > 1, "has degraded flag {}, not 0 or 1", degraded)
        _reject_first((support > 1).any(axis=2), "has a gt_support entry other than 0 or 1")
        world = World(**scalars, prototypes=prototypes.copy(), scene_codes=scene_codes.copy())
        episodes = EpisodeSet(obs, labels, degraded.view(bool), support.view(bool))
        return Dataset(world, episodes, *(splits[name] for name in _SPLITS))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
