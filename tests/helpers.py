"""Shared test oracles and training-job helpers (importable from any test module)."""

import json
import math
import struct
import time
from pathlib import Path

import numpy as np

from groupcomm.densemath import Rng
from groupcomm.evalcli import train_run
from groupcomm.neuralnet import (
    MlpParams,
    PipelineConfig,
    PipelineParams,
    cross_entropy_loss,
    init_pipeline,
    pipeline_backward,
    pipeline_forward,
    save_checkpoint,
)
from groupcomm.scenarios import EpisodeSet, generate_episode, render_episodes
from groupcomm.simnet import KIND_CODES


# The dataset file layout, written out here apart from scenarios so that the
# tests pin it: magic, version and header length, the JSON header, then the
# body arrays, each little-endian and row-major.
DATASET_PREFIX = struct.Struct("<8sII")
DATASET_MAGIC = b"GRPCDATA"
BODY_DTYPES = {
    "prototypes": "<f8",
    "scene_codes": "<f8",
    "observations": "<f8",
    "labels": "<i8",
    "degraded": "u1",
    "gt_support": "u1",
}


def read_dataset_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the body arrays of a well-formed dataset file, each array a writable copy."""
    blob = Path(path).read_bytes()
    magic, version, size = DATASET_PREFIX.unpack_from(blob)
    assert (magic, version) == (DATASET_MAGIC, 1)
    offset = DATASET_PREFIX.size + size
    header = json.loads(blob[DATASET_PREFIX.size : offset])
    e, n, d, c, s = (header[key] for key in ("n_episodes", "n_agents", "obs_dim", "n_classes", "scene_dim"))
    shapes = [(c, d), (s, s), (e, n, d), (e, n), (e, n), (e, n, n)]
    arrays = {}
    for (name, dtype), shape in zip(BODY_DTYPES.items(), shapes):
        arrays[name] = np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape).copy()
        offset += arrays[name].nbytes
    assert offset == len(blob)
    return header, arrays


def write_dataset_file(path, header, arrays, version=1) -> None:
    """A dataset file holding ``header`` and ``arrays`` as given, whether or not they fit each other."""
    text = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(DATASET_PREFIX.pack(DATASET_MAGIC, version, len(text)) + text)
        for name, dtype in BODY_DTYPES.items():
            fh.write(np.asarray(arrays[name], dtype=dtype).tobytes())


def edit_dataset_file(path, edit) -> None:
    """Rewrite the dataset file at ``path`` after ``edit(header, arrays)`` changed its contents in place."""
    header, arrays = read_dataset_file(path)
    edit(header, arrays)
    write_dataset_file(path, header, arrays)


def one_episode(world, rng):
    """The next episode of ``rng``'s stream: one ``generate_episode`` draw, rendered alone (an ``Episode`` view)."""
    return render_episodes(world, [generate_episode(world, rng)])[0]


def drawn_episodes(world, rng, count):
    """The next ``count`` episodes of ``rng``'s stream as one set, each bit-equal to :func:`one_episode`'s."""
    return render_episodes(world, [generate_episode(world, rng) for _ in range(count)])


def episode_set(observations, labels, degraded, support):
    """An ``EpisodeSet`` from array-likes: (E, N, d) observations, (E, N) labels and flags, (E, N, N) support."""
    return EpisodeSet(
        np.asarray(observations, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        np.asarray(degraded, dtype=bool),
        np.asarray(support, dtype=bool),
    )


def init_mlp(sizes, rng):
    """One head, He-scaled (Normal with variance 2/fan_in), zero biases: one ``normal`` call per weight."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(fan_out * fan_in).reshape(fan_out, fan_in) * math.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return MlpParams(tuple(layers))


def head_widths(c):
    """Layer widths of the query, key, encoder and decoder heads, in that order, written out apart from neuralnet."""
    return [
        [c.d_obs, c.hidden, c.q_dim],
        [c.d_obs, c.hidden, c.k_dim],
        [c.d_obs, c.hidden, c.f_dim],
        [2 * c.f_dim, c.hidden, c.n_classes],
    ]


def per_layer_init(config, rng):
    """The reference for ``init_pipeline``: each head from :func:`init_mlp` in head order, then ``w_g``."""
    arrays = [a for sizes in head_widths(config) for layer in init_mlp(sizes, rng).layers for a in layer]
    arrays.append(rng.normal(config.q_dim * config.k_dim) * (config.q_dim * config.k_dim) ** -0.25)
    return PipelineParams(config, np.concatenate([a.ravel() for a in arrays]))


def monolithic_forward(theta, obs_matrix, delta=None):
    """Straight-line reimplementation of the full forward math on stacked rows."""

    def mlp(p, x):
        h = x @ p.layers[0][0].T + p.layers[0][1]
        h = np.maximum(h, 0.0)
        return h @ p.layers[1][0].T + p.layers[1][1]

    x = np.asarray(obs_matrix)
    mu = mlp(theta.theta_q, x)
    kappa = mlp(theta.theta_k, x)
    feats = mlp(theta.theta_e, x)
    k_dim = theta.w_g.shape[1]
    scores = mu @ theta.w_g @ kappa.T / math.sqrt(k_dim)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    m = e / e.sum(axis=1, keepdims=True)
    if delta is not None:
        m = np.where(m >= delta, m, 0.0)
    fused = m @ feats
    u = np.concatenate([feats, fused], axis=1)
    return mlp(theta.theta_d, u), m


def fresh_backward(result, theta, labels):
    """``pipeline_backward`` written into a new gradient tree, which is returned."""
    grads = PipelineParams(theta.config)
    pipeline_backward(result, theta, labels, grads)
    return grads


def fd_gradcheck(theta, obs, labels, eps=1e-5):
    """Max relative error of analytic gradients vs central finite differences."""
    result = pipeline_forward(theta, obs, mode="training")
    analytic = fresh_backward(result, theta, labels)

    def loss_now():
        r = pipeline_forward(theta, obs, mode="training")
        return cross_entropy_loss(r.logits, labels)

    worst = 0.0
    for arr, g in zip(theta.arrays, analytic.arrays):
        flat, gflat = arr.ravel(), g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_now()
            flat[idx] = orig - eps
            down = loss_now()
            flat[idx] = orig
            fd = (up - down) / (2.0 * eps)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6)
            worst = max(worst, rel)
    return worst


def random_small_pipeline(rng: Rng, n_agents=None):
    """Random small configuration for gradient and equivalence checks."""
    n = n_agents if n_agents is not None else 1 + rng.randint(4)
    cfg = PipelineConfig(
        d_obs=4 + rng.randint(5),
        q_dim=1 + rng.randint(3),
        k_dim=2 + rng.randint(4),
        f_dim=3 + rng.randint(4),
        n_classes=2 + rng.randint(3),
        hidden=5 + rng.randint(5),
    )
    theta = init_pipeline(cfg, rng)
    obs = [rng.normal(cfg.d_obs) for _ in range(n)]
    labels = [rng.randint(cfg.n_classes) for _ in range(n)]
    return cfg, theta, obs, labels


def training_job(out_path: str, seed: int, policy: str = "when2com", q_dim: int = 4,
                 k_dim: int = 16, steps: int = 5000, n_episodes: int = 40000) -> tuple[str, float]:
    """Train one model (picklable worker for process pools); saves a checkpoint."""
    start = time.time()
    run = train_run(
        case="srms",
        n_episodes=n_episodes,
        steps=steps,
        seed=seed,
        policy=policy,
        q_dim=q_dim,
        k_dim=k_dim,
    )
    save_checkpoint(out_path, run.theta, run.config.pipeline)
    return out_path, time.time() - start


def log_entry(log, kind, episode, src, dst) -> int:
    """The index of the one ``kind`` message from ``src`` to ``dst`` in ``episode`` of a block's log."""
    (entry,) = np.flatnonzero(
        (log.kind == KIND_CODES[kind]) & (log.episode == episode) & (log.columns[2] == src) & (log.columns[3] == dst)
    )
    return int(entry)


def drop_entry(log, entry) -> None:
    """Remove one message from a log, as if it were lost."""
    log.columns = np.delete(log.columns, entry, axis=1)


def repeat_entry(log, entry) -> None:
    """Deliver one message of a log twice."""
    log.columns = np.insert(log.columns, entry + 1, log.columns[:, entry], axis=1)


def readdress_entry(log, entry, dst) -> None:
    """Send one message of a log to agent ``dst`` instead."""
    log.columns[3, entry] = dst
