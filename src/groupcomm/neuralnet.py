"""Trainable pipeline: query/key generators, encoder, decoder, and exact backprop.

Four small fully-connected heads share each agent's observation: a query
generator (obs -> Q), key generator (obs -> K), feature encoder (obs -> F),
and a class decoder on the concatenation of the local feature with the fused
feature (2F -> C logits).  A learnable Q x K bilinear form scores query/key
pairs; row-softmax over scores yields the matching matrix used for fusion.

Training fuses with the full soft matching rows so every agent sees every
feature (gradients flow through the softmax and the bilinear scores);
inference fuses with delta-pruned rows and is never differentiated.

The communication policies live here as well: :data:`POLICIES` and the one
rule :func:`policy_rows` that turns a policy into an episode's fusion rows,
which training, validation and the simulator-driven evaluation all call.

Training runs a whole minibatch at once: the episodes are stacked as
(B, N, .) arrays, every head is one matrix product over all B*N agents, and
the matching matrix and fusion are batched products.  Its gradients are
derived by hand in the same matrix form and validated against central finite
differences; see tests.

Every parameter lives in one float64 vector, ``PipelineParams.flat``, whose
views are the heads and the bilinear form, so an Adam step, a gradient tree
and a checkpoint body (the bytes of ``flat``) are each one array.

Inference is batched too, over (N, .) or (E, N, .) stacks, but on the
row-invariant kernel :func:`~groupcomm.densemath.row_matmul` (see
:func:`mlp_infer`): every agent's row rounds exactly as it does alone, which
is how the decentralized simulator's agents compute it.  So centralized
inference over any number of episodes and distributed execution agree bit for
bit.  Training's gemm products round differently, so training agrees with
inference at delta = 0 to rounding (1e-12), not bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .commgraph import build_matching_matrix, fuse_rows, prune, top1_rows
from .densemath import Rng, relu, relu_grad, row_matmul, softmax

CHECKPOINT_MAGIC = b"GRPCOMM1"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = "<8sI6I"

POLICIES = ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected")
# Policies whose rows start from the soft matching matrix, so the handshake runs.
HANDSHAKE_POLICIES = ("when2com", "forced_top1", "fully_connected")

# Episodes per inference call in validation.  The inference kernel rounds
# every row as it does alone, so accuracy does not depend on this size; it
# only bounds memory.  One call over 1600 validation episodes raised peak RSS
# by 27 MB, blocks of 64 by about 1 MB, and blocks of 64 also ran faster.
EVAL_BLOCK = 64


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs; rectifier between layers, none after the last."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]


@dataclass
class PipelineConfig:
    # Field order is the checkpoint header's dimension order.
    d_obs: int = 32
    q_dim: int = 4
    k_dim: int = 16
    f_dim: int = 32
    n_classes: int = 10
    hidden: int = 64

    def __post_init__(self):
        for name in ("d_obs", "q_dim", "k_dim", "f_dim", "n_classes", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"PipelineConfig.{name} must be positive, got {getattr(self, name)}")


def head_sizes(c: PipelineConfig) -> list[list[int]]:
    """Layer widths of the query, key, encoder and decoder heads, in that order."""
    return [
        [c.d_obs, c.hidden, c.q_dim],
        [c.d_obs, c.hidden, c.k_dim],
        [c.d_obs, c.hidden, c.f_dim],
        [2 * c.f_dim, c.hidden, c.n_classes],
    ]


def param_shapes(c: PipelineConfig) -> list[tuple[int, ...]]:
    """Every parameter array's shape in checkpoint order: each head's (weight, bias) pairs, then ``w_g``."""
    return [s for h in head_sizes(c) for i, o in zip(h, h[1:]) for s in ((o, i), (o,))] + [(c.q_dim, c.k_dim)]


@dataclass
class PipelineParams:
    """All learnable parameters, held in one float64 vector ``flat`` (zeros by default).

    The four MLP heads ``theta_q``, ``theta_k``, ``theta_e``, ``theta_d`` and
    the bilinear matching form ``w_g`` are views of ``flat``, laid out in
    checkpoint order (:func:`param_shapes`).  Writing a view writes ``flat``,
    so one vector operation on ``flat`` updates every parameter.
    """

    config: PipelineConfig
    flat: np.ndarray | None = None

    def __post_init__(self):
        shapes = param_shapes(self.config)
        sizes = [math.prod(s) for s in shapes]
        if self.flat is None:
            self.flat = np.zeros(sum(sizes))
        if self.flat.dtype != np.float64 or self.flat.shape != (sum(sizes),):
            got = f"{self.flat.dtype} of shape {self.flat.shape}"
            raise ValueError(f"PipelineParams.flat must be a float64 vector of {sum(sizes)} values, got {got}")
        views = (a.reshape(s) for a, s in zip(np.split(self.flat, np.cumsum(sizes)[:-1]), shapes))
        self.theta_q, self.theta_k, self.theta_e, self.theta_d = (
            MlpParams([(next(views), next(views)) for _ in h[1:]]) for h in head_sizes(self.config)
        )
        self.w_g = next(views)


# Gradient trees are shape-congruent with the parameters they differentiate.
Gradients = PipelineParams


def init_mlp(sizes: list[int], rng: Rng) -> MlpParams:
    """He-scaled weights (Normal with variance 2/fan_in), zero biases."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(fan_out * fan_in).reshape(fan_out, fan_in) * math.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out, dtype=np.float64)))
    return MlpParams(layers)


def init_pipeline(config: PipelineConfig, rng: Rng) -> PipelineParams:
    """The heads from :func:`init_mlp` in head order, then the bilinear form, drawn in that order."""
    c = config
    arrays = [a for sizes in head_sizes(c) for layer in init_mlp(sizes, rng).layers for a in layer]
    # Bilinear form scaled to variance 1/sqrt(Q*K).
    arrays.append(rng.normal(c.q_dim * c.k_dim) * (c.q_dim * c.k_dim) ** -0.25)
    return PipelineParams(c, np.concatenate([a.ravel() for a in arrays]))


def param_arrays(theta: PipelineParams) -> list[np.ndarray]:
    """Every parameter array (views of ``theta.flat``), in checkpoint order."""
    heads = (theta.theta_q, theta.theta_k, theta.theta_e, theta.theta_d)
    return [a for head in heads for layer in head.layers for a in layer] + [theta.w_g]


def zeros_like_params(theta: PipelineParams) -> Gradients:
    return PipelineParams(theta.config)


@dataclass
class MlpCache:
    inputs: list[np.ndarray]  # input to each layer
    pre: list[np.ndarray]  # pre-activation of each layer


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Training's affine-rectifier chain on a (R, d) stack; the cache retains pre-activations.

    Each layer is one ``h @ w.T + b`` product over all rows.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != p.in_dim:
        raise ValueError(f"input shape {h.shape} is not a stack of rows matching the first layer ({p.in_dim})")
    inputs, pre = [], []
    last = len(p.layers) - 1
    for idx, (w, b) in enumerate(p.layers):
        inputs.append(h)
        z = h @ w.T + b
        pre.append(z)
        h = z if idx == last else relu(z)
    return h, MlpCache(inputs, pre)


def mlp_infer(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Inference's affine-rectifier chain on one vector or rows of any leading shape.

    Every layer runs on :func:`~groupcomm.densemath.row_matmul`, so each row
    is bit-identical to the per-vector ``w @ h + b`` chain on that row alone,
    whatever the stack around it.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 0 or h.shape[-1] != p.in_dim:
        raise ValueError(f"input shape {h.shape} does not match first layer ({p.in_dim})")
    last = len(p.layers) - 1
    for idx, (w, b) in enumerate(p.layers):
        z = row_matmul(h, w) + b
        h = z if idx == last else relu(z)
    return h


def mlp_backward(
    p: MlpParams, cache: MlpCache, dout: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of all layers plus the derivative w.r.t. the input.

    ``dout`` has the forward output's shape; for a stack of rows the layer
    gradients sum over the rows.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(p.layers)  # type: ignore[list-item]
    dz = np.asarray(dout, dtype=np.float64)
    for idx in range(len(p.layers) - 1, -1, -1):
        w, _ = p.layers[idx]
        if idx < len(p.layers) - 1:
            dz = dz * relu_grad(cache.pre[idx])
        grads[idx] = (dz.T @ cache.inputs[idx], dz.sum(axis=0))
        dz = dz @ w
    return grads, dz


@dataclass
class ForwardCache:
    """Intermediates of a forward pass.

    Training holds (B, N, .) arrays plus each head's row cache, which
    :func:`pipeline_backward` reads; ``queries``/``keys`` are None on the
    fixed-row path.  Inference holds the features and fused features with
    its input's leading shape and is never differentiated.
    """

    mode: str
    features: np.ndarray
    fused: np.ndarray
    m: np.ndarray
    logits: np.ndarray | None = None
    queries: np.ndarray | None = None
    keys: np.ndarray | None = None
    q_cache: MlpCache | None = None
    k_cache: MlpCache | None = None
    e_cache: MlpCache | None = None
    d_cache: MlpCache | None = None


@dataclass
class ForwardResult:
    logits: np.ndarray
    cache: ForwardCache
    m: np.ndarray
    m_bar: np.ndarray | None


def decode(theta: PipelineParams, features: np.ndarray, fused: np.ndarray) -> np.ndarray:
    """Inference class logits from local and fused features, for one agent or a stack."""
    return mlp_infer(theta.theta_d, np.concatenate([features, fused], axis=-1))


def fixed_policy_rows(policy: str, n: int, rng: Rng | None) -> np.ndarray:
    """Constant fusion rows for the policies that run no handshake.

    ``randcom`` draws one peer per agent from ``rng``, in agent order; a lone
    agent has no peer, keeps its own feature and draws nothing.
    """
    if policy == "nocom" or (policy == "randcom" and n == 1):
        return np.eye(n)
    if policy == "catall":
        return np.full((n, n), 1.0 / n)
    if policy == "randcom":
        if rng is None:
            raise ValueError("policy 'randcom' draws its peers from rng, but rng is None")
        rows = np.zeros((n, n))
        for i in range(n):
            j = rng.randint(n - 1)
            if j >= i:
                j += 1
            rows[i, j] = 1.0
        return rows
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def policy_rows(
    policy: str, soft_rows: np.ndarray | None, n: int, delta: float, rng: Rng | None
) -> tuple[np.ndarray, float]:
    """One episode's fusion rows under ``policy`` and the threshold that prunes them.

    ``when2com``        the soft matching rows, pruned at ``delta``;
    ``fully_connected`` the soft rows unpruned, so every feature is fused;
    ``forced_top1``     each agent's best off-diagonal peer at hard weight 1;
    ``nocom``           each agent decodes its own feature only;
    ``randcom``         each agent pulls one uniformly random other agent;
    ``catall``          each agent fuses the plain mean of every feature.

    ``soft_rows`` is the (N, N) matching matrix for the
    :data:`HANDSHAKE_POLICIES` and unused by the others.  Only ``when2com``
    prunes at ``delta``; every other policy's threshold is 0.
    """
    if policy == "when2com":
        return soft_rows, delta
    if policy == "fully_connected":
        return soft_rows, 0.0
    if policy == "forced_top1":
        return top1_rows(soft_rows), 0.0
    return fixed_policy_rows(policy, n, rng), 0.0


def pipeline_forward(
    theta: PipelineParams,
    observations,
    mode: str = "training",
    delta: float = 0.0,
    policy: str = "when2com",
    rng: Rng | None = None,
) -> ForwardResult:
    """Full forward pass under a communication policy (see :func:`policy_rows`).

    Both modes take one episode, (N, d_obs), or a stack of episodes with equal
    N, (B, N, d_obs); ``logits``, ``m`` and ``m_bar`` keep the input's leading
    shape, and the rows of ``randcom`` are drawn from ``rng`` episode by
    episode, in stack order.  ``training`` fuses the handshake policies with
    the soft matching rows; the other policies' attention heads are neither
    evaluated nor differentiated.  ``inference`` builds the matching matrix
    only for a handshake policy, prunes the policy's rows at its threshold,
    and runs on the row-invariant kernel, so each episode's outputs are bit
    for bit those of the simulator, whatever the stack around it.
    """
    if mode == "training":
        return _training_forward(theta, observations, policy, rng)
    if mode != "inference":
        raise ValueError(f"unknown mode {mode!r}")
    obs, lead = _episode_stack(observations)
    n = obs.shape[-2]
    features = mlp_infer(theta.theta_e, obs)
    soft = None
    if policy in HANDSHAKE_POLICIES:
        soft = build_matching_matrix(mlp_infer(theta.theta_q, obs), mlp_infer(theta.theta_k, obs), theta.w_g)
    picked = [policy_rows(policy, None if soft is None else soft[e], n, delta, rng) for e in range(len(obs))]
    m = np.stack([rows for rows, _ in picked])
    m_bar = prune(m, picked[0][1])  # the threshold is the policy's, the same for every episode
    fused = fuse_rows(m_bar, features)
    logits = decode(theta, features, fused)
    logits, features, fused, m, m_bar = (a.reshape(lead + a.shape[-1:]) for a in (logits, features, fused, m, m_bar))
    return ForwardResult(logits, ForwardCache("inference", features, fused, m), m, m_bar)


def _episode_stack(observations) -> tuple[np.ndarray, tuple[int, ...]]:
    """``observations`` as a (B, N, d_obs) stack (B, N >= 1), and their leading shape."""
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim not in (2, 3) or 0 in obs.shape[:-1]:
        raise ValueError(f"need (N, d_obs) or (B, N, d_obs) observations of N >= 1 agents, got {obs.shape}")
    return obs.reshape((-1,) + obs.shape[-2:]), obs.shape[:-1]


def _training_forward(theta: PipelineParams, observations, policy: str, rng: Rng | None) -> ForwardResult:
    obs, lead = _episode_stack(observations)
    b, n, d = obs.shape
    x = obs.reshape(b * n, d)

    e, e_cache = mlp_forward(theta.theta_e, x)
    features = e.reshape(b, n, -1)
    queries = keys = q_cache = k_cache = None
    if policy in HANDSHAKE_POLICIES:
        mu, q_cache = mlp_forward(theta.theta_q, x)
        kappa, k_cache = mlp_forward(theta.theta_k, x)
        queries, keys = mu.reshape(b, n, -1), kappa.reshape(b, n, -1)
        scores = (mu @ theta.w_g).reshape(b, n, -1) @ keys.transpose(0, 2, 1)
        m = softmax(scores / math.sqrt(theta.w_g.shape[1]))
    else:
        m = np.stack([policy_rows(policy, None, n, 0.0, rng)[0] for _ in range(b)])

    fused = m @ features
    z, d_cache = mlp_forward(theta.theta_d, np.concatenate([features, fused], axis=-1).reshape(b * n, -1))
    logits = z.reshape(b, n, -1)
    cache = ForwardCache("training", features, fused, m, logits, queries, keys, q_cache, k_cache, e_cache, d_cache)
    return ForwardResult(logits.reshape(lead + (-1,)), cache, m.reshape(lead + (n,)), None)


def cross_entropy_loss(logits, labels) -> float:
    """Mean over agents (of every episode) of -log softmax(logits)[label].

    ``logits`` is (N, C) or (B, N, C); ``labels`` has its leading shape.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.shape[:-1] != y.shape:
        raise ValueError(f"logits of shape {z.shape} vs labels of shape {y.shape}")
    bad = (y < 0) | (y >= z.shape[-1])
    if np.any(bad):
        raise ValueError(f"label {y[bad][0]} out of range [0, {z.shape[-1]})")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    log_p = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return float(-np.mean(np.take_along_axis(log_p, y[..., None], axis=-1)))


def pipeline_backward(
    cache: ForwardCache, theta: PipelineParams, labels
) -> Gradients:
    """Exact gradients of the mean cross-entropy w.r.t. every parameter.

    ``labels`` has the forward logits' leading shape, (N,) or (B, N).  Only
    valid for a training-mode forward: inference-time pruning is a hard gate
    and is never differentiated.
    """
    if cache.mode != "training":
        raise ValueError("backward requires a training-mode forward cache")
    b, n, f_dim = cache.features.shape
    y = np.asarray(labels)
    if y.size != b * n:
        raise ValueError(f"cache holds {b} x {n} agents but got labels of shape {y.shape}")

    grads = zeros_like_params(theta)
    dlogits = softmax(cache.logits.reshape(b * n, -1))
    dlogits[np.arange(b * n), y.reshape(-1)] -= 1.0
    dlogits /= b * n
    d_layers, du = mlp_backward(theta.theta_d, cache.d_cache, dlogits)
    _assign(grads.theta_d, d_layers)
    du = du.reshape(b, n, 2 * f_dim)

    # Fusion: fused = M @ E.
    d_fused = du[..., f_dim:]
    d_features = du[..., :f_dim] + cache.m.transpose(0, 2, 1) @ d_fused

    if cache.queries is not None:
        # Row-softmax jacobian: dS = M * (dM - rowsum(dM * M)), then the
        # 1/sqrt(K) scale of the scores S = (Q W_g) K^T.
        dm = d_fused @ cache.features.transpose(0, 2, 1)
        ds = cache.m * (dm - np.sum(dm * cache.m, axis=-1, keepdims=True))
        ds /= math.sqrt(theta.w_g.shape[1])
        ds_keys = (ds @ cache.keys).reshape(b * n, -1)
        grads.w_g[...] = cache.queries.reshape(b * n, -1).T @ ds_keys
        d_mu = ds_keys @ theta.w_g.T
        d_kappa = (ds.transpose(0, 2, 1) @ cache.queries).reshape(b * n, -1) @ theta.w_g
        _assign(grads.theta_q, mlp_backward(theta.theta_q, cache.q_cache, d_mu)[0])
        _assign(grads.theta_k, mlp_backward(theta.theta_k, cache.k_cache, d_kappa)[0])

    _assign(grads.theta_e, mlp_backward(theta.theta_e, cache.e_cache, d_features.reshape(b * n, f_dim))[0])
    return grads


def _assign(head: MlpParams, layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write one head's (dW, db) pairs into a gradient tree's views."""
    for (w, b), (dw, db) in zip(head.layers, layer_grads):
        w[...], b[...] = dw, db


@dataclass
class AdamState:
    """First and second moment vectors, laid out as ``PipelineParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, theta: PipelineParams) -> "AdamState":
        return cls(m=np.zeros_like(theta.flat), v=np.zeros_like(theta.flat), t=0)


def adam_step(
    theta: PipelineParams,
    grads: Gradients,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[PipelineParams, AdamState]:
    """One bias-corrected Adam update over the flat vectors; returns fresh parameters and state."""
    t = state.t + 1
    g = grads.flat
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    flat = theta.flat - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return PipelineParams(theta.config, flat), AdamState(m=m, v=v, t=t)


@dataclass
class TrainConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    steps: int = 5000
    batch_size: int = 8
    policy: str = "when2com"
    eval_every: int = 500

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"TrainConfig.steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig.batch_size must be positive, got {self.batch_size}")
        if self.policy not in POLICIES:
            raise ValueError(f"TrainConfig.policy must be one of {POLICIES}, got {self.policy!r}")


def episode_loss_and_grads(
    theta: PipelineParams, episodes, policy: str, rng: Rng
) -> tuple[float, Gradients]:
    """Training-mode mean loss and exact gradients over a minibatch of episodes.

    The episodes (equal N) run as one (B, N, .) batch.
    """
    observations = np.stack([ep.observations for ep in episodes])
    labels = np.array([ep.labels for ep in episodes])
    result = pipeline_forward(theta, observations, mode="training", policy=policy, rng=rng)
    loss = cross_entropy_loss(result.logits, labels)
    return loss, pipeline_backward(result.cache, theta, labels)


def evaluate_task_accuracy(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None
) -> float:
    """Fraction of (episode, agent) predictions matching labels at inference.

    The episodes must share one agent count; they run in stacks of
    :data:`EVAL_BLOCK`.  ``randcom`` rows are drawn from ``rng``, episode by
    episode, or from one ``Rng(0)`` for the whole call when it is omitted.
    """
    rng = rng if rng is not None else Rng(0)
    episodes = list(episodes)
    if not episodes:
        return 0.0
    n = len(episodes[0].labels)
    for idx, ep in enumerate(episodes):
        if len(ep.labels) != n:
            raise ValueError(f"episode {idx} has {len(ep.labels)} agents, but episode 0 has {n}")
    correct = 0
    for start in range(0, len(episodes), EVAL_BLOCK):
        block = episodes[start : start + EVAL_BLOCK]
        obs = np.stack([ep.observations for ep in block])
        result = pipeline_forward(theta, obs, mode="inference", delta=delta, policy=policy, rng=rng)
        correct += int(np.sum(np.argmax(result.logits, axis=-1) == np.array([ep.labels for ep in block])))
    return correct / (len(episodes) * n)


def train(config: TrainConfig, dataset, rng: Rng) -> tuple[PipelineParams, list[dict]]:
    """Minibatch Adam loop over training episodes.

    Each step draws its batch indices from ``rng``, then runs one batched
    forward and backward over the whole batch and one Adam update at
    :func:`adam_step`'s default rates.  The log records the batch loss at
    every step and validation task accuracy every ``eval_every`` steps.  The
    run is single-threaded and bit-reproducible for a fixed seed.
    """
    train_eps = list(dataset.train_episodes)
    if not train_eps:
        raise ValueError("training dataset is empty")
    val_eps = list(dataset.val_episodes)

    theta = init_pipeline(config.pipeline, rng)
    state = AdamState.for_params(theta)
    log: list[dict] = []
    n_train = len(train_eps)

    for step in range(1, config.steps + 1):
        batch = [train_eps[rng.randint(n_train)] for _ in range(config.batch_size)]
        loss, grads = episode_loss_and_grads(theta, batch, config.policy, rng)
        theta, state = adam_step(theta, grads, state)
        log.append({"step": step, "loss": loss})
        if config.eval_every and val_eps and step % config.eval_every == 0:
            n_agents = len(val_eps[0].labels)
            acc = evaluate_task_accuracy(
                theta, val_eps, delta=1.0 / n_agents, policy=config.policy, rng=Rng(rng.seed ^ step)
            )
            log.append({"step": step, "val_task_acc": acc})
    return theta, log


def save_checkpoint(path: str, theta: PipelineParams, config: PipelineConfig) -> None:
    """Binary layout: magic, version and dims, then the bytes of ``theta.flat``.

    The body is ``flat`` as little-endian float64, which holds every tensor
    row-major in checkpoint order; the shapes follow from the dimension tuple
    (see :class:`PipelineParams`).
    """
    if config != theta.config:
        raise ValueError(f"checkpoint config {config} does not describe the parameters' {theta.config}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(config)))
        fh.write(theta.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> tuple[PipelineParams, PipelineConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = struct.calcsize(CHECKPOINT_HEADER)
    if len(blob) < head_size:
        raise ValueError(f"checkpoint {path} is truncated: {len(blob)} bytes, header needs {head_size}")
    magic, version, *dims = struct.unpack(CHECKPOINT_HEADER, blob[:head_size])
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    config = PipelineConfig(*dims)
    expected = head_size + 8 * sum(math.prod(s) for s in param_shapes(config))
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint {path} holds {len(blob)} bytes but its dimension header implies {expected}"
        )
    theta = PipelineParams(config)
    theta.flat[:] = np.frombuffer(blob, dtype="<f8", offset=head_size)
    return theta, config
