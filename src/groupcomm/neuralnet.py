"""Trainable pipeline: query/key generators, encoder, decoder, and exact backprop.

Four small fully-connected heads share each agent's observation: a query
generator (obs -> Q), key generator (obs -> K), feature encoder (obs -> F),
and a class decoder on the concatenation of the local feature with the fused
feature (2F -> C logits).  A learnable Q x K bilinear form scores query/key
pairs; row-softmax over scores yields the matching matrix used for fusion.

Training fuses with the full soft matching rows so every agent sees every
feature (gradients flow through the softmax and the bilinear scores);
inference fuses with delta-pruned rows and is never differentiated.

Training runs a whole minibatch at once: the episodes are stacked as
(B, N, .) arrays, every head is one matrix product over all B*N agents, and
the matching matrix and fusion are batched products.  Its gradients are
derived by hand in the same matrix form and validated against central finite
differences; see tests.  Inference runs agent by agent through the same
single-vector primitives as the decentralized simulator, so centralized
inference and distributed execution agree bit for bit.  Batched products are
not bit-identical to per-vector ones, so training agrees with inference at
delta = 0 to rounding (1e-12), not bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .commgraph import build_matching_matrix, fuse, prune, top1_rows
from .densemath import Rng, relu, relu_grad

CHECKPOINT_MAGIC = b"GRPCOMM1"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = "<8sI6I"

ATTENTION_POLICIES = ("when2com", "forced_top1", "fully_connected")
FIXED_ROW_POLICIES = ("nocom", "randcom", "catall")


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


@dataclass
class PipelineParams:
    """All learnable parameters: four MLP heads plus the bilinear matching form."""

    theta_q: MlpParams
    theta_k: MlpParams
    theta_e: MlpParams
    theta_d: MlpParams
    w_g: np.ndarray


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
    c = config
    theta_q = init_mlp([c.d_obs, c.hidden, c.q_dim], rng)
    theta_k = init_mlp([c.d_obs, c.hidden, c.k_dim], rng)
    theta_e = init_mlp([c.d_obs, c.hidden, c.f_dim], rng)
    theta_d = init_mlp([2 * c.f_dim, c.hidden, c.n_classes], rng)
    # Bilinear form scaled to variance 1/sqrt(Q*K).
    w_g = rng.normal(c.q_dim * c.k_dim).reshape(c.q_dim, c.k_dim) * (c.q_dim * c.k_dim) ** -0.25
    return PipelineParams(theta_q, theta_k, theta_e, theta_d, w_g)


def param_arrays(theta: PipelineParams) -> list[np.ndarray]:
    """Live references to every parameter array, in fixed declaration order."""
    out = []
    for head in (theta.theta_q, theta.theta_k, theta.theta_e, theta.theta_d):
        for w, b in head.layers:
            out.append(w)
            out.append(b)
    out.append(theta.w_g)
    return out


def clone_params(theta: PipelineParams) -> PipelineParams:
    return PipelineParams(
        theta_q=MlpParams([(w.copy(), b.copy()) for w, b in theta.theta_q.layers]),
        theta_k=MlpParams([(w.copy(), b.copy()) for w, b in theta.theta_k.layers]),
        theta_e=MlpParams([(w.copy(), b.copy()) for w, b in theta.theta_e.layers]),
        theta_d=MlpParams([(w.copy(), b.copy()) for w, b in theta.theta_d.layers]),
        w_g=theta.w_g.copy(),
    )


def zeros_like_params(theta: PipelineParams) -> Gradients:
    return PipelineParams(
        theta_q=MlpParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in theta.theta_q.layers]),
        theta_k=MlpParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in theta.theta_k.layers]),
        theta_e=MlpParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in theta.theta_e.layers]),
        theta_d=MlpParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in theta.theta_d.layers]),
        w_g=np.zeros_like(theta.w_g),
    )


@dataclass
class MlpCache:
    inputs: list[np.ndarray]  # input to each layer
    pre: list[np.ndarray]  # pre-activation of each layer


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Affine-rectifier chain on one vector or a stack of rows; cache retains pre-activations.

    A single vector runs as ``w @ h + b``, the form the simulator's agents
    use; a (R, d) stack runs as one ``h @ w.T + b`` product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != p.in_dim:
        raise ValueError(f"input shape {x.shape} does not match first layer ({p.in_dim})")
    inputs, pre = [], []
    h = x
    last = len(p.layers) - 1
    for idx, (w, b) in enumerate(p.layers):
        inputs.append(h)
        z = w @ h + b if h.ndim == 1 else h @ w.T + b
        pre.append(z)
        h = z if idx == last else relu(z)
    return h, MlpCache(inputs, pre)


def mlp_backward(
    p: MlpParams, cache: MlpCache, dout: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of all layers plus the derivative w.r.t. the input.

    ``dout`` has the forward output's shape; for a stack of rows the layer
    gradients sum over the rows.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(p.layers)  # type: ignore[list-item]
    dz = np.atleast_2d(np.asarray(dout, dtype=np.float64))
    for idx in range(len(p.layers) - 1, -1, -1):
        w, _ = p.layers[idx]
        if idx < len(p.layers) - 1:
            dz = dz * relu_grad(cache.pre[idx])
        grads[idx] = (dz.T @ np.atleast_2d(cache.inputs[idx]), dz.sum(axis=0))
        dz = dz @ w
    return grads, dz.reshape(np.shape(dout)[:-1] + (p.in_dim,))


@dataclass
class ForwardCache:
    """Intermediates of a forward pass.

    Training holds (B, N, .) arrays plus each head's row cache, which
    :func:`pipeline_backward` reads; ``queries``/``keys`` are None on the
    fixed-row path.  Inference holds per-agent lists and is never
    differentiated.
    """

    mode: str
    features: np.ndarray | list[np.ndarray]
    fused: np.ndarray | list[np.ndarray]
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
    logits: np.ndarray | list[np.ndarray]
    cache: ForwardCache
    m: np.ndarray
    m_bar: np.ndarray | None


def decode_agent(theta: PipelineParams, feature: np.ndarray, fused: np.ndarray):
    """Class logits for one agent from its local and fused features."""
    u = np.concatenate([feature, fused])
    return mlp_forward(theta.theta_d, u)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def pipeline_forward(
    theta: PipelineParams,
    observations,
    mode: str = "training",
    delta: float = 0.0,
    fixed_rows: np.ndarray | None = None,
) -> ForwardResult:
    """Full forward pass.

    ``training`` takes one episode, (N, d_obs), or a minibatch of episodes
    with equal N, (B, N, d_obs), and fuses with the soft matching rows;
    ``logits`` and ``m`` keep the input's leading shape.  ``inference`` takes
    one episode, runs it agent by agent exactly as the simulator does, and
    prunes the rows at ``delta`` first.  ``fixed_rows`` substitutes a constant
    matching matrix (baseline policies; (B, N, N) for a batch); the attention
    heads are then neither evaluated nor differentiated.
    """
    if mode == "training":
        return _training_forward(theta, observations, fixed_rows)
    if mode != "inference":
        raise ValueError(f"unknown mode {mode!r}")
    n = len(observations)
    if n < 1:
        raise ValueError("need at least one agent")
    obs = [np.asarray(x, dtype=np.float64) for x in observations]

    features = [mlp_forward(theta.theta_e, x)[0] for x in obs]
    if fixed_rows is None:
        queries = [mlp_forward(theta.theta_q, x)[0] for x in obs]
        keys = [mlp_forward(theta.theta_k, x)[0] for x in obs]
        m = build_matching_matrix(queries, keys, theta.w_g)
    else:
        m = np.asarray(fixed_rows, dtype=np.float64)
        if m.shape != (n, n):
            raise ValueError(f"fixed_rows shape {m.shape} != ({n}, {n})")

    m_bar = prune(m, delta)
    fused = [fuse(m_bar[i], features) for i in range(n)]
    logits = [decode_agent(theta, features[i], fused[i])[0] for i in range(n)]
    return ForwardResult(logits, ForwardCache("inference", features, fused, m), m, m_bar)


def _training_forward(theta: PipelineParams, observations, fixed_rows) -> ForwardResult:
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim not in (2, 3) or obs.shape[-2] < 1:
        raise ValueError(f"need (N, d_obs) or (B, N, d_obs) observations of N >= 1 agents, got {obs.shape}")
    lead = obs.shape[:-1]  # (N,) or (B, N)
    b = obs.shape[0] if obs.ndim == 3 else 1
    n, d = obs.shape[-2:]
    x = obs.reshape(b * n, d)

    e, e_cache = mlp_forward(theta.theta_e, x)
    features = e.reshape(b, n, -1)
    queries = keys = q_cache = k_cache = None
    if fixed_rows is None:
        mu, q_cache = mlp_forward(theta.theta_q, x)
        kappa, k_cache = mlp_forward(theta.theta_k, x)
        queries, keys = mu.reshape(b, n, -1), kappa.reshape(b, n, -1)
        scores = (mu @ theta.w_g).reshape(b, n, -1) @ keys.transpose(0, 2, 1)
        m = _softmax(scores / math.sqrt(theta.w_g.shape[1]))
    else:
        m = np.asarray(fixed_rows, dtype=np.float64)
        if m.shape != lead + (n,):
            raise ValueError(f"fixed_rows shape {m.shape} != {lead + (n,)}")
        m = m.reshape(b, n, n)

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
    dlogits = _softmax(cache.logits.reshape(b * n, -1))
    dlogits[np.arange(b * n), y.reshape(-1)] -= 1.0
    dlogits /= b * n
    d_layers, du = mlp_backward(theta.theta_d, cache.d_cache, dlogits)
    grads.theta_d = MlpParams(d_layers)
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
        grads.w_g = cache.queries.reshape(b * n, -1).T @ ds_keys
        d_mu = ds_keys @ theta.w_g.T
        d_kappa = (ds.transpose(0, 2, 1) @ cache.queries).reshape(b * n, -1) @ theta.w_g
        grads.theta_q = MlpParams(mlp_backward(theta.theta_q, cache.q_cache, d_mu)[0])
        grads.theta_k = MlpParams(mlp_backward(theta.theta_k, cache.k_cache, d_kappa)[0])

    grads.theta_e = MlpParams(mlp_backward(theta.theta_e, cache.e_cache, d_features.reshape(b * n, f_dim))[0])
    return grads


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, theta: PipelineParams) -> "AdamState":
        arrays = param_arrays(theta)
        return cls(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays], t=0)


def adam_step(
    theta: PipelineParams,
    grads: Gradients,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[PipelineParams, AdamState]:
    """One bias-corrected Adam update; returns fresh parameters and state."""
    t = state.t + 1
    new_theta = clone_params(theta)
    new_m, new_v = [], []
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for a, g, m, v in zip(param_arrays(new_theta), param_arrays(grads), state.m, state.v):
        m_next = beta1 * m + (1.0 - beta1) * g
        v_next = beta2 * v + (1.0 - beta2) * g * g
        a -= lr * (m_next / bc1) / (np.sqrt(v_next / bc2) + eps)
        new_m.append(m_next)
        new_v.append(v_next)
    return new_theta, AdamState(m=new_m, v=new_v, t=t)


@dataclass
class TrainConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    steps: int = 5000
    batch_size: int = 8
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    policy: str = "when2com"
    log_every: int = 1
    eval_every: int = 500

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"TrainConfig.steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig.batch_size must be positive, got {self.batch_size}")


def fixed_policy_rows(policy: str, n: int, rng: Rng) -> np.ndarray:
    """Constant fusion rows for the non-attention baseline policies.

    ``randcom`` draws one peer per agent from ``rng``, in agent order; a lone
    agent has no peer, keeps its own feature and draws nothing.
    """
    if policy == "nocom" or (policy == "randcom" and n == 1):
        return np.eye(n)
    if policy == "catall":
        return np.full((n, n), 1.0 / n)
    if policy == "randcom":
        rows = np.zeros((n, n))
        for i in range(n):
            j = rng.randint(n - 1)
            if j >= i:
                j += 1
            rows[i, j] = 1.0
        return rows
    raise ValueError(f"unknown fixed-row policy {policy!r}")


def episode_loss_and_grads(
    theta: PipelineParams, episodes, policy: str, rng: Rng
) -> tuple[float, Gradients]:
    """Training-mode mean loss and exact gradients over a minibatch of episodes.

    The episodes (equal N) run as one (B, N, .) batch.  Fixed-row policies
    draw their rows from ``rng`` episode by episode, in batch order.
    """
    observations = np.stack([ep.observations for ep in episodes])
    labels = np.array([ep.labels for ep in episodes])
    if policy in ATTENTION_POLICIES:
        rows = None
    elif policy in FIXED_ROW_POLICIES:
        rows = np.stack([fixed_policy_rows(policy, observations.shape[1], rng) for _ in episodes])
    else:
        raise ValueError(f"unknown policy {policy!r}")
    result = pipeline_forward(theta, observations, mode="training", fixed_rows=rows)
    loss = cross_entropy_loss(result.logits, labels)
    return loss, pipeline_backward(result.cache, theta, labels)


def evaluate_task_accuracy(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None
) -> float:
    """Fraction of (episode, agent) predictions matching labels at inference."""
    correct = 0
    total = 0
    for ep in episodes:
        observations = list(ep.observations)
        if policy == "forced_top1":
            soft = pipeline_forward(theta, observations, mode="inference", delta=0.0)
            rows = top1_rows(soft.m)
            result = pipeline_forward(theta, observations, mode="inference", delta=0.0, fixed_rows=rows)
        elif policy in ATTENTION_POLICIES:
            eff_delta = 0.0 if policy == "fully_connected" else delta
            result = pipeline_forward(theta, observations, mode="inference", delta=eff_delta)
        else:
            local_rng = rng if rng is not None else Rng(0)
            rows = fixed_policy_rows(policy, len(observations), local_rng)
            result = pipeline_forward(theta, observations, mode="inference", delta=0.0, fixed_rows=rows)
        for z, y in zip(result.logits, ep.labels):
            correct += int(np.argmax(z) == y)
            total += 1
    return correct / total if total else 0.0


def train(config: TrainConfig, dataset, rng: Rng) -> tuple[PipelineParams, list[dict]]:
    """Minibatch Adam loop over training episodes.

    Each step draws its batch indices from ``rng``, then runs one batched
    forward and backward over the whole batch and one Adam update.  The log
    records the batch loss at every ``log_every`` steps and validation task
    accuracy every ``eval_every`` steps.  The run is single-threaded and
    bit-reproducible for a fixed seed.
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
        theta, state = adam_step(
            theta, grads, state, config.lr, config.beta1, config.beta2, config.eps
        )
        if config.log_every and step % config.log_every == 0:
            log.append({"step": step, "loss": loss})
        if config.eval_every and val_eps and step % config.eval_every == 0:
            n_agents = len(val_eps[0].labels)
            acc = evaluate_task_accuracy(
                theta, val_eps, delta=1.0 / n_agents, policy=config.policy, rng=Rng(rng.seed ^ step)
            )
            log.append({"step": step, "val_task_acc": acc})
    return theta, log


def save_checkpoint(path: str, theta: PipelineParams, config: PipelineConfig) -> None:
    """Flat binary layout: magic, version, dims, then tensors in declaration order.

    Tensors are little-endian float64, row-major; shapes are implied by the
    dimension tuple (all heads are two-layer).
    """
    header = struct.pack(
        CHECKPOINT_HEADER,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        config.d_obs,
        config.q_dim,
        config.k_dim,
        config.f_dim,
        config.n_classes,
        config.hidden,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in param_arrays(theta):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[PipelineParams, PipelineConfig]:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = struct.calcsize(CHECKPOINT_HEADER)
    if len(blob) < head_size:
        raise ValueError(f"checkpoint {path} is truncated: {len(blob)} bytes, header needs {head_size}")
    magic, version, d_obs, q, k, f, c, hidden = struct.unpack(CHECKPOINT_HEADER, blob[:head_size])
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    config = PipelineConfig(d_obs=d_obs, q_dim=q, k_dim=k, f_dim=f, n_classes=c, hidden=hidden)
    shapes = []
    for sizes in ([d_obs, hidden, q], [d_obs, hidden, k], [d_obs, hidden, f], [2 * f, hidden, c]):
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            shapes.append((fan_out, fan_in))
            shapes.append((fan_out,))
    shapes.append((q, k))
    expected = head_size + 8 * sum(math.prod(shape) for shape in shapes)
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint {path} holds {len(blob)} bytes but its dimension header implies {expected}"
        )
    offset = head_size
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays.append(np.array(arr, dtype=np.float64))
        offset += count * 8
    it = iter(arrays)
    heads = []
    for _ in range(4):
        heads.append(MlpParams([(next(it), next(it)), (next(it), next(it))]))
    w_g = next(it)
    return PipelineParams(heads[0], heads[1], heads[2], heads[3], w_g), config
