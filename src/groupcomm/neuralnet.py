"""Trainable pipeline: query/key generators, encoder, decoder, and exact backprop.

Four small fully-connected heads share each agent's observation: a query
generator (obs -> Q), key generator (obs -> K), feature encoder (obs -> F),
and a class decoder on the concatenation of the local feature with the fused
feature (2F -> C logits).  A learnable Q x K bilinear form scores query/key
pairs; row-softmax over scores yields the matching matrix used for fusion.

Training fuses with the full soft matching rows so every agent sees every
feature (gradients flow through the softmax and the bilinear scores);
inference fuses with delta-pruned rows and is never differentiated.

The communication policies live here as well: :data:`POLICIES`, the
:data:`TRAIN_POLICIES` that have a training scheme, and the one rule
:func:`policy_rows` that turns a policy into a stack of episodes' fusion
rows, which training, inference and the simulator all call.  So does the one
inference loop, :func:`infer_episodes`, which validation and evaluation share.

Episodes arrive as a :class:`~groupcomm.scenarios.EpisodeSet`, and no split
is copied whole: a training batch gathers its B episodes' rows, and
inference runs on slices, or gathers, of :data:`EVAL_BLOCK` episodes.

Training runs a whole minibatch at once: the batch is (B, N, .) arrays,
every head is one matrix product over all B*N agents, and the matching
matrix and fusion are batched products.  Its gradients are
derived by hand in the same matrix form and validated against central finite
differences; see tests.  A step computes one softmax of the logits: the
backward starts from it, and the step's loss is read from the same shifted
logits and row sums, bit for bit the loss :func:`cross_entropy_loss` gives.

Every parameter lives in one float64 vector, ``PipelineParams.flat``, whose
views are the heads and the bilinear form, so an initial draw, an Adam step,
a gradient tree and a checkpoint body (the bytes of ``flat``) are each one
array.  :func:`init_pipeline` draws every weight from one ``Rng.normal`` call
and writes each scaled slice into its view.  A training run allocates its
parameters, its Adam state and one gradient tree once and updates all three
in place at every step: the backward writes every element of the tree
through its views (``out=`` products and reductions), and an Adam step writes
its arithmetic into the parameter and moment vectors through the two scratch
vectors its :class:`AdamState` holds, so neither allocates a temporary per
operation.

Inference is batched too, over (N, .) or (E, N, .) stacks, but on the
row-invariant kernel :func:`~groupcomm.densemath.row_matmul` (see
:func:`mlp_infer`): every agent's row rounds exactly as it does alone, which
is how the decentralized simulator's agents compute it.  So centralized
inference over any number of episodes and distributed execution agree bit for
bit.  Training's gemm products round differently, so training agrees with
inference at delta = 0 to rounding (1e-12), not bit for bit.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .commgraph import build_matching_matrix, fuse_rows, prune, top1_rows
from .densemath import Rng, index_array, integer, row_matmul, softmax

CHECKPOINT_MAGIC = b"GRPCOMM1"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = "<8sI6I"

POLICIES = ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected")
# Policies whose rows start from the soft matching matrix, so the handshake runs.
HANDSHAKE_POLICIES = ("when2com", "forced_top1", "fully_connected")
# The policies with a training scheme of their own.  forced_top1 and
# fully_connected select from when2com's rows at eval time, and have none yet.
TRAIN_POLICIES = ("when2com", "nocom", "randcom", "catall")

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


@dataclass(frozen=True)
class PipelineConfig:
    """The model's six dimensions, each held as a Python int >= 1 (``densemath.integer``)."""

    # Field order is the checkpoint header's dimension order.
    d_obs: int = 32
    q_dim: int = 4
    k_dim: int = 16
    f_dim: int = 32
    n_classes: int = 10
    hidden: int = 64

    def __post_init__(self):
        for name in ("d_obs", "q_dim", "k_dim", "f_dim", "n_classes", "hidden"):
            object.__setattr__(self, name, integer(getattr(self, name), f"PipelineConfig.{name}", 1))


def _check_train_policy(policy: str) -> None:
    """Reject a policy outside :data:`TRAIN_POLICIES`, naming it."""
    if policy not in TRAIN_POLICIES:
        raise ValueError(
            f"policy {policy!r} has no training scheme (expected one of {TRAIN_POLICIES}); "
            "train when2com and evaluate under it"
        )


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
        ends = itertools.accumulate(sizes)
        views = (self.flat[end - size : end].reshape(s) for s, size, end in zip(shapes, sizes, ends))
        self.theta_q, self.theta_k, self.theta_e, self.theta_d = (
            MlpParams([(next(views), next(views)) for _ in h[1:]]) for h in head_sizes(self.config)
        )
        self.w_g = next(views)


# Gradient trees are shape-congruent with the parameters they differentiate.
Gradients = PipelineParams


def param_arrays(theta: PipelineParams) -> list[np.ndarray]:
    """Every parameter array (views of ``theta.flat``), in checkpoint order."""
    heads = (theta.theta_q, theta.theta_k, theta.theta_e, theta.theta_d)
    return [a for head in heads for layer in head.layers for a in layer] + [theta.w_g]


def init_pipeline(config: PipelineConfig, rng: Rng) -> PipelineParams:
    """He-scaled head weights (Normal with variance 2/fan_in), zero biases, then the bilinear form.

    The weights are drawn in checkpoint order from one :meth:`Rng.normal` call,
    each taking a slice whose length is its size rounded up to even: so each
    starts a Box-Muller pair, and the values and the words consumed are those
    of one ``normal`` call per weight.  Each scaled slice is written straight
    into its view of ``flat``.
    """
    theta = PipelineParams(config)
    weights = param_arrays(theta)[0::2]  # every head's weights, then w_g
    # The bilinear form is scaled to variance 1/sqrt(Q*K).
    scales = [math.sqrt(2.0 / w.shape[1]) for w in weights[:-1]] + [theta.w_g.size**-0.25]
    draws = rng.normal(sum(w.size + w.size % 2 for w in weights))
    start = 0
    for w, scale in zip(weights, scales):
        np.multiply(draws[start : start + w.size].reshape(w.shape), scale, out=w)
        start += w.size + w.size % 2
    return theta


def zeros_like_params(theta: PipelineParams) -> Gradients:
    return PipelineParams(theta.config)


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Training's affine-rectifier chain on a (R, d) stack, and each layer's input, all :func:`mlp_backward` reads.

    Each layer is one ``h @ w.T + b`` product over all rows.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != p.in_dim:
        raise ValueError(f"input shape {h.shape} is not a stack of rows matching the first layer ({p.in_dim})")
    inputs = []
    last = len(p.layers) - 1
    for idx, (w, b) in enumerate(p.layers):
        inputs.append(h)
        h = h @ w.T  # a fresh array, so the bias and rectifier go in place
        h += b
        if idx < last:
            np.maximum(h, 0.0, out=h)
    return h, inputs


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
        h = row_matmul(h, w)  # a fresh array, so the bias and rectifier go in place
        h += b
        if idx < last:
            np.maximum(h, 0.0, out=h)
    return h


def mlp_backward(p: MlpParams, inputs: list[np.ndarray], dout: np.ndarray, grads: MlpParams) -> np.ndarray:
    """Write every layer's (dW, db) into ``grads``' arrays; return the derivative at the first pre-activation.

    ``dout`` has the forward output's shape; for a stack of rows the layer
    gradients sum over the rows.  ``grads`` is the head's part of a gradient
    tree, so the products land in its views of the flat gradient vector.  The
    derivative w.r.t. the input is the returned one times the first layer's
    weight; only the decoder's caller needs it, so it forms that product.
    """
    dz = np.asarray(dout, dtype=np.float64)
    for idx in range(len(p.layers) - 1, -1, -1):
        dw, db = grads.layers[idx]
        np.matmul(dz.T, inputs[idx], out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if idx:
            dz = dz @ p.layers[idx][0]
            dz *= inputs[idx] > 0.0  # the rectifier's subgradient: the input is positive where its pre-activation was
    return dz


@dataclass
class ForwardResult:
    """A forward pass's values, each with the input's leading shape, (N, .) or (B, N, .); only inference sets ``m_bar``.

    Training adds what :func:`pipeline_backward` reads: the (B, N, .)
    ``queries`` and ``keys``, and ``layer_inputs``, the query, key, encoder
    and decoder heads' :func:`mlp_forward` layer inputs (the query and key
    entries None, like ``queries`` and ``keys``, under a fixed-row policy).
    """

    logits: np.ndarray
    m: np.ndarray
    features: np.ndarray
    fused: np.ndarray
    m_bar: np.ndarray | None = None
    queries: np.ndarray | None = None
    keys: np.ndarray | None = None
    layer_inputs: tuple[list[np.ndarray] | None, ...] | None = None


def decode(theta: PipelineParams, features: np.ndarray, fused: np.ndarray) -> np.ndarray:
    """Inference class logits from local and fused features, for one agent or a stack."""
    return mlp_infer(theta.theta_d, np.concatenate([features, fused], axis=-1))


def policy_rows(
    policy: str, soft_rows: np.ndarray | None, n: int, delta: float, rng: Rng | None, episodes: int
) -> tuple[np.ndarray, float]:
    """An (E, N, N) stack of fusion rows under ``policy``, one per episode, and the threshold that prunes them.

    ``when2com``        the soft matching rows, pruned at ``delta``;
    ``fully_connected`` the soft rows unpruned, so every feature is fused;
    ``forced_top1``     each agent's best off-diagonal peer at hard weight 1;
    ``nocom``           each agent decodes its own feature only;
    ``randcom``         each agent pulls one uniformly random other agent;
    ``catall``          each agent fuses the plain mean of every feature.

    ``soft_rows`` is the (E, N, N) matching matrix for the
    :data:`HANDSHAKE_POLICIES` and unused by the others.  ``randcom`` draws
    one peer per agent from ``rng``, episode by episode, then agent by agent;
    a lone agent has no peer, keeps its own feature and draws nothing.  The
    other fixed policies repeat one episode's rows.  Only ``when2com`` prunes
    at ``delta``; every other threshold is 0.
    """
    if policy == "when2com":
        return soft_rows, delta
    if policy == "fully_connected":
        return soft_rows, 0.0
    if policy == "forced_top1":
        return top1_rows(soft_rows), 0.0
    if policy == "randcom" and n > 1:
        if rng is None:
            raise ValueError("policy 'randcom' draws its peers from rng, but rng is None")
        peers = np.fromiter((rng.randint(n - 1) for _ in range(episodes * n)), np.intp, episodes * n)
        peers = peers.reshape(episodes, n, 1)
        peers += peers >= np.arange(n)[:, None]  # skip the agent itself
        return (peers == np.arange(n)).astype(np.float64), 0.0
    if policy in ("nocom", "randcom"):
        return np.repeat(np.eye(n)[None], episodes, axis=0), 0.0
    if policy == "catall":
        return np.full((episodes, n, n), 1.0 / n), 0.0
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


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
    N, (B, N, d_obs), and return one :class:`ForwardResult` in the input's
    leading shape; the rows of ``randcom`` are drawn from ``rng`` episode by
    episode, in stack order.  ``training`` takes only the
    :data:`TRAIN_POLICIES` and raises ``ValueError`` on any other: it fuses
    when2com with the soft matching rows, and the fixed-row policies'
    attention heads are neither evaluated nor differentiated.  ``inference``
    builds the matching matrix only for a handshake policy, prunes the
    policy's rows at its threshold, and runs on the row-invariant kernel, so
    each episode's outputs are bit for bit those of the simulator, whatever
    the stack around it.
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
    m, threshold = policy_rows(policy, soft, n, delta, rng, len(obs))
    m_bar = prune(m, threshold)
    fused = fuse_rows(m_bar, features)
    logits = decode(theta, features, fused)
    return ForwardResult(*(a.reshape(lead + a.shape[-1:]) for a in (logits, m, features, fused, m_bar)))


def _episode_stack(observations) -> tuple[np.ndarray, tuple[int, ...]]:
    """``observations`` as a (B, N, d_obs) stack (B, N >= 1), and their leading shape."""
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim not in (2, 3) or 0 in obs.shape[:-1]:
        raise ValueError(f"need (N, d_obs) or (B, N, d_obs) observations of N >= 1 agents, got {obs.shape}")
    return obs.reshape((-1,) + obs.shape[-2:]), obs.shape[:-1]


def _training_forward(theta: PipelineParams, observations, policy: str, rng: Rng | None) -> ForwardResult:
    _check_train_policy(policy)
    obs, lead = _episode_stack(observations)
    b, n, d = obs.shape
    x = obs.reshape(b * n, d)

    e, e_inputs = mlp_forward(theta.theta_e, x)
    features = e.reshape(b, n, -1)
    queries = keys = q_inputs = k_inputs = None
    if policy in HANDSHAKE_POLICIES:
        mu, q_inputs = mlp_forward(theta.theta_q, x)
        kappa, k_inputs = mlp_forward(theta.theta_k, x)
        queries, keys = mu.reshape(b, n, -1), kappa.reshape(b, n, -1)
        scores = (mu @ theta.w_g).reshape(b, n, -1) @ keys.transpose(0, 2, 1)
        m = softmax(scores / math.sqrt(theta.w_g.shape[1]))
    else:
        m = policy_rows(policy, None, n, 0.0, rng, b)[0]

    fused = m @ features
    z, d_inputs = mlp_forward(theta.theta_d, np.concatenate([features, fused], axis=-1).reshape(b * n, -1))
    shaped = (a.reshape(lead + a.shape[-1:]) for a in (z, m, features, fused))
    return ForwardResult(*shaped, queries=queries, keys=keys, layer_inputs=(q_inputs, k_inputs, e_inputs, d_inputs))


def cross_entropy_loss(logits, labels) -> float:
    """Mean over agents (of every episode) of -log softmax(logits)[label].

    ``logits`` is (N, C) or (B, N, C); ``labels`` has its leading shape.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.shape[:-1] != y.shape:
        raise ValueError(f"logits of shape {z.shape} vs labels of shape {y.shape}")
    return _softmax_cross_entropy(z.reshape(-1, z.shape[-1]), y)[0]


def check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Refuse a non-integer dtype, or name the first label outside [0, ``n_classes``): the model has no logit for it."""
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} out of range [0, {n_classes}) of the model's n_classes")


def _softmax_cross_entropy(z: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """The mean cross-entropy of (R, C) logits against R labels, and its (R, C) derivative w.r.t. ``z``.

    One softmax serves both: the shifted logits, their exponentials and the
    row sums are computed once, and the probabilities are ``e / s`` as in
    :func:`~groupcomm.densemath.softmax`.  A label outside [0, C) is rejected
    before anything is computed, and so is a label that is not an integer.
    """
    r, c = z.shape
    y = labels.reshape(-1)
    check_labels(y, c)
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    rows = np.arange(r)
    loss = -(np.add.reduce(shifted[rows, y] - np.log(s[:, 0])) / r)
    e /= s
    e[rows, y] -= 1.0
    e /= r
    return float(loss), e


def pipeline_backward(result: ForwardResult, theta: PipelineParams, labels, grads: Gradients) -> float:
    """Write the exact gradients of the mean cross-entropy w.r.t. every parameter into ``grads``; return the loss.

    ``labels`` has the forward logits' leading shape, (N,) or (B, N).  The
    loss is :func:`cross_entropy_loss` of the forward logits, bit for bit,
    taken from the softmax the backward starts from.  Every element of
    ``grads`` is written: a fixed-row forward, which never ran the attention
    heads, zero-fills the query and key heads and ``w_g``, so a tree reused
    across steps carries nothing over.  Only valid for a training-mode
    forward: inference-time pruning is a hard gate and is never
    differentiated.  Bad labels are rejected before ``grads`` is written.
    """
    if result.layer_inputs is None:
        raise ValueError("backward requires a training-mode forward result, which keeps each layer's input")
    if grads.config != theta.config:
        raise ValueError(f"gradient tree of {grads.config} does not match the parameters' {theta.config}")
    q_inputs, k_inputs, e_inputs, d_inputs = result.layer_inputs
    features = result.features.reshape((-1,) + result.features.shape[-2:])
    b, n, f_dim = features.shape
    m = result.m.reshape(b, n, n)
    y = np.asarray(labels)
    if y.size != b * n:
        raise ValueError(f"result holds {b} x {n} agents but got labels of shape {y.shape}")

    loss, dlogits = _softmax_cross_entropy(result.logits.reshape(b * n, -1), y)
    d_pre = mlp_backward(theta.theta_d, d_inputs, dlogits, grads.theta_d)
    du = (d_pre @ theta.theta_d.layers[0][0]).reshape(b, n, 2 * f_dim)

    # Fusion: fused = M @ E.
    d_fused = du[..., f_dim:]
    d_features = du[..., :f_dim] + m.transpose(0, 2, 1) @ d_fused

    if result.queries is not None:
        # Row-softmax jacobian: dS = (dM - rowsum(dM * M)) * M, then the
        # 1/sqrt(K) scale of the scores S = (Q W_g) K^T.
        ds = d_fused @ features.transpose(0, 2, 1)
        ds -= np.add.reduce(ds * m, axis=-1, keepdims=True)
        ds *= m
        ds /= math.sqrt(theta.w_g.shape[1])
        ds_keys = (ds @ result.keys).reshape(b * n, -1)
        np.matmul(result.queries.reshape(b * n, -1).T, ds_keys, out=grads.w_g)
        d_mu = ds_keys @ theta.w_g.T
        d_kappa = (ds.transpose(0, 2, 1) @ result.queries).reshape(b * n, -1) @ theta.w_g
        mlp_backward(theta.theta_q, q_inputs, d_mu, grads.theta_q)
        mlp_backward(theta.theta_k, k_inputs, d_kappa, grads.theta_k)
    else:
        for w, bias in grads.theta_q.layers + grads.theta_k.layers:
            w.fill(0.0)
            bias.fill(0.0)
        grads.w_g.fill(0.0)

    mlp_backward(theta.theta_e, e_inputs, d_features.reshape(b * n, f_dim), grads.theta_e)
    return loss


@dataclass
class AdamState:
    """First and second moment vectors, laid out as ``PipelineParams.flat``, and the step's two scratch vectors."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape)

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
) -> None:
    """One bias-corrected Adam update of ``theta`` and ``state``, in place.

    ``state.t`` advances by one, and the arithmetic is, operation for
    operation, ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g`` and
    ``flat = flat - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)``,
    written into ``state.m``, ``state.v`` and ``theta.flat`` through the
    state's two scratch vectors.  ``grads`` is only read.  A gradient or
    moment vector that is not laid out as ``theta.flat`` is rejected before
    anything is written.
    """
    flat = theta.flat
    for name, vec in (("gradient", grads.flat), ("first moment", state.m), ("second moment", state.v)):
        if vec.dtype != flat.dtype or vec.shape != flat.shape:
            got = f"{vec.dtype} of shape {vec.shape}"
            raise ValueError(f"adam_step: the {name} vector must be {flat.dtype} of shape {flat.shape}, got {got}")
    state.t += 1
    g, m, v = grads.flat, state.m, state.v
    num, den = state.scratch
    np.multiply(g, 1.0 - beta1, out=num)
    m *= beta1
    m += num
    np.multiply(g, 1.0 - beta2, out=num)
    num *= g
    v *= beta2
    v += num
    np.divide(m, 1.0 - beta1**state.t, out=num)
    num *= lr
    np.divide(v, 1.0 - beta2**state.t, out=den)
    np.sqrt(den, out=den)
    den += eps
    num /= den
    flat -= num


@dataclass(frozen=True)
class TrainConfig:
    """A training run's settings, checked once here; only the :data:`TRAIN_POLICIES` train.

    Frozen and holding Python ints, as :class:`PipelineConfig` is; ``dataclasses.replace`` builds a checked variant.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    steps: int = 5000
    batch_size: int = 8
    policy: str = "when2com"
    eval_every: int = 500

    def __post_init__(self):
        for name, low in (("steps", 0), ("batch_size", 1), ("eval_every", 0)):  # eval_every 0 never validates
            object.__setattr__(self, name, integer(getattr(self, name), f"TrainConfig.{name}", low))
        _check_train_policy(self.policy)


def episode_loss_and_grads(theta: PipelineParams, episodes, policy: str, rng: Rng, grads: Gradients) -> float:
    """Training-mode mean loss over a minibatch; writes its exact gradients into ``grads``.

    The batch is an :class:`~groupcomm.scenarios.EpisodeSet`, whose arrays
    run as one (B, N, .) batch.
    """
    result = pipeline_forward(theta, episodes.observations, mode="training", policy=policy, rng=rng)
    return pipeline_backward(result, theta, episodes.labels, grads)


def infer_episodes(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None, index=None
) -> tuple[np.ndarray, np.ndarray]:
    """The (E, N, N) pruned rows and (E, N) predicted classes of episodes at inference.

    ``episodes`` is an :class:`~groupcomm.scenarios.EpisodeSet`; ``index``
    (integers, see ``densemath.index_array``) picks its episodes, in its order,
    and by default all of them, in order.  There must be at least one,
    checked before anything runs.  The episodes go through
    :func:`pipeline_forward` in stacks of :data:`EVAL_BLOCK`, each a slice of
    the set or a gather of ``index``'s rows, and ``randcom`` rows are drawn
    from ``rng`` episode by episode.
    """
    if index is not None:
        index = index_array(index)
    count = len(episodes) if index is None else len(index)
    if not count:
        raise ValueError("need at least one episode, got none")
    m_bar, predictions = [], []  # only these outlive their block
    for start in range(0, count, EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK) if index is None else index[start : start + EVAL_BLOCK]
        result = pipeline_forward(
            theta, episodes.observations[rows], mode="inference", delta=delta, policy=policy, rng=rng
        )
        m_bar.append(result.m_bar)
        predictions.append(np.argmax(result.logits, axis=-1))
    return np.concatenate(m_bar), np.concatenate(predictions)


def evaluate_task_accuracy(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None, index=None
) -> float:
    """Fraction of (episode, agent) predictions of :func:`infer_episodes` matching labels.

    ``episodes`` and ``index`` are :func:`infer_episodes`'s.  ``randcom`` rows
    are drawn from ``rng``, episode by episode, or from one ``Rng(0)`` for
    the whole call when it is omitted.  The labels are checked first (:func:`check_labels`).
    """
    labels = episodes.labels if index is None else episodes.labels[index_array(index)]
    if not len(labels):
        raise ValueError("evaluate_task_accuracy: episodes is empty, so there is no accuracy to report")
    check_labels(labels, theta.config.n_classes)
    _, predictions = infer_episodes(theta, episodes, delta, policy, rng if rng is not None else Rng(0), index)
    return int(np.count_nonzero(predictions == labels)) / predictions.size


def train(config: TrainConfig, dataset, rng: Rng) -> tuple[PipelineParams, list[dict]]:
    """Minibatch Adam loop over the training split of a :class:`~groupcomm.scenarios.Dataset`.

    Each step draws its batch indices into ``train_idx`` from ``rng``,
    gathers those episodes' rows, then runs one batched forward and backward
    over the whole batch and one Adam update at :func:`adam_step`'s default
    rates.  Validation runs over ``val_idx`` in gathered blocks, so neither
    split is copied whole.  The parameters, the Adam moments and one
    gradient tree are allocated before the first step, and every step
    updates them in place.  The log records the batch loss at every step and
    validation task accuracy every ``eval_every`` steps.  The run is
    single-threaded and bit-reproducible for a fixed seed.  ``config`` and
    ``dataset`` are frozen, so the checks their constructors made still hold
    and are not made again.
    """
    episodes, train_idx, val_idx = dataset.episodes, np.asarray(dataset.train_idx, dtype=np.intp), dataset.val_idx
    if not len(train_idx):
        raise ValueError("training dataset is empty")

    theta = init_pipeline(config.pipeline, rng)
    state = AdamState.for_params(theta)
    grads = zeros_like_params(theta)
    log: list[dict] = []
    n_train = len(train_idx)

    for step in range(1, config.steps + 1):
        batch = train_idx[[rng.randint(n_train) for _ in range(config.batch_size)]]
        loss = episode_loss_and_grads(theta, episodes[batch], config.policy, rng, grads)
        adam_step(theta, grads, state)
        log.append({"step": step, "loss": loss})
        if config.eval_every and len(val_idx) and step % config.eval_every == 0:
            acc = evaluate_task_accuracy(
                theta, episodes, 1.0 / episodes.labels.shape[1], config.policy, Rng(rng.seed ^ step), val_idx
            )
            log.append({"step": step, "val_task_acc": acc})
    return theta, log


def _first_non_finite(theta: PipelineParams) -> str | None:
    """Where ``theta``'s first non-finite parameter lies (head, layer, flat index), or None if all are finite."""
    heads = ("theta_q", "theta_k", "theta_e", "theta_d")
    names = [
        f"{head} layer {i} {part}"
        for head, sizes in zip(heads, head_sizes(theta.config))
        for i in range(len(sizes) - 1)
        for part in ("weight", "bias")
    ] + ["w_g"]
    for name, array in zip(names, param_arrays(theta), strict=True):
        bad = np.flatnonzero(~np.isfinite(array))
        if bad.size:
            return f"{name} holds {array.flat[bad[0]]} at flat index {bad[0]}"
    return None


def save_checkpoint(path: str, theta: PipelineParams, config: PipelineConfig) -> None:
    """Binary layout: magic, version and dims, then the bytes of ``theta.flat``.

    The body is ``flat`` as little-endian float64, which holds every tensor
    row-major in checkpoint order; the shapes follow from the dimension tuple
    (see :class:`PipelineParams`).
    """
    if config != theta.config:
        raise ValueError(f"checkpoint config {config} does not describe the parameters' {theta.config}")
    bad = _first_non_finite(theta)
    if bad:
        raise ValueError(f"cannot save checkpoint {path}: {bad}, and a checkpoint must hold finite parameters")
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
        raise ValueError(f"checkpoint {path}: bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    try:
        config = PipelineConfig(*dims)
    except ValueError as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
    expected = head_size + 8 * sum(math.prod(s) for s in param_shapes(config))
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint {path} holds {len(blob)} bytes but its dimension header implies {expected}"
        )
    theta = PipelineParams(config)
    theta.flat[:] = np.frombuffer(blob, dtype="<f8", offset=head_size)
    bad = _first_non_finite(theta)
    if bad:
        raise ValueError(f"checkpoint {path}: {bad}")
    return theta, config
