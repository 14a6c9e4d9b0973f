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
array, laid out by :func:`param_layout` alone: the views, the initial draw, a
checkpoint's size and its error messages all read it.  :func:`init_pipeline`
draws every weight from one ``Rng.normal`` call and writes each scaled slice
into its view.  A training run allocates its parameters, its Adam state and
one gradient tree once and updates all three in place at every step: the
backward writes every element of the tree through its views (``out=``
products and reductions), and an Adam step writes its arithmetic into the
parameter and moment vectors through the two scratch vectors its
:class:`AdamState` holds, so neither allocates a temporary per operation.

Inference is batched too, over (N, .) or (E, N, .) stacks, and by default
on the row-invariant kernel :func:`~groupcomm.densemath.row_matmul` (see
:func:`mlp_infer`): every agent's row rounds exactly as it does alone, which
is how the decentralized simulator's agents compute it.  So centralized
inference over any number of episodes and distributed execution agree bit for
bit, which ``evalcli.evaluate``'s simulator audit checks.  Training's gemm
products round differently, so training agrees with that inference at
delta = 0 to rounding (1e-12), not bit for bit.  Validation during
:func:`train` is audited by no simulator, so it needs no row invariance: it
runs the same inference loop with ``row_invariant=False``, on training's
cheaper gemm products, and its rows and predictions agree with the row
kernel's to rounding.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .commgraph import build_matching_matrix, check_scores, fuse_rows, prune, top1_rows
from .densemath import Rng, array, index_array, integer, row_matmul, softmax
from .scenarios import EpisodeSet

CHECKPOINT_MAGIC = b"GRPCOMM1"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = "<8sI6I"

POLICIES = ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected")
# Policies whose rows start from the soft matching matrix, so the handshake runs.
HANDSHAKE_POLICIES = ("when2com", "forced_top1", "fully_connected")
# The policies with a training scheme of their own.  forced_top1 and
# fully_connected select from when2com's rows at eval time, and have none yet.
TRAIN_POLICIES = ("when2com", "nocom", "randcom", "catall")

# Episodes per inference call.  The row-invariant kernel rounds every row as
# it does alone, so evaluation does not depend on this size; validation's gemm
# products may round a row differently in another size, so its accuracy can
# move only by rounding.  The size bounds memory: one call over 1600
# validation episodes raised peak RSS by 27 MB, blocks of 64 by about 1 MB,
# and blocks of 64 also ran faster.
EVAL_BLOCK = 64

# Multiply-adds (rows x d_in x d_out) from which OpenBLAS runs a gemm on its
# worker threads, unless OPENBLAS_NUM_THREADS=1: 127 rows of a 64 x 64 layer
# ran on the calling thread and 128 did not, on OpenBLAS 0.3.31 with 2 cores.
# mlp_infer's gemm path splits its rows to stay below it.  One gemm over a
# block's 320 rows started the threads, and then two trainings in parallel on
# 2 cores ran 2-3x slower (the model_zoo fixture of tests/test_acceptance.py
# took 23-34 s against 10-13 s); the split costs a lone validation about 5%.
GEMM_THREAD_WORK = 65536 * 8


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Ordered (weight, bias) pairs; rectifier between layers, none after the last."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

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


def param_layout(c: PipelineConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape in checkpoint order: each head's (weight, bias) pairs, then ``w_g``.

    The heads are the query, key, encoder and decoder, in that order, each ``in -> hidden -> out`` wide.
    """
    heads = {"theta_q": (c.d_obs, c.q_dim), "theta_k": (c.d_obs, c.k_dim), "theta_e": (c.d_obs, c.f_dim)}
    heads["theta_d"] = (2 * c.f_dim, c.n_classes)  # the local feature and the fused one
    layout = []
    for head, (d_in, d_out) in heads.items():
        for i, (fan_in, fan_out) in enumerate(((d_in, c.hidden), (c.hidden, d_out))):
            layout += [(f"{head} layer {i} weight", (fan_out, fan_in)), (f"{head} layer {i} bias", (fan_out,))]
    return layout + [("w_g", (c.q_dim, c.k_dim))]


@dataclass(frozen=True, eq=False)
class PipelineParams:
    """All learnable parameters, held in one float64 vector ``flat`` (zeros by default).

    ``arrays`` holds every parameter of :func:`param_layout`, in its order, as
    a view of ``flat``; the MLP heads ``theta_q``, ``theta_k``, ``theta_e``,
    ``theta_d`` and the bilinear form ``w_g`` are those views.  ``flat`` must
    be a float64 ndarray of the layout's size (``densemath.array``).  Frozen,
    so no view comes apart from ``flat``: ``replace(theta, flat=new)`` builds
    views of ``new``.  A gradient tree is ``PipelineParams(theta.config)``.
    """

    config: PipelineConfig
    flat: np.ndarray | None = None
    arrays: tuple[np.ndarray, ...] = field(init=False, repr=False)
    theta_q: MlpParams = field(init=False, repr=False)
    theta_k: MlpParams = field(init=False, repr=False)
    theta_e: MlpParams = field(init=False, repr=False)
    theta_d: MlpParams = field(init=False, repr=False)
    w_g: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = param_layout(self.config)
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in layout))
        if self.flat is None:
            object.__setattr__(self, "flat", np.zeros(ends[-1]))
        array(self.flat, "PipelineParams.flat", np.float64, (ends[-1],))
        arrays = tuple(part.reshape(shape) for part, (_, shape) in zip(np.split(self.flat, ends[:-1]), layout))
        object.__setattr__(self, "arrays", arrays)
        for name, group in itertools.groupby(zip(layout, arrays), lambda item: item[0][0].split()[0]):
            views = [a for _, a in group]  # grouped by the name's first word: a head's weights and biases, or w_g
            value = views[0] if name == "w_g" else MlpParams(tuple(zip(views[::2], views[1::2])))
            object.__setattr__(self, name, value)


def init_pipeline(config: PipelineConfig, rng: Rng) -> PipelineParams:
    """He-scaled head weights (Normal with variance 2/fan_in), zero biases, then the bilinear form.

    The weights are drawn in checkpoint order from one :meth:`Rng.normal` call,
    each taking a slice whose length is its size rounded up to even: so each
    starts a Box-Muller pair, and the values and the words consumed are those
    of one ``normal`` call per weight.  Each scaled slice is written straight
    into its view of ``flat``.
    """
    theta = PipelineParams(config)
    weights = [a for (name, _), a in zip(param_layout(config), theta.arrays) if not name.endswith("bias")]
    # The bilinear form is scaled to variance 1/sqrt(Q*K).
    scales = [math.sqrt(2.0 / w.shape[1]) for w in weights[:-1]] + [theta.w_g.size**-0.25]
    draws = rng.normal(sum(w.size + w.size % 2 for w in weights))
    start = 0
    for w, scale in zip(weights, scales):
        np.multiply(draws[start : start + w.size].reshape(w.shape), scale, out=w)
        start += w.size + w.size % 2
    return theta


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


def mlp_infer(p: MlpParams, x: np.ndarray, row_invariant: bool = True) -> np.ndarray:
    """Inference's affine-rectifier chain on one vector or rows of any leading shape.

    By default every layer runs on :func:`~groupcomm.densemath.row_matmul`,
    so each row is bit-identical to the per-vector ``w @ h + b`` chain on
    that row alone, whatever the stack around it.  With ``row_invariant``
    False the rows are flattened to one (R, d) stack and every layer is
    :func:`mlp_forward`'s ``h @ w.T`` gemm (:func:`_gemm`), whose rows round
    as the stack makes them.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim == 0 or h.shape[-1] != p.in_dim:
        raise ValueError(f"input shape {h.shape} does not match first layer ({p.in_dim})")
    lead = h.shape[:-1]
    if not row_invariant:
        h = h.reshape(-1, p.in_dim)  # on a 3-D stack ``h @ w.T`` would be one small product per episode
    last = len(p.layers) - 1
    for idx, (w, b) in enumerate(p.layers):
        h = row_matmul(h, w) if row_invariant else _gemm(h, w)  # a fresh array, so the bias and rectifier go in place
        h += b
        if idx < last:
            np.maximum(h, 0.0, out=h)
    return h.reshape(lead + h.shape[-1:])


def _gemm(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``h @ w.T`` of an (R, d) stack, as gemms of fewer than :data:`GEMM_THREAD_WORK` multiply-adds each."""
    rows = max(1, (GEMM_THREAD_WORK - 1) // w.size)
    if len(h) <= rows:
        return h @ w.T
    out = np.empty((len(h), w.shape[0]))
    for start in range(0, len(h), rows):
        np.matmul(h[start : start + rows], w.T, out=out[start : start + rows])
    return out


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


def decode(theta: PipelineParams, features: np.ndarray, fused: np.ndarray, row_invariant: bool = True) -> np.ndarray:
    """Inference class logits from local and fused features, for one agent or a stack, on :func:`mlp_infer`'s kernel."""
    return mlp_infer(theta.theta_d, np.concatenate([features, fused], axis=-1), row_invariant)


def _gemm_scores(queries: np.ndarray, keys: np.ndarray, w_g: np.ndarray) -> np.ndarray:
    """Training's (B, N, N) attention scores of (B, N, Q) queries and (B, N, K) keys: ``(mu W_g) kappa^T / sqrt(K)``.

    ``mu @ w_g`` is one gemm over all B*N queries and the scores one stacked
    product, so a score rounds as the stack makes it, not as
    :func:`~groupcomm.commgraph.build_matching_matrix`'s row-invariant
    scores do.  Their row softmax is training's matching matrix.
    """
    b, n, q_dim = queries.shape
    scores = (queries.reshape(b * n, q_dim) @ w_g).reshape(b, n, -1) @ keys.transpose(0, 2, 1)
    return scores / math.sqrt(w_g.shape[1])


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
    row_invariant: bool = True,
) -> ForwardResult:
    """Full forward pass under a communication policy (see :func:`policy_rows`).

    Both modes take one episode, (N, d_obs), or a stack of episodes with equal
    N, (B, N, d_obs), and return one :class:`ForwardResult` in the input's
    leading shape; the rows of ``randcom`` are drawn from ``rng`` episode by
    episode, in stack order.  ``training`` takes only the
    :data:`TRAIN_POLICIES` and raises ``ValueError`` on any other: it fuses
    when2com with the soft matching rows, and the fixed-row policies'
    attention heads are neither evaluated nor differentiated.  ``inference``
    builds the matching matrix only for a handshake policy and prunes the
    policy's rows at its threshold.  By default it runs on the row-invariant
    kernel, so each episode's outputs are bit for bit those of the
    simulator, whatever the stack around it.  With ``row_invariant`` False it
    runs on training's gemm products instead: one gemm per head layer over
    the flattened stack, :func:`_gemm_scores` and ``m_bar @ features``,
    which round as the stack makes them.  It refuses non-finite scores as
    the row kernel does, and prunes and draws ``randcom``'s rows as it does.
    Training ignores it.
    """
    if mode == "training":
        return _training_forward(theta, observations, policy, rng)
    if mode != "inference":
        raise ValueError(f"unknown mode {mode!r}")
    obs, lead = _episode_stack(observations)
    n = obs.shape[-2]
    features = mlp_infer(theta.theta_e, obs, row_invariant)
    soft = None
    if policy in HANDSHAKE_POLICIES:
        mu, kappa = (mlp_infer(head, obs, row_invariant) for head in (theta.theta_q, theta.theta_k))
        if row_invariant:
            soft = build_matching_matrix(mu, kappa, theta.w_g)
        else:
            soft = softmax(check_scores(_gemm_scores(mu, kappa, theta.w_g)))
    m, threshold = policy_rows(policy, soft, n, delta, rng, len(obs))
    m_bar = prune(m, threshold)
    fused = fuse_rows(m_bar, features) if row_invariant else m_bar @ features
    logits = decode(theta, features, fused, row_invariant)
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
        m = softmax(_gemm_scores(queries, keys, theta.w_g))
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


def pipeline_backward(result: ForwardResult, theta: PipelineParams, labels, grads: PipelineParams) -> float:
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
        for a in itertools.chain(*grads.theta_q.layers, *grads.theta_k.layers, [grads.w_g]):
            a.fill(0.0)

    mlp_backward(theta.theta_e, e_inputs, d_features.reshape(b * n, f_dim), grads.theta_e)
    return loss


@dataclass
class AdamState:
    """First and second moment vectors, laid out as ``PipelineParams.flat``, and the step's two scratch vectors.

    ``m`` must be a float64 ndarray vector, and ``v`` one of its length (``densemath.array``).
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = array(self.m, "AdamState.m", np.float64, (None,))
        array(self.v, "AdamState.v", np.float64, m.shape)
        self.scratch = np.empty((2,) + m.shape)

    @classmethod
    def for_params(cls, theta: PipelineParams) -> "AdamState":
        return cls(m=np.zeros_like(theta.flat), v=np.zeros_like(theta.flat), t=0)


def adam_step(
    theta: PipelineParams,
    grads: PipelineParams,
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
    state's two scratch vectors.  ``grads`` is only read.  A gradient tree
    of another config, a moment vector that is not a float64 ndarray of
    ``theta.flat``'s shape (``densemath.array``), or a read-only parameter or
    moment vector raises ValueError naming it before anything is written,
    ``state.t`` included.
    """
    if grads.config != theta.config:
        raise ValueError(f"adam_step: gradient tree of {grads.config} does not match the parameters' {theta.config}")
    flat, g, m, v = theta.flat, grads.flat, state.m, state.v
    for name, vec in (("first moment", m), ("second moment", v), ("parameter", flat)):
        if name != "parameter":
            array(vec, f"adam_step: the {name} vector", np.float64, flat.shape)
        if not vec.flags.writeable:
            raise ValueError(f"adam_step: the {name} vector is read-only, so the step cannot write it")
    state.t += 1
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


def episode_loss_and_grads(theta: PipelineParams, episodes, policy: str, rng: Rng, grads: PipelineParams) -> float:
    """Training-mode mean loss over a minibatch; writes its exact gradients into ``grads``.

    The batch is an :class:`~groupcomm.scenarios.EpisodeSet`, whose arrays
    run as one (B, N, .) batch.
    """
    result = pipeline_forward(theta, episodes.observations, mode="training", policy=policy, rng=rng)
    return pipeline_backward(result, theta, episodes.labels, grads)


def check_episodes(episodes, config: PipelineConfig) -> None:
    """Refuse ``episodes`` unless it is an :class:`~groupcomm.scenarios.EpisodeSet` of ``config.d_obs``-wide rows."""
    if not isinstance(episodes, EpisodeSet):
        raise ValueError(f"episodes must be an EpisodeSet, got {type(episodes).__name__}")
    if (width := episodes.observations.shape[-1]) != config.d_obs:
        raise ValueError(f"episodes.observations are {width} wide, but the model's d_obs is {config.d_obs}")


def check_world(world, config: PipelineConfig, who: str) -> None:
    """Refuse a world whose ``obs_dim`` or ``n_classes`` is not ``config``'s, naming both; ``who`` names the model."""
    for field, name in (("d_obs", "obs_dim"), ("n_classes", "n_classes")):
        if getattr(world, name) != getattr(config, field):
            raise ValueError(
                f"{who} expects {field}={getattr(config, field)}, but the dataset has {name}={getattr(world, name)}"
            )


def infer_episodes(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None, index=None,
    row_invariant: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The (E, N, N) pruned rows and (E, N) predicted classes of episodes at inference.

    ``episodes`` is an :class:`~groupcomm.scenarios.EpisodeSet` of the
    model's observation width (:func:`check_episodes`); ``index``
    (integers, see ``densemath.index_array``) picks its episodes, in its order,
    and by default all of them, in order.  There must be at least one,
    checked before anything runs.  The episodes go through
    :func:`pipeline_forward` in stacks of :data:`EVAL_BLOCK`, each a slice of
    the set or a gather of ``index``'s rows, and ``randcom`` rows are drawn
    from ``rng`` episode by episode.  By default the pass runs on the
    row-invariant kernel, which ``evalcli.evaluate`` needs: its simulator
    audit compares the pass bit for bit.  Validation is audited by nothing,
    so ``train`` passes ``row_invariant=False`` and the pass runs on
    training's gemm products (see :func:`pipeline_forward`).
    """
    check_episodes(episodes, theta.config)
    if index is not None:
        index = index_array(index)
    count = len(episodes) if index is None else len(index)
    if not count:
        raise ValueError("need at least one episode, got none")
    m_bar, predictions = [], []  # only these outlive their block
    for start in range(0, count, EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK) if index is None else index[start : start + EVAL_BLOCK]
        result = pipeline_forward(
            theta, episodes.observations[rows], mode="inference", delta=delta, policy=policy, rng=rng,
            row_invariant=row_invariant,
        )
        m_bar.append(result.m_bar)
        predictions.append(np.argmax(result.logits, axis=-1))
    return np.concatenate(m_bar), np.concatenate(predictions)


def evaluate_task_accuracy(
    theta: PipelineParams, episodes, delta: float, policy: str = "when2com", rng: Rng | None = None, index=None,
    row_invariant: bool = True,
) -> float:
    """Fraction of (episode, agent) predictions of :func:`infer_episodes` matching labels.

    ``episodes``, ``index`` and ``row_invariant`` are :func:`infer_episodes`'s;
    ``train``'s validation passes ``row_invariant=False``, so it runs on the
    gemm products, and needs no row invariance because no simulator audits
    it.  ``randcom`` rows are drawn from ``rng``, episode by episode, or from
    one ``Rng(0)`` for the whole call when it is omitted.  The episodes
    (:func:`check_episodes`) and then the labels (:func:`check_labels`) are
    checked first.
    """
    check_episodes(episodes, theta.config)
    labels = episodes.labels if index is None else episodes.labels[index_array(index)]
    if not len(labels):
        raise ValueError("evaluate_task_accuracy: episodes is empty, so there is no accuracy to report")
    check_labels(labels, theta.config.n_classes)
    _, predictions = infer_episodes(
        theta, episodes, delta, policy, rng if rng is not None else Rng(0), index, row_invariant
    )
    return int(np.count_nonzero(predictions == labels)) / predictions.size


def train(config: TrainConfig, dataset, rng: Rng) -> tuple[PipelineParams, list[dict]]:
    """Minibatch Adam loop over the training split of a :class:`~groupcomm.scenarios.Dataset`.

    The dataset's world must have the model's ``d_obs`` and ``n_classes``
    (:func:`check_world`), checked before any draw.  Each step draws its
    batch indices into ``train_idx`` from ``rng``, gathers those episodes'
    rows, then runs one batched forward and backward over the whole batch
    and one Adam update at :func:`adam_step`'s default rates.  Validation
    runs over ``val_idx`` in gathered blocks, so neither split is copied
    whole, on the gemm products (``row_invariant=False``): nothing audits it
    against the simulator.  The parameters, the Adam moments and one
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
    check_world(dataset.world, config.pipeline, "the model")

    theta = init_pipeline(config.pipeline, rng)
    state = AdamState.for_params(theta)
    grads = PipelineParams(theta.config)
    log: list[dict] = []
    n_train = len(train_idx)

    for step in range(1, config.steps + 1):
        batch = train_idx[[rng.randint(n_train) for _ in range(config.batch_size)]]
        loss = episode_loss_and_grads(theta, episodes[batch], config.policy, rng, grads)
        adam_step(theta, grads, state)
        log.append({"step": step, "loss": loss})
        if config.eval_every and len(val_idx) and step % config.eval_every == 0:
            acc = evaluate_task_accuracy(
                theta, episodes, 1.0 / episodes.labels.shape[1], config.policy, Rng(rng.seed ^ step), val_idx,
                row_invariant=False,
            )
            log.append({"step": step, "val_task_acc": acc})
    return theta, log


def _first_non_finite(theta: PipelineParams) -> str | None:
    """Where ``theta``'s first non-finite parameter lies (head, layer, flat index), or None if all are finite."""
    for (name, _), values in zip(param_layout(theta.config), theta.arrays, strict=True):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            return f"{name} holds {values.flat[bad[0]]} at flat index {bad[0]}"
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
    expected = head_size + 8 * sum(math.prod(shape) for _, shape in param_layout(config))
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
