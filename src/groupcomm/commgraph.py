"""Communication-graph mathematics: attention scores, matching matrix, pruning, fusion.

Pure functions over numpy arrays; no networking or learning concerns.  The
matching matrix M is row-stochastic: row i holds how requester i weights every
agent j (including itself on the diagonal).  Pruning zeroes entries below a
threshold delta to form the adjacency matrix of the directed communication
graph; surviving weights are used as-is (no renormalization).

All functions here are reentrant and safe to call concurrently on shared
read-only inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .densemath import row_matmul, softmax


def attention_score(mu: np.ndarray, kappa: np.ndarray, w_g: np.ndarray) -> float:
    """Scaled general-attention score  mu^T W_g kappa / sqrt(K).

    The same form scores cross pairs (requester query vs. supporter key) and
    the self pair (own query vs. own key), which carries the decision of
    whether communication is needed at all.
    """
    mu = np.asarray(mu, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.float64)
    w_g = np.asarray(w_g, dtype=np.float64)
    if w_g.ndim != 2:
        raise ValueError(f"w_g must be 2-D, got shape {w_g.shape}")
    q_dim, k_dim = w_g.shape
    if mu.shape != (q_dim,):
        raise ValueError(f"query shape {mu.shape} does not match w_g shape {w_g.shape}")
    if kappa.shape != (k_dim,):
        raise ValueError(f"key shape {kappa.shape} does not match w_g shape {w_g.shape}")
    return float(np.dot(mu, w_g @ kappa) / math.sqrt(k_dim))


def build_matching_matrix(queries, keys, w_g: np.ndarray) -> np.ndarray:
    """Row-softmaxed N x N matrix of attention scores, for one episode or a stack.

    ``queries`` is (..., N, Q) and ``keys`` is (..., N, K), with the same
    leading shape; lists of per-agent vectors are accepted.  Entry (i, j) is
    the softmax over j of score(query_i, key_j); the diagonal scores an
    agent's query against its own key.  Each score is the stacked
    ``(1, Q) @ (Q, 1)`` product of ``query_i`` with ``w_g @ key_j`` (from
    :func:`row_matmul`), so every entry is bit-identical to
    :func:`attention_score` of that pair, whatever the stack around it.
    """
    w_g = np.asarray(w_g, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    if w_g.ndim != 2:
        raise ValueError(f"w_g must be 2-D, got shape {w_g.shape}")
    if q.ndim < 2 or k.ndim < 2 or q.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"queries of shape {q.shape} do not pair with keys of shape {k.shape}")
    if q.shape[-2] == 0:
        raise ValueError("need at least one agent")
    if (q.shape[-1], k.shape[-1]) != w_g.shape:
        raise ValueError(f"queries {q.shape} and keys {k.shape} do not match w_g shape {w_g.shape}")
    projected = row_matmul(k, w_g)  # w_g @ key_j
    raw = np.matmul(q[..., :, None, None, :], projected[..., None, :, :, None])[..., 0, 0]
    raw /= math.sqrt(w_g.shape[1])
    if not np.all(np.isfinite(raw)):
        raise ValueError("attention scores contain non-finite entries")
    return softmax(raw)


def prune(m: np.ndarray, delta: float) -> np.ndarray:
    """Zero out entries smaller than ``delta``; entries exactly equal are kept.

    Kept entries are not rescaled.  For a stochastic row and delta = 1/N the
    row maximum is always >= 1/N, so pruning can never empty a row at that
    threshold.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    m = np.asarray(m, dtype=np.float64)
    return np.where(m >= delta, m, 0.0)


def top1_rows(m: np.ndarray) -> np.ndarray:
    """Hard rows selecting each agent's highest-weight peer, diagonal masked.

    Ties go to the lowest index; a lone agent selects itself.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    masked = np.where(np.eye(n, dtype=bool), -np.inf, m)
    rows = np.zeros((n, n))
    rows[np.arange(n), np.argmax(masked, axis=1)] = 1.0
    return rows


def fuse(weights: np.ndarray, features: list) -> np.ndarray:
    """Weighted sum of agent features by one matching-row.

    Exactly-zero weights contribute nothing and their features are never
    touched (they may be None or contain non-finite payloads).  Accumulation
    runs in ascending agent order, so any two calls with the same surviving
    weights produce bit-identical sums.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.shape[0] != len(features):
        raise ValueError(
            f"weights shape {weights.shape} does not match {len(features)} features"
        )
    f_dim: int | None = None
    for j, w in enumerate(weights):
        if w == 0.0:
            continue
        f = features[j]
        if f is None:
            raise ValueError(f"feature {j} has nonzero weight but no payload")
        f = np.asarray(f, dtype=np.float64)
        if f_dim is None:
            f_dim = f.shape[0]
        elif f.shape[0] != f_dim:
            raise ValueError(f"feature length mismatch: {f.shape[0]} vs {f_dim}")
    if f_dim is None:
        # All weights zero: infer length from any concrete feature.
        for f in features:
            if f is not None:
                f_dim = np.asarray(f).shape[0]
                break
        if f_dim is None:
            raise ValueError("cannot infer feature length: all features absent")
        return np.zeros(f_dim, dtype=np.float64)
    acc = np.zeros(f_dim, dtype=np.float64)
    for j, w in enumerate(weights):
        if w == 0.0:
            continue
        acc += w * np.asarray(features[j], dtype=np.float64)
    return acc


def fuse_rows(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """:func:`fuse` of every row at once: (..., N, N) weights over (..., N, F) features.

    Accumulates in ascending agent order and skips exactly-zero weights, as
    :func:`fuse` does, so every fused row is bit-identical to :func:`fuse` of
    that row alone.
    """
    acc = np.zeros(features.shape, dtype=np.float64)
    for j in range(features.shape[-2]):
        w = weights[..., j, None]
        acc = np.where(w != 0.0, acc + w * features[..., None, j, :], acc)
    return acc
