"""Communication-graph mathematics: attention scores, matching matrix, pruning, fusion.

Pure functions over numpy arrays; no networking or learning concerns.  The
matching matrix M is row-stochastic: row i holds how requester i weights every
agent j (including itself on the diagonal).  Pruning zeroes entries below a
threshold delta to form the adjacency matrix of the directed communication
graph; surviving weights are used as-is (no renormalization by default).

All functions here are reentrant and safe to call concurrently on shared
read-only inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .densemath import softmax_row


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


def build_matching_matrix(
    queries: list[np.ndarray], keys: list[np.ndarray], w_g: np.ndarray
) -> np.ndarray:
    """Row-softmaxed N x N matrix of attention scores.

    Entry (i, j) is softmax over j of score(query_i, key_j); the diagonal
    scores an agent's query against its own key.  Bit-identical to assembling
    each row from per-pair :func:`attention_score` calls and softmaxing.
    """
    if len(queries) != len(keys):
        raise ValueError(f"got {len(queries)} queries but {len(keys)} keys")
    n = len(queries)
    if n == 0:
        raise ValueError("need at least one agent")
    w_g = np.asarray(w_g, dtype=np.float64)
    raw = np.empty((n, n), dtype=np.float64)
    for j in range(n):
        for i in range(n):
            raw[i, j] = attention_score(queries[i], keys[j], w_g)
    m = np.empty_like(raw)
    for i in range(n):
        m[i] = softmax_row(raw[i])
    return m


def prune(m: np.ndarray, delta: float, renormalize: bool = False) -> np.ndarray:
    """Zero out entries smaller than ``delta``; entries exactly equal are kept.

    Kept entries are not rescaled by default; ``renormalize=True`` is an
    experimental toggle that rescales each surviving row to sum to 1.
    For a stochastic row and delta = 1/N the row maximum is always >= 1/N,
    so pruning can never empty a row at that threshold.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    m = np.asarray(m, dtype=np.float64)
    out = np.where(m >= delta, m, 0.0)
    if renormalize:
        sums = out.sum(axis=-1, keepdims=True)
        out = np.divide(out, sums, out=np.zeros_like(out), where=sums != 0.0)
    return out


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


def comm_links(m_bar: np.ndarray) -> list[tuple[int, int]]:
    """Directed inter-agent links (supporter -> requester) of a pruned matrix.

    A nonzero off-diagonal entry (i, j) means requester i pulls supporter j's
    feature, i.e. a transmission j -> i.  Diagonal entries are intra-agent and
    consume no bandwidth, so they are excluded.
    """
    m_bar = np.asarray(m_bar, dtype=np.float64)
    links = []
    n = m_bar.shape[0]
    for i in range(n):
        for j in range(m_bar.shape[1]):
            if i != j and m_bar[i, j] != 0.0:
                links.append((j, i))
    return links
