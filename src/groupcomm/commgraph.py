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


def attention_scores(queries: np.ndarray, kappa: np.ndarray, w_g: np.ndarray) -> np.ndarray:
    """Scaled general-attention scores  mu^T W_g kappa / sqrt(K)  of many queries, one key per leading index.

    ``queries`` is (..., Q); the scores keep its leading shape.  ``kappa`` is
    one key, (K,), or one per leading index: (L..., K) scores every query of
    ``queries[l]`` against ``kappa[l]``, as every agent scores its query inbox
    against its own key.  Each score is the :func:`_scores` product of its
    query and key alone, so it does not depend on the rest of the stack.
    """
    w_g = np.asarray(w_g, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.float64)
    if w_g.ndim != 2:
        raise ValueError(f"w_g must be 2-D, got shape {w_g.shape}")
    q_dim, k_dim = w_g.shape
    if q.ndim == 0 or q.shape[-1] != q_dim:
        raise ValueError(f"query shape {q.shape} does not match w_g shape {w_g.shape}")
    lead = kappa.ndim - 1
    if not 0 <= lead < q.ndim or kappa.shape != q.shape[:lead] + (k_dim,):
        raise ValueError(f"key shape {kappa.shape} does not match w_g shape {w_g.shape} and query shape {q.shape}")
    projected = row_matmul(kappa, w_g)
    if lead:  # each key broadcasts over the leading axes its queries have beyond its own
        projected = projected.reshape(kappa.shape[:-1] + (1,) * (q.ndim - 1 - lead) + (q_dim,))
    return _scores(q, projected, k_dim)


def attention_score(mu: np.ndarray, kappa: np.ndarray, w_g: np.ndarray) -> float:
    """:func:`attention_scores` of one query.

    The same form scores cross pairs (requester query vs. supporter key) and
    the self pair (own query vs. own key), which carries the decision of
    whether communication is needed at all.
    """
    if np.ndim(mu) != 1:
        raise ValueError(f"attention_score takes one query vector, got shape {np.shape(mu)}")
    return float(attention_scores(mu, kappa, w_g))


def _scores(queries: np.ndarray, projected: np.ndarray, k_dim: int) -> np.ndarray:
    """The one score formula: each query row dotted with its projected key ``w_g @ key``, over sqrt(K).

    ``queries`` and ``projected`` are (..., Q) and broadcast against each
    other.  Every pair is its own stacked ``(1, Q) @ (Q, 1)`` product, so a
    score rounds the same whatever the stack around it.
    """
    raw = np.matmul(queries[..., None, :], projected[..., :, None])[..., 0, 0]
    return raw / math.sqrt(k_dim)


def build_matching_matrix(queries, keys, w_g: np.ndarray) -> np.ndarray:
    """Row-softmaxed N x N matrix of attention scores, for one episode or a stack.

    ``queries`` is (..., N, Q) and ``keys`` is (..., N, K), with the same
    leading shape; lists of per-agent vectors are accepted.  Entry (i, j) is
    the softmax over j of score(query_i, key_j); the diagonal scores an
    agent's query against its own key.  The scores come from the kernel of
    :func:`attention_scores`, with each key projected once, so every entry
    is bit-identical to :func:`attention_score` of that pair, whatever the
    stack around it.
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
    return softmax(check_scores(_scores(q[..., :, None, :], row_matmul(k, w_g)[..., None, :, :], w_g.shape[1])))


def check_scores(raw: np.ndarray) -> np.ndarray:
    """``raw`` itself, once every score in it is finite; a non-finite one raises ValueError before any softmax."""
    if not np.all(np.isfinite(raw)):
        raise ValueError("attention scores contain non-finite entries")
    return raw


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


def link_mask(m: np.ndarray) -> np.ndarray:
    """Which weights of (..., N, N) rows are inter-agent links: the nonzero ones off the diagonal."""
    m = np.asarray(m)
    return (m != 0.0) & ~np.eye(m.shape[-1], dtype=bool)


def top1_rows(m: np.ndarray) -> np.ndarray:
    """Hard rows selecting each agent's highest-weight peer, diagonal masked, for (..., N, N) rows.

    Ties go to the lowest index; a lone agent selects itself.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[-1]
    masked = np.where(np.eye(n, dtype=bool), -np.inf, m)
    return (np.argmax(masked, axis=-1)[..., None] == np.arange(n)).astype(np.float64)


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
    terms = []
    for j, w in enumerate(weights.tolist()):
        if w == 0.0:
            continue
        f = features[j]
        if f is None:
            raise ValueError(f"feature {j} has nonzero weight but no payload")
        f = np.asarray(f, dtype=np.float64)
        if terms and f.shape[0] != terms[0][1].shape[0]:
            raise ValueError(f"feature length mismatch: {f.shape[0]} vs {terms[0][1].shape[0]}")
        terms.append((w, f))
    if not terms:
        # All weights zero: infer length from any concrete feature.
        for f in features:
            if f is not None:
                return np.zeros(np.asarray(f).shape[0], dtype=np.float64)
        raise ValueError("cannot infer feature length: all features absent")
    acc = np.zeros(terms[0][1].shape[0], dtype=np.float64)
    for w, f in terms:
        acc += w * f
    return acc


def fuse_rows(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """:func:`fuse` of every row at once: (..., N, N) weights over (..., N, F) features.

    Accumulates in ascending agent order and multiplies and adds only where
    a weight is nonzero, as :func:`fuse` does, so a zero weight's feature is
    never touched and every fused row is bit-identical to :func:`fuse` of
    that row alone.
    """
    acc = np.zeros(features.shape, dtype=np.float64)
    term = np.empty_like(acc)
    for j in range(features.shape[-2]):
        w = weights[..., j, None]
        live = w != 0.0
        np.multiply(w, features[..., None, j, :], out=term, where=live)
        np.add(acc, term, out=acc, where=live)
    return acc
