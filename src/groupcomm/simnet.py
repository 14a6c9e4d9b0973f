"""Decentralized execution of the handshake protocol as explicit message passing.

Agents are state machines that exchange four message kinds in synchronous
phases:

1. ``query``    each agent broadcasts its Q-real query to every peer;
2. ``score``    each recipient scores every query addressed to it against its
                own retained key and replies to each requester with a single
                real (keys never leave their owner);
3. ``request``/``transfer``  after row-softmaxing its assembled scores and
                pruning at delta, a requester asks each surviving off-diagonal
                supporter for its F-real feature, and the supporter answers
                with it.

A block's messages live in one :class:`MessageLog`: an append-only table with
one row per message (episode, kind, src, dst, payload size, payload offset)
and one float64 buffer of payloads.  Each phase appends all of its rows for
the whole block with array operations, in the order the protocol sends them.
An agent never reads another agent's fields: what it learns of its peers is
gathered from the log rows addressed to it (:func:`delivered`), and a row
missing, repeated or sent where the protocol sends none raises
:class:`DeliveryError`, naming the episode, the agent and the peer.
Iterating a log yields one :class:`Message` per row.

:func:`run_block` runs a block of episodes of one agent count in lockstep,
one phase at a time over the whole block: :func:`make_agents` runs each head
once over the (E, N, d_obs) stack, :func:`score_inboxes` scores every query
inbox of the block in one call, one ``policy_rows`` call sets every
episode's rows, and one decode call runs every agent.  Each agent's
decisions about its own row run per agent, from its delivered rows alone:
its self score, softmax, prune and fusion.  Episodes share no messages; each
gets its own view of the block's log, in send order, and its own ledger.
All of it runs on row-invariant kernels, so every agent holds, scores and
decodes bit for bit what its own lone pass gives it, whatever the block
around it.  :func:`run_episode`, one episode of any policy
(``neuralnet.POLICIES``), is the block runner on a block of one.  That is
why a block agrees bit for bit with its episodes run one by one and with
centralized inference (``neuralnet.pipeline_forward(mode="inference")``),
and why ``evalcli.evaluate`` can report from the batched pass and run the
simulator as its auditor.

The ledger counts query broadcasts and feature transfers as payload at
4 bytes per real; score replies, feature requests, and all 9-byte headers
(kind 1, from 2, to 2, payload length 4) are control traffic.  The message
counts follow from the rows alone, so :func:`ledger_from_links` of the
:func:`link_counts` of any set of episodes' rows gives their ledger in
closed form, equal to :func:`ledger_from_trace` of their messages.  Values
travel as 64-bit floats in memory, so distributed results are bit-identical
to centralized inference; the 4-byte accounting models the on-wire float
size.  The simulator is deterministic and single-threaded per block;
blocks may run concurrently with independent logs and ledgers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .commgraph import attention_score, attention_scores, fuse, link_mask, prune
from .densemath import Rng, frozen, integer, softmax_row
from .neuralnet import HANDSHAKE_POLICIES, PipelineParams, decode, mlp_infer, policy_rows

KIND_BYTES, ID_BYTES, LENGTH_BYTES = 1, 2, 4  # header field widths: kind, each of from and to, payload length
HEADER_BYTES = KIND_BYTES + 2 * ID_BYTES + LENGTH_BYTES
BYTES_PER_REAL = 4  # transmitted payloads are modeled as 32-bit reals
# The largest agent id and payload that those fields hold, and so that a loaded trace may name.
MAX_AGENT_ID, MAX_PAYLOAD_REALS = 2 ** (8 * ID_BYTES) - 1, (2 ** (8 * LENGTH_BYTES) - 1) // BYTES_PER_REAL

KIND_QUERY = "query"
KIND_SCORE = "score"
KIND_REQUEST = "request"
KIND_TRANSFER = "transfer"
COUNTED_KINDS = (KIND_QUERY, KIND_TRANSFER)
ALL_KINDS = (KIND_QUERY, KIND_SCORE, KIND_REQUEST, KIND_TRANSFER)
KIND_CODES = {kind: code for code, kind in enumerate(ALL_KINDS)}  # a log's kind column holds these
TRACE_FIELDS = ("kind", "from", "to", "payload_reals", "payload_bytes", "header_bytes", "counted")
LOG_COLUMNS = ("episode", "kind", "src", "dst", "reals", "offset")
_COUNTED = np.array([kind in COUNTED_KINDS for kind in ALL_KINDS])
_DUMP_CHUNK = 4096  # trace lines per write
_LINE_CACHE = 4096  # distinct trace lines kept encoded


@dataclass(slots=True)
class Message:
    """One directed message, the row type a :class:`MessageLog` yields; its payload size is fixed when it is built."""

    kind: str
    src: int
    dst: int
    payload: np.ndarray | None = None
    payload_reals: int = field(init=False)
    payload_bytes: int = field(init=False)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError(f"inter-agent message to self: agent {self.src}")
        self.payload_reals = 0 if self.payload is None else self.payload.size
        self.payload_bytes = BYTES_PER_REAL * self.payload_reals


class MessageLog:
    """Messages as one append-only log of columns, one entry per message, in send order.

    ``columns`` is (6, R) int64, one row per name in :data:`LOG_COLUMNS`:
    the episode within its block, the kind (its index in
    :data:`ALL_KINDS`), sender, addressee, payload reals, and the payload's
    offset into ``payloads``, one float64 buffer.  Offset -1 holds no
    payload: a message without reals, or one whose size alone is recorded,
    as :meth:`from_messages` and :meth:`concat` record them.  Iterating yields one
    :class:`Message` per entry, its payload a view of the buffer (a
    zero-stride stub where only the size is held).
    """

    __slots__ = ("columns", "payloads")

    def __init__(self, columns: np.ndarray | None = None, payloads: np.ndarray | None = None):
        self.columns = np.empty((len(LOG_COLUMNS), 0), np.int64) if columns is None else columns
        self.payloads = np.empty(0) if payloads is None else payloads

    episode = property(lambda self: self.columns[0])
    kind = property(lambda self: self.columns[1])
    reals = property(lambda self: self.columns[4])
    offset = property(lambda self: self.columns[5])

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __iter__(self):
        payloads = self.payloads
        for _, code, src, dst, reals, offset in zip(*self.columns.tolist()):
            if not reals:
                payload = None
            elif offset < 0:
                payload = np.broadcast_to(0.0, (reals,))
            else:
                payload = payloads[offset : offset + reals]
            yield Message(ALL_KINDS[code], src, dst, payload)

    def append(self, columns: np.ndarray, payloads: np.ndarray | None = None) -> None:
        """Append (6, R) columns whose offsets index ``payloads``, which joins the end of the buffer."""
        if payloads is not None and self.payloads.size:
            columns = columns.copy()
            columns[5] += np.where(columns[5] >= 0, self.payloads.size, 0)
        self.columns = np.concatenate((self.columns, columns), axis=1)
        if payloads is not None:
            self.payloads = np.concatenate((self.payloads, payloads)) if self.payloads.size else payloads

    def by_episode(self, n_episodes: int) -> list[MessageLog]:
        """Each of the block's episodes' messages, in send order: one log per episode, sharing the buffer."""
        columns = self.columns[:, np.argsort(self.episode, kind="stable")]
        bounds = np.searchsorted(columns[0], np.arange(n_episodes + 1)).tolist()
        return [MessageLog(columns[:, lo:hi], self.payloads) for lo, hi in zip(bounds[:-1], bounds[1:])]

    @classmethod
    def from_messages(cls, messages) -> MessageLog:
        """The log of any sequence of messages, in order, recording their sizes only."""
        rows = ((0, KIND_CODES[m.kind], m.src, m.dst, m.payload_reals, -1) for m in messages)
        return cls(np.fromiter(rows, np.dtype((np.int64, len(LOG_COLUMNS)))).T)

    @classmethod
    def concat(cls, logs) -> MessageLog:
        """The messages of ``logs`` in order, in one log recording their sizes only: all a dump needs."""
        columns = np.concatenate([log.columns for log in logs] or [cls().columns], axis=1)
        columns[5] = -1
        return cls(columns)


def _as_log(messages) -> MessageLog:
    return messages if isinstance(messages, MessageLog) else MessageLog.from_messages(messages)


def _columns(episode: np.ndarray, kind: str, src, dst, reals, offset) -> np.ndarray:
    """Log columns for one message per entry of ``episode``; scalar columns broadcast."""
    columns = np.empty((len(LOG_COLUMNS), len(episode)), np.int64)
    columns[0], columns[1], columns[2], columns[3], columns[4], columns[5] = (
        episode, KIND_CODES[kind], src, dst, reals, offset
    )
    return columns


@dataclass
class BandwidthLedger:
    """Byte counters split into counted payload and uncounted control traffic."""

    counted_bytes: int = 0
    control_bytes: int = 0
    inter_agent_links: int = 0
    frames: int = 0


def ledger_from_trace(messages, frames: int) -> BandwidthLedger:
    """Recompute a ledger purely from a message trace: a :class:`MessageLog`, or any sequence of messages.

    One count per kind over the rows: counted kinds put their payload bytes
    into ``counted_bytes``, every other payload byte and every header is
    control traffic, and each transfer is one inter-agent link.  Payload
    sums are exact Python ints, however large the loaded sizes.
    """
    log = _as_log(messages)
    per_kind = np.bincount(log.kind, minlength=len(ALL_KINDS))
    reals = log.reals
    counted = sum(reals[_COUNTED[log.kind]].tolist())
    control = sum(reals.tolist()) - counted
    return BandwidthLedger(
        counted_bytes=BYTES_PER_REAL * counted,
        control_bytes=HEADER_BYTES * len(log) + BYTES_PER_REAL * control,
        inter_agent_links=int(per_kind[KIND_CODES[KIND_TRANSFER]]),
        frames=frames,
    )


def link_counts(m_bar: np.ndarray) -> np.ndarray:
    """Each episode's links, the off-diagonal nonzeros of its fused rows: (..., N, N) -> (...)."""
    return np.count_nonzero(link_mask(m_bar), axis=(-2, -1))


def ledger_from_links(
    links: int, frames: int, n_agents: int, q_dim: int, f_dim: int, handshake: bool
) -> BandwidthLedger:
    """The ledger of ``frames`` episodes of ``n_agents`` agents that made ``links`` links in all, in closed form.

    Equal to :func:`ledger_from_trace` of the episodes' messages: with the
    handshake, each episode sends N(N-1) Q-real queries and as many 1-real
    score replies; each link (see :func:`link_counts`) is a payload-free
    request answered by an F-real transfer.
    """
    links = int(links)
    queries = frames * n_agents * (n_agents - 1) if handshake else 0
    return BandwidthLedger(
        counted_bytes=BYTES_PER_REAL * (queries * q_dim + links * f_dim),
        control_bytes=queries * (2 * HEADER_BYTES + BYTES_PER_REAL) + links * 2 * HEADER_BYTES,
        inter_agent_links=links,
        frames=frames,
    )


def mbpf(ledger: BandwidthLedger) -> float:
    """Megabytes of counted payload per frame."""
    if ledger.frames < 1:
        raise ValueError("ledger holds no frames")
    return ledger.counted_bytes / ledger.frames / 1e6


def links_per_agent(ledger: BandwidthLedger, n_agents: int) -> float:
    """Average inter-agent feature transfers per agent per frame."""
    if ledger.frames < 1:
        raise ValueError("ledger holds no frames")
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return ledger.inter_agent_links / ledger.frames / n_agents


class DeliveryError(RuntimeError):
    """A log that does not deliver what the protocol sends; names the episode (within its block), agent and peer."""

    def __init__(self, episode: int, agent: int, peer: int, detail: str):
        self.episode, self.agent, self.peer, self.detail = episode, agent, peer, detail
        super().__init__(f"episode {episode}: {detail}")


def delivered(log: MessageLog, kind: str, expected: np.ndarray) -> np.ndarray:
    """The entry of ``log`` that delivers each expected message of ``kind``, by (episode, addressee, sender).

    ``expected`` is an (E, N, N) bool array: entry (e, i, j) is set where
    agent i of episode e must receive exactly one ``kind`` message from
    agent j.  Returns the (E, N, N) entry indices, -1 where none is
    expected.  Raises :class:`DeliveryError` naming a message addressed
    outside ``expected``'s episodes and agents, else the first (episode,
    agent, peer) that received another number of them than expected.
    """
    rows = np.flatnonzero(log.kind == KIND_CODES[kind])
    episode, dst, src = log.columns[(0, 3, 2), :][:, rows]
    try:
        key = np.ravel_multi_index((episode, dst, src), expected.shape)
    except ValueError:  # an id out of range
        ids = np.stack((dst, src))
        outside = (episode < 0) | (episode >= expected.shape[0]) | (ids < 0).any(0) | (ids >= expected.shape[1]).any(0)
        k = int(np.argmax(outside))
        raise DeliveryError(
            int(episode[k]), int(dst[k]), int(src[k]),
            f"a {kind} message from agent {src[k]} to agent {dst[k]} names no agent of a block of "
            f"{expected.shape[0]} episodes of {expected.shape[1]} agents",
        ) from None
    counts = np.bincount(key, minlength=expected.size).reshape(expected.shape)
    bad = counts != expected
    if bad.any():
        e, i, j = np.argwhere(bad)[0].tolist()
        raise DeliveryError(
            e, i, j,
            f"agent {i} received {counts[e, i, j]} {kind} messages from peer {j}, "
            f"where the protocol sends {int(expected[e, i, j])}",
        )
    index = np.full(expected.size, -1)
    index[key] = rows
    return index.reshape(expected.shape)


def delivered_scores(log: MessageLog, expected: np.ndarray) -> np.ndarray:
    """The (E, N, N) score replies ``log`` delivers: entry (e, i, j) the real agent j sent agent i, else 0."""
    index = delivered(log, KIND_SCORE, expected)
    received = np.zeros(expected.shape)
    received[expected] = log.payloads[log.offset[index[expected]]]
    return received


def delivered_features(log: MessageLog, expected: np.ndarray) -> list[list[list]]:
    """The features ``log`` transfers to each agent: per episode, per agent, a list by sender, None where none came."""
    index = delivered(log, KIND_TRANSFER, expected)
    n_episodes, n = expected.shape[:2]
    inboxes = [[[None] * n for _ in range(n)] for _ in range(n_episodes)]
    episode, agent, peer = np.nonzero(expected)
    rows = index[episode, agent, peer]
    for e, i, j, offset, reals in zip(
        episode.tolist(), agent.tolist(), peer.tolist(), log.offset[rows].tolist(), log.reals[rows].tolist()
    ):
        inboxes[e][i][j] = log.payloads[offset : offset + reals]
    return inboxes


class AgentState:
    """One agent's private state; what it learns of its peers is handed to it from the log rows addressed to it."""

    __slots__ = ("agent_id", "observation", "mu", "kappa", "feature", "row", "pruned_row", "fused")

    def __init__(self, agent_id: int, observation: np.ndarray, mu=None, kappa=None, feature=None):
        self.agent_id = agent_id
        self.observation = np.asarray(observation, dtype=np.float64)
        # Its head outputs (query, key, feature), then the rows and fusion it computes.
        self.mu, self.kappa, self.feature = mu, kappa, feature
        self.row = self.pruned_row = self.fused = None

    def assemble_row(self, scores: np.ndarray, theta: PipelineParams) -> np.ndarray:
        """Softmax over ``scores``, the (N,) score replies delivered to this agent by sender, with its own score set.

        The self score is computed locally and written at the agent's own index.
        """
        scores[self.agent_id] = attention_score(self.mu, self.kappa, theta.w_g)
        self.row = softmax_row(scores)
        return self.row

    def prune_row(self, delta: float) -> np.ndarray:
        """Prune the row at ``delta``: the surviving off-diagonal weights are the peers it requests."""
        self.pruned_row = prune(self.row, delta)
        return self.pruned_row

    def fuse_features(self, features: list) -> np.ndarray:
        """Weighted fusion over the local feature plus ``features``, the transfers delivered to it by sender.

        Peers without a transfer hold None, an error only under a surviving weight.
        """
        features[self.agent_id] = self.feature
        self.fused = fuse(self.pruned_row, features)
        return self.fused


@dataclass
class EpisodeResult:
    predictions: list[int]
    logits: np.ndarray  # (N, C), row i agent i's
    rows: np.ndarray  # the policy's rows before pruning (centralized ``m``)
    pruned_rows: np.ndarray  # the rows fused, after pruning (centralized ``m_bar``)
    fused: np.ndarray  # (N, F), row i what agent i fused
    ledger: BandwidthLedger
    trace: MessageLog = field(default_factory=MessageLog)  # the episode's view of its block's log


def make_agents(observations, theta: PipelineParams) -> list[AgentState] | list[list[AgentState]]:
    """One agent per row of an episode's (N, d_obs) observations, holding its query, key and feature.

    An (E, N, d_obs) stack gives a block: one such list of agents per
    episode.  Each head runs once over all the observations, on the
    row-invariant kernel, so every agent holds exactly what its own
    observation alone gives it, whatever the stack around it.  Observations
    not ``theta.config.d_obs`` wide raise ValueError naming both widths.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim == 0 or obs.shape[-1] != theta.config.d_obs:
        d_obs = theta.config.d_obs
        raise ValueError(f"make_agents: observations of shape {obs.shape} do not end in the model's d_obs ({d_obs})")
    stack = obs if obs.ndim == 3 else obs[None]
    heads = [mlp_infer(head, stack) for head in (theta.theta_q, theta.theta_k, theta.theta_e)]
    block = [
        [AgentState(i, *outputs) for i, outputs in enumerate(zip(*episode))] for episode in zip(stack, *heads)
    ]
    return block if obs.ndim == 3 else block[0]


def _gather(block: list[list[AgentState]], name: str) -> np.ndarray:
    """Every agent's own ``name`` field, stacked (E, N, ...)."""
    return np.array([[getattr(agent, name) for agent in agents] for agents in block])


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The N(N-1) ordered pairs (a, b) of distinct agents, a-major: each agent's peers in agent order."""
    return tuple(frozen(ids) for ids in np.nonzero(~np.eye(n, dtype=bool)))


@lru_cache(maxsize=256)
def _peers(n_episodes: int, n: int) -> np.ndarray:
    """The (E, N, N) mask of every agent's peers: every ordered pair of distinct agents of an episode."""
    return frozen(np.tile(~np.eye(n, dtype=bool), (n_episodes, 1, 1)))


def _query_columns(n_episodes: int, n: int, q_dim: int) -> np.ndarray:
    """The log columns of a block's query broadcast, which depend on its shape alone.

    Sender by sender, peers in agent order, each query pointing at its
    sender's query in the (E, N, Q) stack of queries.
    """
    sender, peer = (np.tile(ids, n_episodes) for ids in _pairs(n))
    episode = np.repeat(np.arange(n_episodes), n * (n - 1))
    return _columns(episode, KIND_QUERY, sender, peer, q_dim, (episode * n + sender) * q_dim)


def _reply_columns(n_episodes: int, n: int) -> np.ndarray:
    """The log columns of a block's score replies, which depend on its shape alone.

    Requester by requester, repliers in agent order, reply (e, r, j)
    pointing at replier j's score of r's query in the (E, N, N - 1) stack
    of inbox scores, where r sits at place r - (r > j) of j's inbox.
    """
    requester, replier = (np.tile(ids, n_episodes) for ids in _pairs(n))
    episode = np.repeat(np.arange(n_episodes), n * (n - 1))
    slot = (episode * n + replier) * (n - 1) + requester - (requester > replier)
    return _columns(episode, KIND_SCORE, replier, requester, 1, slot)


def broadcast_queries(block: list[list[AgentState]], log: MessageLog) -> None:
    """The query phase: each agent sends its own Q-real query to every peer.

    N(N-1) messages per episode, sender by sender, peers in agent order;
    every message a sender broadcasts points at its one copy of the query.
    """
    n = len(block[0])
    if n < 2:
        return
    mu = _gather(block, "mu")  # (E, N, Q)
    log.append(_query_columns(len(block), n, mu.shape[-1]), mu.ravel())


def score_inboxes(block: list[list[AgentState]], theta: PipelineParams, log: MessageLog) -> None:
    """The score phase: one call scores every query inbox of the block, in sender order, against its owner's key.

    Each agent's inbox is gathered from the query messages addressed to it.
    In each episode the replies, one real each, go out requester by
    requester, the repliers in agent order.
    """
    n_episodes, n = len(block), len(block[0])
    if n < 2:
        return
    q_dim = theta.w_g.shape[0]
    replier, sender = _pairs(n)
    index = delivered(log, KIND_QUERY, _peers(n_episodes, n))[:, replier, sender]  # (E, N(N-1)), inbox order
    inboxes = log.payloads[log.offset[index][..., None] + np.arange(q_dim)].reshape(n_episodes, n, n - 1, q_dim)
    scores = attention_scores(inboxes, _gather(block, "kappa"), theta.w_g)  # (E, N, N - 1)
    log.append(_reply_columns(n_episodes, n), scores.ravel())


def request_features(block: list[list[AgentState]], log: MessageLog) -> np.ndarray:
    """The request and transfer phase: each agent requests every peer its pruned row keeps, and the peer answers.

    Messages go episode by episode, requester by requester, peers in agent
    order, each request followed by the transfer that answers it, which
    carries the supporter's own F-real feature.  Returns the (E, N, N) mask
    of requests, (e, i, j) where agent i of episode e asked agent j.
    """
    requested = link_mask(_gather(block, "pruned_row"))
    episode, requester, supporter = np.nonzero(requested)
    if episode.size:
        features = [block[e][j].feature for e, j in zip(episode.tolist(), supporter.tolist())]
        f_dim = features[0].size
        requests = _columns(episode, KIND_REQUEST, requester, supporter, 0, -1)
        transfers = _columns(episode, KIND_TRANSFER, supporter, requester, f_dim, np.arange(episode.size) * f_dim)
        pairs = np.stack((requests, transfers), axis=2).reshape(len(LOG_COLUMNS), -1)  # each request, then its answer
        log.append(pairs, np.concatenate(features))
    return requested


def run_handshake(block: list[list[AgentState]], theta: PipelineParams) -> tuple[np.ndarray, MessageLog]:
    """Three-phase handshake over a block of episodes of one agent count.

    Returns the (E, N, N) rows, which match centralized softmax rows bit
    for bit, and a new log of the queries and score replies.
    """
    log = MessageLog()
    # Phase 1: query broadcasts, N*(N-1) directed messages per episode.
    broadcast_queries(block, log)
    # Phase 2: the score replies, N*(N-1) more.
    score_inboxes(block, theta, log)
    # Phase 3: each agent's local row softmax over the replies delivered to it.
    received = delivered_scores(log, _peers(len(block), len(block[0])))
    rows = [[agent.assemble_row(scores, theta) for agent, scores in zip(agents, r)] for agents, r in zip(block, received)]
    return np.array(rows), log


def run_transmission(
    block: list[list[AgentState]], rows: np.ndarray, delta: float, log: MessageLog | None = None
) -> tuple[np.ndarray, MessageLog]:
    """Prune, request, transfer, fuse, for every episode of a block.  Diagonal weights use the local feature.

    ``rows`` is (E, N, N).  Appends each request, followed by the transfer
    that answers it, to ``log`` (a new one if None), and returns the
    (E, N, F) fused features, row i of episode e agent i's, and the log.
    """
    log = MessageLog() if log is None else log
    for agents, episode_rows in zip(block, rows):
        for agent, row in zip(agents, episode_rows):
            agent.row = np.asarray(row, dtype=np.float64)
            agent.prune_row(delta)
    inboxes = delivered_features(log, request_features(block, log))
    fused = [[agent.fuse_features(f) for agent, f in zip(agents, inbox)] for agents, inbox in zip(block, inboxes)]
    return np.array(fused), log


def run_block(
    block: list[list[AgentState]],
    theta: PipelineParams,
    delta: float,
    policy: str = "when2com",
    rng: Rng | None = None,
) -> list[EpisodeResult]:
    """A block of episodes of ``policy`` through messages, in lockstep: rows, transmission, decode, ledgers.

    ``block`` is one list of agents per episode, all of one agent count, as
    :func:`make_agents` builds from an (E, N, d_obs) stack.  Every phase runs
    over the whole block before the next: the handshake (only for
    ``HANDSHAKE_POLICIES``), one ``policy_rows`` call over the (E, N, N)
    stack that sets the rows (``randcom`` draws them from ``rng``, episode by
    episode, then agent by agent) and the threshold transmission prunes them
    at, then one ``decode`` call over every agent's own feature and fused
    feature.  Every message goes into the block's one log; each episode's
    trace is its view of it, in send order, and its ledger is counted from
    that view.  The kernels round each agent's row as its lone call would,
    so each result is bit for bit that of the episode run alone.
    """
    n = len(block[0])
    soft_rows, log = run_handshake(block, theta) if policy in HANDSHAKE_POLICIES else (None, None)
    rows, threshold = policy_rows(policy, soft_rows, n, delta, rng, len(block))
    fused, log = run_transmission(block, rows, threshold, log)
    logits = decode(theta, _gather(block, "feature"), fused)
    predictions = np.argmax(logits, axis=-1).tolist()
    pruned_rows = _gather(block, "pruned_row")
    return [
        EpisodeResult(predictions[e], logits[e], rows[e], pruned_rows[e], fused[e], ledger_from_trace(trace, 1), trace)
        for e, trace in enumerate(log.by_episode(len(block)))
    ]


def run_episode(
    agents: list[AgentState],
    theta: PipelineParams,
    delta: float,
    policy: str = "when2com",
    rng: Rng | None = None,
) -> EpisodeResult:
    """One episode of ``policy`` through messages: :func:`run_block` on a block of one."""
    return run_block([agents], theta, delta, policy, rng)[0]


def _trace_record(kind: str, src: int, dst: int, payload_reals: int) -> dict:
    """The dumped fields of a message: its endpoints and sizes under the byte model."""
    values = (kind, src, dst, payload_reals, BYTES_PER_REAL * payload_reals, HEADER_BYTES, kind in COUNTED_KINDS)
    return dict(zip(TRACE_FIELDS, values))


@lru_cache(maxsize=_LINE_CACHE)
def _trace_line(code: int, src: int, dst: int, payload_reals: int) -> str:
    """The dumped line of a message of kind ``ALL_KINDS[code]``: its record's ``json.dumps(..., sort_keys=True)``."""
    return json.dumps(_trace_record(ALL_KINDS[code], src, dst, payload_reals), sort_keys=True) + "\n"


def dump_trace(path: str, messages) -> None:
    """Line-delimited trace for external ledger auditing: one line per message of a log or message sequence.

    Each line is the ``json.dumps(..., sort_keys=True)`` of the message's
    record.  A record depends only on (kind, from, to, payload_reals), so
    each row's line comes from a table keyed by those four columns, which
    encodes each key once and keeps the ``_LINE_CACHE`` latest, and the
    lines are written in joined chunks of ``_DUMP_CHUNK`` rows, never as one
    string.
    """
    columns = _as_log(messages).columns
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, columns.shape[1], _DUMP_CHUNK):
            fh.write("".join(map(_trace_line, *columns[1:5, start : start + _DUMP_CHUNK].tolist())))


def load_trace(path: str) -> list[Message]:
    """Rebuild byte-accounting stubs from a dumped trace (payload sizes only).

    Every record is checked: it must be a JSON object with every field
    :func:`dump_trace` writes, a known kind, non-negative integer ids and
    payload size that the header fields hold (at most :data:`MAX_AGENT_ID`
    and :data:`MAX_PAYLOAD_REALS`), two distinct ids, and payload
    bytes, header bytes and ``counted`` as the byte model gives them.  An
    error names the path and the 1-based line, bytes that are not UTF-8 and
    nesting too deep to parse included.
    """
    messages = []
    # Undecodable bytes pass the read as lone surrogates, so that the line
    # holding them raises, not the read of the chunk around it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                messages.append(_message_from_record(json.loads(line.rstrip("\n"))))
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace {path}, line {lineno}: bad JSON: {exc.msg} at column {exc.colno}") from None
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"trace {path}, line {lineno}: {exc}") from None
            except RecursionError:
                raise ValueError(f"trace {path}, line {lineno}: JSON nests too deeply to load") from None
    return messages


def _message_from_record(rec) -> Message:
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    missing = [name for name in TRACE_FIELDS if name not in rec]
    if missing:
        raise ValueError(f"record lacks field(s) {missing}")
    src, dst, reals = (
        integer(rec[name], name, 0, most)
        for name, most in (("from", MAX_AGENT_ID), ("to", MAX_AGENT_ID), ("payload_reals", MAX_PAYLOAD_REALS))
    )
    # A zero-stride view: the stub's size without allocating its reals.
    msg = Message(rec["kind"], src, dst, np.broadcast_to(0.0, (reals,)) if reals else None)
    for name, expected in _trace_record(msg.kind, msg.src, msg.dst, msg.payload_reals).items():
        if type(rec[name]) is not type(expected) or rec[name] != expected:
            raise ValueError(f"{name} is {rec[name]!r}, but the byte model gives {expected!r}")
    return msg
