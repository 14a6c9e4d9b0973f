"""Decentralized execution of the handshake protocol as explicit message passing.

Agents are state machines that exchange four message kinds over a synchronous
round-based queue:

1. ``query``    each agent broadcasts its Q-real query to every peer;
2. ``score``    each recipient scores the incoming query against its own
                retained key and replies with a single real (keys never leave
                their owner, preserving the small-query/large-key asymmetry);
3. ``request``/``transfer``  after row-softmaxing its assembled scores and
                pruning at delta, a requester asks each surviving off-diagonal
                supporter for its F-real feature and fuses what arrives.

The ledger counts query broadcasts and feature transfers as payload at
4 bytes per real; score replies, feature requests, and all 9-byte headers
(kind 1, from 2, to 2, payload length 4) are control traffic.  Values travel
as 64-bit floats in memory, so distributed results are bit-identical to
centralized inference; the 4-byte accounting models the on-wire float size.

An agent never reads another agent's fields: all cross-agent data arrives via
Message objects.  The simulator is deterministic and single-threaded per
episode; episodes may run concurrently with independent ledgers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .commgraph import attention_score, fuse, prune
from .densemath import softmax_row
from .neuralnet import PipelineParams, decode_agent, mlp_forward

HEADER_BYTES = 9  # kind: 1, from: 2, to: 2, payload length: 4
BYTES_PER_REAL = 4  # transmitted payloads are modeled as 32-bit reals

KIND_QUERY = "query"
KIND_SCORE = "score"
KIND_REQUEST = "request"
KIND_TRANSFER = "transfer"
COUNTED_KINDS = (KIND_QUERY, KIND_TRANSFER)
ALL_KINDS = (KIND_QUERY, KIND_SCORE, KIND_REQUEST, KIND_TRANSFER)


@dataclass
class Message:
    kind: str
    src: int
    dst: int
    payload: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError(f"inter-agent message to self: agent {self.src}")

    @property
    def payload_reals(self) -> int:
        return 0 if self.payload is None else int(np.asarray(self.payload).size)

    @property
    def payload_bytes(self) -> int:
        return BYTES_PER_REAL * self.payload_reals


@dataclass
class BandwidthLedger:
    """Byte counters split into counted payload and uncounted control traffic."""

    counted_bytes: int = 0
    control_bytes: int = 0
    inter_agent_links: int = 0
    frames: int = 0

    def record(self, msg: Message) -> None:
        if msg.kind in COUNTED_KINDS:
            self.counted_bytes += msg.payload_bytes
            self.control_bytes += HEADER_BYTES
        else:
            self.control_bytes += HEADER_BYTES + msg.payload_bytes
        if msg.kind == KIND_TRANSFER:
            self.inter_agent_links += 1

    def merge(self, other: "BandwidthLedger") -> None:
        self.counted_bytes += other.counted_bytes
        self.control_bytes += other.control_bytes
        self.inter_agent_links += other.inter_agent_links
        self.frames += other.frames


def ledger_from_trace(messages: list[Message], frames: int) -> BandwidthLedger:
    """Recompute a ledger purely from a message trace."""
    ledger = BandwidthLedger(frames=frames)
    for msg in messages:
        ledger.record(msg)
    return ledger


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


class AgentState:
    """One agent's private state; cross-agent data arrives only as messages."""

    def __init__(self, agent_id: int, observation: np.ndarray):
        self.agent_id = agent_id
        self.observation = np.asarray(observation, dtype=np.float64)
        self.mu: np.ndarray | None = None
        self.kappa: np.ndarray | None = None
        self.feature: np.ndarray | None = None
        self.received_queries: dict[int, np.ndarray] = {}
        self.received_scores: dict[int, float] = {}
        self.received_features: dict[int, np.ndarray] = {}
        self.row: np.ndarray | None = None
        self.pruned_row: np.ndarray | None = None
        self.fused: np.ndarray | None = None
        self.logits: np.ndarray | None = None
        self.prediction: int | None = None

    def compute_local(self, theta: PipelineParams) -> None:
        self.mu, _ = mlp_forward(theta.theta_q, self.observation)
        self.kappa, _ = mlp_forward(theta.theta_k, self.observation)
        self.feature, _ = mlp_forward(theta.theta_e, self.observation)

    def query_broadcast(self, peers: list[int]) -> list[Message]:
        return [Message(KIND_QUERY, self.agent_id, j, self.mu) for j in peers]

    def receive_query(self, msg: Message) -> None:
        self.received_queries[msg.src] = np.asarray(msg.payload, dtype=np.float64)

    def score_reply(self, requester: int, theta: PipelineParams) -> Message:
        """Score the requester's query against this agent's own key."""
        query = self.received_queries[requester]
        score = attention_score(query, self.kappa, theta.w_g)
        return Message(KIND_SCORE, self.agent_id, requester, np.array([score]))

    def receive_score(self, msg: Message) -> None:
        self.received_scores[msg.src] = float(np.asarray(msg.payload)[0])

    def assemble_row(self, n_agents: int, theta: PipelineParams) -> np.ndarray:
        """Softmax over the assembled score vector (self score computed locally)."""
        raw = np.empty(n_agents, dtype=np.float64)
        for j in range(n_agents):
            if j == self.agent_id:
                raw[j] = attention_score(self.mu, self.kappa, theta.w_g)
            else:
                raw[j] = self.received_scores[j]
        self.row = softmax_row(raw)
        return self.row

    def feature_requests(self, delta: float) -> list[Message]:
        """Prune the row and request features from surviving off-diagonal peers."""
        self.pruned_row = prune(self.row, delta)
        requests = []
        for j, w in enumerate(self.pruned_row):
            if j == self.agent_id or w == 0.0:
                continue
            requests.append(Message(KIND_REQUEST, self.agent_id, j))
        return requests

    def feature_transfer(self, requester: int) -> Message:
        if requester == self.agent_id:
            raise RuntimeError("feature request to self must be short-circuited")
        return Message(KIND_TRANSFER, self.agent_id, requester, self.feature)

    def receive_feature(self, msg: Message) -> None:
        self.received_features[msg.src] = np.asarray(msg.payload, dtype=np.float64)

    def fuse_features(self, n_agents: int) -> np.ndarray:
        """Weighted fusion over local plus message-borne features.

        Entries without a received feature hold None; fuse() never touches
        zero-weight slots, so absence is only an error if a surviving weight
        has no corresponding transfer.
        """
        features: list[np.ndarray | None] = [None] * n_agents
        features[self.agent_id] = self.feature
        for j, f in self.received_features.items():
            features[j] = f
        self.fused = fuse(self.pruned_row, features)
        return self.fused

    def decode(self, theta: PipelineParams) -> int:
        self.logits, _ = decode_agent(theta, self.feature, self.fused)
        self.prediction = int(np.argmax(self.logits))
        return self.prediction


@dataclass
class EpisodeResult:
    predictions: list[int]
    logits: list[np.ndarray]
    rows: np.ndarray
    pruned_rows: np.ndarray
    fused: list[np.ndarray]
    ledger: BandwidthLedger
    trace: list[Message] = field(default_factory=list)


def make_agents(observations, theta: PipelineParams) -> list[AgentState]:
    agents = [AgentState(i, obs) for i, obs in enumerate(observations)]
    for agent in agents:
        agent.compute_local(theta)
    return agents


def run_handshake(
    agents: list[AgentState], theta: PipelineParams
) -> tuple[np.ndarray, list[Message]]:
    """Three-phase handshake; the resulting rows match centralized softmax rows bit-for-bit."""
    n = len(agents)
    trace: list[Message] = []
    for agent in agents:
        if agent.mu is None:
            agent.compute_local(theta)
    # Phase 1: query broadcasts, N*(N-1) directed messages.
    for agent in agents:
        peers = [j for j in range(n) if j != agent.agent_id]
        for msg in agent.query_broadcast(peers):
            trace.append(msg)
            agents[msg.dst].receive_query(msg)
    # Phase 2: each recipient scores locally and replies with one real.
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            msg = agents[j].score_reply(i, theta)
            trace.append(msg)
            agents[msg.dst].receive_score(msg)
    # Phase 3: local row softmax.
    for i in range(n):
        if n > 1 and len(agents[i].received_scores) != n - 1:
            missing = [j for j in range(n) if j != i and j not in agents[i].received_scores]
            raise RuntimeError(f"agent {i} missing score replies from {missing}")
        agents[i].assemble_row(n, theta)
    rows = np.stack([agent.row for agent in agents])
    return rows, trace


def run_transmission(
    agents: list[AgentState], rows: np.ndarray, delta: float
) -> tuple[list[np.ndarray], list[Message]]:
    """Prune, request, transfer, fuse.  Diagonal weights use the local feature."""
    n = len(agents)
    trace: list[Message] = []
    for i in range(n):
        agents[i].row = np.asarray(rows[i], dtype=np.float64)
        for req in agents[i].feature_requests(delta):
            trace.append(req)
            transfer = agents[req.dst].feature_transfer(req.src)
            trace.append(transfer)
            agents[i].receive_feature(transfer)
    fused = [agents[i].fuse_features(n) for i in range(n)]
    return fused, trace


def run_episode(
    agents: list[AgentState], theta: PipelineParams, delta: float
) -> EpisodeResult:
    """Handshake + transmission + local decode, with a populated ledger."""
    rows, trace1 = run_handshake(agents, theta)
    fused, trace2 = run_transmission(agents, rows, delta)
    predictions = [agent.decode(theta) for agent in agents]
    trace = trace1 + trace2
    ledger = ledger_from_trace(trace, frames=1)
    return EpisodeResult(
        predictions=predictions,
        logits=[agent.logits for agent in agents],
        rows=rows,
        pruned_rows=np.stack([agent.pruned_row for agent in agents]),
        fused=fused,
        ledger=ledger,
        trace=trace,
    )


def dump_trace(path: str, messages: list[Message]) -> None:
    """Line-delimited trace for external ledger auditing: one message per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for msg in messages:
            fh.write(
                json.dumps(
                    {
                        "kind": msg.kind,
                        "from": msg.src,
                        "to": msg.dst,
                        "payload_reals": msg.payload_reals,
                        "payload_bytes": msg.payload_bytes,
                        "header_bytes": HEADER_BYTES,
                        "counted": msg.kind in COUNTED_KINDS,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_trace(path: str) -> list[Message]:
    """Rebuild byte-accounting stubs from a dumped trace (payload sizes only)."""
    messages = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            payload = np.zeros(rec["payload_reals"]) if rec["payload_reals"] else None
            messages.append(Message(rec["kind"], rec["from"], rec["to"], payload))
    return messages
