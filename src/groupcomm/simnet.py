"""Decentralized execution of the handshake protocol as explicit message passing.

Agents are state machines that exchange four message kinds over a synchronous
round-based queue:

1. ``query``    each agent broadcasts its Q-real query to every peer;
2. ``score``    each recipient scores every query in its inbox against its
                own retained key and replies to each requester with a single
                real (keys never leave their owner);
3. ``request``/``transfer``  after row-softmaxing its assembled scores and
                pruning at delta, a requester asks each surviving off-diagonal
                supporter for its F-real feature and fuses what arrives.

Every message goes through :func:`send`, the one delivery path: it appends
the message to the trace and hands it to ``AgentState.receive``, which files
its payload in the addressee's one ``inbox`` by kind and sender.  An agent
never reads another agent's fields, only its inbox.

:func:`run_block` runs a block of episodes of one agent count in lockstep,
one phase at a time over the whole block, and a phase's bookkeeping runs
once per block, not once per agent or episode: :func:`make_agents` runs
each head once over the (E, N, d_obs) stack, :func:`score_inboxes` scores
every query inbox of the block in one call, one ``policy_rows`` call sets
every episode's rows, and one decode call runs every agent.  Each agent's
decisions about its own row run per agent, from its inbox alone: its self
score, softmax, prune and fusion.  Episodes share no messages; each keeps
its own trace and ledger.  All of it runs on row-invariant kernels, so every
agent holds, scores and decodes bit for bit what its own lone pass gives it,
whatever the block around it.  :func:`run_episode`, one episode of any
policy (``neuralnet.POLICIES``), is the block runner on a block of one.
That is why a block agrees bit for bit with its episodes run one by one and
with centralized inference (``neuralnet.pipeline_forward(mode="inference")``),
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
blocks may run concurrently with independent ledgers.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .commgraph import attention_score, attention_scores, fuse, link_mask, prune
from .densemath import Rng, softmax_row
from .neuralnet import HANDSHAKE_POLICIES, PipelineParams, decode, mlp_infer, policy_rows

HEADER_BYTES = 9  # kind: 1, from: 2, to: 2, payload length: 4
BYTES_PER_REAL = 4  # transmitted payloads are modeled as 32-bit reals

KIND_QUERY = "query"
KIND_SCORE = "score"
KIND_REQUEST = "request"
KIND_TRANSFER = "transfer"
COUNTED_KINDS = (KIND_QUERY, KIND_TRANSFER)
ALL_KINDS = (KIND_QUERY, KIND_SCORE, KIND_REQUEST, KIND_TRANSFER)
TRACE_FIELDS = ("kind", "from", "to", "payload_reals", "payload_bytes", "header_bytes", "counted")
_TRACE_KEY = operator.attrgetter("kind", "src", "dst", "payload_reals")  # all a dumped record depends on
_DUMP_CHUNK = 4096  # trace lines per write
# The largest payload a loaded stub can stand for: numpy refuses a float64
# array, even a zero-stride one, whose byte size exceeds the intp range.
_MAX_STUB_REALS = np.iinfo(np.intp).max // 8


@dataclass(slots=True)
class Message:
    """One directed message; its payload size is fixed when it is built."""

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


def ledger_from_trace(messages: list[Message], frames: int) -> BandwidthLedger:
    """Recompute a ledger purely from a message trace."""
    ledger = BandwidthLedger(frames=frames)
    for msg in messages:
        ledger.record(msg)
    return ledger


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


class AgentState:
    """One agent's private state; cross-agent data arrives only through :meth:`receive`."""

    def __init__(self, agent_id: int, observation: np.ndarray):
        self.agent_id = agent_id
        self.observation = np.asarray(observation, dtype=np.float64)
        # Head outputs (set by make_agents), then the rows and fusion this agent computes.
        self.mu = self.kappa = self.feature = None
        self.row = self.pruned_row = self.fused = None
        # Every payload received, by message kind and then by sender.
        self.inbox: dict[str, dict[int, np.ndarray | None]] = {kind: {} for kind in ALL_KINDS}

    def receive(self, msg: Message) -> None:
        self.inbox[msg.kind][msg.src] = msg.payload

    def query_broadcast(self, peers: list[int]) -> list[Message]:
        return [Message(KIND_QUERY, self.agent_id, j, self.mu) for j in peers]

    def assemble_row(self, n_agents: int, theta: PipelineParams) -> np.ndarray:
        """Softmax over the assembled score vector (self score computed locally).

        Raises ``RuntimeError`` naming every peer whose score reply is missing.
        """
        scores = self.inbox[KIND_SCORE]
        missing = [j for j in range(n_agents) if j != self.agent_id and j not in scores]
        if missing:
            raise RuntimeError(f"agent {self.agent_id} missing score replies from {missing}")
        own = attention_score(self.mu, self.kappa, theta.w_g)
        self.row = softmax_row(np.array([own if j == self.agent_id else scores[j][0] for j in range(n_agents)]))
        return self.row

    def feature_requests(self, delta: float) -> list[Message]:
        """Prune the row and request features from surviving off-diagonal peers."""
        self.pruned_row = prune(self.row, delta)
        return [
            Message(KIND_REQUEST, self.agent_id, j)
            for j, w in enumerate(self.pruned_row.tolist())
            if j != self.agent_id and w != 0.0
        ]

    def feature_transfer(self, requester: int) -> Message:
        if requester == self.agent_id:
            raise RuntimeError("feature request to self must be short-circuited")
        return Message(KIND_TRANSFER, self.agent_id, requester, self.feature)

    def fuse_features(self, n_agents: int) -> np.ndarray:
        """Weighted fusion over the local feature plus the transfers in the inbox.

        Peers without a transfer hold None, an error only under a surviving weight.
        """
        features = [self.inbox[KIND_TRANSFER].get(j) for j in range(n_agents)]
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
    trace: list[Message] = field(default_factory=list)


def make_agents(observations, theta: PipelineParams) -> list[AgentState] | list[list[AgentState]]:
    """One agent per row of an episode's (N, d_obs) observations, holding its query, key and feature.

    An (E, N, d_obs) stack gives a block: one such list of agents per
    episode.  Each head runs once over all the observations, on the
    row-invariant kernel, so every agent holds exactly what its own
    observation alone gives it, whatever the stack around it.
    """
    obs = np.asarray(observations, dtype=np.float64)
    stack = obs if obs.ndim == 3 else obs[None]
    block = [[AgentState(i, row) for i, row in enumerate(episode)] for episode in stack]
    if any(block):
        heads = [mlp_infer(head, stack) for head in (theta.theta_q, theta.theta_k, theta.theta_e)]
        for agents, *outputs in zip(block, *heads):
            for agent, mu, kappa, feature in zip(agents, *outputs):
                agent.mu, agent.kappa, agent.feature = mu, kappa, feature
    return block if obs.ndim == 3 else block[0]


def send(msg: Message, agents: list[AgentState], trace: list[Message]) -> None:
    """The one delivery path: append ``msg`` to the trace and deliver it to its addressee."""
    trace.append(msg)
    agents[msg.dst].receive(msg)


def score_inboxes(block: list[list[AgentState]], theta: PipelineParams, traces: list[list[Message]]) -> None:
    """The score phase: one call scores every query inbox of the block, in sender order, against its owner's key.

    In each episode the replies, one real each, go out requester by
    requester, the repliers in agent order, onto that episode's trace.
    """
    n = len(block[0]) if block else 0
    if n < 2:
        return
    inboxes = [
        [[agent.inbox[KIND_QUERY][j] for j in range(n) if j != agent.agent_id] for agent in agents] for agents in block
    ]
    keys = [[agent.kappa for agent in agents] for agents in block]
    scores = attention_scores(np.array(inboxes), np.array(keys), theta.w_g)  # (E, N, N - 1)
    for agents, trace, episode_scores in zip(block, traces, scores):
        for r in range(n):
            for j in range(n):
                if j != r:
                    k = r - (r > j)  # requester r's place in replier j's inbox
                    send(Message(KIND_SCORE, j, r, episode_scores[j, k : k + 1]), agents, trace)


def run_handshake(block: list[list[AgentState]], theta: PipelineParams) -> tuple[np.ndarray, list[list[Message]]]:
    """Three-phase handshake over a block of episodes of one agent count.

    Returns the (E, N, N) rows, which match centralized softmax rows bit for
    bit, and each episode's messages.
    """
    traces: list[list[Message]] = [[] for _ in block]
    # Phase 1: query broadcasts, N*(N-1) directed messages per episode.
    for agents, trace in zip(block, traces):
        n = len(agents)
        for agent in agents:
            for msg in agent.query_broadcast([j for j in range(n) if j != agent.agent_id]):
                send(msg, agents, trace)
    # Phase 2: the score replies, N*(N-1) more.
    score_inboxes(block, theta, traces)
    # Phase 3: each agent's local row softmax.
    rows = np.array([[agent.assemble_row(len(agents), theta) for agent in agents] for agents in block])
    return rows, traces


def run_transmission(
    block: list[list[AgentState]], rows: np.ndarray, delta: float
) -> tuple[np.ndarray, list[list[Message]]]:
    """Prune, request, transfer, fuse, for every episode of a block.  Diagonal weights use the local feature.

    ``rows`` is (E, N, N).  Returns the (E, N, F) fused features, row i of
    episode e agent i's, and each episode's messages: each request followed
    by the transfer that answers it.
    """
    traces: list[list[Message]] = [[] for _ in block]
    for agents, episode_rows, trace in zip(block, rows, traces):
        for agent, row in zip(agents, episode_rows):
            agent.row = np.asarray(row, dtype=np.float64)
            for req in agent.feature_requests(delta):
                send(req, agents, trace)
                send(agents[req.dst].feature_transfer(req.src), agents, trace)
    fused = np.array([[agent.fuse_features(len(agents)) for agent in agents] for agents in block])
    return fused, traces


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
    feature.  Episodes share no messages: each keeps its own trace and
    ledger, and the kernels round each agent's row as its lone call would,
    so each result is bit for bit that of the episode run alone.
    """
    n = len(block[0])
    if policy in HANDSHAKE_POLICIES:
        soft_rows, traces = run_handshake(block, theta)
    else:
        soft_rows, traces = None, [[] for _ in block]
    rows, threshold = policy_rows(policy, soft_rows, n, delta, rng, len(block))
    fused, transfers = run_transmission(block, rows, threshold)
    logits = decode(theta, np.array([[agent.feature for agent in agents] for agents in block]), fused)
    predictions = np.argmax(logits, axis=-1).tolist()
    pruned_rows = np.array([[agent.pruned_row for agent in agents] for agents in block])
    results = []
    for e, (trace, more) in enumerate(zip(traces, transfers)):
        trace += more
        ledger = ledger_from_trace(trace, frames=1)
        results.append(EpisodeResult(predictions[e], logits[e], rows[e], pruned_rows[e], fused[e], ledger, trace))
    return results


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


class _TraceLines(dict):
    """Dumped lines by message key, each encoded the first time its key is looked up."""

    def __missing__(self, key: tuple) -> str:
        line = self[key] = json.dumps(_trace_record(*key), sort_keys=True) + "\n"
        return line


def dump_trace(path: str, messages: list[Message]) -> None:
    """Line-delimited trace for external ledger auditing: one message per line.

    Each line is the ``json.dumps(..., sort_keys=True)`` of the message's
    record.  A record depends only on (kind, from, to, payload_reals), so
    each message is keyed once, each distinct key's line is encoded once,
    and the lines are written in joined chunks of ``_DUMP_CHUNK``, never as
    one string.
    """
    lines = map(_TraceLines().__getitem__, map(_TRACE_KEY, messages))
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := "".join(islice(lines, _DUMP_CHUNK)):
            fh.write(chunk)


def load_trace(path: str) -> list[Message]:
    """Rebuild byte-accounting stubs from a dumped trace (payload sizes only).

    Every record is checked: it must be a JSON object with every field
    :func:`dump_trace` writes, a known kind, non-negative integer ids and
    payload size, two distinct ids, and payload bytes, header bytes and
    ``counted`` as the byte model gives them.  An error names the path and
    the 1-based line, bytes that are not UTF-8 and nesting too deep to parse
    included.
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
    for name in ("from", "to", "payload_reals"):
        value = rec[name]
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    reals = rec["payload_reals"]
    if reals > _MAX_STUB_REALS:
        raise ValueError(f"payload_reals must be at most {_MAX_STUB_REALS}, got {reals}")
    # A zero-stride view: the stub's size without allocating its reals.
    msg = Message(rec["kind"], rec["from"], rec["to"], np.broadcast_to(0.0, (reals,)) if reals else None)
    for name, expected in _trace_record(*_TRACE_KEY(msg)).items():
        if type(rec[name]) is not type(expected) or rec[name] != expected:
            raise ValueError(f"{name} is {rec[name]!r}, but the byte model gives {expected!r}")
    return msg
