"""Decentralized protocol: message flows, equivalence with centralized math, ledger."""

import numpy as np
import pytest

from groupcomm.densemath import Rng
from groupcomm.neuralnet import PipelineConfig, init_pipeline, pipeline_forward
from groupcomm.simnet import (
    BYTES_PER_REAL,
    HEADER_BYTES,
    AgentState,
    BandwidthLedger,
    Message,
    dump_trace,
    ledger_from_trace,
    links_per_agent,
    load_trace,
    make_agents,
    mbpf,
    run_episode,
    run_handshake,
    run_transmission,
)


def small_setup(seed, n_agents=5, d_obs=8, q=4, k=6, f=8, c=3):
    rng = Rng(seed)
    cfg = PipelineConfig(d_obs=d_obs, q_dim=q, k_dim=k, f_dim=f, n_classes=c, hidden=10)
    theta = init_pipeline(cfg, rng)
    obs = [rng.normal(d_obs) for _ in range(n_agents)]
    return cfg, theta, obs


class TestMessages:
    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message("query", 2, 2, np.zeros(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Message("gossip", 0, 1)

    def test_payload_byte_model(self):
        msg = Message("transfer", 0, 1, np.zeros(32))
        assert msg.payload_reals == 32
        assert msg.payload_bytes == 32 * BYTES_PER_REAL


class TestHandshake:
    def test_single_agent_no_messages(self):
        cfg, theta, obs = small_setup(1, n_agents=1)
        agents = make_agents(obs, theta)
        rows, trace = run_handshake(agents, theta)
        assert trace == []
        np.testing.assert_array_equal(rows, [[1.0]])

    def test_counted_query_bytes(self):
        cfg, theta, obs = small_setup(2, n_agents=5, q=4)
        agents = make_agents(obs, theta)
        rows, trace = run_handshake(agents, theta)
        ledger = ledger_from_trace(trace, frames=1)
        # N agents broadcast Q reals to N-1 peers at 4 bytes per real.
        assert ledger.counted_bytes == 5 * 4 * 4 * 4
        # Score replies are control traffic: one real plus headers everywhere.
        n_msgs = 2 * 5 * 4
        assert len(trace) == n_msgs
        assert ledger.control_bytes == n_msgs * HEADER_BYTES + 5 * 4 * 1 * BYTES_PER_REAL

    def test_rows_match_centralized_bitwise(self):
        for seed in (3, 4, 5):
            cfg, theta, obs = small_setup(seed)
            agents = make_agents(obs, theta)
            rows, _ = run_handshake(agents, theta)
            central = pipeline_forward(theta, obs, mode="inference", delta=0.0)
            np.testing.assert_array_equal(rows, central.m)


class TestTransmission:
    def test_diagonal_only_rows_no_transfers(self):
        cfg, theta, obs = small_setup(6, n_agents=3)
        agents = make_agents(obs, theta)
        rows = np.eye(3) * 0.7
        fused, trace = run_transmission(agents, rows, delta=0.0)
        assert trace == []
        for i in range(3):
            np.testing.assert_array_equal(fused[i], 0.7 * agents[i].feature)

    def test_one_link_per_agent_byte_count(self):
        cfg, theta, obs = small_setup(7, n_agents=4, f=32)
        agents = make_agents(obs, theta)
        rows = np.zeros((4, 4))
        for i in range(4):
            rows[i, (i + 1) % 4] = 1.0
        fused, trace = run_transmission(agents, rows, delta=0.0)
        ledger = ledger_from_trace(trace, frames=1)
        assert ledger.inter_agent_links == 4
        assert ledger.counted_bytes == 4 * 32 * 4

    def test_fused_matches_centralized_bitwise(self):
        cfg, theta, obs = small_setup(8)
        delta = 1.0 / 5.0
        agents = make_agents(obs, theta)
        rows, _ = run_handshake(agents, theta)
        fused, _ = run_transmission(agents, rows, delta)
        central = pipeline_forward(theta, obs, mode="inference", delta=delta)
        for i in range(5):
            np.testing.assert_array_equal(fused[i], central.cache.fused[i])


class TestRunEpisode:
    def test_delta_one_maximal_pruning(self):
        cfg, theta, obs = small_setup(9, n_agents=4)
        agents = make_agents(obs, theta)
        result = run_episode(agents, theta, delta=1.0)
        assert result.ledger.inter_agent_links == 0
        # With N >= 2 every softmax entry is < 1, so all rows prune to zero
        # and each agent decodes from a zero fused vector.
        np.testing.assert_array_equal(result.pruned_rows, np.zeros((4, 4)))
        for i in range(4):
            np.testing.assert_array_equal(result.fused[i], np.zeros(cfg.f_dim))

    def test_predictions_match_centralized_bitwise(self):
        for seed in (10, 11):
            cfg, theta, obs = small_setup(seed)
            delta = 1.0 / 5.0
            agents = make_agents(obs, theta)
            result = run_episode(agents, theta, delta)
            central = pipeline_forward(theta, obs, mode="inference", delta=delta)
            for i in range(5):
                np.testing.assert_array_equal(result.logits[i], central.logits[i])
            assert result.predictions == [int(np.argmax(z)) for z in central.logits]

    def test_ledger_recomputable_from_trace(self):
        cfg, theta, obs = small_setup(12)
        agents = make_agents(obs, theta)
        result = run_episode(agents, theta, delta=1.0 / 5.0)
        recomputed = ledger_from_trace(result.trace, frames=result.ledger.frames)
        assert recomputed == result.ledger

    def test_links_bounded_by_n_minus_one(self):
        rng = Rng(13)
        for _ in range(20):
            cfg, theta, obs = small_setup(int(rng.randint(10000)))
            agents = make_agents(obs, theta)
            result = run_episode(agents, theta, delta=0.05)
            assert links_per_agent(result.ledger, 5) <= 4.0


class TestInformationFlow:
    def test_agent_output_depends_only_on_messages(self):
        # Replay the exact inbox of agent 0 into a fresh copy whose peers'
        # private state has been corrupted: every output must be identical.
        cfg, theta, obs = small_setup(14)
        agents = make_agents(obs, theta)
        result = run_episode(agents, theta, delta=1.0 / 5.0)
        inbox = [m for m in result.trace if m.dst == 0]

        fresh = AgentState(0, obs[0])
        fresh.compute_local(theta)
        for msg in inbox:
            if msg.kind == "query":
                fresh.receive_query(msg)
            elif msg.kind == "score":
                fresh.receive_score(msg)
            elif msg.kind == "transfer":
                fresh.receive_feature(msg)
        fresh.assemble_row(5, theta)
        fresh.feature_requests(1.0 / 5.0)
        fresh.fuse_features(5)
        fresh.decode(theta)

        np.testing.assert_array_equal(fresh.row, agents[0].row)
        np.testing.assert_array_equal(fresh.fused, agents[0].fused)
        np.testing.assert_array_equal(fresh.logits, agents[0].logits)
        assert fresh.prediction == result.predictions[0]

    def test_self_transfer_short_circuited(self):
        cfg, theta, obs = small_setup(15, n_agents=2)
        agents = make_agents(obs, theta)
        with pytest.raises(RuntimeError):
            agents[0].feature_transfer(0)


class TestBandwidthMetrics:
    def test_hand_arithmetic_example(self):
        # Q=4, F=32, N=5, one frame, two feature transfers:
        # counted = 5*4*4*4 + 2*32*4 = 576 bytes.
        ledger = BandwidthLedger(frames=1)
        for msg in (
            [Message("query", i, j, np.zeros(4)) for i in range(5) for j in range(5) if i != j]
            + [Message("transfer", 1, 0, np.zeros(32)), Message("transfer", 2, 4, np.zeros(32))]
        ):
            ledger.record(msg)
        assert ledger.counted_bytes == 576
        assert mbpf(ledger) == pytest.approx(5.76e-4)
        assert links_per_agent(ledger, 5) == pytest.approx(0.4)

    def test_empty_case(self):
        ledger = BandwidthLedger(frames=1)
        assert mbpf(ledger) == 0.0

    def test_zero_frames_error(self):
        with pytest.raises(ValueError):
            mbpf(BandwidthLedger())
        with pytest.raises(ValueError):
            links_per_agent(BandwidthLedger(), 5)

    def test_feature_map_scale_sanity(self):
        # One 512x16x16 feature map at 4 bytes per value is 0.524 MB,
        # matching the ~0.5 MB-per-link scale of single-link baselines.
        per_link_mb = 512 * 16 * 16 * 4 / 1e6
        assert per_link_mb == pytest.approx(0.524288)
        assert abs(per_link_mb - 0.5) < 0.05


class TestTraceDump:
    def test_dump_and_reload_preserves_ledger(self, tmp_path):
        cfg, theta, obs = small_setup(16)
        agents = make_agents(obs, theta)
        result = run_episode(agents, theta, delta=1.0 / 5.0)
        path = str(tmp_path / "trace.jsonl")
        dump_trace(path, result.trace)
        reloaded = load_trace(path)
        assert len(reloaded) == len(result.trace)
        assert ledger_from_trace(reloaded, frames=1) == result.ledger
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == len(result.trace)
