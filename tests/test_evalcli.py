"""Selection metrics, policy execution, reports, and the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from groupcomm.densemath import Rng
from groupcomm.evalcli import (
    CSV_COLUMNS,
    POLICIES,
    TRAIN_POLICIES,
    build_parser,
    check_output_paths,
    cli_main,
    decisions_from_rows,
    evaluate,
    grouping_accuracy,
    run_policy_episode,
    run_report,
    save_report,
    train_run,
    when2com_accuracy,
    world_for_run,
)
from groupcomm import evalcli, neuralnet, simnet
from groupcomm.neuralnet import (
    EVAL_BLOCK,
    HANDSHAKE_POLICIES,
    PipelineConfig,
    TrainConfig,
    evaluate_task_accuracy,
    init_pipeline,
    pipeline_forward,
    save_checkpoint,
)
from groupcomm.scenarios import (
    CASES,
    Dataset,
    generate_dataset,
    generate_episodes,
    load_dataset,
    make_world,
    save_dataset,
)

from helpers import (
    drawn_episodes,
    drop_entry,
    edit_dataset_file,
    episode_set,
    log_entry,
    readdress_entry,
    repeat_entry,
)


def tiny_theta(seed=0):
    cfg = PipelineConfig(d_obs=32, q_dim=4, k_dim=16, f_dim=32, n_classes=10, hidden=64)
    return init_pipeline(cfg, Rng(seed))


def needy_set(needs, supports):
    """An ``episode_set`` of one episode per row of ``needs``, with zero observations and labels.

    ``supports[e][i]`` lists agent i's supporters in episode e.
    """
    e, n = np.shape(needs)
    support = np.zeros((e, n, n), dtype=bool)
    for k, agents in enumerate(supports):
        for i, members in enumerate(agents):
            support[k, i, list(members)] = True
    return episode_set(np.zeros((e, n, 4)), np.zeros((e, n)), needs, support)


class TestWhen2comAccuracy:
    def test_all_negative_case(self):
        eps = needy_set([[False, False]], [[(), ()]])
        assert when2com_accuracy(eps, [[False, False]]) == 1.0

    def test_complement_decisions(self):
        eps = needy_set([[True, False]], [[{1}, ()]])
        assert when2com_accuracy(eps, [[False, True]]) == 0.0

    def test_coin_flip_statistics(self):
        world = make_world("srms", degrade_prob=0.5, rng=Rng(1))
        episodes = drawn_episodes(world, Rng(2), 2000)
        coin = Rng(3)
        decisions = [
            [coin.uniform_scalar() < 0.5 for _ in range(world.n_agents)] for _ in episodes
        ]
        acc = when2com_accuracy(episodes, decisions)
        assert abs(acc - 0.5) < 0.02

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            when2com_accuracy(needy_set([[True]], [[{0}]]), [])

    def test_decisions_of_another_agent_count_rejected(self):
        eps = needy_set([[True, False]] * 2, [[{1}, ()]] * 2)
        message = "decisions of shape (2, 3), but 2 episodes of N = 2 agents need (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            when2com_accuracy(eps, [[False, True, True]] * 2)

    def test_decision_lists_of_several_lengths_rejected(self):
        eps = needy_set([[True, False, False]] * 3, [[{1}, (), ()]] * 3)
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            when2com_accuracy(eps, [[False] * 3, [False] * 2, [False] * 3])

    def test_empty_episode_set_rejected(self):
        # It used to score no decisions as 0.0, a plausible but wrong number.
        with pytest.raises(ValueError, match="when2com_accuracy: episodes is empty"):
            when2com_accuracy(needy_set(np.zeros((0, 2), bool), []), np.zeros((0, 2), bool))


class TestGroupingAccuracy:
    def test_perfect_selection(self):
        eps = needy_set([[True, False, False]], [[{1}, (), ()]])
        rows = [np.array([[0.0, 0.9, 0.0], [0, 1, 0], [0, 0, 1]])]
        top, full = grouping_accuracy(eps, rows)
        assert top == 1.0 and full == 1.0

    def test_empty_denominator_reported_absent(self):
        eps = needy_set([[False, False]], [[(), ()]])
        rows = [np.eye(2)]
        assert grouping_accuracy(eps, rows) == (None, None)
        # Needy agents without links also stay out of the denominator.
        eps = needy_set([[True, False]], [[{1}, ()]])
        assert grouping_accuracy(eps, [np.eye(2)]) == (None, None)

    def test_random_selection_hits_one_in_four(self):
        world = make_world("srms", degrade_prob=1.0, rng=Rng(4))
        episodes = drawn_episodes(world, Rng(5), 10000)
        pick = Rng(6)
        rows = []
        n = world.n_agents
        for ep in episodes:
            row = np.zeros((n, n))
            for i in range(n):
                if ep.needs_comm[i]:
                    j = pick.randint(n - 1)
                    row[i, j if j < i else j + 1] = 1.0
            rows.append(row)
        top, _ = grouping_accuracy(episodes, rows)
        assert abs(top - 0.25) < 0.02

    def test_length_mismatch(self):
        # 10 episodes against 3 row sets used to score only the first 3.
        eps = needy_set([[True, False]] * 10, [[{1}, ()]] * 10)
        with pytest.raises(ValueError, match=re.escape("rows of shape (3, 2, 2), but 10 episodes of N = 2 agents")):
            grouping_accuracy(eps, [np.ones((2, 2))] * 3)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5)])
    def test_rows_that_are_not_n_by_n_rejected(self, shape):
        # For 3-agent episodes, (2, 2) rows used to raise a bare IndexError
        # and (3, 5) rows were silently cut to (3, 3), scoring (1.0, 0.0).
        eps = needy_set([[True, False, False]] * 2, [[{1}, (), ()]] * 2)
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            grouping_accuracy(eps, [np.eye(3), np.ones(shape)])
        message = f"rows of shape {(2,) + shape}, but 2 episodes of N = 3 agents need (2, 3, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            grouping_accuracy(eps, np.ones((2,) + shape))

    def test_set_rate_stricter_than_top1(self):
        eps = needy_set([[True, False, False]], [[{1}, (), ()]])
        # Top link is correct but a second link leaves the support set.
        rows = [np.array([[0.0, 0.6, 0.3], [0, 1, 0], [0, 0, 1]])]
        top, full = grouping_accuracy(eps, rows)
        assert top == 1.0 and full == 0.0


def when2com_accuracy_oracle(episodes, decisions):
    """The per-agent loop when2com_accuracy was defined by."""
    hits = total = 0
    for ep, dec in zip(episodes, decisions):
        for d, need in zip(dec, ep.needs_comm):
            hits += int(bool(d) == bool(need))
            total += 1
    return hits / total


def grouping_accuracy_oracle(episodes, rows_per_episode):
    """The per-agent loop grouping_accuracy was defined by."""
    top_hits = set_hits = total = 0
    for ep, rows in zip(episodes, rows_per_episode):
        n = len(ep.needs_comm)
        for i in range(n):
            if not ep.needs_comm[i]:
                continue
            off = [(rows[i, j], j) for j in range(n) if j != i and rows[i, j] != 0.0]
            if not off:
                continue
            total += 1
            top_j = max(off, key=lambda t: (t[0], -t[1]))[1]
            top_hits += int(top_j in ep.gt_support[i])
            set_hits += int(all(j in ep.gt_support[i] for _, j in off))
    if total == 0:
        return None, None
    return top_hits / total, set_hits / total


class TestMetricsEqualPerAgentLoops:
    CFG = PipelineConfig(d_obs=32, q_dim=3, k_dim=4, f_dim=5, n_classes=10, hidden=8)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        policy=st.sampled_from(POLICIES),
        delta=st.one_of(st.sampled_from([0.0, "1/N", 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        n_episodes=st.integers(1, 12),
        grid=st.sampled_from([0, 1, 2, 3]),
        unsupported=st.booleans(),
    )
    @example(case="srms", policy="catall", delta=0.0, seed=1, n_episodes=4, grid=0, unsupported=False)
    @example(case="mrmps", policy="when2com", delta="1/N", seed=2, n_episodes=12, grid=2, unsupported=True)
    def test_vectorized_metrics_equal_per_agent_loops(self, case, policy, delta, seed, n_episodes, grid, unsupported):
        # The batched pass's rows under every policy, case and threshold.
        # ``grid`` rounds the rows onto a grid of that many steps, so equal
        # top weights are common (catall ties every weight by itself);
        # ``unsupported`` empties the support of every other needy agent.
        world = world_for_run(case, None, seed)
        delta = 1.0 / world.n_agents if delta == "1/N" else delta
        episodes = generate_episodes(world, n_episodes, seed)
        if unsupported:
            support = episodes.support.copy()
            for e, ep in enumerate(episodes):
                needy = [i for i, need in enumerate(ep.needs_comm) if need]
                support[e, needy[1::2]] = False
            episodes = replace(episodes, support=support)
        theta = init_pipeline(self.CFG, Rng(seed))
        stack = episodes.observations
        m_bar = pipeline_forward(theta, stack, mode="inference", delta=delta, policy=policy, rng=Rng(seed)).m_bar
        if grid:
            m_bar = np.round(m_bar * grid) / grid
        decisions = decisions_from_rows(m_bar)
        assert when2com_accuracy(episodes, decisions) == when2com_accuracy_oracle(episodes, decisions)
        assert when2com_accuracy(episodes, decisions.tolist()) == when2com_accuracy_oracle(episodes, decisions)
        expected = grouping_accuracy_oracle(episodes, m_bar)
        assert grouping_accuracy(episodes, m_bar) == expected
        assert grouping_accuracy(episodes, list(m_bar)) == expected


@pytest.fixture(scope="module")
def world_and_episodes():
    world = make_world("srms", degrade_prob=0.5, rng=Rng(7))
    return world, drawn_episodes(world, Rng(8), 30)


class TestPolicies:
    def test_nocom_never_communicates(self, world_and_episodes):
        world, episodes = world_and_episodes
        theta = tiny_theta()
        rep = evaluate("nocom", theta, episodes, 0.2, seed=0)
        assert rep.links_per_agent == 0.0
        assert rep.mbpf == 0.0

    def test_randcom_exactly_one_link_per_agent(self, world_and_episodes):
        world, episodes = world_and_episodes
        rep = evaluate("randcom", tiny_theta(), episodes, 0.2, seed=0)
        assert rep.links_per_agent == 1.0

    def test_fully_connected_links(self, world_and_episodes):
        world, episodes = world_and_episodes
        rep = evaluate("fully_connected", tiny_theta(), episodes, 0.2, seed=0)
        assert rep.links_per_agent == world.n_agents - 1

    def test_forced_top1_links_and_decisions(self, world_and_episodes):
        world, episodes = world_and_episodes
        rep = evaluate("forced_top1", tiny_theta(), episodes, 0.2, seed=0)
        assert rep.links_per_agent == 1.0
        # Forced communication: the when-to-communicate decision is always on,
        # so its accuracy equals the fraction of agents that truly need help.
        needy = np.mean([ep.needs_comm for ep in episodes])
        assert rep.when2com_acc == pytest.approx(needy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_centralized_and_validation_match_evaluation(self, world_and_episodes, policy):
        # Centralized inference, training-time validation and the simulator
        # share one row rule, so they pick the same rows and give the same
        # fused features and logits, bit for bit.
        world, episodes = world_and_episodes
        theta = tiny_theta(4)
        delta = 1.0 / world.n_agents
        for s, ep in enumerate(episodes):
            obs = list(ep.observations)
            central = pipeline_forward(theta, obs, mode="inference", delta=delta, policy=policy, rng=Rng(s))
            (res,) = run_policy_episode(policy, theta, ep.observations[None], delta, Rng(s))
            np.testing.assert_array_equal(res.rows, central.m)
            np.testing.assert_array_equal(res.pruned_rows, central.m_bar)
            np.testing.assert_array_equal(np.stack(res.fused), central.fused)
            np.testing.assert_array_equal(np.stack(res.logits), central.logits)
            assert res.predictions == [int(np.argmax(z)) for z in central.logits]
        # A stack of episodes draws its rows from one rng in episode order and
        # matches single-episode calls and the simulator's agents bit for bit.
        stack = episodes.observations
        stacked = pipeline_forward(theta, stack, mode="inference", delta=delta, policy=policy, rng=Rng(3))
        single_rng, sim_rng = Rng(3), Rng(3)
        for e, ep in enumerate(episodes):
            single = pipeline_forward(theta, stack[e], mode="inference", delta=delta, policy=policy, rng=single_rng)
            for field in ("logits", "m", "m_bar"):
                np.testing.assert_array_equal(getattr(stacked, field)[e], getattr(single, field))
            np.testing.assert_array_equal(stacked.fused[e], single.fused)
            (res,) = run_policy_episode(policy, theta, ep.observations[None], delta, sim_rng)
            np.testing.assert_array_equal(stacked.m_bar[e], res.pruned_rows)
            assert res.predictions == [int(np.argmax(z)) for z in stacked.logits[e]]
        rep = evaluate(policy, theta, episodes, delta, seed=3)
        assert evaluate_task_accuracy(theta, episodes, delta, policy, Rng(3)) == rep.acc_all

    def test_validation_randcom_draws_new_peers_per_episode(self, world_and_episodes, monkeypatch):
        # Without an rng, one Rng(0) serves the whole call: rows differ across
        # episodes and equal those drawn when Rng(0) is passed once.
        world, episodes = world_and_episodes
        theta = tiny_theta()
        drawn = []

        def record(*args, real=neuralnet.policy_rows):
            rows, threshold = real(*args)
            drawn.extend(rows)  # one (N, N) entry per episode of the stack
            return rows, threshold

        monkeypatch.setattr(neuralnet, "policy_rows", record)
        acc_default = evaluate_task_accuracy(theta, episodes, 0.2, policy="randcom")
        default_rows, drawn[:] = list(drawn), []
        acc_passed = evaluate_task_accuracy(theta, episodes, 0.2, policy="randcom", rng=Rng(0))
        assert len(default_rows) == len(drawn) == len(episodes)
        assert len({rows.tobytes() for rows in default_rows}) > 1
        for a, b in zip(default_rows, drawn):
            np.testing.assert_array_equal(a, b)
        assert acc_default == acc_passed

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        n=st.integers(1, 6),
        delta=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_ledger_closed_form(self, policy, n, delta, seed):
        # Counted bytes: N(N-1) Q-real queries when the handshake runs, plus
        # one F-real transfer per off-diagonal link left in the rows.
        cfg = PipelineConfig(d_obs=6, q_dim=3, k_dim=4, f_dim=5, n_classes=3, hidden=7)
        rng = Rng(seed)
        theta = init_pipeline(cfg, rng)
        obs = rng.normal(n * cfg.d_obs).reshape(n, cfg.d_obs)
        (res,) = run_policy_episode(policy, theta, obs[None], delta, rng)
        links = np.count_nonzero(res.pruned_rows) - np.count_nonzero(np.diag(res.pruned_rows))
        queries = n * (n - 1) if policy in HANDSHAKE_POLICIES else 0
        assert res.ledger.counted_bytes == queries * cfg.q_dim * 4 + links * cfg.f_dim * 4
        assert res.ledger.inter_agent_links == links
        assert res.ledger.frames == 1

    def test_run_policy_episode_takes_a_block(self):
        obs = np.zeros((3, PipelineConfig().d_obs))
        with pytest.raises(ValueError, match=re.escape("(E, N, d_obs) block, got shape (3, 32)")):
            run_policy_episode("nocom", tiny_theta(), obs, 0.2, None)

    def test_when2com_links_bounded(self, world_and_episodes):
        world, episodes = world_and_episodes
        rep = evaluate("when2com", tiny_theta(), episodes, 1.0 / world.n_agents, seed=0)
        assert rep.links_per_agent <= world.n_agents - 1

    def test_policy_traces_recompute_ledger(self, world_and_episodes):
        from groupcomm import simnet

        world, episodes = world_and_episodes
        rng = Rng(9)
        for policy in ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected"):
            (res,) = run_policy_episode(policy, tiny_theta(), episodes.observations[:1], 0.2, rng)
            assert simnet.ledger_from_trace(res.trace, frames=1) == res.ledger

    def test_dumped_trace_audits_reported_bandwidth(self, world_and_episodes, tmp_path):
        # mbpf and links recomputed from the dumped message trace must equal
        # the reported values exactly, for every policy.
        from groupcomm import simnet

        world, episodes = world_and_episodes
        for policy in ("when2com", "randcom", "fully_connected"):
            path = str(tmp_path / f"{policy}.trace.jsonl")
            rep = evaluate(
                policy, tiny_theta(), episodes, 1.0 / world.n_agents, seed=3, trace_path=path
            )
            reloaded = simnet.load_trace(path)
            ledger = simnet.ledger_from_trace(reloaded, frames=len(episodes))
            assert simnet.mbpf(ledger) == rep.mbpf
            assert simnet.links_per_agent(ledger, world.n_agents) == rep.links_per_agent

    def test_unknown_policy(self, world_and_episodes):
        world, episodes = world_and_episodes
        with pytest.raises(ValueError):
            evaluate("telepathy", tiny_theta(), episodes, 0.2, seed=0)

    def test_empty_dataset_rejected(self, world_and_episodes):
        _, episodes = world_and_episodes
        with pytest.raises(ValueError, match="need at least one episode, got none"):
            evaluate("nocom", tiny_theta(), episodes[:0], 0.2, seed=0)

    @pytest.mark.parametrize("seed", [1.7, True])
    def test_a_seed_that_is_not_an_integer_is_refused_before_the_batched_pass(self, world_and_episodes, monkeypatch, seed):
        # Rng(int(seed)) drew seed 1's rows and the report recorded the seed as given.
        _, episodes = world_and_episodes
        calls = []
        monkeypatch.setattr(evalcli, "infer_episodes", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            evaluate("randcom", tiny_theta(), episodes, 0.2, seed, "srms")
        assert calls == []

    @pytest.mark.parametrize("delta", [-0.1, 1.5, float("nan")])
    def test_delta_outside_unit_interval_rejected(self, world_and_episodes, delta):
        _, episodes = world_and_episodes
        with pytest.raises(ValueError, match=re.escape(f"delta must lie in [0, 1], got {delta}")):
            evaluate("when2com", tiny_theta(), episodes, delta, seed=0)


class TestBatchedPassAndAudit:
    """The report comes from the batched pass and the closed-form ledger; the simulator audits both."""

    CFG = PipelineConfig(d_obs=32, q_dim=3, k_dim=4, f_dim=5, n_classes=10, hidden=8)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        policy=st.sampled_from(POLICIES),
        delta=st.one_of(st.sampled_from([0.0, "1/N", 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        n_episodes=st.integers(1, 6),
    )
    def test_simulator_agrees_with_batched_pass(self, case, policy, delta, seed, n_episodes):
        # Untraced, the simulator audits the first episode; traced, every
        # episode.  Both give one report, and the dumped trace's ledger is
        # the closed form of the batched pass's pruned rows.
        world = world_for_run(case, None, seed)
        delta = 1.0 / world.n_agents if delta == "1/N" else delta
        episodes = generate_episodes(world, n_episodes, seed)
        theta = init_pipeline(self.CFG, Rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            traced = evaluate(policy, theta, episodes, delta, seed, case, path)
            dumped = simnet.ledger_from_trace(simnet.load_trace(path), frames=len(episodes))
        assert evaluate(policy, theta, episodes, delta, seed, case) == traced
        stack = episodes.observations
        m_bar = pipeline_forward(theta, stack, mode="inference", delta=delta, policy=policy, rng=Rng(seed)).m_bar
        links = simnet.link_counts(m_bar).sum()
        closed = simnet.ledger_from_links(
            links, len(episodes), world.n_agents, self.CFG.q_dim, self.CFG.f_dim, policy in HANDSHAKE_POLICIES
        )
        assert dumped == closed
        assert simnet.mbpf(closed) == traced.mbpf
        assert simnet.links_per_agent(closed, world.n_agents) == traced.links_per_agent

    @staticmethod
    def _flip_prediction(res):
        res.predictions[1] = (res.predictions[1] + 1) % 10

    @staticmethod
    def _change_pruned_weight(res):
        res.pruned_rows = res.pruned_rows.copy()
        res.pruned_rows[2, 2] += 0.25

    @staticmethod
    def _change_ledger(res):
        res.ledger = replace(res.ledger, counted_bytes=res.ledger.counted_bytes + 4)

    @pytest.mark.parametrize(
        "doctor, what",
        [("_flip_prediction", "predictions"), ("_change_pruned_weight", "pruned rows"), ("_change_ledger", "trace ledger")],
    )
    @pytest.mark.parametrize("policy", ["when2com", "randcom"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_doctored_simulator_result_names_policy_and_episode(
        self, world_and_episodes, tmp_path, monkeypatch, doctor, what, policy, traced
    ):
        # Untraced, the audit runs episode 0 only; traced, every episode, in
        # lockstep blocks, and the first one at fault is named.
        _, episodes = world_and_episodes
        at_fault = 3 if traced else 0
        calls = []

        def doctored(*args, real=evalcli.run_policy_episode):
            results = real(*args)
            done = sum(size for _, size in calls)
            if done <= at_fault < done + len(results):
                getattr(self, doctor)(results[at_fault - done])
            calls.append((args[0], len(results)))
            return results

        monkeypatch.setattr(evalcli, "run_policy_episode", doctored)
        trace = str(tmp_path / "t.jsonl") if traced else None
        message = f"policy {policy!r}, episode {at_fault}: the simulator's {what} differ from the batched pass"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            evaluate(policy, tiny_theta(), episodes, 0.2, 3, "srms", trace)
        assert calls == [(policy, len(episodes) if traced else 1)]  # one block: the 30 episodes, or the first
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "phase, kind, doctor, message",
        [
            ("score_inboxes", "score", drop_entry, "agent 2 received 0 score messages from peer 4, where the protocol sends 1"),
            ("score_inboxes", "score", repeat_entry, "agent 2 received 2 score messages from peer 4, where the protocol sends 1"),
            (
                "request_features", "transfer", lambda log, k: readdress_entry(log, k, 1),
                "agent 1 received 2 transfer messages from peer 4, where the protocol sends 1",
            ),
        ],
    )
    @pytest.mark.parametrize("traced, at_fault", [(False, 0), (True, 3), (True, EVAL_BLOCK + 2)])
    def test_doctored_log_names_policy_and_episode(self, tmp_path, monkeypatch, phase, kind, doctor, message, traced, at_fault):
        # The reply from agent 4 to agent 2 is lost or repeated, or the
        # transfer from agent 4 to agent 2 goes to agent 1, in the episode at
        # fault: the simulator raises, and evaluate names the policy and the
        # episode, counted over the whole evaluation, and writes no trace.
        # At delta 0 every agent asks every peer, so agent 1 already holds
        # agent 4's transfer.
        episodes = generate_episodes(make_world("srms", rng=Rng(7)), EVAL_BLOCK + 6, 8)
        calls = []

        def doctored(*args, real=getattr(simnet, phase)):
            result = real(*args)
            if len(calls) == at_fault // EVAL_BLOCK:
                log = args[-1]
                doctor(log, log_entry(log, kind, at_fault % EVAL_BLOCK, 4, 2))
            calls.append(args[0])
            return result

        monkeypatch.setattr(simnet, phase, doctored)
        trace = str(tmp_path / "t.jsonl") if traced else None
        with pytest.raises(RuntimeError, match=re.escape(f"policy 'when2com', episode {at_fault}: {message}")):
            evaluate("when2com", tiny_theta(), episodes, 0.0, 3, "srms", trace)
        assert len(calls) == 1 + at_fault // EVAL_BLOCK
        assert not (tmp_path / "t.jsonl").exists()


class TestReports:
    def test_csv_schema(self, tmp_path):
        episodes = drawn_episodes(make_world("srms", rng=Rng(10)), Rng(11), 12)
        rep = evaluate("nocom", tiny_theta(), episodes, 0.2, seed=5)
        json_path = str(tmp_path / "r.json")
        csv_path = str(tmp_path / "r.csv")
        save_report(rep, json_path, csv_path)
        lines = Path(csv_path).read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0].split(",") == [
            "policy", "case", "n_agents", "seed", "delta", "Q", "K", "F",
            "acc_all", "acc_degraded", "acc_clean", "when2com_acc",
            "grouping_acc", "mbpf", "links_per_agent", "n_episodes",
        ]
        assert len(lines) == 2
        doc = json.loads(Path(json_path).read_text())
        assert doc["policy"] == "nocom"
        assert doc["n_episodes"] == 12

    def test_report_determinism(self, tmp_path):
        episodes = drawn_episodes(make_world("srms", rng=Rng(12)), Rng(13), 10)
        paths = []
        for tag in ("a", "b"):
            rep = evaluate("randcom", tiny_theta(), episodes, 0.2, seed=7)
            jp = str(tmp_path / f"{tag}.json")
            cp = str(tmp_path / f"{tag}.csv")
            save_report(rep, jp, cp)
            paths.append((jp, cp))
        assert Path(paths[0][0]).read_bytes() == Path(paths[1][0]).read_bytes()
        assert Path(paths[0][1]).read_bytes() == Path(paths[1][1]).read_bytes()


class TestOneScalarRule:
    """What evaluate records and saves: checked Python values, or nothing."""

    def test_numpy_scalars_in_plain_values_out(self, tmp_path, monkeypatch):
        # At the parent a NumPy seed reached the report and save_report left a truncated JSON.
        pipeline, config = PipelineConfig(q_dim=np.int64(4)), TrainConfig(steps=np.int64(3))
        assert type(pipeline.q_dim) is int and type(config.steps) is int
        world = make_world("srms", n_agents=np.int64(5), noise_sigma=np.float32(1.0), rng=Rng(1))
        assert type(world.n_agents) is int and type(world.noise_sigma) is float
        plain = make_world("srms", n_agents=5, noise_sigma=1.0, rng=Rng(1))
        for built, name in ((world, "numpy.bin"), (plain, "plain.bin")):
            save_dataset(str(tmp_path / name), generate_dataset(built, 20, seed=2))
        assert (tmp_path / "numpy.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()
        episodes = generate_dataset(plain, 20, seed=2).episodes
        saved = []
        for tag, delta, seed in (("numpy", np.float32(0.25), np.int64(3)), ("plain", 0.25, 3)):
            paths = [tmp_path / f"{tag}.{ext}" for ext in ("json", "csv")]
            save_report(evaluate("randcom", tiny_theta(), episodes, delta, seed), *map(str, paths))
            saved.append([path.read_bytes() for path in paths])
        assert saved[0] == saved[1]
        calls = []
        monkeypatch.setattr(evalcli, "infer_episodes", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^delta must be a real number, got True$"):  # once run at delta 1
            evaluate("randcom", tiny_theta(), episodes, True, 3)
        assert calls == []

    def test_both_scorers_refuse_a_label_the_model_has_no_class_for(self, monkeypatch):
        # A 20-class set under a 10-class model once scored 0.029 and returned normally.
        episodes = generate_dataset(make_world("srms", n_classes=20, rng=Rng(5)), 40, seed=6).episodes
        label = episodes.labels[episodes.labels >= 10][0]
        calls = []
        for module in (evalcli, neuralnet):
            monkeypatch.setattr(module, "infer_episodes", lambda *args: calls.append(args))
        message = "^" + re.escape(f"label {label} out of range [0, 10) of the model's n_classes") + "$"
        with pytest.raises(ValueError, match=message):
            evaluate("when2com", tiny_theta(), episodes, 0.2, 0)
        with pytest.raises(ValueError, match=message):
            evaluate_task_accuracy(tiny_theta(), episodes, 0.2)
        assert calls == []

    def test_evaluate_refuses_an_unknown_case(self, world_and_episodes):
        # "bogus" was once written into the report.
        _, episodes = world_and_episodes
        with pytest.raises(ValueError, match=re.escape(f"unknown case 'bogus'; expected one of {CASES}")):
            evaluate("nocom", tiny_theta(), episodes, 0.2, 0, case="bogus")

    def test_a_report_or_a_sweep_table_is_written_whole_or_not_at_all(self, tmp_path, monkeypatch, world_and_episodes):
        # JSON cannot encode a NumPy scalar; json.dump once left a partial file behind.
        _, episodes = world_and_episodes
        report = replace(evaluate("nocom", tiny_theta(), episodes, 0.2, 0), acc_all=np.float32(0.5))
        paths = tmp_path / "r.json", tmp_path / "r.csv"
        with pytest.raises(TypeError, match="float32 is not JSON serializable"):
            save_report(report, *map(str, paths))
        assert not any(path.exists() for path in paths)
        row = dict(zip(evalcli.SWEEP_COLUMNS, ("query", np.int64(4), 4, 16, 0, 0.5, 0.5, 0.5, 1.0)))
        monkeypatch.setattr(evalcli, "sweep_message_size", lambda *args, **kwargs: [row])
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--param", "query", "--values", "4", "--out", str(out)]) == 1
        assert not out.exists() and not (tmp_path / "sweep.json").exists()


class TestCli:
    def test_eval_requires_checkpoint(self, capsys):
        code = cli_main(["eval"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_main(["train", "--nope"]) == 2

    @pytest.mark.parametrize("policy", ["forced_top1", "fully_connected"])
    def test_train_rejects_a_policy_without_a_training_scheme(self, tmp_path, capsys, monkeypatch, policy):
        # Both used to train a when2com checkpoint without a word.
        work = []
        monkeypatch.setattr(evalcli, "train_run", lambda *args, **kwargs: work.append(kwargs))
        ckpt = tmp_path / "m.ckpt"
        assert cli_main(["train", "--episodes", "40", "--policy", policy, "--out", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"argument --policy: invalid choice: '{policy}'" in err
        assert "'when2com', 'nocom', 'randcom', 'catall'" in err
        assert work == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("policy", ["forced_top1", "fully_connected", "broadcast"])
    def test_train_run_rejects_a_policy_without_a_training_scheme(self, monkeypatch, policy):
        work = []
        monkeypatch.setattr(evalcli, "generate_dataset", lambda *args: work.append(args))
        monkeypatch.setattr(evalcli, "train", lambda *args: work.append(args))
        message = (
            f"policy {policy!r} has no training scheme (expected one of {TRAIN_POLICIES}); "
            "train when2com and evaluate under it"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            train_run(n_episodes=40, steps=1, policy=policy)
        assert work == []

    def test_run_report_is_the_runs_own(self):
        # The run's policy and seed, at delta = 1/N, labelled with its world's case.
        run = train_run(case="mrms", n_episodes=60, steps=3, seed=2, policy="randcom")
        world = run.dataset.world
        expected = evaluate("randcom", run.theta, run.dataset.test_episodes, 1.0 / world.n_agents, 2, "mrms")
        assert run_report(run) == expected
        assert (expected.policy, expected.case, expected.seed) == ("randcom", "mrms", 2)

    def test_eval_takes_every_policy(self):
        parser = build_parser()
        for policy in POLICIES:
            assert parser.parse_args(["eval", "--checkpoint", "m.ckpt", "--policy", policy]).policy == policy
        assert TRAIN_POLICIES == ("when2com", "nocom", "randcom", "catall")

    def test_gen_data_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "d.json")
        code = cli_main(["gen-data", "--case", "srms", "--episodes", "100", "--seed", "1", "--out", out])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds.episodes) == 100
        assert (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx)) == (80, 10, 10)

    def test_train_then_eval_deterministic(self, tmp_path, capsys):
        args = [
            "train", "--case", "srms", "--episodes", "60", "--steps", "25",
            "--seed", "7", "--out", None, "--report", None,
        ]
        outputs = []
        for tag in ("x", "y"):
            ckpt = str(tmp_path / f"{tag}.ckpt")
            report = str(tmp_path / f"{tag}.json")
            args[-3], args[-1] = ckpt, report
            assert cli_main(list(args)) == 0
            outputs.append(
                (
                    Path(ckpt).read_bytes(),
                    Path(ckpt + ".log.jsonl").read_bytes(),
                    Path(report).read_bytes(),
                    Path(report[:-5] + ".csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_eval_without_data_reports_on_the_generated_test_split(self, tmp_path, capsys, monkeypatch):
        ckpt = str(tmp_path / "m.ckpt")
        theta = tiny_theta(5)
        save_checkpoint(ckpt, theta, theta.config)
        seen = []
        real = evalcli.evaluate

        def recording(policy, theta, episodes, *args, **kwargs):
            seen.append(episodes)
            return real(policy, theta, episodes, *args, **kwargs)

        monkeypatch.setattr(evalcli, "evaluate", recording)
        report = str(tmp_path / "ev.json")
        argv = ["eval", "--checkpoint", ckpt, "--episodes", "37", "--seed", "2", "--report", report]
        assert cli_main(argv) == 0
        test_split = generate_dataset(world_for_run("srms", None, 2), 37, 2).test_episodes
        (episodes,) = seen
        assert len(episodes) == len(test_split) == 5  # 29 train, 3 val
        for a, b in zip(episodes, test_split):
            np.testing.assert_array_equal(a.observations, b.observations)
            assert (a.labels, a.degraded, a.gt_support) == (b.labels, b.degraded, b.gt_support)
        expected = tmp_path / "expected.json"
        save_report(real("when2com", theta, test_split, 0.2, 2, case="srms"), str(expected), str(tmp_path / "expected.csv"))
        assert Path(report).read_bytes() == expected.read_bytes()

    def test_eval_from_data_file(self, tmp_path, capsys):
        data = str(tmp_path / "d.json")
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", data]) == 0
        ckpt = str(tmp_path / "m.ckpt")
        assert (
            cli_main(
                ["train", "--episodes", "60", "--steps", "10", "--seed", "3", "--out", ckpt]
            )
            == 0
        )
        report = str(tmp_path / "ev.json")
        code = cli_main(
            ["eval", "--checkpoint", ckpt, "--data", data, "--policy", "nocom", "--report", report]
        )
        assert code == 0
        doc = json.loads(Path(report).read_text())
        assert doc["policy"] == "nocom"
        assert doc["n_episodes"] == 4  # test split of 40

    @pytest.mark.parametrize(
        "flag, value, field", [("--steps", "-1", "steps"), ("--q-dim", "0", "q_dim"), ("--k-dim", "-2", "k_dim")]
    )
    def test_train_rejects_bad_config_before_running(self, tmp_path, capsys, flag, value, field):
        ckpt = tmp_path / "m.ckpt"
        code = cli_main(["train", "--episodes", "40", flag, value, "--out", str(ckpt)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not ckpt.exists()

    def test_eval_rejects_dataset_of_other_obs_dim(self, tmp_path, capsys):
        data = str(tmp_path / "d16.json")
        save_dataset(data, generate_dataset(make_world("srms", obs_dim=16, rng=Rng(1)), 10, seed=1))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", data, "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert ckpt in err and "d_obs=32" in err and "obs_dim=16" in err
        assert not report.exists()

    @pytest.mark.parametrize("n_classes", [12, 8])
    def test_eval_rejects_dataset_of_other_class_count(self, tmp_path, capsys, n_classes):
        # A 12-class file used to evaluate on a 10-class checkpoint, exit 0
        # and print a plausible acc_all; 8 classes would as well.
        data = str(tmp_path / f"c{n_classes}.json")
        save_dataset(data, generate_dataset(make_world("srms", n_classes=n_classes, rng=Rng(1)), 10, seed=1))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", data, "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint expects n_classes=10, but the dataset has n_classes={n_classes}" in err
        assert not report.exists()

    def test_eval_rejects_checkpoint_with_nan_decoder_weight(self, tmp_path, capsys):
        # A NaN decoder weight used to evaluate to a plausible accuracy and exit 0.
        ckpt = tmp_path / "m.ckpt"
        theta = tiny_theta()
        save_checkpoint(str(ckpt), theta, PipelineConfig())
        theta.theta_d.layers[0][0][0, 0] = float("nan")  # a view of theta.flat
        ckpt.write_bytes(ckpt.read_bytes()[:36] + theta.flat.astype("<f8").tobytes())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", str(ckpt), "--episodes", "20", "--report", str(report)])
        assert code == 1
        assert f"checkpoint {ckpt}: theta_d layer 0 weight holds nan at flat index 0" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "policy, delta, message",
        [
            ("nocom", "-0.1", "must lie in [0, 1], got -0.1"),
            ("when2com", "1.5", "must lie in [0, 1], got 1.5"),
            ("when2com", "nan", "must lie in [0, 1], got nan"),
            ("when2com", "half", "expected a number in [0, 1], got 'half'"),
        ],
    )
    def test_eval_rejects_bad_delta_before_generating_data(self, tmp_path, capsys, monkeypatch, policy, delta, message):
        # The default dataset is 40000 episodes; a bad --delta must not wait for it.
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())

        def no_generation(*args):
            raise AssertionError("generate_dataset called")

        monkeypatch.setattr(evalcli, "generate_dataset", no_generation)
        report = tmp_path / "ev.json"
        argv = ["eval", "--checkpoint", ckpt, "--policy", policy, "--delta", delta]
        assert cli_main(argv + ["--report", str(report)]) == 2
        assert f"argument --delta: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    SEED_ARGV = {
        "train": ["train", "--out", "m.ckpt"],
        "eval": ["eval", "--checkpoint", "m.ckpt"],
        "sweep": ["sweep", "--param", "query", "--values", "1"],
        "gen-data": ["gen-data", "--episodes", "1", "--out", "d.data"],
    }

    @pytest.mark.parametrize("command", sorted(SEED_ARGV))
    @pytest.mark.parametrize(
        "seed, message",
        [
            ("-1", "must lie in [0, 2**64), got -1"),
            (str(2**64), f"must lie in [0, 2**64), got {2**64}"),
            (str(2**64 + 7), f"must lie in [0, 2**64), got {2**64 + 7}"),
            ("seven", "expected an integer in [0, 2**64), got 'seven'"),
        ],
    )
    def test_seed_outside_rng_range_rejected(self, tmp_path, capsys, monkeypatch, command, seed, message):
        # Rng reduces its seed mod 2**64, so -1 would run as 2**64 - 1 and
        # 2**64 + 7 as 7, while the report records the seed as typed.
        monkeypatch.chdir(tmp_path)
        assert cli_main(self.SEED_ARGV[command] + ["--seed", seed]) == 2
        assert f"argument --seed: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(SEED_ARGV))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_both_ends_of_rng_range_accepted(self, command, seed):
        assert build_parser().parse_args(self.SEED_ARGV[command] + ["--seed", str(seed)]).seed == seed

    def test_gen_data_runs_at_the_largest_seed(self, tmp_path):
        data = tmp_path / "d.data"
        assert cli_main(["gen-data", "--episodes", "10", "--seed", str(2**64 - 1), "--out", str(data)]) == 0
        assert data.stat().st_size > 0

    def test_eval_accepts_delta_at_both_ends(self):
        for text in ("0", "1", "1e-3"):
            args = build_parser().parse_args(["eval", "--checkpoint", "m.ckpt", "--delta", text])
            assert args.delta == float(text)

    @pytest.mark.parametrize("label, message", [(99, "has label 99, not one in [0, 10)"), (-1, "has label -1, not")])
    def test_eval_rejects_dataset_with_bad_labels(self, tmp_path, capsys, label, message):
        data = tmp_path / "d.bin"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        edit_dataset_file(data, lambda h, a: a["labels"].__setitem__((2, 1), label))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"{data}: episode 2 agent 1 {message}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, a: h["splits"].update(test=[999]), "splits.test index must be an integer in [0, 39], got 999"),
            (lambda h, a: h["splits"].update(test=[0, 0, 0, 0]), "episode 0 is listed twice in splits.test"),
            (lambda h, a: h.update(case="zzz"), "world case 'zzz' is not one of"),
            # No agent of episode 37 is degraded.
            (lambda h, a: a["gt_support"].__setitem__((37, 0, 1), 1), "episode 37 agent 0 has supporters but is not"),
            (lambda h, a: h.update(n_episodes=41), "the file holds "),
        ],
    )
    def test_eval_rejects_dataset_with_bad_split_world_or_ground_truth(self, tmp_path, capsys, edit, message):
        # Each edit but the last used to run to a report: an index error
        # naming nothing, one episode scored four times, an unknown case, or
        # a moved when2com_acc.
        data = tmp_path / "d.bin"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        edit_dataset_file(data, edit)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("case", "triplet", "world n_agents must be a multiple of 3 for case 'triplet', got 5"),
            ("degrade_prob", 7, "world degrade_prob must lie in [0, 1], got 7"),
            ("noise_sigma", -1, "world noise_sigma must be positive and finite, got -1"),
            ("overlap_frac", 3, "world overlap_frac must lie in [0, 1], got 3"),
            ("scene_dim", 15, "world scene_dim must be obs_dim // 2 = 16, got 15"),
        ],
    )
    def test_eval_rejects_dataset_with_bad_world_scalars(self, tmp_path, capsys, field, value, message):
        # Each edit used to load silently; a triplet case even ran to a report.
        data = tmp_path / "d.bin"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        edit_dataset_file(data, lambda h, a: h.update({field: value}))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_rejects_dataset_with_empty_test_split(self, tmp_path, capsys):
        # Used to exit with "cannot evaluate on an empty dataset", naming neither the file nor the split.
        data = tmp_path / "d.bin"
        ds = generate_dataset(make_world("srms", rng=Rng(1)), 10, seed=1)
        save_dataset(str(data), replace(ds, val_idx=ds.val_idx + ds.test_idx, test_idx=[]))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"error: {data}: splits.test is empty, so --data holds no episode to evaluate" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_single_agent_srms_with_degradation_rejected(self, tmp_path, capsys, command):
        # Used to exit 1 with "bound must be positive" from deep inside the srms generator.
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--out", str(out)],
            "train": ["train", "--steps", "1", "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--report", str(out)],
        }[command]
        save_checkpoint(str(tmp_path / "m.ckpt"), tiny_theta(), PipelineConfig())
        assert cli_main(argv + ["--case", "srms", "--agents", "1", "--episodes", "20"]) == 1
        err = capsys.readouterr().err
        assert "world n_agents must be >= 2 for case 'srms' when degrade_prob > 0" in err
        assert "n_agents=1, degrade_prob=0.5" in err
        assert not out.exists()

    def test_module_entry_point_runs_without_warnings(self):
        env = dict(os.environ, PYTHONPATH=str(Path(evalcli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "groupcomm.evalcli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--episodes", "40", "--steps", "5", "--out", "{missing}/x.ckpt"], "--out"),
            (["train", "--episodes", "40", "--steps", "5", "--out", "{tmp}/x.ckpt", "--report", "{missing}/r.json"], "--report"),
            (["train", "--episodes", "40", "--steps", "5", "--out", "{tmp}/x.ckpt", "--report", "{tmp}"], "--report"),
        ],
    )
    def test_train_checks_output_paths_before_training(self, tmp_path, capsys, monkeypatch, argv, flag):
        steps = []
        monkeypatch.setattr(neuralnet, "adam_step", lambda *args, **kwargs: steps.append(args))
        monkeypatch.setattr(evalcli, "generate_dataset", lambda *args: steps.append(args))
        argv = [a.format(missing=tmp_path / "absent", tmp=tmp_path) for a in argv]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        bad = argv[argv.index(flag) + 1]
        assert f"error: {flag} {bad}: " in err
        assert ("does not exist" if "absent" in bad else "is a directory") in err
        assert steps == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--trace", "--report"])
    def test_eval_checks_output_paths_before_any_episode(self, tmp_path, capsys, monkeypatch, flag):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), tiny_theta(), PipelineConfig())
        episodes_run = []
        monkeypatch.setattr(evalcli, "run_policy_episode", lambda *args: episodes_run.append(args))
        monkeypatch.setattr(neuralnet, "pipeline_forward", lambda *args, **kwargs: episodes_run.append(args))
        bad = str(tmp_path / "absent" / "out.jsonl")
        outputs = {"--report": str(tmp_path / "ev.json"), "--trace": str(tmp_path / "t.jsonl"), flag: bad}
        argv = ["eval", "--checkpoint", str(ckpt), "--episodes", "20"]
        assert cli_main(argv + [a for kv in outputs.items() for a in kv]) == 1
        assert f"error: {flag} {bad}: directory {tmp_path / 'absent'} does not exist" in capsys.readouterr().err
        assert episodes_run == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    @pytest.mark.parametrize("command", ["gen-data", "sweep"])
    def test_gen_data_and_sweep_check_out_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        work = []
        monkeypatch.setattr(evalcli, "generate_dataset", lambda *args: work.append(args))
        monkeypatch.setattr(evalcli, "train_run", lambda *args, **kwargs: work.append(args))
        bad = str(tmp_path / "absent" / "out.csv")
        extra = ["--param", "query", "--values", "1"] if command == "sweep" else []
        assert cli_main([command, "--episodes", "40", *extra, "--out", bad]) == 1
        assert f"error: --out {bad}: directory {tmp_path / 'absent'} does not exist" in capsys.readouterr().err
        assert work == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            # The report used to overwrite the checkpoint, which then failed to load.
            (
                ["train", "--out", "{tmp}/m.ckpt", "--report", "{tmp}/m.ckpt"],
                "--report {tmp}/m.ckpt: --out also writes {tmp}/m.ckpt",
            ),
            (
                ["train", "--out", "{tmp}/m", "--report", "{tmp}/m.log.jsonl"],
                "--report {tmp}/m.log.jsonl: --out also writes {tmp}/m.log.jsonl",
            ),
            # The trace used to overwrite the report, or its CSV sibling.
            (
                ["eval", "--report", "{tmp}/x.json", "--trace", "{tmp}/x.json"],
                "--trace {tmp}/x.json: --report also writes {tmp}/x.json",
            ),
            (
                ["eval", "--report", "{tmp}/x.json", "--trace", "{tmp}/x.csv"],
                "--trace {tmp}/x.csv: --report also writes {tmp}/x.csv",
            ),
            (
                ["eval", "--report", "{tmp}/x.json", "--trace", "{tmp}/link.jsonl"],
                "--trace {tmp}/link.jsonl: --report also writes {tmp}/x.json",
            ),
        ],
    )
    def test_colliding_output_paths_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        # Two outputs that resolve to one file, through a symlink included, exit 1 naming both flags.
        ckpt = tmp_path / "in.ckpt"
        save_checkpoint(str(ckpt), tiny_theta(), PipelineConfig())
        os.symlink(tmp_path / "x.json", tmp_path / "link.jsonl")
        work = []
        monkeypatch.setattr(evalcli, "generate_dataset", lambda *args: work.append(args))
        monkeypatch.setattr(evalcli, "load_checkpoint", lambda *args: work.append(args))
        argv = [a.format(tmp=tmp_path) for a in argv] + (["--checkpoint", str(ckpt)] if argv[0] == "eval" else [])
        assert cli_main(argv) == 1
        assert f"error: {message.format(tmp=tmp_path)}, the same file" in capsys.readouterr().err
        assert work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt", "link.jsonl"]

    def test_output_paths_cover_derived_files(self, tmp_path):
        # A directory where the CSV sibling of the report would go is caught too.
        (tmp_path / "r.csv").mkdir()
        args = build_parser().parse_args(["eval", "--checkpoint", "m.ckpt", "--report", str(tmp_path / "r.json")])
        with pytest.raises(ValueError, match=f"--report {tmp_path / 'r.csv'}: is a directory"):
            check_output_paths(args)

    def test_missing_checkpoint_file_is_diagnostic_error(self, tmp_path, capsys):
        code = cli_main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestDecisions:
    def test_decisions_from_rows(self):
        rows = np.array([[1.0, 0.0], [0.4, 0.6]])
        assert decisions_from_rows(rows).tolist() == [False, True]

    def test_decisions_ignore_the_diagonal_only(self):
        rows = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.1, 0.9]])
        decisions = decisions_from_rows(rows)
        assert (decisions.dtype, decisions.shape) == (np.dtype(bool), (3,))
        assert decisions.tolist() == [False, False, True]
        assert decisions_from_rows(np.eye(1)).tolist() == [False]
        # The input rows are left as they are.
        assert rows[0, 0] == 0.5

    def test_stack_of_episodes_gives_one_list_per_episode(self):
        stack = np.stack([np.eye(3), np.full((3, 3), 1.0 / 3), np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])])
        decisions = decisions_from_rows(stack)
        assert (decisions.dtype, decisions.shape) == (np.dtype(bool), (3, 3))
        assert decisions.tolist() == [decisions_from_rows(rows).tolist() for rows in stack]
        assert decisions.tolist() == [[False] * 3, [True] * 3, [True, False, False]]


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# SHA-256 of (report JSON, report CSV, trace) from evalcli.evaluate on the
# benchmark's fixed checkpoint, over 30 episodes of its training world, at
# delta 1/N.  A change to the simulator's arithmetic, message order or trace
# encoding changes them.  An empty trace (nocom) hashes to e3b0c442...
PINNED_EVAL_DIGESTS = {
    3: {
        "when2com": (
            "97d69a570d2352ec46bf30d4314632388f42e95484ed64a9b53fff1edeab7eb5",
            "1bab8ec087c8f77c4603b809ee5445f79ff2ae39c64600f93a158dd4d8864787",
            "fd5c57124668ad35ddaa98cf089925c5aa3705ec30e4c5ff565b8eade7b45b61",
        ),
        "nocom": (
            "40dc0e559d2eaf201caa3b6564d42cad7ccf8725632e7bdaf8b34fb79db7f370",
            "8b205b3c9cca5f0a3e766c6656eb014b7a0dbdbc9f0e65b47e8b49f3b07e1a8e",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        "randcom": (
            "19d0d393cf1ba583f6cad17f82fc857f02b4b4b7e9a8977d17c171f57085d792",
            "afd89913ef00da0cbbfb6c73829cc42b029daf1d126ae2444d3b0f9da23be1d8",
            "1dbfbf3193ff8d5244751f9e1d8603ba3d10edc5a13db6fa7e63145e20241d1b",
        ),
        "catall": (
            "be078a2237ce5d1f6c9fc84da719b771bcf35e82e1d874358a96ba0e18912339",
            "12af304c584b29d47272e1c35620a9d693360d744cd7db01fa3937e72c42c00b",
            "2d9b1ee9dd7c8afb818a8ade561d93d08eadf8bff385c641278aad9ec2b78938",
        ),
        "forced_top1": (
            "26a0ce9b64d0d9b1253425b499adcca49fcf990da8c8d8103b0b8eb842eecbd3",
            "09ef47f06ea224a16d8725739e9975b64a9876f97a6b8111caff896b6836c2b1",
            "12744cdaf16cd8d3fcd1362f2b921790da7b8f74b4bbeaa4cff676dc9ea9d4ca",
        ),
        "fully_connected": (
            "27db624fc3832d823b6e003396cd0efc71b69eca286c2e6124895b1aadea1310",
            "74ef18362266e4495bbfb7d13d7fbb31dd3bcf3ce43c093f2736af0381308921",
            "7b50420058554e40e9630bb5076aaec8cf81553f4beb995fedad2d8c31827363",
        ),
    },
    11: {
        "when2com": (
            "0de4fea0b74ae43fa54df0905761d779a13d80d86ed494a2b73925589a400909",
            "81f063d00803ff923bf849e8c8538d49ad6e89535ccf9a08925404eefe41b1df",
            "ff7eae0eb77459cf41d185efcf55f45dedd3a044fec78f5db107f8c8cfe5314b",
        ),
        "nocom": (
            "65ab7fa98d890f8f2ab1f30ac01f900134a232a48e03e6c5144b7524c600ea47",
            "faaa925a1ff3cdd94db18c91e1db44d8d404351a7d5d86cf0eec40a827ebaec4",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        "randcom": (
            "98f3a773fa20ad51f199a311de53d92cdc187881c4da8f767f5596217e524612",
            "a589e7b4cc1bf76ee31ede973f54abe0d03c6691e863214a81f03ced336fd222",
            "b9b3859b99613ab3d4aa360c7770dc29bcbb5470ee1576d6d47eba54dc176c27",
        ),
        "catall": (
            "d2e24587f68ef473a2eedf769d7c0aa89fce4b9fecd105de359805095a8af093",
            "a05a0c2a5b090aab97554bf08a1106214c96398e30f35bd27ff91524f174dc5d",
            "2d9b1ee9dd7c8afb818a8ade561d93d08eadf8bff385c641278aad9ec2b78938",
        ),
        "forced_top1": (
            "82ffc32b571083b3794dd6e288927f5c32cc92668cbd99842a8ab4c2e30808ed",
            "197ded6eee75a13535429f97fa80c1c20738579fd341acbfef80874c98ba1bc6",
            "81d4d3dd214442326f64aacc82ceaa60d0d39c583e066e76c6ce1f2efa9f0710",
        ),
        "fully_connected": (
            "2cbe35501cff8776766b69d0c292e88f22f01f93c5e89d85fc52e6b4a6ce11e8",
            "889b8968ad5e4473672d666b4b85ba1f69a28eeaad50d8dc9629acfe20a706de",
            "7b50420058554e40e9630bb5076aaec8cf81553f4beb995fedad2d8c31827363",
        ),
    },
}


@pytest.fixture(scope="module")
def eval_model():
    recipe = json.loads((BENCH_DIR / "eval_model.json").read_text())
    theta, _ = neuralnet.load_checkpoint(str(BENCH_DIR / recipe["checkpoint"]))
    return theta, world_for_run("srms", None, recipe["run_seed"])


class TestSplitsInAnyOrder:
    """The pinned digests cover contiguous splits; a loaded file may hold any split, in any order."""

    @staticmethod
    def shuffled_and_rebuilt():
        """A set whose splits are shuffled, non-contiguous index lists, and the set rebuilt in that episode order."""
        data = generate_dataset(world_for_run("srms", None, 4), 90, seed=4)
        order = Rng(5).permutation(90)
        train_idx, val_idx, test_idx = order[:60], order[60:75], order[75:]
        assert all(sorted(split) != split for split in (train_idx, val_idx, test_idx))
        shuffled = Dataset(data.world, data.episodes, train_idx, val_idx, test_idx)
        rebuilt = Dataset(data.world, data.episodes[order], list(range(60)), list(range(60, 75)), list(range(75, 90)))
        return shuffled, rebuilt

    def test_train_gives_the_same_checkpoint_and_log_bytes(self, tmp_path):
        config = TrainConfig(steps=30, eval_every=10)
        outputs = []
        for tag, dataset in zip("ab", self.shuffled_and_rebuilt()):
            theta, log = neuralnet.train(config, dataset, Rng(6))
            ckpt = tmp_path / f"{tag}.ckpt"
            save_checkpoint(str(ckpt), theta, config.pipeline)
            lines = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log)
            outputs.append((ckpt.read_bytes(), lines))
        assert sum("val_task_acc" in line for line in outputs[0][1].splitlines()) == 3
        assert outputs[0] == outputs[1]

    def test_eval_data_gives_the_same_report_bytes(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        theta = tiny_theta(5)
        save_checkpoint(ckpt, theta, theta.config)
        outputs = []
        for tag, dataset in zip("ab", self.shuffled_and_rebuilt()):
            data, report = str(tmp_path / f"{tag}.bin"), tmp_path / f"{tag}.json"
            save_dataset(data, dataset)
            argv = ["eval", "--checkpoint", ckpt, "--data", data, "--policy", "randcom", "--report", str(report)]
            assert cli_main(argv) == 0
            outputs.append((report.read_bytes(), report.with_suffix(".csv").read_bytes()))
        assert json.loads(outputs[0][0])["n_episodes"] == 15
        assert outputs[0] == outputs[1]


class TestFrozenValues:
    """A check made when a value is built keeps holding: the values are frozen, and a variant is checked again."""

    def test_each_later_assignment_raises_where_it_is_made(self):
        config = TrainConfig(steps=5)
        with pytest.raises(FrozenInstanceError):
            config.steps = -3  # once trained zero steps without a word
        with pytest.raises(FrozenInstanceError):
            config.pipeline.q_dim = 0  # once a ZeroDivisionError deep inside train
        run = train_run(n_episodes=20, steps=1, seed=3)
        with pytest.raises(FrozenInstanceError):
            run.dataset.world.n_agents = 2  # once a report at delta 0.5 labelled 5 agents
        with pytest.raises(FrozenInstanceError):
            run.config.policy = "randcom"  # once a when2com model reported as randcom
        with pytest.raises(FrozenInstanceError):
            run.dataset = replace(run.dataset, test_idx=())
        assert (config.steps, config.pipeline.q_dim) == (5, 4)
        report = run_report(run)
        assert (report.policy, report.n_agents, report.delta) == ("when2com", 5, 0.2)
        with pytest.raises(ValueError, match=re.escape("TrainConfig.steps must be an integer >= 0, got -3")):
            replace(config, steps=-3)
        with pytest.raises(ValueError, match=re.escape("PipelineConfig.q_dim must be an integer >= 1, got 0")):
            replace(config.pipeline, q_dim=0)

    @pytest.mark.parametrize(
        "build, field, value, message",
        [
            (TrainConfig, "steps", -3, "TrainConfig.steps must be an integer >= 0, got -3"),
            (PipelineConfig, "q_dim", 0, "PipelineConfig.q_dim must be an integer >= 1, got 0"),
            # Once built, and generate_dataset then ran on it without a word.
            (lambda: world_for_run("srms", None, 1), "degrade_prob", 7.0, "world degrade_prob must lie in [0, 1], got 7.0"),
            (
                lambda: generate_dataset(world_for_run("srms", None, 1), 20, 3),
                "val_idx",
                (1, 16),
                "episode 1 is listed in both splits.train and splits.val",
            ),
        ],
    )
    def test_replace_checks_each_frozen_value_again(self, build, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(build(), **{field: value})


class TestPinnedEvalOutputs:
    @pytest.mark.parametrize("seed", sorted(PINNED_EVAL_DIGESTS))
    def test_report_csv_and_trace_bytes(self, eval_model, tmp_path, seed):
        theta, world = eval_model
        episodes = generate_dataset(world, 30, seed).episodes
        got = {}
        for policy in POLICIES:
            paths = [tmp_path / f"{policy}.{ext}" for ext in ("json", "csv", "jsonl")]
            report = evaluate(policy, theta, episodes, 1.0 / world.n_agents, seed, "srms", str(paths[2]))
            save_report(report, str(paths[0]), str(paths[1]))
            got[policy] = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
        assert got == PINNED_EVAL_DIGESTS[seed]

    def test_trace_does_not_change_the_report(self, eval_model, tmp_path):
        # 65 episodes: a full block of EVAL_BLOCK and a partial one.  The
        # traced run checks every episode against its block's rows.
        theta, world = eval_model
        episodes = generate_dataset(world, neuralnet.EVAL_BLOCK + 1, 3).episodes
        for policy in POLICIES:
            traced = evaluate(policy, theta, episodes, 0.2, 3, "srms", str(tmp_path / "t.jsonl"))
            assert evaluate(policy, theta, episodes, 0.2, 3, "srms") == traced


class TestSweep:
    def test_single_size_matches_standalone_run(self):
        from groupcomm.evalcli import sweep_message_size, train_run

        rows = sweep_message_size(
            "query", [4], case="srms", n_episodes=60, steps=25, seed=5
        )
        assert len(rows) == 1
        run = train_run(case="srms", n_episodes=60, steps=25, seed=5, q_dim=4, k_dim=16)
        n = run.dataset.world.n_agents
        rep = evaluate("when2com", run.theta, run.dataset.test_episodes, 1.0 / n, 5)
        assert rows[0]["task_acc"] == rep.acc_all
        assert rows[0]["grouping_acc"] == rep.grouping_acc
        assert rows[0]["when2com_acc"] == rep.when2com_acc

    def test_row_count_matches_sizes(self):
        from groupcomm.evalcli import sweep_message_size

        rows = sweep_message_size(
            "key", [2, 4, 8], case="srms", n_episodes=60, steps=5, seed=1
        )
        assert len(rows) == 3
        assert [r["K"] for r in rows] == [2, 4, 8]
        assert all(r["Q"] == 4 for r in rows)

    def test_rows_hold_python_ints_for_numpy_size_and_seed(self):
        # NumPy ones once reached the rows, so the table could not be saved after training.
        rows = evalcli.sweep_message_size("query", [np.int64(4)], n_episodes=60, steps=2, seed=np.int64(1))
        assert rows == evalcli.sweep_message_size("query", [4], n_episodes=60, steps=2, seed=1)
        assert type(rows[0]["size"]) is int and type(rows[0]["seed"]) is int

    def test_invalid_arguments(self):
        from groupcomm.evalcli import sweep_message_size

        with pytest.raises(ValueError):
            sweep_message_size("width", [1], n_episodes=60, steps=1, seed=0)
        with pytest.raises(ValueError):
            sweep_message_size("query", [], n_episodes=60, steps=1, seed=0)

    def test_a_bad_size_is_refused_before_any_training(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(evalcli, "train_run", lambda **kwargs: calls.append(kwargs))
        for param, name in (("query", "q_dim"), ("key", "k_dim")):
            with pytest.raises(ValueError, match=re.escape(f"PipelineConfig.{name} must be an integer >= 1, got 0")):
                evalcli.sweep_message_size(param, [4, 0], n_episodes=60, steps=1, seed=0)
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--param", "query", "--values", "4,0", "--out", str(out)]) == 1
        assert "PipelineConfig.q_dim must be an integer >= 1, got 0" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_cli_sweep_table(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = cli_main(
            [
                "sweep", "--param", "query", "--values", "1,2",
                "--episodes", "60", "--steps", "5", "--seed", "2", "--out", out,
            ]
        )
        assert code == 0
        lines = Path(out).read_text().strip().split("\n")
        assert len(lines) == 3  # header + one row per size
        assert lines[0].startswith("param,size,Q,K,seed")

    def test_cli_sweep_names_malformed_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--param", "query", "--values", "1,a", "--out", str(out)]) == 2
        assert "argument --values: expected comma-separated integers, got '1,a'" in capsys.readouterr().err
        assert not out.exists()
