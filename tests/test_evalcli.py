"""Selection metrics, policy execution, reports, and the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from groupcomm.densemath import Rng
from groupcomm.evalcli import (
    CSV_COLUMNS,
    POLICIES,
    build_parser,
    check_output_paths,
    cli_main,
    decisions_from_rows,
    evaluate,
    grouping_accuracy,
    run_policy_episode,
    save_report,
    when2com_accuracy,
    world_for_run,
)
from groupcomm import evalcli, neuralnet
from groupcomm.neuralnet import (
    HANDSHAKE_POLICIES,
    PipelineConfig,
    evaluate_task_accuracy,
    init_pipeline,
    pipeline_forward,
    save_checkpoint,
)
from groupcomm.scenarios import (
    Episode,
    generate_dataset,
    load_dataset,
    make_world,
    save_dataset,
)

from helpers import one_episode


def tiny_theta(seed=0):
    cfg = PipelineConfig(d_obs=32, q_dim=4, k_dim=16, f_dim=32, n_classes=10, hidden=64)
    return init_pipeline(cfg, Rng(seed))


def fake_episode(needs, gt):
    n = len(needs)
    return Episode(
        observations=np.zeros((n, 4)),
        labels=[0] * n,
        degraded=list(needs),
        needs_comm=list(needs),
        gt_support=[frozenset(s) for s in gt],
    )


class TestWhen2comAccuracy:
    def test_all_negative_case(self):
        eps = [fake_episode([False, False], [set(), set()])]
        assert when2com_accuracy(eps, [[False, False]]) == 1.0

    def test_complement_decisions(self):
        eps = [fake_episode([True, False], [{1}, set()])]
        assert when2com_accuracy(eps, [[False, True]]) == 0.0

    def test_coin_flip_statistics(self):
        world = make_world("srms", degrade_prob=0.5, rng=Rng(1))
        gen = Rng(2)
        episodes = [one_episode(world, gen) for _ in range(2000)]
        coin = Rng(3)
        decisions = [
            [coin.uniform_scalar() < 0.5 for _ in range(world.n_agents)] for _ in episodes
        ]
        acc = when2com_accuracy(episodes, decisions)
        assert abs(acc - 0.5) < 0.02

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            when2com_accuracy([fake_episode([True], [{0}])], [])

    def test_empty_episode_list_rejected(self):
        # It used to score no decisions as 0.0, a plausible but wrong number.
        with pytest.raises(ValueError, match="when2com_accuracy: episodes is empty"):
            when2com_accuracy([], [])


class TestGroupingAccuracy:
    def test_perfect_selection(self):
        eps = [fake_episode([True, False, False], [{1}, set(), set()])]
        rows = [np.array([[0.0, 0.9, 0.0], [0, 1, 0], [0, 0, 1]])]
        top, full = grouping_accuracy(eps, rows)
        assert top == 1.0 and full == 1.0

    def test_empty_denominator_reported_absent(self):
        eps = [fake_episode([False, False], [set(), set()])]
        rows = [np.eye(2)]
        assert grouping_accuracy(eps, rows) == (None, None)
        # Needy agents without links also stay out of the denominator.
        eps = [fake_episode([True, False], [{1}, set()])]
        assert grouping_accuracy(eps, [np.eye(2)]) == (None, None)

    def test_random_selection_hits_one_in_four(self):
        world = make_world("srms", degrade_prob=1.0, rng=Rng(4))
        gen = Rng(5)
        pick = Rng(6)
        episodes, rows = [], []
        n = world.n_agents
        for _ in range(10000):
            ep = one_episode(world, gen)
            episodes.append(ep)
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
        eps = [fake_episode([True, False], [{1}, set()])] * 10
        with pytest.raises(ValueError, match="10 episodes vs 3 row sets"):
            grouping_accuracy(eps, [np.ones((2, 2))] * 3)

    def test_set_rate_stricter_than_top1(self):
        eps = [fake_episode([True, False, False], [{1}, set(), set()])]
        # Top link is correct but a second link leaves the support set.
        rows = [np.array([[0.0, 0.6, 0.3], [0, 1, 0], [0, 0, 1]])]
        top, full = grouping_accuracy(eps, rows)
        assert top == 1.0 and full == 0.0


@pytest.fixture(scope="module")
def world_and_episodes():
    world = make_world("srms", degrade_prob=0.5, rng=Rng(7))
    gen = Rng(8)
    episodes = [one_episode(world, gen) for _ in range(30)]
    return world, episodes


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
            res = run_policy_episode(policy, theta, obs, delta, Rng(s))
            np.testing.assert_array_equal(res.rows, central.m)
            np.testing.assert_array_equal(res.pruned_rows, central.m_bar)
            np.testing.assert_array_equal(np.stack(res.fused), central.cache.fused)
            np.testing.assert_array_equal(np.stack(res.logits), central.logits)
            assert res.predictions == [int(np.argmax(z)) for z in central.logits]
        # A stack of episodes draws its rows from one rng in episode order and
        # matches single-episode calls and the simulator's agents bit for bit.
        stack = np.stack([ep.observations for ep in episodes])
        stacked = pipeline_forward(theta, stack, mode="inference", delta=delta, policy=policy, rng=Rng(3))
        single_rng, sim_rng = Rng(3), Rng(3)
        for e, ep in enumerate(episodes):
            single = pipeline_forward(theta, stack[e], mode="inference", delta=delta, policy=policy, rng=single_rng)
            for field in ("logits", "m", "m_bar"):
                np.testing.assert_array_equal(getattr(stacked, field)[e], getattr(single, field))
            np.testing.assert_array_equal(stacked.cache.fused[e], single.cache.fused)
            res = run_policy_episode(policy, theta, list(ep.observations), delta, sim_rng)
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

        def record(policy, n, rng, real=neuralnet.fixed_policy_rows):
            rows = real(policy, n, rng)
            drawn.append(rows)
            return rows

        monkeypatch.setattr(neuralnet, "fixed_policy_rows", record)
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
        res = run_policy_episode(policy, theta, list(obs), delta, rng)
        links = np.count_nonzero(res.pruned_rows) - np.count_nonzero(np.diag(res.pruned_rows))
        queries = n * (n - 1) if policy in HANDSHAKE_POLICIES else 0
        assert res.ledger.counted_bytes == queries * cfg.q_dim * 4 + links * cfg.f_dim * 4
        assert res.ledger.inter_agent_links == links
        assert res.ledger.frames == 1

    def test_when2com_links_bounded(self, world_and_episodes):
        world, episodes = world_and_episodes
        rep = evaluate("when2com", tiny_theta(), episodes, 1.0 / world.n_agents, seed=0)
        assert rep.links_per_agent <= world.n_agents - 1

    def test_policy_traces_recompute_ledger(self, world_and_episodes):
        from groupcomm import simnet

        world, episodes = world_and_episodes
        rng = Rng(9)
        for policy in ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected"):
            res = run_policy_episode(policy, tiny_theta(), list(episodes[0].observations), 0.2, rng)
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

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate("nocom", tiny_theta(), [], 0.2, seed=0)

    @pytest.mark.parametrize("delta", [-0.1, 1.5, float("nan")])
    def test_delta_outside_unit_interval_rejected(self, world_and_episodes, delta):
        _, episodes = world_and_episodes
        with pytest.raises(ValueError, match=re.escape(f"delta must lie in [0, 1], got {delta}")):
            evaluate("when2com", tiny_theta(), episodes, delta, seed=0)

    def test_mixed_agent_counts_rejected_before_any_episode_runs(self, monkeypatch):
        # 10 srms (N=5) then 10 mrms (N=3) episodes under catall used to
        # report links_per_agent 2.6 (260 links over 20 frames of 5 agents)
        # where 260 links over the 80 agent-frames is 3.25.
        five = generate_dataset(make_world("srms", rng=Rng(1)), 10, seed=1).episodes
        three = generate_dataset(make_world("mrms", n_agents=3, rng=Rng(2)), 10, seed=2).episodes
        episodes_run = []
        monkeypatch.setattr(evalcli, "run_policy_episode", lambda *args: episodes_run.append(args))
        with pytest.raises(ValueError, match="episode 10 has 3 agents, but episode 0 has 5"):
            evaluate("catall", tiny_theta(), five + three, 0.2, seed=0)
        assert episodes_run == []


class TestReports:
    def test_csv_schema(self, tmp_path):
        world = make_world("srms", rng=Rng(10))
        gen = Rng(11)
        episodes = [one_episode(world, gen) for _ in range(12)]
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
        world = make_world("srms", rng=Rng(12))
        gen = Rng(13)
        episodes = [one_episode(world, gen) for _ in range(10)]
        paths = []
        for tag in ("a", "b"):
            rep = evaluate("randcom", tiny_theta(), episodes, 0.2, seed=7)
            jp = str(tmp_path / f"{tag}.json")
            cp = str(tmp_path / f"{tag}.csv")
            save_report(rep, jp, cp)
            paths.append((jp, cp))
        assert Path(paths[0][0]).read_bytes() == Path(paths[1][0]).read_bytes()
        assert Path(paths[0][1]).read_bytes() == Path(paths[1][1]).read_bytes()


class TestCli:
    def test_eval_requires_checkpoint(self, capsys):
        code = cli_main(["eval"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_main(["train", "--nope"]) == 2

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

    def test_eval_accepts_delta_at_both_ends(self):
        for text in ("0", "1", "1e-3"):
            args = build_parser().parse_args(["eval", "--checkpoint", "m.ckpt", "--delta", text])
            assert args.delta == float(text)

    @pytest.mark.parametrize(
        "labels, message",
        [([0, 0, 0], "episode 2 labels has 3 entries, expected 5"), ([99] * 5, "episode 2 label 99 is not")],
    )
    def test_eval_rejects_dataset_with_bad_labels(self, tmp_path, capsys, labels, message):
        data = tmp_path / "d.json"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        doc = json.loads(data.read_text())
        doc["episodes"][2]["labels"] = labels
        data.write_text(json.dumps(doc))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["splits"].update(test=[999]), "splits.test index 999 is not an integer in [0, 40)"),
            (lambda doc: doc["splits"].update(test=[0, 0, 0, 0]), "episode 0 is listed twice in splits.test"),
            (lambda doc: doc["world"].update(case="zzz"), "world case 'zzz' is not one of"),
            (lambda doc: doc["episodes"][37].update(needs_comm=[True] * 5), "episode 37 needs_comm["),
        ],
    )
    def test_eval_rejects_dataset_with_bad_split_world_or_ground_truth(self, tmp_path, capsys, edit, message):
        # Each edit used to run to a report: an index error naming nothing, one
        # episode scored four times, an unknown case, or a moved when2com_acc.
        data = tmp_path / "d.json"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        doc = json.loads(data.read_text())
        edit(doc)
        data.write_text(json.dumps(doc))
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
        data = tmp_path / "d.json"
        assert cli_main(["gen-data", "--episodes", "40", "--seed", "3", "--out", str(data)]) == 0
        doc = json.loads(data.read_text())
        doc["world"][field] = value
        data.write_text(json.dumps(doc))
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        report = tmp_path / "ev.json"
        code = cli_main(["eval", "--checkpoint", ckpt, "--data", str(data), "--report", str(report)])
        assert code == 1
        assert f"{data}: {message}" in capsys.readouterr().err
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

    def test_train_and_eval_never_import_orjson(self, tmp_path):
        # save_dataset and load_dataset import orjson when they run, so that
        # training and evaluation of data in memory, which never save or load
        # a dataset file, do not pay its import time and memory (eval --data
        # loads it).  The save at the end shows the check can fail.
        script = f"""
import sys
from groupcomm import evalcli, neuralnet, scenarios
from groupcomm.densemath import Rng

world = evalcli.world_for_run("srms", None, 3)
data = scenarios.generate_dataset(world, 40, seed=3)
config = neuralnet.TrainConfig(steps=4, batch_size=2, eval_every=2)
theta, _ = neuralnet.train(config, data, Rng(3))
neuralnet.save_checkpoint({str(tmp_path / "m.ckpt")!r}, theta, config.pipeline)
theta, _ = neuralnet.load_checkpoint({str(tmp_path / "m.ckpt")!r})
for policy in neuralnet.POLICIES:
    evalcli.evaluate(policy, theta, data.episodes[:10], 0.2, seed=3, trace_path={str(tmp_path / "t.jsonl")!r})
assert "orjson" not in sys.modules, "train or eval imported orjson"
scenarios.save_dataset({str(tmp_path / "d.json")!r}, data)
assert "orjson" in sys.modules, "save_dataset did not import orjson"
"""
        env = dict(os.environ, PYTHONPATH=str(Path(evalcli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

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
        assert decisions_from_rows(rows) == [False, True]

    def test_decisions_ignore_the_diagonal_only(self):
        rows = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.1, 0.9]])
        decisions = decisions_from_rows(rows)
        assert decisions == [False, False, True]
        assert all(type(d) is bool for d in decisions)
        assert decisions_from_rows(np.eye(1)) == [False]
        # The input rows are left as they are.
        assert rows[0, 0] == 0.5


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

    def test_block_head_pass_matches_per_episode_heads(self, eval_model, tmp_path, monkeypatch):
        # 65 episodes: a full block of EVAL_BLOCK and a partial one.  Dropping
        # the block's heads makes each episode run its own head pass; every
        # report and trace byte must stay the same.
        theta, world = eval_model
        episodes = generate_dataset(world, neuralnet.EVAL_BLOCK + 1, 4).episodes
        calls = []

        def per_episode(policy, theta, observations, delta, rng, heads=None, real=evalcli.run_policy_episode):
            calls.append(heads is not None)
            return real(policy, theta, observations, delta, rng)

        for policy in POLICIES:
            paths = [tmp_path / f"{policy}.{side}.jsonl" for side in ("block", "alone")]
            block = evaluate(policy, theta, episodes, 0.2, 4, "srms", str(paths[0]))
            with monkeypatch.context() as patch:
                patch.setattr(evalcli, "run_policy_episode", per_episode)
                alone = evaluate(policy, theta, episodes, 0.2, 4, "srms", str(paths[1]))
            assert block.to_dict() == alone.to_dict()
            assert paths[0].read_bytes() == paths[1].read_bytes()
        assert calls == [True] * len(POLICIES) * len(episodes)

    def test_trace_does_not_change_the_report(self, eval_model, tmp_path):
        theta, world = eval_model
        episodes = generate_dataset(world, 10, 3).episodes
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

    def test_invalid_arguments(self):
        from groupcomm.evalcli import sweep_message_size

        with pytest.raises(ValueError):
            sweep_message_size("width", [1], n_episodes=60, steps=1, seed=0)
        with pytest.raises(ValueError):
            sweep_message_size("query", [], n_episodes=60, steps=1, seed=0)

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
