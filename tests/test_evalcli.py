"""Selection metrics, policy execution, reports, and the command-line interface."""

import json
import os
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
    generate_episode,
    load_dataset,
    make_world,
    save_dataset,
)


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
        gt_support=[set(s) for s in gt],
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
        episodes = [generate_episode(world, gen) for _ in range(2000)]
        coin = Rng(3)
        decisions = [
            [coin.uniform_scalar() < 0.5 for _ in range(world.n_agents)] for _ in episodes
        ]
        acc = when2com_accuracy(episodes, decisions)
        assert abs(acc - 0.5) < 0.02

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            when2com_accuracy([fake_episode([True], [{0}])], [])


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
            ep = generate_episode(world, gen)
            episodes.append(ep)
            row = np.zeros((n, n))
            for i in range(n):
                if ep.needs_comm[i]:
                    j = pick.randint(n - 1)
                    row[i, j if j < i else j + 1] = 1.0
            rows.append(row)
        top, _ = grouping_accuracy(episodes, rows)
        assert abs(top - 0.25) < 0.02

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
    episodes = [generate_episode(world, gen) for _ in range(30)]
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


class TestReports:
    def test_csv_schema(self, tmp_path):
        world = make_world("srms", rng=Rng(10))
        gen = Rng(11)
        episodes = [generate_episode(world, gen) for _ in range(12)]
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
        episodes = [generate_episode(world, gen) for _ in range(10)]
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

    @pytest.mark.parametrize("policy, delta", [("nocom", "-0.1"), ("when2com", "1.5")])
    def test_eval_rejects_delta_outside_unit_interval(self, tmp_path, capsys, monkeypatch, policy, delta):
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, tiny_theta(), PipelineConfig())
        episodes_run = []
        monkeypatch.setattr(evalcli, "run_policy_episode", lambda *args: episodes_run.append(args))
        report = tmp_path / "ev.json"
        argv = ["eval", "--checkpoint", ckpt, "--episodes", "20", "--policy", policy, "--delta", delta]
        assert cli_main(argv + ["--report", str(report)]) == 1
        assert f"delta must lie in [0, 1], got {float(delta)}" in capsys.readouterr().err
        assert episodes_run == []
        assert not report.exists()

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

    def test_module_entry_point_runs_without_warnings(self):
        env = dict(os.environ, PYTHONPATH=str(Path(evalcli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "groupcomm.evalcli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_missing_checkpoint_file_is_diagnostic_error(self, tmp_path, capsys):
        code = cli_main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestDecisions:
    def test_decisions_from_rows(self):
        rows = np.array([[1.0, 0.0], [0.4, 0.6]])
        assert decisions_from_rows(rows) == [False, True]


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
