"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

The six training runs behind criteria 4-6 are shared session-wide and executed
on a two-worker process pool; per-run wall times are recorded inside the
workers so the stated runtime budgets are checked against honest solo costs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Every test here is marked ``slow``, so ``pytest -m "not slow"`` skips them.
"""

import concurrent.futures
import time
from pathlib import Path

import numpy as np
import pytest

from groupcomm.commgraph import build_matching_matrix, fuse, prune
from groupcomm.densemath import Rng, softmax_row
from groupcomm.evalcli import (
    clean_world_copy,
    cli_main,
    evaluate,
    world_for_run,
)
from groupcomm.neuralnet import init_pipeline, load_checkpoint, pipeline_forward
from groupcomm.scenarios import generate_dataset
from groupcomm.simnet import ledger_from_trace, make_agents, run_episode

from helpers import fd_gradcheck, random_small_pipeline, training_job

pytestmark = pytest.mark.slow

DELTA_N5 = 1.0 / 5.0


@pytest.fixture(scope="session")
def model_zoo(tmp_path_factory):
    """Six trained models: main/randcom at seed 7, mains at 8 and 9, Q=1, Q=16."""
    base = tmp_path_factory.mktemp("zoo")
    jobs = {
        "main7": dict(seed=7),
        "randcom7": dict(seed=7, policy="randcom"),
        "main8": dict(seed=8),
        "main9": dict(seed=9),
        "q1": dict(seed=7, q_dim=1),
        "q16": dict(seed=7, q_dim=16),
    }
    zoo = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        futures = {
            name: pool.submit(training_job, str(base / f"{name}.ckpt"), **kwargs)
            for name, kwargs in jobs.items()
        }
        for name, future in futures.items():
            path, elapsed = future.result()
            theta, config = load_checkpoint(path)
            zoo[name] = {"theta": theta, "config": config, "train_seconds": elapsed}
    return zoo


@pytest.fixture(scope="session")
def eval_data():
    """Deterministic test splits per seed plus the all-clean reference split."""
    data = {}
    for seed in (7, 8, 9):
        world = world_for_run("srms", None, seed)
        dataset = generate_dataset(world, 40000, seed)
        data[seed] = {"world": world, "test": dataset.test_episodes}
    clean_world = clean_world_copy(data[7]["world"])
    data["clean7"] = generate_dataset(clean_world, 4000, 7).test_episodes
    return data


def test_criterion_1_math_core_invariants():
    """1000 randomized checks on the matching/pruning/fusion core in < 10 s."""
    rng = Rng(101)
    start = time.time()
    for _ in range(1000):
        n = 2 + rng.randint(6)
        q, k = 1 + rng.randint(4), 1 + rng.randint(8)
        w = rng.normal(q * k).reshape(q, k)
        queries = [rng.normal(q) * 2.0 for _ in range(n)]
        keys = [rng.normal(k) * 2.0 for _ in range(n)]
        m = build_matching_matrix(queries, keys, w)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-9)

        delta = 1.0 / n
        m_bar = prune(m, delta)
        survivors = m_bar[m_bar != 0.0]
        assert np.all(survivors >= delta)
        assert np.all(survivors <= 1.0)
        assert np.all(np.count_nonzero(m_bar, axis=1) >= 1)

        feats = [rng.normal(6) for _ in range(n)]
        row = m_bar[rng.randint(n)]
        expected = np.zeros(6)
        for j in range(n):
            expected = expected + row[j] * feats[j]
        assert np.all(np.abs(fuse(row, feats) - expected) < 1e-12)
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 1 PASS: 1000 math-core checks in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_gradient_correctness():
    """Max relative error vs central differences < 1e-4 over 20 configs in < 60 s."""
    rng = Rng(202)
    start = time.time()
    worst = 0.0
    wg_grad_seen = False
    for _ in range(20):
        cfg, theta, obs, labels = random_small_pipeline(rng)
        err = fd_gradcheck(theta, obs, labels)
        worst = max(worst, err)
        from groupcomm.neuralnet import pipeline_backward

        res = pipeline_forward(theta, obs, mode="training")
        grads = pipeline_backward(res.cache, theta, labels)
        if float(np.max(np.abs(grads.w_g))) > 0.0:
            wg_grad_seen = True
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 2 PASS: max FD relative error {worst:.2e} over 20 configs in {elapsed:.1f}s")
    assert worst < 1e-4
    assert wg_grad_seen
    assert elapsed < 60.0


def test_criterion_3_distributed_centralized_equivalence():
    """100 random episodes: bit-identical outputs and exactly recomputable ledgers."""
    rng = Rng(303)
    start = time.time()
    for _ in range(100):
        cfg, theta, obs, labels = random_small_pipeline(rng)
        n = len(obs)
        delta = 1.0 / n
        agents = make_agents(obs, theta)
        dist = run_episode(agents, theta, delta)
        central = pipeline_forward(theta, obs, mode="inference", delta=delta)
        np.testing.assert_array_equal(dist.rows, central.m)
        np.testing.assert_array_equal(dist.pruned_rows, central.m_bar)
        for i in range(n):
            np.testing.assert_array_equal(dist.fused[i], central.cache.fused[i])
            np.testing.assert_array_equal(dist.logits[i], central.logits[i])
        assert dist.predictions == [int(np.argmax(z)) for z in central.logits]
        assert ledger_from_trace(dist.trace, frames=dist.ledger.frames) == dist.ledger
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 3 PASS: 100 episodes bit-identical in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_4_srms_training_selection_and_task(model_zoo, eval_data):
    """Trained SRMS analog meets selection and task-accuracy targets in budget."""
    start = time.time()
    theta = model_zoo["main7"]["theta"]
    episodes = eval_data[7]["test"]
    report = evaluate("when2com", theta, episodes, DELTA_N5, seed=7)

    allnorm = evaluate("nocom", theta, eval_data["clean7"], DELTA_N5, seed=7)
    occdeg = evaluate("nocom", theta, episodes, DELTA_N5, seed=7)
    ours_clean = evaluate("when2com", theta, eval_data["clean7"], DELTA_N5, seed=7)

    randcom_theta = model_zoo["randcom7"]["theta"]
    randcom = evaluate("randcom", randcom_theta, episodes, DELTA_N5, seed=7)

    eval_seconds = time.time() - start
    budget = (
        model_zoo["main7"]["train_seconds"]
        + model_zoo["randcom7"]["train_seconds"]
        + eval_seconds
    )
    print(
        f"\nACCEPTANCE 4: when2com_acc={report.when2com_acc:.3f} (>=0.85) "
        f"grouping_acc={report.grouping_acc:.3f} (>=0.90) "
        f"acc_degraded={report.acc_degraded:.3f} "
        f"allnorm={allnorm.acc_all:.3f} occdeg={occdeg.acc_degraded:.3f} "
        f"randcom_degraded={randcom.acc_degraded:.3f} runtime={budget:.0f}s (<600s)"
    )
    assert report.when2com_acc >= 0.85
    assert report.grouping_acc is not None and report.grouping_acc >= 0.90
    assert report.acc_degraded >= allnorm.acc_all - 0.05
    assert report.acc_degraded >= randcom.acc_degraded + 0.10
    assert budget < 600.0
    # Communication is unnecessary on all-clean data: accuracies agree within
    # 2 points, and the majority of agents establish zero inter-agent links.
    assert abs(ours_clean.acc_all - allnorm.acc_all) < 0.02
    assert ours_clean.when2com_acc > 0.5
    print("ACCEPTANCE 4 PASS")


def test_criterion_5_bandwidth_trend(model_zoo, eval_data):
    """links/agent < 1 and strict MBpf ordering on three distinct seeds."""
    for seed, name in ((7, "main7"), (8, "main8"), (9, "main9")):
        theta = model_zoo[name]["theta"]
        episodes = eval_data[seed]["test"][:1000]
        ours = evaluate("when2com", theta, episodes, DELTA_N5, seed=seed)
        forced = evaluate("forced_top1", theta, episodes, DELTA_N5, seed=seed)
        full = evaluate("fully_connected", theta, episodes, DELTA_N5, seed=seed)
        print(
            f"\nACCEPTANCE 5 seed {seed}: links={ours.links_per_agent:.3f} (<1) "
            f"mbpf {ours.mbpf:.6g} < {forced.mbpf:.6g} < {full.mbpf:.6g}"
        )
        assert ours.links_per_agent < 1.0
        assert ours.mbpf < forced.mbpf < full.mbpf
    print("ACCEPTANCE 5 PASS")


def test_criterion_6_query_size_ablation(model_zoo, eval_data):
    """Grouping accuracy non-decreasing across query sizes {1, 4, 16} at K=16."""
    episodes = eval_data[7]["test"]
    grouping = {}
    for q, name in ((1, "q1"), (4, "main7"), (16, "q16")):
        theta = model_zoo[name]["theta"]
        assert theta.w_g.shape == (q, 16)
        rep = evaluate("when2com", theta, episodes, DELTA_N5, seed=7)
        grouping[q] = rep.grouping_acc
    train_seconds = (
        model_zoo["q1"]["train_seconds"]
        + model_zoo["main7"]["train_seconds"]
        + model_zoo["q16"]["train_seconds"]
    )
    print(
        f"\nACCEPTANCE 6: grouping Q1={grouping[1]:.3f} Q4={grouping[4]:.3f} "
        f"Q16={grouping[16]:.3f}; three trainings {train_seconds:.0f}s (<1800s)"
    )
    assert grouping[16] >= grouping[1]
    assert grouping[4] >= grouping[1] - 0.02
    assert grouping[16] >= grouping[4] - 0.02
    assert train_seconds < 1800.0
    print("ACCEPTANCE 6 PASS")


def test_criterion_7_cli_determinism(tmp_path):
    """train + eval with a fixed seed produce byte-identical artifacts twice."""
    artifacts = []
    for tag in ("run1", "run2"):
        ckpt = str(tmp_path / f"{tag}.ckpt")
        report = str(tmp_path / f"{tag}.json")
        code = cli_main(
            [
                "train", "--case", "srms", "--episodes", "400", "--steps", "300",
                "--seed", "11", "--out", ckpt, "--report", report,
            ]
        )
        assert code == 0
        eval_report = str(tmp_path / f"{tag}.eval.json")
        code = cli_main(
            [
                "eval", "--checkpoint", ckpt, "--policy", "when2com",
                "--case", "srms", "--episodes", "400", "--seed", "11",
                "--report", eval_report,
            ]
        )
        assert code == 0
        artifacts.append(
            tuple(
                Path(p).read_bytes()
                for p in (
                    ckpt,
                    ckpt + ".log.jsonl",
                    report,
                    report[:-5] + ".csv",
                    eval_report,
                    eval_report[:-5] + ".csv",
                )
            )
        )
    assert artifacts[0] == artifacts[1]
    print("\nACCEPTANCE 7 PASS: byte-identical checkpoint, log, report, and CSV across reruns")
