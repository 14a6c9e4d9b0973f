"""The benchmark's three workloads: ``datagen``, ``train`` and ``eval``.

Each workload mirrors one batch job of the groupcomm pipeline (``gen-data``,
``train``, ``eval``).  A workload object builds its inputs from the seed in
``setup``, then runs units of work (a round, a training run, an evaluation
round) until the benchmark's time is up, and checks every unit's outputs
outside the timed region.  ``attempted``/``failed`` count checked operations;
their ratio is the workload's error rate.

Every call into the program goes through a module attribute
(``scenarios.generate_dataset``), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from groupcomm import densemath, evalcli, neuralnet, scenarios, simnet

BENCH_DIR = Path(__file__).resolve().parent

# On a shared host the same code runs faster or slower for seconds at a time
# as neighbours load the machine (0.84x to 1.6x of nominal on a shared 2-core
# Xeon).  Every timed call is therefore bracketed by a fixed probe that does
# not call groupcomm, and scaled by the probe's nominal time over its measured
# time, so figures read as if the machine ran at nominal speed.
PROBE_NOMINAL_S = 0.01
_PROBE_X = np.linspace(0.0, 1.0, 32)
_PROBE_W = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy products."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1100):
        hidden = np.maximum(_PROBE_W @ _PROBE_X + 0.5, 0.0)
        acc += float(np.outer(hidden[:16], _PROBE_X)[i % 16, 3]) + (i * 7) % 13
        acc += {"i": i}["i"] * 0.5
    return time.perf_counter() - t0


def sha256_of(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Workload:
    """Shared bookkeeping: operation counts, per-unit rates and digests."""

    name = ""

    def __init__(self, seed: int, workdir: Path, mini: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.mini = mini
        self.attempted = 0
        self.failed = 0
        self.rates: list[float] = []  # episodes per second per unit, at nominal machine speed
        self.raw_rates: list[float] = []  # the same, unscaled
        self.speeds: list[float] = []  # machine speed around each timed call (nominal = 1)
        self.digests: dict[str, str] = {}
        self._probe: float | None = None

    def timed(self, fn, *args):
        """Call ``fn``; return its result, wall seconds, and seconds at nominal machine speed.

        The scale is the probe's nominal time over the mean of the probes run
        just before and just after the call.
        """
        before = probe() if self._probe is None else self._probe
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self._probe = probe()
        speed = 2 * PROBE_NOMINAL_S / (before + self._probe)
        self.speeds.append(speed)
        return result, elapsed, elapsed * speed

    def add_unit(self, episodes: int, raw_s: float, scaled_s: float) -> None:
        self.rates.append(episodes / scaled_s)
        self.raw_rates.append(episodes / raw_s)

    def check(self) -> None:
        """Checks made once, after the timed units."""

    def rate(self) -> float:
        return statistics.median(self.rates)

    def run_for(self, seconds: float, min_units: int = 1) -> None:
        """Run units until ``seconds`` have passed.

        A unit that raises counts its operations (at least one) as failed.
        """
        start = time.perf_counter()
        k = 0
        while k < min_units or time.perf_counter() - start < seconds:
            attempted, done = self.attempted, len(self.rates)
            try:
                self.unit(k)
            except Exception:
                traceback.print_exc()
                del self.rates[done:], self.raw_rates[done:]
                self.failed += max(self.attempted - attempted, 1)
                self.attempted = max(self.attempted, attempted + 1)
            k += 1
        if not self.rates:
            raise RuntimeError(f"no unit of {self.name} completed")


class Datagen(Workload):
    """``generate_dataset`` over an equal mix of the four cases, then save and load."""

    name = "datagen"
    QUALITY_ROUNDS = 20  # rounds always run; accuracy is taken over these

    def __init__(self, seed, workdir, mini=False):
        super().__init__(seed, workdir, mini)
        self.per_case = 10 if mini else 50
        self.gen_ms = {case: [] for case in scenarios.CASES}
        self.save_ms: list[float] = []
        self.load_ms: list[float] = []
        self.split_rates: list[list[float]] = []  # generate, save, load episodes/s
        self.kb_per_episode = 0.0
        self.hits = 0
        self.agents = 0

    def setup(self):
        self.worlds = {case: evalcli.world_for_run(case, None, self.seed) for case in scenarios.CASES}

    def unit(self, k: int):
        raw = scaled = 0.0
        split = [0.0, 0.0, 0.0]  # generate, save, load seconds at nominal speed
        paths = []
        for ci, case in enumerate(scenarios.CASES):
            path = self.workdir / f"{case}.json"
            (data, back, times), elapsed, at_nominal = self.timed(
                self._round_trip, case, path, self.seed * 1_000_003 + 4 * k + ci
            )
            raw, scaled = raw + elapsed, scaled + at_nominal
            split = [a + b * at_nominal / elapsed for a, b in zip(split, times)]
            self.gen_ms[case].append(times[0] / self.per_case * 1e3)
            self.save_ms.append(times[1] / self.per_case * 1e3)
            self.load_ms.append(times[2] / self.per_case * 1e3)
            self.attempted += self.per_case
            self.failed += _round_trip_mismatches(data, back)
            if k < self.QUALITY_ROUNDS:
                self._score(data)
            paths.append(path)
        n = self.per_case * len(scenarios.CASES)
        self.add_unit(n, raw, scaled)
        self.split_rates.append([n / t for t in split])
        if k == 0:
            self.digests["dataset"] = sha256_of(*paths)
            self.kb_per_episode = sum(p.stat().st_size for p in paths) / n / 1e3

    def _round_trip(self, case, path, seed):
        t0 = time.perf_counter()
        data = scenarios.generate_dataset(self.worlds[case], self.per_case, seed)
        t1 = time.perf_counter()
        scenarios.save_dataset(str(path), data)
        t2 = time.perf_counter()
        back = scenarios.load_dataset(str(path))
        return data, back, (t1 - t0, t2 - t1, time.perf_counter() - t2)

    def _score(self, data):
        """Nearest-prototype labels from the content half, without communication."""
        world = data.world
        protos = world.prototypes[:, world.scene_dim :]
        for ep in data.episodes:
            guess = np.argmax(ep.observations[:, world.scene_dim :] @ protos.T, axis=1)
            self.hits += int(np.sum(guess == np.asarray(ep.labels)))
            self.agents += len(ep.labels)

    def summary(self) -> dict:
        gen, save, load = (statistics.median(r[i] for r in self.split_rates) for i in range(3))
        return {
            "accuracy": self.hits / self.agents,
            "metrics": {
                "gen_episodes_per_s": (gen, "episodes/s"),
                "save_episodes_per_s": (save, "episodes/s"),
                "load_episodes_per_s": (load, "episodes/s"),
                "json_kb_per_episode": (self.kb_per_episode, "KB"),
            },
            "costs": {f"gen_ms_per_episode.{case}": (statistics.median(v), "ms") for case, v in self.gen_ms.items()}
            | {
                "save_ms_per_episode": (statistics.median(self.save_ms), "ms"),
                "load_ms_per_episode": (statistics.median(self.load_ms), "ms"),
            },
        }


def _round_trip_mismatches(a, b) -> int:
    """Episodes of ``a`` that did not survive save/load exactly (all if the world or split differs)."""
    wa, wb = a.world, b.world
    same_world = all(
        getattr(wa, f) == getattr(wb, f)
        for f in ("n_agents", "obs_dim", "n_classes", "case", "degrade_prob", "noise_sigma", "overlap_frac", "scene_dim")
    ) and np.array_equal(wa.prototypes, wb.prototypes) and np.array_equal(wa.scene_codes, wb.scene_codes)
    same_split = (a.train_idx, a.val_idx, a.test_idx) == (b.train_idx, b.val_idx, b.test_idx)
    if not (same_world and same_split and len(a.episodes) == len(b.episodes)):
        return len(a.episodes)
    return sum(
        not (
            np.array_equal(x.observations, y.observations)
            and (x.labels, x.degraded, x.needs_comm, x.gt_support) == (y.labels, y.degraded, y.needs_comm, y.gt_support)
        )
        for x, y in zip(a.episodes, b.episodes)
    )


class Train(Workload):
    """``neuralnet.train`` with the default config on an srms N=5 dataset.

    A real run validates 4000 episodes every 500 steps, about 12% of its
    time.  A timed unit is a 20-step run that validates 160 episodes once,
    which keeps that share and is short enough to pair with the speed probe.
    Accuracy, the checkpoint and the log come from one 200-step run that
    validates 1600 episodes, made after the timed units: by 200 steps the
    validation accuracy varies across seeds by under 1%.  The training split
    only feeds random batches, so it is kept small.
    """

    name = "train"
    TRAIN_EPISODES, VAL_EPISODES = 2000, 1600
    UNIT_STEPS, CHECK_STEPS = 20, 200

    def __init__(self, seed, workdir, mini=False):
        super().__init__(seed, workdir, mini)
        self.step_ms: list[float] = []
        self.first_log: list[dict] | None = None
        self.val_task_acc = 0.0

    def setup(self):
        n_train, n_val = (80, 10) if self.mini else (self.TRAIN_EPISODES, self.VAL_EPISODES)
        world = evalcli.world_for_run("srms", None, self.seed)
        data = scenarios.generate_dataset(world, n_train + n_val, self.seed)
        self.dataset = replace(
            data, train_idx=list(range(n_train)), val_idx=list(range(n_train, n_train + n_val)), test_idx=[]
        )
        unit_val = n_val if self.mini else n_val * self.UNIT_STEPS // self.CHECK_STEPS
        self.unit_dataset = replace(self.dataset, val_idx=self.dataset.val_idx[:unit_val])
        steps = 10 if self.mini else self.UNIT_STEPS
        self.unit_config = replace(neuralnet.TrainConfig(), steps=steps, eval_every=steps)

    def _train(self, config, dataset):
        """Train from the seed; count the steps whose logged loss is not finite as failed."""
        theta, log = neuralnet.train(config, dataset, densemath.Rng(self.seed))
        self.attempted += config.steps
        self.failed += config.steps - sum(math.isfinite(rec["loss"]) for rec in log if "loss" in rec)
        return theta, log

    def unit(self, k: int):
        (_, log), elapsed, at_nominal = self.timed(self._train, self.unit_config, self.unit_dataset)
        steps = self.unit_config.steps
        self.add_unit(steps * self.unit_config.batch_size, elapsed, at_nominal)
        self.step_ms.append(elapsed / steps * 1e3)
        if k == 0:
            self.first_log = log
        elif log != self.first_log:  # training must be bit-reproducible for a seed
            self.failed += steps

    def check(self):
        config = replace(neuralnet.TrainConfig(), steps=self.CHECK_STEPS, eval_every=self.CHECK_STEPS)
        theta, log = self._train(config, self.dataset)
        self.val_task_acc = [rec["val_task_acc"] for rec in log if "val_task_acc" in rec][-1]
        ckpt, log_path = self.workdir / "train.ckpt", self.workdir / "train.log.jsonl"
        neuralnet.save_checkpoint(str(ckpt), theta, config.pipeline)
        log_path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log))
        self.digests["checkpoint"] = sha256_of(ckpt)
        self.digests["log"] = sha256_of(log_path)

    def summary(self) -> dict:
        return {
            "accuracy": self.val_task_acc,
            "metrics": {
                "train_episodes_per_s": (self.rate(), "episodes/s"),
                "val_task_acc": (self.val_task_acc, "fraction"),
            },
            "costs": {"ms_per_step": (statistics.median(self.step_ms), "ms")},
        }


class Eval(Workload):
    """``evalcli.evaluate`` for all six policies with the fixed checkpoint.

    ``when2com`` dumps its message trace (the ``eval --trace`` path).  The
    episodes come from the world the checkpoint was trained on; only the
    episode seed varies.  A unit evaluates the same 100 episodes under every
    policy, so every unit must repeat the first one's reports and trace.
    """

    name = "eval"
    EPISODES, SAMPLE = 100, 50

    def __init__(self, seed, workdir, mini=False):
        super().__init__(seed, workdir, mini)
        self.n_episodes, self.sample = (10, 5) if mini else (self.EPISODES, self.SAMPLE)
        self.policy_us = {policy: [] for policy in evalcli.POLICIES}
        self.trace_path = workdir / "when2com.trace.jsonl"
        self.first: dict | None = None

    def setup(self):
        recipe = json.loads((BENCH_DIR / "eval_model.json").read_text())
        path = BENCH_DIR / recipe["checkpoint"]
        if sha256_of(path) != recipe["sha256"]:
            raise RuntimeError(f"{path} does not match the SHA-256 recorded in eval_model.json")
        self.digests["checkpoint"] = recipe["sha256"]
        self.theta, _ = neuralnet.load_checkpoint(str(path))
        world = evalcli.world_for_run("srms", None, recipe["run_seed"])
        self.episodes = scenarios.generate_dataset(world, self.n_episodes, self.seed).episodes
        self.delta = 1.0 / world.n_agents

    def unit(self, k: int):
        reports = {}
        raw = scaled = 0.0
        for policy in evalcli.POLICIES:
            trace = str(self.trace_path) if policy == "when2com" else None
            reports[policy], elapsed, at_nominal = self.timed(
                evalcli.evaluate, policy, self.theta, self.episodes, self.delta, self.seed, "srms", trace
            )
            raw, scaled = raw + elapsed, scaled + at_nominal
            self.policy_us[policy].append(elapsed / self.n_episodes * 1e6)
        self.add_unit(len(evalcli.POLICIES) * self.n_episodes, raw, scaled)
        self.attempted += len(evalcli.POLICIES) * self.n_episodes
        trace_digest = sha256_of(self.trace_path)
        if k == 0:
            self.first = reports
            self.digests["trace"] = trace_digest
            self.digests["report"] = self._save_reports(reports)
        else:
            self.failed += self.n_episodes * sum(
                reports[p].to_dict() != self.first[p].to_dict() for p in evalcli.POLICIES
            )
            self.failed += self.n_episodes * (trace_digest != self.digests["trace"])

    def _save_reports(self, reports) -> str:
        paths = []
        for policy, report in reports.items():
            json_path = self.workdir / f"{policy}.report.json"
            csv_path = self.workdir / f"{policy}.report.csv"
            evalcli.save_report(report, str(json_path), str(csv_path))
            paths += [json_path, csv_path]
        return sha256_of(*paths)

    def check(self):
        """Audit the when2com pass: trace, closed form, and distributed against centralized."""
        report = self.first["when2com"]
        failed = 0
        ledger = simnet.ledger_from_trace(simnet.load_trace(str(self.trace_path)), frames=self.n_episodes)
        if simnet.mbpf(ledger) != report.mbpf:
            failed = self.n_episodes
        # Closed form: N(N-1) queries of Q reals plus one F-real transfer per
        # surviving link, 4 bytes per real, with links from centralized pruning.
        n = len(self.episodes[0].labels)
        q_dim, f_dim = self.theta.w_g.shape[0], self.theta.theta_e.out_dim
        links = 0
        mismatched = 0
        for idx, ep in enumerate(self.episodes):
            central = neuralnet.pipeline_forward(self.theta, list(ep.observations), mode="inference", delta=self.delta)
            links += int(np.count_nonzero(central.m_bar) - np.count_nonzero(np.diag(central.m_bar)))
            if idx < self.sample:
                agents = simnet.make_agents(list(ep.observations), self.theta)
                dist = simnet.run_episode(agents, self.theta, self.delta)
                same = np.array_equal(dist.pruned_rows, central.m_bar) and all(
                    np.array_equal(a, b) for a, b in zip(dist.logits, central.logits)
                )
                same = same and dist.predictions == [int(np.argmax(z)) for z in central.logits]
                mismatched += not same
        closed = (self.n_episodes * n * (n - 1) * q_dim * 4 + links * f_dim * 4) / self.n_episodes / 1e6
        if closed != report.mbpf:
            failed = self.n_episodes
        self.failed += max(failed, mismatched)

    def summary(self) -> dict:
        w2c = self.first["when2com"]
        return {
            "accuracy": w2c.acc_all,
            "metrics": {
                "eval_episodes_per_s": (self.rate(), "episodes/s"),
                "acc_all": (w2c.acc_all, "fraction"),
                "mbpf": (w2c.mbpf, "MB/frame"),
            },
            "costs": {f"us_per_episode.{p}": (statistics.median(v), "us") for p, v in self.policy_us.items()},
        }


WORKLOADS = {cls.name: cls for cls in (Datagen, Train, Eval)}
