"""Selection metrics, baseline communication policies, sweeps, and the CLI.

Policies
--------
``when2com``        full learned handshake with delta-pruned fusion;
``nocom``           no communication, every agent decodes its own feature;
``randcom``         each agent pulls one uniformly random other agent;
``catall``          each agent pulls everyone and fuses the plain mean;
``forced_top1``     handshake runs, the diagonal is masked, and the best
                    off-diagonal supporter is always selected (hard weight 1);
``fully_connected`` handshake runs and the unpruned softmax row is fused, so
                    every feature is transferred regardless of weight.

All policies execute through the simulator's message machinery, so every
reported bandwidth number is recomputable from the dumped message trace.

"Communicates" is operationalized as having at least one surviving
off-diagonal link after pruning.  Selection metrics: when-to-communicate
accuracy scores that decision against ground-truth need; grouping accuracy
scores, among needy agents that do communicate, whether the highest-weight
supporter belongs to the ground-truth support set (a stricter all-links-valid
rate is reported alongside in the JSON report).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .commgraph import top1_rows
from .densemath import Rng
from .neuralnet import (
    PipelineConfig,
    PipelineParams,
    TrainConfig,
    fixed_policy_rows,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .scenarios import (
    CASES,
    DEFAULT_AGENTS,
    Dataset,
    Episode,
    World,
    generate_dataset,
    load_dataset,
    make_world,
    save_dataset,
)
from . import simnet

POLICIES = ("when2com", "nocom", "randcom", "catall", "forced_top1", "fully_connected")
TRAIN_POLICIES = ("when2com", "nocom", "randcom", "catall")

# Train and eval derive the world from the run seed with this fixed offset so
# that a checkpoint can be re-evaluated from the same flags alone.
WORLD_SEED_XOR = 0x9E3779B9

CSV_COLUMNS = (
    "policy",
    "case",
    "n_agents",
    "seed",
    "delta",
    "Q",
    "K",
    "F",
    "acc_all",
    "acc_degraded",
    "acc_clean",
    "when2com_acc",
    "grouping_acc",
    "mbpf",
    "links_per_agent",
    "n_episodes",
)


@dataclass
class MetricsReport:
    policy: str
    case: str
    n_agents: int
    seed: int
    delta: float
    q_dim: int
    k_dim: int
    f_dim: int
    acc_all: float
    acc_degraded: float | None
    acc_clean: float | None
    when2com_acc: float
    grouping_acc: float | None
    grouping_set_acc: float | None
    mbpf: float
    links_per_agent: float
    n_episodes: int

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "case": self.case,
            "n_agents": self.n_agents,
            "seed": self.seed,
            "delta": self.delta,
            "Q": self.q_dim,
            "K": self.k_dim,
            "F": self.f_dim,
            "acc_all": self.acc_all,
            "acc_degraded": self.acc_degraded,
            "acc_clean": self.acc_clean,
            "when2com_acc": self.when2com_acc,
            "grouping_acc": self.grouping_acc,
            "grouping_set_acc": self.grouping_set_acc,
            "mbpf": self.mbpf,
            "links_per_agent": self.links_per_agent,
            "n_episodes": self.n_episodes,
        }

    def csv_row(self) -> str:
        d = self.to_dict()
        cells = []
        for col in CSV_COLUMNS:
            value = d[col]
            cells.append("" if value is None else repr(value) if isinstance(value, float) else str(value))
        return ",".join(cells)


def save_report(report: MetricsReport, json_path: str, csv_path: str) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(report.csv_row() + "\n")


@dataclass
class PolicyEpisodeResult:
    predictions: list[int]
    rows: np.ndarray  # effective pruned/selection weights, one row per agent
    ledger: simnet.BandwidthLedger
    trace: list[simnet.Message]


def run_policy_episode(
    policy: str,
    theta: PipelineParams,
    observations,
    delta: float,
    rng: Rng,
) -> PolicyEpisodeResult:
    """Execute one episode under a policy, entirely via simulator messages."""
    n = len(observations)
    agents = simnet.make_agents(observations, theta)
    if policy == "when2com":
        result = simnet.run_episode(agents, theta, delta)
        return PolicyEpisodeResult(
            result.predictions, result.pruned_rows, result.ledger, result.trace
        )

    if policy in ("forced_top1", "fully_connected"):
        soft_rows, trace = simnet.run_handshake(agents, theta)
        rows = top1_rows(soft_rows) if policy == "forced_top1" else soft_rows
    elif policy in ("nocom", "randcom", "catall"):
        rows = fixed_policy_rows(policy, n, rng)
        trace = []
    else:
        raise ValueError(f"unknown policy {policy!r}")

    fused, trace2 = simnet.run_transmission(agents, rows, delta=0.0)
    predictions = [agent.decode(theta) for agent in agents]
    trace = trace + trace2
    ledger = simnet.ledger_from_trace(trace, frames=0)
    ledger.add_frame()
    return PolicyEpisodeResult(predictions, np.stack([a.pruned_row for a in agents]), ledger, trace)


def decisions_from_rows(rows: np.ndarray) -> list[bool]:
    """Per agent: true when at least one off-diagonal weight survived."""
    n = rows.shape[0]
    out = []
    for i in range(n):
        off = [rows[i, j] for j in range(n) if j != i]
        out.append(any(w != 0.0 for w in off))
    return out


def when2com_accuracy(episodes: list[Episode], decisions: list[list[bool]]) -> float:
    """Agreement between communicate decisions and ground-truth need."""
    if len(episodes) != len(decisions):
        raise ValueError(f"{len(episodes)} episodes vs {len(decisions)} decision lists")
    hits = 0
    total = 0
    for ep, dec in zip(episodes, decisions):
        if len(dec) != len(ep.needs_comm):
            raise ValueError("decision list length does not match agent count")
        for d, need in zip(dec, ep.needs_comm):
            hits += int(bool(d) == bool(need))
            total += 1
    return hits / total if total else 0.0


def grouping_accuracy(
    episodes: list[Episode], rows_per_episode: list[np.ndarray]
) -> tuple[float | None, float | None]:
    """Supporter-selection rates over needy agents that do communicate.

    Returns (top-1 rate, all-links-valid rate); both are None when no agent
    qualifies (needy and communicating), never 0.
    """
    top_hits = 0
    set_hits = 0
    total = 0
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


def evaluate(
    policy: str,
    theta: PipelineParams,
    episodes: list[Episode],
    delta: float,
    seed: int,
    case: str = "srms",
    trace_path: str | None = None,
) -> MetricsReport:
    """Run a policy over episodes and aggregate task, selection, and bandwidth metrics.

    With ``trace_path`` set, every message of every episode is dumped as
    line-delimited records so the reported bandwidth numbers can be audited
    externally.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if not episodes:
        raise ValueError("cannot evaluate on an empty dataset")
    rng = Rng(seed)
    n_agents = len(episodes[0].labels)

    ledger = simnet.BandwidthLedger()
    decisions: list[list[bool]] = []
    rows_all: list[np.ndarray] = []
    all_messages: list[simnet.Message] = []
    correct = {"all": 0, "deg": 0, "clean": 0}
    totals = {"all": 0, "deg": 0, "clean": 0}
    for ep in episodes:
        res = run_policy_episode(policy, theta, list(ep.observations), delta, rng)
        ledger.merge(res.ledger)
        decisions.append(decisions_from_rows(res.rows))
        rows_all.append(res.rows)
        if trace_path is not None:
            all_messages.extend(res.trace)
        for i, (pred, label) in enumerate(zip(res.predictions, ep.labels)):
            hit = int(pred == label)
            correct["all"] += hit
            totals["all"] += 1
            split = "deg" if ep.degraded[i] else "clean"
            correct[split] += hit
            totals[split] += 1

    if trace_path is not None:
        simnet.dump_trace(trace_path, all_messages)

    top_rate, set_rate = grouping_accuracy(episodes, rows_all)
    return MetricsReport(
        policy=policy,
        case=case,
        n_agents=n_agents,
        seed=seed,
        delta=delta,
        q_dim=theta.w_g.shape[0],
        k_dim=theta.w_g.shape[1],
        f_dim=theta.theta_e.out_dim,
        acc_all=correct["all"] / totals["all"],
        acc_degraded=(correct["deg"] / totals["deg"]) if totals["deg"] else None,
        acc_clean=(correct["clean"] / totals["clean"]) if totals["clean"] else None,
        when2com_acc=when2com_accuracy(episodes, decisions),
        grouping_acc=top_rate,
        grouping_set_acc=set_rate,
        mbpf=simnet.mbpf(ledger),
        links_per_agent=simnet.links_per_agent(ledger, n_agents),
        n_episodes=len(episodes),
    )


def world_for_run(
    case: str,
    n_agents: int | None,
    seed: int,
    degrade_prob: float = 0.5,
) -> World:
    """World derived deterministically from the run seed."""
    return make_world(
        case,
        n_agents=n_agents,
        degrade_prob=degrade_prob,
        rng=Rng(seed ^ WORLD_SEED_XOR),
    )


def clean_world_copy(world: World) -> World:
    """Same prototypes and geometry, but nothing ever degrades."""
    return replace(world, degrade_prob=0.0)


@dataclass
class TrainRun:
    theta: PipelineParams
    config: TrainConfig
    dataset: Dataset
    log: list[dict]


def train_run(
    case: str = "srms",
    n_agents: int | None = None,
    n_episodes: int = 40000,
    steps: int = 5000,
    seed: int = 0,
    policy: str = "when2com",
    q_dim: int = 4,
    k_dim: int = 16,
) -> TrainRun:
    """End-to-end training orchestration shared by the CLI, sweeps, and tests."""
    if policy in ("forced_top1", "fully_connected"):
        policy = "when2com"  # same full model; selection differs only at eval time
    if policy not in TRAIN_POLICIES:
        raise ValueError(f"cannot train policy {policy!r}")
    config = TrainConfig(
        pipeline=PipelineConfig(q_dim=q_dim, k_dim=k_dim),
        steps=steps,
        policy=policy,
    )
    world = world_for_run(case, n_agents, seed)
    dataset = generate_dataset(world, n_episodes, seed)
    theta, log = train(config, dataset, Rng(seed))
    return TrainRun(theta=theta, config=config, dataset=dataset, log=log)


def sweep_message_size(
    param: str,
    sizes: list[int],
    case: str = "srms",
    n_agents: int | None = None,
    n_episodes: int = 40000,
    steps: int = 5000,
    seed: int = 0,
) -> list[dict]:
    """Train one model per query (or key) size and tabulate selection metrics."""
    if param not in ("query", "key"):
        raise ValueError(f"param must be 'query' or 'key', got {param!r}")
    if not sizes:
        raise ValueError("sizes must be non-empty")
    rows = []
    for size in sizes:
        q_dim = size if param == "query" else 4
        k_dim = size if param == "key" else 16
        run = train_run(
            case=case,
            n_agents=n_agents,
            n_episodes=n_episodes,
            steps=steps,
            seed=seed,
            q_dim=q_dim,
            k_dim=k_dim,
        )
        n = run.dataset.world.n_agents
        report = evaluate(
            "when2com", run.theta, run.dataset.test_episodes, 1.0 / n, seed, case=case
        )
        rows.append(
            {
                "param": param,
                "size": size,
                "Q": q_dim,
                "K": k_dim,
                "seed": seed,
                "grouping_acc": report.grouping_acc,
                "task_acc": report.acc_all,
                "when2com_acc": report.when2com_acc,
                "links_per_agent": report.links_per_agent,
            }
        )
    return rows


def sweep_query_size(sizes: list[int], seed: int = 0, **kwargs) -> list[dict]:
    """Query-size ablation at fixed key size (16 unless overridden)."""
    return sweep_message_size("query", sizes, seed=seed, **kwargs)


def sweep_key_size(sizes: list[int], seed: int = 0, **kwargs) -> list[dict]:
    """Key-size ablation at fixed query size (4 unless overridden)."""
    return sweep_message_size("key", sizes, seed=seed, **kwargs)


def _save_sweep(rows: list[dict], csv_path: str, json_path: str) -> None:
    cols = ["param", "size", "Q", "K", "seed", "grouping_acc", "task_acc", "when2com_acc", "links_per_agent"]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    ""
                    if row[c] is None
                    else repr(row[c])
                    if isinstance(row[c], float)
                    else str(row[c])
                    for c in cols
                )
                + "\n"
            )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dataset_for_eval(args) -> Dataset:
    if args.data:
        return load_dataset(args.data)
    world = world_for_run(args.case, args.agents, args.seed)
    return generate_dataset(world, args.episodes, args.seed)


def _write_train_outputs(args, run: TrainRun) -> None:
    save_checkpoint(args.out, run.theta, run.config.pipeline)
    log_path = args.out + ".log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for rec in run.log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    n = run.dataset.world.n_agents
    eval_policy = args.policy if args.policy in POLICIES else "when2com"
    report = evaluate(
        eval_policy,
        run.theta,
        run.dataset.test_episodes,
        1.0 / n,
        args.seed,
        case=args.case,
    )
    base = args.report if args.report else args.out + ".report.json"
    csv_path = base[:-5] + ".csv" if base.endswith(".json") else base + ".csv"
    save_report(report, base, csv_path)
    print(f"checkpoint: {args.out}")
    print(f"report: {base}")
    print(f"acc_all={report.acc_all:.4f} when2com_acc={report.when2com_acc:.4f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcomm",
        description="Train and evaluate learned communication groups on synthetic multi-agent perception tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save a checkpoint")
    p_train.add_argument("--case", choices=CASES, default="srms")
    p_train.add_argument("--agents", type=int, default=None)
    p_train.add_argument("--episodes", type=int, default=40000)
    p_train.add_argument("--steps", type=int, default=5000)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--policy", choices=POLICIES, default="when2com")
    p_train.add_argument("--q-dim", type=int, default=4)
    p_train.add_argument("--k-dim", type=int, default=16)
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--report", default=None, help="metrics report path (JSON)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint under a policy")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--policy", choices=POLICIES, default="when2com")
    p_eval.add_argument("--delta", type=float, default=None, help="pruning threshold (default 1/N)")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--data", default=None, help="dataset file from gen-data")
    p_eval.add_argument("--case", choices=CASES, default="srms")
    p_eval.add_argument("--agents", type=int, default=None)
    p_eval.add_argument("--episodes", type=int, default=40000)
    p_eval.add_argument("--report", default="eval_report.json")
    p_eval.add_argument("--trace", default=None, help="dump the full message trace (JSONL)")

    p_sweep = sub.add_parser("sweep", help="train across query/key sizes and tabulate")
    p_sweep.add_argument("--param", choices=("query", "key"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated sizes, e.g. 1,4,16")
    p_sweep.add_argument("--case", choices=CASES, default="srms")
    p_sweep.add_argument("--agents", type=int, default=None)
    p_sweep.add_argument("--episodes", type=int, default=40000)
    p_sweep.add_argument("--steps", type=int, default=5000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="sweep.csv")

    p_gen = sub.add_parser("gen-data", help="generate and save a dataset")
    p_gen.add_argument("--case", choices=CASES, default="srms")
    p_gen.add_argument("--agents", type=int, default=None)
    p_gen.add_argument("--episodes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    return parser


def cli_main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        if args.command == "train":
            run = train_run(
                case=args.case,
                n_agents=args.agents,
                n_episodes=args.episodes,
                steps=args.steps,
                seed=args.seed,
                policy=args.policy,
                q_dim=args.q_dim,
                k_dim=args.k_dim,
            )
            _write_train_outputs(args, run)
        elif args.command == "eval":
            theta, config = load_checkpoint(args.checkpoint)
            dataset = _dataset_for_eval(args)
            n = dataset.world.n_agents
            delta = args.delta if args.delta is not None else 1.0 / n
            report = evaluate(
                args.policy,
                theta,
                dataset.test_episodes,
                delta,
                args.seed,
                case=dataset.world.case,
                trace_path=args.trace,
            )
            csv_path = (
                args.report[:-5] + ".csv" if args.report.endswith(".json") else args.report + ".csv"
            )
            save_report(report, args.report, csv_path)
            print(f"report: {args.report}")
            print(
                f"acc_all={report.acc_all:.4f} mbpf={report.mbpf:.6g} "
                f"links_per_agent={report.links_per_agent:.4f}"
            )
        elif args.command == "sweep":
            sizes = [int(s) for s in args.values.split(",") if s]
            rows = sweep_message_size(
                args.param,
                sizes,
                case=args.case,
                n_agents=args.agents,
                n_episodes=args.episodes,
                steps=args.steps,
                seed=args.seed,
            )
            json_path = (
                args.out[:-4] + ".json" if args.out.endswith(".csv") else args.out + ".json"
            )
            _save_sweep(rows, args.out, json_path)
            print(f"sweep table: {args.out}")
        elif args.command == "gen-data":
            world = world_for_run(args.case, args.agents, args.seed)
            dataset = generate_dataset(world, args.episodes, args.seed)
            save_dataset(args.out, dataset)
            print(f"dataset: {args.out} ({args.episodes} episodes)")
        else:  # pragma: no cover - argparse enforces the choices
            parser.print_usage(sys.stderr)
            return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
