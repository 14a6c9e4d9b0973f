"""Selection metrics, policy evaluation through the simulator, sweeps, and the CLI.

The policies (``neuralnet.POLICIES``, re-exported here) and the rule that
turns each into fusion rows (``neuralnet.policy_rows``) live in
:mod:`groupcomm.neuralnet`.  Every policy runs through the simulator's one
episode runner, ``simnet.run_episode``, so every reported bandwidth number is
recomputable from the dumped message trace.

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
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .densemath import Rng
from .neuralnet import (
    EVAL_BLOCK,
    POLICIES,
    PipelineConfig,
    PipelineParams,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    shared_agent_count,
    train,
)
from .scenarios import (
    CASES,
    DEFAULT_AGENTS,
    Dataset,
    Episode,
    World,
    generate_dataset,
    iter_episodes,
    load_dataset,
    make_world,
    save_dataset,
    split_bounds,
)
from . import simnet

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
SWEEP_COLUMNS = ("param", "size", "Q", "K", "seed", "grouping_acc", "task_acc", "when2com_acc", "links_per_agent")


@dataclass
class MetricsReport:
    policy: str
    case: str
    n_agents: int
    seed: int
    delta: float
    Q: int
    K: int
    F: int
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
        return asdict(self)


def _save_table(json_path: str, csv_path: str, doc, columns, records: list[dict]) -> None:
    """``doc`` as indented JSON, and ``records`` as CSV rows under a ``columns`` header.

    CSV cells are empty for None and ``repr`` for floats, so they round-trip.
    """
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        for values in [columns] + [[rec[c] for c in columns] for rec in records]:
            cells = ("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values)
            fh.write(",".join(cells) + "\n")


def save_report(report: MetricsReport, json_path: str, csv_path: str) -> None:
    doc = report.to_dict()
    _save_table(json_path, csv_path, doc, CSV_COLUMNS, [doc])


def _sibling_path(path: str, suffix: str, other: str) -> str:
    """``path`` with a trailing ``suffix`` replaced by ``other`` (appended if absent)."""
    return (path[: -len(suffix)] if path.endswith(suffix) else path) + other


def run_policy_episode(
    policy: str,
    theta: PipelineParams,
    observations,
    delta: float,
    rng: Rng | None,
    heads=None,
) -> simnet.EpisodeResult:
    """Evaluation's per-episode step: fresh agents for ``observations``, then ``simnet.run_episode``.

    ``heads``, when given, are the episode's rows of a block-wide
    ``simnet.agent_heads`` pass (see :func:`simnet.make_agents`).
    """
    return simnet.run_episode(simnet.make_agents(observations, theta, heads), theta, delta, policy, rng)


def decisions_from_rows(rows: np.ndarray) -> list[bool]:
    """Per agent: true when at least one off-diagonal weight survived."""
    linked = np.asarray(rows) != 0.0
    np.fill_diagonal(linked, False)
    return linked.any(axis=1).tolist()


def when2com_accuracy(episodes: list[Episode], decisions: list[list[bool]]) -> float:
    """Agreement between communicate decisions and ground-truth need."""
    if not episodes:
        raise ValueError("when2com_accuracy: episodes is empty, so there is no decision to score")
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
    return hits / total


def grouping_accuracy(
    episodes: list[Episode], rows_per_episode: list[np.ndarray]
) -> tuple[float | None, float | None]:
    """Supporter-selection rates over needy agents that do communicate.

    Returns (top-1 rate, all-links-valid rate); both are None when no agent
    qualifies (needy and communicating), never 0.
    """
    if len(episodes) != len(rows_per_episode):
        raise ValueError(f"{len(episodes)} episodes vs {len(rows_per_episode)} row sets")
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


def _with_block_heads(theta: PipelineParams, episodes: list[Episode]):
    """Each episode with its rows of ``simnet.agent_heads``, run once per ``EVAL_BLOCK`` episodes."""
    for start in range(0, len(episodes), EVAL_BLOCK):
        block = episodes[start : start + EVAL_BLOCK]
        heads = simnet.agent_heads(theta, np.stack([ep.observations for ep in block]))
        for b, ep in enumerate(block):
            yield ep, [h[b] for h in heads]


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

    The agents' heads run once per block of ``EVAL_BLOCK`` episodes, stacked
    as (B, N, d_obs), and each episode's agents get that episode's rows.  The
    row-invariant kernel rounds every row as it does alone, across episodes
    as across agents, so every report and trace is bit for bit what a
    separate head pass per episode gives.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if not episodes:
        raise ValueError("cannot evaluate on an empty dataset")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    n_agents = shared_agent_count(episodes)
    rng = Rng(seed)

    ledger = simnet.BandwidthLedger()
    decisions: list[list[bool]] = []
    rows_all: list[np.ndarray] = []
    all_messages: list[simnet.Message] = []
    correct = {"all": 0, "deg": 0, "clean": 0}
    totals = {"all": 0, "deg": 0, "clean": 0}
    for ep, heads in _with_block_heads(theta, episodes):
        res = run_policy_episode(policy, theta, list(ep.observations), delta, rng, heads)
        ledger.merge(res.ledger)
        decisions.append(decisions_from_rows(res.pruned_rows))
        rows_all.append(res.pruned_rows)
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
        Q=theta.w_g.shape[0],
        K=theta.w_g.shape[1],
        F=theta.theta_e.out_dim,
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


def _test_split_for_eval(args) -> tuple[World, list[Episode]]:
    """The world and test episodes to evaluate: from ``--data``, or generated from the run flags.

    A generated set keeps only its test split.  Each episode's stream is
    keyed by (seed, index), so the train and validation episodes are never
    drawn at all, and time and memory scale with the test split.
    """
    if args.data:
        dataset = load_dataset(args.data)
        return dataset.world, dataset.test_episodes
    world = world_for_run(args.case, args.agents, args.seed)
    _, test_start = split_bounds(args.episodes)
    return world, list(iter_episodes(world, args.episodes, args.seed, start=test_start))


def _write_train_outputs(args, paths: dict[str, str], run: TrainRun) -> None:
    save_checkpoint(paths["checkpoint"], run.theta, run.config.pipeline)
    with open(paths["log"], "w", encoding="utf-8") as fh:
        for rec in run.log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    n = run.dataset.world.n_agents
    report = evaluate(
        args.policy,
        run.theta,
        run.dataset.test_episodes,
        1.0 / n,
        args.seed,
        case=args.case,
    )
    save_report(report, paths["report"], paths["csv"])
    print(f"checkpoint: {paths['checkpoint']}")
    print(f"report: {paths['report']}")
    print(f"acc_all={report.acc_all:.4f} when2com_acc={report.when2com_acc:.4f}")


def _output_paths(args) -> dict[str, tuple[str, str]]:
    """Every file the command will write, derived files included: name -> (flag, path)."""
    if args.command == "train":
        report = args.report if args.report else args.out + ".report.json"
        return {
            "checkpoint": ("--out", args.out),
            "log": ("--out", args.out + ".log.jsonl"),
            "report": ("--report", report),
            "csv": ("--report", _sibling_path(report, ".json", ".csv")),
        }
    if args.command == "eval":
        paths = {"report": ("--report", args.report), "csv": ("--report", _sibling_path(args.report, ".json", ".csv"))}
        return paths | ({"trace": ("--trace", args.trace)} if args.trace is not None else {})
    if args.command == "sweep":
        return {"csv": ("--out", args.out), "json": ("--out", _sibling_path(args.out, ".csv", ".json"))}
    return {"dataset": ("--out", args.out)}


def check_output_paths(args) -> dict[str, str]:
    """Every output path of the command, by name, checked before any work.

    Fails when an output could not be written: no directory, or a directory in its place.
    """
    outputs = _output_paths(args)
    for flag, path in outputs.values():
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path}: directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"{flag} {path}: directory {parent} is not writable")
    return {name: path for name, (_, path) in outputs.items()}


def _int_list(text: str) -> list[int]:
    """``--values``: comma-separated integers (empty items are skipped)."""
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _unit_interval(text: str) -> float:
    """``--delta``: a number in [0, 1] (NaN is not)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


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
    p_eval.add_argument("--delta", type=_unit_interval, default=None, help="pruning threshold in [0, 1] (default 1/N)")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--data", default=None, help="dataset file from gen-data")
    p_eval.add_argument("--case", choices=CASES, default="srms")
    p_eval.add_argument("--agents", type=int, default=None)
    p_eval.add_argument("--episodes", type=int, default=40000)
    p_eval.add_argument("--report", default="eval_report.json")
    p_eval.add_argument("--trace", default=None, help="dump the full message trace (JSONL)")

    p_sweep = sub.add_parser("sweep", help="train across query/key sizes and tabulate")
    p_sweep.add_argument("--param", choices=("query", "key"), required=True)
    p_sweep.add_argument("--values", type=_int_list, required=True, help="comma-separated sizes, e.g. 1,4,16")
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
        paths = check_output_paths(args)
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
            _write_train_outputs(args, paths, run)
        elif args.command == "eval":
            theta, config = load_checkpoint(args.checkpoint)
            world, episodes = _test_split_for_eval(args)
            if world.obs_dim != config.d_obs:
                raise ValueError(
                    f"{args.checkpoint}: checkpoint expects d_obs={config.d_obs}, "
                    f"but the dataset has obs_dim={world.obs_dim}"
                )
            if world.n_classes != config.n_classes:
                raise ValueError(
                    f"{args.checkpoint}: checkpoint expects n_classes={config.n_classes}, "
                    f"but the dataset has n_classes={world.n_classes}"
                )
            delta = args.delta if args.delta is not None else 1.0 / world.n_agents
            report = evaluate(
                args.policy,
                theta,
                episodes,
                delta,
                args.seed,
                case=world.case,
                trace_path=paths.get("trace"),
            )
            save_report(report, paths["report"], paths["csv"])
            print(f"report: {paths['report']}")
            print(
                f"acc_all={report.acc_all:.4f} mbpf={report.mbpf:.6g} "
                f"links_per_agent={report.links_per_agent:.4f}"
            )
        elif args.command == "sweep":
            rows = sweep_message_size(
                args.param,
                args.values,
                case=args.case,
                n_agents=args.agents,
                n_episodes=args.episodes,
                steps=args.steps,
                seed=args.seed,
            )
            _save_table(paths["json"], paths["csv"], rows, SWEEP_COLUMNS, rows)
            print(f"sweep table: {paths['csv']}")
        elif args.command == "gen-data":
            world = world_for_run(args.case, args.agents, args.seed)
            dataset = generate_dataset(world, args.episodes, args.seed)
            save_dataset(paths["dataset"], dataset)
            print(f"dataset: {paths['dataset']} ({args.episodes} episodes)")
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
