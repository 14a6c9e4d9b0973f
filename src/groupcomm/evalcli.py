"""Selection metrics, batched policy evaluation audited by the simulator, sweeps, and the CLI.

The policies (``neuralnet.POLICIES``, re-exported here), the ones that
train (``neuralnet.TRAIN_POLICIES``, re-exported too) and the rule that
turns each into fusion rows (``neuralnet.policy_rows``) live in
:mod:`groupcomm.neuralnet`.  :func:`evaluate` computes every report from one
batched pass, ``neuralnet.infer_episodes`` (the inference loop validation
shares), and its bandwidth from the closed form
``simnet.ledger_from_links`` of the pass's link counts.  The selection
metrics are array operations over the pass's (E, N, N) rows.  The
simulator's block runner, ``simnet.run_block``, audits that pass: it runs
the first episode, or every episode when a trace is dumped, in lockstep
blocks of at most ``EVAL_BLOCK`` episodes, and a message its log does not
deliver as sent, or any difference in an episode's pruned rows,
predictions or trace-derived ledger, raises.  So every
reported bandwidth number is recomputable from a dumped message trace.

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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .commgraph import link_mask
from .densemath import Rng, array, integer, real
from .neuralnet import (
    EVAL_BLOCK,
    HANDSHAKE_POLICIES,
    POLICIES,
    TRAIN_POLICIES,
    PipelineConfig,
    PipelineParams,
    TrainConfig,
    check_episodes,
    check_labels,
    check_world,
    infer_episodes,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .scenarios import (
    CASES,
    DEFAULT_AGENTS,
    Dataset,
    EpisodeSet,
    World,
    generate_dataset,
    generate_episodes,
    load_dataset,
    make_world,
    save_dataset,
    split_bounds,
)
from . import simnet

# Train and eval derive the world from the run seed with this fixed offset so
# that a checkpoint can be re-evaluated from the same flags alone.
WORLD_SEED_XOR = 0x9E3779B9

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


# The report's fields in order; the all-links-valid rate goes to the JSON report only.
CSV_COLUMNS = tuple(f.name for f in fields(MetricsReport) if f.name != "grouping_set_acc")


def _save_table(json_path: str, csv_path: str, doc, columns, records: list[dict]) -> None:
    """``doc`` as indented JSON, and ``records`` as CSV rows under a ``columns`` header.

    CSV cells are empty for None and ``repr`` for floats, so they round-trip.
    Both texts are built first, so a value JSON cannot encode writes neither file.
    """
    json_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    csv_text = "".join(
        ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values) + "\n"
        for values in [columns] + [[rec[c] for c in columns] for rec in records]
    )
    for path, text in ((json_path, json_text), (csv_path, csv_text)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_report(report: MetricsReport, json_path: str, csv_path: str) -> None:
    doc = report.to_dict()
    _save_table(json_path, csv_path, doc, CSV_COLUMNS, [doc])


def _sibling_path(path: str, suffix: str, other: str) -> str:
    """``path`` with a trailing ``suffix`` replaced by ``other`` (appended if absent)."""
    return (path[: -len(suffix)] if path.endswith(suffix) else path) + other


def run_policy_episode(
    policy: str, theta: PipelineParams, observations, delta: float, rng: Rng | None
) -> list[simnet.EpisodeResult]:
    """Evaluation's simulator step: fresh agents for an (E, N, d_obs) block, then ``simnet.run_block``.

    One result per episode, simulated in lockstep.
    """
    if np.ndim(observations) != 3:
        raise ValueError(f"run_policy_episode takes an (E, N, d_obs) block, got shape {np.shape(observations)}")
    return simnet.run_block(simnet.make_agents(observations, theta), theta, delta, policy, rng)


def decisions_from_rows(rows: np.ndarray) -> np.ndarray:
    """Per agent: true when at least one off-diagonal weight survived; rows of one episode or a stack."""
    return link_mask(rows).any(axis=-1)


def when2com_accuracy(episodes: EpisodeSet, decisions) -> float:
    """Agreement between communicate decisions and ground-truth need (``episodes.degraded``).

    ``decisions`` is the (E, N) bool ndarray of :func:`decisions_from_rows`;
    anything else, a list too, raises (``densemath.array``).
    """
    if not len(episodes):
        raise ValueError("when2com_accuracy: episodes is empty, so there is no decision to score")
    decided = array(decisions, "decisions", np.bool_, episodes.degraded.shape)
    return int(np.count_nonzero(decided == episodes.degraded)) / decided.size


def grouping_accuracy(episodes: EpisodeSet, rows) -> tuple[float | None, float | None]:
    """Supporter-selection rates over needy agents that do communicate, against ``episodes.support``.

    ``rows`` is the (E, N, N) float64 ndarray of pruned rows; anything else,
    a list too, raises (``densemath.array``).  Returns (top-1 rate,
    all-links-valid rate); both are None when no agent qualifies (needy and
    communicating), never 0.  Top-1 ties go to the lowest index.
    """
    rows = array(rows, "rows", np.float64, episodes.support.shape)
    linked = link_mask(rows)
    qualified = episodes.degraded & linked.any(axis=-1)
    total = int(np.count_nonzero(qualified))
    if total == 0:
        return None, None
    top = np.argmax(np.where(linked, rows, -np.inf), axis=-1)  # the first maximum: ties to the lowest index
    top_hits = np.take_along_axis(episodes.support, top[..., None], axis=-1)[..., 0] & qualified
    set_hits = ~np.any(linked & ~episodes.support, axis=-1) & qualified
    return int(np.count_nonzero(top_hits)) / total, int(np.count_nonzero(set_hits)) / total


def evaluate(
    policy: str,
    theta: PipelineParams,
    episodes: EpisodeSet,
    delta: float,
    seed: int,
    case: str = "srms",
    trace_path: str | None = None,
) -> MetricsReport:
    """Run a policy over an ``EpisodeSet`` and aggregate task, selection, and bandwidth metrics.

    The report comes from one batched inference pass
    (``neuralnet.infer_episodes``), with ``randcom`` rows drawn from ``Rng(seed)``
    episode by episode, in stack order, and its bandwidth from the closed
    form ``simnet.ledger_from_links``.  The simulator then audits the pass
    from a fresh ``Rng(seed)``: on the first episode, or with ``trace_path``
    set on every episode, whose messages are dumped there as line-delimited
    records, in episode order, so the reported bandwidth can be audited
    externally.  It simulates them in lockstep blocks of at most
    ``EVAL_BLOCK`` episodes, one :func:`run_policy_episode` call each.  The
    row-invariant kernel rounds every row as it does alone, so the two agree
    bit for bit; where a simulated episode's log does not deliver a
    message as the protocol sends it (``simnet.DeliveryError``), or its
    pruned rows, predictions or trace-derived ledger differ,
    ``RuntimeError`` names the policy and the first such episode, and no
    trace is written.  ``delta``, ``seed``, ``case``, the episodes
    (``neuralnet.check_episodes``) and every label
    (``neuralnet.check_labels``) are checked before the pass; the report
    records ``delta`` as a Python float and ``seed`` as an int.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    delta, seed = real(delta, "delta", 0, 1), integer(seed, "seed")
    check_episodes(episodes, theta.config)
    check_labels(episodes.labels, theta.config.n_classes)
    m_bar, predictions = infer_episodes(theta, episodes, delta, policy, Rng(seed))
    n_agents = predictions.shape[1]
    q_dim, f_dim, handshake = theta.w_g.shape[0], theta.theta_e.out_dim, policy in HANDSHAKE_POLICIES

    # The audit: each simulated episode against its batched rows, predictions and closed-form ledger.
    links = simnet.link_counts(m_bar)
    simulated = len(episodes) if trace_path is not None else 1
    expected_predictions = predictions[:simulated].tolist()
    sim_rng = Rng(seed)
    traces = []
    for start in range(0, simulated, EVAL_BLOCK):
        block = episodes.observations[start : min(start + EVAL_BLOCK, simulated)]
        try:
            results = run_policy_episode(policy, theta, block, delta, sim_rng)
        except simnet.DeliveryError as exc:
            raise RuntimeError(f"policy {policy!r}, episode {start + exc.episode}: {exc.detail}") from exc
        for e, res in enumerate(results, start):
            closed = simnet.ledger_from_links(links[e], 1, n_agents, q_dim, f_dim, handshake)
            for what, same in (
                ("pruned rows", np.array_equal(res.pruned_rows, m_bar[e])),
                ("predictions", res.predictions == expected_predictions[e]),
                ("trace ledger", res.ledger == closed),
            ):
                if not same:
                    raise RuntimeError(
                        f"policy {policy!r}, episode {e}: the simulator's {what} differ from the batched pass"
                    )
            traces.append(res.trace)
    if trace_path is not None:
        simnet.dump_trace(trace_path, simnet.MessageLog.concat(traces))

    ledger = simnet.ledger_from_links(links.sum(), len(episodes), n_agents, q_dim, f_dim, handshake)
    hits = predictions == episodes.labels
    hits_deg, n_deg = int(hits[episodes.degraded].sum()), int(episodes.degraded.sum())
    hits_clean, n_clean = int(hits.sum()) - hits_deg, hits.size - n_deg
    top_rate, set_rate = grouping_accuracy(episodes, m_bar)
    return MetricsReport(
        policy=policy,
        case=case,
        n_agents=n_agents,
        seed=seed,
        delta=delta,
        Q=q_dim,
        K=theta.w_g.shape[1],
        F=f_dim,
        acc_all=int(hits.sum()) / hits.size,
        acc_degraded=hits_deg / n_deg if n_deg else None,
        acc_clean=hits_clean / n_clean if n_clean else None,
        when2com_acc=when2com_accuracy(episodes, decisions_from_rows(m_bar)),
        grouping_acc=top_rate,
        grouping_set_acc=set_rate,
        mbpf=simnet.mbpf(ledger),
        links_per_agent=simnet.links_per_agent(ledger, n_agents),
        n_episodes=len(episodes),
    )


def world_for_run(case: str, n_agents: int | None, seed: int) -> World:
    """World derived deterministically from the run seed."""
    return make_world(case, n_agents=n_agents, rng=Rng(seed ^ WORLD_SEED_XOR))


@dataclass(frozen=True)
class TrainRun:
    theta: PipelineParams
    config: TrainConfig
    dataset: Dataset
    log: list[dict]
    seed: int


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
    """End-to-end training orchestration shared by the CLI, sweeps, and tests.

    Only the :data:`TRAIN_POLICIES` train: ``TrainConfig`` raises
    ``ValueError`` on any other policy, before any work.
    """
    config = TrainConfig(
        pipeline=PipelineConfig(q_dim=q_dim, k_dim=k_dim),
        steps=steps,
        policy=policy,
    )
    world = world_for_run(case, n_agents, seed)
    dataset = generate_dataset(world, n_episodes, seed)
    theta, log = train(config, dataset, Rng(seed))
    return TrainRun(theta=theta, config=config, dataset=dataset, log=log, seed=seed)


def run_report(run: TrainRun) -> MetricsReport:
    """The run's test-split report: its own policy and seed, at delta = 1/N, labelled with its world's case."""
    world = run.dataset.world
    return evaluate(run.config.policy, run.theta, run.dataset.test_episodes, 1.0 / world.n_agents, run.seed, world.case)


def sweep_message_size(
    param: str,
    sizes: list[int],
    case: str = "srms",
    n_agents: int | None = None,
    n_episodes: int = 40000,
    steps: int = 5000,
    seed: int = 0,
) -> list[dict]:
    """Train one model per query (or key) size and tabulate selection metrics.

    The seed, and every size through its :class:`PipelineConfig`, are checked
    before the first model trains, and the rows hold them as Python ints.
    """
    if param not in ("query", "key"):
        raise ValueError(f"param must be 'query' or 'key', got {param!r}")
    if not sizes:
        raise ValueError("sizes must be non-empty")
    swept = "q_dim" if param == "query" else "k_dim"
    seed = integer(seed, "seed")
    for size in sizes:
        replace(PipelineConfig(), **{swept: size})  # raises on a bad size, naming the field
    rows = []
    for size in sizes:
        run = train_run(case=case, n_agents=n_agents, n_episodes=n_episodes, steps=steps, seed=seed, **{swept: size})
        report, dims = run_report(run), run.config.pipeline
        metrics = (report.grouping_acc, report.acc_all, report.when2com_acc, report.links_per_agent)
        row = (param, getattr(dims, swept), dims.q_dim, dims.k_dim, seed) + metrics
        rows.append(dict(zip(SWEEP_COLUMNS, row, strict=True)))
    return rows


def _test_split_for_eval(args) -> tuple[World, EpisodeSet]:
    """The world and test episodes to evaluate: from ``--data``, or generated from the run flags.

    A loaded file's test split is gathered, so the file's bytes are not kept
    alive.  A generated set holds only its test split.  Each episode's stream is
    keyed by (seed, index), so the train and validation episodes are never
    drawn at all, and time and memory scale with the test split.
    """
    if args.data:
        dataset = load_dataset(args.data)
        if not dataset.test_idx:
            raise ValueError(f"{args.data}: splits.test is empty, so --data holds no episode to evaluate")
        return dataset.world, dataset.test_episodes
    world = world_for_run(args.case, args.agents, args.seed)
    _, test_start = split_bounds(args.episodes)
    return world, generate_episodes(world, args.episodes, args.seed, start=test_start)


def _write_train_outputs(paths: dict[str, str], run: TrainRun) -> None:
    save_checkpoint(paths["checkpoint"], run.theta, run.config.pipeline)
    with open(paths["log"], "w", encoding="utf-8") as fh:
        for rec in run.log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    report = run_report(run)
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

    Fails when an output could not be written: no directory, or a directory
    in its place; or when two outputs are one file (``os.path.realpath``),
    so that one would overwrite the other.
    """
    outputs = _output_paths(args)
    written: dict[str, tuple[str, str]] = {}  # real path -> (flag, path) of the output that writes it
    for flag, path in outputs.values():
        real = os.path.realpath(path)
        if real in written:
            other_flag, other_path = written[real]
            raise ValueError(f"{flag} {path}: {other_flag} also writes {other_path}, the same file")
        written[real] = (flag, path)
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


def _seed(text: str) -> int:
    """``--seed``: an integer in [0, 2**64), the range in which ``Rng`` tells seeds apart."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
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
    p_train.add_argument("--seed", type=_seed, default=0)
    p_train.add_argument("--policy", choices=TRAIN_POLICIES, default="when2com")
    p_train.add_argument("--q-dim", type=int, default=4)
    p_train.add_argument("--k-dim", type=int, default=16)
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--report", default=None, help="metrics report path (JSON)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint under a policy")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--policy", choices=POLICIES, default="when2com")
    p_eval.add_argument("--delta", type=_unit_interval, default=None, help="pruning threshold in [0, 1] (default 1/N)")
    p_eval.add_argument("--seed", type=_seed, default=0)
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
    p_sweep.add_argument("--seed", type=_seed, default=0)
    p_sweep.add_argument("--out", default="sweep.csv")

    p_gen = sub.add_parser("gen-data", help="generate and save a dataset")
    p_gen.add_argument("--case", choices=CASES, default="srms")
    p_gen.add_argument("--agents", type=int, default=None)
    p_gen.add_argument("--episodes", type=int, required=True)
    p_gen.add_argument("--seed", type=_seed, default=0)
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
            _write_train_outputs(paths, run)
        elif args.command == "eval":
            theta, config = load_checkpoint(args.checkpoint)
            world, episodes = _test_split_for_eval(args)
            check_world(world, config, f"{args.checkpoint}: checkpoint")
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
