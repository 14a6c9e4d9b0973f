"""The benchmark's contract with the program: every name it calls exists and runs.

A refactor that renames or breaks something ``bench/`` calls fails here, not
only in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from groupcomm.evalcli import POLICIES
from groupcomm.neuralnet import EVAL_BLOCK, HANDSHAKE_POLICIES
from groupcomm.scenarios import CASES

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    for span in _load("tracing").SPANS:
        layer, *attrs = span.split(".")
        target = importlib.import_module(f"groupcomm.{layer}")
        for attr in attrs:
            target = getattr(target, attr)
        assert callable(target), span


def test_eval_workload_runs_clean(tmp_path):
    workload = _load("workloads").Eval(3, tmp_path, mini=True)
    workload.setup()
    workload.unit(0)
    workload.unit(1)
    workload.check()
    assert workload.attempted > 0
    assert workload.failed == 0


def test_datagen_workload_runs_clean(tmp_path):
    workload = _load("workloads").Datagen(3, tmp_path, mini=True)
    workload.setup()
    workload.unit(0)
    workload.check()
    assert workload.attempted > 0
    assert workload.failed == 0


def test_train_workload_runs_clean(tmp_path):
    workload = _load("workloads").Train(3, tmp_path, mini=True)
    workload.setup()
    workload.unit(0)
    workload.unit(1)
    workload.check()
    assert workload.attempted > 0
    assert workload.failed == 0


LAYERS = ("densemath", "scenarios", "commgraph", "neuralnet", "simnet", "evalcli")


def _traced_unit(tracing, workload):
    """Run one unit of ``workload`` under a tracer installed as the benchmark installs it."""
    tracer = tracing.Tracer()
    with tracer.installed({name: importlib.import_module(f"groupcomm.{name}") for name in LAYERS}):
        workload.unit(0)
    return tracer


def test_datagen_unit_traces_generate_episode_for_every_case(tmp_path):
    # The traced benchmark tags scenarios.generate_episode by case and fails
    # when a case records no call, so generate_dataset must keep calling it
    # through the module, once per episode.
    tracing = _load("tracing")
    workload = _load("workloads").Datagen(3, tmp_path, mini=True)
    workload.setup()
    tracer = _traced_unit(tracing, workload)
    span = tracer._names.index("scenarios.generate_episode")
    calls = Counter(tracer._tags[tag] for name, tag in zip(tracer.name, tracer.tag) if name == span)
    assert calls == {case: workload.per_case for case in CASES}


def test_datagen_unit_traces_rng_randint(tmp_path):
    # The per-layer RNG spans are Rng methods replaced on the class, so
    # generation must keep drawing its scalars through Rng, words drawn
    # ahead or not.
    tracing = _load("tracing")
    workload = _load("workloads").Datagen(3, tmp_path, mini=True)
    workload.setup()
    tracer = _traced_unit(tracing, workload)
    calls = Counter(tracer._names[name] for name in tracer.name)
    assert calls["densemath.Rng.randint"] >= 5 * workload.per_case * len(CASES)


def test_eval_unit_traces_every_simulator_span(tmp_path):
    # The traced benchmark fails when a declared span records no call.  Each
    # policy's report comes from one batched pass per block, and the
    # simulator audits it: every episode of the traced when2com pass, the
    # first episode of each other policy, in lockstep blocks of at most
    # EVAL_BLOCK episodes.  Each block is one run_policy_episode call (one
    # tracer unit) with one make_agents, run_handshake and run_transmission
    # call; each episode keeps its own ledger_from_trace call.  The simulator
    # scores each inbox with commgraph.attention_scores, which is not a span;
    # attention_score must still be called (the self score), as must fuse,
    # prune and softmax_row, once per agent, through the module bindings.
    tracing = _load("tracing")
    workload = _load("workloads").Eval(3, tmp_path, mini=True)
    workload.setup()
    tracer = _traced_unit(tracing, workload)
    calls = Counter(tracer._names[name] for name in tracer.name)
    eval_spans = [
        span for span in tracing.SPANS
        if span.split(".")[0] in ("commgraph", "simnet", "evalcli") or span == "densemath.softmax_row"
    ]
    assert [span for span in eval_spans if calls[span] == 0] == []

    n_agents = len(workload.episodes[0].labels)
    blocks = -(-workload.n_episodes // EVAL_BLOCK)
    simulated = {policy: workload.n_episodes if policy == "when2com" else 1 for policy in POLICIES}
    handshakes = sum(simulated[policy] for policy in HANDSHAKE_POLICIES)
    policy_episodes = sum(simulated.values())
    sim_blocks = {policy: -(-episodes // EVAL_BLOCK) for policy, episodes in simulated.items()}
    assert calls["evalcli.evaluate"] == len(POLICIES)
    assert calls["neuralnet.pipeline_forward"] == len(POLICIES) * blocks
    assert calls["commgraph.build_matching_matrix"] == len(HANDSHAKE_POLICIES) * blocks
    assert calls["commgraph.attention_score"] == handshakes * n_agents
    assert calls["densemath.softmax_row"] == handshakes * n_agents
    assert calls["commgraph.prune"] == policy_episodes * n_agents + len(POLICIES) * blocks
    assert calls["commgraph.fuse"] == policy_episodes * n_agents
    assert calls["simnet.make_agents"] == sum(sim_blocks.values())
    assert calls["simnet.run_handshake"] == sum(sim_blocks[policy] for policy in HANDSHAKE_POLICIES)
    assert calls["simnet.run_transmission"] == sum(sim_blocks.values())
    assert calls["simnet.ledger_from_trace"] == policy_episodes
    assert calls["simnet.dump_trace"] == 1
    assert tracer.first_dump is not None
    span = tracer._names.index("evalcli.run_policy_episode")
    per_policy = Counter(tracer._tags[tag] for name, tag in zip(tracer.name, tracer.tag) if name == span)
    assert per_policy == sim_blocks
    assert tracer.units == sum(sim_blocks.values())


def test_tracer_counts_the_dumped_trace_of_a_traced_evaluate(tmp_path):
    # The tracer's dump hook runs list() over what evaluate hands to
    # dump_trace, reads each item's .kind, and passes that list to
    # ledger_from_trace(..., frames=0).  Those calls, made here by the
    # tracer itself, must count the closed form of the batched pass.
    tracing = _load("tracing")
    workload = _load("workloads").Eval(3, tmp_path, mini=True)
    workload.setup()
    simnet = importlib.import_module("groupcomm.simnet")
    evalcli = importlib.import_module("groupcomm.evalcli")
    neuralnet = importlib.import_module("groupcomm.neuralnet")
    tracer = tracing.Tracer()
    path = tmp_path / "when2com.trace.jsonl"
    with tracer.installed({name: importlib.import_module(f"groupcomm.{name}") for name in LAYERS}):
        evalcli.evaluate("when2com", workload.theta, workload.episodes, workload.delta, 3, "srms", str(path))
    first_dump = tracer.first_dump
    assert type(first_dump) is list and all(isinstance(msg, simnet.Message) for msg in first_dump)
    kinds = Counter(msg.kind for msg in first_dump)
    ledger = simnet.ledger_from_trace(first_dump, frames=0)

    stack = [ep.observations for ep in workload.episodes]
    m_bar = neuralnet.pipeline_forward(workload.theta, stack, mode="inference", delta=workload.delta).m_bar
    links = int(simnet.link_counts(m_bar).sum())
    n = len(workload.episodes[0].labels)
    queries = workload.n_episodes * n * (n - 1)
    assert kinds == {"query": queries, "score": queries, "request": links, "transfer": links}
    q_dim, f_dim = workload.theta.w_g.shape[0], workload.theta.theta_e.out_dim
    closed = simnet.ledger_from_links(links, workload.n_episodes, n, q_dim, f_dim, True)
    assert ledger == dataclasses.replace(closed, frames=0)
    assert tracer.counts["dumped_bytes"] == path.stat().st_size > 0


def test_train_unit_traces_each_training_span_once_per_step(tmp_path):
    # A traced train unit counts steps at adam_step and derives
    # mlp_forward.per_step from the spans below episode_loss_and_grads, so each
    # step must reach every training span through the module bindings, and
    # the run must validate once.
    tracing = _load("tracing")
    workload = _load("workloads").Train(3, tmp_path, mini=True)
    workload.setup()
    tracer = _traced_unit(tracing, workload)
    calls = Counter(tracer._names[name] for name in tracer.name)
    steps = workload.unit_config.steps
    assert steps == workload.unit_config.eval_every
    assert calls["neuralnet.train"] == 1
    assert calls["neuralnet.adam_step"] == steps
    assert calls["neuralnet.episode_loss_and_grads"] == steps
    assert calls["neuralnet.pipeline_backward"] == steps
    assert calls["neuralnet.mlp_forward"] == 4 * steps
    assert calls["neuralnet.mlp_backward"] == 4 * steps
    assert calls["neuralnet.evaluate_task_accuracy"] == 1
    assert tracer.units == steps


def test_traced_benchmark_of_every_workload_runs_correct():
    # The traced benchmark raises when a declared span records no call.  The
    # in-process tests above trace one unit of each workload; this is the
    # benchmark's own traced run of all three, in fresh processes.
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    # Each workload prints its run record first and its end-to-end line last;
    # the summary table follows a blank line.
    starts = [k for k, line in enumerate(lines) if line.startswith("record ")]
    ends = starts[1:] + [lines.index("")]
    assert [json.loads(lines[k].removeprefix("record "))["workload"] for k in starts] == ["datagen", "train", "eval"]
    for start, end in zip(starts, ends):
        assert json.loads(lines[end - 1])["correct"] is True, lines[start]
