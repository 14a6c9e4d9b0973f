"""The benchmark's contract with the program: every name it calls exists and runs.

A refactor that renames or breaks something ``bench/`` calls fails here, not
only in a benchmark run.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

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


def test_datagen_unit_traces_generate_episode_for_every_case(tmp_path):
    # The traced benchmark tags scenarios.generate_episode by case and fails
    # when a case records no call, so generate_dataset must keep calling it
    # through the module, once per episode.
    tracing = _load("tracing")
    workload = _load("workloads").Datagen(3, tmp_path, mini=True)
    workload.setup()
    layers = ("densemath", "scenarios", "commgraph", "neuralnet", "simnet", "evalcli")
    tracer = tracing.Tracer()
    with tracer.installed({name: importlib.import_module(f"groupcomm.{name}") for name in layers}):
        workload.unit(0)
    span = tracer._names.index("scenarios.generate_episode")
    calls = Counter(tracer._tags[tag] for name, tag in zip(tracer.name, tracer.tag) if name == span)
    assert calls == {case: workload.per_case for case in CASES}
