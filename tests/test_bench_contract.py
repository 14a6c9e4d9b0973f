"""The benchmark's contract with the program: every name it calls exists and runs.

A refactor that renames or breaks something ``bench/`` calls fails here, not
only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
