"""The package is self-contained: importing it loads only the standard library and numpy; its value types are frozen."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import groupcomm
from groupcomm.evalcli import TrainRun
from groupcomm.neuralnet import MlpParams, PipelineConfig, PipelineParams, TrainConfig
from groupcomm.scenarios import Dataset, EpisodeSet, World

PROBE = """
import sys
before = set(sys.modules)
import groupcomm, groupcomm.evalcli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "groupcomm"})))
"""


def test_package_imports_only_stdlib_and_numpy():
    # A fresh interpreter, so modules the test run itself imported cannot hide a dependency.
    env = dict(os.environ, PYTHONPATH=str(Path(groupcomm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"modules outside the standard library and numpy: {proc.stdout.strip()}"


def test_only_densemath_imports_numbers():
    # The scalar rule has one home: every other module checks its counts,
    # seeds and thresholds through densemath.integer and densemath.real.
    importers = set()
    for path in sorted(Path(groupcomm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "numbers" in names or isinstance(node, ast.ImportFrom) and node.module == "numbers":
                importers.add(path.stem)
    assert importers == {"densemath"}


def test_only_densemath_compares_a_dtype():
    # The array rule has one home: every other module checks the dtype and
    # shape of an array it holds through densemath.array, so none of them
    # compares a `.dtype` with == or !=.
    comparers = set()
    for path in sorted(Path(groupcomm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Attribute) and o.attr == "dtype" for o in operands):
                    comparers.add(path.stem)
    assert comparers == {"densemath"}


def test_every_value_type_is_frozen():
    # These values keep the checks made when they were built, which holds
    # only if no field can be assigned afterwards.
    values = (TrainConfig, PipelineConfig, PipelineParams, MlpParams, World, Dataset, EpisodeSet, TrainRun)
    assert [v.__name__ for v in values if not v.__dataclass_params__.frozen] == []
