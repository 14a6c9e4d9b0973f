"""The package is self-contained: importing it loads only the standard library and numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import groupcomm

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
