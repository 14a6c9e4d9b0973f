"""The package is self-contained: importing it loads only the standard library and numpy."""

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
