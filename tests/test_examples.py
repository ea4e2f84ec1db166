"""Every script under ``examples/`` runs to completion.

The examples are the documented entry points of the library; each one
asserts its own results, so exit 0 means it still works.  They run as
subprocesses, against the package the tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_0(script):
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
