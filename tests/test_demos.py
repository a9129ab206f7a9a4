"""Every demo script runs to the end, quietly, against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmnfree

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports the package this suite imported
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
