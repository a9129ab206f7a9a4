"""``tools/completion_phases.py`` at stage 4: it prints the quadrangle's
stage sizes and a line per phase and per collector generation."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tool(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "completion_phases.py"), *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)


def test_phases_print_the_stage_sizes(tmp_path):
    out = run_tool(tmp_path, "4", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "kmnfree complete (2,2) quadrangle --stages 4: sizes [4, 10, 13, 16, 22]"
    assert lines[1].startswith("document 3,328 bytes sha256 ")
    phases = [line.split()[0] for line in lines[3:]]
    assert phases == ["deficiency", "steps", "document", "rest", "call", "is_kmn_free",
                      "gc", "gc", "gc"]
    assert "4 calls" in lines[3] and "4 calls" in lines[4]


def test_phases_refuse_a_bad_argument(tmp_path):
    for args in (["x"], ["4", "0"], ["4", "2", "1"]):
        out = run_tool(tmp_path, *args)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage: completion_phases.py")
