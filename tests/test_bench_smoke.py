"""One short benchmark run: perfbench/run.py still runs, checks its own
answers and reports exactly the end-to-end metrics BENCHMARK.json declares.

The benchmark itself stays out of the suite; this runs the search-mix
workload for one second (about two seconds in all).
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="perfbench's reference clock needs SIGALRM")
def test_search_mix_smoke_run():
    argv = [sys.executable, "perfbench/run.py", "--workload", "search-mix",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
