"""One short benchmark run: perfbench/run.py still runs, checks its own
answers and reports exactly the end-to-end metrics BENCHMARK.json declares.
And the library names perfbench wraps or patches still exist.

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


# Run in a fresh interpreter, as perfbench imports the package: load
# perfbench/spans.py by path and print every name it wraps (ENTRY_POINTS) or
# patches (WorkHooks) that getattr cannot resolve.
RESOLVE = """
import importlib, importlib.util, json, sys
spans_path, src = sys.argv[1:]
sys.path.insert(0, src)
spec = importlib.util.spec_from_file_location("spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
wanted = [(mod, entry if isinstance(entry, tuple) else (entry,))
          for mod, entries in spans.ENTRY_POINTS.items() for entry in entries]
wanted += [("completion", ("free_completion",)),
           ("completion", ("LazyCompletion", "__init__"))]
missing = []
for mod, path in wanted:
    obj = importlib.import_module("kmnfree." + mod)
    for attr in path:
        obj = getattr(obj, attr, None)
    if not callable(obj):
        missing.append(".".join((mod,) + path))
print(json.dumps(missing))
"""


def test_benchmark_entry_points_resolve():
    # a deleted or moved name breaks --trace 1 runs (ENTRY_POINTS) or the
    # always-on spawn counters (WorkHooks), which the smoke run above skips
    argv = [sys.executable, "-c", RESOLVE, str(ROOT / "perfbench" / "spans.py"),
            str(ROOT / "src")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
