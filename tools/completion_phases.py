"""Time ``kmnfree complete`` on the (2,2) quadrangle in process, phase by
phase.

    python3 tools/completion_phases.py          # stage 7, 5 rounds
    python3 tools/completion_phases.py 4 20     # stage 4, 20 rounds

A round runs the CLI call ``kmnfree complete - --stages STAGE`` through
``kmnfree.cli.dispatch`` on the document of four points p1 .. p4 with
(m, n) = (2, 2), stdin, stdout and stderr in memory (as perfbench's
complete-deep workload does), then ``is_kmn_free`` on the final stage.
While the call runs, the deficiency scans (``completion._deficient``), the
steps (``completion._step``) and the document writer
(``cli._document_text``) are wrapped by timers, and ``gc.callbacks``
counts and times the cyclic collector's runs per generation.  ``rest`` is
the call's time outside the three phases: parsing, the seed's freeness
check and argument handling.  Collections are timed inside whichever phase
they interrupt, and are also reported on their own.

One warm-up round runs first.  The report gives the stage sizes, the
document's length and SHA-256 (so two checkouts' outputs can be compared),
then per phase the median time over the rounds and its calls per round,
and per generation the mean collections and milliseconds per round.  The
checkout's ``src`` goes first on the path.  Standard library only.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import kmnfree as kmn  # noqa: E402
from kmnfree import cli, completion  # noqa: E402

SEED = "".join([
    '{\n  "incidences": [],\n  "lines": [],\n  "m": 2,\n  "n": 2,\n',
    '  "points": [\n    "p1",\n    "p2",\n    "p3",\n    "p4"\n  ]\n}\n',
])
PHASES = ("deficiency scans", "steps", "document", "rest", "call", "is_kmn_free")


def timed(module, attr, phase, clock):
    """Wrap ``module.attr`` so each call adds its seconds and a count to
    ``clock[phase]`` and keeps its first argument there; returns
    (module, attr, the original)."""
    original = getattr(module, attr)

    def wrapper(first, *args, **kw):
        start = time.perf_counter()
        try:
            return original(first, *args, **kw)
        finally:
            clock[phase][0] += time.perf_counter() - start
            clock[phase][1] += 1
            clock[phase][2:] = [first]

    setattr(module, attr, wrapper)
    return module, attr, original


def one_round(stages):
    """(phase -> [seconds, calls], gen -> [collections, seconds], sizes,
    document length, document digest) of one round.  Nothing of the round's
    completion is kept, so a later round's collections do not walk it."""
    clock = {phase: [0.0, 0] for phase in PHASES}
    collections = {gen: [0, 0.0] for gen in range(3)}
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            tally = collections[info["generation"]]
            tally[0] += 1
            tally[1] += time.perf_counter() - started.pop()

    patched = [timed(completion, "_deficient", "deficiency scans", clock),
               timed(completion, "_step", "steps", clock),
               timed(cli, "_document_text", "document", clock)]
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(SEED)
    gc.callbacks.append(on_gc)
    try:
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.dispatch(["complete", "-", "--stages", str(stages)])
        clock["call"] = [time.perf_counter() - start, 1]
    finally:
        gc.callbacks.remove(on_gc)
        sys.stdin = saved
        for module, attr, original in patched:
            setattr(module, attr, original)
    if code != 0:
        raise SystemExit(f"kmnfree complete exited {code}: {err.getvalue()}")
    clock["rest"] = [clock["call"][0] - sum(clock[p][0] for p in PHASES[:3]), 1]
    start = time.perf_counter()
    free, _ = kmn.is_kmn_free(clock["document"].pop())  # the final stage
    clock["is_kmn_free"] = [time.perf_counter() - start, 1]
    if not free:
        raise SystemExit(f"stage {stages} is not K_(2,2)-free")
    sizes = err.getvalue().rsplit("(sizes ", 1)[1].split(")")[0]
    text = out.getvalue()
    return clock, collections, sizes, len(text), hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    try:
        stages, rounds = (list(map(int, argv)) + [7, 5][len(argv):])[:2]
    except ValueError:
        stages = rounds = -1
    if len(argv) > 2 or stages < 0 or rounds < 1:
        print("usage: completion_phases.py [STAGE [ROUNDS]]", file=sys.stderr)
        return 2
    one_round(stages)  # warm-up
    runs = [one_round(stages) for _ in range(rounds)]
    sizes, size, digest = runs[0][2:]
    if any(run[4] != digest for run in runs):
        raise SystemExit("the document differs between rounds")
    print(f"kmnfree complete (2,2) quadrangle --stages {stages}: sizes {sizes}")
    print(f"document {size:,} bytes sha256 {digest}")
    print(f"median of {rounds} rounds:")
    for phase in PHASES:
        ms = statistics.median(run[0][phase][0] for run in runs) * 1000
        print(f"  {phase:<17} {ms:9.3f} ms  {runs[0][0][phase][1]} calls")
    for gen in range(3):
        count = statistics.mean(run[1][gen][0] for run in runs)
        ms = statistics.mean(run[1][gen][1] for run in runs) * 1000
        print(f"  gc gen {gen:<10} {ms:9.3f} ms  {count:g} collections (mean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
