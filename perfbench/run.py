"""kmnfree benchmark: one process, one thread, a closed loop of operations.

Usage, from the repository root:

    python3 perfbench/run.py --workload complete-deep --seed 1 --seconds 30 --trace 0

The inputs of a run come from ``--seed`` alone.  Set-up (a fresh import of
``kmnfree`` from ``src``, input generation and a warm-up) is repeated
``SETUPS`` times and its median reported as ``setup_s``.  The timed phase
then repeats the workload's round of operations until ``--seconds`` of wall
time are spent; each operation is issued only after the previous one
returned, and every output is checked.  The end-to-end times are scaled by
a reference clock (``ReferenceClock``) to a machine of fixed speed, because
the host's speed drifts while the benchmark runs.  Work counts (elements
spawned, search nodes, pattern candidates, verdict tallies) must repeat
exactly in every round.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate; the JSON holds the per-layer metrics of the traced rounds, the
tracing overhead measured against the untraced ones, and the spans are
written, gzipped, to ``perfbench/out/``.  The exit status is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter

PROCESS_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5

# The reference clock (see ReferenceClock): how often the reference kernel
# is timed, how many times in a row, and its time on the nominal machine.
CAL_INTERVAL_S = 0.025
CAL_REPS = 2
REF_KERNEL_S = 2.5e-4

sys.dont_write_bytecode = True  # every import compiles from source
sys.path.insert(0, HERE)

import spans  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

# (name, unit) of the JSON metrics.  error_ratio is printed only: it is 0
# whenever every check passes, and the JSON carries it as failed/attempted.
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("elements_per_s", "1/s"),
    ("decided_ratio", "ratio"), ("peak_rss_mb", "MB"),
]
WORK_METRICS = [  # per-layer work counts, read from results unless COMPUTED
    ("completion.elements_spawned", "count"),
    ("completion.lazy_spawned", "count"),
    ("completion.spawn_per_s", "1/s"),
    ("core.freeness_subsets", "count"),
    ("completion.deficiency_subsets", "count"),
    ("finsearch.nodes", "count"),
    ("finsearch.nodes_per_s", "1/s"),
    ("amalgam.pattern_candidates", "count"),
    ("amalgam.pattern_candidates_per_s", "1/s"),
    ("indep.unknown.element_cap", "count"),
    ("indep.unknown.stage_budget", "count"),
]
COMPUTED = {"core.freeness_subsets", "completion.deficiency_subsets"}  # from inputs
TRACE_METRICS = [
    ("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
    ("trace.overhead", "ratio"), ("trace.self_share", "ratio"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here: the library source is missing."""


# ---------------------------------------------------------------------------
# set-up


def import_kmnfree():
    """A fresh import of kmnfree from the checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "kmnfree", "__init__.py")):
        raise BenchmarkError(f"no kmnfree package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "kmnfree" or n.startswith("kmnfree.")]:
        del sys.modules[name]
    kmn = importlib.import_module("kmnfree")
    for sub in ("core", "completion", "closure", "amalgam", "indep", "gamma",
                "finsearch", "cli"):
        importlib.import_module(f"kmnfree.{sub}")
    return kmn


def set_up(workload: str, seed: int):
    kmn = import_kmnfree()
    items, warm_up = workloads.WORKLOADS[workload](kmn, random.Random(seed))
    warm_up()
    return kmn, items


# ---------------------------------------------------------------------------
# the reference clock


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the library does: small-int
    arithmetic, dict updates, a sort, frozensets in a set."""
    seen = {}
    for i in range(300):
        k = (i * 7919) % 1009
        seen[k] = seen.get(k, 0) + 1
    return len({frozenset((k, v % 17)) for k, v in sorted(seen.items())})


class ReferenceClock:
    """Wall times scaled to a machine of fixed speed.

    The host's cores are shared, and their speed for this process drifts by
    a quarter or more within seconds, for all code alike.  While it runs,
    the clock samples that speed: every CAL_INTERVAL_S a SIGALRM handler
    (on the main thread, between two bytecodes of whatever runs) times
    ``reference_kernel``, the best of CAL_REPS calls.  ``scale(start,
    end)`` takes the span's wall time less the handler's time within it,
    and multiplies it by REF_KERNEL_S over the mean kernel time sampled
    within the span and next to it: the time the span would take on a
    machine on which the kernel takes REF_KERNEL_S.  The kernel is part of
    the benchmark, so a change to the library moves the scaled times just
    as it moves the wall times.
    """

    def __init__(self):
        self.starts = []  # when each sample began
        self.kernel = []  # its kernel time
        self.spent = []  # the sample's own time
        self.saved = None
        self.busy = False

    def sample(self, *_signal) -> None:
        if self.busy:  # a signal that arrives during a sample is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        best = float("inf")
        for _ in range(CAL_REPS):
            t1 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t1)
        self.starts.append(t0)
        self.kernel.append(best)
        self.spent.append(time.perf_counter() - t0)
        self.busy = False

    def start(self) -> None:
        self.saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling, then take one last sample after every span."""
        if self.saved is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self.saved)
            self.saved = None
            self.sample()

    def scale(self, start: float, end: float) -> float:
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        around = self.kernel[max(0, i - 1):j + 1]
        wall = end - start - sum(self.spent[i:j])
        return wall * REF_KERNEL_S * len(around) / sum(around)

    def overhead(self) -> float:
        """Share of the sampled time spent sampling."""
        return sum(self.spent) / (self.starts[-1] - self.starts[0])


# ---------------------------------------------------------------------------
# the timed loop


class Round:
    """What one pass over the items did; the ``ctx`` the items talk to."""

    def __init__(self, index: int, tracer, hooks, budget_error):
        self.index = index
        self.first_round = index == 0
        self.traced = tracer is not None
        self.budget_error = budget_error
        self.tracer = tracer
        self.hooks = hooks
        self.wall = []  # (start, end) of each operation
        self.latencies = []  # scaled seconds, filled in by scale()
        self.attempted = self.failed = self.answers = self.decided = 0
        self.failures = []
        self.work = Counter()
        self.last_error = ""

    def op(self, label, thunk, decided=None, answers=1):
        """Issue one timed operation; returns its result, or None when it
        raised (a BudgetError is an undecided answer, anything else fails).

        The operation gives ``answers`` answers; ``decided(result)`` counts
        the decided ones, all of them by default.
        """
        self.attempted += 1
        self.answers += answers
        if self.tracer is not None:
            self.tracer.current_op += 1
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = thunk()
        except self.budget_error as exc:
            result, self.last_error = None, str(exc)
        except Exception as exc:  # a failed operation counts; the run goes on
            result, self.last_error = None, f"{type(exc).__name__}: {exc}"
            self.fail(f"{label} raised {self.last_error}")
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        self.wall.append((t0, t0 + dt))
        bulk, lazy = self.hooks.take()
        self.work["elements.bulk"] += bulk
        self.work["elements.lazy"] += lazy
        if result is not None:
            self.decided += answers if decided is None else decided(result)
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def count(self, key: str, n: int) -> None:
        self.work[key] += n

    def tally(self, key: str) -> None:
        self.work["tally." + key] += 1

    def unknown(self, cause) -> None:
        if cause is not None:
            self.work["unknown." + cause] += 1

    def scale(self, clock) -> None:
        self.latencies = [clock.scale(start, end) for start, end in self.wall]

    @property
    def op_time(self) -> float:
        """Wall time of the round's operations, unscaled."""
        return sum(end - start for start, end in self.wall)


def timed_phase(items, seconds, hooks, tracer, budget_error):
    """At least two rounds, then rounds until ``seconds`` of wall time are
    used; with a tracer, the rounds alternate untraced and traced, starting
    untraced.  Round 0 keeps the outputs later rounds are compared with, so
    from two rounds on every run holds the same objects at its peak."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        r = Round(len(rounds), tracer if traced else None, hooks, budget_error)
        for item in items:
            item(r)
        rounds.append(r)
        used = time.perf_counter() - start
        mean_wall = used / len(rounds)
        if len(rounds) >= 2 and used + mean_wall > seconds:
            return rounds


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_op_latency(rounds):
    """Each operation's median scaled latency over the rounds.

    Every round issues the same operations, so the median at each position
    discards the rounds a burst of machine noise happened to hit.
    """
    n = min(len(r.latencies) for r in rounds)
    return [statistics.median(r.latencies[i] for r in rounds) for i in range(n)]


def end_to_end(rounds, setup_s, peak_rss_mb):
    lat = per_op_latency(rounds)
    run_s = sum(lat)
    work = rounds[0].work
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ops_per_s": len(lat) / run_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "elements_per_s": (work["elements.bulk"] + work["elements.lazy"]) / run_s,
        "decided_ratio": sum(r.decided for r in rounds) / sum(r.answers for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced, untraced, tracer):
    n = len(traced)
    totals = tracer.layer_totals()
    out = {}
    for name, (calls, busy, self_s) in totals.items():
        out[f"{name}.calls"] = calls / n
        out[f"{name}.busy_s"] = busy / n
        out[f"{name}.self_s"] = self_s / n
    module_busy = tracer.module_busy()
    work = sum((r.work for r in traced), Counter())
    bulk, lazy = work["elements.bulk"] / n, work["elements.lazy"] / n
    spawn_time = (totals["completion.free_completion"][1]
                  + totals["completion.LazyCompletion.lines_through"][1]
                  + totals["completion.LazyCompletion.points_on"][1]) / n
    find_time = module_busy.get("finsearch", 0.0) / n
    pattern_time = totals["amalgam.pattern_consistent"][1] / n
    out.update({
        "completion.elements_spawned": bulk,
        "completion.lazy_spawned": lazy,
        "completion.spawn_per_s": (bulk + lazy) / spawn_time if spawn_time else 0.0,
        "core.freeness_subsets": tracer.freeness_subsets() / n,
        "completion.deficiency_subsets": tracer.deficiency_subsets() / n,
        "finsearch.nodes": work["nodes"] / n,
        "finsearch.nodes_per_s": work["nodes"] / n / find_time if find_time else 0.0,
        "amalgam.pattern_candidates": work["candidates"] / n,
        "amalgam.pattern_candidates_per_s":
            work["candidates"] / n / pattern_time if pattern_time else 0.0,
        "indep.unknown.element_cap": work["unknown.element_cap"] / n,
        "indep.unknown.stage_budget": work["unknown.stage_budget"] / n,
    })
    traced_s = sum(per_op_latency(traced))
    untraced_s = sum(per_op_latency(untraced))
    self_total = sum(v[2] for v in totals.values()) / n
    out.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.self_share": self_total / statistics.mean(r.op_time for r in traced),
    })
    return out


def units():
    table = dict(END_TO_END)
    table["error_ratio"] = "ratio"
    for name in spans.span_names():
        table[f"{name}.calls"] = "count"
        table[f"{name}.busy_s"] = "s"
        table[f"{name}.self_s"] = "s"
    table.update(WORK_METRICS)
    table.update(TRACE_METRICS)
    return table


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = ReferenceClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    setup_spans = []
    for i in range(SETUPS):
        t0 = PROCESS_START if i == 0 else time.perf_counter()
        kmn, items = set_up(args.workload, args.seed)
        setup_spans.append((t0, time.perf_counter()))
    hooks = spans.WorkHooks(kmn)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(kmn)

    rounds = timed_phase(items, args.seconds, hooks, tracer, kmn.BudgetError)
    clock.stop()
    setup_times = [clock.scale(start, end) for start, end in setup_spans]
    for r in rounds:
        r.scale(clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]
    for r in rounds[1:]:
        if r.work != first.work:
            diff = sorted(k for k in set(r.work) | set(first.work)
                          if r.work[k] != first.work[k])
            r.fail(f"round {r.index} work counts differ from round 0: {diff}")

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    attempted = sum(r.attempted for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds))
    metrics = end_to_end(untraced, statistics.median(setup_times), peak_rss_mb)
    shown = dict(metrics, error_ratio=failed / attempted)
    table = units()

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(untraced)} untraced"
          f" + {len(traced)} traced  ops/round {first.attempted}  setups {SETUPS}")
    for name, value in shown.items():
        print(f"  {name:<16} {value:>14.6g} {table[name]}")
    lat = per_op_latency(untraced)
    beyond = sum(1 for x in lat if x > metrics["op_p99_ms"] / 1e3)
    print(f"  reference kernel: median {statistics.median(clock.kernel) * 1e6:.1f} us"
          f" over {len(clock.kernel)} samples, nominal {REF_KERNEL_S * 1e6:.1f} us;"
          f" sampling took {clock.overhead():.1%} of the run;"
          f" median round wall time {statistics.median(r.op_time for r in untraced):.4f} s")
    print(f"  op_p99_ms: {beyond} of {len(lat)} per-operation medians lie beyond it")
    print("  round wall op time (s): " + " ".join(f"{'T' if r.traced else ''}{r.op_time:.3f}"
                                             for r in rounds))
    print("  work/round " + json.dumps(dict(sorted(first.work.items()))))
    for r in rounds:
        for message in r.failures[:10]:
            print(f"  FAILED (round {r.index}): {message}")

    if tracer is not None:
        layer = per_layer(traced, untraced, tracer)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.tsv.gz")
        count = tracer.write(path)
        print(f"  {count} spans written to {os.path.relpath(path, ROOT)}")
        for name, value in layer.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:<52} {value:>14.6g} {table[name]}{label}")
        reported = layer
    else:
        reported = metrics

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
