"""Run perfbench on two checkouts in alternating pairs and keep every result.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload complete-deep --seeds 21-30 --out BENCH_3.json

For each seed, ``perfbench/run.py`` runs once in each checkout, for the
``run_seconds`` that checkout's ``BENCHMARK.json`` declares, the parent
first on even-numbered pairs and the change first on odd ones.  A run that
exits non-zero (a wrong answer or an error) stops the whole campaign.  The
final JSON line of every run is appended to ``--out`` (created if missing)
with its workload, seed, side, position in the pair, ``--tag`` and round
count (perfbench's ``rounds N untraced`` line).  Afterwards the summary of
every workload and tag in the file is recomputed: per metric and side, the
median and quartiles, and how many pairs the change won; per metric,
``worse_by``, the fraction by which the change median is worse than the
parent median (negative when better), and ``within_bound``, whether that is
at most the metric's bound; and per side the median round count, since
``peak_rss_mb`` grows with the rounds a run keeps.  Which direction is
better, and each bound, come from the ``end_to_end`` list of the change
checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


def benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(tree, workload, seed, trace):
    seconds = benchmark(tree)["run_seconds"]
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    rounds = re.search(r"rounds (\d+) untraced", proc.stdout)
    return json.loads(lines[-1]), rounds and int(rounds.group(1))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, rules):
    """The summary of ``runs`` per workload and tag; ``rules`` is the
    ``end_to_end`` list of ``BENCHMARK.json`` (name, better, bound)."""
    rules = {r["name"]: r for r in rules}
    out = {}
    for key in sorted({(r["workload"], r["tag"]) for r in runs}):
        pairs = {}
        for r in runs:
            if (r["workload"], r["tag"]) == key and r["trace"] == 0:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        table = {"pairs": len(pairs)}
        rounds = {side: [p[side]["rounds"] for p in pairs if p[side].get("rounds")]
                  for side in ("parent", "change")}
        if all(rounds.values()):
            table["rounds"] = {side: statistics.median(v) for side, v in rounds.items()}
        for name in pairs[0]["parent"]["result"]["metrics"]:
            vals = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                    for side in ("parent", "change")}
            sign = 1 if rules[name]["better"] == "higher" else -1
            wins = sum(1 for a, b in zip(vals["parent"], vals["change"])
                       if sign * (b - a) > 0)
            table[name] = {side: dict(zip(("q1", "median", "q3"), quartiles(v)))
                           for side, v in vals.items()}
            table[name]["change_wins"] = wins
            before, after = (table[name][side]["median"] for side in ("parent", "change"))
            worse_by = sign * (before - after) / before
            table[name]["worse_by"] = worse_by
            table[name]["within_bound"] = worse_by <= rules[name]["bound"]
        out["@".join(filter(None, key))] = table
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default="", help="names the change version")
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    doc = {"python": platform.python_version(), "cpus": os.cpu_count(), "runs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    trees = {"parent": args.parent, "change": args.change}
    rules = benchmark(args.change)["end_to_end"]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for pos, side in enumerate(order):
            result, rounds = run_once(trees[side], args.workload, seed, args.trace)
            doc["runs"].append({"workload": args.workload, "seed": seed,
                                "trace": args.trace, "tag": args.tag, "side": side,
                                "first": pos == 0, "rounds": rounds, "result": result})
            print(f"{args.workload} seed {seed} {side} ({rounds} rounds): "
                  + json.dumps({k: round(v["value"], 4)
                                for k, v in result["metrics"].items()
                                if args.trace == 0}), flush=True)
            doc["summary"] = summarize(doc["runs"], rules)
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
