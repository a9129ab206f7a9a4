"""Check that work counts do not depend on string hashing.

Runs one short benchmark per workload under two ``PYTHONHASHSEED`` values
and compares the per-round work counts each prints (elements spawned,
search nodes, pattern candidates, verdict tallies).  Within one run the
benchmark already requires every round to repeat the counts of the first.

    python3 perfbench/determinism.py [--seed 1]

Exits 0 when every workload reports identical counts under both values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = ("0", "1")


def work_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed under PYTHONHASHSEED={hash_seed}:\n"
                         f"{proc.stdout}{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.strip().startswith("work/round "):
            return json.loads(line.split("work/round ", 1)[1])
    raise SystemExit(f"{workload}: no work counts in the output")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    same = True
    for workload in WORKLOADS:
        counts = [work_counts(workload, args.seed, h) for h in HASH_SEEDS]
        differ = sorted(k for k in set(counts[0]) | set(counts[1])
                        if counts[0].get(k) != counts[1].get(k))
        same &= not differ
        print(f"{workload}: {'identical' if not differ else 'DIFFER ' + str(differ)}"
              f" under PYTHONHASHSEED={','.join(HASH_SEEDS)}  {json.dumps(counts[0])}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
