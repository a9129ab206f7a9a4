"""One digest of every independence verdict on perfbench's query-mix queries.

    python3 tools/verdict_hash.py SEED

Draws the query-mix workload that ``perfbench/run.py --seed SEED`` runs, and
captures the (structure, A, B, C) of each of its queries.  Each query is
checked for every relation in both directions, (A, B) and (B, A), with
query-mix's stage budget and element cap.  The status, witness and detail of
every verdict go into one SHA-256 digest, printed with the number of checks.
Two trees that print the same digest for a seed give byte-identical verdicts
on those queries, so a change to the independence layer can be shown to keep
its outputs with one command per tree.  ``perfbench/`` is imported, not
changed.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import kmnfree as kmn  # noqa: E402
import workloads  # noqa: E402


def canonical(value):
    """``value`` with its sets sorted, so that its repr is reproducible."""
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(canonical(v) for v in value))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def drawn_queries(seed: int) -> list:
    """The (structure, A, B, C) of every query-mix query for ``seed``."""
    queries = []
    real = workloads.query_item

    def capture(kmn_, s, a, b, c):
        queries.append((s, a, b, c))
        return real(kmn_, s, a, b, c)

    workloads.query_item = capture
    try:
        workloads.query_mix(kmn, random.Random(seed))
    finally:
        workloads.query_item = real
    return queries


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/verdict_hash.py SEED", file=sys.stderr)
        return 1
    digest, checks = hashlib.sha256(), 0
    for s, a, b, c in drawn_queries(int(argv[0])):
        for rel in kmn.Relation:
            for x, y in ((a, b), (b, a)):
                v = kmn.check(kmn.IndepQuery(
                    s, x, y, c, rel, stage_budget=workloads.QUERY_STAGES,
                    element_cap=workloads.QUERY_CAP))
                digest.update(repr((v.status.name, canonical(v.witness),
                                    v.detail)).encode() + b"\n")
                checks += 1
    print(f"{digest.hexdigest()}  {checks} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
