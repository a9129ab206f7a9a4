"""Re-run the TP2 pattern survey of ROADMAP item 10 in process, one line per
row.

    python3 tools/pattern_survey.py              # every row
    python3 tools/pattern_survey.py 2,2,3 3,2,4  # chosen rows

A row m,n,k builds the case as ``kmnfree pattern --m M --n N --instances K``
does: the tp2 pattern of (m, n) over an independent sequence of k rows from
the point b0 and the lines c1 .. c(n-1) (stage budget 8), searched at stage
budget 1.  Rows run at an unbounded candidate budget, 10^15, with element
cap 2,000 (the survey's ``--nodes 1000000000000000 --elements 2000``), except
(3,2) x 5 and (3,3) x 5, which exhaust even that and run at the CLI's default
candidate budget, 10^7, with the same element cap.  Each line gives (m, n) x
k, the two budgets, the status, the candidates counted and the seconds the
search took, the sequence not included.  The checkout's ``src`` goes first
on the path.  Standard library only.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import kmnfree as kmn  # noqa: E402

UNBOUNDED, DEFAULT, ELEMENTS = 10**15, 10**7, 2000

# (m, n, instances) -> candidate budget
ROWS = {
    (2, 2, 3): UNBOUNDED,
    (2, 2, 4): UNBOUNDED,
    (2, 2, 5): UNBOUNDED,
    (2, 2, 6): UNBOUNDED,
    (3, 2, 2): UNBOUNDED,
    (3, 3, 2): UNBOUNDED,
    (3, 2, 3): UNBOUNDED,
    (3, 2, 4): UNBOUNDED,
    (3, 3, 3): UNBOUNDED,
    (2, 3, 2): UNBOUNDED,
    (2, 3, 3): UNBOUNDED,
    (2, 4, 2): UNBOUNDED,
    (3, 3, 4): UNBOUNDED,
    (3, 2, 5): DEFAULT,
    (3, 3, 5): DEFAULT,
}


def case(m, n, instances):
    """(base, pattern, rows) as ``kmnfree pattern`` builds them."""
    b = kmn.StructureBuilder(kmn.StructParams(m, n))
    b0 = b.add_point("b0")
    cs = frozenset(b.add_line(f"c{j}") for j in range(1, n))
    seq = kmn.indep_sequence(b.build(), (b0,), cs, instances,
                             stage_budget=8, element_cap=ELEMENTS)
    rows = [t + tuple(sorted(seq.c_ids)) for t in seq.tuples]
    return seq.ambient, kmn.tp2_pattern(m, n), rows


def survey_row(m, n, instances, budget):
    """(verdict, seconds) of one row's search."""
    base, pattern, rows = case(m, n, instances)
    start = time.perf_counter()
    v = kmn.pattern_consistent(base, pattern, rows, stage_budget=1,
                               candidate_budget=budget, element_cap=ELEMENTS)
    return v, time.perf_counter() - start


def main(argv):
    try:
        keys = [tuple(map(int, arg.split(","))) for arg in argv] or list(ROWS)
    except ValueError:
        keys = None
    if keys is None or any(key not in ROWS for key in keys):
        known = " ".join(",".join(map(str, key)) for key in ROWS)
        print(f"usage: pattern_survey.py [M,N,K ...]; rows: {known}", file=sys.stderr)
        return 2
    for m, n, k in keys:
        budget = ROWS[m, n, k]
        v, seconds = survey_row(m, n, k, budget)
        shown = "10^15" if budget == UNBOUNDED else f"{budget:,}"
        print(f"({m},{n}) x {k}  candidates<={shown} elements<={ELEMENTS:,}  "
              f"{v.status.name}  {v.candidates:,}  {seconds:.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
