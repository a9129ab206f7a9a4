"""Checkers for the combinatorial independence relations.

``check`` is the one checker.  It decides a query under canonical-completion
semantics: the finite ambient is identified with its image in the (generally
infinite) completion, and closures are computed there by targeted spawning,
in one ``completion.LazyCompletion``.  A closure that does not converge
within budget yields UNKNOWN rather than a guess.

With cl the closure and C the base:

* ALG: cl(AC) and cl(BC) meet only inside cl(C).
* I: ALG, and no incidence joins cl(AC) - cl(C) to cl(BC) - cl(C).
* DIV: I over every closed D with C <= D <= cl(BC); dependence reports the
  least failing D (by size, then elements).
* OTIMES: I, plus cl(ABC) is the free completion of U = cl(AC) | cl(BC),
  the free amalgam of cl(AC) and cl(BC) over cl(C) once I holds.

ALG, I and OTIMES share one run each of the closures of C, AC and BC.  DIV
runs cl(BC), then one closure per closed base D, of AD, since the runs of D
and BD that an I check over D needs are known.  cl(BC) has converged, so
closure steps inside it spawn nothing and never leave it (nor do the
closedness checks of the bases).  D is closed, so its run is (D,),
converged: BC converged, so the stage budget is at least 1.  And
BC <= BD <= cl(BC): a closure step is monotone, so stage t of BD contains
stage t of BC and lies in cl(BC), and BD reaches cl(BC) no later than BC
did, spawning nothing.  So the spawns, in order, and every witness and
detail are those of I checks over each D that ran all three closures.

OTIMES walks the closure of U once: S_0 = U and S_t = S_{t-1} plus all it
forces, so cl(U) = cl(ABC).  Stage the free completion F of U as
``LazyCompletion.forced`` does, adding all missing common elements of each
spawner in one step (``free_completion`` adds one per stage; the union is
the same F).  A new element of F_t meets F_t in its spawner alone, m points
or n lines.  A new x of S_t meets at least its spawner in S_{t-1}; if each
meets no more, sending x to the element of F with its spawner extends an
isomorphism over U from S_{t-1} onto F_{t-1} to one from S_t onto F_t.
These keep stages, so a fault at any step refutes OTIMES at every budget,
with witness (x, all x meets in S_t); x is an ambient element, since spawns
meet their stage in their spawner.  A clean walk proves OTIMES if it
converges, is "verified to stage k" (ALG's and I's staging) if the stage
budget k cuts it, and is UNKNOWN if the element cap does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .amalgam import free_amalgam
from .closure import ClosureRun
from .completion import LazyCompletion
from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    Sort,
    _require_budgets,
    induced,
)


class Relation(Enum):
    ALG = "a"
    I = "i"
    DIV = "d"
    OTIMES = "otimes"


class Status(Enum):
    INDEPENDENT = "INDEPENDENT"
    DEPENDENT = "DEPENDENT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    status: Status
    # ALG: an element; I: a (point, line) incidence; DIV: (failing D, its I
    # witness); OTIMES: (x, all x meets in its closure stage, not a spawner)
    witness: Optional[object] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status is Status.INDEPENDENT


@dataclass(frozen=True)
class IndepQuery:
    ambient: IncidenceStructure
    a: frozenset
    b: frozenset
    c: frozenset
    relation: Relation
    stage_budget: int = 8
    element_cap: int = 100_000
    d_bound: int = 16  # max |closure(BC) - C| enumerated by DIV

    def __post_init__(self):
        _require_budgets(self.stage_budget, self.element_cap, self.d_bound)
        elems = self.ambient.elements()
        for label, part in (("A", self.a), ("B", self.b), ("C", self.c)):
            for e in part:
                if e not in elems:
                    raise ParameterError(f"{label} element {e} is not in the ambient")


def _unconverged(runs) -> Optional[str]:
    for label, run in runs:
        if not run.converged:
            why = "element cap" if run.capped else "stage budget"
            return f"closure of {label} did not converge ({why})"
    return None


def _verdict(work: LazyCompletion, runs, incidences: bool) -> Verdict:
    """The ALG verdict on the closure runs of the base, the A side and the B
    side, in that order; with ``incidences``, the I verdict: ALG, and no
    incidence joins the two side closures outside the base closure."""
    stuck = _unconverged(zip(("C", "AC", "BC"), runs))
    if stuck:
        return Verdict(Status.UNKNOWN, None, stuck)
    base, left, right = (run.closure_set for run in runs)
    overlap = (left & right) - base
    if overlap:
        w = min(overlap)
        return Verdict(
            Status.DEPENDENT, w, f"element {work.name(w)!r} lies in both closures"
        )
    if incidences:
        right = right - base
        for x in sorted(left - base):
            hit = work.neighbors(x) & right
            if hit:
                y = min(hit)
                # report the incidence in document order: point first
                p, l = (x, y) if work.sort(x) is Sort.POINT else (y, x)
                return Verdict(
                    Status.DEPENDENT,
                    (p, l),
                    f"incidence between {work.name(p)!r} and {work.name(l)!r} "
                    "joins the two closures",
                )
    return Verdict(Status.INDEPENDENT)


def _div(q: IndepQuery, work: LazyCompletion) -> Verdict:
    """DIV in ``work``: one closure of BC, then one of AD per closed base D
    (the module docstring shows that an I check over D needs no more).

    The bases D = C + extra are checked lazily, each for closedness just
    before its sub-query, and the first failing D ends the scan.  They come
    in report order, by (len(D), sorted(D)): ``combinations`` of the sorted
    ``free_part`` yields each size's extras in lexicographic order, and as C
    is disjoint from the extras, two same-size bases compare as their extras
    do (the least element of their symmetric difference decides both).
    Closedness checks spawn nothing (module docstring), so checking them
    lazily leaves every id, witness and detail as it was."""
    rbc = work.closure(q.b | q.c, q.stage_budget)
    stuck = _unconverged((("BC", rbc),))
    if stuck:
        return Verdict(Status.UNKNOWN, None, stuck)
    free_part = sorted(rbc.closure_set - q.c)
    if len(free_part) > q.d_bound:
        return Verdict(
            Status.UNKNOWN,
            None,
            f"closure of BC exceeds the enumeration bound "
            f"({len(free_part)} > {q.d_bound} elements over C)",
        )
    c = frozenset(q.c)
    bases = (c.union(extra) for r in range(len(free_part) + 1)
             for extra in itertools.combinations(free_part, r))
    for d in (d for d in bases if work.is_monster_closed(d)[0]):
        runs = (ClosureRun((d,), True), work.closure(q.a | d, q.stage_budget), rbc)
        v = _verdict(work, runs, incidences=True)
        if v.status is Status.UNKNOWN:
            return Verdict(
                Status.UNKNOWN, None, f"sub-query over D={sorted(d)}: {v.detail}"
            )
        if v.status is Status.DEPENDENT:
            names = sorted(work.name(e) for e in d)
            return Verdict(
                Status.DEPENDENT,
                (d, v.witness),
                f"I-dependence over intermediate base D={names}: {v.detail}",
            )
    return Verdict(Status.INDEPENDENT)


def _otimes(q: IndepQuery, work: LazyCompletion, runs) -> Verdict:
    """OTIMES in ``work`` by one walk of the closure of U (module docstring),
    given the I-independent closure ``runs`` of C, AC and BC there."""
    _, ra, rb = runs
    run = work.closure(ra.closure_set | rb.closure_set, q.stage_budget)
    for t, (before, cur) in enumerate(zip(run.stages, run.stages[1:]), 1):
        for x in sorted(cur - before):
            meets = cur & work.neighbors(x)
            size = work.params.m if work.sort(x) is Sort.LINE else work.params.n
            if len(meets) != size:
                return Verdict(Status.DEPENDENT, (x, meets), (
                    f"{work.name(x)!r} meets {len(meets)} elements of stage {t} of "
                    f"the closure of the side-closure union, not a {size}-set spawner"))
    if run.capped:
        return Verdict(Status.UNKNOWN, None,
                       "closure of the side-closure union hit the element cap")
    if run.converged:
        return Verdict(Status.INDEPENDENT, None, "the closure of ABC is the "
                       "free completion of the side-closure union")
    return Verdict(Status.INDEPENDENT, None, f"verified to stage {q.stage_budget}: "
                   "the closure of the side-closure union matches its free completion")


def check(q: IndepQuery) -> Verdict:
    """Decide ``q`` in one fresh canonical-completion workspace."""
    work = LazyCompletion(q.ambient, q.element_cap)
    if q.relation is Relation.DIV:
        return _div(q, work)
    runs = tuple(work.closure(s, q.stage_budget) for s in (q.c, q.a | q.c, q.b | q.c))
    v = _verdict(work, runs, incidences=q.relation is not Relation.ALG)
    if q.relation is Relation.OTIMES and v:
        return _otimes(q, work, runs)
    return v


@dataclass(frozen=True)
class IndepSequence:
    tuples: tuple  # tuples of element ids in the extended ambient
    ambient: IncidenceStructure
    c_ids: frozenset


def indep_sequence(
    ambient: IncidenceStructure,
    b: Sequence[int],
    c: frozenset,
    length: int,
    relation: Relation = Relation.I,
    stage_budget: int = 8,
    element_cap: int = 100_000,
) -> IndepSequence:
    """Build b_0 = b, b_1, ..., pairwise related-independent over c.

    Each new tuple is a fresh copy of the closure of bc over the closure of
    c, attached by free amalgamation (so b_i is isomorphic to b over c by
    construction).  The amalgam keeps its left side's ids, so the earlier
    tuples, c and the base embedding carry over unchanged.  The sequence is
    independent by construction, since each b_i joins its predecessors by a
    free amalgam over the closure of c.  The requested checker then only
    refutes: a DEPENDENT verdict means a bug in the construction and raises
    RuntimeError, while an UNKNOWN one (its closures need not converge, e.g.
    three points and a line at (2,2) generate a free projective plane)
    accepts the sequence.
    """
    if relation not in (Relation.ALG, Relation.I):
        raise ParameterError("sequences are built for the ALG and I relations")
    if length < 1:
        raise ParameterError("length must be >= 1")
    b = tuple(b)
    work = LazyCompletion(ambient, element_cap)
    rc = work.closure(c, stage_budget)
    rx = work.closure(frozenset(b) | c, stage_budget)
    if not (rc.converged and rx.converged):
        raise BudgetError("closures of c or bc did not converge within budget")

    current = work.snapshot()
    x_struct, x_map = induced(current, rx.closure_set)
    d_struct, d_map = induced(current, rc.closure_set)
    d_into_x = {d_map[e]: x_map[e] for e in rc.closure_set}
    d_in_current = {d_map[e]: e for e in rc.closure_set}

    tuples = [b]
    c_ids = frozenset(c)
    for _ in range(length - 1):
        am = free_amalgam(d_struct, current, x_struct, d_in_current, d_into_x)
        tuples.append(tuple(am.right_map[x_map[e]] for e in b))
        current = am.structure

    for i in range(1, len(tuples)):
        before = frozenset(e for t in tuples[:i] for e in t)
        v = check(IndepQuery(current, frozenset(tuples[i]), before, c_ids, relation,
                             stage_budget=stage_budget, element_cap=element_cap))
        if v.status is Status.DEPENDENT:
            raise RuntimeError(
                f"construction bug: b_{i} is not independent from its "
                f"predecessors ({v.detail})"
            )
    return IndepSequence(tuple(tuples), current, c_ids)
