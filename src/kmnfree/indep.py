"""Checkers for the combinatorial independence relations.

All queries are evaluated under canonical-completion semantics: the finite
ambient structure is identified with its image in the (generally infinite)
completion, and closures of the query sets are computed there by targeted
spawning (completion.LazyCompletion).  Verdicts are three-valued: a closure
that fails to converge within budget yields UNKNOWN rather than a guess.

Relations:

* ALG: the closures of the two sides over the base meet only in the closure
  of the base.
* I: ALG, plus no incidence joins the two closures outside the base closure.
* DIV: I over every closed intermediate base D with C <= D <= closure(BC);
  dependence reports the least failing D.
* OTIMES: I, plus the stage-k closure of A union B union C is isomorphic over
  it to the stage-k free completion of the union of the two side closures
  (stage-qualified; the stage is reported).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .amalgam import free_amalgam
from .completion import LazyCompletion, free_completion
from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    Sort,
    induced,
    isomorphic_over,
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
    witness: Optional[object] = None  # element, incidence pair, or failing D
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


def _alg(q: IndepQuery, work: LazyCompletion):
    """The closure runs of C, AC and BC in the shared ``work``, and the ALG
    verdict on them."""
    runs = tuple(work.closure(s, q.stage_budget) for s in (q.c, q.a | q.c, q.b | q.c))
    stuck = _unconverged(zip(("C", "AC", "BC"), runs))
    if stuck:
        return runs, Verdict(Status.UNKNOWN, None, stuck)
    rc, ra, rb = runs
    overlap = (ra.closure_set & rb.closure_set) - rc.closure_set
    if overlap:
        w = min(overlap)
        return runs, Verdict(
            Status.DEPENDENT, w, f"element {work.name(w)!r} lies in both closures"
        )
    return runs, Verdict(Status.INDEPENDENT)


def _i(q: IndepQuery, work: LazyCompletion):
    """``_alg``'s runs and the I verdict: ALG, and no incidence joins the two
    closures outside the base closure."""
    runs, v = _alg(q, work)
    if v.status is not Status.INDEPENDENT:
        return runs, v
    rc, ra, rb = runs
    right = rb.closure_set - rc.closure_set
    for x in sorted(ra.closure_set - rc.closure_set):
        hit = work.neighbors(x) & right
        if hit:
            y = min(hit)
            # report the incidence in document order: point first
            p, l = (x, y) if work.sort(x) is Sort.POINT else (y, x)
            return runs, Verdict(
                Status.DEPENDENT,
                (p, l),
                f"incidence between {work.name(p)!r} and {work.name(l)!r} "
                "joins the two closures",
            )
    return runs, v


def a_indep(q: IndepQuery, work: Optional[LazyCompletion] = None) -> Verdict:
    return _alg(q, work or LazyCompletion(q.ambient, q.element_cap))[1]


def i_indep(q: IndepQuery, work: Optional[LazyCompletion] = None) -> Verdict:
    return _i(q, work or LazyCompletion(q.ambient, q.element_cap))[1]


def d_indep(q: IndepQuery) -> Verdict:
    work = LazyCompletion(q.ambient, q.element_cap)
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
    ds = []
    for r in range(len(free_part) + 1):
        for extra in itertools.combinations(free_part, r):
            d = frozenset(q.c) | frozenset(extra)
            closed, _ = work.is_monster_closed(d)
            if closed:
                ds.append(d)
    ds.sort(key=lambda d: (len(d), sorted(d)))
    ambient_now = work.snapshot()
    for d in ds:
        sub = IndepQuery(
            ambient=ambient_now,
            a=q.a,
            b=q.b,
            c=d,
            relation=Relation.I,
            stage_budget=q.stage_budget,
            element_cap=q.element_cap,
        )
        v = i_indep(sub, work)
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


def otimes_check(q: IndepQuery) -> Verdict:
    work = LazyCompletion(q.ambient, q.element_cap)
    (_, ra, rb), base_verdict = _i(q, work)
    if base_verdict.status is not Status.INDEPENDENT:
        return base_verdict
    k = q.stage_budget

    run = work.closure(q.a | q.b | q.c, k)
    if run.capped:
        return Verdict(Status.UNKNOWN, None, "joint closure hit the element cap")
    joint_stage = run.stages[min(k, len(run.stages) - 1)]

    union_set = ra.closure_set | rb.closure_set
    if not union_set <= joint_stage:
        return Verdict(
            Status.UNKNOWN,
            None,
            f"stage budget {k} too small: the side closures are not yet "
            "inside the joint closure stage",
        )
    union_struct, union_map = induced(work.snapshot(), union_set)
    try:
        frun = free_completion(union_struct, k, q.element_cap)
    except BudgetError:
        return Verdict(Status.UNKNOWN, None, "free completion hit the element cap")
    fk = frun.final.structure

    joint_struct, joint_map = induced(work.snapshot(), joint_stage)
    base = {union_map[e]: joint_map[e] for e in union_set}
    iso = isomorphic_over(fk, joint_struct, base)
    if iso:
        return Verdict(
            Status.INDEPENDENT,
            None,
            f"verified to stage {k}: joint closure matches the free completion "
            "of the side-closure union",
        )
    return Verdict(
        Status.DEPENDENT,
        None,
        f"stage-{k} joint closure is not isomorphic over ABC to the stage-{k} "
        "free completion of the side-closure union "
        f"({len(joint_struct)} vs {len(fk)} elements)",
    )


def check(q: IndepQuery) -> Verdict:
    if q.relation is Relation.ALG:
        return a_indep(q)
    if q.relation is Relation.I:
        return i_indep(q)
    if q.relation is Relation.DIV:
        return d_indep(q)
    return otimes_check(q)


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
    construction).  Independence of each b_i from its predecessors is then
    verified post hoc with the requested checker; a failure means a bug in
    the construction and raises RuntimeError.
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
        tuples = [tuple(am.left_map[e] for e in t) for t in tuples]
        c_ids = frozenset(am.left_map[e] for e in c_ids)
        d_in_current = {k: am.left_map[v] for k, v in d_in_current.items()}
        tuples.append(tuple(am.right_map[x_map[e]] for e in b))
        current = am.structure

    for i in range(1, len(tuples)):
        before = frozenset(e for t in tuples[:i] for e in t)
        q = IndepQuery(
            ambient=current,
            a=frozenset(tuples[i]),
            b=before,
            c=c_ids,
            relation=relation,
            stage_budget=stage_budget,
            element_cap=element_cap,
        )
        v = check(q)
        if v.status is Status.UNKNOWN:
            raise BudgetError(f"post-hoc verification undecided: {v.detail}")
        if v.status is Status.DEPENDENT:
            raise RuntimeError(
                f"construction bug: b_{i} is not independent from its "
                f"predecessors ({v.detail})"
            )
    return IndepSequence(tuple(tuples), current, c_ids)
