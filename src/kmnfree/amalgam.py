"""Amalgamation machinery for K_{m,n}-free structures.

Four constructions live here:

* safe diagrams: finite K-free diagrams over base variables x̄ and extension
  variables ȳ where each extension point touches at most n-1 base lines and
  each extension line at most m-1 base points.  Realizing such a diagram over
  any anchor tuple matching its base part keeps the structure K-free.
* free amalgamation: disjoint union of two structures over a common induced
  base, no new incidences, verified K-free.
* independence gluing: the three-way amalgam X_abc of pairwise joins X_ab,
  X_ac, X_bc over closed sides X_a, X_b, X_c and a common base D.  All
  hypotheses (shape, closedness, independence) are checked by name and any
  failure is reported as the specific hypothesis that broke.
* a consistency oracle for existential incidence patterns: given a base, a
  diagram with shared variables, per-instance parameters and per-instance
  witness variables, decide whether some identification of the variables
  (with each other, or with elements of the base's canonical closure) yields
  a K-free realization of every instance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence

from .closure import is_i_closed
from .completion import LazyCompletion
from .core import (
    BudgetError,
    FreenessViolationError,
    IncidenceStructure,
    ParameterError,
    PreconditionError,
    Sort,
    StructureBuilder,
    _primed_name,
    _require_budgets,
    _require_free,
    embedding_fault,
    induced,
    is_kmn_free,
)


# ---------------------------------------------------------------------------
# safe diagrams


@dataclass(frozen=True)
class SafeDiagram:
    """A diagram over base variables ``base_vars`` and extension variables
    ``ext_vars`` (element ids of ``structure``, which they must partition).
    Variable order matters: anchors are matched to base_vars by position."""

    structure: IncidenceStructure
    base_vars: tuple
    ext_vars: tuple

    def __post_init__(self):
        seen = list(self.base_vars) + list(self.ext_vars)
        if len(set(seen)) != len(seen):
            raise ParameterError("diagram variables must be distinct")
        if set(seen) != set(self.structure.elements()):
            raise ParameterError(
                "base_vars and ext_vars must partition the diagram elements"
            )


@dataclass(frozen=True)
class SafetyReport:
    ok: bool
    condition: Optional[int]  # 1 = freeness, 2 = point degree, 3 = line degree
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def validate_safe_diagram(d: SafeDiagram) -> SafetyReport:
    """Check the three safety conditions; reports the first violated one."""
    s = d.structure
    m, n = s.params.m, s.params.n
    ok, witness = is_kmn_free(s)
    if not ok:
        return SafetyReport(False, 1, f"diagram contains a forbidden biclique: {witness}")
    base = set(d.base_vars)
    for y in d.ext_vars:
        into_base = len(s.neighbors(y) & base)
        if s.is_point(y) and into_base > n - 1:
            return SafetyReport(
                False,
                2,
                f"extension point {s.name(y)!r} meets {into_base} base lines, "
                f"allowed at most {n - 1}",
            )
        if s.is_line(y) and into_base > m - 1:
            return SafetyReport(
                False,
                3,
                f"extension line {s.name(y)!r} meets {into_base} base points, "
                f"allowed at most {m - 1}",
            )
    return SafetyReport(True, None, "safe")


@dataclass(frozen=True)
class Extension:
    structure: IncidenceStructure
    ext_images: dict  # diagram ext var id -> new element id


def extension_witness(
    s: IncidenceStructure, anchor: Sequence[int], d: SafeDiagram
) -> Extension:
    """Extend ``s`` by fresh elements realizing the extension part of ``d``
    over ``anchor``.

    The anchor must realize the base part of the diagram exactly: same sorts,
    distinct elements, and incidences among anchor elements agreeing with the
    diagram's base incidences in both directions.  Only incidences touching a
    fresh element are added, copied from the diagram, so the anchor and the
    fresh elements (the images) induce a copy of it.  The result is free: a
    new grid has a fresh element (the host is free), say a point y.  Its n
    lines lie on y, so are images, one of them fresh (y meets at most n-1
    base lines: safety condition 2).  Its points lie on that line, so the
    grid lies in the copy of the free diagram.  A fresh line is dual.
    """
    report = validate_safe_diagram(d)
    if not report:
        raise PreconditionError(f"diagram is not safe: {report.detail}")
    _require_free(s, "host structure")
    anchor = tuple(anchor)
    if len(anchor) != len(d.base_vars):
        raise PreconditionError(
            f"anchor has {len(anchor)} elements, diagram has {len(d.base_vars)} base variables"
        )
    for a in anchor:
        if a not in s.elements():
            raise ParameterError(f"anchor element {a} is not in the structure")
    dg, pos = d.structure, dict(zip(d.base_vars, anchor))
    fault = embedding_fault(dg, s, pos)
    if fault:
        raise PreconditionError(f"anchor does not realize the base diagram: {fault}")

    b = StructureBuilder.from_structure(s)
    images = {}
    for y in d.ext_vars:
        images[y] = b.add_point() if dg.is_point(y) else b.add_line()
    full = {**pos, **images}
    for y in d.ext_vars:
        for nb in sorted(dg.neighbors(y)):
            if nb in images and dg.is_line(y):
                continue  # handled from the point side
            p, l = (y, nb) if dg.is_point(y) else (nb, y)
            b.add_incidence(full[p], full[l], guard=False)
    return Extension(b.build(), images)


# ---------------------------------------------------------------------------
# free amalgamation


def _check_induced_embedding(
    small: IncidenceStructure,
    big: IncidenceStructure,
    mapping: Dict[int, int],
    label: str,
) -> None:
    if set(mapping) != set(small.elements()):
        raise PreconditionError(f"{label}: embedding does not cover the base")
    fault = embedding_fault(small, big, mapping)
    if fault:
        raise PreconditionError(f"{label}: not an induced embedding: {fault}")


@dataclass(frozen=True)
class Amalgam:
    structure: IncidenceStructure
    left_map: dict  # left structure id -> amalgam id
    right_map: dict  # right structure id -> amalgam id


def free_amalgam(
    base: IncidenceStructure,
    left: IncidenceStructure,
    right: IncidenceStructure,
    left_embedding: Dict[int, int],
    right_embedding: Dict[int, int],
) -> Amalgam:
    """Disjoint union of ``left`` and ``right`` over ``base``.

    No incidences are added beyond those of the two sides.  The result is
    returned only if K-free; a violation raises FreenessViolationError with
    its witness (this can only happen when the base is not complete).
    The amalgam is a copy of ``left``, which keeps its ids and names (so
    ``left_map`` is the identity), grown by the right side's elements
    outside the base, in id order, and the right side's incidences.  Such
    an element whose name is taken is renamed by priming.
    """
    if not (base.params == left.params == right.params):
        raise ParameterError("all three structures must share parameters")
    _check_induced_embedding(base, left, left_embedding, "base into left")
    _check_induced_embedding(base, right, right_embedding, "base into right")

    b = StructureBuilder.from_structure(left)
    right_map = {right_embedding[a]: left_embedding[a] for a in base.elements()}
    for e in right.elements():
        if e not in right_map:
            nm = _primed_name(right.name(e), b._ids)
            right_map[e] = b.add_point(nm) if right.is_point(e) else b.add_line(nm)
    for p, l in right.incidences():
        b.add_incidence(right_map[p], right_map[l], guard=False)
    out = b.build()
    ok, witness = is_kmn_free(out)
    if not ok:
        raise FreenessViolationError(witness, "free amalgam")
    return Amalgam(out, {e: e for e in left.elements()}, right_map)


# ---------------------------------------------------------------------------
# three-way independence gluing


class GlueHypothesisError(PreconditionError):
    """A named hypothesis of the gluing operation failed."""

    def __init__(self, hypothesis: str, detail: str):
        super().__init__(f"hypothesis {hypothesis} fails: {detail}")
        self.hypothesis = hypothesis
        self.detail = detail


@dataclass(frozen=True)
class GlueProblem:
    """Inputs for the three-way glue, identified by element names.

    ``d_names`` is the common base; x_a, x_b, x_c are the closed sides; x_ab,
    x_ac, x_bc the pairwise joins.  A name means the same element wherever it
    appears.
    """

    d_names: frozenset
    x_a: IncidenceStructure
    x_b: IncidenceStructure
    x_c: IncidenceStructure
    x_ab: IncidenceStructure
    x_ac: IncidenceStructure
    x_bc: IncidenceStructure


@dataclass(frozen=True)
class Glued:
    structure: IncidenceStructure
    ids: dict  # name -> element id in the glued structure


def _names(s: IncidenceStructure) -> frozenset:
    return frozenset(s.name(e) for e in s.elements())


def _ids_for(s: IncidenceStructure, names: Iterable[str]) -> frozenset:
    return frozenset(s.by_name(nm) for nm in names)


def _check_join_embedding(part: IncidenceStructure, join: IncidenceStructure, hyp: str):
    missing = [nm for nm in part.names(part.elements()) if not join.has_name(nm)]
    fault = (f"element {missing[0]!r} missing from the join" if missing else
             embedding_fault(part, join, {e: join.by_name(part.name(e))
                                          for e in part.elements()}))
    if fault:
        raise GlueHypothesisError(hyp, fault)


def independence_glue(
    g: GlueProblem, stage_budget: int = 8, element_cap: int = 100_000
) -> Glued:
    """Glue the three joins into X_abc, verifying every hypothesis.

    Hypotheses checked, in order, each raising GlueHypothesisError with its
    name on failure: sort coherence across all six structures; D contained in
    each side; pairwise side intersections equal to D; join supports and
    pairwise join intersections; induced embeddings of sides into joins; D
    I-closed in each join; a I-indep b over D in X_ab; a I-indep c over D in
    X_ac; b alg-indep c over D in X_bc.  The glued union adds no incidences
    and is verified K-free unconditionally.
    """
    from .indep import IndepQuery, Relation, Status, check

    structs = {
        "X_a": g.x_a,
        "X_b": g.x_b,
        "X_c": g.x_c,
        "X_ab": g.x_ab,
        "X_ac": g.x_ac,
        "X_bc": g.x_bc,
    }
    params = g.x_a.params
    for label, s in structs.items():
        if s.params != params:
            raise ParameterError(f"{label} has mismatched parameters")

    sorts: Dict[str, Sort] = {}
    for label, s in structs.items():
        for e in s.elements():
            nm = s.name(e)
            if nm in sorts and sorts[nm] is not s.sort(e):
                raise GlueHypothesisError(
                    "sorts:consistent",
                    f"name {nm!r} is a point in one structure and a line in {label}",
                )
            sorts.setdefault(nm, s.sort(e))

    na, nb, nc = _names(g.x_a), _names(g.x_b), _names(g.x_c)
    for label, names in (("X_a", na), ("X_b", nb), ("X_c", nc)):
        if not g.d_names <= names:
            raise GlueHypothesisError(
                f"base:D<={label}", f"missing {sorted(g.d_names - names)}"
            )
    for (l1, n1), (l2, n2) in itertools.combinations(
        (("X_a", na), ("X_b", nb), ("X_c", nc)), 2
    ):
        if n1 & n2 != g.d_names:
            raise GlueHypothesisError(
                f"intersection:{l1}^{l2}=D",
                f"intersection is {sorted(n1 & n2)}, expected {sorted(g.d_names)}",
            )

    nab, nac, nbc = _names(g.x_ab), _names(g.x_ac), _names(g.x_bc)
    join_pairs = (
        ("X_ab", nab, "X_ac", nac, "X_a", na),
        ("X_ab", nab, "X_bc", nbc, "X_b", nb),
        ("X_ac", nac, "X_bc", nbc, "X_c", nc),
    )
    for l1, n1, l2, n2, lp, np_ in join_pairs:
        if n1 & n2 != np_:
            raise GlueHypothesisError(
                f"intersection:{l1}^{l2}={lp}",
                f"intersection is {sorted(n1 & n2)}, expected {sorted(np_)}",
            )

    _check_join_embedding(g.x_a, g.x_ab, "embedding:X_a<=X_ab")
    _check_join_embedding(g.x_b, g.x_ab, "embedding:X_b<=X_ab")
    _check_join_embedding(g.x_a, g.x_ac, "embedding:X_a<=X_ac")
    _check_join_embedding(g.x_c, g.x_ac, "embedding:X_c<=X_ac")
    _check_join_embedding(g.x_b, g.x_bc, "embedding:X_b<=X_bc")
    _check_join_embedding(g.x_c, g.x_bc, "embedding:X_c<=X_bc")

    for label, join in (("X_ab", g.x_ab), ("X_ac", g.x_ac), ("X_bc", g.x_bc)):
        closed, violator = is_i_closed(join, _ids_for(join, g.d_names))
        if not closed:
            raise GlueHypothesisError(
                f"closed:D in {label}",
                f"forced element {join.name(violator)!r} missing from D",
            )

    indep_checks = (
        ("indep:a_I_b", g.x_ab, na, nb, Relation.I),
        ("indep:a_I_c", g.x_ac, na, nc, Relation.I),
        ("indep:b_alg_c", g.x_bc, nb, nc, Relation.ALG),
    )
    for hyp, join, n1, n2, rel in indep_checks:
        q = IndepQuery(
            ambient=join,
            a=_ids_for(join, n1),
            b=_ids_for(join, n2),
            c=_ids_for(join, g.d_names),
            relation=rel,
            stage_budget=stage_budget,
            element_cap=element_cap,
        )
        verdict = check(q)
        if verdict.status is Status.DEPENDENT:
            raise GlueHypothesisError(hyp, f"dependent, witness {verdict.witness}")
        if verdict.status is Status.UNKNOWN:
            raise BudgetError(
                f"could not verify hypothesis {hyp} within budget: {verdict.detail}"
            )

    b = StructureBuilder(params)
    ids: Dict[str, int] = {}
    for nm in sorted(sorts):
        ids[nm] = b.add_point(nm) if sorts[nm] is Sort.POINT else b.add_line(nm)
    for join in (g.x_ab, g.x_ac, g.x_bc):
        for p, l in join.incidences():
            b.add_incidence(ids[join.name(p)], ids[join.name(l)], guard=False)
    out = b.build()
    ok, witness = is_kmn_free(out)
    if not ok:
        raise FreenessViolationError(witness, "glued structure")
    return Glued(out, ids)


# ---------------------------------------------------------------------------
# existential-pattern consistency


@dataclass(frozen=True)
class ExistentialPattern:
    """A diagram over three kinds of variables.

    ``shared_vars`` are free variables common to all instances; ``param_vars``
    are slots filled per instance by base elements; ``witness_vars`` are
    existential variables instantiated freshly per instance.  ``exact`` means
    each instance must realize the diagram as an induced substructure
    (incidences among its images exactly those of the diagram, all images
    distinct); otherwise only the diagram's incidences are required.
    """

    diagram: IncidenceStructure
    shared_vars: tuple
    param_vars: tuple
    witness_vars: tuple
    exact: bool = True

    def __post_init__(self):
        seen = list(self.shared_vars) + list(self.param_vars) + list(self.witness_vars)
        if len(set(seen)) != len(seen):
            raise ParameterError("pattern variables must be distinct")
        if set(seen) != set(self.diagram.elements()):
            raise ParameterError("variables must partition the diagram elements")


@dataclass(frozen=True)
class QuotientAssignment:
    """How variable occurrences are identified in a candidate realization.

    ``blocks`` partitions the occurrence pool (shared variables and every
    per-instance witness copy); all occurrences in a block become one
    element.  ``targets[i]`` is the closure element the i-th block lands on,
    or None for a fresh element.  Parameters are never part of the pool.
    """

    blocks: tuple  # tuple of tuples of occurrence tokens
    targets: tuple  # parallel: Optional[int] closure ids

    @property
    def merges(self) -> int:
        return sum(len(blk) - 1 for blk in self.blocks)


class PatternStatus(Enum):
    CONSISTENT = "CONSISTENT"
    INCONSISTENT = "INCONSISTENT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class PatternVerdict:
    status: PatternStatus
    quotient: Optional[QuotientAssignment]
    stage: int
    converged: bool
    candidates: int
    detail: str


def _partitions(items: Sequence, k: int) -> list:
    """Partitions of items into k blocks: each item joins a block or opens
    one, and a prefix that can no longer reach k blocks is dropped."""
    parts = [()]
    for i, x in enumerate(items):
        left = len(items) - 1 - i  # items still to place after x
        grown = []
        for p in parts:
            if len(p) + left >= k:
                grown += [p[:j] + (p[j] + (x,),) + p[j + 1:] for j in range(len(p))]
            if len(p) < k:
                grown.append(p + ((x,),))
        parts = grown
    return parts


def _quotients(pts: Sequence, lns: Sequence) -> Iterable[tuple]:
    """Point partition + line partition pairs by (merges, blocks), where merges
    is tokens minus blocks, built one merge layer at a time, as pairs (pp,
    lps): the quotients pp + lp for lp in lps, which all have as many line
    blocks.  A point partition covers every point token, so none is a prefix
    of another and two quotients with distinct point partitions are ordered
    by them: a layer's point partitions sorted, each followed by its line
    partitions sorted, is the layer's quotients sorted.  The partitions of
    each sort into k blocks are built once, for the first layer that uses
    them, and kept for the later ones."""
    most_p, most_l = max(len(pts) - 1, 0), max(len(lns) - 1, 0)
    parts = functools.cache(lambda line, k: sorted(_partitions(lns if line else pts, k)))
    for r in range(most_p + most_l + 1):
        layer = []
        for rp in range(max(r - most_l, 0), min(r, most_p) + 1):
            lps = parts(True, len(lns) - (r - rp))
            layer += [(pp, lps) for pp in parts(False, len(pts) - rp)]
        layer.sort(key=operator.itemgetter(0))
        yield from layer


def _injective_fills(blocks: int, targets: int) -> int:
    """Ways to give each of ``blocks`` blocks a fresh element or one of
    ``targets`` existing ones, no existing one twice: the sum over k of
    C(blocks, k) * P(targets, k)."""
    return sum(
        math.comb(blocks, k) * math.perm(targets, k)
        for k in range(min(blocks, targets) + 1)
    )


def pattern_consistent(
    base: IncidenceStructure,
    pattern: ExistentialPattern,
    instances: Sequence[Sequence[int]],
    stage_budget: int = 1,
    candidate_budget: int = 1_000_000,
    element_cap: int = 100_000,
) -> PatternVerdict:
    """Decide joint satisfiability of the pattern instances over the base.

    The base is identified with its canonical completion; candidates extend
    the stage-``stage_budget`` closure A_T of the base elements by the quotient
    image of the variable pool.  A candidate is refuted if it demands an
    incidence between two closure elements that the closure lacks, if its
    new incidences complete a K_{m,n} (``completion_witness`` finds it), or
    if some instance's induced image misses the diagram (exact mode);
    refutations are sound at any stage.  A surviving candidate certifies
    CONSISTENT only when the closure converged (then the K-free extension
    of the closed base embeds into the monster over it); otherwise the
    verdict is UNKNOWN.  INCONSISTENT means every assignment
    was refuted, which rules out monster realizations outright: any
    realization would induce an assignment in the searched space (variables
    landing on closure elements use them as targets, the rest stay fresh) and
    its candidate would have survived.

    Quotients of the variable pool are searched by merges (occurrences minus
    blocks), then by blocks, one merge layer built at a time.  ``candidates``
    counts the assignments of the searched space in search order, up to and
    including the survivor, or up to the one that exhausts ``candidate_budget``
    (then it is ``candidate_budget + 1``).  The assignments of one
    partition are searched depth first over an explicit stack, so no number
    of blocks hits the recursion limit, and the candidates are built in one
    scratch copy of the ground a level of that stack at a time.  When a
    block takes its target, it adds its fresh element, if it has one, and
    each required incidence it decides (both ends are base ids or blocks up
    to it): one between closure elements must already be in the ground,
    one with a fresh end is added after the ``completion_witness`` check.
    Backtracking takes out exactly what its level added.  A refutation at
    a block (a target that an instance's parameter holds, a missing
    incidence or a grid) adds every assignment below it to the count at
    once: each of them holds the same incidences, so the per-assignment
    search refutes each of them too, and the count, survivor and verdict
    are that search's.  So the budget bounds the space searched, not the
    time spent; only the exact-mode check runs once per assignment.

    Each check runs once, where its inputs are fixed.  Once per call: an
    instance that repeats a base id, or a required incidence between two
    base ids that the ground lacks, refutes every assignment.  Once per
    partition, before its search is set up: a block holding two tokens of
    one instance refutes all its assignments.  Such a block lies in the
    point or the line partition, and a point partition's quotients are
    consecutive in search order (see ``_quotients``), so a clashing point
    partition adds all of them at once.  Once per level: the images of the
    block's other ends, and the assignments below a refuted fresh or
    existing target, from the count of targets its sort has taken.  The
    bulk counts are sums of the per-leaf counts, added at the place of
    their first leaf, before any later partition is searched; a count that
    passes the budget stops the search whichever of its leaves passes it,
    so the count, survivor and verdict stay the per-leaf search's.

    A_T is the id prefix ``range(len(A_T))`` of the workspace, so the ground
    induced on it keeps closure element ids, which serve as candidate ids.
    The closure starts at the base ids, which are the whole workspace, and
    each completed step adds every element it spawned, so each recorded
    stage is the workspace at its end.  A step that the element cap stops
    spawns only after the last recorded stage, above its ids.  So the
    prefix holds whether or not the closure converged.

    The ground is free (the workspace's base passed ``_require_free``, and
    its spawns cannot complete a grid: see ``completion.complete_step``), so
    any grid of a candidate holds one of its new incidences, and the
    ``completion_witness`` check before the last of them finds it.
    """
    _require_budgets(stage_budget, candidate_budget, element_cap)
    dg = pattern.diagram
    if dg.params != base.params:
        raise ParameterError("pattern diagram and base must share parameters")
    for inst in instances:
        if len(inst) != len(pattern.param_vars):
            raise ParameterError(
                f"instance {tuple(inst)} does not match the parameter arity "
                f"{len(pattern.param_vars)}"
            )
        for v, e in zip(pattern.param_vars, inst):
            if e not in base.elements():
                raise ParameterError(f"parameter {e} is not a base element")
            if dg.sort(v) is not base.sort(e):
                raise ParameterError(
                    f"parameter {base.name(e)!r} has the wrong sort for {dg.name(v)!r}"
                )

    work = LazyCompletion(base, element_cap=element_cap)
    run = work.closure(base.elements(), stage_budget=stage_budget)
    ground = induced(work.snapshot(), run.closure_set)[0]
    stage = len(run.stages) - 1

    if not instances:
        return PatternVerdict(
            PatternStatus.CONSISTENT,
            QuotientAssignment((), ()),
            stage,
            run.converged,
            0,
            "no instances",
        )

    # occurrence pool: shared variables once, witness variables per instance
    pool = [("s", v) for v in pattern.shared_vars]
    for j in range(len(instances)):
        pool += [("w", j, v) for v in pattern.witness_vars]
    pts = [t for t in pool if dg.is_point(t[-1])]
    lns = [t for t in pool if dg.is_line(t[-1])]

    def resolve_token(j, v):
        if v in pattern.shared_vars:
            return ("s", v)
        if v in pattern.witness_vars:
            return ("w", j, v)
        return instances[j][pattern.param_vars.index(v)]

    # per instance, the token or base id of each diagram variable; the
    # required incidences of all instances as (point, line) tokens or ids,
    # deduplicated in order
    inst_elems = [[resolve_token(j, v) for v in dg.elements()] for j in range(len(instances))]
    required = list(dict.fromkeys(
        (elems[p], elems[l]) for elems in inst_elems for p, l in dg.incidences()
    ))

    # once per call, what no partition changes.  Per token, the instances
    # it occurs in as a bit mask, and the base ids of those instances, which
    # its block's target must avoid.  ``settled`` is False, and every
    # assignment refuted, if an instance repeats a base id or a required
    # incidence between two base ids is not in the ground.
    owners, avoid_of = dict.fromkeys(pool, 0), {tok: set() for tok in pool}
    settled = all(ground.incident(p, l) for p, l in required
                  if p not in owners and l not in owners)
    for j, elems in enumerate(inst_elems):
        ids = [t for t in elems if t not in owners]
        settled = settled and len(set(ids)) == len(ids)
        for tok in owners.keys() & elems:
            owners[tok] |= 1 << j
            avoid_of[tok].update(ids)
    linked = [(p, l) for p, l in required if p in owners or l in owners]

    def clashes(part) -> bool:
        """Whether a block of ``part`` holds two tokens of one instance,
        which need two distinct images.  Tokens in distinct blocks always
        get distinct images (targets are injective, fresh elements new)."""
        for blk in part:
            masks = [owners[tok] for tok in blk]
            if sum(masks) != functools.reduce(operator.or_, masks):
                return True
        return False

    candidates = 0

    def count(leaves: int) -> None:
        # the per-leaf count, in bulk: a budget hit stops at budget + 1,
        # the leaf at which a one-by-one count would have stopped
        nonlocal candidates
        candidates += leaves
        if candidates > candidate_budget:
            candidates = candidate_budget + 1
            raise BudgetError("candidate budget exhausted")

    scratch = StructureBuilder.from_structure(ground)
    size, ground_adj = len(ground), ground._adj

    def link(e, xs, point, fresh):
        """Add the incidences of ``e`` with each of ``xs`` to ``scratch``.
        The pairs added, or None, with nothing left added (nor ``e`` if
        ``fresh``), if one completes a grid (``completion_witness`` is asked
        before each add)."""
        added = []
        for x in xs:
            p, l = (e, x) if point else (x, e)
            if l in scratch.neighbors(p):
                continue
            if scratch.completion_witness(p, l) is not None:
                scratch._truncate(len(scratch) - fresh, added)
                return None
            scratch.add_incidence(p, l, guard=False)
            added.append((p, l))
        return added

    def induces_diagram(image) -> bool:
        """Outside exact mode True; in it, whether every instance's image in
        ``scratch`` induces the diagram."""
        return not pattern.exact or not any(
            embedding_fault(dg, scratch, dict(enumerate(image.get(t, t) for t in elems)))
            for elems in inst_elems
        )

    point_targets, line_targets = (None,) + ground.points, (None,) + ground.lines
    fills = functools.cache(_injective_fills)  # per call: none carried across calls

    def search(blocks, n_points):
        """The targets of the first surviving assignment of a partition
        whose point blocks are the first ``n_points``, or None, counting
        every assignment before it.  Per sort, an assignment is an injective
        choice of targets, fresh (None) first.  Depth first over one explicit
        stack of levels, one per block whose target is being chosen; ``chosen``
        holds the targets of the blocks below, ``added`` the pairs each of
        them added."""
        if not blocks:
            count(1)
            return () if induces_diagram({}) else None
        # each required incidence is decided by the later of its blocks;
        # the other end is a base id or a token of an earlier block
        block_of = {tok: i for i, blk in enumerate(blocks) for tok in blk}
        ends = [[] for _ in blocks]
        for ptok, ltok in linked:
            pi, li = block_of.get(ptok, -1), block_of.get(ltok, -1)
            if pi > li:
                ends[pi].append(ltok)
            else:
                ends[li].append(ptok)
        avoid = [set().union(*map(avoid_of.get, blk)) for blk in blocks]
        line_fills = fills(len(blocks) - n_points, len(ground.lines))
        image, chosen, added = {}, [], []

        def level(i, taken):
            """Block i's level, ``taken`` existing targets already chosen
            for blocks of its sort: its targets, the images of its ends, the
            closure ids among them and the others, its avoid set, and the
            assignments below a refuted fresh target and a refuted existing
            one."""
            point = i < n_points
            last, targets = (n_points, point_targets) if point else (len(blocks), line_targets)
            free, tail = len(targets) - 1 - taken, line_fills if point else 1
            xs = [image.get(x, x) for x in ends[i]]  # image(t, t): tokens are tuples, ids ints
            return (iter(targets), xs, [x for x in xs if x < size], [x for x in xs if x >= size],
                    avoid[i], fills(last - i - 1, free) * tail,
                    fills(last - i - 1, free - 1) * tail, taken)

        levels = [level(0, 0)]
        while levels:
            todo, xs, known, late, shun, none_below, some_below, taken = levels[-1]
            i = len(chosen)
            point = i < n_points
            for tgt in todo:
                if tgt is None:
                    e = scratch.add_point() if point else scratch.add_line()
                    new = link(e, xs, point, True)
                    if new is None:
                        count(none_below)
                        continue
                else:
                    if tgt in chosen:
                        continue
                    # a target must avoid its instances' parameters and lie
                    # on its closure ends already
                    if tgt in shun or not ground_adj[tgt].issuperset(known):
                        count(some_below)
                        continue
                    e, new = tgt, link(tgt, late, point, False)
                    if new is None:
                        count(some_below)
                        continue
                for tok in blocks[i]:
                    image[tok] = e
                if i + 1 < len(blocks):
                    break
                count(1)  # a leaf
                if induces_diagram(image):
                    return tuple(chosen) + (tgt,)  # later siblings come after it: not counted
                scratch._truncate(len(scratch) - (tgt is None), new)
            else:  # this block's targets are all tried
                levels.pop()
                if chosen:  # take out what the level below added
                    scratch._truncate(len(scratch) - (chosen.pop() is None), added.pop())
                continue
            chosen.append(tgt)
            added.append(new)
            levels.append(level(i + 1, 0 if i + 1 == n_points else taken + (tgt is not None)))
        return None

    def first_survivor():
        """The first surviving quotient assignment, or None, counting
        every assignment before it; a partition with a block that clashes
        is refuted whole, and a point partition that clashes with each of
        its line partitions."""
        for pp, lps in _quotients(pts, lns):
            each = fills(len(pp), len(ground.points)) * fills(len(lps[0]), len(ground.lines))
            if not settled or clashes(pp):
                count(len(lps) * each)
                continue
            for lp in lps:
                if clashes(lp):
                    count(each)
                    continue
                found = search(pp + lp, len(pp))
                if found is not None:
                    return QuotientAssignment(pp + lp, found)
        return None

    try:
        survivor = first_survivor()
    except BudgetError:
        return PatternVerdict(PatternStatus.UNKNOWN, None, stage, run.converged, candidates,
                              f"candidate budget {candidate_budget} exhausted")
    if survivor is None:
        status = PatternStatus.INCONSISTENT
        detail = f"all {candidates} assignments refuted at closure stage {stage}"
    elif run.converged:
        status, detail = PatternStatus.CONSISTENT, "surviving quotient over the converged closure"
    else:
        status = PatternStatus.UNKNOWN
        detail = ("a quotient survives but the base closure did not converge "
                  f"within {stage_budget} stages")
    return PatternVerdict(status, survivor, stage, run.converged, candidates, detail)
