"""Free completions of K_{m,n}-free structures.

A deficient point set is an m-set of points with at most n-2 common lines; a
deficient line set is an n-set of lines with at most m-2 common points.  One
completion step adds, simultaneously against the start-of-stage structure,
one fresh line per deficient point set (incident exactly with it) and one
fresh point per deficient line set.  Iterating yields the free completion;
every stage stays K_{m,n}-free.  Steps add their fresh incidences unguarded,
because no fresh element can lie in a grid (proof at ``complete_step``);
``LazyCompletion`` spawns through the guarded add.

Also here:

* ``relative_free_completion``: grows a copy of the free completion of an
  I-closed subset A inside the completion of the whole structure, stage by
  stage, and verifies the characteristic postconditions (each Y_k I-closed,
  no stray incidences, stage-wise isomorphism with the free completion of A).
* ``LazyCompletion``: a growable workspace representing the completion "as
  deep as needed".  Instead of building whole stages it spawns exactly the
  fresh elements forced by a given same-sort set.  Spawned elements
  correspond canonically to free-completion elements via their spawner sets,
  so closures computed against the workspace agree with closures computed in
  the full completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    PreconditionError,
    Sort,
    StructureBuilder,
    colex_combinations,
    induced,
    is_kmn_free,
    isomorphic_over,
)


@dataclass(frozen=True)
class Provenance:
    """Where a completion element came from: created at ``stage`` incident
    exactly with the same-sort set ``spawner``."""

    element: int
    stage: int
    spawner: frozenset


@dataclass(frozen=True)
class CompletionStage:
    structure: IncidenceStructure
    k: int
    provenance: dict  # element id -> Provenance, for all fresh elements so far


@dataclass(frozen=True)
class DeficientSets:
    point_sets: tuple  # m-sets of points with <= n-2 common lines, colex order
    line_sets: tuple  # n-sets of lines with <= m-2 common points, colex order

    def __bool__(self) -> bool:
        return bool(self.point_sets or self.line_sets)


def _deficient(s: IncidenceStructure) -> DeficientSets:
    m, n = s.params.m, s.params.n
    nb = s.neighbors
    families = []
    for elems, k, most in ((s.points, m, n - 2), (s.lines, n, m - 2)):
        short = []
        for sub in colex_combinations(elems, k):
            common = nb(sub[0])
            for e in sub[1:]:
                common = common & nb(e)
            if len(common) <= most:
                short.append(frozenset(sub))
        families.append(tuple(short))
    return DeficientSets(*families)


def deficient_sets(s: IncidenceStructure) -> DeficientSets:
    """All deficient point m-sets and line n-sets, in colex order."""
    ok, witness = is_kmn_free(s)
    if not ok:
        raise PreconditionError(f"structure is not K-free: {witness}")
    return _deficient(s)


def initial_stage(s: IncidenceStructure) -> CompletionStage:
    return CompletionStage(s, 0, {})


def complete_step(stage: CompletionStage) -> CompletionStage:
    """One completion step.  Both deficiency families are computed against
    the incoming structure; all fresh elements are added together.

    The fresh incidences are added unguarded, since they cannot complete a
    K_{m,n}.  The incoming structure is checked to be free, so a new grid
    would contain a fresh element.  A fresh line meets exactly its spawner
    sigma, an m-set of old points: fresh elements are never incident with
    each other.  So the grid's m points are sigma and its n lines pass
    through all of sigma.  But sigma had at most n-2 common lines, and no
    other fresh line passes through it (another spawner is a different
    m-set), so sigma now has at most n-1 common lines, fewer than n.  The
    dual argument rules out a fresh point.
    """
    ok, witness = is_kmn_free(stage.structure)
    if not ok:
        raise PreconditionError(f"stage structure is not K-free: {witness}")
    return _step(stage, _deficient(stage.structure))


def _step(stage: CompletionStage, defs: DeficientSets) -> CompletionStage:
    """``complete_step`` on a free stage whose deficient sets are ``defs``."""
    b = StructureBuilder.from_structure(stage.structure)
    prov = dict(stage.provenance)
    k1 = stage.k + 1
    for sigma in defs.point_sets:
        fresh = b.add_line()
        for q in sorted(sigma):
            b.add_incidence(q, fresh, guard=False)
        prov[fresh] = Provenance(fresh, k1, sigma)
    for tau in defs.line_sets:
        fresh = b.add_point()
        for l in sorted(tau):
            b.add_incidence(fresh, l, guard=False)
        prov[fresh] = Provenance(fresh, k1, tau)
    return CompletionStage(b.build(), k1, prov)


@dataclass(frozen=True)
class FreeCompletionRun:
    stages: tuple  # CompletionStage for k = 0..K

    @property
    def final(self) -> CompletionStage:
        return self.stages[-1]

    def sizes(self) -> list:
        return [len(st.structure) for st in self.stages]


def free_completion(
    m0: IncidenceStructure, stages: int, element_cap: int = 100_000
) -> FreeCompletionRun:
    """Stages 0..``stages`` of the free completion of m0.

    Raises BudgetError if a stage would push the element count past
    ``element_cap``.  Each stage is scanned for deficient sets once.  A stage
    that adds nothing is a fixpoint; further stages are identical and
    iteration stops early (the run is padded with stages sharing the
    fixpoint's structure so stage indices still line up).
    """
    if stages < 0:
        raise ParameterError("stage count must be >= 0")
    ok, witness = is_kmn_free(m0)
    if not ok:
        raise PreconditionError(f"seed structure is not K-free: {witness}")
    run = [initial_stage(m0)]
    while len(run) <= stages:
        cur = run[-1]
        defs = _deficient(cur.structure)
        if not defs:
            run += [
                CompletionStage(cur.structure, k, cur.provenance)
                for k in range(cur.k + 1, stages + 1)
            ]
            break
        grow = len(defs.point_sets) + len(defs.line_sets)
        if len(cur.structure) + grow > element_cap:
            raise BudgetError(
                f"free completion stage {cur.k + 1} needs "
                f"{len(cur.structure) + grow} elements, cap is {element_cap}"
            )
        run.append(_step(cur, defs))
    return FreeCompletionRun(tuple(run))


@dataclass(frozen=True)
class ClosureRun:
    """Staged closure computed inside a LazyCompletion workspace.

    ``converged`` means a genuine fixpoint: the final stage is closed under
    forcing, hence equals the algebraic closure of the seed in the full
    completion.  ``capped`` means the workspace element cap stopped the
    computation; the recorded stages are still exact.
    """

    stages: tuple
    converged: bool
    capped: bool = False

    @property
    def closure_set(self) -> frozenset:
        return self.stages[-1]

    def sizes(self) -> list:
        return [len(s) for s in self.stages]


@dataclass(frozen=True)
class RelativeCompletion:
    """Result of relative_free_completion.

    ``c`` is the set of ambient-completion ids forming the copy of the free
    completion of A; ``y_stages[k]`` is its k-th stage; ``correspondence``
    maps ids of the standalone free completion of A onto ``c``.
    """

    x_run: FreeCompletionRun
    y_stages: tuple
    c: frozenset
    free_a: FreeCompletionRun
    correspondence: dict


def relative_free_completion(
    b_struct: IncidenceStructure,
    a_elements: Iterable[int],
    stage_budget: int,
    element_cap: int = 100_000,
) -> RelativeCompletion:
    """Grow F(A) inside F(B) for an I-closed subset A of B.

    Y_0 = A and Y_{k+1} adds the stage-(k+1) fresh element of every deficient
    set lying inside Y_k.  Verifies, stage by stage: Y_k is I-closed in X_k,
    the union C meets B exactly in A, no incidence joins C minus A to B minus
    A, and C with its stage structure is isomorphic over A to the standalone
    free completion of A (via the spawner-set correspondence).
    """
    from .closure import is_i_closed

    a_set = frozenset(a_elements)
    for e in a_set:
        if e not in b_struct.elements():
            raise ParameterError(f"element {e} is not in the ambient structure")
    closed, violator = is_i_closed(b_struct, a_set)
    if not closed:
        raise PreconditionError(
            f"A is not I-closed in B: forced element {b_struct.name(violator)!r} missing"
        )

    x_run = free_completion(b_struct, stage_budget, element_cap)
    by_spawner = {}
    for e, p in x_run.final.provenance.items():
        by_spawner[(p.stage, p.spawner)] = e

    y_stages = [a_set]
    for k in range(stage_budget):
        yk = y_stages[-1]
        fresh = set()
        for e, p in x_run.stages[k + 1].provenance.items():
            if p.stage == k + 1 and p.spawner <= yk:
                fresh.add(e)
        y_stages.append(frozenset(yk | fresh))

    c = y_stages[-1]

    for k, yk in enumerate(y_stages):
        closed, violator = is_i_closed(x_run.stages[k].structure, yk)
        if not closed:
            raise RuntimeError(
                f"postcondition failure: Y_{k} not I-closed in X_{k} "
                f"(forced element {violator})"
            )

    b_ids = frozenset(b_struct.elements())
    if c & b_ids != a_set:
        raise RuntimeError("postcondition failure: C meets B outside A")

    final = x_run.final.structure
    c_minus_a = c - a_set
    b_minus_a = b_ids - a_set
    for e in sorted(c_minus_a):
        if final.neighbors(e) & b_minus_a:
            raise RuntimeError(
                "postcondition failure: incidence between C-A and B-A"
            )

    a_struct, remap_a = induced(b_struct, a_set)
    free_a = free_completion(a_struct, stage_budget, element_cap)
    inv_a = {v: k for k, v in remap_a.items()}
    corr = dict(inv_a)
    for k in range(stage_budget):
        prov_next = free_a.stages[k + 1].provenance
        stage_fresh = [
            (e, p) for e, p in sorted(prov_next.items()) if p.stage == k + 1
        ]
        for e, p in stage_fresh:
            mapped = frozenset(corr[x] for x in p.spawner)
            target = by_spawner.get((k + 1, mapped))
            if target is None or target not in y_stages[k + 1]:
                raise RuntimeError(
                    "postcondition failure: stage correspondence broke at "
                    f"stage {k + 1}"
                )
            corr[e] = target
        if len({corr[e] for e in free_a.stages[k + 1].structure.elements()}) != len(
            y_stages[k + 1]
        ):
            raise RuntimeError(
                f"postcondition failure: |F_{k+1}(A)| != |Y_{k+1}|"
            )

    c_struct, remap_c = induced(final, c)
    base = {e: remap_c[corr[e]] for e in free_a.final.structure.elements()}
    iso = isomorphic_over(free_a.final.structure, c_struct, base)
    if not iso:
        raise RuntimeError(
            "postcondition failure: C is not isomorphic over A to F(A)"
        )

    return RelativeCompletion(
        x_run=x_run,
        y_stages=tuple(y_stages),
        c=c,
        free_a=free_a,
        correspondence=corr,
    )


class LazyCompletion:
    """A canonical-completion workspace over a base structure.

    Grows the base by exactly the fresh elements forced by same-sort sets:
    ``lines_through`` guarantees an m-set of distinct points its full n-1
    common lines (spawning the missing ones, each incident exactly with the
    set), and ``points_on`` does the dual.  Spawner provenance identifies
    spawned elements with the corresponding free-completion elements, so set
    closures computed here equal closures computed in the full completion.
    """

    def __init__(self, base: IncidenceStructure, element_cap: int = 100_000):
        ok, witness = is_kmn_free(base)
        if not ok:
            raise PreconditionError(f"ambient structure is not K-free: {witness}")
        self.base = base
        self.builder = StructureBuilder.from_structure(base)
        self.element_cap = element_cap
        self.provenance: dict = {}
        self._snapshot: Optional[IncidenceStructure] = None

    @property
    def params(self):
        return self.base.params

    def __len__(self) -> int:
        return len(self.builder)

    def snapshot(self) -> IncidenceStructure:
        if self._snapshot is None:
            self._snapshot = self.builder.build()
        return self._snapshot

    def name(self, e: int) -> str:
        return self.builder.name(e)

    def sort(self, e: int) -> Sort:
        return self.builder.sort(e)

    def neighbors(self, e: int) -> set:
        return self.builder.neighbors(e)

    def _spawn(self, sort: Sort, spawner: frozenset) -> int:
        if len(self.builder) + 1 > self.element_cap:
            raise BudgetError(
                f"canonical completion workspace exceeded {self.element_cap} elements"
            )
        self._snapshot = None
        if sort is Sort.LINE:
            fresh = self.builder.add_line()
        else:
            fresh = self.builder.add_point()
        for e in sorted(spawner):
            if sort is Sort.LINE:
                self.builder.add_incidence(e, fresh)
            else:
                self.builder.add_incidence(fresh, e)
        self.provenance[fresh] = Provenance(fresh, -1, spawner)
        return fresh

    def _common(self, elems: Sequence[int]) -> set:
        acc = set(self.builder.neighbors(elems[0]))
        for e in elems[1:]:
            acc &= self.builder.neighbors(e)
        return acc

    def lines_through(self, sigma: Iterable[int]) -> frozenset:
        """All n-1 completion lines through the m distinct points sigma."""
        m, n = self.params.m, self.params.n
        sigma = sorted(set(sigma))
        if len(sigma) != m:
            raise ParameterError(f"need exactly {m} distinct points")
        for q in sigma:
            if self.builder.sort(q) is not Sort.POINT:
                raise ParameterError("lines_through takes points")
        have = self._common(sigma)
        while len(have) < n - 1:
            have.add(self._spawn(Sort.LINE, frozenset(sigma)))
        return frozenset(have)

    def points_on(self, tau: Iterable[int]) -> frozenset:
        """All m-1 completion points on the n distinct lines tau."""
        m, n = self.params.m, self.params.n
        tau = sorted(set(tau))
        if len(tau) != n:
            raise ParameterError(f"need exactly {n} distinct lines")
        for l in tau:
            if self.builder.sort(l) is not Sort.LINE:
                raise ParameterError("points_on takes lines")
        have = self._common(tau)
        while len(have) < m - 1:
            have.add(self._spawn(Sort.POINT, frozenset(tau)))
        return frozenset(have)

    def closure(self, seed: Iterable[int], stage_budget: int = 8) -> ClosureRun:
        """Staged algebraic closure of ``seed`` in the canonical completion.

        stages[t] is the t-th closure stage as a frozenset of workspace ids.
        A fixpoint certifies genuine convergence: every m-set of points then
        has its full n-1 lines inside the set (and dually), so nothing
        outside can ever be forced.  Hitting the element cap reports
        capped=True instead of raising; the recorded stages remain exact.
        """
        m, n = self.params.m, self.params.n
        cur = frozenset(seed)
        stages = [cur]
        for _ in range(stage_budget):
            pts = sorted(e for e in cur if self.builder.sort(e) is Sort.POINT)
            lns = sorted(e for e in cur if self.builder.sort(e) is Sort.LINE)
            nxt = set(cur)
            try:
                for sigma in colex_combinations(pts, m):
                    nxt |= self.lines_through(sigma)
                for tau in colex_combinations(lns, n):
                    nxt |= self.points_on(tau)
            except BudgetError:
                return ClosureRun(tuple(stages), False, capped=True)
            nxt = frozenset(nxt)
            if nxt == cur:
                return ClosureRun(tuple(stages), True)
            cur = nxt
            stages.append(cur)
        return ClosureRun(tuple(stages), False)

    def is_monster_closed(self, d: Iterable[int]):
        """Is d I-closed in the full completion?  Returns (bool, violator).

        d is closed iff every m-set of its points already has all n-1 common
        lines inside d, and dually; any missing forced element (existing in
        the workspace or freshly spawned) is the violator.
        """
        m, n = self.params.m, self.params.n
        d = frozenset(d)
        pts = sorted(e for e in d if self.builder.sort(e) is Sort.POINT)
        lns = sorted(e for e in d if self.builder.sort(e) is Sort.LINE)
        for sigma in colex_combinations(pts, m):
            forced = self.lines_through(sigma)
            out = forced - d
            if out:
                return False, min(out)
        for tau in colex_combinations(lns, n):
            forced = self.points_on(tau)
            out = forced - d
            if out:
                return False, min(out)
        return True, None

    def induced_on(self, elems: Iterable[int]):
        """Induced substructure of the current workspace on ``elems``."""
        return induced(self.snapshot(), elems)
