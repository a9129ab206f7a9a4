"""Free completions of K_{m,n}-free structures.

A deficient point set is an m-set of points with at most n-2 common lines; a
deficient line set is an n-set of lines with at most m-2 common points.  One
completion step adds, simultaneously against the start-of-stage structure,
one fresh line per deficient point set (incident exactly with it) and one
fresh point per deficient line set.  Iterating yields the free completion;
every stage stays K_{m,n}-free.  The deficiency scan ``_deficient`` walks
the sets top first (largest element first), which is colex order.  One
stage loop, ``_stages``, iterates the step for ``free_completion``,
``gamma.nonfree_completion_probe`` and
``finsearch.embed_search_general``.  Steps write the fresh adjacency directly,
unchecked, because no fresh element can lie in a grid (proof at
``complete_step``); ``LazyCompletion`` spawns through the guarded add.

Also here:

* ``relative_free_completion``: grows a copy of the free completion of an
  I-closed subset A inside the completion of the whole structure, stage by
  stage, and verifies the characteristic postconditions (each Y_k I-closed,
  no stray incidences, the spawner-set correspondence an isomorphism over A
  from the free completion of A onto the copy).
* ``LazyCompletion``: a growable workspace representing the completion "as
  deep as needed".  It is an ambient of the closure engine in ``closure``:
  its ``forced(sub)`` returns what a same-sort set forces in the completion,
  spawning the fresh elements the workspace still lacks, and its closures
  and closedness checks run the engine's one stage step.  Spawned elements
  correspond canonically to free-completion elements via their spawner sets,
  so closures computed against the workspace agree with closures computed in
  the full completion.

Origins are read from the structure, not recorded.  A fresh element is born
incident with exactly its spawner, whose ids are all older; it gains an
incidence later only from a later spawn, which has a larger id (fresh
elements of one stage are never incident with each other).  So the spawner
of e is the set of its neighbours below e, and in a staged run its stage is
the k with ``sizes[k-1] <= e < sizes[k]``.  ``CompletionStage.provenance``
and the ``complete`` command's document are read by this rule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, Iterator, Sequence

from .closure import ClosureRun, _checked, _stages_after, _violator, is_i_closed
from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    PreconditionError,
    Sort,
    StructureBuilder,
    _default_name,
    _require_budgets,
    _require_free,
    embedding_fault,
    induced,
)


@dataclass(frozen=True)
class Provenance:
    """Where a completion element came from: created at ``stage`` incident
    exactly with the same-sort set ``spawner``."""

    element: int
    stage: int
    spawner: frozenset


def _spawner(adj: Sequence, e: int) -> frozenset:
    """The spawner of fresh element e: its neighbours below e."""
    return frozenset(x for x in adj[e] if x < e)


@dataclass(frozen=True)
class CompletionStage:
    """Stage ``k`` of a free completion; ``sizes`` holds the element counts
    of stages 0..k (a padded fixpoint stage repeats the last count).  The
    structure and ``sizes`` are the whole record of origin: ``born`` and
    ``provenance`` read it by the spawner rule (module docstring)."""

    structure: IncidenceStructure
    k: int
    sizes: tuple

    def born(self, k: int) -> Iterator[tuple]:
        """(e, spawner) for each element created at stage ``k``."""
        adj = self.structure._adj
        for e in range(self.sizes[k - 1], self.sizes[k]):
            yield e, _spawner(adj, e)

    @property
    def provenance(self) -> dict:
        """element id -> Provenance, for all fresh elements so far."""
        return {e: Provenance(e, k, sp)
                for k in range(1, self.k + 1) for e, sp in self.born(k)}


@dataclass(frozen=True)
class DeficientSets:
    point_sets: tuple  # m-sets of points with <= n-2 common lines, colex order
    line_sets: tuple  # n-sets of lines with <= m-2 common points, colex order

    def __bool__(self) -> bool:
        return bool(self.point_sets or self.line_sets)


def _deficient(s: IncidenceStructure, room: float = float("inf")) -> DeficientSets:
    """The deficient sets; the scan stops once it finds more than ``room``
    (a negative ``room`` counts as zero), keeping the first ``room + 1``.

    One step per top element x, in id order: ``_short`` lists the sets whose
    largest element is x, intersecting the common neighbours of each prefix
    (the elements chosen so far, largest first) once; for 2-sets that is
    one list comprehension per top.  So the sets come in colex order.
    """
    m, n = s.params.m, s.params.n
    adj = s._adj
    room = max(room, 0)
    found = ([], [])
    scans = ((s.points, m, n - 2), (s.lines, n, m - 2))
    for short, (elems, k, most) in zip(found, scans):
        for i in range(k - 1, len(elems)):
            x = elems[i]
            short += _short(adj, elems, i, k - 1, most, adj[x], (x,))
            if len(short) > room:
                del short[room + 1:]
                break
        if len(short) > room:
            break
        room -= len(short)
    return DeficientSets(*map(tuple, found))


def _short(adj, elems: Sequence[int], end: int, k: int, most: int, common,
           upper: tuple) -> list:
    """The sets ``sub + upper`` as frozensets, for the k-sets ``sub`` of
    ``elems[:end]`` (ascending) in colex order whose common neighbours
    within ``common`` number at most ``most``.  Only the last level slices."""
    if k == 0:
        return [frozenset(upper)] if len(common) <= most else []
    if k == 1:
        return [frozenset((y,) + upper) for y in elems[:end] if len(common & adj[y]) <= most]
    out = []
    for i in range(k - 1, end):
        y = elems[i]
        out += _short(adj, elems, i, k - 1, most, common & adj[y], (y,) + upper)
    return out


def deficient_sets(s: IncidenceStructure) -> DeficientSets:
    """All deficient point m-sets and line n-sets, in colex order."""
    _require_free(s, "structure")
    return _deficient(s)


def initial_stage(s: IncidenceStructure) -> CompletionStage:
    return CompletionStage(s, 0, (len(s),))


def complete_step(stage: CompletionStage) -> CompletionStage:
    """One completion step.  Both deficiency families are computed against
    the incoming structure; all fresh elements are added together.

    The fresh adjacency is written unchecked, since it cannot complete a
    K_{m,n}.  The incoming structure is checked to be free, so a new grid
    would contain a fresh element.  A fresh line meets exactly its spawner
    sigma, an m-set of old points: fresh elements are never incident with
    each other.  So the grid's m points are sigma and its n lines pass
    through all of sigma.  But sigma had at most n-2 common lines, and no
    other fresh line passes through it (another spawner is a different
    m-set), so sigma now has at most n-1 common lines, fewer than n.  The
    dual argument rules out a fresh point.
    """
    _require_free(stage.structure, "stage structure")
    return _step(stage, _deficient(stage.structure))


def _step(stage: CompletionStage, defs: DeficientSets) -> CompletionStage:
    """``complete_step`` on a free stage whose deficient sets are ``defs``.
    Fresh elements take their spawners as adjacency and the names
    ``StructureBuilder`` would give: ``l{e}`` and ``p{e}``, named one by one
    only when one of those is a name of the stage; untouched elements keep
    their sets.  The point and line tuples are the stage's, extended by the
    fresh ids, so they are not found again by a pass over every element."""
    s, k1 = stage.structure, stage.k + 1
    spawners = defs.point_sets + defs.line_sets
    sorts = (Sort.LINE,) * len(defs.point_sets) + (Sort.POINT,) * len(defs.line_sets)
    first, cut, end = len(s), len(s) + len(defs.point_sets), len(s) + len(spawners)
    names = [f"l{e}" for e in range(first, cut)] + [f"p{e}" for e in range(cut, end)]
    if not s._ids.keys().isdisjoint(names):
        names = [_default_name(srt, e, s._ids) for e, srt in zip(count(first), sorts)]
    gained = defaultdict(list)
    for e, spawner in enumerate(spawners, first):
        for q in spawner:
            gained[q].append(e)
    adj = list(s._adj)
    for q, new in gained.items():
        # copied as build() copies: a union leaves a sparser table, slower to scan
        adj[q] = frozenset({*adj[q], *new})
    nxt = IncidenceStructure(s.params, s._sorts + sorts, s._names + tuple(names),
                             tuple(adj) + spawners)
    nxt._points = s.points + tuple(range(cut, end))
    nxt._lines = s.lines + tuple(range(first, cut))
    return CompletionStage(nxt, k1, stage.sizes + (end,))


@dataclass(frozen=True)
class FreeCompletionRun:
    stages: tuple  # CompletionStage for k = 0..K

    @property
    def final(self) -> CompletionStage:
        return self.stages[-1]

    def sizes(self) -> list:
        return list(self.final.sizes)


def _stages(seed: IncidenceStructure, element_cap: int) -> Iterator[CompletionStage]:
    """Stage 0 of the free completion of the free ``seed``, then each later
    stage up to the fixpoint, the last stage yielded.  Each stage is scanned
    for deficient sets once, when the next one is asked for; BudgetError if
    the next stage would push the element count past ``element_cap``."""
    stage = initial_stage(seed)
    while True:
        yield stage
        room = element_cap - len(stage.structure)
        defs = _deficient(stage.structure, room)
        if not defs:
            return
        if len(defs.point_sets) + len(defs.line_sets) > room:
            raise BudgetError(
                f"free completion stage {stage.k + 1} needs more than "
                f"{element_cap} elements"
            )
        stage = _step(stage, defs)


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
    _require_budgets(stages, element_cap)
    _require_free(m0, "seed structure")
    run = list(islice(_stages(m0, element_cap), stages + 1))
    fix = run[-1]  # the fixpoint, if the run ends early
    run += [CompletionStage(fix.structure, k, fix.sizes + fix.sizes[-1:] * (k - fix.k))
            for k in range(fix.k + 1, stages + 1)]
    return FreeCompletionRun(tuple(run))


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
    A, and the spawner-set correspondence is an isomorphism over A from the
    standalone free completion of A onto C with its stage structure.
    """
    a_set = _checked(b_struct, a_elements)
    closed, violator = is_i_closed(b_struct, a_set)
    if not closed:
        raise PreconditionError(
            f"A is not I-closed in B: forced element {b_struct.name(violator)!r} missing"
        )

    x_run = free_completion(b_struct, stage_budget, element_cap)
    by_spawner = {}  # (stage, spawner) -> element of the ambient completion
    y_stages = [a_set]
    for k in range(1, stage_budget + 1):
        yk, fresh = y_stages[-1], set()
        for e, sp in x_run.final.born(k):
            by_spawner[k, sp] = e
            if sp <= yk:
                fresh.add(e)
        y_stages.append(yk | fresh)

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
    if any(final.neighbors(e) & (b_ids - a_set) for e in c - a_set):
        raise RuntimeError("postcondition failure: incidence between C-A and B-A")

    a_struct, remap_a = induced(b_struct, a_set)
    free_a = free_completion(a_struct, stage_budget, element_cap)
    corr = {v: k for k, v in remap_a.items()}
    for k in range(1, stage_budget + 1):
        for e, sp in free_a.final.born(k):
            target = by_spawner.get((k, frozenset(corr[x] for x in sp)))
            if target is None or target not in y_stages[k]:
                raise RuntimeError(
                    f"postcondition failure: stage correspondence broke at stage {k}"
                )
            corr[e] = target
        image = {corr[e] for e in range(free_a.final.sizes[k])}
        if len(image) != len(y_stages[k]):
            raise RuntimeError(
                f"postcondition failure: the image of F_{k}(A) has "
                f"{len(image)} elements, Y_{k} has {len(y_stages[k])}"
            )

    if not _is_isomorphism(free_a.final.structure, final, c, corr):
        raise RuntimeError("postcondition failure: C is not isomorphic over A to F(A)")
    return RelativeCompletion(x_run, tuple(y_stages), c, free_a, corr)


def _is_isomorphism(s1: IncidenceStructure, s2: IncidenceStructure,
                    keep: frozenset, corr: dict) -> bool:
    """Is ``corr`` an isomorphism from ``s1`` onto the substructure of ``s2``
    induced on ``keep``?  It is when it is an induced embedding of all of s1
    whose image is ``keep``."""
    return (len(corr) == len(s1) and set(corr.values()) == keep
            and embedding_fault(s1, s2, corr) is None)


class LazyCompletion(StructureBuilder):
    """A canonical-completion workspace: a builder grown from its base.

    Grows the base by exactly the fresh elements forced by same-sort sets:
    ``forced`` gives an m-set of distinct points its full n-1 common lines
    (spawning the missing ones, each incident exactly with the set), and an
    n-set of distinct lines its m-1 common points.  ``lines_through`` and
    ``points_on`` are its checked forms.  Spawner sets identify spawned
    elements with the corresponding free-completion elements, so set
    closures computed here equal closures computed in the full completion.
    A spawned element's spawner is its neighbours below it (the spawner rule
    in the module docstring), so the workspace records no origins.
    """

    def __init__(self, base: IncidenceStructure, element_cap: int = 100_000):
        _require_budgets(element_cap)
        _require_free(base, "ambient structure")
        super().__init__(base.params)
        self._copy(base)
        self.base = base
        self.element_cap = element_cap

    def snapshot(self) -> IncidenceStructure:
        return self.build()

    def _spawn(self, sort: Sort, spawner: Sequence[int]) -> int:
        if len(self) + 1 > self.element_cap:
            raise BudgetError(
                f"canonical completion workspace exceeded {self.element_cap} elements"
            )
        line = sort is Sort.LINE
        fresh = self.add_line() if line else self.add_point()
        for e in sorted(spawner):
            self.add_incidence(*((e, fresh) if line else (fresh, e)))
        return fresh

    def forced(self, sub: Sequence[int]) -> frozenset:
        """The completion elements incident with every member of ``sub``: the
        n-1 lines of an m-set of points or the m-1 points of an n-set of
        lines.  Spawns the ones the workspace lacks, in order, each incident
        exactly with ``sub``.

        Unchecked: ``sub`` is a sorted sequence of m distinct points or of n
        distinct lines.
        """
        adj = self._adj
        have = adj[sub[0]].intersection(*[adj[e] for e in sub[1:]])
        if self._sorts[sub[0]] is Sort.POINT:
            sort, want = Sort.LINE, self.params.n - 1
        else:
            sort, want = Sort.POINT, self.params.m - 1
        while len(have) < want:
            have.add(self._spawn(sort, sub))
        return frozenset(have)

    def _distinct(
        self, elems: Iterable[int], sort: Sort, k: int, caller: str
    ) -> list:
        """``elems`` sorted, after checking they are k distinct workspace
        elements of ``sort``."""
        elems = sorted(_checked(self, elems))
        if len(elems) != k:
            raise ParameterError(f"need exactly {k} distinct {sort.value}s")
        for e in elems:
            if self._sorts[e] is not sort:
                raise ParameterError(f"{caller} takes {sort.value}s")
        return elems

    def lines_through(self, sigma: Iterable[int]) -> frozenset:
        """All n-1 completion lines through the m distinct points sigma."""
        sigma = self._distinct(sigma, Sort.POINT, self.params.m, "lines_through")
        return self.forced(sigma)

    def points_on(self, tau: Iterable[int]) -> frozenset:
        """All m-1 completion points on the n distinct lines tau."""
        tau = self._distinct(tau, Sort.LINE, self.params.n, "points_on")
        return self.forced(tau)

    def closure(self, seed: Iterable[int], stage_budget: int = 8) -> ClosureRun:
        """Staged algebraic closure of ``seed`` in the canonical completion.

        stages[t] is the t-th closure stage as a frozenset of workspace ids.
        A fixpoint certifies genuine convergence: every m-set of points then
        has its full n-1 lines inside the set (and dually), so nothing
        outside can ever be forced.  The run converges only if it reaches
        the fixpoint within ``stage_budget`` steps; it takes no step past
        the budget, which would spawn.  Hitting the element cap reports
        capped=True instead of raising; the recorded stages remain exact.
        """
        stages = [_checked(self, seed, stage_budget)]
        try:
            for cur in islice(_stages_after(self, stages[0]), stage_budget):
                stages.append(cur)
        except BudgetError:
            return ClosureRun(tuple(stages), False, capped=True)
        return ClosureRun(tuple(stages), len(stages) <= stage_budget)

    def is_monster_closed(self, d: Iterable[int]):
        """Is d I-closed in the full completion?  Returns (bool, violator).

        d is closed iff every m-set of its points already has all n-1 common
        lines inside d, and dually; otherwise the violator is the least
        element (existing in the workspace or freshly spawned) that one
        closure step adds to d.
        """
        return _violator(self, _checked(self, d))
