"""Finite two-sorted incidence structures and K_{m,n}-freeness machinery.

A structure has points, lines, and a symmetric incidence relation between
them.  Everything downstream (completions, closures, amalgams, independence
checkers) is built on the small vocabulary here:

* ``IncidenceStructure``: an immutable value.  Elements are opaque integer
  ids assigned in creation order; each has a sort and a display name.
* ``StructureBuilder``: the one mutable construction path.  Incidence adds
  are guarded by default, by the freeness scan's grid search ``_grid``.
  ``completion.LazyCompletion`` is a builder that spawns.  All three read
  their sorts, names, adjacency and name index through the base ``_Store``.
* ``is_kmn_free`` / ``satisfies_complete``: the forbidden-configuration scan
  and the "every m points on exactly n-1 lines, every n lines on exactly m-1
  points" test, both with deterministic witnesses.  Freeness is decided by
  one pass, ``_has_grid``, with one step per *top*: for each point x it
  counts x's *partners*, the smaller points sharing at least n lines with
  it (the shared-neighbour count used to find 4-cycles; Alon, Yuster and
  Zwick, Algorithmica 17, 1997; Chiba and Nishizeki, SIAM J. Comput. 14,
  1985), and searches for a grid topped by x (``_grid``) only among them,
  or the same over the lines when that costs less.  Only a hit runs the
  line scan ``_scan``, which grows m-sets on each line by the same
  partners, for the colex-first witness.
* ``_match``: the one backtracking matcher, iterative, for injective maps
  that keep sorts and incidence.  ``isomorphic_over`` runs it to extend a
  partial base map (to the lexicographically least isomorphism), and
  ``finsearch`` to embed structures into planes.

Deterministic subset scans use colexicographic order throughout (subsets
compared by largest element first), so reported witnesses are stable.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class Sort(enum.Enum):
    POINT = "point"
    LINE = "line"


class ParameterError(ValueError):
    """Bad structural parameters or malformed arguments."""


class SortError(ValueError):
    """An element was used with the wrong sort."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class BudgetError(RuntimeError):
    """A stage or element budget was exhausted before the answer was known."""


def _require_budgets(*budgets) -> None:
    """ParameterError unless every budget given (None for none) is an int >= 0."""
    for b in budgets:  # one pass, no generator: every closure and query runs it
        if b is not None and type(b) is not int:  # bool too
            raise ParameterError("budget must be an integer")
        if b is not None and b < 0:
            raise ParameterError("budget must be >= 0")


@dataclass(frozen=True)
class StructParams:
    """The forbidden-configuration parameters: no m points on n common lines."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if type(self.m) is not int or type(self.n) is not int:  # bool is refused
            raise ParameterError("m and n must be integers")
        if self.m < 1 or self.n < 1:
            raise ParameterError(f"m and n must be >= 1, got ({self.m}, {self.n})")


@dataclass(frozen=True)
class FreenessWitness:
    """A complete K_{m,n}: m points all incident with the same n lines."""

    points: frozenset
    lines: frozenset


class FreenessViolationError(ValueError):
    """Raised by guarded mutation that would complete a K_{m,n}."""

    def __init__(self, witness: FreenessWitness, context: str = ""):
        self.witness = witness
        pts = sorted(witness.points)
        lns = sorted(witness.lines)
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}would complete K_(m,n): points {pts} x lines {lns}"
        )


def colex_combinations(items: Sequence[int], k: int) -> Iterator[tuple]:
    """k-subsets of ``items`` (assumed sorted) in colexicographic order.

    Colex compares subsets by their largest element, then the next largest,
    and so on; equivalently, subsets of items[:j] come before any subset
    containing items[j].

    Lazy and non-recursive (Knuth, TAOCP 4A, 7.2.1.3, Algorithm L): the
    lowest position sweeps every index below c[1]; then the lowest higher
    position that can move up does, and the ones below it restart.
    """
    n = len(items)
    if k < 0 or k > n:
        return
    if k == 0 or k == n:
        yield tuple(items[:k])
        return
    c = list(range(k)) + [n]
    while True:
        upper = tuple([items[i] for i in c[1:k]])
        for x in items[:c[1]]:
            yield (x,) + upper
        j = 1
        while j < k and c[j] + 1 == c[j + 1]:
            c[j] = j
            j += 1
        if j == k:
            return
        c[j] += 1


class _Store:
    """The element readers of a store: ``_sorts``, ``_names`` and ``_adj``
    indexed by element id, and ``_ids`` from name to id."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._sorts)

    def sort(self, e: int) -> Sort:
        return self._sorts[e]

    def name(self, e: int) -> str:
        return self._names[e]

    def by_name(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise ParameterError(f"no element named {name!r}") from None

    def neighbors(self, e: int):
        """All elements of the opposite sort incident with e."""
        return self._adj[e]

    def elements(self) -> range:
        return range(len(self._sorts))


class IncidenceStructure(_Store):
    """An immutable finite two-sorted incidence structure.

    Element ids are 0..N-1 in creation order.  Adjacency is stored per
    element as a frozenset of opposite-sort ids.  The point and line tuples
    are computed on first use and kept; ``completion._step`` sets them from
    the previous stage's instead.
    """

    __slots__ = (
        "params", "_sorts", "_names", "_adj", "_ids", "_hash",
        "_points", "_lines",
    )

    def __init__(
        self,
        params: StructParams,
        sorts: tuple,
        names: tuple,
        adj: tuple,
    ):
        self.params = params
        self._sorts = sorts
        self._names = names
        self._adj = adj
        self._ids = dict(zip(names, range(len(names))))
        self._hash = None
        self._points = None
        self._lines = None

    # -- basic accessors ---------------------------------------------------

    @property
    def points(self) -> tuple:
        if self._points is None:
            self._points = tuple(
                e for e, srt in enumerate(self._sorts) if srt is Sort.POINT
            )
        return self._points

    @property
    def lines(self) -> tuple:
        if self._lines is None:
            self._lines = tuple(
                e for e, srt in enumerate(self._sorts) if srt is Sort.LINE
            )
        return self._lines

    def is_point(self, e: int) -> bool:
        return self._sorts[e] is Sort.POINT

    def is_line(self, e: int) -> bool:
        return self._sorts[e] is Sort.LINE

    def names(self, es: Iterable[int]) -> list:
        return sorted(self._names[e] for e in es)

    def has_name(self, name: str) -> bool:
        return name in self._ids

    def forced(self, sub: Sequence[int]) -> frozenset:
        """The elements incident with every member of ``sub``: for an m-set
        of points the lines it forces, for an n-set of lines the points.

        Unchecked: ``sub`` is a nonempty same-sort sequence of element ids.
        """
        adj = self._adj
        common = adj[sub[0]]
        for e in sub[1:]:
            common = common & adj[e]
        return common

    def degree(self, e: int) -> int:
        return len(self._adj[e])

    def incident(self, p: int, l: int) -> bool:
        return l in self._adj[p]

    def incidences(self) -> Iterator[tuple]:
        """(point, line) pairs, sorted."""
        for p in self.points:
            for l in sorted(self._adj[p]):
                yield (p, l)

    def incidence_count(self) -> int:
        return sum(len(self._adj[p]) for p in self.points)

    # -- equality / hashing -------------------------------------------------

    def _key(self):
        return (self.params, self._sorts, self._names, self._adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return (
            f"<IncidenceStructure ({self.params.m},{self.params.n})-free "
            f"{len(self.points)}P {len(self.lines)}L "
            f"{self.incidence_count()}I>"
        )


def _default_name(sort: Sort, e: int, taken) -> str:
    """``p{e}`` or ``l{e}``, with ``_`` prefixed while it is in ``taken``."""
    name = ("p" if sort is Sort.POINT else "l") + str(e)
    while name in taken:
        name = "_" + name
    return name


def _primed_name(want: str, taken) -> str:
    """``want`` with ``'`` appended while the name is in ``taken``."""
    while want in taken:
        want += "'"
    return want


class StructureBuilder(_Store):
    """Mutable builder; ``build()`` snapshots an immutable structure.

    Incidence adds are guarded: add_incidence refuses (with a witness, found
    by one ``_grid`` search) any incidence that would complete a K_{m,n},
    unless guard=False.  Unguarded adds are for amalgams (each scans its
    result with ``is_kmn_free`` once), extensions and the fixed
    constructions in ``gamma`` (free by the proof in each docstring), and
    document parsing (a document may describe a non-free structure).
    ``completion.LazyCompletion`` is a builder whose spawns take the guarded
    add.  ``amalgam.pattern_consistent`` builds its candidates in one
    scratch copy of a free ground, a level of its search at a time: it asks
    ``completion_witness`` before each unguarded add, and on backtracking
    ``_truncate`` takes out the level's incidences and fresh element.
    Completion steps, found planes and ``induced`` do not use the builder:
    they write their result directly.
    """

    def __init__(self, params: StructParams):
        self.params = params
        self._sorts: list = []
        self._names: list = []
        self._adj: list = []
        self._ids: dict = {}  # name -> element id

    @staticmethod
    def from_structure(s: IncidenceStructure) -> "StructureBuilder":
        """A plain builder holding a copy of ``s``, also on a subclass."""
        return StructureBuilder(s.params)._copy(s)

    def _copy(self, s: IncidenceStructure) -> "StructureBuilder":
        """Replace the store by a copy of ``s``'s; returns self."""
        self._sorts = list(s._sorts)
        self._names = list(s._names)
        self._adj = [set(a) for a in s._adj]
        self._ids = dict(s._ids)
        return self

    def _add_element(self, sort: Sort, name: Optional[str]) -> int:
        e = len(self._sorts)
        if name is None:
            name = _default_name(sort, e, self._ids)
        elif name in self._ids:
            raise ParameterError(f"duplicate element name {name!r}")
        self._sorts.append(sort)
        self._names.append(name)
        self._adj.append(set())
        self._ids[name] = e
        return e

    def add_point(self, name: Optional[str] = None) -> int:
        return self._add_element(Sort.POINT, name)

    def add_line(self, name: Optional[str] = None) -> int:
        return self._add_element(Sort.LINE, name)

    def completion_witness(self, p: int, l: int) -> Optional[FreenessWitness]:
        """The K_{m,n} that adding incidence (p, l) would complete, if any.

        Such a grid has its other m-1 points on l and all its lines through p
        (l among them).  ``_grid`` returns the colex-first such set, as it
        drops only prefixes already below n common lines; its result counts
        only with n lines, which covers m = 1, where it returns at once.
        """
        m, n, adj = self.params.m, self.params.n, self._adj
        found = _grid(adj, n, adj[p] | {l}, sorted(adj[l] - {p}), m - 1)
        if found is None or len(found[1]) < n:
            return None
        rest = sorted(found[1] - {l})[: n - 1]
        return FreenessWitness(frozenset(found[0]) | {p}, frozenset(rest) | {l})

    def add_incidence(self, p: int, l: int, guard: bool = True) -> None:
        if self._sorts[p] is not Sort.POINT:
            raise SortError(f"element {p} ({self._names[p]!r}) is not a point")
        if self._sorts[l] is not Sort.LINE:
            raise SortError(f"element {l} ({self._names[l]!r}) is not a line")
        if l in self._adj[p]:
            return
        if guard:
            w = self.completion_witness(p, l)
            if w is not None:
                raise FreenessViolationError(w)
        self._adj[p].add(l)
        self._adj[l].add(p)

    def _truncate(self, size: int, incidences=()) -> None:
        """Drop ``incidences``, then the elements from id ``size`` on, with
        all their incidences."""
        adj = self._adj
        for p, l in incidences:
            adj[p].discard(l)
            adj[l].discard(p)
        for e in range(size, len(adj)):
            for x in adj[e]:
                adj[x].discard(e)
            del self._ids[self._names[e]]
        del self._sorts[size:], self._names[size:], adj[size:]

    def build(self) -> IncidenceStructure:
        return IncidenceStructure(
            self.params,
            tuple(self._sorts),
            tuple(self._names),
            tuple(frozenset(a) for a in self._adj),
        )


def _grid(adj, n: int, common: frozenset, cands: list, k: int):
    """The colex-first k of ``cands`` (ascending) that keep at least n of
    ``common`` as common neighbours, as (those k, their common ones), or None.

    Kept at module level: nested in the scan as a recursive closure
    it would form a reference cycle on every call, garbage that only the
    cyclic collector frees, and that slowed many small scans.
    """
    if k == 0:
        return (), common
    for i in range(k - 1, len(cands)):
        y = cands[i]
        both = common & adj[y]
        if len(both) >= n:
            found = _grid(adj, n, both, cands[:i], k - 1)
            if found is not None:
                return found[0] + (y,), found[1]
    return None


def _partners(adj, x: int, need: int) -> set:
    """The elements below x sharing at least ``need`` neighbours with x.

    One count over x's neighbours' neighbours.  x lies in every set
    counted, and with ``need`` above one a partner lies in two of them, so
    the count is skipped when the set sizes add up to no repeat.
    """
    around = list(map(adj.__getitem__, adj[x]))
    if need > 1 and sum(map(len, around)) - len(around) == len(set().union(*around)) - 1:
        return set()
    shared = Counter(chain.from_iterable(around))
    return {y for y, c in shared.items() if c >= need and y < x}


def _scan(adj, outer, k: int, need: int):
    """The colex-first k neighbours with at least ``need`` common ones of the
    first element of ``outer`` (in order) that has such, as (those k,
    ascending; their common ones), or None.

    Each element's neighbours are searched depth first, largest first and
    every level in ascending order, which visits their k-sets in colex
    order.  Below a top element x only x's ``_partners`` are tried, counted
    on x's first time on top.  No grid holds x and a skipped element, so the
    first grid found is still the colex-first.
    """
    partners: dict = {}  # top element -> the smaller ones sharing >= need
    for o in outer:
        inner = sorted(adj[o])
        for i in range(k - 1, len(inner)):
            x = inner[i]
            if len(adj[x]) < need:
                continue
            near = partners.get(x)
            if near is None:
                near = partners[x] = _partners(adj, x, need)
            found = _grid(adj, need, adj[x], [y for y in inner[:i] if y in near], k - 1)
            if found is not None:
                return found[0] + (x,), found[1]
    return None


def _has_grid(adj, tops, k: int, need: int) -> bool:
    """Do some k elements of ``tops``' sort have at least ``need`` common
    neighbours?  One step per top x: a grid whose largest element is x has
    its other k-1 among x's ``_partners``, so ``_grid`` runs only on those,
    and only when there are k-1 of them."""
    for x in tops:
        ax = adj[x]
        if len(ax) < need:
            continue
        near = _partners(adj, x, need)
        if len(near) >= k - 1 and _grid(adj, need, ax, sorted(near), k - 1) is not None:
            return True
    return False


def is_kmn_free(s: IncidenceStructure):
    """(True, None) if s has no complete K_{m,n}; else (False, witness).

    A decision pass runs first, over the points as tops (m points with at
    least n common lines) or over the lines (n lines with at least m common
    points).  Its partner filter misses no grid: every other element of a
    grid shares at least the grid's n lines (or m points) with the grid's
    largest element, its top, so it is among the top's partners.  The
    pass's cost is its partner counts, which walk each top's neighbours'
    neighbours: sum_l (deg l)^2 with the points on top, sum_p (deg p)^2
    with the lines on top.  The lines are on top only when that is strictly
    the smaller sum.

    Only a hit runs the line scan ``_scan`` over the m-sets of each line's
    points, so the witness is the colex-first m-set on the first line (in
    id order) that carries a grid, with the n lowest of its common lines.
    """
    m, n = s.params.m, s.params.n
    adj = s._adj
    excess = 0  # in plain loops: generators would cost as much as a tiny scan
    for l in s.lines:
        excess += len(adj[l]) ** 2
    for p in s.points:
        excess -= len(adj[p]) ** 2
    tops, k, need = (s.lines, n, m) if excess > 0 else (s.points, m, n)
    if not _has_grid(adj, tops, k, need):
        return True, None
    found = _scan(adj, s.lines, m, n)
    return False, FreenessWitness(frozenset(found[0]), frozenset(sorted(found[1])[:n]))


def _require_free(s: IncidenceStructure, what: str) -> None:
    """PreconditionError naming a grid of ``s``, called ``what``, if any."""
    ok, witness = is_kmn_free(s)
    if not ok:
        raise PreconditionError(f"{what} is not K-free: {witness}")


def common_neighbors(s: IncidenceStructure, ys: Iterable[int]) -> frozenset:
    """Elements incident with every member of ys (ys same-sort, nonempty)."""
    ys = sorted(set(ys))
    if not ys:
        raise ParameterError("common_neighbors requires a nonempty element set")
    sorts = {s.sort(y) for y in ys}
    if len(sorts) != 1:
        raise SortError("common_neighbors requires a same-sort element set")
    return s.forced(ys)


@dataclass(frozen=True)
class CompletenessReport:
    """Result of the T^c test; witness identifies the first failing subset."""

    passed: bool
    witness_kind: Optional[str] = None  # "points" or "lines"
    witness: Optional[frozenset] = None
    count: Optional[int] = None

    def __bool__(self) -> bool:
        return self.passed


def satisfies_complete(s: IncidenceStructure) -> CompletenessReport:
    """Does every m-set of points lie on exactly n-1 common lines, and every
    n-set of lines pass through exactly m-1 common points?

    Vacuously true when there are fewer than m points and fewer than n lines.
    Point subsets are scanned before line subsets, colex within each.

    Each sort is first checked by counting (``_counts_all_equal``), and the
    colex scan runs only on a sort that fails the count, so the report is
    the scan's.  An m-set of points lies on as many lines as there are lines
    whose points include it, so the counts of the C(|points|, m) m-sets,
    zeros included, sum to the sum over lines l of C(|points of l|, m).
    If that sum is not want * C(|points|, m), want = n-1, some count is not
    want.  If it is, every count equals want exactly when none is above
    want, since a count below want would leave the sum short.  So the
    count reads the sum from the line degrees and then counts the m-subsets
    of each line's points, stopping at the first count above want: at most
    want * C(|points|, m) steps after the degree sum.  Lines are the dual
    case.
    """
    m, n = s.params.m, s.params.n
    forced = s.forced
    for elems, others, k, want, kind in (
        (s.points, s.lines, m, n - 1, "points"),
        (s.lines, s.points, n, m - 1, "lines"),
    ):
        if _counts_all_equal(s._adj, others, k, want, comb(len(elems), k)):
            continue
        for sub in colex_combinations(elems, k):
            count = len(forced(sub))
            if count != want:
                return CompletenessReport(False, kind, frozenset(sub), count)
    return CompletenessReport(True)


def _counts_all_equal(adj, others: Sequence[int], k: int, want: int, subsets: int) -> bool:
    """Does each of the ``subsets`` k-sets of one sort lie in exactly
    ``want`` of the neighbourhoods of ``others``?  Proof in
    ``satisfies_complete``."""
    if sum(comb(len(adj[o]), k) for o in others) != want * subsets:
        return False
    counts: dict = {}
    for o in others:
        for sub in combinations(sorted(adj[o]), k):
            c = counts.get(sub, 0) + 1
            if c > want:
                return False
            counts[sub] = c
    return True


@dataclass(frozen=True)
class IsoResult:
    """mapping is None if no isomorphism extends the base; base_conflict is
    set when the base itself is not a partial embedding."""

    mapping: Optional[dict]
    base_conflict: bool = False

    def __bool__(self) -> bool:
        return self.mapping is not None


def _match(small: IncidenceStructure, big: IncidenceStructure, order: Sequence[int],
           candidates: Callable[[int, dict], Iterable[int]], mapping: dict,
           node_budget: Optional[int] = None) -> tuple:
    """Extend ``mapping`` (small -> big, in place) over ``order``, assigning
    its elements in turn; returns (outcome, nodes).

    Each element tries the unused images of ``candidates(e, mapping)`` in
    their order, each one node, counted after the budget check.  An image
    passes when its neighbours among the mapped images of the other sort are
    exactly the images of e's mapped neighbours: with an injective map, the
    pairwise incidence test.  The outcome is True when all are mapped, False
    when the space is exhausted, None when ``node_budget`` ran out.  A stack
    frame keeps its element, candidate iterator, wanted set and used and
    opposite image sets, so backtracking recomputes nothing.
    """
    small_adj, big_adj, sorts, point = small._adj, big._adj, small._sorts, Sort.POINT
    pimg = {b for a, b in mapping.items() if sorts[a] is point}
    limg = set(mapping.values()) - pimg
    budget = float("inf") if node_budget is None else node_budget
    nodes = 0
    stack: list = []
    while len(stack) < len(order):
        e = order[len(stack)]
        used, opp = (pimg, limg) if sorts[e] is point else (limg, pimg)
        want = {mapping[o] for o in small_adj[e] if o in mapping}
        stack.append((e, iter(candidates(e, mapping)), want, used, opp))
        while True:
            e, cands, want, used, opp = stack[-1]
            for img in cands:
                if img in used:
                    continue
                if nodes >= budget:
                    return None, nodes
                nodes += 1
                if big_adj[img] & opp == want:
                    mapping[e] = img
                    used.add(img)
                    break
            else:
                stack.pop()
                if not stack:
                    return False, nodes
                stack[-1][3].remove(mapping.pop(stack[-1][0]))
                continue
            break
    return True, nodes


def _on_mapped_neighbours(small_adj: Sequence[frozenset], big_adj: Sequence[frozenset],
                          e: int, mapping: dict) -> Optional[frozenset]:
    """The big-elements incident with the images of all of e's mapped
    neighbours, or None when none is mapped.  Under an injective map every
    other image fails ``_match``'s test, so candidate lists may keep to it."""
    on = sorted((big_adj[mapping[u]] for u in small_adj[e] if u in mapping), key=len)
    return on[0].intersection(*on[1:]) if on else None


def isomorphic_over(
    s1: IncidenceStructure,
    s2: IncidenceStructure,
    base: Mapping[int, int],
) -> IsoResult:
    """Search for an isomorphism s1 -> s2 extending ``base``.

    Deterministic: unmapped s1-elements are assigned in id order and
    candidates tried in id order, so the first isomorphism found is the
    lexicographically least extension.  Returns IsoResult(None) if none
    exists; base_conflict is set when the base map itself is not a partial
    embedding.  Malformed bases (sort clash, non-injective) raise instead.
    An element's candidates are the s2-elements of its sort and degree on
    the images of all its mapped neighbours: every other image fails.
    """
    if s1.params != s2.params:
        return IsoResult(None)
    for a, b in base.items():
        if a not in s1.elements() or b not in s2.elements():
            raise ParameterError("base map references unknown elements")
        if s1.sort(a) is not s2.sort(b):
            raise SortError(
                f"base maps {s1.name(a)!r} to {s2.name(b)!r} of different sort"
            )
    if len(set(base.values())) != len(base):
        raise ParameterError("base map is not injective")
    if embedding_fault(s1, s2, base) is not None:
        return IsoResult(None, base_conflict=True)
    mapping = dict(base)

    def keys(s):  # (is a point, degree) per element
        return [(srt is Sort.POINT, len(nb)) for srt, nb in zip(s._sorts, s._adj)]

    adj1, adj2, key1, key2 = s1._adj, s2._adj, keys(s1), keys(s2)
    # the same point and line counts and degree sequences
    if sorted(key1) != sorted(key2):
        return IsoResult(None)
    by_class: dict = {}  # key -> s2-elements in id order
    for b, key in enumerate(key2):
        by_class.setdefault(key, []).append(b)

    def candidates(a: int, mapping: dict):
        on = _on_mapped_neighbours(adj1, adj2, a, mapping)
        if on is None:
            return by_class[key1[a]]
        degree = len(adj1[a])
        return sorted(b for b in on if len(adj2[b]) == degree)

    order = [e for e in s1.elements() if e not in mapping]
    if _match(s1, s2, order, candidates, mapping)[0]:
        return IsoResult(dict(sorted(mapping.items())))
    return IsoResult(None)


def embedding_fault(small: IncidenceStructure, big: _Store,
                    mapping: Mapping[int, int]) -> Optional[str]:
    """Why ``mapping``, a possibly partial map from elements of ``small`` to
    ``big``, is not an induced embedding; None when it is one.  It is one
    when it is injective into ``big``, keeps sorts, and a mapped point and
    line are incident exactly when their images are.  The reason names the
    first fault in id order of ``small``: an image outside ``big``, a sort
    clash or a shared image, else the least wrong (point, line) pair.  One
    pass over the incidences of the mapped points.
    """
    name, domain, inverse = small.name, sorted(mapping), {}
    for e in domain:
        im = mapping[e]
        if im not in big.elements():
            return f"image {im!r} of {name(e)!r} is outside the target"
        if small.sort(e) is not big.sort(im):
            return f"sort clash at {name(e)!r}"
        if im in inverse:
            return f"{name(inverse[im])!r} and {name(e)!r} share an image"
        inverse[im] = e
    for p in domain:
        if small.is_point(p):
            wrong = {l for l in small.neighbors(p) if l in mapping}.symmetric_difference(
                inverse[l] for l in big.neighbors(mapping[p]) if l in inverse)
            if wrong:
                return f"incidence mismatch at ({name(p)!r}, {name(min(wrong))!r})"
    return None


def induced(s: IncidenceStructure, keep: Iterable[int]):
    """The induced substructure on ``keep``; returns (structure, old->new).

    Kept elements are renumbered by rank and keep their sorts and names.
    Written directly: a substructure needs none of the builder's checks."""
    keep = sorted(set(keep))
    for e in keep:
        if e not in s.elements():
            raise ParameterError(f"element {e} not in structure")
    remap = {e: i for i, e in enumerate(keep)}
    return IncidenceStructure(
        s.params,
        tuple(s._sorts[e] for e in keep),
        tuple(s._names[e] for e in keep),
        tuple(frozenset(remap[x] for x in s._adj[e] if x in remap) for e in keep),
    ), remap
