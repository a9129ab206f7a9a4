"""Backtracking search for finite complete (2,2) structures and embeddings.

A finite complete (2,2) structure of order q has q^2+q+1 points, the
same number of lines, q+1 points per line, and every pair of points on
exactly one common line (degenerate cases such as the order-1 triangle
are admitted; there is no non-degeneracy requirement).  The search
builds the line set directly: at every step the lexicographically least
point pair not yet covered must be covered by some line, so candidates
are exactly the admissible lines through that pair, tried in
lexicographic order.  That rule never discards a solution, keeps the
search deterministic, and fixes the very first line to the least
possible point set.  The covered pairs are one bit row per point (bit y
of row x is set when the pair xy lies on a placed line), so finding the
least uncovered pair, the points free of it and each prefix test are a
few integer operations, and the rows take O(v) space where a table of
pair flags took v^2.  The candidates through one pair come from a single
loop over an explicit stack of pool positions and point masks, with no
generator frame per point chosen.  Nodes are counted as before, each line
placed and each prefix test one node, so the nodes and their order are
those of the search on such a table, which ``tests/test_search_work.py``
keeps as the reference.

Embedding queries reuse found planes through a cache keyed by order, and
search with the one backtracking matcher of ``core``.  The first element
(the root) skips each image c that an automorphism g of the plane maps a
failed image f onto: an embedding phi with phi(root) = c would give the
embedding g^-1 . phi with root image f.  So the first embedding found is
the one the unpruned search finds.
All searches are budgeted in decision nodes (lines placed and prefixes of
candidate lines tested, or images tried, automorphism search included); a
budget hit is reported as UNKNOWN rather than an error, since exhausting
the space is the only way to conclude NONE.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    Sort,
    StructParams,
    _match,
    _on_mapped_neighbours,
    _require_budgets,
    _require_free,
)
from .completion import _stages

__all__ = [
    "SearchStatus",
    "PlaneResult",
    "EmbedResult",
    "CompletionResult",
    "find_projective_plane",
    "enumerate_projective_planes",
    "embed_in_finite_plane",
    "embed_search_general",
    "clear_plane_cache",
]


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PlaneResult:
    status: SearchStatus
    plane: Optional[IncidenceStructure] = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status is SearchStatus.FOUND


@dataclass(frozen=True)
class EmbedResult:
    status: SearchStatus
    mapping: Optional[Dict[int, int]] = None
    plane: Optional[IncidenceStructure] = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status is SearchStatus.FOUND


@dataclass(frozen=True)
class CompletionResult:
    status: SearchStatus
    structure: Optional[IncidenceStructure] = None
    embedding: Optional[Dict[int, int]] = None
    nodes: int = 0
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status is SearchStatus.FOUND


class _Stop(Exception):
    """Ends a plane search: the node budget ran out, or enough solutions
    were found.  Not ``StopIteration``, which PEP 479 turns into a
    ``RuntimeError`` when raised inside the candidate generator."""


class _PlaneSearch:
    """DFS over line sets of a complete (2,2) structure of one order.

    Lines are (q+1)-subsets of range(v), v = q^2+q+1.  Any two points
    may share at most one line, and a finished solution covers every
    pair exactly once, which forces the line count and the degrees.
    Each new line must cover the least uncovered pair, with its
    remaining points above that pair (forced for the least pair, so no
    solutions are lost).  Candidates are built point by point, in
    lexicographic order.  Each line placed and each prefix test is a
    node, so the node budget bounds the work of building candidates as
    well.

    Bit y of ``covered[x]`` is set when the pair xy lies on a placed line.
    No degree is kept: the lines through x cover k-1 pairs each, none
    twice, so x lies on k lines exactly when all its k(k-1) = v-1 pairs
    are covered, and the pair tests then exclude it.
    """

    def __init__(self, order: int, node_budget: int):
        if order < 1:
            raise ParameterError("plane order must be >= 1")
        self.v = order * order + order + 1
        self.k = order + 1
        self.budget = node_budget
        self.nodes = 0
        self.lines: List[Tuple[int, ...]] = []
        self.solutions: List[List[Tuple[int, ...]]] = []
        self.exhausted = False

    def _least_uncovered(self) -> Optional[Tuple[int, int]]:
        for a, row in enumerate(self.covered):
            free = (self.everyone ^ row) >> (a + 1)
            if free:
                return a, a + (free & -free).bit_length()
        return None

    def _place(self, line: Tuple[int, ...]) -> None:
        mask = sum(1 << x for x in line)
        covered = self.covered
        for x in line:
            covered[x] |= mask ^ (1 << x)
        self.lines.append(line)

    def _unplace(self, line: Tuple[int, ...]) -> None:
        mask = sum(1 << x for x in line)
        covered = self.covered
        for x in line:
            covered[x] &= ~mask
        self.lines.pop()

    def _free_subsets(self, head: Tuple[int, ...], pool: Sequence[int], size: int):
        """``head`` followed by each ``size``-subset of ``pool`` with no
        covered pair inside, in lexicographic order: ``combinations(pool,
        size)`` filtered by the pair test, with each prefix tested once for
        all its extensions.  Every prefix test is a node.

        One loop over an explicit stack (Knuth, TAOCP 4B, 7.2.2, Algorithm
        B): per level, the next pool position to try and the mask of the
        points chosen below it; the chosen points follow ``head`` in one
        list.  The node count is a local, written back to ``self.nodes``
        at each yield, at the end and before ``_Stop``, and read again
        after a yield, since ``_dfs`` counts the lines it places there.
        """
        chosen = list(head) + [0] * size
        if not size:
            yield tuple(chosen)
            return
        covered, budget, nodes = self.covered, self.budget, self.nodes
        last = len(chosen) - 1
        base = len(pool) - last  # the level choosing chosen[at] stops at base + at
        saved: List[Tuple[int, int]] = []  # (position, mask) of the levels below
        i, mask, at = 0, 0, len(head)
        while True:
            if i < base + at:
                if nodes >= budget:
                    self.nodes = nodes
                    raise _Stop
                nodes += 1
                p = pool[i]
                i += 1
                if covered[p] & mask:
                    continue
                chosen[at] = p
                if at == last:
                    self.nodes = nodes
                    yield tuple(chosen)
                    nodes = self.nodes
                else:
                    saved.append((i, mask))
                    mask |= 1 << p
                    at += 1
            elif saved:
                i, mask = saved.pop()
                at -= 1
            else:
                self.nodes = nodes
                return

    def _candidates(self):
        pair = self._least_uncovered()
        if pair is None:
            return None  # complete
        a, b = pair
        free = (self.everyone ^ (self.covered[a] | self.covered[b])) >> (b + 1)
        pool = array("I")  # 4 bytes a point: every open level keeps its pool
        while free:
            low = free & -free
            pool.append(b + low.bit_length())
            free ^= low
        return self._free_subsets(pair, pool, self.k - 2)

    def run(self, limit: Optional[int] = None) -> None:
        """Search until ``limit`` solutions are found (all, for None) or the
        node budget runs out; ``exhausted`` tells whether the space was.

        A budget below v is spent before any row is built: a FOUND places
        v lines, each a node, and exhausting the root tests v-q prefixes
        and places C(v-2, q-1) >= v-q lines (order 1 always has its
        triangle), so a NONE needs at least v nodes too.  Such a search
        ends UNKNOWN with ``nodes`` equal to the budget, as the full
        search would, and huge orders cost nothing under small budgets.
        """
        if self.budget < self.v:
            self.nodes = self.budget
            return
        self.everyone = (1 << self.v) - 1
        self.covered = [0] * self.v
        try:
            self._dfs(limit)
            self.exhausted = True
        except _Stop:
            pass

    def _dfs(self, limit: Optional[int]) -> None:
        cands = self._candidates()
        if cands is None:
            self.solutions.append(list(self.lines))
            if limit is not None and len(self.solutions) >= limit:
                raise _Stop
            return
        for cand in cands:
            if self.nodes >= self.budget:
                raise _Stop
            self.nodes += 1
            self._place(cand)
            self._dfs(limit)
            self._unplace(cand)

    def to_structure(self, lines: List[Tuple[int, ...]]) -> IncidenceStructure:
        """Points 0..v-1 named ``p{e}``, then one line per entry of
        ``lines`` named ``l{e}``: the ids and names a ``StructureBuilder``
        gives, written directly and not checked.  A line is placed only if
        it holds no covered pair, and a solution is recorded only when no
        pair is left uncovered, so each point pair lies on exactly one line.
        So two lines share at most one point, and a line meets q others at
        each of its q + 1 points (a point lies on (v - 1)/q lines): v - 1
        lines, every other line once.  The plane is complete and K-free."""
        v = self.v
        through: List[List[int]] = [[] for _ in range(v)]
        for l, line in enumerate(lines, v):
            for p in line:
                through[p].append(l)
        ids = range(v + len(lines))
        return IncidenceStructure(
            StructParams(2, 2),
            tuple(Sort.POINT if e < v else Sort.LINE for e in ids),
            tuple(f"p{e}" if e < v else f"l{e}" for e in ids),
            tuple(map(frozenset, through)) + tuple(map(frozenset, lines)),
        )


_plane_cache: Dict[int, PlaneResult] = {}


def clear_plane_cache() -> None:
    _plane_cache.clear()


def find_projective_plane(order: int, node_budget: int = 10_000_000) -> PlaneResult:
    """First complete (2,2) structure of the given order, by backtracking.

    FOUND results (and exhaustive NONE results) are cached per order and
    reused by the embedding searches.  UNKNOWN means the node budget ran
    out before the space was exhausted.
    """
    _require_budgets(node_budget)
    if order in _plane_cache:
        return _plane_cache[order]
    search = _PlaneSearch(order, node_budget)
    search.run(limit=1)
    if search.solutions:
        result = PlaneResult(
            SearchStatus.FOUND, search.to_structure(search.solutions[0]), search.nodes
        )
    elif search.exhausted:
        result = PlaneResult(SearchStatus.NONE, nodes=search.nodes)
    else:
        result = PlaneResult(SearchStatus.UNKNOWN, nodes=search.nodes)
    if result.status is not SearchStatus.UNKNOWN:
        _plane_cache[order] = result
    return result


def enumerate_projective_planes(
    order: int, node_budget: int = 10_000_000, limit: Optional[int] = None
):
    """All labeled solutions of the plane search, for uniqueness tests.

    Returns (planes, exhausted, nodes).  ``exhausted`` is False when the
    node budget (or ``limit``) cut the enumeration short, in which case
    the list is a prefix of the full solution set.
    """
    _require_budgets(node_budget)
    search = _PlaneSearch(order, node_budget)
    search.run(limit)
    planes = [search.to_structure(sol) for sol in search.solutions]
    return planes, search.exhausted, search.nodes


def _assignment_order(s: IncidenceStructure, placed=()) -> List[int]:
    # most-constrained-first after ``placed``: repeatedly take the element
    # with the most already-ordered neighbors, breaking ties toward lower ids
    chosen: List[int] = []
    placed = set(placed)
    remaining = set(s.elements()) - placed
    while remaining:
        best = max(remaining, key=lambda e: (len(s.neighbors(e) & placed), -e))
        chosen.append(best)
        placed.add(best)
        remaining.remove(best)
    return chosen


def _neighbour_candidates(small: IncidenceStructure, big: IncidenceStructure):
    """``_match`` candidates: the images incident with all images of e's
    mapped neighbours, else every point or every line of ``big``; id order."""
    images = [big.points if small.is_point(e) else big.lines for e in small.elements()]

    def candidates(e: int, mapping: Dict[int, int]):
        on = _on_mapped_neighbours(small._adj, big._adj, e, mapping)
        return images[e] if on is None else sorted(on)

    return candidates


def _induced_embedding(
    small: IncidenceStructure,
    big: IncidenceStructure,
    node_budget: int,
) -> Tuple[SearchStatus, Optional[Dict[int, int]], int]:
    """Induced embedding small -> big by the matcher in ``core``.

    Elements are assigned most-constrained first, each trying the unused
    ``_neighbour_candidates`` in id order, each one a node.  When root
    image f fails, each later root image c = g(f) for an automorphism g of
    ``big`` is skipped: an embedding phi with phi(root) = c would give the
    embedding g^-1 . phi with root image f.  Skipped images would fail, so
    the first embedding found is the one the unpruned search finds.  The
    automorphisms are induced self-maps of ``big`` with f -> c (injective,
    so onto), searched only after a failure; their nodes count in the
    total and against the budget.
    """
    order = _assignment_order(small)
    if not order:
        return SearchStatus.FOUND, {}, 0
    root, rest = order[0], order[1:]
    roots = big.points if small.is_point(root) else big.lines
    candidates = _neighbour_candidates(small, big)
    nodes, skip, automorphisms = 0, set(), []
    for i, f in enumerate(roots):
        if f in skip:
            continue
        if nodes >= node_budget:
            return SearchStatus.UNKNOWN, None, nodes
        nodes += 1
        mapping = {root: f}
        outcome, spent = _match(small, big, rest, candidates, mapping, node_budget - nodes)
        nodes += spent
        if outcome is None:
            return SearchStatus.UNKNOWN, None, nodes
        if outcome:
            return SearchStatus.FOUND, mapping, nodes
        later = [c for c in roots[i + 1:] if c not in skip]
        orbit, spent = _orbit(big, f, later, automorphisms, node_budget - nodes)
        nodes += spent
        if orbit is None:
            return SearchStatus.UNKNOWN, None, nodes
        skip |= orbit
    return SearchStatus.NONE, None, nodes


def _orbit(big: IncidenceStructure, f: int, later: List[int],
           automorphisms: List[Dict[int, int]], node_budget: int
           ) -> Tuple[Optional[set], int]:
    """The orbit of f under the automorphisms of ``big``, as far as it meets
    ``later``; returns (orbit, nodes), orbit None when the budget ran out.

    Each c in ``later`` outside the known orbit costs one search for an
    automorphism with f -> c; one found joins ``automorphisms`` (kept
    across calls) and closes the orbit under all of them.
    """
    orbit, nodes = _closed({f}, automorphisms), 0
    order, candidates = _assignment_order(big, (f,)), _neighbour_candidates(big, big)
    for c in later:
        if c in orbit:
            continue
        g = {f: c}
        outcome, spent = _match(big, big, order, candidates, g, node_budget - nodes)
        nodes += spent
        if outcome is None:
            return None, nodes
        if outcome:
            automorphisms.append(g)
            _closed(orbit, automorphisms)
    return orbit, nodes


def _closed(orbit: set, automorphisms: List[Dict[int, int]]) -> set:
    """``orbit`` (in place) closed under ``automorphisms``."""
    todo = list(orbit)
    while todo:
        x = todo.pop()
        for g in automorphisms:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit


def embed_in_finite_plane(
    a: IncidenceStructure, order: int, node_budget: int = 10_000_000
) -> EmbedResult:
    """Induced embedding of a K-free (2, 2) structure ``a`` (checked here,
    then searched by ``_embed``) into a plane of the given order.

    The plane comes from find_projective_plane (cached).  The embedding
    is injective, sort-preserving, and induced: incidence between image
    elements holds exactly when it holds in ``a``.  ``node_budget`` bounds
    the plane search and the embedding together, and ``nodes`` counts both;
    a cached plane costs nothing.
    """
    if a.params != StructParams(2, 2):
        raise ParameterError("plane embedding is a (2, 2) operation")
    _require_free(a, "input")
    return _embed(a, order, node_budget)


def _embed(a: IncidenceStructure, order: int, node_budget: int) -> EmbedResult:
    """``embed_in_finite_plane`` after its checks, which the caller made."""
    cached = order in _plane_cache
    plane_result = find_projective_plane(order, node_budget)
    spent = 0 if cached else plane_result.nodes
    if plane_result.status is not SearchStatus.FOUND:
        return EmbedResult(plane_result.status, nodes=spent)
    plane = plane_result.plane
    if len(a.points) > len(plane.points) or len(a.lines) > len(plane.lines):
        return EmbedResult(SearchStatus.NONE, plane=plane, nodes=spent)
    status, mapping, nodes = _induced_embedding(a, plane, node_budget - spent)
    return EmbedResult(status, mapping=mapping, plane=plane, nodes=spent + nodes)


def embed_search_general(
    a: IncidenceStructure,
    max_elements: int = 200,
    node_budget: int = 10_000_000,
) -> CompletionResult:
    """Bounded search for a finite complete structure inducing ``a``.

    Two routes: run the staged free completion, which settles the matter
    whenever it converges within the size bound (always, when m or n
    is 1); at (2, 2), additionally try embedding into planes of order
    up to 3 whose size fits the bound.  NONE and FOUND are claims about
    the searched bound only, which the detail string spells out.  The
    completion has converged when its stages end within 64 steps.  Each
    order gets the node budget the earlier orders left.
    """
    _require_budgets(max_elements, node_budget)
    _require_free(a, "input")

    try:
        *_, final = islice(_stages(a, max_elements), 66)
        if final.k <= 64:  # a free fixpoint is complete
            return CompletionResult(
                SearchStatus.FOUND,
                structure=final.structure,
                embedding={e: e for e in a.elements()},
                detail=f"free completion converged at {len(final.structure)} elements",
            )
    except BudgetError:
        pass  # completion outgrew the bound; fall through

    if a.params != StructParams(2, 2):
        return CompletionResult(
            SearchStatus.UNKNOWN,
            detail=f"free completion did not converge within {max_elements} elements",
        )

    max_order = 3
    attempted = []
    uncertain = False
    nodes = 0
    for q in range(1, max_order + 1):
        if 2 * (q * q + q + 1) > max_elements:
            break
        result = _embed(a, q, node_budget - nodes)
        nodes += result.nodes
        attempted.append(q)
        if result.status is SearchStatus.FOUND:
            return CompletionResult(
                SearchStatus.FOUND,
                structure=result.plane,
                embedding=result.mapping,
                nodes=nodes,
                detail=f"embedded in the order-{q} plane",
            )
        if result.status is SearchStatus.UNKNOWN:
            uncertain = True
    if not attempted or uncertain:
        return CompletionResult(
            SearchStatus.UNKNOWN,
            nodes=nodes,
            detail="search bounds too tight to decide",
        )
    return CompletionResult(
        SearchStatus.NONE,
        nodes=nodes,
        detail=f"no completion within orders {attempted} or the size bound",
    )
