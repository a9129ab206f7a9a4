"""Algebraic closure: one forcing engine for every ambient.

An m-set of points forces its n-1 common lines, and an n-set of lines its
m-1 common points (Hall's free extension).  Each ambient states that rule
once, as ``forced(sub)``: an ``IncidenceStructure`` returns the common
neighbours it has, and ``completion.LazyCompletion`` also spawns the ones
its workspace lacks.  This module keeps the one stage step (a set plus all
it forces) and the one stage iterator, which the finite closures here and
``LazyCompletion.closure`` run.  In a complete ambient the fixpoint is the
algebraic closure of the seed; in a finite partial one, the closure
relative to it.  To tell a fixpoint from a truncated run, a finite run with
stage budget B computes one step past stage B, while a lazy run converges
only if it stops within B steps: a further lazy step would spawn, and so
change the ids of later spawns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

from .core import (
    IncidenceStructure, ParameterError, Sort, _require_budgets, colex_combinations,
)


class Ternary(Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ClosureRun:
    """The recorded stages of a closure run, stages[0] being the seed.

    ``converged`` means a genuine fixpoint: the final stage is closed under
    forcing.  ``capped`` means a lazy workspace's element cap stopped the
    run; the recorded stages are still exact.
    """

    stages: tuple  # frozensets of element ids
    converged: bool
    capped: bool = False

    @property
    def closure_set(self) -> frozenset:
        return self.stages[-1]

    def sizes(self) -> list:
        return [len(s) for s in self.stages]


def _checked(ambient, elems: Iterable[int], budget: Optional[int] = None) -> frozenset:
    """``elems`` as a frozenset, after checking that they are ids of the
    ambient and that the stage ``budget`` (None for none) is not negative."""
    _require_budgets(budget)
    out = frozenset(elems)
    ids = range(len(ambient))
    for e in out:
        if e not in ids:
            raise ParameterError(f"element {e} is not in the structure")
    return out


def _step(ambient, cur: frozenset) -> frozenset:
    """``cur`` plus everything forced by its m-sets of points and n-sets of
    lines, scanned points first, each family in colex order (the order in
    which a lazy ambient spawns)."""
    pts, lns = [], []
    for e in sorted(cur):
        (pts if ambient.sort(e) is Sort.POINT else lns).append(e)
    nxt = set(cur)
    forced = ambient.forced
    m, n = ambient.params.m, ambient.params.n
    for sub in chain(colex_combinations(pts, m), colex_combinations(lns, n)):
        nxt |= forced(sub)
    return frozenset(nxt)


def _stages_after(ambient, cur: frozenset) -> Iterator[frozenset]:
    """The closure stages after ``cur``, lazily, ending at the fixpoint."""
    while True:
        nxt = _step(ambient, cur)
        if nxt == cur:
            return
        cur = nxt
        yield cur


def _violator(ambient, d: frozenset):
    """(True, None) if ``d`` is closed, else (False, the least element that
    one step adds to ``d``)."""
    missing = _step(ambient, d) - d
    if missing:
        return False, min(missing)
    return True, None


def closure_stages(
    s: IncidenceStructure, seed: Iterable[int], budget: int = 8
) -> ClosureRun:
    """Stages of the closure of ``seed`` inside ``s``.

    The sequence is monotone and bounded by the ambient element count, so
    with a generous budget it always converges; a small budget may truncate
    the record (converged=False) without affecting recorded stages.
    """
    cur = _checked(s, seed, budget)
    later = _stages_after(s, cur)
    stages = (cur, *islice(later, budget))
    return ClosureRun(stages, next(later, None) is None)


def i_closure(s: IncidenceStructure, seed: Iterable[int]) -> frozenset:
    """The closure of ``seed`` in ``s``, run to its fixpoint."""
    cur = _checked(s, seed)
    for cur in _stages_after(s, cur):
        pass
    return cur


def is_i_closed(s: IncidenceStructure, subset: Iterable[int]):
    """Is ``subset`` closed in ``s``?  Returns (bool, violator).

    The violator is the least-id ambient element forced by some m-set of
    points (or n-set of lines) of the subset but missing from it.
    """
    return _violator(s, _checked(s, subset))


def generates(
    s: IncidenceStructure,
    seed: Iterable[int],
    target: Iterable[int],
    budget: Optional[int] = None,
):
    """Does the closure of ``seed`` in ``s`` contain ``target``?

    Returns (Ternary, detail).  YES as soon as every target element has been
    collected (sound at any stage); NO once the closure converges without
    them (detail = the missing elements); UNKNOWN only when a finite budget
    truncates the run first.
    """
    tgt = _checked(s, target)
    cur = _checked(s, seed, budget)
    later = _stages_after(s, cur)
    for cur in chain((cur,), islice(later, budget)):
        if tgt <= cur:
            return Ternary.YES, frozenset()
    if next(later, None) is None:
        return Ternary.NO, tgt - cur
    return Ternary.UNKNOWN, tgt - cur
