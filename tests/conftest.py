"""Shared fixtures and small builders used across the suite."""

import random

import pytest

from kmnfree import (
    LazyCompletion,
    StructParams,
    StructureBuilder,
    free_completion,
    i_closure,
)
from kmnfree.completion import Provenance


def build(m, n, points=(), lines=(), incidences=(), guard=True):
    """Construct a structure from name lists; incidences are name pairs."""
    bld = StructureBuilder(StructParams(m, n))
    for nm in points:
        bld.add_point(nm)
    for nm in lines:
        bld.add_line(nm)
    for pn, ln in incidences:
        bld.add_incidence(bld.by_name(pn), bld.by_name(ln), guard=guard)
    return bld.build()


def otimes_over_i_structure():
    """A (3,2) structure where A = {p0, p1}, B = {l3}, C = {l0} is
    I-independent but not OTIMES-independent: l4 joins the first closure
    stage of cl(AC) | cl(BC) through four points."""
    incs = {"p0": ["l4"], "p1": ["l4"], "p2": ["l0", "l2", "l3", "l4"],
            "p3": ["l0", "l1", "l2", "l3", "l4"]}
    return build(3, 2, points=("p0", "p1", "p2", "p3"),
                 lines=("l0", "l1", "l2", "l3", "l4"),
                 incidences=[(p, l) for p, ls in incs.items() for l in ls])


def quadrangle_structure():
    return build(2, 2, points=("p1", "p2", "p3", "p4"))


@pytest.fixture
def quadrangle():
    return quadrangle_structure()


@pytest.fixture
def triangle_points():
    # three points, no lines: free completion converges (one stage of
    # connecting lines, then nothing is deficient)
    return build(2, 2, points=("p1", "p2", "p3"))


@pytest.fixture(scope="session")
def quad_run():
    """Stages 0..5 of the quadrangle completion (46 elements at stage 5)."""
    return free_completion(quadrangle_structure(), stages=5)


def random_free_structure(rng: random.Random, m=2, n=2, max_elements=10,
                          incidence_tries=None):
    """A random K_{m,n}-free structure built by guarded incidence adds.

    Rejected adds (ones that would complete a forbidden grid) are simply
    skipped, so the result is free by construction.
    """
    from kmnfree import FreenessViolationError

    bld = StructureBuilder(StructParams(m, n))
    total = rng.randint(1, max_elements)
    n_points = rng.randint(0, total)
    pts = [bld.add_point(f"p{i}") for i in range(n_points)]
    lns = [bld.add_line(f"l{i}") for i in range(total - n_points)]
    if incidence_tries is None:
        incidence_tries = rng.randint(0, 2 * total)
    for _ in range(incidence_tries):
        if not pts or not lns:
            break
        p, l = rng.choice(pts), rng.choice(lns)
        try:
            bld.add_incidence(p, l)
        except FreenessViolationError:
            pass
    return bld.build()


def reference_completion_provenance(s, prov):
    """Reference copy of the provenance dict the CLI built for a completion
    document before it wrote the records directly: element name -> stage
    and spawner names."""
    return {
        s.name(e): {
            "stage": rec.stage,
            "spawner": [s.name(x) for x in sorted(rec.spawner)],
        }
        for e, rec in sorted(prov.items())
        if rec.stage > 0
    }


def spawn_records(work):
    """The spawns of a workspace as the spawner rule reads them from
    ``work.snapshot()``: spawned id -> Provenance(e, -1, its neighbours
    below e), in spawn order."""
    s = work.snapshot()
    return {e: Provenance(e, -1, frozenset(x for x in s.neighbors(e) if x < e))
            for e in range(len(work.base), len(s))}


class RecordingCompletion(LazyCompletion):
    """Reference copy of the workspace's former provenance records: each
    spawn stored ``Provenance(fresh, -1, frozenset(spawner))`` in a dict,
    kept here as ``recorded`` to check ``spawn_records`` against."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.recorded = {}

    def _spawn(self, sort, spawner):
        fresh = super()._spawn(sort, spawner)
        self.recorded[fresh] = Provenance(fresh, -1, frozenset(spawner))
        return fresh


def random_closed_subset(rng: random.Random, s):
    """The closure of a random subset of s, inside s."""
    elems = sorted(s.elements())
    k = rng.randint(0, len(elems))
    return i_closure(s, rng.sample(elems, k))
