"""Staged free completion and the lazy targeted workspace.

The oracle below rebuilds the staged construction from scratch on plain
dicts: at each stage, one fresh line per deficient m-set of points (colex
order), then one fresh point per deficient n-set of lines, every test
against the structure as it stood when the stage began.
"""

import itertools
import random

import pytest

from kmnfree import (
    BudgetError,
    LazyCompletion,
    deficient_sets,
    free_completion,
    is_kmn_free,
    relative_free_completion,
    satisfies_complete,
)
from kmnfree import completion
from kmnfree.completion import complete_step, initial_stage
from kmnfree import i_closure, is_i_closed, isomorphic_over, induced

from conftest import build, quadrangle_structure, random_free_structure
from test_core import oracle_has_grid


# ---------------------------------------------------------------------------
# oracle


def colex(pool, k):
    return sorted(itertools.combinations(sorted(pool), k),
                  key=lambda t: t[::-1])


def naive_completion(s, stages):
    """Returns (sizes, sorts, adj, spawner) after the staged construction."""
    m, n = s.params.m, s.params.n
    sorts = {e: ("p" if s.is_point(e) else "l") for e in s.elements()}
    adj = {e: set(s.neighbors(e)) for e in s.elements()}
    spawner = {}
    nxt = len(sorts)
    sizes = [len(sorts)]
    for _ in range(stages):
        pts = [e for e in sorted(adj) if sorts[e] == "p"]
        lns = [e for e in sorted(adj) if sorts[e] == "l"]
        fresh = []
        for sigma in colex(pts, m):
            common = set.intersection(*(adj[p] for p in sigma))
            if len(common) <= n - 2:
                fresh.append(("l", sigma))
        for tau in colex(lns, n):
            common = set.intersection(*(adj[l] for l in tau))
            if len(common) <= m - 2:
                fresh.append(("p", tau))
        for kind, spawn in fresh:
            e = nxt
            nxt += 1
            sorts[e] = kind
            adj[e] = set(spawn)
            for x in spawn:
                adj[x].add(e)
            spawner[e] = frozenset(spawn)
        sizes.append(len(sorts))
    return sizes, sorts, adj, spawner


QUAD_SIZES = [4, 10, 13, 16, 22, 46, 328]  # stages 0..6, frozen


# ---------------------------------------------------------------------------
# frozen quadrangle record


def test_oracle_reproduces_frozen_quadrangle_sizes():
    sizes, _, _, _ = naive_completion(quadrangle_structure(), 6)
    assert sizes == QUAD_SIZES


def test_library_matches_frozen_quadrangle_sizes():
    run = free_completion(quadrangle_structure(), stages=5)
    assert run.sizes() == QUAD_SIZES[:6]


def test_library_matches_oracle_exactly_on_quadrangle(quad_run):
    sizes, sorts, adj, spawner = naive_completion(quadrangle_structure(), 5)
    final = quad_run.final.structure
    assert quad_run.sizes() == sizes
    for e in final.elements():
        assert final.neighbors(e) == frozenset(adj[e])
        assert (final.is_point(e)) == (sorts[e] == "p")
    for e, rec in quad_run.final.provenance.items():
        if rec.stage > 0:
            assert rec.spawner == spawner[e]


def test_fresh_element_neighbors_equal_spawner(quad_run):
    # within each stage structure, a fresh element of that stage is incident
    # to exactly its spawning set
    for st in quad_run.stages[1:]:
        s = st.structure
        for e, rec in st.provenance.items():
            if rec.stage == st.k:
                assert s.neighbors(e) == rec.spawner


def test_every_stage_is_free(quad_run):
    for st in quad_run.stages:
        assert is_kmn_free(st.structure)[0]


# ---------------------------------------------------------------------------
# library vs oracle on random inputs (several parameter pairs)


def test_library_matches_oracle_on_random_structures():
    rng = random.Random(31001)
    for _ in range(40):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        s = random_free_structure(rng, m, n, max_elements=6)
        depth = rng.randint(0, 3)
        try:
            run = free_completion(s, stages=depth, element_cap=5000)
        except BudgetError:
            continue
        sizes, sorts, adj, _ = naive_completion(s, depth)
        assert run.sizes() == sizes
        final = run.final.structure
        for e in final.elements():
            assert final.neighbors(e) == frozenset(adj[e])
            assert final.is_point(e) == (sorts[e] == "p")
        # steps add fresh incidences unguarded: freeness is checked here
        for st in run.stages:
            assert is_kmn_free(st.structure) == (True, None)
            assert not oracle_has_grid(st.structure)


def test_free_completion_scans_each_stage_once(monkeypatch, triangle_points):
    scanned = []
    deficient = completion._deficient

    def counting(s):
        scanned.append(s)
        return deficient(s)

    monkeypatch.setattr(completion, "_deficient", counting)
    run = free_completion(quadrangle_structure(), stages=5)
    assert scanned == [st.structure for st in run.stages[:-1]]
    # the triangle grows once, then its fixpoint is found by one more scan
    scanned.clear()
    run = free_completion(triangle_points, stages=4)
    assert run.sizes() == [3, 6, 6, 6, 6]
    assert scanned == [st.structure for st in run.stages[:2]]


# ---------------------------------------------------------------------------
# termination, deficiency reporting, budgets


def test_converged_completion_pads_with_fixpoint(triangle_points):
    run = free_completion(triangle_points, stages=4)
    # stage 1 adds the three connecting lines; nothing after that
    assert run.sizes() == [3, 6, 6, 6, 6]
    assert not deficient_sets(run.final.structure)
    assert satisfies_complete(run.final.structure).passed


def test_deficient_sets_on_complete_structure():
    tri = build(
        2, 2,
        points=("x1", "x2", "x3"),
        lines=("e12", "e13", "e23"),
        incidences=[("x1", "e12"), ("x2", "e12"), ("x1", "e13"),
                    ("x3", "e13"), ("x2", "e23"), ("x3", "e23")],
    )
    assert not deficient_sets(tri)
    stepped = complete_step(initial_stage(tri))
    assert len(stepped.structure) == len(tri)


def test_deficient_sets_colex_order(quadrangle):
    d = deficient_sets(quadrangle)
    assert d.point_sets == tuple(
        frozenset(t) for t in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    )
    assert d.line_sets == ()


def test_budget_error_before_overflow(quadrangle):
    with pytest.raises(BudgetError):
        free_completion(quadrangle, stages=6, element_cap=100)


# ---------------------------------------------------------------------------
# lazy workspace agrees with the staged construction


def test_lazy_closure_stages_match_free_completion(quadrangle):
    work = LazyCompletion(quadrangle, element_cap=1000)
    run = work.closure(frozenset(quadrangle.elements()), stage_budget=4)
    assert [len(st) for st in run.stages] == QUAD_SIZES[:5]
    assert not run.converged


def test_lazy_spawns_forced_elements(quadrangle):
    work = LazyCompletion(quadrangle, element_cap=1000)
    (l1,) = work.lines_through((0, 1))
    (l1_again,) = work.lines_through((0, 1))
    assert l1 == l1_again  # stable ids
    assert work.neighbors(l1) >= {0, 1}
    (l2,) = work.lines_through((0, 2))
    (p,) = work.points_on((l1, l2))
    assert p != 0 and p != 1 and p != 2 or p == 0
    # intersection of the two connecting lines through 0 is 0 itself
    assert p == 0


def test_lazy_monster_closed(quadrangle):
    work = LazyCompletion(quadrangle, element_cap=1000)
    closed, _ = work.is_monster_closed(frozenset())
    assert closed
    closed, missing = work.is_monster_closed(frozenset({0, 1}))
    assert not closed and missing is not None
    r = work.closure(frozenset({0, 1}), stage_budget=4)
    assert r.converged
    closed, _ = work.is_monster_closed(r.closure_set)
    assert closed


def test_lazy_snapshot_matches_completion_incidences(quadrangle):
    # materialize stage-2 content lazily, then compare against the staged run
    run = free_completion(quadrangle, stages=2)
    target = run.final.structure
    work = LazyCompletion(quadrangle, element_cap=1000)
    r = work.closure(frozenset(quadrangle.elements()), stage_budget=2)
    snap = work.snapshot()
    sub, remap = induced(snap, r.closure_set)
    assert isomorphic_over(
        sub, target, {remap[e]: e for e in quadrangle.elements()}
    )


# ---------------------------------------------------------------------------
# relative completion


def test_relative_completion_triangle_inside_quadrangle(quadrangle):
    rc = relative_free_completion(quadrangle, [0, 1, 2], stage_budget=3)
    assert [len(y) for y in rc.y_stages] == [3, 6, 6, 6]
    assert rc.free_a.sizes() == [3, 6, 6, 6]
    b_ids = set(quadrangle.elements())
    assert rc.c & frozenset(b_ids) == frozenset({0, 1, 2})
    # correspondence is a bijection from the standalone run onto C
    assert sorted(rc.correspondence.values()) == sorted(rc.c)
    xk = rc.x_run.final.structure
    for a_id, c_id in rc.correspondence.items():
        img = {rc.correspondence[x]
               for x in rc.free_a.final.structure.neighbors(a_id)}
        assert xk.neighbors(c_id) & rc.c == img


def test_relative_completion_requires_closed_subset(quadrangle):
    run = free_completion(quadrangle, stages=2)
    s = run.final.structure
    # two points plus their connecting line form a closed set; two points
    # with a common line but without it do not
    line = next(iter(s.neighbors(0) & s.neighbors(1)))
    assert is_i_closed(s, {0, 1, line})[0]
    from kmnfree import PreconditionError
    with pytest.raises(PreconditionError):
        relative_free_completion(s, [0, 1], stage_budget=2)


def _relative_runs():
    q = quadrangle_structure()
    yield relative_free_completion(q, [0, 1, 2], stage_budget=3)
    s = free_completion(q, stages=1).final.structure
    line = next(iter(s.neighbors(0) & s.neighbors(1)))
    yield relative_free_completion(s, [0, 1, line], stage_budget=2)
    rng = random.Random(50505)
    while True:
        m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        b = random_free_structure(rng, m, n, max_elements=7)
        a = i_closure(b, rng.sample(sorted(b.elements()), rng.randint(1, len(b))))
        try:
            yield relative_free_completion(b, a, stage_budget=2, element_cap=400)
        except BudgetError:
            continue


def test_correspondence_check_agrees_with_isomorphic_over():
    # the linear check of the spawner correspondence against the search it
    # replaced: on real runs, and after swapping the images of two elements
    runs = itertools.islice(_relative_runs(), 12)
    for rc in runs:
        fa = rc.free_a.final.structure
        final = rc.x_run.final.structure
        corr = rc.correspondence
        c_struct, remap = induced(final, rc.c)

        def both(cmap):
            fast = completion._is_isomorphism(fa, final, rc.c, cmap)
            base = {e: remap[img] for e, img in cmap.items()}
            return fast, bool(isomorphic_over(fa, c_struct, base))

        assert both(corr) == (True, True)
        for sort_elems in (fa.points, fa.lines):
            for x, y in itertools.combinations(sort_elems[:8], 2):
                swapped = dict(corr)
                swapped[x], swapped[y] = corr[y], corr[x]
                fast, slow = both(swapped)
                assert fast == slow
                if fa.neighbors(x) != fa.neighbors(y):
                    assert not fast
