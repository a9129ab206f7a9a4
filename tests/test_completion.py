"""Staged free completion and the lazy targeted workspace.

The oracle below rebuilds the staged construction from scratch on plain
dicts: at each stage, one fresh line per deficient m-set of points (colex
order), then one fresh point per deficient n-set of lines, every test
against the structure as it stood when the stage began.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kmnfree import (
    BudgetError,
    FreenessViolationError,
    LazyCompletion,
    StructParams,
    StructureBuilder,
    deficient_sets,
    free_completion,
    is_kmn_free,
    relative_free_completion,
    satisfies_complete,
)
from kmnfree import completion
from kmnfree.completion import (
    CompletionStage,
    Provenance,
    _deficient,
    _step,
    complete_step,
    initial_stage,
)
from kmnfree import i_closure, is_i_closed, isomorphic_over, induced

from conftest import (
    build,
    quadrangle_structure,
    random_closed_subset,
    random_free_structure,
)
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

    def counting(s, *room):
        scanned.append(s)
        return deficient(s, *room)

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
    # stage 5 has 46 elements: a cap of 46 holds it, 45 does not
    assert free_completion(quadrangle, 5, element_cap=46).sizes()[-1] == 46
    with pytest.raises(BudgetError) as exc:
        free_completion(quadrangle, 5, element_cap=45)
    assert str(exc.value) == "free completion stage 5 needs more than 45 elements"
    # a seed already past the cap fails only if it would grow
    with pytest.raises(BudgetError):
        free_completion(quadrangle, 1, element_cap=2)
    fixpoint = free_completion(build(2, 2, points=("a", "b", "c")), 1).final
    assert free_completion(fixpoint.structure, 2, element_cap=3).sizes() == [6, 6, 6]
    # with no deficient point set the line sets still count: three parallel
    # lines past a cap of 2 would grow, so they are no fixpoint
    with pytest.raises(BudgetError):
        free_completion(build(2, 2, lines=("u", "v", "w")), 1, element_cap=2)


def reference_deficient(s):
    """The deficient point m-sets and line n-sets by the colex oracle: every
    subset intersected from scratch, as the scan did before it went top
    first."""
    m, n = s.params.m, s.params.n
    return ([frozenset(t) for t in colex(s.points, m) if len(s.forced(t)) <= n - 2],
            [frozenset(t) for t in colex(s.lines, n) if len(s.forced(t)) <= m - 2])


@pytest.mark.parametrize("m, n", itertools.product(range(1, 5), repeat=2))
def test_deficient_matches_the_colex_reference_at_every_room(m, n):
    # with m or n = 1 the bound m-2 or n-2 is negative: no set of that
    # family is deficient, while the 1-sets of the other sort may be
    rng = random.Random(2800 + 10 * m + n)
    for _ in range(12):
        s = random_free_structure(rng, m, n, max_elements=9)
        points, lines = reference_deficient(s)
        full = _deficient(s)
        assert full == completion.DeficientSets(tuple(points), tuple(lines))
        sets = points + lines
        for room in range(-2, len(sets) + 3):
            got = _deficient(s, room)
            keep = max(room, 0) + 1
            assert got.point_sets == tuple(points[:keep])
            assert got.line_sets == tuple(lines[:max(keep - len(points), 0)])


def test_deficient_scan_stops_once_past_room():
    s = build(2, 2, points=("a", "b", "c", "d"), lines=("x", "y", "z"))
    full = _deficient(s)
    sets = full.point_sets + full.line_sets
    cut = len(full.point_sets)
    assert (cut, len(sets)) == (6, 9)
    for room in (-2, -1, 0, 1, cut - 1, cut, cut + 1, len(sets) - 1):
        got = _deficient(s, room)
        assert got.point_sets + got.line_sets == sets[:max(room, 0) + 1]
    for room in (len(sets), len(sets) + 5):
        assert _deficient(s, room) == full


# ---------------------------------------------------------------------------
# the direct stage step against the builder-based step it replaced


def builder_step(stage, prov, defs):
    """Reference copy of the completion step as it was written through
    ``StructureBuilder``, with the provenance records it kept: copy the
    stage and its records, add each fresh element and its incidences
    unguarded, record ``Provenance(fresh, k+1, spawner)``, build.  Returns
    the next stage and its records."""
    b = StructureBuilder.from_structure(stage.structure)
    prov = dict(prov)
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
    return CompletionStage(b.build(), k1, stage.sizes + (len(b),)), prov


def recorded_run(seed, stages):
    """(structure, provenance records) of stages 0..``stages``, stepped by
    ``builder_step``; a fixpoint stage is repeated with its records, as
    the padded stages of a run once shared them."""
    cur, prov = initial_stage(seed), {}
    out = [(seed, prov)]
    while len(out) <= stages:
        defs = _deficient(cur.structure)
        if defs:
            cur, prov = builder_step(cur, prov, defs)
        out.append((cur.structure, prov))
    return out


def check_steps(seed, stages, cap=3000):
    """Step ``seed`` with ``_step`` and with ``builder_step`` and compare
    each stage and its provenance with the records; ``free_completion``
    must give the same stages, padded ones included."""
    try:
        run = free_completion(seed, stages, element_cap=cap)
    except BudgetError:
        run = None
    cur, prov = initial_stage(seed), {}
    for k in range(stages):
        defs = _deficient(cur.structure)
        if not defs or len(cur.structure) + len(defs.point_sets + defs.line_sets) > cap:
            break
        nxt, (want, prov) = _step(cur, defs), builder_step(cur, prov, defs)
        assert nxt.k == want.k == k + 1
        assert nxt.structure == want.structure
        assert nxt.provenance == prov
        old, new = cur.structure, nxt.structure
        touched = frozenset().union(*defs.point_sets, *defs.line_sets)
        for e in old.elements():
            if e not in touched:
                assert new.neighbors(e) is old.neighbors(e)
        if run is not None:
            assert run.stages[k + 1].structure == new
            assert run.stages[k + 1].provenance == nxt.provenance
        cur = nxt
    if run is not None:
        # a run once counted its sizes stage by stage
        assert run.sizes() == [len(st.structure) for st in run.stages]
        for st in run.stages[cur.k:]:
            assert st.structure == cur.structure
            assert st.provenance == prov
            assert list(st.sizes) == run.sizes()[:st.k + 1]


def test_padded_stages_keep_the_fixpoint_records(triangle_points):
    # three points converge after one stage; stages 2..4 repeat it
    run = free_completion(triangle_points, 4)
    assert run.sizes() == [3, 6, 6, 6, 6]
    assert [st.provenance for st in run.stages] == [
        prov for _, prov in recorded_run(triangle_points, 4)]
    check_steps(triangle_points, 4)


NAME_POOL = [pre + str(i) for pre in ("p", "l", "_p", "_l", "__l") for i in range(16)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_direct_step_matches_builder_step(data):
    m, n = data.draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]))
    names = data.draw(st.lists(st.sampled_from(NAME_POOL + ['q"', "\u00e9"]),
                               unique=True, min_size=1, max_size=7))
    is_point = data.draw(st.lists(st.booleans(), min_size=len(names),
                                  max_size=len(names)))
    bld = StructureBuilder(StructParams(m, n))
    ids = [bld.add_point(nm) if p else bld.add_line(nm)
           for nm, p in zip(names, is_point)]
    pts = [e for e, p in zip(ids, is_point) if p]
    lns = [e for e, p in zip(ids, is_point) if not p]
    if pts and lns:
        pairs = st.tuples(st.sampled_from(pts), st.sampled_from(lns))
        for p, l in data.draw(st.lists(pairs, max_size=12)):
            try:
                bld.add_incidence(p, l)
            except FreenessViolationError:
                pass
    check_steps(bld.build(), data.draw(st.integers(0, 3)))


def test_fresh_names_step_past_taken_ones():
    for points, lines, names in [
        # fresh ids 4..9 are lines: l4 and _l4 are taken, so the first is __l4
        (("l4", "_l4", "p5", "l5"), (),
         ["__l4", "_l5", "l6", "l7", "l8", "l9"]),
        # fresh lines 6..8 and points 9..11 step past l7 and p10, spawn
        # names held by the base at ids beyond its size
        (("a", "b", "l7"), ("p10", "u", "v"),
         ["l6", "_l7", "l8", "p9", "_p10", "p11"]),
    ]:
        seed = build(2, 2, points=points, lines=lines)
        stage = free_completion(seed, 1).final.structure
        assert [stage.name(e) for e in range(len(seed), len(stage))] == names
        check_steps(seed, 3)


# ---------------------------------------------------------------------------
# lazy workspace agrees with the staged construction


def test_lazy_closure_stages_match_free_completion(quadrangle):
    work = LazyCompletion(quadrangle, element_cap=1000)
    run = work.closure(frozenset(quadrangle.elements()), stage_budget=4)
    assert [len(st) for st in run.stages] == QUAD_SIZES[:5]
    assert not run.converged


@pytest.mark.parametrize("m,n,points,lines", [(2, 3, ("p0", "p1"), ()),
                                              (3, 2, (), ("l0", "l1"))])
def test_lazy_closure_and_free_completion_stage_differently(m, n, points, lines):
    # two lone points at (2,3) force two lines: the lazy closure spawns both
    # in one step, the free completion one per stage, to the same count
    s = build(m, n, points=points, lines=lines)
    run = LazyCompletion(s, element_cap=1000).closure(s.elements(), stage_budget=2)
    assert [len(st) for st in run.stages] == [2, 4]
    assert run.converged
    assert free_completion(s, 2).sizes() == [2, 3, 4]


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


def test_lazy_closure_of_the_base_is_an_id_prefix():
    # pattern_consistent uses closure ids as ids of the induced ground
    # structure: each recorded stage is the workspace as its step ended,
    # and a step that the cap stops spawns only above the last stage
    rng = random.Random(19_003)
    seen = set()
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        s = random_free_structure(rng, m, n, max_elements=7)
        work = LazyCompletion(s, element_cap=len(s) + rng.randint(0, 40))
        run = work.closure(s.elements(), rng.randint(0, 4))
        for stage in run.stages:
            assert stage == frozenset(range(len(stage)))
        assert len(work) >= len(run.closure_set)
        seen.add("converged" if run.converged else "capped" if run.capped else "budget")
        if run.capped and len(work) > len(run.closure_set):
            seen.add("spawned above the closure")
    assert seen == {"converged", "capped", "budget", "spawned above the closure"}


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


def test_snapshot_sees_adds_made_after_an_earlier_snapshot(quadrangle):
    work = LazyCompletion(quadrangle)
    assert len(work.snapshot()) == 4
    z = work.add_point("z")
    assert len(work) == len(work.snapshot()) == 5
    assert work.snapshot().name(z) == "z"


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


def ref_relative(b_struct, a_set, stages):
    """Reference copy of the record filtering ``relative_free_completion``
    once did: (y_stages, c, correspondence) from the provenance records of
    the two runs."""
    x_run = recorded_run(b_struct, stages)
    by_spawner = {(p.stage, p.spawner): e for e, p in x_run[-1][1].items()}
    y_stages = [a_set]
    for k in range(stages):
        yk = y_stages[-1]
        fresh = {e for e, p in x_run[k + 1][1].items()
                 if p.stage == k + 1 and p.spawner <= yk}
        y_stages.append(frozenset(yk | fresh))
    a_struct, remap_a = induced(b_struct, a_set)
    corr = {v: k for k, v in remap_a.items()}
    fa_run = recorded_run(a_struct, stages)
    for k in range(stages):
        for e, p in sorted(fa_run[k + 1][1].items()):
            if p.stage == k + 1:
                mapped = frozenset(corr[x] for x in p.spawner)
                corr[e] = by_spawner[k + 1, mapped]
    return tuple(y_stages), y_stages[-1], corr


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_relative_completion_matches_the_record_filtering(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
    b = random_free_structure(rng, m, n, max_elements=7)
    a = random_closed_subset(rng, b)
    stages = rng.randint(0, 3)
    try:
        rc = relative_free_completion(b, a, stages, element_cap=400)
    except BudgetError:
        return
    assert (rc.y_stages, rc.c, rc.correspondence) == ref_relative(b, a, stages)


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
