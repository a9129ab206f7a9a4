"""Core structure type, freeness/completeness checks, isomorphism search.

The oracles here are deliberately naive re-implementations: freeness by
every m-subset of points with its common lines as a bitmask, completeness
by double loops over all m-subsets of points and n-subsets of lines,
nothing shared with the library's scanning order or early exits.
"""

import ast
import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kmnfree
from kmnfree import (
    FreenessWitness,
    FreenessViolationError,
    ParameterError,
    Sort,
    SortError,
    StructParams,
    StructureBuilder,
    common_neighbors,
    induced,
    is_kmn_free,
    isomorphic_over,
    satisfies_complete,
)
from kmnfree import completion, core
from kmnfree.gamma import gamma
from kmnfree.core import colex_combinations, embedding_fault

from conftest import build, quadrangle_structure, random_free_structure


# ---------------------------------------------------------------------------
# oracles


def oracle_has_grid(s):
    """True iff some m points are all incident to n common lines.

    Bit l of a point's mask says it is on line l; the masks of an m-set
    and-ed together hold its common lines.
    """
    m, n = s.params.m, s.params.n
    mask = {p: sum(1 << l for l in s.lines if s.incident(p, l))
            for p in s.points}
    for sigma in itertools.combinations(s.points, m):
        common = functools.reduce(operator.and_, (mask[p] for p in sigma))
        if bin(common).count("1") >= n:
            return True
    return False


def oracle_complete(s):
    """Every m-set of points on exactly n-1 common lines, and dually."""
    m, n = s.params.m, s.params.n
    for sigma in itertools.combinations(s.points, m):
        common = [l for l in s.lines if all(s.incident(p, l) for p in sigma)]
        if len(common) != n - 1:
            return False
    for tau in itertools.combinations(s.lines, n):
        common = [p for p in s.points if all(s.incident(p, l) for l in tau)]
        if len(common) != m - 1:
            return False
    return True


def random_any_structure(rng, m=2, n=2, max_elements=8):
    """Random structure, incidences added unguarded: may contain grids."""
    bld = StructureBuilder(StructParams(m, n))
    total = rng.randint(1, max_elements)
    n_points = rng.randint(0, total)
    pts = [bld.add_point() for _ in range(n_points)]
    lns = [bld.add_line() for _ in range(total - n_points)]
    for _ in range(rng.randint(0, 3 * total)):
        if pts and lns:
            bld.add_incidence(rng.choice(pts), rng.choice(lns), guard=False)
    return bld.build()


# ---------------------------------------------------------------------------
# freeness and completeness against the oracles


def test_freeness_matches_oracle_on_random_structures():
    rng = random.Random(20110)
    for _ in range(120):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        s = random_any_structure(rng, m, n)
        free, wit = is_kmn_free(s)
        assert free == (not oracle_has_grid(s))
        if not free:
            assert len(wit.points) == m and len(wit.lines) == n
            assert all(
                s.incident(p, l) for p in wit.points for l in wit.lines
            )


def reference_is_kmn_free(s):
    """The per-line colex scan that the partner search replaced: every
    m-subset of each line's points, in colex order, lines in id order."""
    m, n = s.params.m, s.params.n
    for l in s.lines:
        for sigma in colex_combinations(sorted(s.neighbors(l)), m):
            common = functools.reduce(
                operator.and_, (s.neighbors(p) for p in sigma))
            if len(common) >= n:
                return False, FreenessWitness(
                    points=frozenset(sigma),
                    lines=frozenset(sorted(common)[:n]),
                )
    return True, None


@st.composite
def unguarded_structures(draw, m=None, n=None):
    """Small structures with point and line ids interleaved and incidences
    added unguarded, from empty to dense: short lines, low-degree points
    and grids all occur.  m and n are drawn from 1..4 unless given."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 4)) if n is None else n
    sorts = draw(st.lists(st.booleans(), min_size=1, max_size=14))
    bld = StructureBuilder(StructParams(m, n))
    ids = [bld.add_point() if is_point else bld.add_line() for is_point in sorts]
    pts = [e for e, is_point in zip(ids, sorts) if is_point]
    lns = [e for e, is_point in zip(ids, sorts) if not is_point]
    if pts and lns:
        pairs = [(p, l) for p in pts for l in lns]
        for p, l in draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))):
            bld.add_incidence(p, l, guard=False)
    return bld.build()


@given(unguarded_structures())
@settings(max_examples=600, deadline=None)
def test_freeness_matches_reference_scan(s):
    assert is_kmn_free(s) == reference_is_kmn_free(s)


@pytest.mark.parametrize("m, n", itertools.product(range(1, 5), repeat=2))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_decision_pass_matches_the_reference_on_either_side(m, n, data):
    # unguarded, so grids occur; elements of degree below ``need`` are
    # skipped as tops but may still be partners' neighbours
    s = data.draw(unguarded_structures(m, n))
    adj, free = s._adj, reference_is_kmn_free(s)[0]
    on_points = core._has_grid(adj, s.points, m, n)
    on_lines = core._has_grid(adj, s.lines, n, m)
    assert on_points == on_lines == (not free)
    assert is_kmn_free(s) == reference_is_kmn_free(s)


@pytest.mark.parametrize("m, n", itertools.product(range(1, 5), repeat=2))
def test_decision_pass_skips_tops_below_need(m, n):
    # a point on n-1 lines and a line through m-1 points, no grid: every
    # element has fewer neighbours than its side's ``need``; the full
    # K_{m,n} on the same elements is found with either sort on top
    s = build(m, n, points=[f"p{i}" for i in range(m)],
              lines=[f"l{i}" for i in range(n)],
              incidences=[("p0", f"l{i}") for i in range(n - 1)]
              + [(f"p{i}", "l0") for i in range(1, m - 1)], guard=False)
    adj = s._adj
    assert not core._has_grid(adj, s.points, m, n)
    assert not core._has_grid(adj, s.lines, n, m)
    assert is_kmn_free(s) == reference_is_kmn_free(s) == (True, None)
    full = build(m, n, points=[f"p{i}" for i in range(m)],
                 lines=[f"l{i}" for i in range(n)],
                 incidences=list(itertools.product(
                     [f"p{i}" for i in range(m)], [f"l{i}" for i in range(n)])),
                 guard=False)
    assert core._has_grid(full._adj, full.points, m, n)
    assert core._has_grid(full._adj, full.lines, n, m)
    assert is_kmn_free(full) == reference_is_kmn_free(full)


def point_side_structure(seed):
    """Few long lines and many points of low degree, ids interleaved and
    incidences added unguarded: the lines are on top on most seeds, and
    grids occur."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    sorts = [rng.random() < 0.75 for _ in range(rng.randint(1, 20))]
    bld = StructureBuilder(StructParams(m, n))
    ids = [bld.add_point() if is_point else bld.add_line() for is_point in sorts]
    lns = [e for e, is_point in zip(ids, sorts) if not is_point]
    for p in (e for e, is_point in zip(ids, sorts) if is_point):
        for l in rng.sample(lns, rng.randint(0, min(len(lns), n + 1))):
            bld.add_incidence(p, l, guard=False)
    return bld.build()


def pass_costs(s):
    """The decision pass's partner counts on each side: sum_p (deg p)^2
    with the lines on top, sum_l (deg l)^2 with the points on top."""
    adj = s._adj
    return (sum(len(adj[p]) ** 2 for p in s.points),
            sum(len(adj[l]) ** 2 for l in s.lines))


def side_subsets(s):
    """The subsets each side covers: n-sets of lines through each point
    (the lines on top), m-sets of points on each line (the points on
    top)."""
    m, n, adj = s.params.m, s.params.n, s._adj
    return (sum(math.comb(len(adj[p]), n) for p in s.points),
            sum(math.comb(len(adj[l]), m) for l in s.lines))


def lines_on_top(s):
    with_lines, with_points = pass_costs(s)
    return with_lines < with_points


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_freeness_matches_reference_scan_on_point_side_inputs(seed):
    s = point_side_structure(seed)
    assert is_kmn_free(s) == reference_is_kmn_free(s)


def test_point_side_inputs_reach_both_verdicts_on_the_point_side():
    shown = [s for s in map(point_side_structure, range(300)) if lines_on_top(s)]
    assert len(shown) >= 100
    assert {is_kmn_free(s)[0] for s in shown} == {True, False}


@given(unguarded_structures())
@settings(max_examples=300, deadline=None)
def test_scan_on_either_side_gives_one_verdict(s):
    m, n, adj = s.params.m, s.params.n, s._adj
    on_lines = core._scan(adj, s.lines, m, n)
    on_points = core._scan(adj, s.points, n, m)
    assert (on_lines is None) == (on_points is None) == reference_is_kmn_free(s)[0]
    for grid, k, need in ((on_lines, m, n), (on_points, n, m)):
        if grid is not None:  # k elements with at least ``need`` common ones
            tops, common = grid
            assert len(tops) == k and list(tops) == sorted(tops)
            assert len(common) >= need
            assert all(c in adj[e] for e in tops for c in common)


def scanned_sides(monkeypatch, s):
    """is_kmn_free(s) with the sort on top in each decision pass
    ``_has_grid``, the outer sort of each ``_scan``, and the number of
    ``_grid`` calls in all."""
    tops, scans, grids = [], [], [0]
    has_grid, scan, grid = core._has_grid, core._scan, core._grid

    def counting_has_grid(adj, elems, k, need):
        tops.append("points" if elems is s.points else "lines")
        return has_grid(adj, elems, k, need)

    def counting_scan(adj, outer, k, need):
        scans.append("points" if outer is s.points else "lines")
        return scan(adj, outer, k, need)

    def counting_grid(*args):
        grids[0] += 1
        return grid(*args)

    with monkeypatch.context() as patch:
        patch.setattr(core, "_has_grid", counting_has_grid)
        patch.setattr(core, "_scan", counting_scan)
        patch.setattr(core, "_grid", counting_grid)
        verdict = is_kmn_free(s)
    return verdict, tops, scans, grids[0]


def points_only(m, n, k):
    return build(m, n, points=[f"p{i}" for i in range(1, k + 1)])


@pytest.mark.parametrize("make, top", [
    pytest.param(lambda: gamma("01" * 1000).structure, "lines",
                 id="gamma 2000 bits"),
    pytest.param(lambda: completion.free_completion(
        points_only(3, 4, 5), 2).final.structure, "lines", id="(3,4) stage 2"),
    pytest.param(lambda: completion.free_completion(
        points_only(2, 2, 4), 7).final.structure, "points", id="(2,2) stage 7"),
])
def test_free_inputs_are_scanned_once_on_the_side_with_fewer_subsets(
        monkeypatch, make, top):
    # one decision pass, on the side with the smaller partner count (here
    # also the side with fewer subsets), and no ``_scan``: a free input has
    # no witness to find
    s = make()
    verdict, tops, scans, grids = scanned_sides(monkeypatch, s)
    assert verdict == (True, None)
    assert tops == [top] and scans == []
    assert lines_on_top(s) == (top == "lines")
    with_lines, with_points = side_subsets(s)
    assert (with_lines < with_points) == (top == "lines")
    assert grids <= min(with_lines, with_points)


def test_a_grid_found_on_the_point_side_is_reported_by_the_line_scan(monkeypatch):
    # two long lines sharing points 0 and 5: a K_{2,2} that the decision
    # pass finds with the lines on top; the line scan, run once on that
    # hit, reports the colex-first pair on the first line
    s = build(2, 2, points=[f"p{i}" for i in range(8)], lines=("u", "v"),
              incidences=[(f"p{i}", "u") for i in range(8)]
              + [("p0", "v"), ("p5", "v")], guard=False)
    assert lines_on_top(s)
    verdict, tops, scans, _ = scanned_sides(monkeypatch, s)
    assert tops == ["lines"] and scans == ["lines"]
    assert verdict == reference_is_kmn_free(s)
    assert verdict[1].points == {s.by_name("p0"), s.by_name("p5")}


def test_freeness_witness_comes_from_the_lowest_line():
    # Line u, the lowest, carries the grid {a, b} x {u, w} and also c;
    # line v carries {c, d} x {v, x}, whose points come first in id order.
    s = build(2, 2, points=("c", "d", "a", "b"), lines=("u", "v", "w", "x"),
              incidences=[(p, l) for p, l in itertools.product("ab", "uw")]
              + [(p, l) for p, l in itertools.product("cd", "vx")]
              + [("c", "u"), ("d", "w")],
              guard=False)
    assert is_kmn_free(s) == reference_is_kmn_free(s)
    free, wit = is_kmn_free(s)
    assert not free
    assert wit.points == frozenset(s.by_name(x) for x in "ab")
    assert wit.lines == frozenset(s.by_name(x) for x in "uw")


def test_completeness_matches_oracle_on_random_structures():
    rng = random.Random(20111)
    for _ in range(120):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        s = random_any_structure(rng, m, n, max_elements=7)
        assert satisfies_complete(s).passed == oracle_complete(s)


def test_grid_detected():
    s = build(2, 2, points=("p", "q"), lines=("u", "v"),
              incidences=[(p, l) for p in "pq" for l in "uv"], guard=False)
    free, wit = is_kmn_free(s)
    assert not free
    assert wit.points == frozenset(s.by_name(x) for x in "pq")
    assert wit.lines == frozenset(s.by_name(x) for x in "uv")


def test_triangle_is_complete_and_free():
    tri = build(
        2, 2,
        points=("x1", "x2", "x3"),
        lines=("e12", "e13", "e23"),
        incidences=[("x1", "e12"), ("x2", "e12"), ("x1", "e13"),
                    ("x3", "e13"), ("x2", "e23"), ("x3", "e23")],
    )
    assert is_kmn_free(tri)[0]
    assert satisfies_complete(tri).passed
    assert oracle_complete(tri)


def test_completeness_failure_witness(quadrangle):
    rep = satisfies_complete(quadrangle)
    assert not rep.passed and not bool(rep)
    assert rep.witness_kind == "points"
    assert rep.witness == frozenset({0, 1})  # colex-first pair
    assert rep.count == 0


# ---------------------------------------------------------------------------
# enumeration order


def test_colex_pair_order():
    got = list(colex_combinations([0, 1, 2, 3], 2))
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_colex_matches_sorted_by_reversed_tuple():
    items = [2, 3, 5, 8, 13]
    for k in (1, 2, 3):
        got = list(colex_combinations(items, k))
        want = sorted(
            itertools.combinations(items, k), key=lambda t: t[::-1]
        )
        assert got == want


def recursive_colex(items, k):
    """Reference colex order, built recursively: every subset of
    items[:j] before any containing items[j]."""
    if k < 0:
        return
    if k == 0:
        yield ()
        return
    for top_idx in range(k - 1, len(items)):
        top = items[top_idx]
        for rest in recursive_colex(items[:top_idx], k - 1):
            yield rest + (top,)


@given(st.lists(st.integers(-50, 50), unique=True, max_size=9).map(sorted),
       st.integers(-1, 5))
@settings(max_examples=300, deadline=None)
def test_colex_matches_recursive_reference(items, k):
    assert list(colex_combinations(items, k)) == list(recursive_colex(items, k))


def test_colex_full_subset_of_large_set_has_no_recursion_limit():
    assert list(colex_combinations(range(1500), 1500)) == [tuple(range(1500))]
    subsets = list(colex_combinations(range(1500), 1499))
    assert len(subsets) == 1500
    assert subsets[0] == tuple(range(1499))
    assert subsets[-1] == tuple(range(1, 1500))


# ---------------------------------------------------------------------------
# builder behavior


def test_builder_duplicate_name_rejected():
    bld = StructureBuilder(StructParams(2, 2))
    bld.add_point("a")
    with pytest.raises(ParameterError):
        bld.add_point("a")
    with pytest.raises(ParameterError):
        bld.add_line("a")


def test_builder_by_name_unknown_raises_parameter_error():
    bld = StructureBuilder(StructParams(2, 2))
    bld.add_point("a")
    assert bld.by_name("a") == 0
    with pytest.raises(ParameterError, match="no element named 'b'"):
        bld.by_name("b")


def readers(store, names):
    """What the five readers of ``store`` answer, names outside it included."""
    def by_name(name):
        try:
            return store.by_name(name)
        except ParameterError as e:
            return str(e)

    return (len(store), [store.sort(e) for e in range(len(store))],
            [store.name(e) for e in range(len(store))],
            [set(store.neighbors(e)) for e in range(len(store))],
            [by_name(name) for name in names])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_structures_builders_and_workspaces_read_alike(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    s = random_free_structure(rng, m, n, max_elements=8)
    asked = [s.name(e) for e in s.elements()] + ["nope", "p99", ""]
    assert readers(StructureBuilder.from_structure(s), asked) == readers(s, asked)
    work = completion.LazyCompletion(s, element_cap=60)
    assert readers(work, asked) == readers(s, asked)
    for _ in range(rng.randint(0, 4)):
        pts = [e for e in range(len(work)) if work.sort(e) is Sort.POINT]
        if len(pts) >= m and len(work) < 40:
            work.forced(sorted(rng.sample(pts, m)))
    asked += [work.name(e) for e in range(len(s), len(work))]
    assert readers(work, asked) == readers(work.snapshot(), asked)


def test_from_structure_on_the_workspace_builds_a_plain_builder():
    s = quadrangle_structure()
    b = completion.LazyCompletion.from_structure(s)
    assert type(b) is StructureBuilder
    assert b.build() == s
    # the shared readers' base keeps the structure's slots
    assert not hasattr(s, "__dict__")


def test_reimporting_the_package_frees_the_old_modules():
    # evaluated annotations such as Optional[IncidenceStructure] stay in
    # typing's cache, and through the class, its whole module
    code = """
import collections, gc, importlib, sys
for _ in range(3):
    for name in [n for n in sys.modules if n.split(".")[0] == "kmnfree"]:
        del sys.modules[name]
    for sub in ("cli", "finsearch", "gamma"):
        importlib.import_module("kmnfree." + sub)
gc.collect()
print(dict(collections.Counter(
    c.__qualname__ for c in gc.get_objects()
    if isinstance(c, type) and c.__module__.split(".")[0] == "kmnfree")))
"""
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    live = ast.literal_eval(out.stdout)
    assert {"IncidenceStructure", "HTerm", "PlaneResult", "LazyCompletion"} <= set(live)
    assert {name: k for name, k in live.items() if k != 1} == {}


def test_builder_sort_errors():
    bld = StructureBuilder(StructParams(2, 2))
    p = bld.add_point("p")
    l = bld.add_line("l")
    with pytest.raises(SortError):
        bld.add_incidence(l, p)


def test_guarded_add_raises_with_witness():
    bld = StructureBuilder(StructParams(2, 2))
    p1, p2 = bld.add_point("p1"), bld.add_point("p2")
    u, v = bld.add_line("u"), bld.add_line("v")
    for p in (p1, p2):
        bld.add_incidence(p, u)
    bld.add_incidence(p1, v)
    with pytest.raises(FreenessViolationError) as exc:
        bld.add_incidence(p2, v)
    assert exc.value.witness.points == frozenset({p1, p2})
    # unguarded add goes through
    bld.add_incidence(p2, v, guard=False)
    assert not is_kmn_free(bld.build())[0]


# ---------------------------------------------------------------------------
# the guard: one ``_grid`` search against the colex loop it replaced


def reference_completion_witness(bld, p, l):
    """The colex loop the guard ran before it called ``_grid``: every
    (m-1)-subset of l's other points, intersecting p's lines (and l) with
    each member's in ascending order, stopping once fewer than n remain."""
    m, n = bld.params.m, bld.params.n
    for sigma in colex_combinations(sorted(bld.neighbors(l) - {p}), m - 1):
        common = bld.neighbors(p) | {l}
        for q in sigma:
            common = common & bld.neighbors(q)
            if len(common) < n:
                break
        else:
            if len(common) >= n:
                rest = sorted(common - {l})[: n - 1]
                return FreenessWitness(points=frozenset(sigma) | {p},
                                       lines=frozenset(rest) | {l})
    return None


def random_adds(rng):
    """A builder at m, n in 1..4 with 1-8 points and 1-8 lines, and 40
    random (point, line) pairs to add to it."""
    bld = StructureBuilder(StructParams(rng.randint(1, 4), rng.randint(1, 4)))
    pts = [bld.add_point() for _ in range(rng.randint(1, 8))]
    lns = [bld.add_line() for _ in range(rng.randint(1, 8))]
    return bld, [(rng.choice(pts), rng.choice(lns)) for _ in range(40)]


def test_guard_matches_the_colex_loop():
    # One add in four skips the guard, so non-free states occur too.
    rng = random.Random(20118)
    refused = nonfree = 0
    for _ in range(400):
        bld, adds = random_adds(rng)
        for p, l in adds:
            got = bld.completion_witness(p, l)
            assert got == reference_completion_witness(bld, p, l)
            refused += got is not None
            if got is None or rng.random() < 0.25:
                bld.add_incidence(p, l, guard=False)
        nonfree += oracle_has_grid(bld.build())
    assert refused > 1000 and nonfree > 50


def test_guard_refusals_and_guarded_runs_against_the_oracle():
    # Read through ``neighbors`` only: each refused add's witness is a grid
    # that (p, l) would complete, and what the guard lets in stays free.
    rng = random.Random(20119)
    refused = 0
    for _ in range(400):
        bld, adds = random_adds(rng)
        m, n = bld.params.m, bld.params.n
        for p, l in adds:
            try:
                bld.add_incidence(p, l)
            except FreenessViolationError as exc:
                refused += 1
                w = exc.witness
                assert p in w.points and l in w.lines
                assert (len(w.points), len(w.lines)) == (m, n)
                assert l not in bld.neighbors(p)
                assert all(k in bld.neighbors(q) or (q, k) == (p, l)
                           for q in w.points for k in w.lines)
        s = bld.build()
        assert is_kmn_free(s)[0] and not oracle_has_grid(s)
    assert refused > 1000


def test_params_validation():
    with pytest.raises(ParameterError):
        StructParams(1.5, 2)
    with pytest.raises(ParameterError):
        StructParams(0, 2)


@pytest.mark.parametrize("m, n", [(True, 2), (2, False), (True, True)])
def test_booleans_are_not_parameters(m, n):
    # bool is an int subclass, so True would otherwise read as m = 1
    with pytest.raises(ParameterError, match="m and n must be integers"):
        StructParams(m, n)


# ---------------------------------------------------------------------------
# accessors, induced substructures, common neighbors


def test_accessors(quadrangle):
    s = quadrangle
    assert len(s) == 4
    assert list(s.elements()) == [0, 1, 2, 3]
    assert s.points == (0, 1, 2, 3) and s.lines == ()
    assert s.points is s.points and s.lines is s.lines
    assert s.name(0) == "p1" and s.by_name("p4") == 3
    assert s.has_name("p2") and not s.has_name("p9")
    with pytest.raises(ParameterError):
        s.by_name("p9")
    assert s.is_point(0) and not s.is_line(0)
    assert s.sort(0) is Sort.POINT
    assert s.incidence_count() == 0


def test_common_neighbors_and_induced():
    s = build(
        2, 2,
        points=("a", "b", "c"),
        lines=("u", "v"),
        incidences=[("a", "u"), ("b", "u"), ("b", "v"), ("c", "v")],
    )
    assert common_neighbors(s, [s.by_name("a"), s.by_name("b")]) == frozenset(
        {s.by_name("u")}
    )
    assert common_neighbors(s, [s.by_name("a"), s.by_name("c")]) == frozenset()

    sub, remap = induced(s, {s.by_name("a"), s.by_name("b"), s.by_name("u")})
    assert len(sub) == 3
    assert sub.incident(remap[s.by_name("a")], remap[s.by_name("u")])
    assert sub.incidence_count() == 2
    assert sub.name(remap[s.by_name("a")]) == "a"


def reference_induced(s, keep):
    """Reference copy of ``induced`` as it was built through the builder."""
    keep = sorted(set(keep))
    remap, b = {}, StructureBuilder(s.params)
    for e in keep:
        remap[e] = b.add_point(s.name(e)) if s.is_point(e) else b.add_line(s.name(e))
    for e in keep:
        if s.is_point(e):
            for l in sorted(s.neighbors(e)):
                if l in remap:
                    b.add_incidence(remap[e], remap[l], guard=False)
    return b.build(), remap


def test_induced_matches_the_builder_copy():
    rng = random.Random(19_001)
    for trial in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        s = random_free_structure(rng, m, n, max_elements=12)
        elems = list(s.elements())
        keep = [] if trial % 10 == 0 else rng.sample(elems, rng.randint(0, len(elems)))
        got, remap = induced(s, keep)
        want, want_remap = reference_induced(s, keep)
        assert got == want and remap == want_remap
        for e, i in remap.items():
            assert (got.sort(i), got.name(i)) == (s.sort(e), s.name(e))
            assert got.neighbors(i) == {remap[x] for x in s.neighbors(e) if x in remap}
    s = build(2, 2, points=("a", "b", "c"), lines=("u",),
              incidences=[("a", "u"), ("c", "u")])
    sub, remap = induced(s, [3, 2])  # not a prefix
    assert remap == {2: 0, 3: 1}
    assert (sub.name(0), sub.name(1), sub.neighbors(0)) == ("c", "u", frozenset({1}))
    empty, remap = induced(s, ())
    assert (len(empty), remap, empty.params) == (0, {}, s.params)
    with pytest.raises(ParameterError):
        induced(s, [0, 4])


# ---------------------------------------------------------------------------
# isomorphism over a base


def test_isomorphic_over_identity(quad_run):
    s = quad_run.stages[2].structure
    res = isomorphic_over(s, s, {e: e for e in s.elements()})
    assert res and res.mapping == {e: e for e in s.elements()}


def test_isomorphic_over_relabeled():
    s1 = build(2, 2, points=("a", "b"), lines=("u",),
               incidences=[("a", "u"), ("b", "u")])
    s2 = build(2, 2, points=("x", "y"), lines=("w",),
               incidences=[("x", "w"), ("y", "w")])
    res = isomorphic_over(s1, s2, {})
    assert res
    m = res.mapping
    assert s2.is_line(m[s1.by_name("u")])
    # pin one point: still extends
    res2 = isomorphic_over(s1, s2, {s1.by_name("a"): s2.by_name("y")})
    assert res2 and res2.mapping[s1.by_name("a")] == s2.by_name("y")


def test_isomorphic_over_negative_cases(quadrangle, triangle_points):
    assert not isomorphic_over(quadrangle, triangle_points, {})
    # malformed base: sort clash raises
    s = build(2, 2, points=("a",), lines=("u",))
    with pytest.raises(SortError):
        isomorphic_over(s, s, {s.by_name("a"): s.by_name("u")})
    # structurally conflicting base: flagged, not raised
    t = build(2, 2, points=("a", "b"), lines=("u",),
              incidences=[("a", "u")])
    res = isomorphic_over(
        t, t, {t.by_name("b"): t.by_name("a"), t.by_name("u"): t.by_name("u")}
    )
    assert not res and res.base_conflict


def test_isomorphic_over_degree_obstruction():
    s1 = build(2, 2, points=("a", "b"), lines=("u",),
               incidences=[("a", "u"), ("b", "u")])
    s2 = build(2, 2, points=("x", "y"), lines=("w",),
               incidences=[("x", "w")])
    assert not isomorphic_over(s1, s2, {})


def test_isomorphic_over_is_an_equivalence():
    rng = random.Random(20112)
    for _ in range(40):
        s1 = random_free_structure(rng, max_elements=7)
        # reflexivity via the empty base
        r1 = isomorphic_over(s1, s1, {})
        assert r1
        # symmetry: the inverse map is an isomorphism back
        inv = {v: k for k, v in r1.mapping.items()}
        assert isomorphic_over(s1, s1, inv)
        # transitivity: compose two relabelings
        perm = list(s1.elements())
        rng.shuffle(perm)
        # build s2 = s1 relabeled by sort-preserving shuffle is fiddly;
        # compose identity results instead
        r2 = isomorphic_over(s1, s1, {})
        comp = {k: r2.mapping[v] for k, v in r1.mapping.items()}
        assert isomorphic_over(s1, s1, comp)


def test_structure_equality_and_hash(quadrangle):
    other = quadrangle_structure()
    assert quadrangle == other
    assert hash(quadrangle) == hash(other)
    assert quadrangle != build(2, 2, points=("p1", "p2", "p3", "q"))


# ---------------------------------------------------------------------------
# induced embeddings


def ref_check_induced_embedding(small, big, mapping):
    """Reference copy of the pairwise check ``embedding_fault`` replaced in
    the amalgam, run on the mapped elements: injectivity, then images and
    sorts, then every (point, line) pair in id order.  None, a fault kind,
    or ("incidence", (p, l))."""
    if len(set(mapping.values())) != len(mapping):
        return "injective"
    for e, im in mapping.items():
        if im not in big.elements():
            return "outside"
        if small.sort(e) is not big.sort(im):
            return "sort"
    for p in small.points:
        for l in small.lines:
            if p in mapping and l in mapping and (
                    small.incident(p, l) != big.incident(mapping[p], mapping[l])):
                return "incidence", (p, l)
    return None


def ref_is_isomorphism(s1, s2, keep, corr):
    """Reference copy of the neighbour-set check of the correspondence in
    ``relative_free_completion``."""
    if len(corr) != len(s1) or len(keep) != len(s1) or set(corr.values()) != keep:
        return False
    return all(
        s2.sort(corr[e]) is s1.sort(e)
        and {corr[x] for x in s1.neighbors(e)} == s2.neighbors(corr[e]) & keep
        for e in s1.elements()
    )


def assert_fault_agrees(small, big, mapping):
    want, got = ref_check_induced_embedding(small, big, mapping), embedding_fault(
        small, big, mapping)
    if want is None:
        assert got is None
    elif want[0] == "incidence":
        p, l = want[1]
        assert got == f"incidence mismatch at ({small.name(p)!r}, {small.name(l)!r})"
    else:
        assert got is not None and not got.startswith("incidence")


def random_embedded(rng):
    """(small, big, mapping): a random free ``big`` and the induced embedding
    of its substructure on a random subset."""
    m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
    big = random_free_structure(rng, m, n, max_elements=12, incidence_tries=20)
    keep = [e for e in big.elements() if rng.random() < 0.6]
    small, remap = induced(big, keep)
    return small, big, {new: old for old, new in remap.items()}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_embedding_fault_matches_the_pairwise_check(seed):
    rng = random.Random(seed)
    small, big, emb = random_embedded(rng)
    assert embedding_fault(small, big, emb) is None
    keep = frozenset(emb.values())
    full = small.elements()
    # correct maps with two images swapped
    for x, y in itertools.combinations(full, 2):
        swapped = dict(emb)
        swapped[x], swapped[y] = emb[y], emb[x]
        assert_fault_agrees(small, big, swapped)
        assert completion._is_isomorphism(small, big, keep, swapped) == (
            ref_is_isomorphism(small, big, keep, swapped))
    # random partial maps: same-sort injective ones reach the incidence test
    for _ in range(10):
        domain = [e for e in full if rng.random() < 0.7]
        if rng.random() < 0.5:
            mapping = {e: rng.randrange(len(big) + 1) for e in domain}
        else:
            pools = {s: [e for e in big.elements() if big.sort(e) is s] for s in Sort}
            for pool in pools.values():
                rng.shuffle(pool)
            mapping = {e: pools[small.sort(e)].pop() for e in domain
                       if pools[small.sort(e)]}
        assert_fault_agrees(small, big, mapping)


def test_embedding_fault_reasons():
    s = build(2, 2, points=("p", "q"), lines=("u",), incidences=[("p", "u")])
    assert embedding_fault(s, s, {0: 0, 1: 1, 2: 2}) is None
    assert embedding_fault(s, s, {}) is None
    assert embedding_fault(s, s, {0: 1, 2: 2}) == "incidence mismatch at ('p', 'u')"
    assert embedding_fault(s, s, {1: 0, 2: 2}) == "incidence mismatch at ('q', 'u')"
    assert embedding_fault(s, s, {0: 2}) == "sort clash at 'p'"
    assert embedding_fault(s, s, {0: 0, 1: 0}) == "'p' and 'q' share an image"
    assert embedding_fault(s, s, {0: 3}) == "image 3 of 'p' is outside the target"
