"""Finite plane search and embedding queries."""

import itertools
import tracemalloc

import pytest

from kmnfree import (
    ParameterError,
    PreconditionError,
    SearchStatus,
    embed_in_finite_plane,
    embed_search_general,
    enumerate_projective_planes,
    fano_plane,
    find_projective_plane,
    free_completion,
    is_kmn_free,
    isomorphic_over,
    satisfies_complete,
)
from kmnfree import core
from kmnfree.finsearch import _PlaneSearch, clear_plane_cache

from conftest import build


def pair_counts(s, elems, others):
    """How many of ``others`` each pair of ``elems`` has in common."""
    counts = dict.fromkeys(itertools.combinations(sorted(elems), 2), 0)
    for x in others:
        for pair in itertools.combinations(sorted(s.neighbors(x)), 2):
            counts[pair] += 1
    return counts


def plane_invariants(s, order):
    assert len(s.points) == order * order + order + 1
    assert len(s.lines) == order * order + order + 1
    assert all(len(s.neighbors(l)) == order + 1 for l in s.lines)
    # complete: every two points on one line, every two lines through one point
    assert set(pair_counts(s, s.points, s.lines).values()) == {1}
    assert set(pair_counts(s, s.lines, s.points).values()) == {1}
    assert is_kmn_free(s)[0]


def test_order_1_is_a_triangle():
    r = find_projective_plane(1)
    assert r.status is SearchStatus.FOUND
    plane_invariants(r.plane, 1)


def test_order_2_matches_the_difference_set_plane():
    r = find_projective_plane(2)
    assert r.status is SearchStatus.FOUND
    plane_invariants(r.plane, 2)
    assert isomorphic_over(r.plane, fano_plane(), {})


def test_order_3():
    r = find_projective_plane(3)
    assert r.status is SearchStatus.FOUND
    plane_invariants(r.plane, 3)


def test_order_2_solutions_unique_up_to_iso():
    planes, exhausted, nodes = enumerate_projective_planes(2)
    assert exhausted
    assert len(planes) == 30
    first = planes[0]
    for p in planes[1:]:
        assert isomorphic_over(p, first, {})


@pytest.mark.parametrize("order", [4, 5, 8])
def test_found_planes_are_complete(order):
    # find_projective_plane makes no completeness check of its own; orders
    # 1-3 are checked above
    r = find_projective_plane(order)
    assert r.status is SearchStatus.FOUND
    plane_invariants(r.plane, order)


@pytest.mark.parametrize("order, limit", [(2, None), (3, 1000)])
def test_enumerated_planes_are_complete(order, limit):
    planes, _, _ = enumerate_projective_planes(order, limit=limit)
    assert len(planes) == (limit or 30)
    for s in planes:
        plane_invariants(s, order)


def test_enumeration_respects_limit():
    planes, exhausted, _ = enumerate_projective_planes(2, limit=5)
    assert len(planes) == 5
    assert not exhausted


def test_unknown_on_node_budget():
    r = find_projective_plane(6, node_budget=500)
    assert r.status is SearchStatus.UNKNOWN
    assert r.nodes == 500
    # undecided results stay out of the cache
    r2 = find_projective_plane(6, node_budget=500)
    assert r2 is not r


def test_plane_budget_counts_prefix_tests():
    # 100 placed lines at order 9 used to test millions of prefixes
    clear_plane_cache()
    r = find_projective_plane(9, node_budget=100)
    assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, 100)


def test_large_order_allocates_no_pair_table():
    # order 60 has 3,661 points: a table of pair flags took 103 MB before the
    # first node, one bit row per point takes 3,661 ints
    clear_plane_cache()
    tracemalloc.start()
    try:
        r = find_projective_plane(60, node_budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, 100)
    assert peak < 4 * 2**20


def test_open_levels_keep_compact_candidate_pools():
    # every open level of the search keeps its candidate pool, up to v
    # points; at order 60 (v = 3,661) a budget of 20,000 nodes opens 65
    # levels, which peaked at 9 MB with the pools held as lists of ints
    search = _PlaneSearch(60, 20_000)
    tracemalloc.start()
    try:
        search.run(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (search.nodes, len(search.lines), search.solutions) == (20_000, 65, [])
    assert peak < 6 * 2**20


def test_plane_cache_round_trip():
    clear_plane_cache()
    a = find_projective_plane(2)
    b = find_projective_plane(2)
    assert b is a  # cached
    clear_plane_cache()
    c = find_projective_plane(2)
    assert c is not a
    assert isomorphic_over(c.plane, a.plane, {})


# ---------------------------------------------------------------------------
# embeddings into planes


def check_induced(a, plane, mapping):
    assert sorted(mapping) == sorted(a.elements())
    assert len(set(mapping.values())) == len(mapping)
    for e in a.elements():
        assert a.is_point(e) == plane.is_point(mapping[e])
    for p in a.points:
        for l in a.lines:
            assert a.incident(p, l) == plane.incident(mapping[p], mapping[l])


def test_triangle_embeds_in_order_2():
    tri = build(2, 2, points=("x1", "x2", "x3"),
                lines=("e12", "e13", "e23"),
                incidences=[("x1", "e12"), ("x2", "e12"),
                            ("x1", "e13"), ("x3", "e13"),
                            ("x2", "e23"), ("x3", "e23")])
    r = embed_in_finite_plane(tri, 2)
    assert r.status is SearchStatus.FOUND
    check_induced(tri, r.plane, r.mapping)


def test_fano_embeds_in_itself():
    f = fano_plane()
    r = embed_in_finite_plane(f, 2)
    assert r.status is SearchStatus.FOUND
    check_induced(f, r.plane, r.mapping)


def test_quadrangle_stages_embed(quadrangle):
    run = free_completion(quadrangle, 3)
    s13 = run.stages[2].structure
    r = embed_in_finite_plane(s13, 3)
    assert r.status is SearchStatus.FOUND
    check_induced(s13, r.plane, r.mapping)
    # the same stage also fits the small plane
    assert embed_in_finite_plane(s13, 2).status is SearchStatus.FOUND
    # one more stage has nine lines, too many for order 2
    s16 = run.stages[3].structure
    assert embed_in_finite_plane(s16, 2).status is SearchStatus.NONE


def test_embed_guards():
    grid = build(2, 2, points=("p", "q"), lines=("u", "v"),
                 incidences=[(p, l) for p in "pq" for l in "uv"],
                 guard=False)
    with pytest.raises(PreconditionError):
        embed_in_finite_plane(grid, 2)
    with pytest.raises(ParameterError):
        embed_in_finite_plane(build(3, 2, points=("p",)), 2)


def test_embed_unknown_propagates_from_plane_search():
    r = embed_in_finite_plane(build(2, 2, points=("p",)), 6, node_budget=500)
    assert r.status is SearchStatus.UNKNOWN


# ---------------------------------------------------------------------------
# the general search


def test_general_converging_input(triangle_points):
    r = embed_search_general(triangle_points)
    assert r.status is SearchStatus.FOUND
    assert "converged" in r.detail
    assert satisfies_complete(r.structure).passed
    assert r.embedding == {e: e for e in triangle_points.elements()}


def test_general_plane_route(quadrangle):
    r = embed_search_general(quadrangle)
    assert r.status is SearchStatus.FOUND
    assert r.detail == "embedded in the order-2 plane"
    check_induced(quadrangle, r.structure, r.embedding)


def test_general_search_scans_its_input_once(monkeypatch, quadrangle):
    calls = []

    def counted(s):
        calls.append(s)
        return is_kmn_free(s)

    monkeypatch.setattr(core, "is_kmn_free", counted)
    assert embed_search_general(quadrangle).status is SearchStatus.FOUND
    assert calls == [quadrangle]


def test_general_unknown_routes():
    # too tight for anything at (2,2)
    r = embed_search_general(build(2, 2, points=("p1", "p2", "p3", "p4")),
                             max_elements=4)
    assert r.status is SearchStatus.UNKNOWN
    # no plane route at other parameters
    five = build(3, 2, points=tuple(f"p{i}" for i in range(5)))
    r2 = embed_search_general(five, max_elements=6)
    assert r2.status is SearchStatus.UNKNOWN
    assert "did not converge" in r2.detail


def test_general_rejects_nonfree():
    grid = build(2, 2, points=("p", "q"), lines=("u", "v"),
                 incidences=[(p, l) for p in "pq" for l in "uv"],
                 guard=False)
    with pytest.raises(PreconditionError):
        embed_search_general(grid)
