"""The bit-row matcher behind ``isomorphic_over`` and the embedding
searches, checked against reference copies of the recursive search and of
the set-based matcher it replaced: outcome, mapping and node count alike,
at every node budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmnfree import (
    ParameterError,
    Sort,
    SortError,
    StructParams,
    StructureBuilder,
    find_projective_plane,
    isomorphic_over,
)
from kmnfree import core
from kmnfree.core import IsoResult, _match
from kmnfree.finsearch import _assignment_order, _sort_classes

from conftest import random_free_structure


def reference_isomorphic_over(s1, s2, base):
    """The recursive search: a copy of ``isomorphic_over`` before the
    iterative matcher and its neighbourhood candidates."""
    if s1.params != s2.params:
        return IsoResult(None)
    base = dict(base)
    for a, b in base.items():
        if a not in s1.elements() or b not in s2.elements():
            raise ParameterError("base map references unknown elements")
        if s1.sort(a) is not s2.sort(b):
            raise SortError("base maps elements of different sort")
    if len(set(base.values())) != len(base):
        raise ParameterError("base map is not injective")
    items = sorted(base.items())
    for i, (a, fa) in enumerate(items):
        for b, fb in items[:i]:
            if s1.sort(a) is s1.sort(b):
                continue
            if s1.incident(*((a, b) if s1.is_point(a) else (b, a))) != s2.incident(
                *((fa, fb) if s2.is_point(fa) else (fb, fa))
            ):
                return IsoResult(None, base_conflict=True)

    if len(s1.points) != len(s2.points) or len(s1.lines) != len(s2.lines):
        return IsoResult(None)

    def degseq(st, es):
        return sorted(st.degree(e) for e in es)

    if degseq(s1, s1.points) != degseq(s2, s2.points):
        return IsoResult(None)
    if degseq(s1, s1.lines) != degseq(s2, s2.lines):
        return IsoResult(None)

    mapping = dict(base)
    used = set(base.values())
    order = [e for e in s1.elements() if e not in mapping]

    def feasible(a, b):
        if s1.degree(a) != s2.degree(b):
            return False
        for u, fu in mapping.items():
            if s1.sort(u) is s1.sort(a):
                continue
            if (u in s1.neighbors(a)) != (fu in s2.neighbors(b)):
                return False
        return True

    def search(idx):
        if idx == len(order):
            return True
        a = order[idx]
        want = s1.sort(a)
        for b in s2.elements():
            if b in used or s2.sort(b) is not want:
                continue
            if feasible(a, b):
                mapping[a] = b
                used.add(b)
                if search(idx + 1):
                    return True
                del mapping[a]
                used.discard(b)
        return False

    if search(0):
        return IsoResult(dict(sorted(mapping.items())))
    return IsoResult(None)


def relabelled(rng, s):
    """A copy of s with its element ids shuffled; returns (copy, old->new)."""
    perm = list(s.elements())
    rng.shuffle(perm)
    b = StructureBuilder(s.params)
    new = {}
    for e in perm:
        new[e] = b.add_point() if s.is_point(e) else b.add_line()
    for p, l in s.incidences():
        b.add_incidence(new[p], new[l], guard=False)
    return b.build(), new


def random_base(rng, s1, s2, hint=None):
    """A random injective, sort-preserving partial map s1 -> s2: part of
    ``hint`` when given (so it extends), else arbitrary (often conflicting)."""
    if hint is not None and rng.random() < 0.6:
        keys = rng.sample(sorted(hint), rng.randint(0, len(hint)))
        return {a: hint[a] for a in keys}
    base = {}
    for group1, group2 in ((s1.points, s2.points), (s1.lines, s2.lines)):
        k = rng.randint(0, min(len(group1), len(group2), 3))
        base.update(zip(rng.sample(group1, k), rng.sample(group2, k)))
    return base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_isomorphic_over_matches_recursive_reference(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
    s1 = random_free_structure(rng, m, n, max_elements=9,
                               incidence_tries=rng.randint(0, 30))
    kind = rng.choice(["relabelled", "relabelled", "unrelated", "self"])
    hint = None
    if kind == "relabelled":
        s2, hint = relabelled(rng, s1)
    elif kind == "unrelated":
        s2 = random_free_structure(rng, m, n, max_elements=9,
                                   incidence_tries=rng.randint(0, 30))
    else:
        s2, hint = s1, {e: e for e in s1.elements()}
    base = random_base(rng, s1, s2, hint) if rng.random() < 0.7 else {}
    assert isomorphic_over(s1, s2, base) == reference_isomorphic_over(s1, s2, base)


def test_isomorphic_over_on_a_long_path_does_not_recurse():
    # p0 - l0 - p1 - l1 - ... - p1250: 2,501 elements in path order, far
    # deeper than the default recursion limit
    b = StructureBuilder(StructParams(2, 2))
    prev = b.add_point()
    for _ in range(1250):
        l = b.add_line()
        b.add_incidence(prev, l, guard=False)
        prev = b.add_point()
        b.add_incidence(prev, l, guard=False)
    path = b.build()
    assert len(path) == 2_501
    res = isomorphic_over(path, path, {})
    assert res.mapping == {e: e for e in path.elements()}


# ---------------------------------------------------------------------------
# the bit-row matcher against the set-based one it replaced


def reference_match(small, big, order, candidates, mapping, node_budget=None):
    """The set-based matcher: a copy of ``_match`` before bit rows, which
    takes a candidate callback in place of class masks."""
    small_adj, big_adj, sorts, point = small._adj, big._adj, small._sorts, Sort.POINT
    pimg = {b for a, b in mapping.items() if sorts[a] is point}
    limg = set(mapping.values()) - pimg
    budget = float("inf") if node_budget is None else node_budget
    nodes = 0
    stack = []
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


def reference_on_mapped_neighbours(small_adj, big_adj, e, mapping):
    on = sorted((big_adj[mapping[u]] for u in small_adj[e] if u in mapping), key=len)
    return on[0].intersection(*on[1:]) if on else None


def reference_neighbour_candidates(small, big):
    """The embedding searches' callback: the images incident with all
    images of e's mapped neighbours, else every point or every line."""
    images = [big.points if small.is_point(e) else big.lines for e in small.elements()]

    def candidates(e, mapping):
        on = reference_on_mapped_neighbours(small._adj, big._adj, e, mapping)
        return images[e] if on is None else sorted(on)

    return candidates


def reference_iso_candidates(s1, s2):
    """``isomorphic_over``'s callback: the same, kept to e's degree."""
    key1, key2 = ([(srt is Sort.POINT, len(nb)) for srt, nb in zip(s._sorts, s._adj)]
                  for s in (s1, s2))
    by_class = {}
    for b, key in enumerate(key2):
        by_class.setdefault(key, []).append(b)

    def candidates(a, mapping):
        on = reference_on_mapped_neighbours(s1._adj, s2._adj, a, mapping)
        if on is None:
            return by_class[key1[a]]
        return sorted(b for b in on if len(s2._adj[b]) == len(s1._adj[a]))

    return candidates


def assert_matchers_agree(small, big, order, classes, candidates, base):
    """Outcome, final mapping and nodes agree unbudgeted and at every budget
    from 0 to one past the unbudgeted node count; returns that count.  Past
    300 nodes (a NONE into the order-5 plane can take thousands), only the
    first 301 budgets and the last 52 are run, which bounds the quadratic
    cost."""
    total = reference_match(small, big, order, candidates, dict(base))[1]
    runs = []
    for budget in [None, *sorted({*range(min(total, 300) + 1),
                                  *range(max(total - 50, 0), total + 2)})]:
        got_map, want_map = dict(base), dict(base)
        got = _match(small, big, order, classes, got_map, budget)
        want = reference_match(small, big, order, candidates, want_map, budget)
        assert (got, got_map) == (want, want_map), budget
        runs.append(got)
    assert runs[-1] == runs[0]  # one past the count: the unbudgeted result
    return runs[0][1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_embedding_matcher_agrees_with_the_set_based_one(seed):
    # random (2,2) structures into planes of orders 1-5 and into random
    # free structures, from no root or from a random root image
    rng = random.Random(seed)
    small = random_free_structure(rng, 2, 2, max_elements=7)
    if rng.random() < 0.5:
        big = random_free_structure(rng, 2, 2, max_elements=14)
    else:
        big = find_projective_plane(rng.randint(1, 5)).plane
    order = _assignment_order(small)
    base = {}
    if order and rng.random() < 0.5:
        images = big.points if small.is_point(order[0]) else big.lines
        if images:
            base = {order[0]: rng.choice(images)}
            order = order[1:]
    assert_matchers_agree(small, big, order, _sort_classes(small, big),
                          reference_neighbour_candidates(small, big), base)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_automorphism_matcher_agrees_with_the_set_based_one(q):
    # searches f -> c, as the embedding search's orbits run them, all of
    # which succeed; then three points sent to three, which can fail
    rng = random.Random(q)
    plane = find_projective_plane(q).plane
    classes = _sort_classes(plane, plane)
    candidates = reference_neighbour_candidates(plane, plane)
    for _ in range(6):
        f = rng.choice(plane.elements())
        c = rng.choice(plane.points if plane.is_point(f) else plane.lines)
        order = _assignment_order(plane, (f,))
        assert assert_matchers_agree(plane, plane, order, classes, candidates,
                                     {f: c}) == len(plane) - 1
    outcomes = set()
    for _ in range(12):
        base = dict(zip(rng.sample(plane.points, 3), rng.sample(plane.points, 3)))
        order = _assignment_order(plane, base)
        assert_matchers_agree(plane, plane, order, classes, candidates, base)
        outcomes.add(_match(plane, plane, order, classes, dict(base))[0])
    assert outcomes == {True, False}


def iso_classes(s1, s2):
    """``isomorphic_over``'s classes: per s1-element, the mask of the
    s2-elements of its sort and degree."""
    masks = {}
    for b in s2.elements():
        key = (s2.is_point(b), s2.degree(b))
        masks[key] = masks.get(key, 0) | 1 << b
    return [masks.get((s1.is_point(a), s1.degree(a)), 0) for a in s1.elements()]


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
@settings(max_examples=120, deadline=None)
def test_isomorphism_matcher_agrees_with_the_set_based_one(seed, mn):
    # relabelled random free structures with random partial bases, as
    # isomorphic_over runs the matcher
    rng = random.Random(seed)
    s1 = random_free_structure(rng, *mn, max_elements=10,
                               incidence_tries=rng.randint(0, 40))
    s2, hint = relabelled(rng, s1)
    base = random_base(rng, s1, s2, hint) if rng.random() < 0.7 else {}
    order = [e for e in s1.elements() if e not in base]
    assert_matchers_agree(s1, s2, order, iso_classes(s1, s2),
                          reference_iso_candidates(s1, s2), base)


@pytest.mark.parametrize("row_bits", [0, 1, 40])
def test_matcher_agrees_when_it_drops_its_rows(monkeypatch, row_bits):
    # rows dropped after every build, after the first and every few: the
    # rows of the round before are reused, and any other row is rebuilt
    monkeypatch.setattr(core, "_ROW_BITS", row_bits)
    rng = random.Random(row_bits)
    for q in (2, 3):
        plane = find_projective_plane(q).plane
        f = rng.choice(plane.lines)
        assert_matchers_agree(plane, plane, _assignment_order(plane, (f,)),
                              _sort_classes(plane, plane),
                              reference_neighbour_candidates(plane, plane),
                              {f: rng.choice(plane.lines)})
        for _ in range(4):
            small = random_free_structure(rng, 2, 2, max_elements=7)
            assert_matchers_agree(small, plane, _assignment_order(small),
                                  _sort_classes(small, plane),
                                  reference_neighbour_candidates(small, plane), {})
    s1 = random_free_structure(rng, 2, 3, max_elements=10, incidence_tries=30)
    s2, _ = relabelled(rng, s1)
    assert_matchers_agree(s1, s2, list(s1.elements()), iso_classes(s1, s2),
                          reference_iso_candidates(s1, s2), {})


def reference_assignment_order(s, placed=()):
    """The quadratic rule: a copy of ``_assignment_order`` before its
    neighbour counts, a ``max`` over the remaining elements per step."""
    chosen = []
    placed = set(placed)
    remaining = set(s.elements()) - placed
    while remaining:
        best = max(remaining, key=lambda e: (len(s.neighbors(e) & placed), -e))
        chosen.append(best)
        placed.add(best)
        remaining.remove(best)
    return chosen


def random_prefix(rng, s):
    """No prefix, one element, or a random sample of s's elements."""
    k = rng.choice([0, 1, rng.randint(0, len(s))])
    return tuple(rng.sample(s.elements(), min(k, len(s))))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_assignment_order_matches_the_quadratic_rule(seed):
    # random (2,2) structures, sparse and dense, from a random prefix
    rng = random.Random(seed)
    s = random_free_structure(rng, 2, 2, max_elements=14,
                              incidence_tries=rng.randint(0, 60))
    placed = random_prefix(rng, s)
    assert _assignment_order(s, placed) == reference_assignment_order(s, placed)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_assignment_order_on_planes_matches_the_quadratic_rule(q):
    # every element as the one-element prefix of the orbit searches, no
    # prefix, and random larger ones
    rng = random.Random(q)
    plane = find_projective_plane(q).plane
    prefixes = [()] + [(f,) for f in plane.elements()]
    prefixes += [random_prefix(rng, plane) for _ in range(10)]
    for placed in prefixes:
        assert _assignment_order(plane, placed) == reference_assignment_order(plane, placed)
