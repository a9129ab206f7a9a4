"""The iterative matcher behind ``isomorphic_over``, checked against a
reference copy of the recursive search it replaced."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kmnfree import (
    ParameterError,
    SortError,
    StructParams,
    StructureBuilder,
    isomorphic_over,
)
from kmnfree.core import IsoResult

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
