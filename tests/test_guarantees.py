"""Guarantees of the independence checker that hold at every stage budget,
checked by hypothesis over small free structures at (m, n) in {2,3}^2."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kmnfree import IndepQuery, Relation, Sort, Status, check

from conftest import build, random_free_structure

PARAMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
CAP = 200  # small, so that some checks end at the element cap
BUDGETS = ("element cap", "stage budget", "enumeration bound")


def parts(rng, s):
    """Disjoint A, B and C: each element joins one of them or none."""
    roles = [rng.choice("aabbcnn") for _ in s.elements()]
    return (frozenset(e for e, r in enumerate(roles) if r == x) for x in "abc")


def converged_otimes(v):
    return v.detail.startswith("the closure of ABC is the free completion")


@given(st.integers(0, 2**32 - 1), st.sampled_from(PARAMS),
       st.sampled_from(list(Relation)), st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_decided_verdicts_persist_as_the_stage_budget_grows(seed, mn, rel, k):
    rng = random.Random(seed)
    s = random_free_structure(rng, *mn, max_elements=7)
    a, b, c = parts(rng, s)
    small, large = (check(IndepQuery(s, a, b, c, rel, stage_budget=budget,
                                     element_cap=CAP)) for budget in (k, k + 1))
    for v in (small, large):
        if v.status is Status.UNKNOWN:
            assert any(name in v.detail for name in BUDGETS), v.detail
        if v.status is Status.DEPENDENT:
            assert v.witness is not None
    if small.status is Status.DEPENDENT:
        assert (large.status, large.witness) == (Status.DEPENDENT, small.witness)
    if small.status is Status.INDEPENDENT and (rel is not Relation.OTIMES
                                               or converged_otimes(small)):
        assert large.status is not Status.DEPENDENT
    if small.status is Status.DEPENDENT and "spawner" in small.detail:
        # a fault of OTIMES's closure walk: an ambient element that meets
        # more ambient elements than a spawner has
        x, meets = small.witness
        assert x < len(s) and meets <= s.neighbors(x)
        assert len(meets) > (mn[0] if s.sort(x) is Sort.LINE else mn[1])


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_lone_points_at_2_3_are_otimes_independent_at_every_budget(budget):
    # four lone points: the closure of {p0, p1} spawns its two lines in one
    # step, where the free completion adds one per stage
    s = build(2, 3, points=("p0", "p1", "p2", "p3"))
    v = check(IndepQuery(s, frozenset({0}), frozenset({1}), frozenset(),
                         Relation.OTIMES, stage_budget=budget))
    assert v.status is Status.INDEPENDENT
