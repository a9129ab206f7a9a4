"""The forcing engine: one forced-set rule per ambient, one stage step.

Each function that runs on the engine is compared with a reference copy of
the loop it replaced, kept below: the finite closures, the deficiency scan
and the completeness test on random structures and completion stages, and
the lazy closure on random workspaces, where the spawned elements, and so
the ids of everything spawned later, must come out the same.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kmnfree import (
    BudgetError,
    IndepQuery,
    LazyCompletion,
    ParameterError,
    Relation,
    Sort,
    Status,
    Ternary,
    check,
    closure_stages,
    fano_plane,
    free_completion,
    generates,
    i_closure,
    is_i_closed,
    satisfies_complete,
)
from kmnfree.completion import _deficient
from kmnfree.core import colex_combinations

from conftest import (
    RecordingCompletion,
    quadrangle_structure,
    random_free_structure,
    spawn_records,
)

seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# reference copies of the loops the engine replaced


def ref_common(s, ys):
    acc = set(s.neighbors(ys[0]))
    for y in ys[1:]:
        acc &= s.neighbors(y)
    return frozenset(acc)


def ref_step(s, cur):
    m, n = s.params.m, s.params.n
    pts = sorted(e for e in cur if s.is_point(e))
    lns = sorted(e for e in cur if s.is_line(e))
    nxt = set(cur)
    for sigma in colex_combinations(pts, m):
        nxt |= ref_common(s, sigma)
    for tau in colex_combinations(lns, n):
        nxt |= ref_common(s, tau)
    return frozenset(nxt)


def ref_closure_stages(s, seed, budget):
    cur = frozenset(seed)
    stages = [cur]
    for _ in range(budget):
        nxt = ref_step(s, cur)
        if nxt == cur:
            return tuple(stages), True
        cur = nxt
        stages.append(cur)
    return tuple(stages), ref_step(s, cur) == cur


def ref_i_closure(s, seed):
    cur = frozenset(seed)
    while True:
        nxt = ref_step(s, cur)
        if nxt == cur:
            return cur
        cur = nxt


def ref_is_i_closed(s, subset):
    m, n = s.params.m, s.params.n
    sub = frozenset(subset)
    pts = sorted(e for e in sub if s.is_point(e))
    lns = sorted(e for e in sub if s.is_line(e))
    missing = set()
    for sigma in colex_combinations(pts, m):
        missing |= ref_common(s, sigma) - sub
    for tau in colex_combinations(lns, n):
        missing |= ref_common(s, tau) - sub
    if missing:
        return False, min(missing)
    return True, None


def ref_generates(s, seed, target, budget):
    tgt = frozenset(target)
    cur = frozenset(seed)
    steps = 0
    while True:
        if tgt <= cur:
            return Ternary.YES, frozenset()
        nxt = ref_step(s, cur)
        if nxt == cur:
            return Ternary.NO, tgt - cur
        if budget is not None and steps >= budget:
            return Ternary.UNKNOWN, tgt - cur
        cur = nxt
        steps += 1


def ref_deficient(s):
    m, n = s.params.m, s.params.n
    families = []
    for elems, k, most in ((s.points, m, n - 2), (s.lines, n, m - 2)):
        families.append(tuple(
            frozenset(sub) for sub in colex_combinations(elems, k)
            if len(ref_common(s, sub)) <= most
        ))
    return tuple(families)


def ref_satisfies_complete(s):
    m, n = s.params.m, s.params.n
    for elems, k, want, kind in ((s.points, m, n - 1, "points"),
                                 (s.lines, n, m - 1, "lines")):
        for sub in colex_combinations(elems, k):
            count = len(ref_common(s, sub))
            if count != want:
                return False, kind, frozenset(sub), count
    return True, None, None, None


def ref_lazy_forced(work, sub, sort, want):
    have = set(work.neighbors(sub[0]))
    for e in sub[1:]:
        have &= work.neighbors(e)
    while len(have) < want:
        have.add(work._spawn(sort, frozenset(sub)))
    return frozenset(have)


def ref_lazy_closure(work, seed, stage_budget):
    """The old ``LazyCompletion.closure``: (stages, converged, capped)."""
    m, n = work.params.m, work.params.n
    cur = frozenset(seed)
    stages = [cur]
    for _ in range(stage_budget):
        pts = sorted(e for e in cur if work.sort(e) is Sort.POINT)
        lns = sorted(e for e in cur if work.sort(e) is Sort.LINE)
        nxt = set(cur)
        try:
            for sigma in colex_combinations(pts, m):
                nxt |= ref_lazy_forced(work, sigma, Sort.LINE, n - 1)
            for tau in colex_combinations(lns, n):
                nxt |= ref_lazy_forced(work, tau, Sort.POINT, m - 1)
        except BudgetError:
            return tuple(stages), False, True
        nxt = frozenset(nxt)
        if nxt == cur:
            return tuple(stages), True, False
        cur = nxt
        stages.append(cur)
    return tuple(stages), False, False


# ---------------------------------------------------------------------------
# inputs


PARAMS = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


def ambient(rng):
    """A random free structure, or a completion stage of one."""
    m, n = rng.choice(PARAMS)
    s = random_free_structure(rng, m, n, max_elements=9)
    if rng.random() < 0.5:
        try:
            s = free_completion(s, rng.randint(1, 2), element_cap=120).final.structure
        except BudgetError:
            pass
    return s


def subset(rng, pool, most):
    pool = sorted(pool)
    return frozenset(rng.sample(pool, rng.randint(0, min(most, len(pool)))))


# ---------------------------------------------------------------------------
# finite ambients


@given(seeds)
@settings(max_examples=250, deadline=None)
def test_finite_engine_matches_reference_loops(seed):
    rng = random.Random(seed)
    s = ambient(rng)
    seed_set = subset(rng, s.elements(), 6)
    for budget in range(5):
        run = closure_stages(s, seed_set, budget)
        assert (run.stages, run.converged) == ref_closure_stages(s, seed_set, budget)
    assert i_closure(s, seed_set) == ref_i_closure(s, seed_set)
    assert is_i_closed(s, seed_set) == ref_is_i_closed(s, seed_set)
    closed = i_closure(s, seed_set)
    assert is_i_closed(s, closed) == ref_is_i_closed(s, closed) == (True, None)
    target = subset(rng, s.elements(), 4)
    for budget in (None, 0, 1, 2, 3):
        assert generates(s, seed_set, target, budget) == ref_generates(
            s, seed_set, target, budget
        )
    d = _deficient(s)
    assert (d.point_sets, d.line_sets) == ref_deficient(s)
    rep = satisfies_complete(s)
    assert (rep.passed, rep.witness_kind, rep.witness, rep.count) == (
        ref_satisfies_complete(s)
    )


def test_complete_plane_passes_both_completeness_tests():
    # a plane is complete for (2,2); the random ambients rarely are
    s = fano_plane()
    assert satisfies_complete(s).passed
    assert ref_satisfies_complete(s)[0]


# ---------------------------------------------------------------------------
# the lazy workspace


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_lazy_closure_matches_reference_loop(seed):
    rng = random.Random(seed)
    m, n = rng.choice(PARAMS)
    base = random_free_structure(rng, m, n, max_elements=8)
    cap = rng.choice([len(base) + 3, len(base) + 20, 400])
    work, ref = LazyCompletion(base, cap), RecordingCompletion(base, cap)
    # several closures in a row, so later ones meet earlier spawns
    for _ in range(3):
        seed_set = subset(rng, range(len(work)), 5)
        budget = rng.randint(0, 4)
        run = work.closure(seed_set, budget)
        assert (run.stages, run.converged, run.capped) == ref_lazy_closure(
            ref, seed_set, budget
        )
        assert work.snapshot() == ref.snapshot()
        assert spawn_records(work) == spawn_records(ref) == ref.recorded


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_monster_closed_agrees_with_finite_closedness(seed):
    # d is closed in the completion iff it is closed in a workspace that
    # already holds every element d forces
    rng = random.Random(seed)
    m, n = rng.choice(PARAMS)
    base = random_free_structure(rng, m, n, max_elements=8)
    work = LazyCompletion(base, 400)
    d = subset(rng, range(len(work)), 5)
    closed, violator = work.is_monster_closed(d)
    if closed:
        assert violator is None
    else:
        assert violator not in d
    assert (closed, violator) == is_i_closed(work.snapshot(), d)


def quad_query(relation, **kw):
    q = quadrangle_structure()
    return IndepQuery(q, frozenset({0}), frozenset({1}), frozenset(), relation, **kw)


def test_otimes_check_runs_four_lazy_closures(monkeypatch):
    calls = []
    closure = LazyCompletion.closure

    def counted(self, seed, stage_budget=8):
        calls.append(frozenset(seed))
        return closure(self, seed, stage_budget)

    monkeypatch.setattr(LazyCompletion, "closure", counted)
    v = check(quad_query(Relation.OTIMES, stage_budget=3))
    assert v.status is Status.INDEPENDENT
    # C, AC, BC, then the closure of the side-closure union cl(AC) | cl(BC)
    assert calls == [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]


def test_d_indep_closedness_checks_spawn_nothing(monkeypatch):
    grew = []
    checked = []
    monster = LazyCompletion.is_monster_closed

    def watched(self, d):
        before = len(self)
        out = monster(self, d)
        checked.append(d)
        grew.append(len(self) - before)
        return out

    monkeypatch.setattr(LazyCompletion, "is_monster_closed", watched)
    rng = random.Random(60601)
    verdicts = set()
    for _ in range(80):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
        s = random_free_structure(rng, m, n, max_elements=8)
        pool = s.elements()
        a, b, c = (subset(rng, pool, 2) for _ in range(3))
        v = check(IndepQuery(s, a, b, c, Relation.DIV, stage_budget=4,
                             element_cap=3000))
        verdicts.add(v.status)
    assert len(checked) > 100
    assert {Status.INDEPENDENT, Status.DEPENDENT} <= verdicts
    assert not any(grew)


# ---------------------------------------------------------------------------
# input checks of the lazy engine


@pytest.fixture
def work():
    return LazyCompletion(quadrangle_structure(), element_cap=1000)


def test_lazy_closure_rejects_an_unknown_element(work):
    with pytest.raises(ParameterError):
        work.closure({10**6})


def test_monster_closed_rejects_an_unknown_element(work):
    with pytest.raises(ParameterError):
        work.is_monster_closed({99})


def test_lazy_closure_rejects_a_negative_id(work):
    # -1 used to be read as the last element, and the run "converged"
    with pytest.raises(ParameterError):
        work.closure({-1})


def test_lazy_closure_rejects_a_negative_stage_budget(work):
    with pytest.raises(ParameterError):
        work.closure({0, 1}, stage_budget=-1)
    with pytest.raises(ParameterError):
        check(quad_query(Relation.I, stage_budget=-1))
