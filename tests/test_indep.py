"""The four independence checkers and the independent-sequence builder."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmnfree import (
    BudgetError,
    ExistentialPattern,
    IndepQuery,
    LazyCompletion,
    ParameterError,
    Relation,
    Status,
    bm_witness,
    check,
    indep_sequence,
    pattern_consistent,
)
from kmnfree import indep
from kmnfree.core import Sort

from conftest import (
    RecordingCompletion,
    build,
    otimes_over_i_structure,
    random_free_structure,
    spawn_records,
)


def q(ambient, a, b, c, rel, **kw):
    return IndepQuery(ambient, frozenset(a), frozenset(b), frozenset(c),
                      rel, **kw)


# ---------------------------------------------------------------------------
# the separating configuration, frozen for all four parameter pairs


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_config_separates_bases(m, n):
    g = bm_witness(m, n)
    a = {g.by_name("a1"), g.by_name("a2")}
    b = {g.by_name("b")}
    cs = {g.by_name(f"c{j}") for j in range(1, n)}

    v0 = check(q(g, a, b, frozenset(), Relation.I))
    assert v0.status is Status.INDEPENDENT

    v1 = check(q(g, a, b, cs, Relation.I))
    assert v1.status is Status.DEPENDENT
    assert v1.witness == (g.by_name("b"), g.by_name("z"))
    # document order: point first
    assert g.is_point(v1.witness[0]) and g.is_line(v1.witness[1])


def test_config_alg_does_not_separate():
    # over the c-lines the closures still only overlap inside the base's
    # closure, so the plain alg relation calls the pair independent
    g = bm_witness(2, 2)
    a = {g.by_name("a1"), g.by_name("a2")}
    b = {g.by_name("b")}
    v = check(q(g, a, b, {g.by_name("c1")}, Relation.ALG))
    assert v.status is Status.INDEPENDENT


def test_alg_dependent_on_forced_overlap():
    s = build(2, 2, points=("x",), lines=("u1", "u2", "v1", "v2"),
              incidences=[("x", "u1"), ("x", "u2"),
                          ("x", "v1"), ("x", "v2")])
    a = {s.by_name("u1"), s.by_name("u2")}
    b = {s.by_name("v1"), s.by_name("v2")}
    v = check(q(s, a, b, frozenset(), Relation.ALG))
    assert v.status is Status.DEPENDENT
    assert v.witness == s.by_name("x")


# ---------------------------------------------------------------------------
# the d relation: quantifying over intermediate closed bases


def test_d_catches_hidden_dependence():
    # B carries the c-line: the intermediate base D={b} exposes the link
    g = bm_witness(2, 2)
    a = {g.by_name("a1"), g.by_name("a2")}
    b = {g.by_name("b"), g.by_name("c1")}
    v = check(q(g, a, b, frozenset(), Relation.DIV))
    assert v.status is Status.DEPENDENT
    d, sub = v.witness
    assert d == frozenset({g.by_name("b")})
    assert sub == (g.by_name("w1"), g.by_name("c1"))


def test_d_over_c_lines():
    g = bm_witness(2, 2)
    a = {g.by_name("a1"), g.by_name("a2")}
    b = {g.by_name("b")}
    cs = frozenset({g.by_name("c1")})
    v = check(q(g, a, b, cs, Relation.DIV))
    assert v.status is Status.DEPENDENT
    d, sub = v.witness
    assert d == cs  # the base itself is the least failing D
    assert sub == (g.by_name("b"), g.by_name("z"))


def test_d_checks_bases_lazily_in_report_order():
    # C itself is the least failing D, so no other base is checked for
    # closedness
    g = bm_witness(2, 2)
    a = {g.by_name("a1"), g.by_name("a2")}
    cs = frozenset({g.by_name("c1")})
    real, seen = LazyCompletion.is_monster_closed, []

    def counting(self, d):
        seen.append(frozenset(d))
        return real(self, d)

    with mock.patch.object(LazyCompletion, "is_monster_closed", counting):
        v = check(q(g, a, {g.by_name("b")}, cs, Relation.DIV))
    assert v.status is Status.DEPENDENT and v.witness[0] == cs
    assert seen == [cs]


def test_d_independent_cases(quadrangle):
    v = check(q(quadrangle, {0, 1}, {2}, frozenset(), Relation.DIV))
    assert v.status is Status.INDEPENDENT
    iso = build(2, 2, points=("p1", "p2", "p3"))
    v2 = check(q(iso, {0}, {1}, frozenset(), Relation.DIV))
    assert v2.status is Status.INDEPENDENT


def test_d_enumeration_bound():
    g = bm_witness(2, 2)
    a = {g.by_name("a1"), g.by_name("a2")}
    b = {g.by_name("b"), g.by_name("c1")}
    v = check(q(g, a, b, frozenset(), Relation.DIV, d_bound=0))
    assert v.status is Status.UNKNOWN
    assert "enumeration bound" in v.detail


# ---------------------------------------------------------------------------
# the tensor relation


def test_otimes_empty_side(quadrangle):
    v = check(q(quadrangle, {0, 1}, frozenset(), frozenset(),
                Relation.OTIMES, stage_budget=3))
    assert v.status is Status.INDEPENDENT


def test_otimes_quadrangle_split(quadrangle):
    v = check(q(quadrangle, {0, 1}, {2, 3}, frozenset(),
                Relation.OTIMES, stage_budget=3))
    assert v.status is Status.INDEPENDENT
    assert "stage 3" in v.detail


def test_otimes_rejects_linked_sides():
    # p3 rides the line through p1,p2: the inner i-check fails first
    s = build(2, 2, points=("p1", "p2", "p3", "p4"), lines=("u",),
              incidences=[("p1", "u"), ("p2", "u"), ("p3", "u")])
    v = check(q(s, {0, 1}, {2, 3}, frozenset(),
                Relation.OTIMES, stage_budget=3))
    assert v.status is Status.DEPENDENT
    assert v.witness == (2, s.by_name("u"))


def test_otimes_dependence_that_i_misses():
    s = otimes_over_i_structure()
    ids = s.by_name
    a, b, c = {ids("p0"), ids("p1")}, {ids("l3")}, {ids("l0")}
    assert check(q(s, a, b, c, Relation.I, stage_budget=4)).status is Status.INDEPENDENT
    v = check(q(s, a, b, c, Relation.OTIMES, stage_budget=4))
    assert v.status is Status.DEPENDENT
    assert v.witness == (ids("l4"), frozenset(ids(f"p{i}") for i in range(4)))
    assert "'l4' meets 4 elements of stage 1" in v.detail


# ---------------------------------------------------------------------------
# budget behavior and validation


def test_unknown_on_stage_budget(quadrangle):
    v = check(q(quadrangle, {0, 1}, {2}, frozenset(), Relation.I,
                stage_budget=0))
    assert v.status is Status.UNKNOWN
    assert "converge" in v.detail


def test_unknown_on_element_cap(quadrangle):
    v = check(q(quadrangle, {0, 1}, {2}, frozenset(), Relation.I,
                element_cap=4))
    assert v.status is Status.UNKNOWN
    assert "element cap" in v.detail


def div_check(**budgets):
    g = bm_witness(2, 2)
    a = frozenset({g.by_name("a1"), g.by_name("a2")})
    b = frozenset({g.by_name("b")})
    return check(IndepQuery(g, a, b, frozenset(), Relation.DIV, **budgets))


def pattern_check(**budgets):
    pat = ExistentialPattern(build(2, 2, points=("y",), lines=("w",)),
                             (), (0,), (1,))
    return pattern_consistent(build(2, 2, points=("p",)), pat, [(0,)], **budgets)


@pytest.mark.parametrize("run, budgets", [
    (div_check, {"d_bound": -1}),
    (div_check, {"element_cap": -1}),
    (pattern_check, {"candidate_budget": -1}),
    (pattern_check, {"element_cap": -1}),
])
def test_negative_budgets_are_parameter_errors(run, budgets):
    # as on the command line: not an exhausted budget (UNKNOWN), and not a
    # verdict reached with no room at all
    run()
    with pytest.raises(ParameterError, match="budget must be >= 0"):
        run(**budgets)


def test_query_validates_elements(quadrangle):
    with pytest.raises(ParameterError):
        q(quadrangle, {0, 99}, {2}, frozenset(), Relation.I)


def test_verdict_truthiness(quadrangle):
    assert check(q(quadrangle, {0}, {1}, frozenset(), Relation.ALG))
    g = bm_witness(2, 2)
    assert not check(q(g, {0, 3}, {1}, {4}, Relation.I))


# ---------------------------------------------------------------------------
# independent sequences


def test_sequence_of_three(quadrangle):
    seq = indep_sequence(quadrangle, (0,), frozenset(), 3)
    assert len(seq.tuples) == 3
    assert seq.c_ids == frozenset()
    amb = seq.ambient
    # pairwise independent in the extended ambient
    for i in range(3):
        for j in range(i + 1, 3):
            v = check(q(amb, set(seq.tuples[i]), set(seq.tuples[j]),
                        frozenset(), Relation.I))
            assert v.status is Status.INDEPENDENT, (i, j)
    # the copies carry primed names
    names = [tuple(amb.name(e) for e in t) for t in seq.tuples]
    assert names == [("p1",), ("p1'",), ("p1''",)]


def test_sequence_of_mixed_tuples():
    # one point and one line per tuple: the joint closure of all copies
    # stays finite, so every pairwise verification is decided
    amb0 = build(2, 2, points=("b0",), lines=("c1",))
    seq = indep_sequence(amb0, (0, 1), frozenset(), 3)
    amb = seq.ambient
    names = [tuple(amb.name(e) for e in t) for t in seq.tuples]
    assert names == [("b0", "c1"), ("b0'", "c1'"), ("b0''", "c1''")]
    for t in seq.tuples:
        assert amb.is_point(t[0]) and amb.is_line(t[1])


def test_sequence_over_base():
    g = bm_witness(2, 2)
    cs = frozenset({g.by_name("c1")})
    seq = indep_sequence(g, (g.by_name("b"),), cs, 2)
    amb = seq.ambient
    assert len(seq.tuples) == 2
    assert seq.tuples[0] != seq.tuples[1]
    # base names survive untouched
    assert {amb.name(e) for e in seq.c_ids} == {"c1"}
    v = check(q(amb, set(seq.tuples[0]), set(seq.tuples[1]), seq.c_ids,
                Relation.I))
    assert v.status is Status.INDEPENDENT


def test_sequence_validation(quadrangle):
    with pytest.raises(ParameterError):
        indep_sequence(quadrangle, (0,), frozenset(), 0)
    with pytest.raises(ParameterError):
        indep_sequence(quadrangle, (0,), frozenset(), 2,
                       relation=Relation.DIV)
    with pytest.raises(BudgetError):
        indep_sequence(quadrangle, (0, 1), frozenset(), 2, stage_budget=0)


@pytest.mark.parametrize("status", list(Status))
def test_sequence_check_only_refutes(quadrangle, monkeypatch, status):
    # independent by construction: only a DEPENDENT verdict stops the build
    monkeypatch.setattr(indep, "check",
                        lambda query: indep.Verdict(status, detail="stub"))
    if status is Status.DEPENDENT:
        with pytest.raises(RuntimeError, match="construction bug"):
            indep_sequence(quadrangle, (0,), frozenset(), 2)
    else:
        assert len(indep_sequence(quadrangle, (0,), frozenset(), 2).tuples) == 2


@pytest.mark.parametrize("relation", [Relation.ALG, Relation.I])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sequences_are_independent_by_construction(m, n, relation):
    # each b_i joins its predecessors by a free amalgam over the converged
    # closure of c: no check finds it dependent on them over c, and some
    # checks decide it independent, so the property is not vacuous
    cap, length, decided = 500, 3, 0
    for seed in range(40):
        rng = random.Random(seed)
        amb = random_free_structure(rng, m, n)
        elems = sorted(amb.elements())
        b = rng.sample(elems, rng.randint(1, min(2, len(elems))))
        rest = [e for e in elems if e not in b]
        c = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
        try:
            seq = indep_sequence(amb, b, c, length, relation, element_cap=cap)
        except BudgetError:  # the closures of c or bc did not converge
            continue
        for i in range(1, length):
            before = {e for t in seq.tuples[:i] for e in t}
            v = check(q(seq.ambient, seq.tuples[i], before, seq.c_ids, relation,
                        element_cap=cap))
            assert v.status is not Status.DEPENDENT, (seed, i, v.detail)
            decided += v.status is Status.INDEPENDENT
    assert decided


# ---------------------------------------------------------------------------
# the one checker against reference copies of the former checkers, which
# ran the three closures of an I check over every DIV base in a snapshot


def ref_unconverged(runs):
    for label, run in runs:
        if not run.converged:
            why = "element cap" if run.capped else "stage budget"
            return f"closure of {label} did not converge ({why})"
    return None


def ref_alg(q, work):
    runs = tuple(work.closure(s, q.stage_budget) for s in (q.c, q.a | q.c, q.b | q.c))
    stuck = ref_unconverged(zip(("C", "AC", "BC"), runs))
    if stuck:
        return runs, indep.Verdict(Status.UNKNOWN, None, stuck)
    rc, ra, rb = runs
    overlap = (ra.closure_set & rb.closure_set) - rc.closure_set
    if overlap:
        w = min(overlap)
        return runs, indep.Verdict(
            Status.DEPENDENT, w, f"element {work.name(w)!r} lies in both closures")
    return runs, indep.Verdict(Status.INDEPENDENT)


def ref_i(q, work):
    runs, v = ref_alg(q, work)
    if v.status is not Status.INDEPENDENT:
        return runs, v
    rc, ra, rb = runs
    right = rb.closure_set - rc.closure_set
    for x in sorted(ra.closure_set - rc.closure_set):
        hit = work.neighbors(x) & right
        if hit:
            y = min(hit)
            p, l = (x, y) if work.sort(x) is Sort.POINT else (y, x)
            return runs, indep.Verdict(
                Status.DEPENDENT, (p, l),
                f"incidence between {work.name(p)!r} and {work.name(l)!r} "
                "joins the two closures")
    return runs, v


def ref_d(q, work):
    rbc = work.closure(q.b | q.c, q.stage_budget)
    stuck = ref_unconverged((("BC", rbc),))
    if stuck:
        return indep.Verdict(Status.UNKNOWN, None, stuck)
    free_part = sorted(rbc.closure_set - q.c)
    if len(free_part) > q.d_bound:
        return indep.Verdict(
            Status.UNKNOWN, None,
            f"closure of BC exceeds the enumeration bound "
            f"({len(free_part)} > {q.d_bound} elements over C)")
    ds = []
    for r in range(len(free_part) + 1):
        for extra in itertools.combinations(free_part, r):
            d = frozenset(q.c) | frozenset(extra)
            if work.is_monster_closed(d)[0]:
                ds.append(d)
    ds.sort(key=lambda d: (len(d), sorted(d)))
    ambient_now = work.snapshot()
    for d in ds:
        sub = IndepQuery(ambient_now, q.a, q.b, d, Relation.I,
                         stage_budget=q.stage_budget, element_cap=q.element_cap)
        v = ref_i(sub, work)[1]
        if v.status is Status.UNKNOWN:
            return indep.Verdict(
                Status.UNKNOWN, None, f"sub-query over D={sorted(d)}: {v.detail}")
        if v.status is Status.DEPENDENT:
            names = sorted(work.name(e) for e in d)
            return indep.Verdict(
                Status.DEPENDENT, (d, v.witness),
                f"I-dependence over intermediate base D={names}: {v.detail}")
    return indep.Verdict(Status.INDEPENDENT)


def ref_check(q):
    work = RecordingCompletion(q.ambient, q.element_cap)
    if q.relation is Relation.ALG:
        return ref_alg(q, work)[1], work
    if q.relation is Relation.I:
        return ref_i(q, work)[1], work
    return ref_d(q, work), work


class Recorded(RecordingCompletion):
    """A workspace that remembers itself, so a test can see check's."""

    made = []

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        Recorded.made.append(self)


def checked(q):
    """check(q), and the workspace it left behind."""
    Recorded.made.clear()
    with mock.patch.object(indep, "LazyCompletion", Recorded):
        v = check(q)
    (work,) = Recorded.made
    return v, work


def random_query(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(2, 2), (2, 3), (3, 2)])
    s = random_free_structure(rng, m, n, max_elements=8)
    pool = sorted(s.elements())
    a, b, c = (frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
               for _ in range(3))
    return IndepQuery(
        s, a, b, c, rng.choice([Relation.ALG, Relation.I, Relation.DIV]),
        stage_budget=rng.randint(0, 4),
        element_cap=len(s) + rng.randint(0, 80),
        d_bound=rng.choice([3, 16]),
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_check_matches_the_former_checkers(seed):
    q = random_query(seed)
    v, work = checked(q)
    want, ref_work = ref_check(q)
    assert v == want
    assert work.snapshot() == ref_work.snapshot()
    assert spawn_records(work) == spawn_records(ref_work)
    assert spawn_records(work) == work.recorded == ref_work.recorded


def test_reference_comparison_reaches_every_outcome():
    # the random queries above hit each budget and both decided verdicts
    seen = set()
    for seed in range(400):
        q = random_query(seed)
        v, _ = checked(q)
        assert v == ref_check(q)[0]
        kind = v.status.name
        for cause in ("element cap", "stage budget", "enumeration bound"):
            if cause in v.detail:
                kind += " " + cause
        seen.add((q.relation, kind))
    for rel in (Relation.ALG, Relation.I, Relation.DIV):
        for kind in ("INDEPENDENT", "DEPENDENT", "UNKNOWN element cap",
                     "UNKNOWN stage budget"):
            assert (rel, kind) in seen, (rel, kind)
    assert (Relation.DIV, "UNKNOWN enumeration bound") in seen


def test_div_runs_one_closure_per_closed_base(monkeypatch):
    # one closure of BC, then one of AD for each base examined
    bases = []
    closures = []
    closure = LazyCompletion.closure
    monster = LazyCompletion.is_monster_closed

    def counted(self, seed, stage_budget=8):
        closures.append(frozenset(seed))
        return closure(self, seed, stage_budget)

    def closed(self, d):
        out = monster(self, d)
        if out[0]:
            bases.append(frozenset(d))
        return out

    monkeypatch.setattr(LazyCompletion, "closure", counted)
    monkeypatch.setattr(LazyCompletion, "is_monster_closed", closed)
    tried = 0
    for seed in range(200):
        q = random_query(seed)
        if q.relation is not Relation.DIV:
            continue
        bases.clear()
        closures.clear()
        v = check(q)
        if "closure of BC" in v.detail:
            assert closures == [q.b | q.c]
            continue
        ordered = sorted(bases, key=lambda d: (len(d), sorted(d)))
        examined = len(closures) - 1
        assert closures == [q.b | q.c] + [q.a | d for d in ordered[:examined]]
        if v.status is Status.INDEPENDENT:
            assert examined == len(bases)
        elif v.status is Status.DEPENDENT:
            assert v.witness[0] == ordered[examined - 1]
        elif "enumeration bound" in v.detail:
            assert examined == 0 and not bases
        else:
            last = sorted(ordered[examined - 1])
            assert v.detail.startswith(f"sub-query over D={last}")
        tried += 1
    assert tried > 20
