"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [criterion NN] PASS line with its runtime;
the runtime limits are asserted, not aspirational.
"""

import itertools
import random
import time

import pytest

from kmnfree import (
    BudgetError,
    GlueHypothesisError,
    GlueProblem,
    IndepQuery,
    PatternStatus,
    Relation,
    SearchStatus,
    Status,
    StructParams,
    StructureBuilder,
    Ternary,
    bm_witness,
    check,
    common_neighbors,
    embed_in_finite_plane,
    fano_plane,
    find_projective_plane,
    free_amalgam,
    free_completion,
    gamma,
    gamma_invariants,
    generates,
    i_closure,
    indep_sequence,
    independence_glue,
    induced,
    is_i_closed,
    is_kmn_free,
    isomorphic_over,
    nonfree_completion_probe,
    pattern_consistent,
    relative_free_completion,
    satisfies_complete,
    separating_check,
    tp2_pattern,
)
from kmnfree.finsearch import enumerate_projective_planes

from conftest import build, quadrangle_structure, random_free_structure
from test_completion import QUAD_SIZES, naive_completion
from test_gamma import BASE_TABLE


class timer:
    def __init__(self, number, limit):
        self.number = number
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        if exc[0] is None:
            assert dt < self.limit, (
                f"criterion {self.number} took {dt:.2f}s, limit {self.limit}s"
            )
            print(f"[criterion {self.number:02d}] PASS ({dt:.2f}s / "
                  f"limit {self.limit}s)")
        else:
            print(f"[criterion {self.number:02d}] FAIL after {dt:.2f}s")
        return False


def test_criterion_01_base_family_member():
    with timer(1, 1.0):
        g = gamma("")
        s = g.structure
        assert sorted(s.names(s.points)) == [
            "a1", "a2", "a3", "a4", "b^0_1", "b^0_2", "b^0_3"]
        assert sorted(s.names(s.lines)) == sorted(BASE_TABLE)
        assert s.incidence_count() == 24
        for lname, pts in BASE_TABLE.items():
            assert set(s.names(s.neighbors(s.by_name(lname)))) == pts
        assert is_kmn_free(s)[0]
        seed = frozenset(s.by_name(f"a{i}") for i in range(1, 5))
        verdict, _ = generates(s, seed, frozenset(s.elements()))
        assert verdict is Ternary.YES
        # the six top-level line pairs stay open
        for n1, n2 in [("r1", "s^0_3"), ("r2", "s^0_2"), ("r3", "s^0_1"),
                       ("r4", "s^0_1"), ("r5", "s^0_2"), ("r6", "s^0_3")]:
            assert not common_neighbors(
                s, (s.by_name(n1), s.by_name(n2))), (n1, n2)


def test_criterion_02_family_invariants_to_depth_4():
    with timer(2, 10.0):
        count = 0
        for k in range(5):
            for bits in itertools.product((0, 1), repeat=k):
                g = gamma(bits)
                s = g.structure
                assert len(s.points) == 7 + 6 * k
                assert len(s.lines) == 9 + sum(4 + b for b in bits)
                rep = gamma_invariants(g)
                assert rep.ok, (bits, rep.failures)
                count += 1
        assert count == 31


def test_criterion_03_separation_to_depth_3():
    with timer(3, 30.0):
        for k in range(4):
            for bits in itertools.product((0, 1), repeat=k):
                assert separating_check(bits), bits


def test_criterion_04_completion_vs_oracle():
    with timer(4, 1.0):
        s = quadrangle_structure()
        run = free_completion(s, 4)
        assert run.sizes() == QUAD_SIZES[:5] == [4, 10, 13, 16, 22]
        sizes, sorts, adj, spawner = naive_completion(s, 4)
        assert run.sizes() == sizes
        final = run.final
        for e in final.structure.elements():
            assert adj[e] == final.structure.neighbors(e)
        # at birth every fresh element is incident to exactly its spawner set
        for e, p in final.provenance.items():
            if p.stage > 0:
                born = run.stages[p.stage].structure
                assert born.neighbors(e) == p.spawner == spawner[e]


def test_criterion_05_base_monotonicity_failure():
    with timer(5, 5.0):
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            g = bm_witness(m, n)
            a = frozenset({g.by_name("a1"), g.by_name("a2")})
            b = frozenset({g.by_name("b")})
            cs = frozenset(g.by_name(f"c{j}") for j in range(1, n))
            v0 = check(IndepQuery(g, a, b, frozenset(), Relation.I))
            assert v0.status is Status.INDEPENDENT, (m, n)
            v1 = check(IndepQuery(g, a, b, cs, Relation.I))
            assert v1.status is Status.DEPENDENT, (m, n)
            assert v1.witness == (g.by_name("b"), g.by_name("z")), (m, n)


def test_criterion_06_pattern_over_sequence():
    with timer(6, 60.0):
        m, n = 2, 2
        r = (m + 1) * (n - 1)
        assert r == 3
        bld = StructureBuilder(StructParams(m, n))
        b0 = bld.add_point("b0")
        cs = [bld.add_line(f"c{j}") for j in range(1, n)]
        ambient = bld.build()
        pat = tp2_pattern(m, n)

        seq1 = indep_sequence(ambient, (b0,), frozenset(cs), 1)
        one = [t + tuple(sorted(seq1.c_ids)) for t in seq1.tuples]
        v1 = pattern_consistent(seq1.ambient, pat, one, stage_budget=1)
        assert v1.status is PatternStatus.CONSISTENT

        seqr = indep_sequence(ambient, (b0,), frozenset(cs), r)
        many = [t + tuple(sorted(seqr.c_ids)) for t in seqr.tuples]
        vr = pattern_consistent(seqr.ambient, pat, many, stage_budget=1)
        assert vr.status is PatternStatus.INCONSISTENT


def _by_name_map(base, s):
    return {e: s.by_name(base.name(e)) for e in base.elements()}


def _random_glue_problem(rng):
    """A glue problem built from three free amalgams over a random base,
    or None when a draw fails its closedness screen."""
    db = StructureBuilder(StructParams(2, 2))
    for i in range(rng.randint(0, 2)):
        (db.add_point if rng.random() < 0.5 else db.add_line)(f"d{i}")
    d = db.build()
    d_ids = frozenset(d.elements())

    def one_side(prefix):
        b = StructureBuilder.from_structure(d)
        priv = []
        for i in range(rng.randint(1, 2)):
            nm = f"{prefix}{i}"
            priv.append(b.add_point(nm) if rng.random() < 0.5
                        else b.add_line(nm))
        for _ in range(rng.randint(0, 3)):
            s_now = b.build()
            pts = [e for e in s_now.elements() if s_now.is_point(e)]
            lns = [e for e in s_now.elements() if s_now.is_line(e)]
            if not pts or not lns:
                break
            p, l = rng.choice(pts), rng.choice(lns)
            if p not in priv and l not in priv:
                continue
            try:
                b.add_incidence(p, l)
            except ValueError:
                pass
        return b.build()

    xa, xb, xc = one_side("a"), one_side("b"), one_side("c")
    for x in (xa, xb, xc):
        if not is_i_closed(x, d_ids)[0]:
            return None
    try:
        ab = free_amalgam(d, xa, xb, _by_name_map(d, xa), _by_name_map(d, xb))
        ac = free_amalgam(d, xa, xc, _by_name_map(d, xa), _by_name_map(d, xc))
        bc = free_amalgam(d, xb, xc, _by_name_map(d, xb), _by_name_map(d, xc))
    except ValueError:
        return None
    names = frozenset(d.name(e) for e in d.elements())
    return GlueProblem(names, xa, xb, xc,
                       ab.structure, ac.structure, bc.structure)


def _strip_element(s, name):
    b = StructureBuilder(s.params)
    for e in sorted(s.elements()):
        if s.name(e) == name:
            continue
        (b.add_point if s.is_point(e) else b.add_line)(s.name(e))
    out = b.build()
    for p, l in s.incidences():
        if s.name(p) != name and s.name(l) != name:
            b.add_incidence(out.by_name(s.name(p)), out.by_name(s.name(l)),
                            guard=False)
    return b.build()


def _add_isolated(s, name, as_point):
    b = StructureBuilder.from_structure(s)
    (b.add_point if as_point else b.add_line)(name)
    return b.build()


def test_criterion_07_randomized_gluing():
    with timer(7, 60.0):
        rng = random.Random(4242)
        done = 0
        attempts = 0
        while done < 200:
            attempts += 1
            assert attempts < 3000, "generator starved"
            g = _random_glue_problem(rng)
            if g is None:
                continue
            support = set()
            for x in (g.x_ab, g.x_ac, g.x_bc):
                support |= {x.name(e) for e in x.elements()}
            if len(support) > 12:
                continue
            try:
                glued = independence_glue(g, stage_budget=4, element_cap=2000)
            except BudgetError:
                continue
            ok, wit = is_kmn_free(glued.structure)
            assert ok, wit
            done += 1

        # violating instances name the hypothesis that fails
        rejected = 0
        trials = 0
        while rejected < 40 and trials < 2000:
            trials += 1
            g = _random_glue_problem(rng)
            if g is None:
                continue
            kind = rng.randrange(4)
            if kind == 0 and g.d_names:
                nm = sorted(g.d_names)[0]
                was_point = g.x_c.is_point(g.x_c.by_name(nm))
                xc = _add_isolated(_strip_element(g.x_c, nm), nm,
                                   not was_point)
                bad = GlueProblem(g.d_names, g.x_a, g.x_b, xc,
                                  g.x_ab, g.x_ac, g.x_bc)
                expect = "sorts:consistent"
            elif kind == 1 and g.d_names:
                nm = sorted(g.d_names)[0]
                bad = GlueProblem(g.d_names, g.x_a,
                                  _strip_element(g.x_b, nm), g.x_c,
                                  g.x_ab, g.x_ac, g.x_bc)
                expect = "base:D<=X_b"
            elif kind == 2:
                priv = sorted({g.x_a.name(e) for e in g.x_a.elements()}
                              - g.d_names)
                if not priv:
                    continue
                nm = priv[0]
                xb = _add_isolated(g.x_b, nm,
                                   g.x_a.is_point(g.x_a.by_name(nm)))
                bad = GlueProblem(g.d_names, g.x_a, xb, g.x_c,
                                  g.x_ab, g.x_ac, g.x_bc)
                expect = "intersection:X_a^X_b=D"
            elif kind == 3:
                priv = sorted({g.x_b.name(e) for e in g.x_b.elements()}
                              - g.d_names)
                if not priv:
                    continue
                nm = priv[0]
                xac = _add_isolated(g.x_ac, nm,
                                    g.x_b.is_point(g.x_b.by_name(nm)))
                bad = GlueProblem(g.d_names, g.x_a, g.x_b, g.x_c,
                                  g.x_ab, xac, g.x_bc)
                expect = "intersection:X_ab^X_ac=X_a"
            else:
                continue
            with pytest.raises(GlueHypothesisError) as exc:
                independence_glue(bad, stage_budget=4, element_cap=2000)
            assert exc.value.hypothesis == expect, exc.value.detail
            rejected += 1
        assert rejected >= 40

        # dependence inside a join is caught under its own name
        xa = build(2, 2, points=("a1", "a2"))
        xb = build(2, 2, points=("b",))
        xc = build(2, 2, points=("c",))
        xab = build(2, 2, points=("a1", "a2", "b"), lines=("w",),
                    incidences=[("a1", "w"), ("a2", "w"), ("b", "w")])
        xac = build(2, 2, points=("a1", "a2", "c"))
        xbc = build(2, 2, points=("b", "c"))
        with pytest.raises(GlueHypothesisError) as exc:
            independence_glue(GlueProblem(frozenset(), xa, xb, xc,
                                          xab, xac, xbc))
        assert exc.value.hypothesis == "indep:a_I_b"


def test_criterion_08_randomized_relative_completion():
    with timer(8, 60.0):
        rng = random.Random(999)
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 1000, "generator starved"
            b_s = random_free_structure(rng, max_elements=10)
            pool = sorted(b_s.elements())
            seed = frozenset(rng.sample(pool,
                                        rng.randint(0, min(4, len(pool)))))
            a_set = i_closure(b_s, seed)
            try:
                run = relative_free_completion(b_s, a_set, 3,
                                               element_cap=20_000)
            except BudgetError:
                continue

            # postcondition 1: every Y_k is closed in its stage structure
            for k, yk in enumerate(run.y_stages):
                assert is_i_closed(run.x_run.stages[k].structure, yk)[0]
            # postcondition 2: C meets B exactly in A
            assert run.c & frozenset(b_s.elements()) == a_set
            # postcondition 3: no incidence joins C-A to B-A
            final = run.x_run.final.structure
            b_minus_a = frozenset(b_s.elements()) - a_set
            for e in run.c - a_set:
                assert not (final.neighbors(e) & b_minus_a)
            # C matches the standalone completion of A, stage by stage
            corr = run.correspondence
            for k in range(4):
                fk = run.free_a.stages[k].structure
                yk_struct, remap = induced(run.x_run.stages[k].structure,
                                           run.y_stages[k])
                base = {e: remap[corr[e]] for e in fk.elements()}
                assert isomorphic_over(fk, yk_struct, base), k
            done += 1


def test_criterion_09_plane_search_and_embeddings():
    with timer(9, 10.0):
        r1 = find_projective_plane(1)
        assert r1.status is SearchStatus.FOUND
        assert len(r1.plane.points) == len(r1.plane.lines) == 3
        assert satisfies_complete(r1.plane).passed

        r2 = find_projective_plane(2)
        assert r2.status is SearchStatus.FOUND
        assert len(r2.plane.points) == len(r2.plane.lines) == 7
        assert satisfies_complete(r2.plane).passed
        planes, exhausted, _ = enumerate_projective_planes(2)
        assert exhausted
        for p in planes:
            assert isomorphic_over(p, r2.plane, {})

        tri = build(2, 2, points=("x1", "x2", "x3"),
                    lines=("e12", "e13", "e23"),
                    incidences=[("x1", "e12"), ("x2", "e12"),
                                ("x1", "e13"), ("x3", "e13"),
                                ("x2", "e23"), ("x3", "e23")])
        assert embed_in_finite_plane(tri, 2).status is SearchStatus.FOUND
        assert embed_in_finite_plane(fano_plane(), 2).status is \
            SearchStatus.FOUND

    with timer(9, 600.0):
        r3 = find_projective_plane(3)
        assert r3.status is SearchStatus.FOUND
        assert len(r3.plane.points) == 13
        assert satisfies_complete(r3.plane).passed
        s13 = free_completion(quadrangle_structure(), 2).final.structure
        assert len(s13) == 13
        e = embed_in_finite_plane(s13, 3)
        assert e.status is SearchStatus.FOUND
        for p in s13.points:
            for l in s13.lines:
                assert s13.incident(p, l) == r3.plane.incident(
                    e.mapping[p], e.mapping[l])


def test_criterion_10_relation_laws_on_random_queries():
    with timer(10, 120.0):
        rng = random.Random(31415)

        def ask(s, a, b, c, rel):
            return check(IndepQuery(s, a, b, c, rel,
                                    stage_budget=4, element_cap=3000))

        def draw(pool, most):
            k = rng.randint(0, min(most, len(pool)))
            return frozenset(rng.sample(pool, k))

        decided = 0
        attempts = 0
        while decided < 500:
            attempts += 1
            assert attempts < 5000, "generator starved"
            s = random_free_structure(rng, max_elements=12)
            pool = sorted(s.elements())
            a, b, c = draw(pool, 3), draw(pool, 3), draw(pool, 2)
            vs = {rel: ask(s, a, b, c, rel)
                  for rel in (Relation.DIV, Relation.I, Relation.ALG)}
            if any(v.status is Status.UNKNOWN for v in vs.values()):
                continue
            decided += 1
            # implication chain d => i => a
            if vs[Relation.DIV].status is Status.INDEPENDENT:
                assert vs[Relation.I].status is Status.INDEPENDENT
            if vs[Relation.I].status is Status.INDEPENDENT:
                assert vs[Relation.ALG].status is Status.INDEPENDENT
            # symmetry of the two symmetric relations
            for rel in (Relation.ALG, Relation.I):
                rev = ask(s, b, a, c, rel)
                if rev.status is not Status.UNKNOWN:
                    assert rev.status is vs[rel].status

        fired = 0
        attempts = 0
        while fired < 50 and attempts < 3000:
            attempts += 1
            s = random_free_structure(rng, max_elements=12)
            pool = sorted(s.elements())
            b = draw(pool, 5)
            c = frozenset(rng.sample(sorted(b), rng.randint(0, len(b))))
            d = frozenset(rng.sample(sorted(c), rng.randint(0, len(c))))
            a = draw(pool, 3)
            lower = ask(s, a, c, d, Relation.I)
            upper = ask(s, a, b, c, Relation.I)
            if (lower.status is Status.INDEPENDENT
                    and upper.status is Status.INDEPENDENT):
                fired += 1
                total = ask(s, a, b, d, Relation.I)
                assert total.status is not Status.DEPENDENT
        assert fired >= 50


def test_criterion_11_nonfree_completion_probe():
    with timer(11, 30.0):
        res = nonfree_completion_probe(quadrangle_structure())
        assert res.ok
        b0 = res.b0
        assert is_kmn_free(b0)[0]

        # a 14-element subset of B0 is a copy of the 7-point plane
        assert len(res.fano_witness) == 14
        sub, _ = induced(b0, res.fano_witness)
        plane = find_projective_plane(2).plane
        assert isomorphic_over(sub, plane, {})

        # stage-matched continuations diverge over the original seed:
        # B0 serves all three point pairs with one line, the free side
        # spends three, so the sizes (and structures) come apart
        cert = res.certificate
        c_pts = [res.names[k] for k in ("c1", "c2", "c3")]
        for pair in itertools.combinations(c_pts, 2):
            assert b0.forced(pair) == {cert.shared_line}
        assert len(set(cert.free_lines)) == 3
        assert len(cert.free_side) != len(b0)
        seed_base = {e: e for e in quadrangle_structure().elements()}
        assert not isomorphic_over(b0, cert.free_side, seed_base)
