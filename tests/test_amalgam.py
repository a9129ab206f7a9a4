"""Safe diagrams, free amalgamation, independent gluing, pattern search."""

import itertools
import random

import pytest

from kmnfree import (
    ExistentialPattern,
    FreenessViolationError,
    GlueHypothesisError,
    GlueProblem,
    ParameterError,
    PatternStatus,
    PreconditionError,
    SafeDiagram,
    Sort,
    StructureBuilder,
    extension_witness,
    free_amalgam,
    independence_glue,
    induced,
    is_kmn_free,
    isomorphic_over,
    pattern_consistent,
)
from kmnfree import amalgam, core
from kmnfree.amalgam import validate_safe_diagram

from conftest import build, random_free_structure


# ---------------------------------------------------------------------------
# oracle: the free amalgam is the incidence-disjoint union over the base


def oracle_amalgam_shape(base, left, right, lmap, rmap, am):
    """Check am against the by-hand description: element set = left ⊔
    (right ∖ base image), incidences exactly the union of the two sides."""
    assert len(am.structure) == len(left) + len(right) - len(base)
    # both sides embed
    for src, emb in ((left, am.left_map), (right, am.right_map)):
        assert sorted(emb) == sorted(src.elements())
        for p, l in src.incidences():
            assert am.structure.incident(emb[p], emb[l])
    # base images agree
    for e in base.elements():
        assert am.left_map[lmap[e]] == am.right_map[rmap[e]]
    # no incidences beyond the two sides
    expected = {
        (am.left_map[p], am.left_map[l]) for p, l in left.incidences()
    } | {(am.right_map[p], am.right_map[l]) for p, l in right.incidences()}
    assert set(am.structure.incidences()) == expected


def id_maps_by_name(base, left, right):
    lmap = {e: left.by_name(base.name(e)) for e in base.elements()}
    rmap = {e: right.by_name(base.name(e)) for e in base.elements()}
    return lmap, rmap


# ---------------------------------------------------------------------------
# free amalgamation


def test_free_amalgam_of_two_flags():
    base = build(2, 2, points=("p",))
    left = build(2, 2, points=("p", "q"), lines=("u",),
                 incidences=[("p", "u"), ("q", "u")])
    right = build(2, 2, points=("p", "r"), lines=("v",),
                  incidences=[("p", "v"), ("r", "v")])
    lmap, rmap = id_maps_by_name(base, left, right)
    am = free_amalgam(base, left, right, lmap, rmap)
    oracle_amalgam_shape(base, left, right, lmap, rmap, am)
    assert is_kmn_free(am.structure)[0]


def test_free_amalgam_name_priming():
    # both sides name a private element "x": the right one gets primed
    base = build(2, 2, points=("p",))
    left = build(2, 2, points=("p", "x"))
    right = build(2, 2, points=("p", "x"))
    lmap, rmap = id_maps_by_name(base, left, right)
    am = free_amalgam(base, left, right, lmap, rmap)
    names = sorted(am.structure.name(e) for e in am.structure.elements())
    assert names == ["p", "x", "x'"]
    assert am.structure.name(am.right_map[right.by_name("x")]) == "x'"


def test_free_amalgam_randomized_against_oracle():
    rng = random.Random(50001)
    for _ in range(40):
        right = random_free_structure(rng, max_elements=8)
        # base: a random closed-under-nothing subset is fine for the shape
        # check as long as it embeds in both sides; reuse right's elements
        elems = sorted(right.elements())
        base_ids = rng.sample(elems, rng.randint(0, min(3, len(elems))))
        from kmnfree import induced
        base, remap = induced(right, base_ids)
        # left: base plus one private point
        bl = StructureBuilder.from_structure(base)
        bl.add_point("_priv")
        left = bl.build()
        lmap = {remap[e]: remap[e] for e in base_ids}
        rmap = {remap[e]: e for e in base_ids}
        try:
            am = free_amalgam(base, left, right, lmap, rmap)
        except PreconditionError:
            continue  # base not I-closed in a side: rejected, fine
        oracle_amalgam_shape(base, left, right, lmap, rmap, am)
        assert is_kmn_free(am.structure)[0]


def reference_free_amalgam(base, left, right, lmap, rmap):
    """Reference copy of ``free_amalgam`` as it re-added both sides through
    the builder, without its checks and freeness scan."""
    b = StructureBuilder(base.params)
    left_map, right_map = {}, {}
    for e in left.elements():
        nm = core._primed_name(left.name(e), b._ids)
        left_map[e] = b.add_point(nm) if left.is_point(e) else b.add_line(nm)
    shared = {rmap[a]: left_map[lmap[a]] for a in base.elements()}
    for e in right.elements():
        if e in shared:
            right_map[e] = shared[e]
            continue
        nm = core._primed_name(right.name(e), b._ids)
        right_map[e] = b.add_point(nm) if right.is_point(e) else b.add_line(nm)
    for p, l in left.incidences():
        b.add_incidence(left_map[p], left_map[l], guard=False)
    for p, l in right.incidences():
        b.add_incidence(right_map[p], right_map[l], guard=False)
    return b.build(), left_map, right_map


def random_amalgam_inputs(rng):
    """(base, left, right, lmap, rmap): ``base`` induced on a random subset
    of a random ``right``; ``left`` holds a copy of it among private
    elements, in random id order, whose names may clash with ``right``'s."""
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    right = random_free_structure(rng, m, n, max_elements=8)
    base_ids = sorted(rng.sample(list(right.elements()), rng.randint(0, min(3, len(right)))))
    base, remap = induced(right, base_ids)
    taken = set(base.names(base.elements()))
    private = [nm for nm in ("p0", "p1", "l0", "l1", "x", "x'") if nm not in taken]
    order = [("base", a) for a in base.elements()]
    order += [("new", nm) for nm in rng.sample(private, rng.randint(0, len(private)))]
    rng.shuffle(order)
    b = StructureBuilder(base.params)
    lmap = {}
    for kind, x in order:
        if kind == "base":
            nm, point = base.name(x), base.is_point(x)
        else:
            nm, point = x, rng.random() < 0.5
        e = b.add_point(nm) if point else b.add_line(nm)
        if kind == "base":
            lmap[x] = e
    for p, l in base.incidences():
        b.add_incidence(lmap[p], lmap[l])
    own = set(range(len(order))) - set(lmap.values())
    pts = [e for e in range(len(order)) if b.sort(e) is Sort.POINT]
    lns = [e for e in range(len(order)) if b.sort(e) is Sort.LINE]
    for _ in range(rng.randint(0, 10)):
        if pts and lns:
            p, l = rng.choice(pts), rng.choice(lns)
            if p in own or l in own:
                try:
                    b.add_incidence(p, l)
                except FreenessViolationError:
                    pass
    rmap = {remap[e]: e for e in base_ids}
    return base, b.build(), right, lmap, rmap


def test_free_amalgam_keeps_the_left_side_and_matches_the_builder_copy():
    rng = random.Random(19_002)
    built = refused = 0
    for _ in range(300):
        base, left, right, lmap, rmap = random_amalgam_inputs(rng)
        want, want_left, want_right = reference_free_amalgam(base, left, right, lmap, rmap)
        try:
            am = free_amalgam(base, left, right, lmap, rmap)
        except FreenessViolationError as err:
            refused += 1
            assert is_kmn_free(want) == (False, err.witness)
            continue
        built += 1
        assert am.structure == want
        assert am.left_map == want_left == {e: e for e in left.elements()}
        assert am.right_map == want_right
        base_in_left = set(lmap.values())
        for e in left.elements():
            assert am.structure.name(e) == left.name(e)
            assert am.structure.sort(e) is left.sort(e)
            if e not in base_in_left:
                assert am.structure.neighbors(e) == left.neighbors(e)
            assert {x for x in am.structure.neighbors(e) if x < len(left)} == left.neighbors(e)
    assert built > 200 and refused > 0


def test_free_amalgam_rejects_bad_embedding():
    base = build(2, 2, points=("p",))
    left = build(2, 2, points=("p",))
    right = build(2, 2, points=("q",), lines=("v",))
    with pytest.raises(PreconditionError):
        free_amalgam(base, left, right,
                     {0: 0}, {0: right.by_name("v")})  # sort clash


def test_free_amalgam_grid_in_union_rejected():
    # each side joins p,q by its own private line: the union is a 2x2 grid
    base = build(2, 2, points=("p", "q"))
    left = build(2, 2, points=("p", "q"), lines=("u",),
                 incidences=[("p", "u"), ("q", "u")])
    right = build(2, 2, points=("p", "q"), lines=("v",),
                  incidences=[("p", "v"), ("q", "v")])
    lmap, rmap = id_maps_by_name(base, left, right)
    with pytest.raises(FreenessViolationError):
        free_amalgam(base, left, right, lmap, rmap)


# ---------------------------------------------------------------------------
# safe diagrams and extensions


def flag_diagram():
    dg = build(2, 2, points=("b",), lines=("e",), incidences=[("b", "e")])
    return SafeDiagram(dg, (dg.by_name("b"),), (dg.by_name("e"),))


def test_safe_diagram_validation():
    dg = build(2, 2, points=("b",), lines=("e",))
    with pytest.raises(ParameterError):
        SafeDiagram(dg, (0, 0), (1,))
    with pytest.raises(ParameterError):
        SafeDiagram(dg, (0,), ())
    assert validate_safe_diagram(SafeDiagram(dg, (0,), (1,)))


def test_safety_conditions_reported():
    # extension point on too many base lines
    dg = build(2, 2, points=("x",), lines=("u", "v"),
               incidences=[("x", "u"), ("x", "v")])
    d = SafeDiagram(dg, (dg.by_name("u"), dg.by_name("v")), (dg.by_name("x"),))
    rep = validate_safe_diagram(d)
    assert not rep.ok and rep.condition == 2

    # extension line through too many base points
    dg2 = build(2, 2, points=("p", "q"), lines=("w",),
                incidences=[("p", "w"), ("q", "w")])
    d2 = SafeDiagram(dg2, (0, 1), (dg2.by_name("w"),))
    rep2 = validate_safe_diagram(d2)
    assert not rep2.ok and rep2.condition == 3

    # non-free diagram
    dg3 = build(2, 2, points=("p", "q"), lines=("u", "v"),
                incidences=[(p, l) for p in "pq" for l in "uv"], guard=False)
    d3 = SafeDiagram(dg3, (0, 1), tuple(dg3.by_name(x) for x in "uv"))
    rep3 = validate_safe_diagram(d3)
    assert not rep3.ok and rep3.condition == 1


def test_extension_witness_attaches_line(quadrangle):
    d = flag_diagram()
    ext = extension_witness(quadrangle, [0], d)
    s = ext.structure
    assert len(s) == 5
    new = ext.ext_images[d.ext_vars[0]]
    assert s.is_line(new)
    assert s.neighbors(new) == frozenset({0})
    assert is_kmn_free(s)[0]
    # host is untouched
    assert len(quadrangle) == 4


def test_extension_witness_validates_anchor(quadrangle):
    d = flag_diagram()
    with pytest.raises(PreconditionError):
        extension_witness(quadrangle, [0, 1], d)  # arity
    with pytest.raises(PreconditionError):
        extension_witness(quadrangle, [0, 0], d)  # repeats (arity here too)
    with pytest.raises(ParameterError):
        extension_witness(quadrangle, [99], d)


def test_extension_witness_sort_mismatch(quadrangle):
    dg = build(2, 2, points=("b",), lines=("e",), incidences=[("b", "e")])
    d = SafeDiagram(dg, (dg.by_name("e"),), (dg.by_name("b"),))
    with pytest.raises(PreconditionError):
        extension_witness(quadrangle, [0], d)  # anchor point vs base line


def test_extension_witness_rejects_unsafe_diagram(quadrangle):
    dg = build(2, 2, points=("p", "q"), lines=("w",),
               incidences=[("p", "w"), ("q", "w")])
    d = SafeDiagram(dg, (0, 1), (dg.by_name("w"),))
    with pytest.raises(PreconditionError):
        extension_witness(quadrangle, [0, 1], d)


def brute_force_free(s):
    """No m points with n common lines, by trying every m-set of points."""
    m, n = s.params.m, s.params.n
    return all(len(frozenset.intersection(*map(s.neighbors, sigma))) < n
               for sigma in itertools.combinations(s.points, m))


def random_safe_extension(rng, host):
    """A random anchor in ``host`` and a safe diagram whose base part is the
    host induced on it; fresh elements meet at most n-1 base lines or m-1
    base points, and each other at random, added through the guard."""
    m, n = host.params.m, host.params.n
    anchor = rng.sample(list(host.elements()), rng.randint(0, min(5, len(host))))
    b = StructureBuilder(host.params)
    for a in anchor:
        (b.add_point if host.is_point(a) else b.add_line)()
    for i, a in enumerate(anchor):
        for j, c in enumerate(anchor):
            if host.is_point(a) and host.incident(a, c):
                b.add_incidence(i, j, guard=False)
    base = range(len(anchor))
    fresh = [b.add_point() if rng.random() < 0.5 else b.add_line()
             for _ in range(rng.randint(1, 4))]
    for y in fresh:
        point = b.sort(y) is Sort.POINT
        opposite = [x for x in base if (b.sort(x) is Sort.POINT) != point]
        most = n - 1 if point else m - 1
        targets = rng.sample(opposite, rng.randint(0, min(most, len(opposite))))
        targets += [z for z in fresh if (b.sort(z) is Sort.POINT) != point
                    and z > y and rng.random() < 0.5]
        for x in targets:
            try:
                b.add_incidence(*((y, x) if point else (x, y)))
            except FreenessViolationError:
                pass
    return anchor, SafeDiagram(b.build(), tuple(base), tuple(fresh))


def test_extension_witness_randomized_is_free_and_keeps_the_host():
    rng = random.Random(14014)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        host = random_free_structure(rng, m, n, max_elements=9)
        before = StructureBuilder.from_structure(host).build()
        anchor, d = random_safe_extension(rng, host)
        assert validate_safe_diagram(d)
        ext = extension_witness(host, anchor, d)
        out = ext.structure
        assert brute_force_free(out)
        assert host == before
        assert induced(out, host.elements())[0] == host
        assert sorted(ext.ext_images.values()) == list(range(len(host), len(out)))


def test_extension_witness_scans_the_diagram_and_the_host_once(monkeypatch, quadrangle):
    calls = []

    def counted(s):
        calls.append(s)
        return is_kmn_free(s)

    monkeypatch.setattr(core, "is_kmn_free", counted)
    monkeypatch.setattr(amalgam, "is_kmn_free", counted)
    d = flag_diagram()
    extension_witness(quadrangle, [0], d)
    assert calls == [d.structure, quadrangle]


# ---------------------------------------------------------------------------
# gluing


def toy_glue(**overrides):
    """A minimal valid glue problem; keyword overrides swap entries out."""
    kw = dict(
        d_names=frozenset({"d"}),
        x_a=build(2, 2, points=("d", "a")),
        x_b=build(2, 2, points=("d", "b")),
        x_c=build(2, 2, points=("d", "c")),
        x_ab=build(2, 2, points=("d", "a", "b")),
        x_ac=build(2, 2, points=("d", "a", "c")),
        x_bc=build(2, 2, points=("d", "b", "c")),
    )
    kw.update(overrides)
    return GlueProblem(**kw)


def test_glue_toy_succeeds():
    glued = independence_glue(toy_glue())
    s = glued.structure
    assert sorted(s.name(e) for e in s.elements()) == ["a", "b", "c", "d"]
    assert s.incidence_count() == 0


def test_glue_with_incident_structure():
    # a and b are points joined through lines of the joins; d is a line
    x_a = build(2, 2, points=("a",), lines=("d",), incidences=[("a", "d")])
    x_b = build(2, 2, points=("b",), lines=("d",), incidences=[("b", "d")])
    x_c = build(2, 2, points=("c",), lines=("d",), incidences=[("c", "d")])
    x_ab = build(2, 2, points=("a", "b"), lines=("d",),
                 incidences=[("a", "d"), ("b", "d")])
    x_ac = build(2, 2, points=("a", "c"), lines=("d",),
                 incidences=[("a", "d"), ("c", "d")])
    x_bc = build(2, 2, points=("b", "c"), lines=("d",),
                 incidences=[("b", "d"), ("c", "d")])
    g = GlueProblem(frozenset({"d"}), x_a, x_b, x_c, x_ab, x_ac, x_bc)
    glued = independence_glue(g)
    s = glued.structure
    assert len(s) == 4
    assert s.incidence_count() == 3
    assert is_kmn_free(s)[0]
    # every join appears induced, matched by name
    from kmnfree import induced
    for join in (x_ab, x_ac, x_bc):
        keep = {glued.ids[join.name(e)] for e in join.elements()}
        sub, remap = induced(s, keep)
        base_map = {
            e: remap[glued.ids[join.name(e)]] for e in join.elements()
        }
        assert isomorphic_over(join, sub, base_map)


def test_glue_hypothesis_names():
    cases = [
        # d present as a line in one structure only
        (dict(x_c=build(2, 2, points=("c",), lines=("d",))),
         "sorts:consistent"),
        (dict(x_b=build(2, 2, points=("b",))), "base:D<=X_b"),
        (dict(x_b=build(2, 2, points=("d", "b", "a"))),
         "intersection:X_a^X_b=D"),
        (dict(x_ab=build(2, 2, points=("d", "a", "b", "c"))),
         "intersection:X_ab^X_ac=X_a"),
        (dict(x_ab=build(2, 2, points=("d", "a", "b"), lines=("zz",),
                         incidences=[("a", "zz")]),
              x_a=build(2, 2, points=("d", "a"), lines=("zz",),
                        incidences=[("a", "zz"), ("d", "zz")])),
         "intersection:X_ab^X_ac=X_a"),
    ]
    for overrides, hyp in cases:
        with pytest.raises(GlueHypothesisError) as exc:
            independence_glue(toy_glue(**overrides))
        assert exc.value.hypothesis == hyp, exc.value.detail


def test_glue_embedding_hypothesis():
    # X_ab carries names of X_a and X_b but misses an incidence of X_a
    x_a = build(2, 2, points=("d", "a"), lines=("u",),
                incidences=[("a", "u")])
    x_ab = build(2, 2, points=("d", "a", "b"), lines=("u",))
    x_ac = build(2, 2, points=("d", "a", "c"), lines=("u",),
                 incidences=[("a", "u")])
    with pytest.raises(GlueHypothesisError) as exc:
        independence_glue(toy_glue(x_a=x_a, x_ab=x_ab, x_ac=x_ac))
    assert exc.value.hypothesis == "embedding:X_a<=X_ab"


def test_glue_closed_hypothesis():
    # two d-points with their connecting line present in X_ab but not in D
    x_a = build(2, 2, points=("d", "d2", "a"))
    x_b = build(2, 2, points=("d", "d2", "b"))
    x_c = build(2, 2, points=("d", "d2", "c"))
    x_ab = build(2, 2, points=("d", "d2", "a", "b"), lines=("w",),
                 incidences=[("d", "w"), ("d2", "w")])
    x_ac = build(2, 2, points=("d", "d2", "a", "c"))
    x_bc = build(2, 2, points=("d", "d2", "b", "c"))
    g = GlueProblem(frozenset({"d", "d2"}), x_a, x_b, x_c, x_ab, x_ac, x_bc)
    with pytest.raises(GlueHypothesisError) as exc:
        independence_glue(g)
    assert exc.value.hypothesis == "closed:D in X_ab"


def test_glue_independence_hypothesis():
    # inside X_ab the closure of X_a grabs the line w through a1,a2, and b
    # sits on w as well: an incidence between the closures, so a I b fails
    x_a = build(2, 2, points=("a1", "a2"))
    x_b = build(2, 2, points=("b",))
    x_c = build(2, 2, points=("c",))
    x_ab = build(2, 2, points=("a1", "a2", "b"), lines=("w",),
                 incidences=[("a1", "w"), ("a2", "w"), ("b", "w")])
    x_ac = build(2, 2, points=("a1", "a2", "c"))
    x_bc = build(2, 2, points=("b", "c"))
    g = GlueProblem(frozenset(), x_a, x_b, x_c, x_ab, x_ac, x_bc)
    with pytest.raises(GlueHypothesisError) as exc:
        independence_glue(g)
    assert exc.value.hypothesis == "indep:a_I_b"


def test_glue_dependent_sides_rejected():
    # u1,u2 meet at x in X_bc, and so do v1,v2: x lies in the closure of
    # both sides but not of D, so the alg hypothesis on (b,c) fails
    x_a = build(2, 2, points=("d", "a"))
    x_b = build(2, 2, points=("d",), lines=("u1", "u2"))
    x_c = build(2, 2, points=("d",), lines=("v1", "v2"))
    x_ab = build(2, 2, points=("d", "a"), lines=("u1", "u2"))
    x_ac = build(2, 2, points=("d", "a"), lines=("v1", "v2"))
    x_bc = build(2, 2, points=("d", "x"), lines=("u1", "u2", "v1", "v2"),
                 incidences=[("x", "u1"), ("x", "u2"),
                             ("x", "v1"), ("x", "v2")])
    g = GlueProblem(frozenset({"d"}), x_a, x_b, x_c, x_ab, x_ac, x_bc)
    with pytest.raises(GlueHypothesisError) as exc:
        independence_glue(g)
    assert exc.value.hypothesis == "indep:b_alg_c"


# ---------------------------------------------------------------------------
# existential patterns


def line_through_two_points_pattern():
    dg = build(2, 2, points=("y1", "y2"), lines=("w",),
               incidences=[("y1", "w"), ("y2", "w")])
    return ExistentialPattern(
        dg,
        shared_vars=(),
        param_vars=(dg.by_name("y1"), dg.by_name("y2")),
        witness_vars=(dg.by_name("w"),),
        exact=True,
    )


def test_pattern_validation():
    dg = build(2, 2, points=("y",), lines=("w",))
    with pytest.raises(ParameterError):
        ExistentialPattern(dg, (0,), (0,), (1,))
    with pytest.raises(ParameterError):
        ExistentialPattern(dg, (), (0,), ())
    pat = ExistentialPattern(dg, (), (0,), (1,))
    base = build(2, 2, points=("p",))
    with pytest.raises(ParameterError):
        pattern_consistent(base, pat, [(99,)])
    with pytest.raises(ParameterError):
        # a line parameter where the diagram wants a point
        pattern_consistent(build(2, 2, lines=("l0",)), pat, [(0,)])


def test_pattern_witness_lands_on_existing_element():
    # base: two points already joined by a line; demanding a connecting
    # line is only consistent because the existing one can serve -- a fresh
    # line would complete a 2x2 grid
    base = build(2, 2, points=("y1", "y2"), lines=("w0",),
                 incidences=[("y1", "w0"), ("y2", "w0")])
    pat = line_through_two_points_pattern()
    v = pattern_consistent(base, pat, [(0, 1)], stage_budget=4)
    assert v.status is PatternStatus.CONSISTENT
    assert v.converged
    # the surviving assignment targets the existing line, not a fresh one
    assert v.quotient.targets == (base.by_name("w0"),)


def test_pattern_fresh_witness():
    base = build(2, 2, points=("y1", "y2", "y3"))
    pat = line_through_two_points_pattern()
    v = pattern_consistent(base, pat, [(0, 1)], stage_budget=4)
    assert v.status is PatternStatus.CONSISTENT


def test_pattern_two_instances_forced_merge_or_fresh():
    # two instances on the same point pair ask for two connecting lines;
    # distinct fresh lines would form a grid, so the witnesses must merge
    base = build(2, 2, points=("y1", "y2"))
    pat = line_through_two_points_pattern()
    v = pattern_consistent(base, pat, [(0, 1), (0, 1)], stage_budget=4)
    assert v.status is PatternStatus.CONSISTENT
    assert v.quotient.merges >= 1


def test_pattern_param_part_mismatch_is_inconsistent():
    # diagram demands the two parameter points incident to a common line
    # with a THIRD param: param-only incidence cannot be created
    dg = build(2, 2, points=("y1",), lines=("y2",),
               incidences=[("y1", "y2")])
    pat = ExistentialPattern(dg, (), (0, 1), (), exact=True)
    base = build(2, 2, points=("p",), lines=("l",))
    v = pattern_consistent(base, pat, [(0, 1)], stage_budget=4)
    assert v.status is PatternStatus.INCONSISTENT


def test_pattern_unknown_on_tiny_candidate_budget():
    base = build(2, 2, points=("y1", "y2"))
    pat = line_through_two_points_pattern()
    v = pattern_consistent(base, pat, [(0, 1)], stage_budget=4,
                           candidate_budget=0)
    assert v.status is PatternStatus.UNKNOWN


def test_pattern_no_instances():
    base = build(2, 2, points=("p",))
    pat = line_through_two_points_pattern()
    v = pattern_consistent(base, pat, [])
    assert v.status is PatternStatus.CONSISTENT
