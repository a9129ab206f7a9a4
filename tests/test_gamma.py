"""The branching family, the H operation, witness configs, and the probe."""

import copy
import gc
import hashlib
import importlib
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kmnfree

from kmnfree import (
    BudgetError,
    HTerm,
    LazyCompletion,
    ParameterError,
    PreconditionError,
    Sort,
    StructParams,
    Ternary,
    bm_witness,
    fano_plane,
    gamma,
    gamma_invariants,
    generates,
    h_eval,
    h_term_eval,
    induced,
    is_kmn_free,
    isomorphic_over,
    nonfree_completion_probe,
    satisfies_complete,
    separating_check,
    tp2_pattern,
)
from kmnfree.gamma import GammaStructure

from conftest import (
    RecordingCompletion,
    build,
    quadrangle_structure,
    random_free_structure,
    spawn_records,
)

gamma_module = importlib.import_module("kmnfree.gamma")


# ---------------------------------------------------------------------------
# the base member, name for name

BASE_TABLE = {
    "r1": {"a1", "a2", "b^0_1"},
    "r2": {"a1", "a3", "b^0_2"},
    "r3": {"a1", "a4", "b^0_3"},
    "r4": {"a2", "a3", "b^0_3"},
    "r5": {"a2", "a4", "b^0_2"},
    "r6": {"a3", "a4", "b^0_1"},
    "s^0_1": {"b^0_1", "b^0_2"},
    "s^0_2": {"b^0_1", "b^0_3"},
    "s^0_3": {"b^0_2", "b^0_3"},
}


def test_base_member_frozen_table():
    g = gamma("")
    s = g.structure
    assert sorted(s.names(s.points)) == [
        "a1", "a2", "a3", "a4", "b^0_1", "b^0_2", "b^0_3",
    ]
    assert sorted(s.names(s.lines)) == sorted(BASE_TABLE)
    for lname, pnames in BASE_TABLE.items():
        on = s.neighbors(s.by_name(lname))
        assert set(s.names(on)) == pnames, lname
    assert s.incidence_count() == 24


def test_base_member_free_and_generated():
    g = gamma("")
    s = g.structure
    assert is_kmn_free(s)[0]
    assert s.params == StructParams(2, 2)
    seed = frozenset(s.by_name(f"a{i}") for i in range(1, 5))
    verdict, missing = generates(s, seed, frozenset(s.elements()))
    assert verdict is Ternary.YES and not missing


def test_counts_follow_bits():
    for eta, (np_, nl, ni) in {
        "0": (13, 13, 45),
        "1": (13, 14, 46),
        "01": (19, 18, 67),
    }.items():
        s = gamma(eta).structure
        assert (len(s.points), len(s.lines), s.incidence_count()) == (
            np_, nl, ni), eta
    # closed forms on a longer string
    s = gamma("1101").structure
    assert len(s.points) == 7 + 6 * 4
    assert len(s.lines) == 9 + sum(4 + b for b in (1, 1, 0, 1))
    assert s.incidence_count() == 24 + sum(21 + b for b in (1, 1, 0, 1))


def test_bit_string_forms_agree():
    a = gamma("10").structure
    b = gamma((1, 0)).structure
    assert isomorphic_over(a, b, {e: b.by_name(a.name(e))
                                  for e in a.elements()})


def test_rejects_non_bits():
    with pytest.raises(ParameterError):
        gamma("02")
    with pytest.raises(ParameterError):
        gamma((0, 2))


@pytest.mark.parametrize("eta", ["\uff101", "0 1", "a", [0, 1.9], [True, False],
                                 [0.0], ["01"], [2]])
def test_bits_are_only_the_characters_and_ints_0_and_1(eta):
    # int() would read a fullwidth zero, 1.9 and True as bits
    with pytest.raises(ParameterError, match="may only contain 0 and 1"):
        gamma(eta)
    with pytest.raises(ParameterError, match="may only contain 0 and 1"):
        separating_check(eta)


def test_prefix_embeds_induced():
    big = gamma("011").structure
    for cut in ("", "0", "01"):
        small = gamma(cut).structure
        keep = [big.by_name(small.name(e)) for e in sorted(small.elements())]
        sub, remap = induced(big, keep)
        base = {e: remap[big.by_name(small.name(e))]
                for e in small.elements()}
        assert isomorphic_over(small, sub, base), cut


def test_invariants_small_members():
    for k in range(5):
        for bits in itertools.product("01", repeat=k):
            rep = gamma_invariants(gamma("".join(bits)))
            assert rep.ok and not rep.failures, bits


def test_invariants_flag_damage():
    g = gamma("")
    s = g.structure
    # rebuild without b^0_3 on s^0_3: counts and openness both drift
    from kmnfree import StructureBuilder
    b = StructureBuilder(s.params)
    for e in sorted(s.elements()):
        (b.add_point if s.is_point(e) else b.add_line)(s.name(e))
    drop = (s.by_name("b^0_3"), s.by_name("s^0_3"))
    for p, l in s.incidences():
        if (p, l) != drop:
            b.add_incidence(p, l)
    broken = GammaStructure((), b.build(), g.term_provenance)
    rep = gamma_invariants(broken)
    assert not rep.ok
    assert any("counts" in f for f in rep.failures)
    assert any("generation" in f for f in rep.failures)


def test_invariants_build_one_prefix(monkeypatch):
    # only the longest proper prefix is built; the shorter ones are its
    # induced substructures on its first ids
    built = []

    def counting(eta):
        built.append(tuple(eta))
        return gamma(eta)

    monkeypatch.setattr(gamma_module, "gamma", counting)
    assert gamma_invariants(gamma("0110")).ok
    assert built == [(0, 1, 1)]
    built.clear()
    assert gamma_invariants(gamma("")).ok
    assert built == []


def test_invariants_flag_a_renamed_prefix_element():
    g = gamma("01")
    s = g.structure
    from kmnfree import StructureBuilder
    b = StructureBuilder(s.params)
    for e in sorted(s.elements()):
        name = "x" if s.name(e) == "b^0_1" else s.name(e)
        (b.add_point if s.is_point(e) else b.add_line)(name)
    for p, l in s.incidences():
        b.add_incidence(p, l, guard=False)
    rep = gamma_invariants(GammaStructure(g.eta, b.build(), g.term_provenance))
    assert rep.failures == ("prefix (0,): missing element b^0_1",)


def test_invariants_prove_generation_without_closure(monkeypatch):
    # generation is read along the term provenance, not by running closures
    def refuse(*_):
        raise AssertionError("gamma_invariants ran a closure step")

    monkeypatch.setattr(kmnfree.closure, "_step", refuse)
    assert gamma_invariants(gamma("0110")).ok


def test_separating_small():
    for k in range(3):
        for bits in itertools.product("01", repeat=k):
            assert separating_check("".join(bits)), bits


# ---------------------------------------------------------------------------
# the H operation


def test_h_eval_points_and_lines():
    wq = LazyCompletion(quadrangle_structure())
    l01 = h_eval(wq, 0, 1)
    assert wq.sort(l01) is Sort.LINE
    assert wq.neighbors(l01) >= {0, 1}
    # symmetric and stable
    assert h_eval(wq, 1, 0) == l01
    # two lines meet in their unique common point
    l02 = h_eval(wq, 0, 2)
    p = h_eval(wq, l01, l02)
    assert wq.sort(p) is Sort.POINT
    assert p == 0


def test_h_eval_degenerate_cases():
    wq = LazyCompletion(quadrangle_structure())
    l01 = h_eval(wq, 0, 1)
    assert h_eval(wq, 0, 0) == 0
    assert h_eval(wq, l01, l01) == l01
    assert h_eval(wq, 0, l01) == 0     # mixed sorts return the left argument
    assert h_eval(wq, l01, 0) == l01


def test_h_eval_guards():
    wq = LazyCompletion(quadrangle_structure())
    with pytest.raises(ParameterError):
        h_eval(wq, 0, 99)
    w32 = LazyCompletion(build(3, 2, points=("p", "q")))
    with pytest.raises(ParameterError):
        h_eval(w32, 0, 1)


def test_h_eval_frozen_in_config():
    g = bm_witness(2, 2)
    w = LazyCompletion(g)
    assert h_eval(w, g.by_name("a2"), g.by_name("c1")) == g.by_name("w1")


def test_h_terms():
    with pytest.raises(ParameterError):
        HTerm(var=0, left=HTerm.leaf(1))
    with pytest.raises(ParameterError):
        HTerm(var=-1)
    with pytest.raises(ParameterError):
        HTerm(left=HTerm.leaf(0))
    t = HTerm.h(HTerm.h(HTerm.leaf(0), HTerm.leaf(1)), HTerm.leaf(2))
    assert str(t) == "H(H(x1,x2),x3)"
    assert t.arity() == 3
    assert HTerm.leaf(4).arity() == 5

    wq = LazyCompletion(quadrangle_structure())
    l01 = h_eval(wq, 0, 1)
    got = h_term_eval(wq, t, (0, 1, 2))
    # H(l01, p3) has mixed sorts, so the left argument comes back
    assert got == l01
    with pytest.raises(ParameterError):
        h_term_eval(wq, t, (0, 1))


def test_deep_term_arity_and_hash_take_no_tree_walk():
    # the last term of a 600-bit member shares its sub-terms, so its tree,
    # unshared, grows exponentially, and it nests past the recursion limit
    g = gamma("01" * 300)
    term = g.term_provenance[len(g.structure) - 1]
    assert term.arity() == 4
    assert {term: 1}[term] == 1


def h_chain(depth, top=None):
    """t = H(t, t), ``depth`` times from x1; the last right argument may be
    ``top`` instead.  The tree has 2^depth leaves over depth+1 nodes."""
    t = HTerm.leaf(0)
    for i in range(depth):
        t = HTerm.h(t, top if top is not None and i == depth - 1 else t)
    return t


def test_term_equality_walks_each_node_pair_once():
    # separately built, so no sub-term is shared between the two sides
    assert h_chain(2_000) == h_chain(2_000)
    assert h_chain(2_000) != h_chain(2_000, top=HTerm.leaf(1))
    assert h_chain(2_000) != h_chain(1_999)
    assert HTerm.leaf(0) != HTerm.leaf(1) and HTerm.leaf(2) == HTerm.leaf(2)
    assert HTerm.leaf(0) != "x1"


def test_shared_sub_terms_are_written_once():
    x1, x2, x3 = (HTerm.leaf(i) for i in range(3))
    t1 = HTerm.h(x1, x2)
    t2 = HTerm.h(t1, x3)
    # the second copy of H(x1,x2) is built apart: sub-terms count by value
    t = HTerm.h(HTerm.h(t2, HTerm.h(t2, HTerm.h(x1, x2))), HTerm.h(x1, x1))
    text = "H(H(t2,H(t2,t1)),H(x1,x1)) where t1 = H(x1,x2), t2 = H(t1,x3)"
    assert str(t) == repr(t) == text
    assert str(HTerm.h(t1, t1)) == "H(t1,t1) where t1 = H(x1,x2)"
    assert repr(HTerm.h(t1, x3)) == "H(H(x1,x2),x3)"


def test_deep_shared_term_prints_once_per_sub_term():
    # unshared, the tree of this term has an exponential number of nodes,
    # and it nests past the recursion limit
    g = gamma("01" * 300)
    term = g.term_provenance[len(g.structure) - 1]
    text = str(term)
    assert repr(term) == text
    assert len(text) < 100_000
    assert text.startswith("H(") and " where t1 = " in text


def test_separately_built_members_compare_equal():
    a, b = gamma("01" * 300), gamma("01" * 300)
    last = len(a.structure) - 1
    assert a.term_provenance[last] is b.term_provenance[last]
    assert a == b
    assert a != gamma("01" * 299 + "00")
    # the same eta and structure, one term changed
    odd = dict(b.term_provenance)
    odd[last] = HTerm.h(odd[last].right, odd[last].left)
    assert a != GammaStructure(b.eta, b.structure, odd)
    del odd[last]
    assert a != GammaStructure(b.eta, b.structure, odd)
    with pytest.raises(TypeError):
        hash(a)


def test_terms_are_interned():
    x1, x2 = HTerm.leaf(0), HTerm.leaf(1)
    assert HTerm.h(x1, x2) is HTerm.h(x1, x2) is HTerm(left=x1, right=x2)
    assert HTerm(var=2) is HTerm.leaf(2)
    assert HTerm.h(x1, x2) is not HTerm.h(x2, x1)
    t = HTerm.h(HTerm.h(x1, x2), HTerm.h(x1, x2))
    assert t.left is t.right and {t: 1}[HTerm.h(t.left, t.right)] == 1
    for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)),
                  copy.deepcopy([t, x1])[0]):
        assert again is t
    assert pickle.loads(pickle.dumps(x2)) is x2
    for name in ("var", "left", "right", "_arity", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (t.var, t.left.left, t.right.right, t.arity()) == (None, x1, x2, 2)
    # 1.0 and True equal 1 as intern keys: made, either would be the leaf
    # that HTerm.leaf(1) returns while it lives
    for bad in ({"var": 0, "left": x1}, {"var": 0, "right": x1}, {"var": -1},
                {"left": x1}, {"right": x1}, {}, {"var": 1.0}, {"var": True},
                {"var": "1"}):
        with pytest.raises(ParameterError):
            HTerm(**bad)
    assert str(HTerm.leaf(1)) == "x2"


def test_deep_terms_copy_to_themselves():
    g = gamma("01" * 300)
    t = g.term_provenance[len(g.structure) - 1]
    assert copy.deepcopy(t) is t
    assert copy.copy(t) is t
    chain = h_chain(5_000)
    for deep in (t, chain):  # both nest far past the recursion limit
        assert pickle.loads(pickle.dumps(deep)) is deep


def test_a_pickled_deep_term_is_rebuilt_after_it_was_dropped():
    data = pickle.dumps(h_chain(5_000))
    gc.collect()
    again = pickle.loads(data)
    assert again is h_chain(5_000)
    assert again.left is again.right and again.arity() == 1


def test_dropped_terms_leave_the_intern_table():
    gc.collect()
    before = len(gamma_module._TERMS)
    g = gamma("01" * 50)
    assert len(gamma_module._TERMS) > before
    del g
    gc.collect()
    assert len(gamma_module._TERMS) <= before


def test_dropping_a_deep_term_frees_it_without_recursion():
    # freeing the top frees the chain term by term: no crash, no entry left
    gc.collect()
    before = len(gamma_module._TERMS)
    chain = h_chain(100_000)
    assert chain.arity() == 1
    del chain
    gc.collect()
    assert len(gamma_module._TERMS) <= before


def test_term_output_is_pinned():
    # the term texts and evaluated values of five members, digested; any
    # change to how terms are made, printed or evaluated shows here
    digest = hashlib.sha256()
    for eta in ("", "0", "1", "0110", "01" * 20):
        g = gamma(eta)
        terms = sorted(g.term_provenance.items())
        for e, t in terms:
            digest.update(f"{e}:{t}\n".encode())
        work = LazyCompletion(g.structure)
        a = tuple(g.id_of(f"a{i}") for i in range(1, 5))
        digest.update(repr([h_term_eval(work, t, a) for _, t in terms]).encode())
    assert digest.hexdigest() == (
        "5fd446e0c68f9093a351bd411aaad73d639e68a1f9faa74584b729ea23cfc950")


def test_member_repr_leaves_out_the_terms():
    assert len(repr(gamma("01" * 300))) < 5_000


def ref_h_term_eval(work, term, assignment):
    """Reference copy of the recursive evaluator, one h_eval per tree node."""
    if term.is_leaf:
        if not 0 <= term.var < len(assignment):
            raise ParameterError("term variable exceeds assignment arity")
        return assignment[term.var]
    return h_eval(work, ref_h_term_eval(work, term.left, assignment),
                  ref_h_term_eval(work, term.right, assignment))


def random_shared_term(rng):
    """A term whose sub-terms are shared: each node joins two earlier ones.
    A leaf may name x5, past the four-point assignment."""
    nodes = [HTerm.leaf(i) for i in range(4)]
    if rng.random() < 0.1:
        nodes.append(HTerm.leaf(4))
    for _ in range(rng.randint(1, 12)):
        nodes.append(HTerm.h(rng.choice(nodes), rng.choice(nodes)))
    return nodes[-1]


def outcome(evaluate, term, cap):
    work = RecordingCompletion(quadrangle_structure(), cap)
    try:
        value = evaluate(work, term, (0, 1, 2, 3))
    except (ParameterError, BudgetError) as e:
        value = type(e)
    records = spawn_records(work)
    assert records == work.recorded
    return value, work.snapshot(), records


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_term_eval_matches_the_recursive_evaluator(seed):
    # same value (or error), and the same spawns in the same order
    rng = random.Random(seed)
    term = random_shared_term(rng)
    cap = rng.choice([6, 12, 10_000])
    assert outcome(h_term_eval, term, cap) == outcome(ref_h_term_eval, term, cap)


def test_separate_on_600_bits_exits_cleanly(tmp_path):
    # the family's terms share sub-terms 1,200 levels deep: evaluated once
    # each and without recursion, so this ends in seconds, with no
    # RecursionError
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    eta = "01" * 300
    out = subprocess.run(
        [sys.executable, "-m", "kmnfree", "separate", "--eta", eta],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    assert '"separates": true' in out.stdout


def test_term_provenance_recovers_everything():
    g = gamma("")
    work = LazyCompletion(g.structure)
    a = tuple(g.id_of(f"a{i}") for i in range(1, 5))
    for e, term in g.term_provenance.items():
        assert h_term_eval(work, term, a) == e


# ---------------------------------------------------------------------------
# witness configurations


def test_config_frozen_at_2_2():
    g = bm_witness(2, 2)
    assert sorted((g.name(e), g.is_point(e)) for e in g.elements()) == [
        ("a1", True), ("a2", False), ("b", True),
        ("c1", False), ("w1", True), ("z", False),
    ]
    assert sorted((g.name(p), g.name(l)) for p, l in g.incidences()) == [
        ("a1", "z"), ("b", "z"), ("w1", "a2"), ("w1", "c1"), ("w1", "z"),
    ]
    assert (g.by_name("a1"), g.by_name("b"), g.by_name("w1")) == (0, 1, 2)
    assert (g.by_name("a2"), g.by_name("c1"), g.by_name("z")) == (3, 4, 5)


def test_config_counts_scale():
    for (m, n), inc in {(2, 2): 5, (3, 2): 8, (2, 3): 6, (3, 3): 10}.items():
        g = bm_witness(m, n)
        assert len(g.points) == m + 1
        assert len(g.lines) == n + 1
        assert g.incidence_count() == inc
    for m, n in itertools.product(range(2, 6), repeat=2):
        assert is_kmn_free(bm_witness(m, n))[0], (m, n)
    with pytest.raises(ParameterError):
        bm_witness(1, 2)
    with pytest.raises(ParameterError):
        bm_witness(2, 1)


def test_tp2_pattern_shape():
    pat = tp2_pattern(2, 2)
    assert pat.exact
    assert pat.shared_vars == (0, 3)
    assert pat.param_vars == (1, 4)
    assert pat.witness_vars == (2, 5)
    pat33 = tp2_pattern(3, 3)
    assert len(pat33.param_vars) == 3   # b plus two c's
    assert len(pat33.witness_vars) == 3  # two w's plus z


def test_fano_plane_shape():
    f = fano_plane()
    assert len(f.points) == 7 and len(f.lines) == 7
    assert all(len(f.neighbors(l)) == 3 for l in f.lines)
    rep = satisfies_complete(f)
    assert rep.passed and bool(rep)
    assert is_kmn_free(f)[0]


def test_fano_check_refuses_the_near_pencil():
    # one line through six points, and a 2-point line from each to the
    # seventh: complete on 7 points and 7 lines, but not every degree is 3
    six = "abcdef"
    near = build(2, 2, points=(*six, "z"), lines=("g", *(f"g{x}" for x in six)),
                 incidences=[(x, "g") for x in six] + [(x, f"g{x}") for x in six]
                 + [("z", f"g{x}") for x in six])
    assert len(near) == 14 and satisfies_complete(near).passed
    assert not gamma_module._is_fano(near)
    assert gamma_module._is_fano(fano_plane())
    assert not gamma_module._is_fano(build(2, 2))


def test_fixed_constructions_skip_the_guard(monkeypatch):
    # each is K-free by the proof in its docstring, so none asks the guard
    def refuse(*_):
        raise AssertionError("a fixed construction ran the guarded add")

    monkeypatch.setattr(kmnfree.StructureBuilder, "completion_witness", refuse)
    assert len(gamma("0110").structure) == 58
    assert len(bm_witness(3, 4)) == 9
    assert len(fano_plane()) == 14


# ---------------------------------------------------------------------------
# the non-free completion probe


def test_probe_on_seeded_quadrangle():
    r = nonfree_completion_probe(quadrangle_structure())
    assert r.ok
    assert r.working_stage == 5
    b0 = r.b0
    assert len(b0) == 54
    assert len(b0.points) == 17 and len(b0.lines) == 37
    assert is_kmn_free(b0)[0]

    # the chosen line roles are stable
    assert [r.names[f"r{i}"] for i in range(1, 8)] == [4, 5, 6, 13, 27, 33, 35]
    assert r.names["t"] == 53

    # the witness subset is a copy of the 7-point plane
    assert len(r.fano_witness) == 14
    sub, _ = induced(b0, r.fano_witness)
    assert satisfies_complete(sub).passed
    assert isomorphic_over(sub, fano_plane(), {})


def test_probe_certificate():
    r = nonfree_completion_probe(quadrangle_structure())
    c = r.certificate
    assert c is not None
    assert c.shared_line == r.names["t"]
    # three distinct connecting lines on the free side, one shared on B0
    assert len(set(c.free_lines)) == 3
    cpts = [r.names[k] for k in ("c1", "c2", "c3")]
    pairs = [(cpts[0], cpts[1]), (cpts[0], cpts[2]), (cpts[1], cpts[2])]
    for l, pair in zip(c.free_lines, pairs):
        assert r.b0.forced(pair) == {c.shared_line}
        assert c.free_side.forced(pair) == {l}


def test_probe_builds_one_workspace(monkeypatch):
    # the forced part is built once, as B0 without t, and the certificate's
    # workspace over it spawns only the three c-pair lines
    made = []

    class Counting(LazyCompletion):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(gamma_module, "LazyCompletion", Counting)
    r = nonfree_completion_probe(quadrangle_structure())
    assert r.ok and len(made) == 1
    (work,) = made
    assert len(work.base) == len(r.b0) - 1
    assert list(range(len(work.base), len(work))) == sorted(
        r.certificate.free_lines)


def applied_probes():
    """The probe's results on the random seeds 0..39 where it applies."""
    for seed in range(40):
        s = random_free_structure(random.Random(seed), max_elements=8)
        r = nonfree_completion_probe(s, element_cap=5_000)
        if r.ok:
            yield r


def test_probe_free_side_extends_b0_without_t():
    for r in (nonfree_completion_probe(quadrangle_structure()), *applied_probes()):
        free, t = r.certificate.free_side, r.names["t"]
        assert t == len(r.b0) - 1
        for e in range(t):
            assert (free.name(e), free.sort(e)) == (r.b0.name(e), r.b0.sort(e))
            assert {x for x in free.neighbors(e) if x < t} == r.b0.neighbors(e) - {t}


def test_probe_b0_is_free_wherever_the_probe_applies():
    # B0 is free by proof and never scanned by the probe; scan it here
    results = list(applied_probes())
    assert len(results) >= 15
    for r in results:
        assert is_kmn_free(r.b0) == (True, None)


def test_probe_decided_negatives():
    neg = nonfree_completion_probe(fano_plane())
    assert not neg.ok
    assert neg.reason == "no deficiencies"
    tri = build(2, 2, points=("x1", "x2", "x3"))
    neg2 = nonfree_completion_probe(tri)
    assert not neg2.ok
    assert neg2.reason == "free completion converged finite"


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_probe_stage_budget_below_the_working_stage(budget):
    with pytest.raises(BudgetError,
                       match=f"growth precondition unverified within {budget} stages"):
        nonfree_completion_probe(quadrangle_structure(), stage_budget=budget)


def test_probe_element_cap():
    with pytest.raises(BudgetError,
                       match="growth precondition unverified: element cap hit"):
        nonfree_completion_probe(quadrangle_structure(), element_cap=20)
    # stage 5 has 46 elements, and the certificate's free side 56
    r = nonfree_completion_probe(quadrangle_structure(), element_cap=60)
    assert r.ok and r.working_stage == 5


def test_probe_line_selection_budget():
    with pytest.raises(BudgetError, match="line-selection search exhausted its budget"):
        nonfree_completion_probe(quadrangle_structure(), search_budget=10)


def test_probe_seed_checks_come_before_the_stage_budget():
    assert nonfree_completion_probe(fano_plane(), stage_budget=0).reason == (
        "no deficiencies")
    grid = build(2, 2, points=("p", "q"), lines=("u", "v"),
                 incidences=[(p, l) for p in "pq" for l in "uv"], guard=False)
    with pytest.raises(PreconditionError, match="not K-free"):
        nonfree_completion_probe(grid, stage_budget=0)
