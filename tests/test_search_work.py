"""Work counts of the backtracking searches, pinned and checked against
reference copies of the plain (filter-every-candidate) searches.

The pattern search prunes with forward checks and counts refuted subtrees
in bulk; its verdicts, witnesses and candidate counts must equal what the
plain search below reports.  The plane search keeps its covered pairs in
bit rows and builds candidates point by point; a stand-alone list-of-rows
search that filters every combination must give the same solutions, lines
placed and node counts.  The embedding search skips images that cannot
pass, so its verdicts and FOUND mappings must equal the reference's, and
its node counts are pinned beside the reference's counts.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmnfree import (
    BudgetError,
    ExistentialPattern,
    PatternStatus,
    SearchStatus,
    Sort,
    StructParams,
    StructureBuilder,
    embed_in_finite_plane,
    embed_search_general,
    enumerate_projective_planes,
    fano_plane,
    find_projective_plane,
    free_completion,
    indep_sequence,
    induced,
    is_kmn_free,
    pattern_consistent,
    satisfies_complete,
    tp2_pattern,
)
from kmnfree import amalgam
from kmnfree.amalgam import PatternVerdict, QuotientAssignment, _quotients
from kmnfree.completion import LazyCompletion
from kmnfree.core import CompletenessReport, common_neighbors, colex_combinations
from kmnfree.finsearch import _PlaneSearch, _Stop, _induced_embedding, clear_plane_cache

from conftest import build, quadrangle_structure, random_free_structure


def tp2_case(m, n, instances, element_cap=100_000):
    """tp2_pattern(m, n) over an independent sequence, as the CLI builds it."""
    b = StructureBuilder(StructParams(m, n))
    b0 = b.add_point("b0")
    cs = frozenset(b.add_line(f"c{j}") for j in range(1, n))
    seq = indep_sequence(b.build(), (b0,), cs, instances, element_cap=element_cap)
    rows = [t + tuple(sorted(seq.c_ids)) for t in seq.tuples]
    return seq.ambient, tp2_pattern(m, n), rows


def stage2_quadrangle():
    return free_completion(quadrangle_structure(), 2).final.structure


# ---------------------------------------------------------------------------
# pinned counts


# lines placed plus prefixes of candidate lines tested, per order
PLANE_NODES = {1: 3, 2: 14, 3: 47, 4: 112, 5: 4_086, 8: 3_469}


@pytest.mark.parametrize("order,lines", [(1, 3), (2, 7), (3, 13), (4, 21), (5, 84),
                                         (8, 73)])
def test_plane_search_nodes_are_pinned(order, lines):
    clear_plane_cache()
    r = find_projective_plane(order)
    assert (r.status, r.nodes) == (SearchStatus.FOUND, PLANE_NODES[order])
    search = CountedPlaneSearch(order, 10**7)
    search.run(limit=1)
    assert (search.placed, search.nodes) == (lines, PLANE_NODES[order])


def test_plane_enumeration_counts_are_pinned():
    planes, exhausted, nodes = enumerate_projective_planes(2)
    assert (len(planes), exhausted, nodes) == (30, True, 310)
    planes, exhausted, nodes = enumerate_projective_planes(3, limit=50)
    assert (len(planes), exhausted, nodes) == (50, False, 1_359)


@pytest.mark.parametrize("order,nodes", [(3, 30), (4, 40), (5, 50)])
def test_stage2_quadrangle_embedding_nodes_are_pinned(order, nodes):
    # ``nodes`` is the pairwise reference's count; the candidates from
    # mapped neighbours need 13 at every order, after the plane search
    clear_plane_cache()
    r = embed_in_finite_plane(stage2_quadrangle(), order)
    want = reference_induced_embedding(stage2_quadrangle(), r.plane, 10**7)
    assert want[0::2] == (SearchStatus.FOUND, nodes)
    assert (r.status, r.mapping, r.nodes) == (
        SearchStatus.FOUND, want[1], PLANE_NODES[order] + 13)


def test_fano_into_order_3_exhausts_at_pinned_nodes():
    # 2,921 embedding nodes: the first root image and its subtree; the
    # other twelve points are its orbit, found by four automorphism
    # searches of 25 nodes each; 3,068 with the plane search's 47
    clear_plane_cache()
    r = embed_in_finite_plane(fano_plane(), 3)
    assert (r.status, r.nodes) == (SearchStatus.NONE, 3_068)
    assert reference_induced_embedding(fano_plane(), r.plane, 10**7) == (
        SearchStatus.NONE, None, 318_890)


@pytest.mark.parametrize("budget", [0, 1, 2_920, 2_921, 2_922, 2_990, 3_020, 3_021])
def test_fano_into_order_3_is_unknown_below_its_total(budget):
    find_projective_plane(3)  # cached: the budget below is the embedding's
    r = embed_in_finite_plane(fano_plane(), 3, node_budget=budget)
    want = SearchStatus.NONE if budget == 3_021 else SearchStatus.UNKNOWN
    assert (r.status, r.nodes) == (want, budget)


def test_fano_into_order_5_is_none():
    # the pairwise search is still UNKNOWN after 10,000,000 nodes; the
    # plane search takes 4,086 of the 80,889
    clear_plane_cache()
    r = embed_in_finite_plane(fano_plane(), 5)
    assert (r.status, r.nodes) == (SearchStatus.NONE, 80_889)


def test_cold_plane_search_is_charged_to_the_budget():
    clear_plane_cache()
    r = embed_in_finite_plane(fano_plane(), 3, node_budget=3_067)
    assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, 3_067)
    clear_plane_cache()
    r = embed_in_finite_plane(fano_plane(), 3, node_budget=40)
    assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, 40)


@pytest.mark.parametrize("budget", [0, 3, 10, 17, 18, 30, 10**7])
def test_general_search_spends_one_budget_across_orders(budget):
    # order 1: 3 plane nodes, too small for the quadrangle; order 2: 14
    # plane nodes and then the embedding
    clear_plane_cache()
    r = embed_search_general(quadrangle_structure(), node_budget=budget)
    assert r.nodes <= budget
    clear_plane_cache()
    found = embed_in_finite_plane(quadrangle_structure(), 2)
    if budget >= 3 + found.nodes:
        assert (r.status, r.nodes) == (SearchStatus.FOUND, 3 + found.nodes)
    else:
        assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, budget)


def test_tp2_candidate_counts_are_pinned():
    v = pattern_consistent(*tp2_case(2, 2, 3), stage_budget=1)
    assert (v.status, v.candidates) == (PatternStatus.INCONSISTENT, 297_228)
    v = pattern_consistent(*tp2_case(3, 2, 2), stage_budget=1)
    assert (v.status, v.candidates) == (PatternStatus.CONSISTENT, 5_202)
    assert all(t is None for t in v.quotient.targets)


@pytest.mark.parametrize("instances, candidates", [(4, 183_278_464),
                                                   (5, 243_940_594_741)])
def test_tp2_past_three_instances_is_inconsistent_at_an_unbounded_budget(instances,
                                                                         candidates):
    # a grid completed by the first blocks refutes their whole subtree, and
    # a partition with two occurrences of one instance in a block is refuted
    # before its search, so these end in about 0.04 s and 0.5 s on 2 CPUs
    case = tp2_case(2, 2, instances, element_cap=2000)
    v = pattern_consistent(*case, stage_budget=1, candidate_budget=10**15,
                           element_cap=2000)
    assert (v.status, v.candidates) == (PatternStatus.INCONSISTENT, candidates)


def test_tp2_grid_checks_are_pinned(monkeypatch):
    # completion_witness is asked once per incidence a search level adds or
    # refuses: 381 times, where building every assignment's candidate asked
    # 2,681 times
    case, calls = tp2_case(2, 2, 3), []
    witness = StructureBuilder.completion_witness
    monkeypatch.setattr(StructureBuilder, "completion_witness",
                        lambda b, p, l: calls.append((p, l)) or witness(b, p, l))
    v = pattern_consistent(*case, stage_budget=1)
    assert (v.status, v.candidates, len(calls)) == (PatternStatus.INCONSISTENT,
                                                    297_228, 381)


@pytest.mark.parametrize("m, n, status, candidates", [
    (3, 3, PatternStatus.CONSISTENT, 6_759),
    (2, 3, PatternStatus.UNKNOWN, 1_769),
])
def test_tp2_searches_at_n_3_are_pinned(m, n, status, candidates):
    # two instances each; the guarded candidate check at m = n = 3 and n = 3
    case = tp2_case(m, n, 2)
    v = pattern_consistent(*case, stage_budget=1)
    assert (v.status, v.candidates) == (status, candidates)
    if status is PatternStatus.UNKNOWN:
        assert v.detail.endswith("did not converge within 1 stages")
    assert assert_pattern_budgets_agree(*case, 1) == v


def test_pattern_candidates_take_the_guard_not_a_scan(monkeypatch):
    # each candidate is refuted by the grid check before an add to the one
    # scratch copy of the ground: no candidate is built or scanned, and the
    # one build is the workspace snapshot
    case = tp2_case(2, 2, 3)
    scans, builds = [], []
    monkeypatch.setattr(amalgam, "is_kmn_free",
                        lambda s: scans.append(s) or is_kmn_free(s))
    build_structure = StructureBuilder.build
    monkeypatch.setattr(StructureBuilder, "build",
                        lambda b: builds.append(b) or build_structure(b))
    v = pattern_consistent(*case, stage_budget=1)
    assert (v.status, v.candidates) == (PatternStatus.INCONSISTENT, 297_228)
    assert scans == [] and len(builds) == 1


def test_pattern_search_depth_is_not_bounded_by_the_recursion_limit():
    # 600 instances of one row pool 1,202 occurrences: the first layer's
    # partition has a block per occurrence, a level of the search each
    base, pattern, rows = tp2_case(2, 2, 1)
    v = pattern_consistent(base, pattern, rows * 600, stage_budget=1,
                           candidate_budget=1000)
    assert (v.status, v.candidates) == (PatternStatus.UNKNOWN, 1_001)
    assert v.detail == "candidate budget 1000 exhausted"


def test_pattern_search_memory_is_bounded_by_the_layer_it_reaches():
    # (3,2) x 4 pools 5 point and 5 line occurrences: 1,099,644 quotients,
    # which the eager sorted product built (416.7 MiB traced) before its
    # first candidate; the search spends its budget in the first layers
    case = tp2_case(3, 2, 4, element_cap=2000)
    tracemalloc.start()
    try:
        v = pattern_consistent(*case, stage_budget=1, candidate_budget=1000,
                               element_cap=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.status, v.candidates) == (PatternStatus.UNKNOWN, 1_001)
    assert v.detail == "candidate budget 1000 exhausted"
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# pattern_consistent against the per-leaf search


def _set_partitions(items):
    """All partitions of items into nonempty blocks, canonical order: the
    recursive enumeration the search used before its lazy layers."""
    items = list(items)
    if not items:
        return [()]
    out = []

    def rec(idx, blocks):
        if idx == len(items):
            out.append(tuple(tuple(blk) for blk in blocks))
            return
        x = items[idx]
        for blk in blocks:
            blk.append(x)
            rec(idx + 1, blocks)
            blk.pop()
        blocks.append([x])
        rec(idx + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def reference_quotients(pts, lns):
    """The eager product of every point and line partition, sorted by
    (merges, point blocks + line blocks)."""
    part_product = []
    for pp in _set_partitions(pts):
        for lp in _set_partitions(lns):
            blocks = pp + lp
            part_product.append((sum(len(b) - 1 for b in blocks), blocks))
    part_product.sort(key=lambda t: (t[0], t[1]))
    return [blocks for _, blocks in part_product]


@pytest.mark.parametrize("n_lines", range(6))
@pytest.mark.parametrize("n_points", range(8))
def test_quotient_layers_follow_the_eager_sorted_product(n_points, n_lines):
    # line pools as the search builds them (a shared token, then a witness
    # token per instance); point pools in reverse token order, so the item
    # order and the sort disagree
    pts = [("w", j, "y") for j in reversed(range(n_points))]
    lns = [("s", "c")] + [("w", j, "x") for j in range(n_lines - 1)] if n_lines else []
    assert [pp + lp for pp, lps in _quotients(pts, lns) for lp in lps] == (
        reference_quotients(pts, lns))


def reference_pattern_consistent(base, pattern, instances, stage_budget=1,
                                 candidate_budget=1_000_000, element_cap=100_000):
    """The search that evaluates every leaf: a copy of the code before the
    forward checks, input validation left out."""
    dg = pattern.diagram
    work = LazyCompletion(base, element_cap=element_cap)
    run = work.closure(base.elements(), stage_budget=stage_budget)
    a_t = run.closure_set
    ambient = work.snapshot()
    stage = len(run.stages) - 1
    if not instances:
        return PatternVerdict(PatternStatus.CONSISTENT, QuotientAssignment((), ()),
                              stage, run.converged, 0, "no instances")
    pool = [("s", v) for v in pattern.shared_vars]
    for j in range(len(instances)):
        pool += [("w", j, v) for v in pattern.witness_vars]
    token_sort = {t: dg.sort(t[1] if t[0] == "s" else t[2]) for t in pool}
    pts = [t for t in pool if token_sort[t] is Sort.POINT]
    lns = [t for t in pool if token_sort[t] is Sort.LINE]
    existing_pts = sorted(e for e in a_t if ambient.is_point(e))
    existing_lns = sorted(e for e in a_t if ambient.is_line(e))

    def resolve_token(j, v):
        if v in pattern.shared_vars:
            return ("s", v)
        if v in pattern.witness_vars:
            return ("w", j, v)
        return instances[j][pattern.param_vars.index(v)]

    inst_elems, required, seen_req = [], [], set()
    for j in range(len(instances)):
        inst_elems.append([resolve_token(j, v) for v in sorted(dg.elements())])
        for p, l in dg.incidences():
            pair = (resolve_token(j, p), resolve_token(j, l))
            if pair not in seen_req:
                seen_req.add(pair)
                required.append(pair)

    ground, ground_map = induced(ambient, a_t)
    candidates = 0
    survivor = None

    def evaluate(blocks, chosen):
        block_of = {tok: i for i, blk in enumerate(blocks) for tok in blk}

        def image_key(t):
            if isinstance(t, tuple):
                tgt = chosen[block_of[t]]
                return tgt if tgt is not None else ("fresh", block_of[t])
            return t

        for ptok, ltok in required:
            pe, le = image_key(ptok), image_key(ltok)
            if isinstance(pe, int) and isinstance(le, int) and not ambient.incident(pe, le):
                return False
        for elems in inst_elems:
            keys = [image_key(t) for t in elems]
            if len(set(keys)) != len(keys):
                return False
        b = StructureBuilder.from_structure(ground)
        placed = {}
        for blk, tgt in zip(blocks, chosen):
            if tgt is not None:
                eid = ground_map[tgt]
            else:
                eid = b.add_point() if token_sort[blk[0]] is Sort.POINT else b.add_line()
            for tok in blk:
                placed[tok] = eid

        def image(t):
            return placed[t] if isinstance(t, tuple) else ground_map[t]

        for ptok, ltok in required:
            b.add_incidence(image(ptok), image(ltok), guard=False)
        cand = b.build()
        if not is_kmn_free(cand)[0]:
            return False
        if pattern.exact:
            dg_elems = sorted(dg.elements())
            for elems in inst_elems:
                mapped = dict(zip(dg_elems, (image(t) for t in elems)))
                for p in dg.points:
                    for l in dg.lines:
                        if dg.incident(p, l) != cand.incident(mapped[p], mapped[l]):
                            return False
        return True

    for blocks in reference_quotients(pts, lns):
        def rec(i, chosen, used):
            nonlocal candidates, survivor
            if survivor is not None:
                return
            if i == len(blocks):
                candidates += 1
                if candidates > candidate_budget:
                    raise BudgetError("candidate budget exhausted")
                if evaluate(blocks, chosen):
                    survivor = QuotientAssignment(tuple(blocks), tuple(chosen))
                return
            targets = existing_pts if token_sort[blocks[i][0]] is Sort.POINT else existing_lns
            for tgt in [None] + targets:
                if tgt is not None and tgt in used:
                    continue
                rec(i + 1, chosen + [tgt], used | ({tgt} if tgt is not None else set()))

        try:
            rec(0, [], set())
        except BudgetError:
            return PatternVerdict(PatternStatus.UNKNOWN, None, stage, run.converged,
                                  candidates, f"candidate budget {candidate_budget} exhausted")
        if survivor is not None:
            break
    if survivor is not None:
        if run.converged:
            return PatternVerdict(PatternStatus.CONSISTENT, survivor, stage, True,
                                  candidates, "surviving quotient over the converged closure")
        return PatternVerdict(
            PatternStatus.UNKNOWN, survivor, stage, False, candidates,
            "a quotient survives but the base closure did not converge "
            f"within {stage_budget} stages")
    return PatternVerdict(
        PatternStatus.INCONSISTENT, None, stage, run.converged, candidates,
        f"all {candidates} assignments refuted at closure stage {stage}")


def assert_pattern_budgets_agree(base, pattern, instances, stage_budget):
    full = reference_pattern_consistent(base, pattern, instances, stage_budget)
    total = full.candidates
    for budget in sorted({0, 1, max(total - 1, 0), total, 1_000_000}):
        want = reference_pattern_consistent(base, pattern, instances, stage_budget, budget)
        got = pattern_consistent(base, pattern, instances, stage_budget=stage_budget,
                                 candidate_budget=budget)
        assert got == want, budget
    return full


def random_pattern_case(rng):
    """A small base, a pattern of at most five variables with at most four
    pool occurrences, and one to four instances (repeated parameters
    included, so the distinctness check is exercised)."""
    m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
    base = random_free_structure(rng, m, n, max_elements=5)
    while True:
        dg = random_free_structure(rng, m, n, max_elements=5)
        kinds = {e: rng.choice("spw") for e in dg.elements()}
        shared = tuple(e for e in dg.elements() if kinds[e] == "s")
        params = tuple(e for e in dg.elements() if kinds[e] == "p")
        witness = tuple(e for e in dg.elements() if kinds[e] == "w")
        base_of = {s: [e for e in base.elements() if base.sort(e) is s] for s in Sort}
        if any(not base_of[dg.sort(v)] for v in params):
            continue
        k = rng.randint(1, 4)
        if len(shared) + k * len(witness) <= 4:
            break
    pattern = ExistentialPattern(dg, shared, params, witness, exact=rng.random() < 0.7)
    instances = [tuple(rng.choice(base_of[dg.sort(v)]) for v in params) for _ in range(k)]
    return base, pattern, instances, rng.randint(0, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_pattern_matches_per_leaf_reference_at_every_budget(seed):
    assert_pattern_budgets_agree(*random_pattern_case(random.Random(seed)))


def test_pattern_parameters_lacking_a_demanded_incidence_are_refuted():
    base = build(2, 2, points=("p",), lines=("l",))
    dg = build(2, 2, points=("P",), lines=("L",), incidences=(("P", "L"),))
    pattern = ExistentialPattern(dg, (), (dg.by_name("P"), dg.by_name("L")), ())
    full = assert_pattern_budgets_agree(base, pattern, [(0, 1)], 0)
    assert (full.status, full.candidates) == (PatternStatus.INCONSISTENT, 1)


def test_pattern_target_lacking_a_demanded_incidence_is_refuted():
    # A shared line through three parameter points: fresh, it completes a
    # grid with l; on l, it demands the incidence (p2, l) the base lacks,
    # although adding it would complete no grid.
    base = build(2, 2, points=("p0", "p1", "p2"), lines=("l",),
                 incidences=(("p0", "l"), ("p1", "l")))
    dg = build(2, 2, points=("P",), lines=("X",), incidences=(("P", "X"),))
    pattern = ExistentialPattern(dg, (dg.by_name("X"),), (dg.by_name("P"),), ())
    rows = [(base.by_name(nm),) for nm in ("p0", "p1", "p2")]
    full = assert_pattern_budgets_agree(base, pattern, rows, 0)
    assert (full.status, full.candidates) == (PatternStatus.INCONSISTENT, 2)


def test_pattern_survivor_followed_by_refuted_sibling():
    # In the (3,2) x 2 search the survivor has refuted siblings after it;
    # counting them as well reads 5,221 instead of 5,202.
    base, pattern, rows = tp2_case(3, 2, 2)
    full = assert_pattern_budgets_agree(base, pattern, rows, 1)
    assert (full.status, full.candidates) == (PatternStatus.CONSISTENT, 5_202)


def test_a_refused_candidate_leaves_no_incidence_behind():
    # (3,2): p lies on l0 and l1, and the shared points X and Y must lie on
    # each instance's line, l1 and then l0.  Both fresh, they put three
    # points on both lines: the fourth incidence completes a K_{3,2} and
    # is refused after three were added.  The next candidate, Y on p, puts
    # two points on both lines; it survives only if those three are gone.
    base = build(3, 2, points=("p",), lines=("l0", "l1"),
                 incidences=(("p", "l0"), ("p", "l1")))
    dg = build(3, 2, points=("X", "Y"), lines=("L",),
               incidences=(("X", "L"), ("Y", "L")))
    x, y, line = (dg.by_name(nm) for nm in ("X", "Y", "L"))
    pattern = ExistentialPattern(dg, (x, y), (line,), ())
    rows = [(base.by_name("l1"),), (base.by_name("l0"),)]
    full = assert_pattern_budgets_agree(base, pattern, rows, 0)
    assert (full.status, full.candidates) == (PatternStatus.UNKNOWN, 2)
    assert full.quotient == QuotientAssignment(
        ((("s", x),), (("s", y),)), (None, base.by_name("p")))


def test_a_backtracked_level_leaves_nothing_behind():
    # (2,2): each instance's witness point P lies on the base lines l0 and
    # l1 and on the shared line S.  Two distinct witnesses put two points on
    # both lines, so the first partition is refuted at its second block, and
    # the first block's fresh point must go when its level is backtracked:
    # left behind, it completes a grid with the merged witness of the next
    # partition, which survives.
    base = build(2, 2, lines=("l0", "l1"))
    dg = build(2, 2, points=("P",), lines=("A", "B", "S"),
               incidences=(("P", "A"), ("P", "B"), ("P", "S")))
    a, b, shared, witness = (dg.by_name(nm) for nm in ("A", "B", "S", "P"))
    pattern = ExistentialPattern(dg, (shared,), (a, b), (witness,))
    l0, l1 = base.lines
    full = assert_pattern_budgets_agree(base, pattern, [(l0, l1), (l1, l0)], 0)
    assert (full.status, full.candidates) == (PatternStatus.UNKNOWN, 4)
    assert full.quotient.targets == (None, None)


def test_a_repeated_parameter_refutes_the_whole_space():
    # The second instance names p for both P1 and P2, which no realization
    # can give two distinct images, so every assignment is refuted, outside
    # exact mode too, where nothing else would refute them.  The witness
    # points of the two instances form two blocks, 1 + 4 + 2 = 7 fills from
    # the two base points, or one, 1 + 2 = 3; the shared line is fresh or l,
    # 2: the whole space is (7 + 3) * 2 = 20.
    base = build(2, 2, points=("p", "q"), lines=("l",), incidences=(("p", "l"),))
    dg = build(2, 2, points=("P1", "P2", "X"), lines=("L",),
               incidences=(("P1", "L"), ("X", "L")))
    p1, p2, x, line = (dg.by_name(nm) for nm in ("P1", "P2", "X", "L"))
    pattern = ExistentialPattern(dg, (line,), (p1, p2), (x,), exact=False)
    p, q = base.by_name("p"), base.by_name("q")
    full = assert_pattern_budgets_agree(base, pattern, [(p, q), (p, p)], 0)
    assert (full.status, full.candidates) == (PatternStatus.INCONSISTENT, 20)


def test_a_survivor_after_partitions_refuted_in_its_layer():
    # (2,2): each instance's witness point P lies on its lines A and B, its
    # witness point Q on A alone; no base point, so each block is fresh, one
    # assignment per partition.  While P0 and P1 are apart they lie on both
    # l0 and l1, a grid: the partition of no merge is refuted.  Of one merge,
    # P1 + Q1 holds two witnesses of one instance and is refuted before its
    # search, Q0 + P1 and Q0 + Q1 in it, P0 + Q0 before it, and P0 + P1
    # survives: 6 counted, two of them for the refuted partitions of its
    # layer before it.
    base = build(2, 2, lines=("l0", "l1"))
    dg = build(2, 2, points=("P", "Q"), lines=("A", "B"),
               incidences=(("P", "A"), ("P", "B"), ("Q", "A")))
    pw, qw, a, b = (dg.by_name(nm) for nm in ("P", "Q", "A", "B"))
    pattern = ExistentialPattern(dg, (), (a, b), (pw, qw))
    l0, l1 = base.lines
    full = assert_pattern_budgets_agree(base, pattern, [(l0, l1), (l1, l0)], 0)
    assert (full.status, full.candidates) == (PatternStatus.UNKNOWN, 6)
    assert full.quotient.blocks == ((("w", 0, pw), ("w", 1, pw)), (("w", 0, qw),),
                                    (("w", 1, qw),))


# ---------------------------------------------------------------------------
# _induced_embedding against the pairwise scan


def reference_induced_embedding(small, big, node_budget):
    """The pairwise-consistency search: a copy of the code before the
    one-comparison test."""
    from kmnfree.finsearch import _assignment_order

    order = _assignment_order(small)
    pts, lns = sorted(big.points), sorted(big.lines)
    mapping, used, nodes = {}, set(), 0

    def consistent(e, img):
        for other, img_other in mapping.items():
            if small.sort(other) is small.sort(e):
                continue
            p, l = (e, other) if small.is_point(e) else (other, e)
            ip, il = (img, img_other) if small.is_point(e) else (img_other, img)
            if small.incident(p, l) != big.incident(ip, il):
                return False
        return True

    def dfs(idx):
        nonlocal nodes
        if idx == len(order):
            return True
        e = order[idx]
        for img in pts if small.is_point(e) else lns:
            if img in used:
                continue
            if nodes >= node_budget:
                return None
            nodes += 1
            if not consistent(e, img):
                continue
            mapping[e] = img
            used.add(img)
            hit = dfs(idx + 1)
            if hit:
                return True
            del mapping[e]
            used.remove(img)
            if hit is None:
                return None
        return False

    outcome = dfs(0)
    if outcome is None:
        return SearchStatus.UNKNOWN, None, nodes
    if outcome:
        return SearchStatus.FOUND, dict(mapping), nodes
    return SearchStatus.NONE, None, nodes


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3, 10, 50, 400, 10**6]))
@settings(max_examples=150, deadline=None)
def test_induced_embedding_matches_pairwise_reference(seed, budget):
    # where both decide they agree on the verdict and the mapping; an
    # UNKNOWN has spent exactly its budget
    rng = random.Random(seed)
    small = random_free_structure(rng, 2, 2, max_elements=6)
    if rng.random() < 0.5:
        big = random_free_structure(rng, 2, 2, max_elements=12)
    else:
        big = find_projective_plane(rng.choice([1, 2, 3])).plane
    got = _induced_embedding(small, big, budget)
    want = reference_induced_embedding(small, big, budget)
    for status, _, nodes in (got, want):
        assert nodes <= budget
        if status is SearchStatus.UNKNOWN:
            assert nodes == budget
    if SearchStatus.UNKNOWN not in (got[0], want[0]):
        assert got[:2] == want[:2]


def test_root_images_outside_the_failed_orbit_are_tried():
    # the root point fails at the isolated point 0; no automorphism maps
    # it to point 1, which carries the only line
    small = build(2, 2, points=("p",), lines=("l",), incidences=(("p", "l"),))
    big = build(2, 2, points=("x", "y"), lines=("m",), incidences=(("y", "m"),))
    assert _induced_embedding(small, big, 100) == (SearchStatus.FOUND, {0: 1, 1: 2}, 4)
    assert reference_induced_embedding(small, big, 100)[:2] == (
        SearchStatus.FOUND, {0: 1, 1: 2})


# ---------------------------------------------------------------------------
# plane search against filtered combinations


class LineCount:
    """Counts the lines a plane search places: its node count before prefix
    tests were counted too."""

    placed = 0

    def _place(self, line):
        self.placed += 1
        super()._place(line)


class CountedPlaneSearch(LineCount, _PlaneSearch):
    pass


class ReferenceStop(Exception):
    pass


class FilteredPlaneSearch:
    """The canonical plane search on a v x v table of pair flags and a
    degree list, its candidates all (k-2)-subsets of the pool filtered by a
    pair test: the code before the point-by-point candidates, standing
    alone.  Nodes are counted as the search under test counts them: each
    line placed, and each prefix of a pool combination whose one-shorter
    prefix has no used pair, once, before the first combination that
    starts with it."""

    def __init__(self, order, budget):
        self.v, self.k = order * order + order + 1, order + 1
        self.budget, self.nodes, self.placed = budget, 0, 0
        self.used = [[False] * self.v for _ in range(self.v)]
        self.deg = [0] * self.v
        self.lines, self.solutions, self.exhausted = [], [], False

    def node(self):
        if self.nodes >= self.budget:
            raise ReferenceStop
        self.nodes += 1

    def pair_free(self, points):
        return not any(self.used[x][y] for x, y in itertools.combinations(points, 2))

    def candidates(self, a, b):
        if self.deg[a] >= self.k or self.deg[b] >= self.k:
            return
        pool = [p for p in range(b + 1, self.v) if self.deg[p] < self.k
                and not self.used[a][p] and not self.used[b][p]]
        last = ()
        for rest in itertools.combinations(pool, self.k - 2):
            for j in range(1, len(rest) + 1):
                if rest[:j] != last[:j] and self.pair_free(rest[:j - 1]):
                    self.node()
            last = rest
            if self.pair_free(rest):
                yield (a, b) + rest

    def mark(self, line, flag):
        for x, y in itertools.combinations(line, 2):
            self.used[x][y] = self.used[y][x] = flag
        for x in line:
            self.deg[x] += 1 if flag else -1

    def dfs(self, limit):
        pair = next(((a, b) for a in range(self.v) for b in range(a + 1, self.v)
                     if not self.used[a][b]), None)
        if pair is None:
            self.solutions.append(list(self.lines))
            if limit is not None and len(self.solutions) >= limit:
                raise ReferenceStop
            return
        for line in self.candidates(*pair):
            self.node()
            self.placed += 1
            self.mark(line, True)
            self.lines.append(line)
            self.dfs(limit)
            self.lines.pop()
            self.mark(line, False)

    def run(self, limit=None):
        try:
            self.dfs(limit)
            self.exhausted = True
        except ReferenceStop:
            pass


def run_search(cls, order, limit=None, budget=10**7):
    """(solutions, exhausted, lines placed, nodes) of one search."""
    search = cls(order, budget)
    search.run(limit)
    return search.solutions, search.exhausted, search.placed, search.nodes


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_plane_search_matches_filtered_reference(order):
    got = run_search(CountedPlaneSearch, order, limit=1)
    assert got == run_search(FilteredPlaneSearch, order, limit=1)
    assert got[3] == PLANE_NODES[order]
    # the plane is the first solution as a builder writes it, names included
    b = StructureBuilder(StructParams(2, 2))
    for _ in range(order * order + order + 1):
        b.add_point()
    for line in got[0][0]:
        l = b.add_line()
        for p in line:
            b.add_incidence(p, l, guard=False)
    clear_plane_cache()
    assert find_projective_plane(order).plane == b.build()


class FirstBacktrack(_PlaneSearch):
    """Stops at its first backtrack, when the search first takes a line
    back and resumes an enumeration."""

    def _unplace(self, line):
        raise _Stop


# nodes at the first backtrack; order 4's first plane needs none, so its
# first comes after that plane, when the search enumerates on
FIRST_BACKTRACK = {4: 112, 5: 325}


def test_first_backtracks_are_pinned():
    for order, nodes in FIRST_BACKTRACK.items():
        search = FirstBacktrack(order, 10**7)
        search.run()
        assert search.nodes == nodes


# budgets that run out inside a candidate enumeration: within 3 nodes of the
# first backtrack, and at order 5 six drawn from v = 31 up to its first plane
AROUND = [(o, first + d) for o, first in FIRST_BACKTRACK.items() for d in range(-3, 4)]
DRAWN = [(5, b) for b in random.Random(5).sample(range(31, PLANE_NODES[5]), 6)]
INSIDE_ENUMERATIONS = [(o, limit, b) for limit in (1, None) for o, b in AROUND + DRAWN]


@pytest.mark.parametrize("order,limit,budget", [
    (2, None, 10**7), (3, 50, 10**7), (3, None, 200), (4, 5, 10**7),
    (6, None, 20_000), (6, None, 100_000)] + INSIDE_ENUMERATIONS)
def test_plane_enumeration_matches_filtered_reference(order, limit, budget):
    # both count every prefix test, so at one budget they stop at one node,
    # also when it runs out inside a candidate enumeration
    got = run_search(CountedPlaneSearch, order, limit, budget)
    assert got == run_search(FilteredPlaneSearch, order, limit, budget)
    solutions, exhausted, _, nodes = got
    if not exhausted and (limit is None or len(solutions) < limit):
        assert nodes == budget


@pytest.mark.parametrize("order", range(1, 9))
def test_budget_below_the_point_count_ends_unknown_at_the_budget(order):
    # the search returns at once when the budget is below v; the reference
    # runs the whole search and spends that budget without an answer
    v = order * order + order + 1
    for budget in range(v):
        for limit in (1, None):
            solutions, exhausted, _, nodes = run_search(
                FilteredPlaneSearch, order, limit, budget)
            assert (solutions, exhausted, nodes) == ([], False, budget)
        clear_plane_cache()
        r = find_projective_plane(order, node_budget=budget)
        assert (r.status, r.nodes) == (SearchStatus.UNKNOWN, budget)
        assert enumerate_projective_planes(order, budget) == ([], False, budget)


# ---------------------------------------------------------------------------
# satisfies_complete against the validating common_neighbors scan


def reference_satisfies_complete(s):
    m, n = s.params.m, s.params.n
    for sigma in colex_combinations(sorted(s.points), m):
        cnt = len(common_neighbors(s, sigma))
        if cnt != n - 1:
            return CompletenessReport(False, "points", frozenset(sigma), cnt)
    for tau in colex_combinations(sorted(s.lines), n):
        cnt = len(common_neighbors(s, tau))
        if cnt != m - 1:
            return CompletenessReport(False, "lines", frozenset(tau), cnt)
    return CompletenessReport(True)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_satisfies_complete_matches_reference(seed):
    # unguarded incidences: structures with grids have m-sets on n or more
    # common lines, which a free structure never shows
    rng = random.Random(seed)
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
    b = StructureBuilder(StructParams(m, n))
    pts = [b.add_point() for _ in range(rng.randint(0, 6))]
    lns = [b.add_line() for _ in range(rng.randint(0, 6))]
    for p in pts:
        for l in lns:
            if rng.random() < 0.5:
                b.add_incidence(p, l, guard=False)
    s = b.build()
    assert satisfies_complete(s) == reference_satisfies_complete(s)


def test_satisfies_complete_on_planes_matches_reference():
    for order in (1, 2, 3):
        plane = find_projective_plane(order).plane
        assert satisfies_complete(plane) == reference_satisfies_complete(plane)
        assert satisfies_complete(plane).passed


def test_satisfies_complete_with_a_matching_count_sum_matches_reference():
    # the pairs of p0..p3 on two 3-point lines sum to C(4, 2) = 6, with
    # p0 p1 on both lines and p2 p3 on none
    s = build(2, 2, points=("p0", "p1", "p2", "p3"), lines=("l", "m"),
              incidences=(("p0", "l"), ("p1", "l"), ("p2", "l"),
                          ("p0", "m"), ("p1", "m"), ("p3", "m")), guard=False)
    assert satisfies_complete(s) == reference_satisfies_complete(s) == (
        CompletenessReport(False, "points", frozenset({0, 1}), 2))
