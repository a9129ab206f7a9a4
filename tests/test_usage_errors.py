"""Usage errors at the library's entry points: a non-free input is refused
with the grid it contains, and a negative budget is refused before any work."""

import pytest

from kmnfree import (
    ExistentialPattern,
    IndepQuery,
    LazyCompletion,
    ParameterError,
    PreconditionError,
    Relation,
    SafeDiagram,
    closure_stages,
    deficient_sets,
    embed_in_finite_plane,
    embed_search_general,
    enumerate_projective_planes,
    extension_witness,
    fano_plane,
    find_projective_plane,
    free_completion,
    generates,
    indep_sequence,
    is_kmn_free,
    nonfree_completion_probe,
    pattern_consistent,
    relative_free_completion,
)
from kmnfree.completion import complete_step, initial_stage

from conftest import build, quadrangle_structure


def grid_structure():
    return build(2, 2, points=("p", "q"), lines=("u", "v"),
                 incidences=[(p, l) for p in "pq" for l in "uv"], guard=False)


def flag_diagram():
    dg = build(2, 2, points=("b",), lines=("e",), incidences=[("b", "e")])
    return SafeDiagram(dg, (dg.by_name("b"),), (dg.by_name("e"),))


REFUSALS = {
    "deficient_sets": ("structure", lambda g: deficient_sets(g)),
    "complete_step": ("stage structure", lambda g: complete_step(initial_stage(g))),
    "free_completion": ("seed structure", lambda g: free_completion(g, 1)),
    "LazyCompletion": ("ambient structure", lambda g: LazyCompletion(g)),
    "extension_witness": ("host structure",
                          lambda g: extension_witness(g, [0], flag_diagram())),
    "embed_in_finite_plane": ("input", lambda g: embed_in_finite_plane(g, 2)),
    "embed_search_general": ("input", lambda g: embed_search_general(g)),
    "nonfree_completion_probe": ("structure", lambda g: nonfree_completion_probe(g)),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_non_free_input_is_refused_with_its_grid(entry):
    label, call = REFUSALS[entry]
    grid = grid_structure()
    _, witness = is_kmn_free(grid)
    with pytest.raises(PreconditionError) as err:
        call(grid)
    assert str(err.value) == f"{label} is not K-free: {witness}"


def line_pattern():
    dg = build(2, 2, points=("y1", "y2"), lines=("w",),
               incidences=[("y1", "w"), ("y2", "w")])
    return ExistentialPattern(dg, (), (0, 1), (dg.by_name("w"),), exact=True)


def query(**budgets):
    quad = quadrangle_structure()
    return IndepQuery(quad, frozenset({0}), frozenset({1}), frozenset(), Relation.I,
                      **budgets)


NEGATIVE_BUDGETS = {
    "find_projective_plane": lambda q: find_projective_plane(2, node_budget=-1),
    "enumerate_projective_planes": lambda q: enumerate_projective_planes(1, node_budget=-1),
    "embed_in_finite_plane": lambda q: embed_in_finite_plane(fano_plane(), 2, node_budget=-5),
    "embed_search_general.max_elements": lambda q: embed_search_general(
        fano_plane(), max_elements=-1),
    "embed_search_general.node_budget": lambda q: embed_search_general(
        fano_plane(), node_budget=-1),
    "LazyCompletion.element_cap": lambda q: LazyCompletion(q, element_cap=-1),
    "LazyCompletion.closure": lambda q: LazyCompletion(q).closure([0, 1], stage_budget=-1),
    "free_completion.stages": lambda q: free_completion(q, -1),
    "free_completion.element_cap": lambda q: free_completion(q, 2, element_cap=-1),
    "relative_free_completion.stage_budget": lambda q: relative_free_completion(q, [0], -1),
    "relative_free_completion.element_cap": lambda q: relative_free_completion(
        q, [0], 2, element_cap=-1),
    "probe.stage_budget": lambda q: nonfree_completion_probe(q, stage_budget=-1),
    "probe.element_cap": lambda q: nonfree_completion_probe(q, element_cap=-1),
    "probe.search_budget": lambda q: nonfree_completion_probe(q, search_budget=-1),
    "closure_stages": lambda q: closure_stages(q, [0], budget=-1),
    "generates": lambda q: generates(q, [0], [1], budget=-1),
    "IndepQuery.stage_budget": lambda q: query(stage_budget=-1),
    "IndepQuery.element_cap": lambda q: query(element_cap=-1),
    "IndepQuery.d_bound": lambda q: query(d_bound=-1),
    "indep_sequence": lambda q: indep_sequence(q, (0,), frozenset(), 2, element_cap=-1),
    "pattern_consistent.stage_budget": lambda q: pattern_consistent(
        q, line_pattern(), [(0, 1)], stage_budget=-1),
    "pattern_consistent.candidate_budget": lambda q: pattern_consistent(
        q, line_pattern(), [(0, 1)], candidate_budget=-1),
    "pattern_consistent.element_cap": lambda q: pattern_consistent(
        q, line_pattern(), [(0, 1)], element_cap=-1),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_BUDGETS))
def test_negative_budget_is_a_usage_error(entry):
    # a cached plane must not let a negative node budget through
    assert find_projective_plane(2).plane is not None
    with pytest.raises(ParameterError, match=r"^budget must be >= 0$"):
        NEGATIVE_BUDGETS[entry](quadrangle_structure())
