"""Usage errors at the library's entry points: a non-free input is refused
with the grid it contains, and a negative or non-int budget is refused
before any work."""

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


# each entry passes its second argument as the named budget: -1, or one
# that is not an int
NEGATIVE_BUDGETS = {
    "find_projective_plane": lambda q, b: find_projective_plane(2, node_budget=b),
    "enumerate_projective_planes": lambda q, b: enumerate_projective_planes(1, node_budget=b),
    "embed_in_finite_plane": lambda q, b: embed_in_finite_plane(fano_plane(), 2, node_budget=b),
    "embed_search_general.max_elements": lambda q, b: embed_search_general(
        fano_plane(), max_elements=b),
    "embed_search_general.node_budget": lambda q, b: embed_search_general(
        fano_plane(), node_budget=b),
    "LazyCompletion.element_cap": lambda q, b: LazyCompletion(q, element_cap=b),
    "LazyCompletion.closure": lambda q, b: LazyCompletion(q).closure([0, 1], stage_budget=b),
    "free_completion.stages": lambda q, b: free_completion(q, b),
    "free_completion.element_cap": lambda q, b: free_completion(q, 2, element_cap=b),
    "relative_free_completion.stage_budget": lambda q, b: relative_free_completion(q, [0], b),
    "relative_free_completion.element_cap": lambda q, b: relative_free_completion(
        q, [0], 2, element_cap=b),
    "probe.stage_budget": lambda q, b: nonfree_completion_probe(q, stage_budget=b),
    "probe.element_cap": lambda q, b: nonfree_completion_probe(q, element_cap=b),
    "probe.search_budget": lambda q, b: nonfree_completion_probe(q, search_budget=b),
    "closure_stages": lambda q, b: closure_stages(q, [0], budget=b),
    "generates": lambda q, b: generates(q, [0], [1], budget=b),
    "IndepQuery.stage_budget": lambda q, b: query(stage_budget=b),
    "IndepQuery.element_cap": lambda q, b: query(element_cap=b),
    "IndepQuery.d_bound": lambda q, b: query(d_bound=b),
    "indep_sequence": lambda q, b: indep_sequence(q, (0,), frozenset(), 2, element_cap=b),
    "pattern_consistent.stage_budget": lambda q, b: pattern_consistent(
        q, line_pattern(), [(0, 1)], stage_budget=b),
    "pattern_consistent.candidate_budget": lambda q, b: pattern_consistent(
        q, line_pattern(), [(0, 1)], candidate_budget=b),
    "pattern_consistent.element_cap": lambda q, b: pattern_consistent(
        q, line_pattern(), [(0, 1)], element_cap=b),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_BUDGETS))
def test_negative_budget_is_a_usage_error(entry):
    # a cached plane must not let a negative node budget through
    assert find_projective_plane(2).plane is not None
    with pytest.raises(ParameterError, match=r"^budget must be >= 0$"):
        NEGATIVE_BUDGETS[entry](quadrangle_structure(), -1)


@pytest.mark.parametrize("entry", sorted(NEGATIVE_BUDGETS))
def test_non_int_budget_is_a_usage_error(entry):
    # refused before any work: 2.5 used to fail inside islice or run, 1e7
    # and True to run as 10**7 and 1
    assert find_projective_plane(2).plane is not None
    for bad in (2.5, 1e7, True, "3"):
        with pytest.raises(ParameterError, match=r"^budget must be an integer$"):
            NEGATIVE_BUDGETS[entry](quadrangle_structure(), bad)
