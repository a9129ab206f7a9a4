"""The command-line surface: documents, exit codes, output shapes."""

import argparse
import hashlib
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kmnfree
import kmnfree.cli as cli_module
from kmnfree import (
    BudgetError,
    FreenessViolationError,
    StructParams,
    StructureBuilder,
    emit_structure,
    free_completion,
    gamma,
    isomorphic_over,
    parse_structure,
)
from kmnfree.cli import (
    DocumentError,
    _build_parser,
    _document_text,
    dispatch,
    fixture_text,
    structure_document,
)

from conftest import (
    build,
    otimes_over_i_structure,
    quadrangle_structure,
    reference_completion_provenance,
)


def run(capsys, *argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# document format


def test_round_trip_is_byte_exact(quadrangle):
    text = emit_structure(quadrangle)
    again = emit_structure(parse_structure(text))
    assert again == text
    assert text.endswith("\n")


def test_round_trip_preserves_structure():
    s = build(2, 3, points=("p", "q"), lines=("u",),
              incidences=[("p", "u")])
    t = parse_structure(emit_structure(s))
    assert t.params == s.params
    assert isomorphic_over(s, t, {e: t.by_name(s.name(e))
                                  for e in s.elements()})


def test_parse_rejections():
    cases = [
        ("{", "malformed document"),
        ("[]", "top level must be an object"),
        ('{"m": 2, "n": 2}', "missing 'points'"),
        ('{"m": 2, "n": 2, "points": [], "lines": [], "incidences": [],'
         ' "extra": 1}', "unknown document keys"),
        ('{"m": "x", "n": 2, "points": [], "lines": [], "incidences": []}',
         "m and n must be integers"),
        ('{"m": 2, "n": 2, "points": ["p", "p"], "lines": [],'
         ' "incidences": []}', "duplicate name: p"),
        ('{"m": 2, "n": 2, "points": ["p"], "lines": [],'
         ' "incidences": [["p"]]}', "bad incidence entry"),
        ('{"m": 2, "n": 2, "points": ["p"], "lines": [],'
         ' "incidences": [["p", "nope"]]}', "unknown name: nope"),
        ('{"m": 2, "n": 2, "points": ["p"], "lines": ["z"],'
         ' "incidences": [["z", "p"]]}', "z is not a point"),
        ('{"m": 2, "n": 2, "points": ["p", "q"], "lines": [],'
         ' "incidences": [["p", "q"]]}', "q is not a line"),
    ]
    for text, needle in cases:
        with pytest.raises(DocumentError) as exc:
            parse_structure(text)
        assert needle in str(exc.value), text


@pytest.mark.parametrize("text, needle", [
    ('{"m": true, "n": 2, "points": [], "lines": [], "incidences": []}',
     "m and n must be integers"),
    ('{"m": 2, "n": false, "points": [], "lines": [], "incidences": []}',
     "m and n must be integers"),
    ('{"m": 2, "n": 2, "points": [""], "lines": [], "incidences": []}',
     "empty point name"),
    ('{"m": 2, "n": 2, "points": [], "lines": ["z", ""], "incidences": []}',
     "empty line name"),
])
def test_boolean_parameters_and_empty_names_are_refused(capsys, tmp_path, text,
                                                        needle):
    with pytest.raises(DocumentError, match=needle):
        parse_structure(text)
    f = tmp_path / "doc.json"
    f.write_text(text)
    code, doc, err = run_json(capsys, "check", str(f))
    assert (code, doc) == (1, {"error": needle})


def test_deeply_nested_document_is_a_document_error(capsys, tmp_path):
    # json.loads raises RecursionError on it, which used to escape dispatch
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    code, doc, err = run_json(capsys, "check", str(f))
    assert code == 1
    assert doc["error"].startswith("malformed document: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stage6_completion_document_round_trip_is_byte_exact(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, text, _ = run(capsys, "complete", str(f), "--stages", "6")
    assert code == 0
    s = parse_structure(text)
    assert len(s) == 328
    prov = json.loads(text)["provenance"]
    assert emit_structure(s, provenance=prov) == text


def test_dot_output(quadrangle):
    s = build(2, 2, points=("p", "q"), lines=('l"1',),
              incidences=[("p", 'l"1')])
    dot = emit_structure(s, fmt="dot")
    assert dot.startswith("graph incidence {")
    assert '"p" -- "l\\"1";' in dot
    assert dot.count("--") == 1


def test_fixture_matches_generator():
    s = parse_structure(fixture_text("gamma_empty.json"))
    g = gamma("").structure
    assert isomorphic_over(g, s, {e: s.by_name(g.name(e))
                                  for e in g.elements()})
    assert emit_structure(s) == fixture_text("gamma_empty.json")


def json_dumps_document(s, provenance=None):
    """The canonical document as the json module writes it."""
    return json.dumps(structure_document(s, provenance),
                      indent=2, sort_keys=True) + "\n"


AWKWARD_NAMES = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "caf\u00e9",
                 "\u03bb", "\U0001f600", "", " "]


@pytest.mark.parametrize("points, lines", [
    (AWKWARD_NAMES[:4], AWKWARD_NAMES[4:]),
    (["p10", "p9", "p2"], ["l10", "l9", "l1"]),
    ([], ["l10", "l9"]),
    (["p10", "p9"], []),
    ([], []),
])
@pytest.mark.parametrize("provenance", [
    None, {}, {"l9": {"stage": 2, "spawner": ["p9", "p10"]},
               "l10": {"stage": 1, "spawner": []}},
    {"k": -3, "l9": [1, 2.5, True, None, {"x": [], "\u00e9": {}}],
     "numbered": {10: "a", 9: "b", 1.5: None}},
])
def test_document_writer_matches_json_dumps(points, lines, provenance):
    incidences = [(p, l) for i, p in enumerate(points)
                  for j, l in enumerate(lines) if (i + j) % 2 == 0]
    s = build(2, 2, points=points, lines=lines, incidences=incidences,
              guard=False)
    assert emit_structure(s, provenance=provenance) == json_dumps_document(
        s, provenance)


def test_document_writer_matches_json_dumps_on_a_completion():
    run = free_completion(quadrangle_structure(), 5)
    s = run.final.structure
    prov = reference_completion_provenance(s, run.final.provenance)
    assert len(prov) == 42
    assert emit_structure(s, provenance=prov) == json_dumps_document(s, prov)


@pytest.mark.parametrize("m, n, points, lines, stages", [
    (2, 2, AWKWARD_NAMES[:4], (), 2),
    (2, 3, ['q"', "b\\s", "\u00e9"], [" ", "\U0001f600"], 2),
    (2, 2, ["l9", "l10", "p9", "p10"], (), 2),
    (3, 2, ["p1", "p2", "p3", "p4"], ["l10", "l9"], 1),
    (2, 2, ["p1", "p2", "p3", "p4"], (), 0),
    (2, 2, ["a", "b"], (), 4),  # sizes pad to [2, 3, 3, 3, 3]
])
def test_completion_document_matches_the_provenance_dict(
        capsys, tmp_path, m, n, points, lines, stages):
    # the complete command writes its provenance records directly; the text
    # must be what the dict of those records gives, as json.dumps writes it
    seed = build(m, n, points=points, lines=lines)
    final = free_completion(seed, stages).final
    s = final.structure
    prov = reference_completion_provenance(s, final.provenance)
    assert _document_text(s, sizes=final.sizes) == _document_text(s, json.dumps(
        prov, indent=2, sort_keys=True).replace("\n", "\n  "))
    assert (prov == {}) == (stages == 0)
    f = tmp_path / "seed.json"
    f.write_text(emit_structure(seed))
    code, text, _ = run(capsys, "complete", str(f), "--stages", str(stages))
    assert code == 0
    assert text == json_dumps_document(s, prov)


@pytest.mark.parametrize("m, n, stages, digest", [
    (2, 2, 7, "337ceec796688ce59339ce721a5fb71eb2d7a0e6238299c10e5569f03407888c"),
    (2, 3, 3, "66ad86697e3fc1eaebf3cd62b2679cfbe0d4b7151565cf461c896b9c64ef8ef8"),
])
def test_quadrangle_completion_documents_are_pinned(
        capsys, tmp_path, m, n, stages, digest):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(build(m, n, points=("p1", "p2", "p3", "p4"))))
    code, text, _ = run(capsys, "complete", str(f), "--stages", str(stages))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("m, n, points, lines, incidences, digest", [
    # sizes [4, 7, 8, 8, 8, 8]: stage-1 lines gain stage-2 points
    (2, 2, ["a0"], ["u0", "u1", "u2"], [("a0", "u0")],
     "2fbc0a01c06252b240aaae362b87b3c555bc7834d7bfd0f1e8e9c90316ab2833"),
    # sizes [4, 5, 6, 7, 7, 7]
    (2, 3, ["a0"], ["u0", "u1", "u2"], [],
     "49fb4d0cf66e3f8bb9636fe20ca714737ab8b486915e519e97fd77bbb9595adf"),
    # sizes [3, 4, 5, 6, 6, 6]
    (3, 2, ["a0"], ["u0", "u1"], [],
     "b20f607d70502d52a01cd57015ef4bdf32537be7842d0278062da39fd0114fb0"),
])
def test_completion_documents_past_the_fixpoint_are_pinned(
        capsys, tmp_path, m, n, points, lines, incidences, digest):
    # past the fixpoint the sizes repeat the last count, so no element is
    # taken for one born at the last stage: every spawner is filtered
    f = tmp_path / "seed.json"
    f.write_text(emit_structure(build(m, n, points=points, lines=lines,
                                      incidences=incidences)))
    code, text, _ = run(capsys, "complete", str(f), "--stages", "5")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("gamma", "--eta", "0110"),
     "2c1f3ecdd353c93cbbac436acfeb5a75c3c61cfc35df92d6f25d8d19904f91a4"),
    (("gamma", "--eta", "1"),
     "a701093d0d9faeeff3a0c4d14dc46b212f1a1cf49538f396cb0968d9682f808b"),
    (("bm", "--m", "3", "--n", "4"),
     "570a05d9cec15ff3b5ff5c09fd2e9ca6085fa9f0777eb437d5a65493e7f1b0eb"),
    (("probe", "QUADRANGLE"),
     "9bb3602fccf8441876ee6cd1d0697c7a17ddfae49eb1405ce1884c3f0e88935c"),
])
def test_construction_documents_are_pinned(capsys, tmp_path, argv, digest):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    argv = tuple(str(f) if a == "QUADRANGLE" else a for a in argv)
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def reference_dot(s):
    """Reference copy of the DOT writer as it was before it quoted each name
    once: one formatted line per element and per incidence."""
    def quote(name):
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = ["graph incidence {"]
    pts, lns = sorted(s.points), sorted(s.lines)
    if pts:
        out.append("  node [shape=ellipse];")
        out.extend(f"  {quote(s.name(p))};" for p in pts)
    if lns:
        out.append("  node [shape=box];")
        out.extend(f"  {quote(s.name(l))};" for l in lns)
    for p in pts:
        for l in sorted(s.neighbors(p)):
            out.append(f"  {quote(s.name(p))} -- {quote(s.name(l))};")
    out.append("}")
    return "\n".join(out) + "\n"


def test_completion_dot_output_is_unchanged(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    for stages, digest in [
        (4, "5af3e6924d50ccb655ce67b3d76c4af49cabe91777643611ec8a7536b03446c5"),
        (7, "2e3cf5eac657ea79c101b7e5eb7848295c9ba931b8194542239dec1f2f860636"),
    ]:
        code, text, _ = run(capsys, "complete", str(f), "--stages", str(stages),
                            "--emit", "dot")
        assert code == 0
        assert text == reference_dot(
            free_completion(quadrangle_structure(), stages).final.structure)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# names that the completion's own spawns take, and ones that push them aside
SPAWN_LIKE_NAMES = ["p1", "p2", "p5", "l1", "l3", "_p5", "_l1", 'a"0', "b\\1",
                    "\u00e9"]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_completion_documents_match_the_references_on_random_seeds(data):
    # random free seeds with base incidences, so that a base element can
    # have younger base neighbours, staged past their fixpoint or not
    m, n = data.draw(st.sampled_from([2, 3])), data.draw(st.sampled_from([2, 3]))
    names = data.draw(st.lists(st.sampled_from(SPAWN_LIKE_NAMES), unique=True,
                               min_size=1, max_size=7))
    n_points = data.draw(st.integers(0, len(names)))
    bld = StructureBuilder(StructParams(m, n))
    pts = [bld.add_point(nm) for nm in names[:n_points]]
    lns = [bld.add_line(nm) for nm in names[n_points:]]
    if pts and lns:
        for p, l in data.draw(st.lists(st.tuples(st.sampled_from(pts),
                                                 st.sampled_from(lns)))):
            try:
                bld.add_incidence(p, l)
            except FreenessViolationError:
                pass
    try:
        final = free_completion(bld.build(), data.draw(st.integers(0, 4)),
                                element_cap=400).final
    except BudgetError:
        return
    s = final.structure
    prov = reference_completion_provenance(s, final.provenance)
    assert _document_text(s, sizes=final.sizes) == json_dumps_document(s, prov)
    assert emit_structure(s, "dot") == reference_dot(s)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_document_writer_matches_json_dumps_on_random_names(data):
    names = data.draw(st.lists(st.text(max_size=4), unique=True, max_size=8))
    sorts = data.draw(st.lists(st.booleans(), min_size=len(names),
                               max_size=len(names)))
    bld = StructureBuilder(StructParams(2, 3))
    ids = [bld.add_point(nm) if is_point else bld.add_line(nm)
           for nm, is_point in zip(names, sorts)]
    pts = [e for e, is_point in zip(ids, sorts) if is_point]
    lns = [e for e, is_point in zip(ids, sorts) if not is_point]
    if lns:
        for p in pts:
            for l in data.draw(st.lists(st.sampled_from(lns), max_size=3)):
                bld.add_incidence(p, l, guard=False)
    s = bld.build()
    keys = st.sampled_from(names) if names else st.just("")
    record = st.fixed_dictionaries(
        {"stage": st.integers(0, 9), "spawner": st.lists(keys, max_size=3)})
    provenance = data.draw(st.none() | st.dictionaries(keys, record, max_size=4))
    assert emit_structure(s, provenance=provenance) == json_dumps_document(
        s, provenance)


# ---------------------------------------------------------------------------
# exit code 0: decided queries


def test_check_command(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, "check", str(f))
    assert code == 0
    assert doc["free"] is True and doc["complete"] is False
    assert doc["completeness_failure"]["kind"] == "points"
    assert "free, not complete" in err


def test_check_classifies_nonfree(capsys, tmp_path):
    grid = build(2, 2, points=("p", "q"), lines=("u", "v"),
                 incidences=[(p, l) for p in "pq" for l in "uv"],
                 guard=False)
    f = tmp_path / "grid.json"
    f.write_text(emit_structure(grid))
    code, doc, err = run_json(capsys, "check", str(f))
    assert code == 0
    assert doc["free"] is False
    assert sorted(doc["freeness_witness"]["points"]) == ["p", "q"]


def test_complete_command(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, "complete", str(f), "--stages", "2")
    assert code == 0
    assert len(doc["points"]) + len(doc["lines"]) == 13
    # fresh elements carry stage and spawner annotations
    prov = doc["provenance"]
    assert all(entry["stage"] in (1, 2) for entry in prov.values())
    spawners = next(iter(prov.values()))["spawner"]
    assert isinstance(spawners, list)


def test_glue_rejection_is_decided(capsys, tmp_path):
    names = {}
    for key, pts in [("xa", ("d", "a")), ("xb", ("b",)), ("xc", ("d", "c")),
                     ("xab", ("d", "a", "b")), ("xac", ("d", "a", "c")),
                     ("xbc", ("d", "b", "c"))]:
        f = tmp_path / f"{key}.json"
        f.write_text(emit_structure(build(2, 2, points=pts)))
        names[key] = str(f)
    code, doc, err = run_json(
        capsys, "glue", "--d", "d",
        *[arg for key in names for arg in (f"--{key}", names[key])])
    assert code == 0
    assert doc["ok"] is False
    assert doc["hypothesis"] == "base:D<=X_b"


def test_indep_dependent_is_decided(capsys, tmp_path):
    f = tmp_path / "bm.json"
    code, out, err = run(capsys, "bm", "--m", "2", "--n", "2")
    assert code == 0
    f.write_text(out)
    code, doc, err = run_json(capsys, "indep", str(f), "--rel", "i",
                              "--a", "a1,a2", "--b", "b", "--c", "c1")
    assert code == 0
    assert doc["status"] == "dependent"
    assert doc["witness"] == ["b", "z"]


def test_indep_otimes_dependence_names_its_witness(capsys, tmp_path):
    f = tmp_path / "s.json"
    f.write_text(emit_structure(otimes_over_i_structure()))
    code, doc, err = run_json(capsys, "indep", str(f), "--rel", "otimes", "--a", "p0,p1",
                              "--b", "l3", "--c", "l0", "--stages", "4")
    assert code == 0
    assert doc["status"] == "dependent"
    assert doc["witness"] == ["l4", ["p0", "p1", "p2", "p3"]]


def test_indep_div_on_the_2_3_configuration_ends_at_the_element_cap(capsys, tmp_path):
    # the closure of AC over D={b, c1} grows until the element cap stops it;
    # at the default cap of 100,000 that takes minutes
    f = tmp_path / "bm23.json"
    code, out, err = run(capsys, "bm", "--m", "2", "--n", "3")
    assert code == 0
    f.write_text(out)
    code, doc, err = run_json(capsys, "indep", str(f), "--rel", "d", "--a", "a1,a2",
                              "--b", "b", "--c", "c1", "--elements", "2000")
    assert code == 2
    assert doc["status"] == "unknown"
    assert doc["detail"] == ("sub-query over D=[1, 4]: closure of AC did not "
                             "converge (element cap)")


def test_separate_command(capsys):
    code, doc, err = run_json(capsys, "separate", "--eta", "0")
    assert code == 0
    assert doc["separates"] is True


def test_gamma_command(capsys):
    code, doc, err = run_json(capsys, "gamma", "--eta", "01")
    assert code == 0
    assert len(doc["points"]) == 19
    assert len(doc["lines"]) == 18


def test_gamma_command_on_2000_bits(capsys):
    # six of its lines carry about 2,000 points each: the grid check runs over
    # the pairs of lines through each point instead, and ends in about a second
    code, doc, err = run_json(capsys, "gamma", "--eta", "01" * 1000)
    assert code == 0
    assert (len(doc["points"]), len(doc["lines"])) == (12_007, 9_009)


@pytest.mark.parametrize("command", ["gamma", "separate"])
@pytest.mark.parametrize("eta", ["a", "\uff101"])
def test_non_bits_exit_1_naming_the_bit(capsys, command, eta):
    code, doc, err = run_json(capsys, command, "--eta", eta)
    assert code == 1
    assert doc == {"error": f"bit string may only contain 0 and 1, got {eta[0]!r}"}


def test_sequence_command(capsys, tmp_path):
    f = tmp_path / "amb.json"
    f.write_text(emit_structure(build(2, 2, points=("b0",), lines=("c1",))))
    code, doc, err = run_json(capsys, "sequence", str(f),
                              "--b", "b0,c1", "--length", "3")
    assert code == 0
    assert doc["tuples"] == [["b0", "c1"], ["b0'", "c1'"], ["b0''", "c1''"]]


def test_pattern_command(capsys):
    code, doc, err = run_json(capsys, "pattern", "--instances", "1")
    assert code == 0
    assert doc["status"] == "consistent"
    code, doc, err = run_json(capsys, "pattern", "--instances", "3")
    assert code == 0
    assert doc["status"] == "inconsistent"


@pytest.mark.parametrize("instances", [4, 5])
def test_pattern_past_three_instances_ends_at_the_candidate_budget(capsys,
                                                                   instances):
    # the sequence's own check only refutes: its closures of three points and
    # a line do not converge at (2,2), and that no longer ends the command
    code, doc, err = run_json(capsys, "pattern", "--instances", str(instances),
                              "--elements", "2000", "--nodes", "1000")
    assert code == 2
    assert doc == {"command": "pattern", "m": 2, "n": 2,
                   "instances": instances, "status": "unknown", "stage": 1,
                   "candidates": 1001,
                   "detail": "candidate budget 1000 exhausted"}


SURVIVES = "a quotient survives but the base closure did not converge within 1 stages"


@pytest.mark.parametrize("m, n, instances, caps, candidates, detail", [
    (3, 2, 3, (), 8_514_851, SURVIVES),
    (3, 3, 3, (), 10_000_001, "candidate budget 10000000 exhausted"),
    (2, 4, 2, (), 4_655, SURVIVES),
    # the sequence's own check spawns toward the element cap before the
    # search starts; at the default cap of 100,000 that did not end in 150 s
    (2, 3, 3, ("--elements", "2000"), 2_200_538, SURVIVES),
    # 1,099,644 quotients, searched one merge layer at a time
    (3, 2, 4, (), 10_000_001, "candidate budget 10000000 exhausted"),
    # the lower cap for the same reason as 2-3x3: at the default cap the
    # sequence's check did not end within 60 s
    (3, 3, 4, ("--elements", "2000"), 10_000_001, "candidate budget 10000000 exhausted"),
], ids=["3-2x3", "3-3x3", "2-4x2", "2-3x3", "3-2x4", "3-3x4"])
def test_pattern_at_default_budgets_is_pinned(capsys, m, n, instances, caps,
                                              candidates, detail):
    # each run ends undecided at the default stage and candidate budgets
    # (--stages 1 --nodes 10000000)
    code, doc, err = run_json(capsys, "pattern", "--m", str(m), "--n", str(n),
                              "--instances", str(instances), *caps)
    assert code == 2
    assert doc == {"command": "pattern", "m": m, "n": n,
                   "instances": instances, "status": "unknown", "stage": 1,
                   "candidates": candidates, "detail": detail}


@pytest.mark.parametrize("instances", ["0", "-1"])
def test_pattern_needs_an_instance(capsys, instances):
    code, doc, err = run_json(capsys, "pattern", "--instances", instances)
    assert code == 1
    assert doc == {"error": "instances must be >= 1"}


@pytest.mark.parametrize("m, n, message", [
    ("1", "3", "the configuration needs m, n >= 2"),
    ("3", "1", "the configuration needs m, n >= 2"),
    ("0", "3", "m and n must be >= 1, got (0, 3)"),
])
def test_pattern_refuses_small_parameters_before_the_sequence(capsys, monkeypatch,
                                                              m, n, message):
    def no_sequence(*args, **kw):
        raise AssertionError("the sequence was built")

    monkeypatch.setattr(cli_module, "indep_sequence", no_sequence)
    code, doc, err = run_json(capsys, "pattern", "--m", m, "--n", n,
                              "--instances", "200")
    assert code == 1
    assert doc == {"error": message}


def test_plane_found(capsys):
    code, doc, err = run_json(capsys, "plane", "--order", "2")
    assert code == 0
    assert len(doc["points"]) == 7 and len(doc["lines"]) == 7


def test_embed_with_order(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, "embed", str(f), "--order", "2")
    assert code == 0
    assert doc["status"] == "found"
    assert set(doc["mapping"]) == {"p1", "p2", "p3", "p4"}


def test_stdin_dash(capsys, tmp_path, monkeypatch):
    import io
    text = emit_structure(quadrangle_structure())
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, doc, err = run_json(capsys, "check", "-")
    assert code == 0
    assert doc["free"] is True


# ---------------------------------------------------------------------------
# exit code 1: malformed input


def test_usage_errors(capsys, tmp_path):
    code, doc, err = run_json(capsys)
    assert code == 1 and "subcommand" in doc["error"]

    code, doc, err = run_json(capsys, "closure")
    assert code == 1  # missing required flags

    f = tmp_path / "bad.json"
    f.write_text("{nope")
    code, doc, err = run_json(capsys, "check", str(f))
    assert code == 1
    assert "malformed document" in doc["error"]

    code, doc, err = run_json(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 1

    code, doc, err = run_json(capsys, "bm", "--m", "1")
    assert code == 1
    assert "m, n >= 2" in doc["error"]


def test_unknown_set_name(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, "closure", str(f), "--set", "p1,zz")
    assert code == 1
    assert "zz" in doc["error"]


def test_negative_stage_budget_is_a_usage_error(capsys, tmp_path):
    # the finite and the lazy closure reject it with the same check
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    for argv in (("closure", str(f), "--set", "p1,p2"),
                 ("indep", str(f), "--rel", "i", "--a", "p1", "--b", "p2")):
        code, doc, err = run_json(capsys, *argv, "--stages", "-1")
        assert code == 1
        assert doc == {"error": "budget must be >= 0"}


@pytest.mark.parametrize("argv", [
    ("indep", "Q", "--rel", "d", "--a", "p1", "--b", "p2", "--d-bound", "-1"),
    ("indep", "Q", "--rel", "d", "--a", "p1", "--b", "p2", "--elements", "-1"),
    ("complete", "Q", "--elements", "-5"),
    ("plane", "--order", "3", "--nodes", "-1"),
    ("probe", "Q", "--stages", "-1"),
])
def test_negative_budgets_are_usage_errors(capsys, tmp_path, argv):
    # no negative budget reads as an exhausted one (exit 2)
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, *(str(f) if a == "Q" else a for a in argv))
    assert code == 1
    assert doc == {"error": "budget must be >= 0"}


@pytest.mark.parametrize("argv, stages, elements", [
    (("complete", "Q"), 8, 100_000),
    (("pattern", "--instances", "3"), 1, 100_000),
    (("embed", "Q"), None, 200),
])
def test_budget_defaults_per_command(capsys, argv, stages, elements):
    # each command's parser holds its own defaults, and its help says them
    args = _build_parser().parse_args(argv)
    assert (getattr(args, "stages", None), args.elements) == (stages, elements)
    with pytest.raises(SystemExit):
        dispatch((argv[0], "--help"))
    text = " ".join(capsys.readouterr().out.split())
    assert (f"stage budget (default {stages})" in text) == (stages is not None)
    assert f"element cap for workspaces (default {elements})" in text


def test_every_registered_option_is_read_by_its_handler():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = 0
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        read = set(re.findall(r"\bargs\.(\w+)",
                              inspect.getsource(parser.get_default("run"))))
        assert {a.dest for a in actions} == read, name
        assert all(len(a.option_strings) <= 1 for a in actions), name  # no alias
        options += sum(1 for a in actions if a.option_strings)
    assert options == 60


@pytest.mark.parametrize("argv", [
    ("check", "Q", "--stages", "3"),
    ("plane", "--order", "2", "--seed", "1"),
    ("plane", "--order", "6", "--budget", "500"),
])
def test_flags_a_command_does_not_take_are_usage_errors(capsys, tmp_path, argv):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, *(str(f) if a == "Q" else a for a in argv))
    assert code == 1
    assert list(doc) == ["error"]


# ---------------------------------------------------------------------------
# exit code 2: undecided


def test_unconverged_closure_exits_2(capsys, tmp_path, quad_run):
    # closure of the four seeds inside the big stage-5 ambient keeps
    # growing past any 3-stage prefix
    f = tmp_path / "big.json"
    f.write_text(emit_structure(quad_run.final.structure))
    code, doc, err = run_json(capsys, "closure", str(f),
                              "--set", "p1,p2,p3,p4", "--stages", "3")
    assert code == 2
    assert doc["converged"] is False
    assert doc["sizes"] == [4, 10, 13, 16]


def test_plane_budget_exits_2(capsys):
    code, doc, err = run_json(capsys, "plane", "--order", "6",
                              "--nodes", "500")
    assert code == 2
    assert doc["status"] == "unknown"


def test_plane_budget_below_the_point_count_ends_at_once(capsys):
    # order 1000 has 1,001,001 points, so one node cannot place a plane;
    # the search says so before it builds a row
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "plane", "--order", "1000", "--nodes", "1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert doc == {"command": "plane", "order": 1000, "status": "unknown",
                   "nodes": 1}


def test_budget_error_exits_2(capsys, tmp_path):
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    code, doc, err = run_json(capsys, "complete", str(f),
                              "--stages", "6", "--elements", "100")
    assert code == 2
    assert doc["status"] == "unknown"


def test_complete_with_default_budgets_ends_at_the_element_cap(tmp_path):
    # stage 8 of the quadrangle needs more than the default 100,000 elements;
    # the deficiency scan of stage 7 stops once the cap is passed
    f = tmp_path / "q.json"
    f.write_text(emit_structure(quadrangle_structure()))
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "kmnfree", "complete", str(f)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert out.returncode == 2
    assert json.loads(out.stdout) == {
        "status": "unknown",
        "detail": "free completion stage 8 needs more than 100000 elements",
    }


# ---------------------------------------------------------------------------
# the console entry point


def test_console_script_round_trip(tmp_path):
    # `python -m kmnfree` runs the same main() as the `kmnfree` script, so
    # the round trip needs no install; the child imports the very package
    # this suite imported, whatever the working directory
    package_root = str(Path(kmnfree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "kmnfree", "gamma", "--eta", ""],
        capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
    )
    assert out.stdout == fixture_text("gamma_empty.json")
    assert out.returncode == 0
    assert "Warning" not in out.stderr


def test_console_script_entry_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["kmnfree"] == "kmnfree.cli:main"
    module, _, attr = scripts["kmnfree"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.skipif(shutil.which("kmnfree") is None,
                    reason="no installed kmnfree script on PATH")
def test_installed_console_script_round_trip():
    out = subprocess.run(
        ["kmnfree", "gamma", "--eta", ""],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == fixture_text("gamma_empty.json")
