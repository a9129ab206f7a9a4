"""Command line front end.

Structures travel between subcommands as JSON documents::

    {"m": 2, "n": 2,
     "points": ["a1", "b"],
     "lines": ["z"],
     "incidences": [["a1", "z"], ["b", "z"]],
     "provenance": {...}}          # optional, informational

Emission is canonical: keys sorted, points and lines in element-id order,
incidences sorted by (point id, line id), two-space indent, trailing
newline.  ``emit(parse(text)) == text`` holds byte for byte on canonical
documents, so subcommands pipe into each other.

Every subcommand writes a JSON object (a document or a verdict) to stdout
and a one-line human summary to stderr.  Exit status: 0 when the question
was decided (including decided negatives, which carry witnesses), 1 for
usage and validation errors, 2 when a search or closure hit its budget and
the answer is unknown.

Budgets: --stages (closure/completion stages, default 8), --elements
(workspace element cap, default 100000), --nodes (search node budget,
default 10000000); a negative budget is a usage error.  Each subcommand
takes only the budgets it uses, so any other flag is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Sequence

from .amalgam import (
    GlueHypothesisError,
    GlueProblem,
    SafeDiagram,
    extension_witness,
    free_amalgam,
    independence_glue,
    pattern_consistent,
    PatternStatus,
)
from .closure import closure_stages
from .completion import (
    BudgetError,
    free_completion,
    relative_free_completion,
)
from .core import (
    IncidenceStructure,
    ParameterError,
    Sort,
    StructParams,
    StructureBuilder,
    is_kmn_free,
    satisfies_complete,
)
from .finsearch import (
    SearchStatus,
    embed_in_finite_plane,
    embed_search_general,
    find_projective_plane,
)
from .gamma import (
    bm_witness,
    gamma,
    gamma_invariants,
    nonfree_completion_probe,
    separating_check,
    tp2_pattern,
)
from .indep import IndepQuery, Relation, Status, check, indep_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2

_DOC_KEYS = {"m", "n", "points", "lines", "incidences", "provenance"}


class DocumentError(ValueError):
    """A structure document that does not follow the format above."""


class UsageError(ValueError):
    """Bad command line; argparse errors are converted into this."""


# ---------------------------------------------------------------------------
# document format


def parse_structure(text: str) -> IncidenceStructure:
    """Read a structure document.  Inverse of emit_structure(fmt="json").

    Ids are assigned in document order, points first, so a canonical
    document round-trips byte for byte.  Incidences are added unguarded:
    documents describing non-free structures parse fine (the ``check``
    subcommand exists to classify them).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
        raise DocumentError(f"malformed document: {e}") from None
    if not isinstance(doc, dict):
        raise DocumentError("malformed document: top level must be an object")
    extra = set(doc) - _DOC_KEYS
    if extra:
        raise DocumentError(f"unknown document keys: {sorted(extra)}")
    for key in ("m", "n", "points", "lines", "incidences"):
        if key not in doc:
            raise DocumentError(f"document is missing {key!r}")
    if type(doc["m"]) is not int or type(doc["n"]) is not int:  # bool is refused
        raise DocumentError("m and n must be integers")
    for key in ("points", "lines", "incidences"):
        if not isinstance(doc[key], list):
            raise DocumentError(f"{key!r} must be an array")
    if "provenance" in doc and not isinstance(doc["provenance"], dict):
        raise DocumentError("'provenance' must be an object")

    bld = StructureBuilder(StructParams(doc["m"], doc["n"]))
    ids = bld._ids
    for key, add, sort in (("points", bld.add_point, "point"),
                           ("lines", bld.add_line, "line")):
        for name in doc[key]:
            if not isinstance(name, str):
                raise DocumentError(f"{sort} name {name!r} is not a string")
            if not name:
                raise DocumentError(f"empty {sort} name")
            if name in ids:
                raise DocumentError(f"duplicate name: {name}")
            add(name)
    for entry in doc["incidences"]:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise DocumentError(f"bad incidence entry: {entry!r}")
        for name, want in zip(entry, (Sort.POINT, Sort.LINE)):
            if name not in ids:
                raise DocumentError(f"unknown name: {name}")
            if bld.sort(ids[name]) is not want:
                raise DocumentError(f"{name} is not a {want.value}")
        bld.add_incidence(ids[entry[0]], ids[entry[1]], guard=False)
    return bld.build()


def structure_document(
    s: IncidenceStructure, provenance: Optional[dict] = None
) -> dict:
    """The document for ``s`` as a plain dict, arrays in canonical order."""
    doc = {
        "m": s.params.m,
        "n": s.params.n,
        "points": [s.name(p) for p in sorted(s.points)],
        "lines": [s.name(l) for l in sorted(s.lines)],
        "incidences": [
            [s.name(p), s.name(l)]
            for p in sorted(s.points)
            for l in sorted(s.neighbors(p))
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_quote = json.encoder.encode_basestring_ascii


def _json_array(items: List[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array of already encoded ``items``, laid out at indent ``pad``
    (an object of encoded members with ``brackets="{}"``)."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _document_text(s: IncidenceStructure, provenance: Optional[str] = None,
                   sizes: Sequence[int] = ()) -> str:
    """``_dumps(structure_document(s, ...))``, written directly: each name
    is escaped once and the fixed layout is joined from strings.
    ``provenance`` is that key's value, already written at indent two, unless
    ``sizes`` holds the stage sizes of a free completion whose last stage is
    ``s``.  Then each fresh element e is written in name order (the order of
    ``sort_keys``) with its stage, the first k with e < sizes[k], and its
    spawner.  By the rule of the ``completion`` docstring, x is in the
    spawner of each neighbour younger than x, so one pass over x in id order,
    up to the last stage (nothing younger is born there), writes each spawner
    in id order; the texts it gives base elements are not read.  The pass
    keeps strings, not a list per fresh element, which the cyclic garbage
    collector would track: at 37,561 elements such lists cost 48 gen-0
    collections and 11 ms of GC a call, the strings none."""
    names, adj = s._names, s._adj
    q = [_quote(nm) for nm in names]
    if sizes:
        sep = ",\n        "
        first = sizes[0]
        parts = [""] * sizes[-1]
        for x in range(sizes[-2] if len(sizes) > 1 else 0):
            qx = q[x]
            for e in adj[x]:
                if e > x:
                    parts[e] = parts[e] + sep + qx if parts[e] else qx
        tails = [""] * first
        for k in range(1, len(sizes)):
            tails += ['\n      ],\n      "stage": %d\n    }' % k] * (sizes[k] - sizes[k - 1])
        provenance = _json_array([
            q[e] + ': {\n      "spawner": [\n        ' + parts[e] + tails[e]
            for e in sorted(range(first, sizes[-1]), key=names.__getitem__)
        ], "  ", "{}")
    blocks = []
    for p in s.points:
        if adj[p]:
            head = f"[\n      {q[p]},\n      "
            blocks.append(head + ("\n    ],\n    " + head).join(
                [q[l] for l in sorted(adj[p])]) + "\n    ]")
    out = [
        '{\n  "incidences": ', _json_array(blocks, "  "),
        ',\n  "lines": ', _json_array([q[l] for l in s.lines], "  "),
        f',\n  "m": {json.dumps(s.params.m)},\n  "n": {json.dumps(s.params.n)}',
        ',\n  "points": ', _json_array([q[p] for p in s.points], "  "),
    ]
    if provenance is not None:
        out += [',\n  "provenance": ', provenance]
    out.append("\n}\n")
    return "".join(out)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_structure(
    s: IncidenceStructure, fmt: str = "json", provenance: Optional[dict] = None
) -> str:
    """Render ``s`` as canonical JSON or as Graphviz DOT.

    DOT draws points as ellipses and lines as boxes, one undirected edge
    per incidence; provenance is JSON-only.  Both quote each name once and
    write in id order, the order of ``s.points`` and ``s.lines``.  JSON is
    written directly rather than by ``json.dumps``, whose indented output
    runs the slow pure-Python encoder; the text is the same byte for byte.
    Only a ``provenance`` dict goes through ``json.dumps``.
    """
    if fmt == "json":
        prov = None
        if provenance is not None:
            # JSON escapes newlines inside strings, so indenting each line
            # break by two writes the value at the document's indent
            prov = _dumps(provenance)[:-1].replace("\n", "\n  ")
        return _document_text(s, prov)
    if fmt != "dot":
        raise ParameterError(f"unknown format: {fmt}")
    q = [_dot_quote(nm) for nm in s._names]
    out: List[str] = ["graph incidence {"]
    if s.points:
        out.append("  node [shape=ellipse];")
        out.extend(f"  {q[p]};" for p in s.points)
    if s.lines:
        out.append("  node [shape=box];")
        out.extend(f"  {q[l]};" for l in s.lines)
    for p in s.points:
        head = f"  {q[p]} -- "
        out.extend(head + q[l] + ";" for l in sorted(s._adj[p]))
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# bundled documents


def fixture_text(name: str) -> str:
    """A bundled example document, e.g. fixture_text('gamma_empty.json')."""
    from importlib import resources

    return resources.files("kmnfree").joinpath("data").joinpath(name).read_text()


# ---------------------------------------------------------------------------
# shared plumbing


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None


def _load(path: str) -> IncidenceStructure:
    return parse_structure(_read(path))


def _split_names(raw: str) -> List[str]:
    names = [part.strip() for part in raw.split(",")]
    if any(not nm for nm in names):
        raise UsageError(f"empty name in list: {raw!r}")
    return names


def _ids(s: IncidenceStructure, raw: str) -> List[int]:
    return [s.by_name(nm) for nm in _split_names(raw)]


def _render(s: IncidenceStructure, value):
    """Witness values for JSON: ids become names, containers become lists."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return s.name(value)
    if isinstance(value, (frozenset, set)):
        return [_render(s, v) for v in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [_render(s, v) for v in value]
    return str(value)


def _emit(doc: dict, summary: str) -> None:
    sys.stdout.write(_dumps(doc))
    print(summary, file=sys.stderr)


def _emit_structure_out(s: IncidenceStructure, fmt: str, summary: str) -> None:
    sys.stdout.write(emit_structure(s, fmt))
    print(summary, file=sys.stderr)


def _counts(s: IncidenceStructure) -> str:
    return (
        f"{len(s.points)} points, {len(s.lines)} lines, "
        f"{s.incidence_count()} incidences"
    )


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the exit status)


def _cmd_check(args) -> int:
    s = _load(args.file)
    free, fw = is_kmn_free(s)
    rep = satisfies_complete(s)
    doc = {
        "command": "check",
        "m": s.params.m,
        "n": s.params.n,
        "free": free,
        "freeness_witness": None
        if fw is None
        else {
            "points": _render(s, fw.points),
            "lines": _render(s, fw.lines),
        },
        "complete": rep.passed,
        "completeness_failure": None
        if rep.passed
        else {
            "kind": rep.witness_kind,
            "subset": _render(s, rep.witness),
            "common_count": rep.count,
        },
    }
    word = "free" if free else "NOT free"
    word2 = "complete" if rep.passed else "not complete"
    _emit(doc, f"{_counts(s)}; {word}, {word2}")
    return EXIT_OK


def _cmd_closure(args) -> int:
    s = _load(args.file)
    seed = _ids(s, args.set)
    run = closure_stages(s, seed, budget=args.stages)
    doc = {
        "command": "closure",
        "converged": run.converged,
        "sizes": run.sizes(),
        "closure": _render(s, run.closure_set),
    }
    if run.converged:
        _emit(doc, f"closed set of {len(run.closure_set)} elements")
        return EXIT_OK
    _emit(doc, f"not converged within {args.stages} stages")
    return EXIT_UNKNOWN


def _cmd_complete(args) -> int:
    s = _load(args.file)
    run = free_completion(s, stages=args.stages, element_cap=args.elements)
    final = run.final.structure
    if args.emit == "json":
        sys.stdout.write(_document_text(final, sizes=run.final.sizes))
    else:
        sys.stdout.write(emit_structure(final, args.emit))
    print(f"stage {run.final.k}: {_counts(final)} (sizes {run.sizes()})",
          file=sys.stderr)
    return EXIT_OK


def _cmd_relcomplete(args) -> int:
    s = _load(args.file)
    a = _ids(s, args.set)
    rc = relative_free_completion(
        s, a, stage_budget=args.stages, element_cap=args.elements
    )
    doc = {
        "command": "relcomplete",
        "relative_sizes": [len(y) for y in rc.y_stages],
        "standalone_sizes": rc.free_a.sizes(),
        "copy": _render(rc.x_run.final.structure, rc.c),
        "verified": True,
    }
    _emit(
        doc,
        f"relative completion tracks the standalone one for "
        f"{len(rc.y_stages) - 1} stages",
    )
    return EXIT_OK


def _cmd_amalgamate(args) -> int:
    base = _load(args.base)
    left = _load(args.left)
    right = _load(args.right)
    lmap = {e: left.by_name(base.name(e)) for e in base.elements()}
    rmap = {e: right.by_name(base.name(e)) for e in base.elements()}
    am = free_amalgam(base, left, right, lmap, rmap)
    _emit_structure_out(
        am.structure, args.emit, f"free amalgam: {_counts(am.structure)}"
    )
    return EXIT_OK


def _cmd_extend(args) -> int:
    host = _load(args.file)
    dg = _load(args.diagram)
    base_vars = tuple(dg.by_name(nm) for nm in _split_names(args.base_vars))
    ext_vars = tuple(
        e for e in sorted(dg.elements()) if e not in set(base_vars)
    )
    d = SafeDiagram(dg, base_vars, ext_vars)
    anchor = _ids(host, args.anchor)
    ext = extension_witness(host, anchor, d)
    new_names = [
        ext.structure.name(ext.ext_images[v]) for v in ext_vars
    ]
    _emit_structure_out(
        ext.structure,
        args.emit,
        f"extended by {len(new_names)} elements: {', '.join(new_names)}",
    )
    return EXIT_OK


def _cmd_glue(args) -> int:
    g = GlueProblem(
        d_names=frozenset(_split_names(args.d)),
        x_a=_load(args.xa),
        x_b=_load(args.xb),
        x_c=_load(args.xc),
        x_ab=_load(args.xab),
        x_ac=_load(args.xac),
        x_bc=_load(args.xbc),
    )
    try:
        glued = independence_glue(
            g, stage_budget=args.stages, element_cap=args.elements
        )
    except GlueHypothesisError as e:
        doc = {
            "command": "glue",
            "ok": False,
            "hypothesis": e.hypothesis,
            "detail": e.detail,
        }
        _emit(doc, f"hypothesis rejected: {e.hypothesis} ({e.detail})")
        return EXIT_OK
    _emit_structure_out(
        glued.structure, args.emit, f"glued: {_counts(glued.structure)}"
    )
    return EXIT_OK


def _cmd_gamma(args) -> int:
    g = gamma(args.eta)
    rep = gamma_invariants(g)
    if not rep.ok:
        raise RuntimeError(f"invariant failure: {rep.failures}")
    _emit_structure_out(
        g.structure,
        args.emit,
        f"branch {args.eta or 'empty'}: {_counts(g.structure)}",
    )
    return EXIT_OK


def _cmd_separate(args) -> int:
    ok = separating_check(args.eta)
    doc = {"command": "separate", "eta": args.eta, "separates": ok}
    _emit(doc, f"0/1 continuations of {args.eta or 'the empty branch'} "
          f"{'are' if ok else 'are NOT'} separated")
    return EXIT_OK


def _cmd_bm(args) -> int:
    s = bm_witness(args.m, args.n)
    _emit_structure_out(s, args.emit, f"base-monotonicity config: {_counts(s)}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    s = _load(args.file)
    res = nonfree_completion_probe(
        s, stage_budget=args.stages, element_cap=args.elements,
        search_budget=args.nodes,
    )
    if not res.ok:
        _emit(
            {"command": "probe", "ok": False, "reason": res.reason},
            f"not applicable: {res.reason}",
        )
        return EXIT_OK
    cert = res.certificate
    doc = {
        "command": "probe",
        "ok": True,
        "working_stage": res.working_stage,
        "names": {role: res.b0.name(e) for role, e in sorted(res.names.items())},
        "fano_witness": _render(res.b0, res.fano_witness),
        "b0": structure_document(res.b0),
        "certificate": {
            "shared_line": res.b0.name(cert.shared_line),
            "free_lines": _render(cert.free_side, cert.free_lines),
        },
    }
    _emit(
        doc,
        f"nonfree completion found at stage {res.working_stage}: "
        f"B0 has {_counts(res.b0)}",
    )
    return EXIT_OK


def _cmd_indep(args) -> int:
    s = _load(args.file)
    q = IndepQuery(
        ambient=s,
        a=frozenset(_ids(s, args.a)),
        b=frozenset(_ids(s, args.b)),
        c=frozenset(_ids(s, args.c)) if args.c else frozenset(),
        relation=Relation(args.rel),
        stage_budget=args.stages,
        element_cap=args.elements,
        d_bound=args.d_bound,
    )
    v = check(q)
    doc = {
        "command": "indep",
        "relation": args.rel,
        "status": v.status.name.lower(),
        "witness": _render(s, v.witness),
        "detail": v.detail,
    }
    _emit(doc, f"{args.rel}: {v.status.name.lower()}"
          + (f" ({v.detail})" if v.detail else ""))
    return EXIT_UNKNOWN if v.status is Status.UNKNOWN else EXIT_OK


def _cmd_sequence(args) -> int:
    s = _load(args.file)
    b = tuple(_ids(s, args.b))
    c = frozenset(_ids(s, args.c)) if args.c else frozenset()
    seq = indep_sequence(
        s, b, c, args.length,
        relation=Relation(args.rel),
        stage_budget=args.stages,
        element_cap=args.elements,
    )
    amb = seq.ambient
    doc = {
        "command": "sequence",
        "length": len(seq.tuples),
        "tuples": [_render(amb, t) for t in seq.tuples],
        "c": _render(amb, seq.c_ids),
        "ambient": structure_document(amb),
    }
    _emit(doc, f"{len(seq.tuples)} pairwise independent copies inside "
          f"{_counts(amb)}")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    if args.instances < 1:
        raise UsageError("instances must be >= 1")
    bld = StructureBuilder(StructParams(args.m, args.n))
    pat = tp2_pattern(args.m, args.n)  # refuses m, n < 2 before any search
    b0 = bld.add_point("b0")
    cs = [bld.add_line(f"c{j}") for j in range(1, args.n)]
    ambient = bld.build()
    seq = indep_sequence(
        ambient, (b0,), frozenset(cs), args.instances,
        stage_budget=8, element_cap=args.elements,
    )
    instances = [t + tuple(sorted(seq.c_ids)) for t in seq.tuples]
    v = pattern_consistent(
        seq.ambient, pat, instances,
        stage_budget=args.stages,
        candidate_budget=args.nodes,
        element_cap=args.elements,
    )
    doc = {
        "command": "pattern",
        "m": args.m,
        "n": args.n,
        "instances": args.instances,
        "status": v.status.name.lower(),
        "stage": v.stage,
        "candidates": v.candidates,
        "detail": v.detail,
    }
    _emit(doc, f"{args.instances} instance(s): {v.status.name.lower()}")
    return EXIT_UNKNOWN if v.status is PatternStatus.UNKNOWN else EXIT_OK


def _cmd_plane(args) -> int:
    r = find_projective_plane(args.order, node_budget=args.nodes)
    if r.status is SearchStatus.FOUND:
        _emit_structure_out(
            r.plane, args.emit,
            f"order {args.order}: found in {r.nodes} nodes",
        )
        return EXIT_OK
    doc = {
        "command": "plane",
        "order": args.order,
        "status": r.status.name.lower(),
        "nodes": r.nodes,
    }
    _emit(doc, f"order {args.order}: {r.status.name.lower()} "
          f"after {r.nodes} nodes")
    return EXIT_UNKNOWN if r.status is SearchStatus.UNKNOWN else EXIT_OK


def _cmd_embed(args) -> int:
    s = _load(args.file)
    if args.order is not None:
        r = embed_in_finite_plane(s, args.order, node_budget=args.nodes)
        doc = {
            "command": "embed",
            "order": args.order,
            "status": r.status.name.lower(),
            "nodes": r.nodes,
            "mapping": None
            if r.mapping is None
            else {s.name(e): r.plane.name(img) for e, img in
                  sorted(r.mapping.items())},
        }
        _emit(doc, f"order {args.order}: {r.status.name.lower()}")
        return EXIT_UNKNOWN if r.status is SearchStatus.UNKNOWN else EXIT_OK
    r = embed_search_general(
        s, max_elements=args.elements, node_budget=args.nodes
    )
    doc = {
        "command": "embed",
        "order": None,
        "status": r.status.name.lower(),
        "nodes": r.nodes,
        "detail": r.detail,
        "completion": None
        if r.structure is None
        else structure_document(r.structure),
    }
    _emit(doc, f"{r.status.name.lower()}: {r.detail}")
    return EXIT_UNKNOWN if r.status is SearchStatus.UNKNOWN else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(
        prog="kmnfree",
        description="incidence structures without complete m-by-n grids",
    )
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, run: Callable[[argparse.Namespace], int], help_: str,
            emit: bool = False, stages: Optional[int] = None,
            elements: Optional[int] = None, nodes: Optional[str] = None) -> _Parser:
        # only the budgets given: --stages and --elements by their defaults,
        # --nodes by its help text
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        for flag, default, text in (
            ("--stages", stages, "stage budget"),
            ("--elements", elements, "element cap for workspaces"),
            ("--nodes", 10_000_000 if nodes else None, nodes),
        ):
            if default is not None:
                p.add_argument(flag, type=int, default=default,
                               help=f"{text} (default {default})")
        if emit:
            p.add_argument("--emit", choices=("json", "dot"), default="json",
                           help="output format for structures")
        return p

    workspace = {"stages": 8, "elements": 100_000}

    p = add("check", _cmd_check, "classify a document: freeness and completeness")
    p.add_argument("file")

    p = add("closure", _cmd_closure, "closure stages of a subset inside a structure",
            stages=8)
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated names")

    p = add("complete", _cmd_complete, "free completion stages of a structure",
            emit=True, **workspace)
    p.add_argument("file")

    p = add("relcomplete", _cmd_relcomplete,
            "grow the completion of a subset inside the host's completion",
            **workspace)
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated names")

    p = add("amalgamate", _cmd_amalgamate, "free amalgam of two structures over a base",
            emit=True)
    p.add_argument("--base", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("extend", _cmd_extend, "attach a safe-diagram extension over an anchor",
            emit=True)
    p.add_argument("file", help="host structure")
    p.add_argument("--diagram", required=True)
    p.add_argument("--base-vars", required=True,
                   help="diagram names forming the base, in anchor order")
    p.add_argument("--anchor", required=True,
                   help="host names matched positionally to --base-vars")

    p = add("glue", _cmd_glue, "two-dimensional independent gluing", emit=True, **workspace)
    p.add_argument("--d", required=True, help="names of the common base")
    for flag in ("--xa", "--xb", "--xc", "--xab", "--xac", "--xbc"):
        p.add_argument(flag, required=True)

    p = add("gamma", _cmd_gamma, "type-separating family member", emit=True)
    p.add_argument("--eta", default="", help="bit string such as 01")

    p = add("separate", _cmd_separate, "verify the 0/1 continuations separate")
    p.add_argument("--eta", default="", help="bit string such as 01")

    p = add("bm", _cmd_bm, "base-monotonicity failure configuration", emit=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)

    p = add("probe", _cmd_probe, "search for a non-free completion over a structure",
            nodes="node budget of the line-selection search", **workspace)
    p.add_argument("file")

    p = add("indep", _cmd_indep, "independence of two sets over a third", **workspace)
    p.add_argument("file")
    p.add_argument("--rel", required=True,
                   choices=tuple(r.value for r in Relation))
    p.add_argument("--a", required=True, help="comma-separated names")
    p.add_argument("--b", required=True, help="comma-separated names")
    p.add_argument("--c", default="", help="comma-separated names")
    p.add_argument("--d-bound", type=int, default=16,
                   help="intermediate-set size bound for the d relation")

    p = add("sequence", _cmd_sequence, "pairwise independent copies of a tuple", **workspace)
    p.add_argument("file")
    p.add_argument("--b", required=True, help="comma-separated names")
    p.add_argument("--c", default="", help="comma-separated names")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--rel", default="i", choices=("a", "i"))

    p = add("pattern", _cmd_pattern, "existential-pattern consistency over a sequence",
            stages=1, elements=100_000, nodes="candidate budget")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--instances", type=int, required=True,
                   help="number of pattern instances")

    p = add("plane", _cmd_plane, "search for a finite projective plane", emit=True,
            nodes="node budget: each line placed and each prefix of a candidate "
                  "line tested is a node")
    p.add_argument("--order", type=int, required=True)

    p = add("embed", _cmd_embed, "embed a structure in a finite plane or completion",
            nodes="node budget shared by the plane search and the embedding "
                  "(each image tried is a node, automorphism search included)",
            elements=200)
    p.add_argument("file")
    p.add_argument("--order", type=int, default=None,
                   help="target plane order; omit to search completions")

    return top


def dispatch(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the exit status instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        budgets = ("stages", "elements", "nodes", "d_bound")
        if any((getattr(args, b, None) or 0) < 0 for b in budgets):
            raise UsageError("budget must be >= 0")
        return args.run(args)
    except BudgetError as e:
        sys.stdout.write(_dumps({"status": "unknown", "detail": str(e)}))
        print(f"undecided: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (UsageError, DocumentError, ValueError) as e:
        sys.stdout.write(_dumps({"error": str(e)}))
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
