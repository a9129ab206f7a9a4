"""Digests of every independence verdict and relative completion on
perfbench's query-mix workload, of every search on its search-mix, and of
the witness constructions.

    python3 tools/verdict_hash.py SEED

Draws the query-mix workload that ``perfbench/run.py --seed SEED`` runs, and
captures the (structure, A, B, C) of each of its queries and the (structure,
seed) of each of its relative completions.  Each query is checked for every
relation in both directions, (A, B) and (B, A), with query-mix's stage budget
and element cap.  The status, witness and detail of every verdict go into one
SHA-256 digest, printed first with the number of checks.  Each relative
completion is run as query-mix runs it, and its ``y_stages``, ``c`` and
``correspondence`` go into a second digest, printed on a second line with
the number of runs.  A third line digests the search-mix workload of the
same seed: each search's input, status, FOUND mapping and plane (or
finite completion and embedding), and each pattern's status and candidate
count, with the number of searches; node counts are left out.  A fourth
line digests the constructions: query-mix's separations and glues, run as
query-mix runs them, the document and invariants report of every ``gamma``
member up to 4 bits, and the probe on the quadrangle (its B0 document, names,
witness and free-side line names), with the number of records.  A fifth line
digests the node counts: that of every plane, embedding and general search
of the same search-mix, and the first plane's document and node count at
orders 1-5 and 8, with the number of records.  Two trees that print the
same digests for a seed give byte-identical results on those workloads, and
the same fifth line shows that their searches visit as many nodes, so a
change to the independence, completion, search or construction layer can
be shown to keep its outputs with one command per tree.  ``perfbench/`` is
imported, not changed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import kmnfree as kmn  # noqa: E402
import workloads  # noqa: E402


def canonical(value):
    """``value`` with its sets sorted, so that its repr is reproducible."""
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(canonical(v) for v in value))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


ITEM_MAKERS = ("query_item", "relcomplete_item", "glue_item", "separate_item")


def drawn_items(seed: int) -> dict:
    """The arguments, after ``kmn``, of every item query-mix draws for
    ``seed``, by item maker: (structure, A, B, C) for each query, (structure,
    seed set) for each relative completion, (problem,) for each glue and
    (eta,) for each separation."""
    drawn = {name: [] for name in ITEM_MAKERS}
    real = {name: getattr(workloads, name) for name in ITEM_MAKERS}

    def capture(name):
        def make(kmn_, *args):
            drawn[name].append(args)
            return real[name](kmn_, *args)
        return make

    for name in ITEM_MAKERS:
        setattr(workloads, name, capture(name))
    try:
        workloads.query_mix(kmn, random.Random(seed))
    finally:
        for name, make in real.items():
            setattr(workloads, name, make)
    return drawn


def relcomplete_record(s, seed_set) -> tuple:
    """What relative_free_completion gives as query-mix runs it."""
    try:
        rc = kmn.relative_free_completion(
            s, kmn.i_closure(s, seed_set), workloads.RELCOMPLETE_STAGES,
            element_cap=workloads.RELCOMPLETE_CAP)
    except kmn.BudgetError as e:
        return ("BudgetError", str(e))
    return (canonical(rc.y_stages), canonical(rc.c),
            sorted(rc.correspondence.items()))


def glue_record(problem) -> tuple:
    """What independence_glue gives as query-mix runs it."""
    try:
        out = kmn.independence_glue(problem, stage_budget=workloads.QUERY_STAGES,
                                    element_cap=workloads.GLUE_CAP)
    except kmn.GlueHypothesisError as e:
        return ("GlueHypothesisError", e.hypothesis, str(e))
    except kmn.BudgetError as e:
        return ("BudgetError", str(e))
    return kmn.cli.structure_document(out.structure), sorted(out.ids.items())


def construction_records(drawn: dict) -> list:
    """Records of query-mix's separations and glues, of every ``gamma``
    member up to 4 bits with its invariants report, and of the probe on the
    quadrangle."""
    records = [("separate", eta, kmn.separating_check(eta))
               for (eta,) in drawn["separate_item"]]
    records += [("glue", glue_record(problem)) for (problem,) in drawn["glue_item"]]
    for k in range(5):
        for bits in itertools.product("01", repeat=k):
            g = kmn.gamma("".join(bits))
            rep = kmn.gamma_invariants(g)
            records.append(("gamma", g.eta, kmn.cli.structure_document(g.structure),
                            rep.ok, rep.failures))
    quad = kmn.StructureBuilder(kmn.StructParams(2, 2))
    for i in range(1, 5):
        quad.add_point(f"p{i}")
    r = kmn.nonfree_completion_probe(quad.build())
    cert = r.certificate
    records.append(("probe", r.working_stage, kmn.cli.structure_document(r.b0),
                    sorted(r.names.items()), sorted(r.fano_witness),
                    [cert.free_side.name(l) for l in cert.free_lines]))
    return records


def structure_key(s) -> tuple:
    return (s.params.m, s.params.n, s.points, s.lines, sorted(s.incidences()))


def search_record(args, result) -> tuple:
    """A search-mix search's input and result, node counts left out."""
    args = tuple(structure_key(a) if isinstance(a, kmn.IncidenceStructure) else a
                 for a in args)
    if isinstance(result, kmn.amalgam.PatternVerdict):
        return args, result.status.name, result.candidates
    found = result.status is kmn.SearchStatus.FOUND
    if isinstance(result, kmn.finsearch.PlaneResult):
        return args, result.status.name, found and structure_key(result.plane)
    if isinstance(result, kmn.finsearch.EmbedResult):
        return (args, result.status.name, found and sorted(result.mapping.items()),
                found and structure_key(result.plane))
    return (args, result.status.name, found and sorted(result.embedding.items()),
            found and structure_key(result.structure))


class SearchContext:
    """What search-mix's items use of perfbench's round context."""

    first_round = True

    def count(self, key, n):
        pass

    def tally(self, key):
        pass

    def fail(self, message):
        raise SystemExit(f"search-mix check failed: {message}")


def search_runs(seed: int) -> list:
    """(label, args, result) of each search of search-mix for ``seed``, each
    run once from an empty plane cache, as perfbench runs them."""
    runs, real_search_op = [], workloads.search_op

    def search_op(ctx, kmn_, label, search, inputs, decided):
        results = []
        for args in inputs:
            kmn.finsearch.clear_plane_cache()
            results.append(search(*args))
            runs.append((label, args, results[-1]))
        return results

    workloads.search_op = search_op
    try:
        items, _ = workloads.search_mix(kmn, random.Random(seed))
        for item in items:
            item(SearchContext())
    finally:
        workloads.search_op = real_search_op
    return runs


def node_records(runs: list) -> list:
    """The node count of each search in ``runs`` that has one (patterns
    count candidates, digested with their results), then the first plane's
    document and node count at orders 1-5 and 8, each from an empty cache."""
    records = [(label, result.nodes) for label, _, result in runs
               if not isinstance(result, kmn.amalgam.PatternVerdict)]
    for order in (1, 2, 3, 4, 5, 8):
        kmn.finsearch.clear_plane_cache()
        r = kmn.find_projective_plane(order)
        records.append(("plane", order, r.status.name, r.nodes,
                        kmn.cli.structure_document(r.plane)))
    return records


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/verdict_hash.py SEED", file=sys.stderr)
        return 1
    drawn = drawn_items(int(argv[0]))
    relcompletes = drawn["relcomplete_item"]
    digest, checks = hashlib.sha256(), 0
    for s, a, b, c in drawn["query_item"]:
        for rel in kmn.Relation:
            for x, y in ((a, b), (b, a)):
                v = kmn.check(kmn.IndepQuery(
                    s, x, y, c, rel, stage_budget=workloads.QUERY_STAGES,
                    element_cap=workloads.QUERY_CAP))
                digest.update(repr((v.status.name, canonical(v.witness),
                                    v.detail)).encode() + b"\n")
                checks += 1
    print(f"{digest.hexdigest()}  {checks} checks")
    digest = hashlib.sha256()
    for s, seed_set in relcompletes:
        digest.update(repr(relcomplete_record(s, seed_set)).encode() + b"\n")
    print(f"{digest.hexdigest()}  {len(relcompletes)} relative completions")
    runs = search_runs(int(argv[0]))
    digest = hashlib.sha256()
    for label, args, result in runs:
        digest.update(repr((label, search_record(args, result))).encode() + b"\n")
    print(f"{digest.hexdigest()}  {len(runs)} searches")
    digest, records = hashlib.sha256(), construction_records(drawn)
    for record in records:
        digest.update(repr(record).encode() + b"\n")
    print(f"{digest.hexdigest()}  {len(records)} records")
    digest, records = hashlib.sha256(), node_records(runs)
    for record in records:
        digest.update(repr(record).encode() + b"\n")
    print(f"{digest.hexdigest()}  {len(records)} node counts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
