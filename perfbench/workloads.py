"""The three workloads: seeded inputs, operations and their output checks.

A workload builder takes the imported ``kmnfree`` package and a seeded
``random.Random`` and returns ``(items, warm_up)``.  An item is a callable
``item(ctx)`` that issues one or more timed operations through
``ctx.op(...)`` and checks their outputs with ``ctx.fail(...)``.  One pass
over all items is a round; every round issues the same operations.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import oracle

# Committed expectations, known independently of the code under test.
QUAD_SIZES = {
    (2, 2, 4, 7): [4, 10, 13, 16, 22, 46, 328, 37561],
    (2, 3, 4, 3): [4, 10, 32, 250],
    (3, 3, 4, 3): [4, 8, 16, 72],
    (3, 4, 5, 2): [5, 15, 235],
}
PATTERNS = {  # (m, n, instances) -> (status, candidates)
    (2, 2, 3): ("INCONSISTENT", 297_228),
    (3, 2, 2): ("CONSISTENT", 5_202),
}

# complete-deep: random seeds (m = 2, so the guarded adds stay linear) are
# completed to the deepest stage whose input scan C(P, m) + C(L, n) stays
# within SCAN_BOUND subsets and whose size stays within SIZE_BOUND.  Only
# seeds whose subset work (see completion_work) lies in WORK_WINDOW are
# kept.  They run in one operation with the (3,3) quadrangle, so the round
# has three operations below is_kmn_free on the (2,2) stage 7 and three
# above it, and the median operation is that fixed input, not a seeded one.
# About one draw in twenty-five is kept, so set-up always makes RANDOM_DRAWS
# draws (and more only if too few were kept) and keeps the first
# RANDOM_SEEDS: drawing only until enough were kept made set-up time swing
# by half from one seed to the next.
SCAN_BOUND = 600
SIZE_BOUND = 200
WORK_WINDOW = (3_000, 6_000)
RANDOM_SEEDS = 24
RANDOM_DRAWS = 1_000
MAX_DEPTH = 8

# query-mix composition and budgets.  A query is heavy when the closures of
# AC and of BC each outgrow PROBE_CAP workspace elements within the stage
# budget (then its checks spawn up to the element cap), and light when the
# closure of ABC stays within it (then none does).  Each round holds exactly
# HEAVY_PER_CLASS heavy queries at (2,3) and at (3,2), and light queries
# split 70/15/15 between (2,2), (2,3) and (3,2).  Of each class's light
# queries, one in UNSETTLED_PER has an ABC closure that is still growing when
# the stage budget ends (so some of its checks end UNKNOWN on the budget),
# and the others converge.  The heavy queries take each size from 3 to
# QUERY_SIZE elements in turn (smaller ones never outgrow the probe), the
# converging light ones each size from 1 to QUERY_SIZE; the separations are
# spread evenly over depths 0-3.  So the share of operations that run into
# either budget, and the sizes that set the median and the 99th percentile,
# do not vary with the seed.
QUERY_ITEMS = 600
QUERY_SIZE = 12
HEAVY_PER_CLASS = 40
UNSETTLED_PER = 10
PROBE_CAP = 60
RELCOMPLETE_ITEMS = 40
GLUE_ITEMS = 40
SEPARATE_ITEMS = 24
QUERY_STAGES = 4
QUERY_CAP = 120
GLUE_CAP = 2_000
RELCOMPLETE_STAGES = 2
RELCOMPLETE_CAP = 2_000

# search-mix: searches are grouped into five operations by kind.  The
# RANDOM_EMBEDS seeded structures (orders 3, 4, 5 in turn, so the plane
# searches that dominate their latency do not vary with the seed) form one
# operation, slower than the plane and general-completion groups and faster
# than the fixed embeddings (Fano) and the patterns, so it is the median
# operation rather than a millisecond-long one.  A seeded structure is kept
# only when a probe at set-up embeds it within EMBED_NODES nodes: the rare
# one that exhausts the budget costs ten times a found embedding, and
# whether a seed drew one moved that median by a fifth.
RANDOM_EMBEDS = 24
EMBED_NODES = 20_000


# ---------------------------------------------------------------------------
# inputs


def points_only(kmn, m, n, k):
    b = kmn.StructureBuilder(kmn.StructParams(m, n))
    for i in range(1, k + 1):
        b.add_point(f"p{i}")
    return b.build()


def random_free(kmn, rng, m, n, max_elements, total=None):
    """A random free structure from guarded adds (refused adds are skipped)
    of ``total`` elements, or of 1 to ``max_elements`` at random."""
    b = kmn.StructureBuilder(kmn.StructParams(m, n))
    if total is None:
        total = rng.randint(1, max_elements)
    n_points = rng.randint(0, total)
    pts = [b.add_point(f"p{i}") for i in range(n_points)]
    lns = [b.add_line(f"l{i}") for i in range(total - n_points)]
    for _ in range(rng.randint(0, 2 * total)):
        if not pts or not lns:
            break
        try:
            b.add_incidence(rng.choice(pts), rng.choice(lns))
        except kmn.FreenessViolationError:
            pass
    return b.build()


def structure_from_doc(kmn, doc):
    """Build a structure from a parsed document with a name index."""
    b = kmn.StructureBuilder(kmn.StructParams(doc["m"], doc["n"]))
    ids = {nm: b.add_point(nm) for nm in doc["points"]}
    ids.update({nm: b.add_line(nm) for nm in doc["lines"]})
    for p, l in doc["incidences"]:
        b.add_incidence(ids[p], ids[l], guard=False)
    return b.build()


def document_text(s) -> str:
    """The canonical document of a structure, written without the library."""
    return json.dumps({
        "m": s.params.m, "n": s.params.n,
        "points": [s.name(p) for p in s.points],
        "lines": [s.name(l) for l in s.lines],
        "incidences": [[s.name(p), s.name(l)] for p in s.points
                       for l in sorted(s.neighbors(p))],
    }, indent=2, sort_keys=True) + "\n"


def run_cli(kmn, argv, stdin_text):
    """``kmnfree.cli.dispatch`` with stdin, stdout and stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = kmn.cli.dispatch(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def scan_size(s) -> int:
    return comb(len(s.points), s.params.m) + comb(len(s.lines), s.params.n)


# ---------------------------------------------------------------------------
# complete-deep


def complete_deep(kmn, rng):
    # The (2,2) and (2,3) quadrangles go through the CLI, the others through
    # the library.  Only the (2,3) document is parsed back with
    # parse_structure: parsing the 37,561-element (2,2) document takes about
    # 27 s (StructureBuilder.by_name is a list scan), so that document is
    # read by an independent JSON reader instead.
    items = [cli_completion_item(kmn, (2, 2, 4, 7), round_trip=False),
             cli_completion_item(kmn, (2, 3, 4, 3), round_trip=True),
             completion_item(kmn, points_only(kmn, 3, 4, 5), (3, 4, 5, 2))]

    batch = [(points_only(kmn, 3, 3, 4), 3, QUAD_SIZES[(3, 3, 4, 3)])]
    low, high = WORK_WINDOW
    draws = 0
    while draws < RANDOM_DRAWS or len(batch) <= RANDOM_SEEDS:
        draws += 1
        m, n = rng.choice(((2, 2), (2, 3), (2, 4)))
        seed = random_free(kmn, rng, m, n, 8)
        stages = deepest_stages(kmn, seed)
        if len(stages) > 1 and low <= completion_work(stages) <= high:
            if len(batch) <= RANDOM_SEEDS:
                batch.append((seed, len(stages) - 1, None))
    items.append(batch_item(kmn, batch))

    def warm_up():
        run_cli(kmn, ["complete", "-", "--stages", "3"],
                document_text(points_only(kmn, 2, 2, 4)))
        kmn.is_kmn_free(kmn.free_completion(points_only(kmn, 2, 3, 4), 2).final.structure)

    return items, warm_up


def cli_completion_item(kmn, key, round_trip):
    """``kmnfree complete`` on a document of k points, then is_kmn_free on
    the final stage read back from the output."""
    m, n, k, stages = key
    want = QUAD_SIZES[key]
    seed_doc = document_text(points_only(kmn, m, n, k))
    argv = ["complete", "-", "--stages", str(stages)]
    first = {}

    def item(ctx):
        out = ctx.op("cli.complete", lambda: run_cli(kmn, argv, seed_doc))
        if out is None:
            return
        code, text, _ = out
        if code != 0:
            ctx.fail(f"complete exited {code}")
            return
        digest = hashlib.sha256(text.encode()).hexdigest()
        if not first:
            sizes, total, doc = oracle.document_check(text)
            if sizes != want:
                ctx.fail(f"({m},{n}) quadrangle sizes {sizes}, expected {want}")
                return
            final = structure_from_doc(kmn, doc)
            if not oracle.brute_free(final):
                ctx.fail(f"({m},{n}) stage {stages} is not free")
            if round_trip:
                parsed = kmn.parse_structure(text)
                if len(parsed) != total or kmn.emit_structure(
                        parsed, provenance=doc["provenance"]) != text:
                    ctx.fail(f"({m},{n}) document does not round-trip")
            first.update(digest=digest, final=final)
        elif digest != first["digest"]:
            ctx.fail(f"({m},{n}) document differs between rounds")
            return
        free_check(ctx, kmn, first["final"])

    return item


def deepest_stages(kmn, seed) -> list:
    """The stage structures up to the deepest stage whose every scanned
    input stays within SCAN_BOUND and whose every stage stays within
    SIZE_BOUND elements (one fresh element per deficient set, so the next
    size is known before the step)."""
    stage = kmn.completion.initial_stage(seed)
    out = [seed]
    while len(out) <= MAX_DEPTH and scan_size(stage.structure) <= SCAN_BOUND:
        defs = kmn.deficient_sets(stage.structure)
        if len(stage.structure) + len(defs.point_sets) + len(defs.line_sets) > SIZE_BOUND:
            break
        stage = kmn.completion.complete_step(stage)
        out.append(stage.structure)
    return out


def completion_work(stages) -> int:
    """Work of completing to the last of ``stages`` and checking it, in
    subset tests: every input stage is scanned twice (free_completion, then
    complete_step), the final check scans the m-sets on every line, and
    building the final stage is weighted at five tests per element."""
    final = stages[-1]
    return (2 * sum(scan_size(s) for s in stages[:-1])
            + sum(comb(final.degree(l), final.params.m) for l in final.lines)
            + 5 * len(final))


def check_sizes(ctx, sizes, want):
    if want is not None and sizes != want:
        ctx.fail(f"completion sizes {sizes}, expected {want}")
    elif sizes != sorted(sizes):
        ctx.fail(f"completion sizes shrink: {sizes}")


def completion_item(kmn, seed, key):
    """free_completion, then is_kmn_free on its final stage, as two
    operations."""
    def item(ctx):
        run = ctx.op("completion.free_completion",
                     lambda: kmn.free_completion(seed, key[3]))
        if run is None:
            return
        check_sizes(ctx, run.sizes(), QUAD_SIZES[key])
        if ctx.first_round and not oracle.brute_free(run.final.structure):
            ctx.fail(f"final stage of {run.sizes()} is not free")
        free_check(ctx, kmn, run.final.structure)

    return item


def batch_item(kmn, batch):
    """One operation: for each (seed, stages, expected sizes or None), the
    free completion and is_kmn_free on its final stage."""
    def item(ctx):
        def op():
            runs = [kmn.free_completion(seed, stages) for seed, stages, _ in batch]
            return [(run, kmn.is_kmn_free(run.final.structure)) for run in runs]

        out = ctx.op("completion.free_completion", op, answers=len(batch))
        for (_, _, want), (run, (free, witness)) in zip(batch, out or ()):
            check_sizes(ctx, run.sizes(), want)
            if free is not True:
                ctx.fail(f"is_kmn_free reports a grid in a free stage: {witness}")
            if ctx.first_round and not oracle.brute_free(run.final.structure):
                ctx.fail(f"final stage of {run.sizes()} is not free")

    return item


def free_check(ctx, kmn, s):
    verdict = ctx.op("core.is_kmn_free", lambda: kmn.is_kmn_free(s))
    if verdict is not None and verdict[0] is not True:
        ctx.fail(f"is_kmn_free reports a grid in a free stage: {verdict[1]}")


# ---------------------------------------------------------------------------
# query-mix


def query_mix(kmn, rng):
    kinds = (["query"] * QUERY_ITEMS + ["relcomplete"] * RELCOMPLETE_ITEMS
             + ["glue"] * GLUE_ITEMS + ["separate"] * SEPARATE_ITEMS)
    rng.shuffle(kinds)

    def draw(m, n, total=None):
        s = random_free(kmn, rng, m, n, QUERY_SIZE, total)
        pool = sorted(s.elements())
        a, b, c = (frozenset(rng.sample(pool, rng.randint(0, min(most, len(pool)))))
                   for most in (3, 3, 2))
        return s, a, b, c

    def outgrows(s, seed):
        return kmn.LazyCompletion(s, PROBE_CAP).closure(seed, QUERY_STAGES).capped

    queries = []
    for m, n in ((2, 3), (3, 2)):
        for i in range(HEAVY_PER_CLASS):
            while True:
                s, a, b, c = draw(m, n, 3 + i % (QUERY_SIZE - 2))
                if outgrows(s, a | c) and outgrows(s, b | c):
                    queries.append(query_item(kmn, s, a, b, c))
                    break
    light = QUERY_ITEMS - 2 * HEAVY_PER_CLASS
    minority = light * 15 // 100
    for (m, n), count in (((2, 2), light - 2 * minority), ((2, 3), minority),
                          ((3, 2), minority)):
        unsettled = count // UNSETTLED_PER
        for i, converged in enumerate([False] * unsettled + [True] * (count - unsettled)):
            while True:
                s, a, b, c = draw(m, n, 1 + i % QUERY_SIZE if converged else None)
                run = kmn.LazyCompletion(s, PROBE_CAP).closure(a | b | c, QUERY_STAGES)
                if not run.capped and run.converged == converged:
                    queries.append(query_item(kmn, s, a, b, c))
                    break
    rng.shuffle(queries)
    depths = [i % 4 for i in range(SEPARATE_ITEMS)]
    items = []
    for kind in kinds:
        if kind == "query":
            items.append(queries.pop())
        elif kind == "relcomplete":
            s = random_free(kmn, rng, 2, 2, 10)
            pool = sorted(s.elements())
            seed = frozenset(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            items.append(relcomplete_item(kmn, s, seed))
        elif kind == "glue":
            problem = None
            while problem is None:
                problem = glue_problem(kmn, rng)
            items.append(glue_item(kmn, problem))
        else:
            eta = "".join(rng.choice("01") for _ in range(depths.pop()))
            items.append(separate_item(kmn, eta))

    def warm_up():
        s = points_only(kmn, 2, 2, 3)
        for rel in kmn.Relation:
            kmn.check(kmn.IndepQuery(s, frozenset({0}), frozenset({1}), frozenset(), rel))
        kmn.separating_check("")

    return items, warm_up


def unknown_cause(detail: str):
    if "element cap" in detail:
        return "element_cap"
    if "stage budget" in detail:
        return "stage_budget"
    return None


def query_item(kmn, s, a, b, c):
    Relation, Status = kmn.Relation, kmn.Status

    def item(ctx):
        def ask(x, y, rel):
            q = kmn.IndepQuery(s, x, y, c, rel, stage_budget=QUERY_STAGES,
                               element_cap=QUERY_CAP)
            v = ctx.op(f"indep.check.{rel.name}", lambda: kmn.check(q),
                       decided=lambda v: v.status is not Status.UNKNOWN)
            if v is not None:
                ctx.tally(f"{rel.name}.{v.status.name}")
                if v.status is Status.UNKNOWN:
                    ctx.unknown(unknown_cause(v.detail))
                elif v.status is Status.DEPENDENT and v.witness is None and not (
                        rel is Relation.OTIMES and oracle.otimes_size_witness(v.detail)):
                    ctx.fail(f"{rel.name} DEPENDENT without a witness: {v.detail}")
            return None if v is None else v.status

        alg, alg_r = ask(a, b, Relation.ALG), ask(b, a, Relation.ALG)
        ind, ind_r = ask(a, b, Relation.I), ask(b, a, Relation.I)
        div = ask(a, b, Relation.DIV)
        ask(a, b, Relation.OTIMES)
        known = (Status.INDEPENDENT, Status.DEPENDENT)
        if div is Status.INDEPENDENT and ind in known and ind is not Status.INDEPENDENT:
            ctx.fail("DIV independent but I dependent")
        if ind is Status.INDEPENDENT and alg in known and alg is not Status.INDEPENDENT:
            ctx.fail("I independent but ALG dependent")
        for fwd, rev, label in ((alg, alg_r, "ALG"), (ind, ind_r, "I")):
            if fwd in known and rev in known and fwd is not rev:
                ctx.fail(f"{label} is not symmetric")

    return item


def relcomplete_item(kmn, b_s, seed):
    def item(ctx):
        def op():
            a_set = kmn.i_closure(b_s, seed)
            return a_set, kmn.relative_free_completion(
                b_s, a_set, RELCOMPLETE_STAGES, element_cap=RELCOMPLETE_CAP)

        out = ctx.op("completion.relative_free_completion", op)
        if out is None:
            return
        a_set, run = out
        ctx.tally("relcomplete.done")
        b_ids = frozenset(b_s.elements())
        if run.c & b_ids != a_set:
            ctx.fail("relative completion meets B outside A")
        final = run.x_run.final.structure
        if any(final.neighbors(e) & (b_ids - a_set) for e in run.c - a_set):
            ctx.fail("relative completion joins C-A to B-A")
        for k, yk in enumerate(run.y_stages):
            if len(yk) != len(run.free_a.stages[k].structure):
                ctx.fail(f"|Y_{k}| differs from stage {k} of the completion of A")
            if ctx.first_round and not oracle.closed_in(run.x_run.stages[k].structure, yk):
                ctx.fail(f"Y_{k} is not closed in X_{k}")

    return item


def glue_problem(kmn, rng):
    """Three free amalgams over a random base, or None when a side is not
    closed over the base or an amalgam is refused."""
    P = kmn.StructParams(2, 2)
    db = kmn.StructureBuilder(P)
    for i in range(rng.randint(0, 2)):
        (db.add_point if rng.random() < 0.5 else db.add_line)(f"d{i}")
    d = db.build()

    def side(prefix):
        b = kmn.StructureBuilder.from_structure(d)
        own = [(b.add_point if rng.random() < 0.5 else b.add_line)(f"{prefix}{i}")
               for i in range(rng.randint(1, 2))]
        for _ in range(rng.randint(0, 3)):
            pts = [e for e in range(len(b)) if b.sort(e) is kmn.Sort.POINT]
            lns = [e for e in range(len(b)) if b.sort(e) is kmn.Sort.LINE]
            if not pts or not lns:
                break
            p, l = rng.choice(pts), rng.choice(lns)
            if p in own or l in own:
                try:
                    b.add_incidence(p, l)
                except kmn.FreenessViolationError:
                    pass
        return b.build()

    xa, xb, xc = side("a"), side("b"), side("c")
    if not all(oracle.closed_in(x, d.elements()) for x in (xa, xb, xc)):
        return None

    def by_name(x):
        return {e: x.by_name(d.name(e)) for e in d.elements()}

    try:
        ab, ac, bc = (kmn.free_amalgam(d, x, y, by_name(x), by_name(y))
                      for x, y in ((xa, xb), (xa, xc), (xb, xc)))
    except kmn.FreenessViolationError:
        return None
    names = frozenset(d.name(e) for e in d.elements())
    return kmn.GlueProblem(names, xa, xb, xc, ab.structure, ac.structure, bc.structure)


def glue_item(kmn, g):
    joins = (g.x_ab, g.x_ac, g.x_bc)
    want_names = {x.name(e) for x in joins for e in x.elements()}
    want_incidences = {(x.name(p), x.name(l)) for x in joins for p, l in x.incidences()}

    def item(ctx):
        def op():
            try:
                return kmn.independence_glue(g, stage_budget=QUERY_STAGES,
                                             element_cap=GLUE_CAP)
            except kmn.GlueHypothesisError as exc:
                return exc  # a decided negative answer, named by hypothesis

        out = ctx.op("amalgam.independence_glue", op)
        if out is None:
            ctx.unknown(unknown_cause(ctx.last_error))
            return
        if isinstance(out, kmn.GlueHypothesisError):
            ctx.tally(f"glue.{out.hypothesis}")
            return
        ctx.tally("glue.glued")
        s = out.structure
        if {s.name(e) for e in s.elements()} != want_names:
            ctx.fail("glued structure has the wrong elements")
        if {(s.name(p), s.name(l)) for p, l in s.incidences()} != want_incidences:
            ctx.fail("glued structure has the wrong incidences")
        if ctx.first_round and not oracle.brute_free(s):
            ctx.fail("glued structure is not free")

    return item


def separate_item(kmn, eta):
    def item(ctx):
        ok = ctx.op("gamma.separating_check", lambda: kmn.separating_check(eta))
        if ok is not None and ok is not True:
            ctx.fail(f"continuations of {eta!r} do not separate")

    return item


# ---------------------------------------------------------------------------
# search-mix


def search_mix(kmn, rng):
    FOUND, NONE = kmn.SearchStatus.FOUND, kmn.SearchStatus.NONE
    quad = points_only(kmn, 2, 2, 4)
    stage2 = kmn.free_completion(quad, 2).final.structure
    fano = kmn.fano_plane()
    randoms = [(embeddable(kmn, rng, 3 + i % 3), 3 + i % 3, FOUND, EMBED_NODES)
               for i in range(RANDOM_EMBEDS)]
    items = [
        plane_item(kmn, (2, 3, 4, 5)),
        general_item(kmn, (quad, fano, stage2)),
        embed_item(kmn, randoms),
        embed_item(kmn, [(stage2, q, FOUND, None) for q in (3, 4, 5)]
                   + [(fano, 3, NONE, None)]),
        pattern_item(kmn, list(PATTERNS)),
    ]

    def warm_up():
        kmn.finsearch.clear_plane_cache()
        kmn.embed_in_finite_plane(quad, 2)
        kmn.embed_search_general(quad)
        kmn.finsearch.clear_plane_cache()

    return items, warm_up


def embeddable(kmn, rng, order):
    """A seeded (2,2) structure that embeds into a plane of ``order`` within
    EMBED_NODES nodes.  The probe runs with the plane cached; warm-up
    clears it."""
    while True:
        s = random_free(kmn, rng, 2, 2, 8)
        r = kmn.embed_in_finite_plane(s, order, node_budget=EMBED_NODES)
        if r.status is kmn.SearchStatus.FOUND:
            return s


def search_op(ctx, kmn, label, search, inputs, decided):
    """One operation running ``search`` on each input; every search starts
    from an empty plane cache, as a CLI call does."""
    def op():
        results = []
        for args in inputs:
            kmn.finsearch.clear_plane_cache()
            results.append(search(*args))
        return results

    return ctx.op(label, op, decided=lambda rs: sum(map(decided, rs)),
                  answers=len(inputs))


def plane_item(kmn, orders):
    def item(ctx):
        rs = search_op(ctx, kmn, "finsearch.find_projective_plane",
                       kmn.find_projective_plane, [(q,) for q in orders],
                       lambda r: r.status is not kmn.SearchStatus.UNKNOWN)
        for order, r in zip(orders, rs or ()):
            ctx.count("nodes", r.nodes)
            if r.status is not kmn.SearchStatus.FOUND:
                ctx.fail(f"no plane of order {order}: {r.status.name}")
            elif ctx.first_round and not oracle.plane_ok(r.plane, order):
                ctx.fail(f"the order-{order} plane fails pair coverage")

    return item


def embed_item(kmn, cases):
    """Embeddings of (structure, order, expected status or None, node budget
    or None for the default)."""
    def item(ctx):
        rs = search_op(ctx, kmn, "finsearch.embed_in_finite_plane",
                       lambda s, q, nodes: kmn.embed_in_finite_plane(
                           s, q, **({} if nodes is None else {"node_budget": nodes})),
                       [(s, q, nodes) for s, q, _, nodes in cases],
                       lambda r: r.status is not kmn.SearchStatus.UNKNOWN)
        for (s, order, want, _), r in zip(cases, rs or ()):
            ctx.count("nodes", r.nodes)
            ctx.tally(f"embed.{r.status.name}")
            if want is not None and r.status is not want:
                ctx.fail(f"embedding into order {order}: {r.status.name}, "
                         f"expected {want.name}")
            if r.status is kmn.SearchStatus.FOUND and not oracle.induced_embedding_ok(
                    s, r.plane, r.mapping):
                ctx.fail(f"embedding into order {order} is not induced")

    return item


def general_item(kmn, structures):
    def item(ctx):
        rs = search_op(ctx, kmn, "finsearch.embed_search_general",
                       kmn.embed_search_general, [(s,) for s in structures],
                       lambda r: r.status is not kmn.SearchStatus.UNKNOWN)
        for s, r in zip(structures, rs or ()):
            ctx.count("nodes", r.nodes)
            ctx.tally(f"general.{r.status.name}")
            if r.status is not kmn.SearchStatus.FOUND:
                ctx.fail(f"no finite completion found: {r.detail}")
            elif not (oracle.complete22_ok(r.structure)
                      and oracle.induced_embedding_ok(s, r.structure, r.embedding)):
                ctx.fail(f"bad finite completion: {r.detail}")

    return item


def pattern_item(kmn, keys):
    """tp2 patterns over independent sequences, each (m, n, instances)."""
    def pattern(m, n, instances):
        b = kmn.StructureBuilder(kmn.StructParams(m, n))
        b0 = b.add_point("b0")
        cs = frozenset(b.add_line(f"c{j}") for j in range(1, n))
        seq = kmn.indep_sequence(b.build(), (b0,), cs, instances)
        rows = [t + tuple(sorted(seq.c_ids)) for t in seq.tuples]
        return kmn.pattern_consistent(seq.ambient, kmn.tp2_pattern(m, n), rows,
                                      stage_budget=1)

    def item(ctx):
        vs = search_op(ctx, kmn, "amalgam.pattern_consistent", pattern, keys,
                       lambda v: v.status is not kmn.PatternStatus.UNKNOWN)
        for key, v in zip(keys, vs or ()):
            ctx.count("candidates", v.candidates)
            got = (v.status.name, v.candidates)
            if got != PATTERNS[key]:
                ctx.fail(f"pattern {key}: {got}, expected {PATTERNS[key]}")

    return item


WORKLOADS = {
    "complete-deep": complete_deep,
    "query-mix": query_mix,
    "search-mix": search_mix,
}
