"""Point-line machinery special to the (2, 2) parameters.

In a complete (2, 2) structure any two distinct points lie on a unique
common line and any two distinct lines meet in a unique point, so there
is a total binary operation H: for distinct same-sort arguments it
returns the connecting line / intersection point, otherwise it returns
its first argument.  Iterating H from a generating tuple names every
element of the canonical completion by a term, and those terms are how
this module certifies that two completions differ.

Contents:

* ``HTerm`` / ``h_eval`` / ``h_term_eval`` -- the operation, evaluated
  inside a lazy completion workspace so that missing values are spawned
  on demand (one forced element per evaluation step suffices).
* ``gamma`` -- a family of K_{2,2}-free structures indexed by bit
  strings.  Level 0 is a quadrangle completed one round (7 points,
  9 lines); every later level adds six forced points and three forced
  lines, then one extra line (bit 0) or two (bit 1) through a triple of
  fresh points.  Bit strings with a common prefix agree on the shared
  levels, and ``separating_check`` exhibits an H-term equation holding
  along the 0-branch but failing along the 1-branch.
* ``bm_witness`` -- the small configuration whose closure behaviour
  separates independence over the empty base from independence over the
  c-lines, and ``tp2_pattern`` which wraps it as an existential pattern
  (consistent alone, 3-inconsistent across an independent sequence).
* ``nonfree_completion_probe`` -- from a seed whose staged completion
  keeps growing, build a second completion that is provably not
  isomorphic to the free one over the seed, by closing a 7-line
  configuration into a Fano subplane that free completion never forms.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    BudgetError,
    IncidenceStructure,
    ParameterError,
    StructParams,
    StructureBuilder,
    _primed_name,
    _require_budgets,
    _require_free,
    common_neighbors,
    embedding_fault,
    induced,
    is_kmn_free,
    satisfies_complete,
)
from .amalgam import ExistentialPattern
from .completion import LazyCompletion, _stages

__all__ = [
    "HTerm",
    "h_eval",
    "h_term_eval",
    "GammaStructure",
    "GammaReport",
    "gamma",
    "gamma_invariants",
    "separating_check",
    "bm_witness",
    "tp2_pattern",
    "ProbeCertificate",
    "ProbeResult",
    "nonfree_completion_probe",
    "fano_plane",
]


# ---------------------------------------------------------------------------
# H-terms


_TERMS = weakref.WeakValueDictionary()  # leaf index or (left, right) -> the live term


class HTerm:
    """A binary tree over variable leaves, denoting iterated H applications.

    Leaves carry a 0-based index into the assignment tuple; internal
    nodes have both children set.  Exactly one of the two forms holds.

    Terms are hash-consed: ``HTerm(...)``, ``leaf`` and ``h`` return the
    one live term with that leaf index or that ordered pair of children,
    so equal trees are the same object, equality and hashing are by
    identity, and copies and pickles come back as the interned term.
    Making terms assumes one thread, as the library does.  The family's
    terms share sub-terms, so their trees grow exponentially with the
    depth: the arity is computed once, from the children's, and nothing
    walks a tree recursively.  ``str`` and ``repr`` write each inner
    sub-term that occurs more than once a single time, under a name:
    ``H(t1,t1) where t1 = H(x1,x2)``.
    """

    def __new__(cls, var: Optional[int] = None, left: Optional[HTerm] = None,
                right: Optional[HTerm] = None) -> HTerm:
        if var is not None:
            if left is not None or right is not None:
                raise ParameterError("a leaf term cannot have children")
            if type(var) is not int or var < 0:  # 1.0 and True would share 1's key
                raise ParameterError("variable index must be a non-negative int")
            key, arity = var, var + 1
        elif left is None or right is None:
            raise ParameterError("an internal term needs both children")
        else:
            key, arity = (left, right), max(left._arity, right._arity)
        term = _TERMS.get(key)
        if term is None:
            term = _TERMS[key] = object.__new__(cls)
            term.__dict__.update(var=var, left=left, right=right, _arity=arity)
        return term

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # a flat node list: naming the children would make pickle recurse per level
        nodes = _term_nodes(self)
        at = {t: i for i, t in enumerate(nodes)}
        return _term_from_nodes, ([t.var if t.var is not None else (at[t.left], at[t.right])
                                   for t in nodes],)

    def __deepcopy__(self, memo=None) -> HTerm:
        return self

    __copy__ = __deepcopy__

    @classmethod
    def leaf(cls, index: int) -> HTerm:
        return cls(var=index)

    @classmethod
    def h(cls, left: HTerm, right: HTerm) -> HTerm:
        return cls(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    def arity(self) -> int:
        """Smallest assignment length this term can be evaluated on."""
        return self._arity

    def __str__(self) -> str:
        """Sub-terms with two or more parents are named t1, t2, ... children
        first, so each definition after ``where`` uses only earlier names."""
        nodes = _term_nodes(self)
        uses = Counter(c for t in nodes if t.var is None for c in (t.left, t.right))
        shared = [t for t in nodes if t.var is None and uses[t] > 1]
        named = {t: f"t{i}" for i, t in enumerate(shared, start=1)}

        def text(top: HTerm) -> str:
            out, todo = [], [top]
            while todo:
                t = todo.pop()
                if type(t) is str:
                    out.append(t)
                elif t.var is not None:
                    out.append(f"x{t.var + 1}")
                elif t in named and t is not top:
                    out.append(named[t])
                else:
                    out.append("H(")
                    todo += (")", t.right, ",", t.left)
            return "".join(out)

        where = ", ".join(f"{name} = {text(t)}" for t, name in named.items())
        return text(self) + (f" where {where}" if where else "")

    __repr__ = __str__


def _term_nodes(term: HTerm) -> List[HTerm]:
    """The distinct sub-terms of ``term``, children before parents and left
    before right, ``term`` last: the order in which a recursive walk, left
    child first, finishes each sub-term the first time."""
    done: Dict[HTerm, None] = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if t.var is None and not (t.left in done and t.right in done):
            stack += (t.right, t.left)
        else:  # a term met again keeps its first place
            done[stack.pop()] = None
    return list(done)


def _term_from_nodes(nodes: list) -> HTerm:
    """The last term of an ``HTerm.__reduce__`` node list, built bottom-up."""
    built: List[HTerm] = []
    for node in nodes:
        built.append(HTerm(var=node) if type(node) is int
                     else HTerm(left=built[node[0]], right=built[node[1]]))
    return built[-1]


def h_eval(work: LazyCompletion, x: int, y: int) -> int:
    """The H operation on workspace elements x and y.

    For distinct points: the unique line through both.  For distinct
    lines: the unique point on both.  Anything else (equal arguments or
    mixed sorts) evaluates to x.  Missing values are spawned by a single
    targeted completion step, so the only budget in play is the
    workspace's element cap.  The checks here are those of
    ``lines_through`` and ``points_on``, so the value is read by
    ``work.forced`` directly.
    """
    if work.params != StructParams(2, 2):
        raise ParameterError("H is only defined at parameters (2, 2)")
    for e in (x, y):
        if not 0 <= e < len(work):
            raise ParameterError(f"element {e} not in workspace")
    if x == y or work.sort(x) is not work.sort(y):
        # the "otherwise" branch of the definition; also covers mixed sorts
        return x
    (value,) = work.forced(sorted((x, y)))
    return value


def h_term_eval(work: LazyCompletion, term: HTerm, assignment: Sequence[int]) -> int:
    """Evaluate ``term`` under ``assignment`` via h_eval, left child first.

    Each distinct sub-term, which a tree walk would redo at every level of
    the family's terms, is evaluated once in ``_term_nodes`` order and its
    value kept by the (hash-consed) term.  A repeated h_eval would spawn
    nothing, so the spawns are those of the tree walk, in its order.
    """
    values: Dict[HTerm, int] = {}
    for t in _term_nodes(term):
        if t.var is None:
            values[t] = h_eval(work, values[t.left], values[t.right])
        elif t.var < len(assignment):
            values[t] = assignment[t.var]
        else:
            raise ParameterError(f"term variable x{t.var + 1} exceeds "
                                 f"assignment arity {len(assignment)}")
    return values[term]


# ---------------------------------------------------------------------------
# the branching family


BitString = Union[str, Sequence[int]]


def _parse_bits(eta: BitString) -> Tuple[int, ...]:
    bits = []
    for ch in eta:  # the characters "0"/"1" or the ints 0/1, not True or 1.0
        bit = {"0": 0, "1": 1}.get(ch) if type(ch) is str else ch
        if type(bit) is not int or bit not in (0, 1):
            raise ParameterError(f"bit string may only contain 0 and 1, got {ch!r}")
        bits.append(bit)
    return tuple(bits)


@dataclass(frozen=True)
class GammaStructure:
    """One member of the branching family, with element names and terms.

    ``structure`` carries the canonical names (a1..a4, r1..r6, b^k_i,
    s^k_i, c^k_i, t^k or t^k_1/t^k_2).  ``term_provenance`` maps every
    element id to an HTerm over (a1, a2, a3, a4) whose evaluation in any
    completion of the structure returns that element.  Members are equal
    when their eta, structure and term dicts are.  Terms are hash-consed,
    so separately built members share them (making members assumes one
    thread, as the library does).  The dict field keeps members unhashable.
    """

    eta: Tuple[int, ...]
    structure: IncidenceStructure
    term_provenance: Dict[int, HTerm] = field(repr=False)

    def id_of(self, name: str) -> int:
        return self.structure.by_name(name)


def gamma(eta: BitString) -> GammaStructure:
    """Build the level-|eta| member of the branching family.

    Level 0: points a1..a4; lines r1..r6 connecting the six pairs of
    them; points b^0_1..b^0_3 on the three disjoint open line pairs
    {r1,r6}, {r2,r5}, {r3,r4}; lines s^0_1..s^0_3 connecting the b-pairs
    {1,2}, {1,3}, {2,3}.  Level k+1 (driven by eta[k]): points b^{k+1}_i
    on {r1,s^k_3}, {r2,s^k_2}, {r3,s^k_1}; lines s^{k+1}_i connecting
    the new b-pairs; points c^{k+1}_i on {r4,s^k_1}, {r5,s^k_2},
    {r6,s^k_3}; then for bit 0 one line t^{k+1} through all three
    c-points, for bit 1 lines t^{k+1}_1 through c1,c2 and t^{k+1}_2
    through c2,c3.  Each new element closes open pairs (the c-points lie
    on six distinct lines), while the newest element of a grid would join
    two elements sharing its opposite corner: the structure is K_{2,2}-free
    by construction, and the incidences skip the builder's guard.
    """
    bits = _parse_bits(eta)
    bld = StructureBuilder(StructParams(2, 2))
    prov: Dict[int, HTerm] = {}

    def intersection_point(name: str, l1: int, l2: int) -> int:
        p = bld.add_point(name)
        bld.add_incidence(p, l1, guard=False)
        bld.add_incidence(p, l2, guard=False)
        prov[p] = HTerm.h(prov[l1], prov[l2])
        return p

    def connecting_line(name: str, *ps: int) -> int:
        l = bld.add_line(name)
        for p in ps:
            bld.add_incidence(p, l, guard=False)
        prov[l] = HTerm.h(prov[ps[0]], prov[ps[1]])
        return l

    a = [bld.add_point(f"a{i}") for i in range(1, 5)]
    for i, e in enumerate(a):
        prov[e] = HTerm.leaf(i)

    # connecting lines of the six point pairs, in the fixed order
    # {a1,a2}, {a1,a3}, {a1,a4}, {a2,a3}, {a2,a4}, {a3,a4}
    r_pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    r = [connecting_line(f"r{idx + 1}", a[i], a[j])
         for idx, (i, j) in enumerate(r_pairs)]

    # level 0: intersection points of {r1,r6}, {r2,r5}, {r3,r4}, then
    # connecting lines of the b-pairs {1,2}, {1,3}, {2,3}
    b_prev = [
        intersection_point("b^0_1", r[0], r[5]),
        intersection_point("b^0_2", r[1], r[4]),
        intersection_point("b^0_3", r[2], r[3]),
    ]
    s_prev = [
        connecting_line("s^0_1", b_prev[0], b_prev[1]),
        connecting_line("s^0_2", b_prev[0], b_prev[2]),
        connecting_line("s^0_3", b_prev[1], b_prev[2]),
    ]

    for k, bit in enumerate(bits, start=1):
        b_new = [
            intersection_point(f"b^{k}_1", r[0], s_prev[2]),
            intersection_point(f"b^{k}_2", r[1], s_prev[1]),
            intersection_point(f"b^{k}_3", r[2], s_prev[0]),
        ]
        s_new = [
            connecting_line(f"s^{k}_1", b_new[0], b_new[1]),
            connecting_line(f"s^{k}_2", b_new[0], b_new[2]),
            connecting_line(f"s^{k}_3", b_new[1], b_new[2]),
        ]
        c_new = [
            intersection_point(f"c^{k}_1", r[3], s_prev[0]),
            intersection_point(f"c^{k}_2", r[4], s_prev[1]),
            intersection_point(f"c^{k}_3", r[5], s_prev[2]),
        ]
        if bit == 0:
            connecting_line(f"t^{k}", *c_new)
        else:
            connecting_line(f"t^{k}_1", c_new[0], c_new[1])
            connecting_line(f"t^{k}_2", c_new[1], c_new[2])
        b_prev, s_prev = b_new, s_new

    return GammaStructure(bits, bld.build(), prov)


@dataclass(frozen=True)
class GammaReport:
    ok: bool
    failures: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def gamma_invariants(g: GammaStructure) -> GammaReport:
    """Check the structural guarantees of a family member.

    Verified: K_{2,2}-freeness; every proper prefix embeds name-for-name
    as an induced substructure; {a1..a4} generates the whole structure
    under ambient closure; the six designated line pairs at the top
    level are open; element and incidence counts match the closed forms
    |P| = 7 + 6k, |L| = 9 + sum(4 + bit), |I| = 24 + sum(21 + bit).

    Only the longest proper prefix, ``gamma(eta[:-1])``, is built and
    checked.  ``gamma`` adds level after level, and every add of a level
    is an element new at that level or an incidence touching one, so each
    shorter prefix is the induced substructure of the longest one on its
    first ids, name for name.  A restriction of an induced embedding is
    induced, so the longest prefix embedding name-for-name shows it for
    all of them.

    Generation is shown in one pass along ``term_provenance``, in id
    order: a leaf's element is the a-point it names, and an inner term's
    element is forced by its two distinct argument elements, both older
    and so generated already (the pass stops at the first fault).
    """
    s = g.structure
    failures = []

    free, wit = is_kmn_free(s)
    if not free:
        failures.append(f"freeness: complete (2,2) sub-grid at {wit}")

    k = len(g.eta)
    want_p = 7 + 6 * k
    want_l = 9 + sum(4 + b for b in g.eta)
    want_i = 24 + sum(21 + b for b in g.eta)
    if len(s.points) != want_p:
        failures.append(f"counts: {len(s.points)} points, expected {want_p}")
    if len(s.lines) != want_l:
        failures.append(f"counts: {len(s.lines)} lines, expected {want_l}")
    if s.incidence_count() != want_i:
        failures.append(
            f"counts: {s.incidence_count()} incidences, expected {want_i}"
        )

    # the longest proper prefix, and so every shorter one, embeds
    # name-for-name with no extra incidences among its elements
    if k:
        ps = gamma(g.eta[:-1]).structure
        missing = [nm for nm in ps.names(ps.elements()) if not s.has_name(nm)]
        trouble = (f"missing element {missing[0]}" if missing else
                   embedding_fault(ps, s, {e: s.by_name(ps.name(e))
                                           for e in ps.elements()}))
        if trouble:
            failures.append(f"prefix {g.eta[:-1]}: {trouble}")

    of_term = {t: e for e, t in g.term_provenance.items()}
    for e in s.elements():
        t = g.term_provenance.get(e)
        if t is None or t.is_leaf:
            ok = t is not None and s.name(e) == f"a{t.var + 1}"
        else:
            x, y = of_term.get(t.left, e), of_term.get(t.right, e)
            ok = x != y and max(x, y) < e and e in s.forced(sorted((x, y)))
        if not ok:
            failures.append(f"generation: {s.name(e)!r} does not follow from its term")
            break

    for i, j in zip(range(1, 7), (3, 2, 1, 1, 2, 3)):
        n1, n2 = f"r{i}", f"s^{k}_{j}"
        if not (s.has_name(n1) and s.has_name(n2)):
            failures.append(f"open pairs: element {n1} or {n2} missing")
            continue
        shared = common_neighbors(s, (s.by_name(n1), s.by_name(n2)))
        if shared:
            failures.append(
                f"open pairs: {{{n1},{n2}}} meets at {sorted(s.names(shared))}"
            )

    return GammaReport(not failures, tuple(failures))


def separating_check(eta: BitString) -> bool:
    """Does the one-bit split after ``eta`` change an H-term equation?

    Build both one-longer extensions and evaluate the terms u1, u2, u3
    naming the level-(k+1) c-points over (a1..a4).  Along bit 0 the
    values H(u1,u2) and H(u2,u3) must coincide (the single added t-line)
    and along bit 1 they must differ (the two added t-lines).  Term
    evaluations are additionally checked against the named elements, so
    a provenance bug cannot silently pass.
    """
    bits = _parse_bits(eta)
    k1 = len(bits) + 1
    results = []
    for bit in (0, 1):
        g = gamma(bits + (bit,))
        s = g.structure
        work = LazyCompletion(s)
        assignment = tuple(s.by_name(f"a{i}") for i in range(1, 5))
        values = []
        for i in range(1, 4):
            c_id = s.by_name(f"c^{k1}_{i}")
            got = h_term_eval(work, g.term_provenance[c_id], assignment)
            if got != c_id:
                return False
            values.append(got)
        e12 = h_eval(work, values[0], values[1])
        e23 = h_eval(work, values[1], values[2])
        results.append((s, e12, e23))

    s0, e12_0, e23_0 = results[0]
    s1, e12_1, e23_1 = results[1]
    joined = e12_0 == e23_0 and e12_0 == s0.by_name(f"t^{k1}")
    split = (
        e12_1 != e23_1
        and e12_1 == s1.by_name(f"t^{k1}_1")
        and e23_1 == s1.by_name(f"t^{k1}_2")
    )
    return joined and split


# ---------------------------------------------------------------------------
# witness configurations


def bm_witness(m: int, n: int) -> IncidenceStructure:
    """The configuration separating independence over nested bases.

    Points a1, b, w1..w_{m-1} and lines a2, c1..c_{n-1}, z with
    incidences (a1,z), (b,z) and (w_i, a2), (w_i, c_j), (w_i, z) for all
    i, j.  The pair {a1, a2} is independent from {b, c-lines} over the
    empty set but not over the c-lines, because the w-points and z sit
    in the closure once the c-lines are in the base.  Any m points include
    a1 or b, whose only line is z: K_{m,n}-free, so the adds skip the guard.
    """
    if m < 2 or n < 2:
        raise ParameterError("the configuration needs m, n >= 2")
    bld = StructureBuilder(StructParams(m, n))
    a1 = bld.add_point("a1")
    b = bld.add_point("b")
    w = [bld.add_point(f"w{i}") for i in range(1, m)]
    a2 = bld.add_line("a2")
    c = [bld.add_line(f"c{j}") for j in range(1, n)]
    z = bld.add_line("z")
    bld.add_incidence(a1, z, guard=False)
    bld.add_incidence(b, z, guard=False)
    for wi in w:
        bld.add_incidence(wi, a2, guard=False)
        for cj in c:
            bld.add_incidence(wi, cj, guard=False)
        bld.add_incidence(wi, z, guard=False)
    return bld.build()


def tp2_pattern(m: int, n: int):
    """The existential pattern over the bm configuration.

    Shared variables (x1, x2) play (a1, a2); the per-instance parameters
    are (b, c1..c_{n-1}); the witnesses (w1..w_{m-1}, z) are
    existentially quantified.  A realization must induce exactly the
    configuration's diagram.  One instance is satisfiable over a closed
    base, while (m+1)(n-1) instances over a pairwise independent
    parameter sequence are jointly unsatisfiable (3 at (2,2)).
    """
    g = bm_witness(m, n)
    shared = (g.by_name("a1"), g.by_name("a2"))
    params = (g.by_name("b"),) + tuple(g.by_name(f"c{j}") for j in range(1, n))
    witnesses = tuple(g.by_name(f"w{i}") for i in range(1, m)) + (g.by_name("z"),)
    return ExistentialPattern(g, shared, params, witnesses, exact=True)


# ---------------------------------------------------------------------------
# the non-free completion probe


def fano_plane() -> IncidenceStructure:
    """The 7-point projective plane, via the difference set {1,2,4} mod 7.
    Two points share one line, so the adds skip the builder's guard."""
    bld = StructureBuilder(StructParams(2, 2))
    pts = [bld.add_point(f"f{i}") for i in range(7)]
    for l in range(7):
        line = bld.add_line(f"g{l}")
        for d in (1, 2, 4):
            bld.add_incidence(pts[(l + d) % 7], line, guard=False)
    return bld.build()


def _is_fano(s: IncidenceStructure) -> bool:
    """Is the (2, 2) structure ``s`` the Fano plane?  Complete with every degree
    3, it is S(2, 3, 7) on 1 + 3 * 2 = 7 points, which is unique; the 7-point
    near-pencil is complete too, so the degrees matter."""
    return (len(s) == 14 and all(s.degree(e) == 3 for e in s.elements())
            and satisfies_complete(s).passed)


@dataclass(frozen=True)
class ProbeCertificate:
    """Evidence that the probe's completion is not the free one.

    What it shows: on the probe side every pair of the c-triple connects
    through the one added line t (``shared_line``, an id in the probe
    structure); on the free side the three pairs get three distinct
    connecting lines (``free_lines``, ids in ``free_side``, the free
    workspace over B0 without t after those three connections; below
    ``len(b0) - 1`` its ids and names are B0's).  Both sides extend the same
    forced part, element for element, so the two completions already differ
    in which lines connect three named point pairs of it.
    """

    shared_line: int
    free_lines: Tuple[int, int, int]
    free_side: IncidenceStructure


@dataclass(frozen=True)
class ProbeResult:
    ok: bool
    reason: str = ""
    b0: Optional[IncidenceStructure] = None
    fano_witness: frozenset = frozenset()
    names: Dict[str, int] = field(default_factory=dict)
    working_stage: int = -1
    certificate: Optional[ProbeCertificate] = None

    def __bool__(self) -> bool:
        return self.ok


def nonfree_completion_probe(
    a: IncidenceStructure,
    stage_budget: int = 8,
    element_cap: int = 100_000,
    search_budget: int = 1_000_000,
) -> ProbeResult:
    """Search for a completion of ``a`` that free completion cannot reach.

    Precondition probe: staged completion must keep strictly growing
    until some stage J contains a point of degree >= 7 (evidence that
    the completion is infinite).  A seed with nothing to complete
    reports "no deficiencies"; a staged run that stops growing reports
    "free completion converged finite"; both are decided negatives.

    Construction: inside stage J, find lines r1..r7 in id order such
    that no point lies on three of them, the pairs {r1,r2}, {r1,r3},
    {r2,r3} already meet (points a12, a13, a23), and some ri among
    r4..r6 forms an open pair with r7.  Add the forced point b on
    {ri, r7}, forced lines s12, s13, s23 connecting b to the a-points,
    forced points c1, c2, c3 on {r1,s23}, {r2,s13}, {r3,s12}, and one
    unforced line t through c1, c2, c3.  The result B0 is still
    generated by the seed, and {a12, a13, a23, b, c1, c2, c3} with
    {r1, r2, r3, s12, s13, s23, t} is a Fano subplane, which free
    completion never contains; the returned certificate pins the
    divergence down to connecting-line values on the c-triple.

    The forced part, B0 without t, is built once: it is the base of the
    certificate's free workspace, which spawns only the three c-pair
    lines and scans the forced part for grids as every workspace scans
    its base.  Its adds skip the guard all the same: a grid's newest
    element meets two elements sharing its opposite corner, and each new
    element meets only elements that share nothing (no a-point is on
    three chosen lines).  B0 is then free by proof, and nothing scans it
    at run time: a grid of B0 would use t, so two of the c-points would
    share a second line, but they lie on six distinct lines.  The probe
    side is read from B0 itself, where each c-pair forces t alone.
    """
    if a.params != StructParams(2, 2):
        raise ParameterError("the probe runs at parameters (2, 2)")
    _require_budgets(stage_budget, element_cap, search_budget)
    _require_free(a, "structure")
    if satisfies_complete(a).passed:  # a free seed is complete iff nothing is deficient
        return ProbeResult(False, reason="no deficiencies")

    stages = _stages(a, element_cap)
    stage, working = next(stages), None
    while working is None:
        if stage.k >= stage_budget:
            raise BudgetError(
                f"growth precondition unverified within {stage_budget} stages"
            )
        if len(stage.structure) > 3_000:
            raise BudgetError(
                "growth precondition unverified: stage too large to expand"
            )
        try:
            stage = next(stages, None)
        except BudgetError:
            raise BudgetError("growth precondition unverified: element cap hit") from None
        if stage is None:
            return ProbeResult(False, reason="free completion converged finite")
        if any(stage.structure.degree(p) >= 7 for p in stage.structure.points):
            working = stage

    s = working.structure
    lines = sorted(s.lines)
    nbrs = {l: s.neighbors(l) for l in lines}

    chosen: list = []
    budget = [search_budget]

    def meets(l1: int, l2: int) -> bool:
        return bool(nbrs[l1] & nbrs[l2])

    def admissible(l: int) -> bool:
        pos = len(chosen)
        for p in nbrs[l]:
            if sum(1 for c in chosen if p in nbrs[c]) >= 2:
                return False  # p would lie on three chosen lines
        if pos == 1 and not meets(chosen[0], l):
            return False
        if pos == 2 and not (meets(chosen[0], l) and meets(chosen[1], l)):
            return False
        if pos == 6 and not any(not meets(chosen[i], l) for i in (3, 4, 5)):
            return False
        return True

    def search(start: int) -> bool:
        if len(chosen) == 7:
            return True
        for idx in range(start, len(lines)):
            if budget[0] <= 0:
                raise BudgetError("line-selection search exhausted its budget")
            budget[0] -= 1
            l = lines[idx]
            if not admissible(l):
                continue
            chosen.append(l)
            if search(idx + 1):
                return True
            chosen.pop()
        return False

    if not search(0):
        raise BudgetError("line-selection search exhausted")

    r = list(chosen)
    open_i = next(i for i in (3, 4, 5) if not meets(r[i], r[6]))

    (a12,), (a13,), (a23,) = (nbrs[x] & nbrs[y] for x, y in
                              ((r[0], r[1]), (r[0], r[2]), (r[1], r[2])))

    bld = StructureBuilder.from_structure(s)

    def point(label: str, *on: int) -> int:
        p = bld.add_point(_primed_name(label, bld._ids))
        for l in on:
            bld.add_incidence(p, l, guard=False)
        return p

    def line(label: str, *through: int) -> int:
        l = bld.add_line(_primed_name(label, bld._ids))
        for p in through:
            bld.add_incidence(p, l, guard=False)
        return l

    b_pt = point("b", r[open_i], r[6])
    s12 = line("s12", a12, b_pt)
    s13 = line("s13", a13, b_pt)
    s23 = line("s23", a23, b_pt)
    c_pts = [point("c1", r[0], s23), point("c2", r[1], s13), point("c3", r[2], s12)]
    forced_part = bld.build()
    t = line("t", *c_pts)
    b0 = bld.build()

    names = {f"r{i + 1}": r[i] for i in range(7)}
    names.update(r_open=r[open_i], a12=a12, a13=a13, a23=a23, b=b_pt, s12=s12,
                 s13=s13, s23=s23, c1=c_pts[0], c2=c_pts[1], c3=c_pts[2], t=t)
    witness = frozenset([a12, a13, a23, b_pt, *c_pts, *r[:3], s12, s13, s23, t])
    if len(witness) != 14:
        raise RuntimeError("postcondition failure: witness elements collide")
    sub, _ = induced(b0, witness)
    if not _is_fano(sub):
        raise RuntimeError("postcondition failure: witness is not a Fano subplane")

    # divergence certificate: in a free workspace over B0 without t the
    # c-triple cannot be collinear, while in B0 each c-pair forces t alone
    wa = LazyCompletion(forced_part, element_cap=element_cap)
    free_lines = []
    for pair in ((c_pts[0], c_pts[1]), (c_pts[0], c_pts[2]), (c_pts[1], c_pts[2])):
        (l,) = wa.lines_through(pair)
        free_lines.append(l)
        if b0.forced(pair) != {t}:
            raise RuntimeError("postcondition failure: probe side is not collinear")
    if len(set(free_lines)) != 3:
        raise RuntimeError("postcondition failure: free side merged a connection")

    certificate = ProbeCertificate(t, tuple(free_lines), wa.snapshot())
    return ProbeResult(True, b0=b0, fano_witness=witness, names=names,
                       working_stage=working.k, certificate=certificate)
