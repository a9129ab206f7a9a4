"""Two stress tests of the theory's edges.

First: starting from a four-point seed, complete five stages, then
extend the result in a deliberately non-free way so that a copy of the
7-point plane appears. The continuation certificate shows this branch
is genuinely different from the free one over the same seed.

Second: the two-parameter pattern that witnesses a failure of base
monotonicity gives a bound on how many pairwise-independent copies can
coexist; r copies are contradictory, fewer are fine.
"""

from kmnfree import (
    PatternStatus,
    StructParams,
    StructureBuilder,
    find_projective_plane,
    indep_sequence,
    induced,
    isomorphic_over,
    nonfree_completion_probe,
    pattern_consistent,
    tp2_pattern,
)


def quadrangle():
    b = StructureBuilder(StructParams(2, 2))
    for i in range(1, 5):
        b.add_point(f"p{i}")
    return b.build()


def main():
    res = nonfree_completion_probe(quadrangle())
    print(f"probe ok={res.ok}, worked at stage {res.working_stage}, "
          f"|B0|={len(res.b0)}")
    sub, _ = induced(res.b0, res.fano_witness)
    plane = find_projective_plane(2).plane
    print(f"14-element witness is the order-2 plane: "
          f"{bool(isomorphic_over(sub, plane, {}))}")
    cert = res.certificate
    print(f"c-pairs connect through {res.b0.name(cert.shared_line)} in B0, "
          f"through {cert.free_side.names(cert.free_lines)} on the free side")

    m = n = 2
    r = (m + 1) * (n - 1)
    b = StructureBuilder(StructParams(m, n))
    b0 = b.add_point("b0")
    cs = [b.add_line(f"c{j}") for j in range(1, n)]
    ambient = b.build()
    pat = tp2_pattern(m, n)

    for length in (1, r):
        seq = indep_sequence(ambient, (b0,), frozenset(cs), length)
        inst = [t + tuple(sorted(seq.c_ids)) for t in seq.tuples]
        v = pattern_consistent(seq.ambient, pat, inst, stage_budget=1)
        print(f"{length} copies of the pattern: {v.status.name}"
              + (f" ({v.detail})" if v.status is PatternStatus.INCONSISTENT
                 else ""))


if __name__ == "__main__":
    main()
