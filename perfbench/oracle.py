"""Output checks that do not reuse the code under test.

Each function reads a result only through plain accessors (``points``,
``lines``, ``neighbors``, ``incident``) or through the JSON text itself,
and recomputes the property by brute force.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations
from math import comb


def _common(s, elems) -> set:
    it = iter(elems)
    acc = set(s.neighbors(next(it)))
    for e in it:
        acc &= s.neighbors(e)
    return acc


def brute_free(s) -> bool:
    """No m points share n lines, scanning whichever sort has fewer subsets.

    m points on n common lines is the same configuration as n lines
    through m common points, so either scan decides freeness.
    """
    m, n = s.params.m, s.params.n
    pts, lns = s.points, s.lines
    if comb(len(lns), n) <= comb(len(pts), m):
        return all(len(_common(s, tau)) < m for tau in combinations(lns, n))
    return all(len(_common(s, sigma)) < n for sigma in combinations(pts, m))


def closed_in(s, subset) -> bool:
    """Every m points (n lines) of ``subset`` have all their common
    neighbours in ``s`` inside ``subset``."""
    m, n = s.params.m, s.params.n
    sub = frozenset(subset)
    pts = sorted(e for e in sub if s.is_point(e))
    lns = sorted(e for e in sub if s.is_line(e))
    for k, pool in ((m, pts), (n, lns)):
        for group in combinations(pool, k):
            if not _common(s, group) <= sub:
                return False
    return True


def plane_ok(s, order: int) -> bool:
    """A projective plane of ``order``: right counts, every point pair on
    exactly one line and every line pair through exactly one point."""
    v = order * order + order + 1
    pts, lns = s.points, s.lines
    if len(pts) != v or len(lns) != v:
        return False
    if any(len(s.neighbors(l)) != order + 1 for l in lns):
        return False
    pairs = Counter(pair for l in lns for pair in combinations(sorted(s.neighbors(l)), 2))
    if len(pairs) != comb(v, 2) or set(pairs.values()) != {1}:
        return False
    return all(len(s.neighbors(a) & s.neighbors(b)) == 1 for a, b in combinations(lns, 2))


def complete22_ok(s) -> bool:
    """(2,2)-complete: every two points on exactly one common line and every
    two lines through exactly one common point."""
    for pool in (s.points, s.lines):
        for a, b in combinations(pool, 2):
            if len(s.neighbors(a) & s.neighbors(b)) != 1:
                return False
    return True


def induced_embedding_ok(small, big, mapping) -> bool:
    """``mapping`` is injective, sort-preserving, total on ``small``, and
    preserves incidence and non-incidence."""
    if set(mapping) != set(small.elements()):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    if any(small.is_point(e) != big.is_point(img) for e, img in mapping.items()):
        return False
    return all(small.incident(p, l) == big.incident(mapping[p], mapping[l])
               for p in small.points for l in small.lines)


def document_check(text: str) -> tuple:
    """Independent reading of a ``complete`` document.

    Verifies that the text is the canonical rendering of its own JSON
    (sorted keys, two-space indent, trailing newline), that every incidence
    names a point and a line, and returns (stage sizes, element count,
    incidence pairs) with the stage sizes counted from the provenance.
    """
    doc = json.loads(text)
    if json.dumps(doc, indent=2, sort_keys=True) + "\n" != text:
        raise AssertionError("document is not in canonical form")
    points, lines = set(doc["points"]), set(doc["lines"])
    if points & lines or len(points) != len(doc["points"]) or len(lines) != len(doc["lines"]):
        raise AssertionError("document names are not unique")
    for p, l in doc["incidences"]:
        if p not in points or l not in lines:
            raise AssertionError(f"bad incidence {p!r}-{l!r}")
    born = Counter(rec["stage"] for rec in doc["provenance"].values())
    total = len(points) + len(lines)
    sizes = [total - sum(born.values())]
    for k in range(1, max(born, default=0) + 1):
        sizes.append(sizes[-1] + born[k])
    return sizes, total, doc


_SIZES = re.compile(r"\((\d+) vs (\d+) elements\)")


def otimes_size_witness(detail: str) -> bool:
    """The OTIMES checker reports non-isomorphism through the element counts
    of the two structures it compared; different counts certify it."""
    hit = _SIZES.search(detail)
    return bool(hit) and hit.group(1) != hit.group(2)
