"""Collinear hulls of the interior points, and a brute-force betweenness
isomorphism oracle for small finite point sets.

For collinear interior points the collinear hull inside circle-plus-points
is just the points themselves together with the two ends of their chord;
the two chord ends are irrational in general, so the hull is kept ordinal:
a token list ordered along the line, with exact coordinates only on the
interior tokens; `svg` computes the float chord ends for drawing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .action import Config
from .geometry import Point, is_between

__all__ = [
    "EndpointToken",
    "InteriorToken",
    "HullToken",
    "OrdinalHull",
    "HullIso",
    "CapExceeded",
    "collinear_hull",
    "hull_isomorphism",
    "brute_force_iso",
    "BRUTE_FORCE_CAP",
]

BRUTE_FORCE_CAP = 8


class CapExceeded(ValueError):
    """The brute-force oracle is limited to small samples."""


@dataclass(frozen=True)
class EndpointToken:
    """One of the two ends of the interior-points chord, identified by its
    position along the line only."""

    role: str  # "low" or "high"


@dataclass(frozen=True)
class InteriorToken:
    index: int  # 1-based index of the interior point in the configuration
    point: Point


HullToken = Union[EndpointToken, InteriorToken]


@dataclass(frozen=True)
class OrdinalHull:
    """Hull tokens in increasing order along the interior line; for a single
    interior point the hull degenerates to that point with no endpoints."""

    tokens: tuple

    def interior(self) -> tuple:
        return tuple(t for t in self.tokens if isinstance(t, InteriorToken))

    def size(self) -> int:
        return len(self.tokens)


def collinear_hull(config: Config) -> OrdinalHull:
    """The collinear hull of the interior points: the points themselves plus
    the two chord ends, ordered along the line.  A single interior point is
    its own hull."""
    pts = config.points
    if len(pts) == 1:
        return OrdinalHull((InteriorToken(1, pts[0]),))
    direction = pts[1] - pts[0]
    interior = sorted(
        (InteriorToken(i + 1, p) for i, p in enumerate(pts)),
        key=lambda tok: (tok.point - pts[0]).dot(direction),
    )
    return OrdinalHull((EndpointToken("low"),) + tuple(interior)
                       + (EndpointToken("high"),))


@dataclass(frozen=True)
class HullIso:
    """A betweenness isomorphism between two hulls of equal size: the k-th
    token maps to the k-th token (or to the mirrored one when reversed).
    sigma sends interior index i of the source to the matched index of the
    target; orientation records whether the stored index orders run the
    same way along their lines."""

    pairs: tuple
    sigma: tuple
    orientation: str  # "preserved" or "reversed"


def hull_isomorphism(ha: OrdinalHull, hb: OrdinalHull,
                     reverse: bool = False) -> Optional[HullIso]:
    """Match two hulls token-by-token along their lines, reversing the
    second if `reverse`; None when the sizes differ.

    For collinear hulls the order-preserving and the order-reversing
    bijections are both betweenness isomorphisms, so both choices are
    always available at equal size.
    """
    if ha.size() != hb.size():
        return None
    tb = hb.tokens[::-1] if reverse else hb.tokens
    pairs = tuple(zip(ha.tokens, tb))
    ia = [t for t in ha.tokens if isinstance(t, InteriorToken)]
    ib = [t for t in tb if isinstance(t, InteriorToken)]
    sigma_map = {a.index: b.index for a, b in zip(ia, ib)}
    sigma = tuple(sigma_map[i] for i in sorted(sigma_map))
    l = len(sigma)
    ascending = lambda toks: all(t.index < u.index for t, u in zip(toks, toks[1:]))
    descending = lambda toks: all(t.index > u.index for t, u in zip(toks, toks[1:]))
    if l == 1:
        orientation = "preserved"
    elif (ascending(ia) and ascending(ib)) or (descending(ia) and descending(ib)):
        orientation = "preserved"
    else:
        orientation = "reversed"
    return HullIso(pairs, sigma, orientation)


def _between_triples(pts: List[Point]) -> frozenset:
    """Index triples (i, j, k), i < k, with pts[j] strictly between."""
    found = set()
    for i, k in itertools.combinations(range(len(pts)), 2):
        for j in range(len(pts)):
            if j != i and j != k and is_between(pts[i], pts[j], pts[k]):
                found.add((i, j, k))
    return frozenset(found)


def brute_force_iso(sample_a: Sequence[Point],
                    sample_b: Sequence[Point]) -> Optional[Dict[Point, Point]]:
    """Exhaustive search for a betweenness isomorphism between two small
    point sets; returns the lexicographically first witness or None.

    Both sets are sorted by coordinates and every bijection is tried in
    permutation order, so the returned witness is deterministic.  The
    betweenness triples of each side are computed once; a bijection is an
    isomorphism exactly when it carries the one triple set onto the other.
    """
    if len(sample_a) != len(sample_b):
        return None
    if len(sample_a) > BRUTE_FORCE_CAP:
        raise CapExceeded(f"{len(sample_a)} points exceeds cap {BRUTE_FORCE_CAP}")
    a = sorted(set(sample_a), key=lambda p: (p.x, p.y))
    b = sorted(set(sample_b), key=lambda p: (p.x, p.y))
    if len(a) != len(sample_a) or len(b) != len(sample_b):
        raise ValueError("sample points must be pairwise distinct")
    ta = _between_triples(a)
    tb = _between_triples(b)
    if len(ta) != len(tb):
        return None
    for image in itertools.permutations(range(len(b))):
        ok = True
        for i, j, k in ta:
            pi, pj, pk = image[i], image[j], image[k]
            if pi > pk:
                pi, pk = pk, pi
            if (pi, pj, pk) not in tb:
                ok = False
                break
        if ok:
            return {a[m]: b[image[m]] for m in range(len(a))}
    return None
