"""Collinear hulls of the interior points, and matchings between them.

For collinear interior points the collinear hull inside circle-plus-points
is just the points themselves together with the two ends of their chord.
Every `Config` has its points in their order along the line, so the
hull is the stored points' canonical triples between a low and a high
chord-end token.  The two chord ends are irrational in general, so the
tokens carry only their position along the line; `svg` computes the float
chord ends for drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .action import Config

__all__ = [
    "EndpointToken",
    "HullIso",
    "collinear_hull",
    "hull_isomorphism",
]


@dataclass(frozen=True)
class EndpointToken:
    """One of the two ends of the interior-points chord, identified by its
    position along the line only."""

    role: str  # "low" or "high"


def collinear_hull(config: Config) -> tuple:
    """The collinear hull of the interior points in line order: the low
    chord end, the triples of the points in stored order, the high chord
    end.  A single interior point is its own hull."""
    if len(config.points) == 1:
        return config.triples
    return (EndpointToken("low"),) + config.triples + (EndpointToken("high"),)


@dataclass(frozen=True)
class HullIso:
    """A betweenness isomorphism between two hulls of equal size: the k-th
    token maps to the k-th token (or to the mirrored one when reversed).
    sigma sends interior index i of the source to the matched index of the
    target."""

    pairs: tuple
    sigma: tuple


def hull_isomorphism(ha: tuple, hb: tuple,
                     reverse: bool = False) -> Optional[HullIso]:
    """Match two hulls token-by-token along their lines, reversing the
    second if `reverse`; None when the sizes differ.

    For collinear hulls the order-preserving and the order-reversing
    bijections are both betweenness isomorphisms, so both choices are
    always available at equal size.
    """
    if len(ha) != len(hb):
        return None
    pairs = tuple(zip(ha, hb[::-1] if reverse else hb))
    l = 1 if len(ha) == 1 else len(ha) - 2  # interior points between the ends
    sigma = tuple(range(l, 0, -1)) if reverse else tuple(range(1, l + 1))
    return HullIso(pairs, sigma)
