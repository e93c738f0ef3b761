"""Deciding betweenness isomorphism of two configurations and building
finite isomorphism tables.

One or two interior points are always isomorphic.  Three collinear interior
points are isomorphic exactly when their class labels agree, and a matching
pair of labels yields explicit finite pieces of an isomorphism: the hulls
match in stored order, straight or reversed (fixing the index permutation),
and sampled orbits match through the letter-relabelled words, which is
consistent precisely because matching classes share their off-line
stabilizers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from .action import Config, act, is_cycle, offline_test_points
from .classify import (
    ClassLabel,
    CycleLabel,
    NoCycleUpTo,
    classify,
)
from .geometry import Point, format_point, is_between
from .hull import EndpointToken, collinear_hull, hull_isomorphism
from .words import Word, apply_letter_permutation, pi13

__all__ = [
    "Isomorphic",
    "NotIsomorphic",
    "ConditionallyIsomorphic",
    "IsoVerdict",
    "PartialIsoTable",
    "VerdictError",
    "CollisionError",
    "decide_iso",
    "build_partial_iso",
    "verify_table",
    "serialize_table",
    "format_verdict",
]


class VerdictError(ValueError):
    """An operation needed a different kind of verdict."""


class CollisionError(RuntimeError):
    """The sampled table failed to be a well-defined injection; either the
    classification is wrong or two seeds shared an orbit outside the
    sampled words."""


@dataclass(frozen=True)
class Isomorphic:
    """vector is the shared canonical cycle label, or None for one or two
    interior points (always isomorphic, no label needed)."""

    vector: Optional[tuple]


@dataclass(frozen=True)
class NotIsomorphic:
    label_s: ClassLabel
    label_r: ClassLabel


@dataclass(frozen=True)
class ConditionallyIsomorphic:
    """Both searches were empty up to the bound; the configurations are
    isomorphic if both are genuinely cycle-free, which a bounded search
    cannot certify."""

    v2_bound: int


IsoVerdict = Union[Isomorphic, NotIsomorphic, ConditionallyIsomorphic]


def format_verdict(verdict: IsoVerdict) -> str:
    if isinstance(verdict, Isomorphic):
        if verdict.vector is None:
            return "isomorphic trivial"
        return "isomorphic v=({},{},{})".format(*verdict.vector)
    if isinstance(verdict, NotIsomorphic):
        return "not-isomorphic"
    return f"conditionally-isomorphic bound={verdict.v2_bound}"


def _common_size(s: Config, r: Config) -> int:
    """The shared number of interior points; VerdictError if they differ."""
    if len(s.points) != len(r.points):
        raise VerdictError(
            f"configurations have {len(s.points)} vs {len(r.points)} interior points")
    return len(s.points)


def decide_iso(s: Config, r: Config, v2_max: int) -> IsoVerdict:
    """Betweenness isomorphism verdict for two configurations of equal size.

    One or two interior points: isomorphic outright.  Three collinear
    points: compare class labels at the given bound; equal cycle labels are
    a proof, a cycle on one side with middle entry within the other side's
    empty search bound is a disproof, and two empty searches stay
    conditional.
    """
    l = _common_size(s, r)
    if l not in (1, 2, 3):
        raise VerdictError(f"only 1..3 interior points supported, got {l}")
    if l in (1, 2):
        return Isomorphic(None)
    label_s = classify(s, v2_max)
    label_r = classify(r, v2_max)
    if isinstance(label_s, CycleLabel) and isinstance(label_r, CycleLabel):
        if label_s.vector == label_r.vector:
            return Isomorphic(label_s.vector)
        return NotIsomorphic(label_s, label_r)
    if isinstance(label_s, NoCycleUpTo) and isinstance(label_r, NoCycleUpTo):
        return ConditionallyIsomorphic(v2_max)
    return NotIsomorphic(label_s, label_r)


Token = Union[Point, EndpointToken]


@dataclass(frozen=True)
class PartialIsoTable:
    """A finite, exactly verified piece of a betweenness isomorphism: hull
    tokens matched ordinally, sampled orbit points matched through the
    relabelled words.  src_hull and dst_hull list each side's hull tokens
    in its own line order, which is all the endpoint tokens have for
    coordinates."""

    rows: tuple  # ((source token, target token), ...)
    sigma: tuple
    seed_pairs: tuple  # ((x_seed, y_seed), ...)
    src_hull: tuple
    dst_hull: tuple


def _stored_vector(config: Config, vector: tuple) -> tuple:
    """The cycle vector in this configuration's stored point order; the
    canonical label determines it up to the 1<->3 swap."""
    if is_cycle(config, vector):
        return vector
    swapped = pi13(vector)
    if is_cycle(config, swapped):
        return swapped
    raise CollisionError(f"{vector} is not a cycle for the configuration")


def _mirrored(s: Config, r: Config, vector: Optional[tuple]) -> bool:
    """Whether the hull matching must reverse the target's line order: when
    three points carry the cycle vector in mirrored stored orders, only the
    1<->3 swap respects the stabilizers; the identity works in the trivial
    classes."""
    return (len(s.points) == 3 and vector is not None
            and _stored_vector(s, vector) != _stored_vector(r, vector))


def _orbit_seeds(config: Config, words: Sequence[Word], count: int) -> List[Point]:
    """Deterministic off-line points whose sampled images (the point and its
    images under the sampled words) are pairwise disjoint, so no table source
    comes from two seeds; one seed needs no images."""
    seeds: List[Point] = []
    taken: Set[Point] = set()
    for p in offline_test_points(config):
        if count > 1:
            reached = {p} | {act(config, p, w) for w in words}
            if not taken.isdisjoint(reached):
                continue
            taken |= reached
        seeds.append(p)
        if len(seeds) == count:
            return seeds
    raise CollisionError("seed stream exhausted")  # pragma: no cover


def build_partial_iso(s: Config, r: Config, verdict: IsoVerdict,
                      sample_words: Sequence[Word], seeds: int) -> PartialIsoTable:
    """Materialize the isomorphism on the hulls and on `seeds` sampled
    orbits, mapping every x.g to y.(relabelled g), then verify the whole
    table: well-defined, injective, and two-sided betweenness preserving on
    every triple."""
    if not isinstance(verdict, Isomorphic):
        raise VerdictError(f"need an Isomorphic verdict, got {format_verdict(verdict)}")
    l = _common_size(s, r)
    for w in sample_words:
        if w.alphabet != l:
            raise VerdictError(f"sample word {w.letters} has alphabet {w.alphabet} != {l}")
    src_hull, dst_hull = collinear_hull(s), collinear_hull(r)
    hull_iso = hull_isomorphism(src_hull, dst_hull, _mirrored(s, r, verdict.vector))
    sigma = hull_iso.sigma
    mapping: Dict[Token, Token] = {}

    def put(src: Token, dst: Token) -> None:
        if src in mapping:
            if mapping[src] != dst:
                raise CollisionError(f"source {src} maps to both {mapping[src]} and {dst}")
            return
        mapping[src] = dst

    for a, b in hull_iso.pairs:
        put(a, b)
    seed_pairs = []
    if seeds > 0:
        xs = _orbit_seeds(s, sample_words, seeds)
        ys = _orbit_seeds(r, sample_words, seeds)
        seed_pairs = list(zip(xs, ys))
        for x, y in seed_pairs:
            for g in sample_words:
                put(act(s, x, g), act(r, y, apply_letter_permutation(g, sigma)))
    targets: Dict[Token, Token] = {}
    for src, dst in mapping.items():
        if dst in targets:
            raise CollisionError(f"targets collide: {targets[dst]} and {src} both map to {dst}")
        targets[dst] = src
    table = PartialIsoTable(tuple(mapping.items()), sigma, tuple(seed_pairs),
                            src_hull, dst_hull)
    bad = verify_table(table)
    if bad is not None:
        raise CollisionError(f"triple check failed at {bad}")
    return table


def _triple_between(a: Token, x: Token, b: Token,
                    pos: Dict[Token, int]) -> bool:
    """Strict betweenness extended to endpoint tokens: ordinal along the
    hull when all three tokens sit on it, impossible when an endpoint token
    meets a non-hull point (endpoints lie on the interior line and on the
    circle; every non-hull table point is off that line, and no three
    circle points are collinear)."""
    if a in pos and x in pos and b in pos:
        return min(pos[a], pos[b]) < pos[x] < max(pos[a], pos[b])
    if isinstance(a, EndpointToken) or isinstance(x, EndpointToken) \
            or isinstance(b, EndpointToken):
        return False
    return is_between(a, x, b)


def verify_table(table: PartialIsoTable) -> Optional[tuple]:
    """Two-sided betweenness check over every triple of the table domain;
    returns an offending source triple or None.  Checking all triples is
    exactly the condition that every small subsample passes the brute-force
    oracle: a restriction is an isomorphism if and only if each of its
    triples agrees on both sides."""
    src_pos = {t: i for i, t in enumerate(table.src_hull)}
    dst_pos = {t: i for i, t in enumerate(table.dst_hull)}
    rows = list(table.rows)
    for r1, r2, r3 in itertools.combinations(rows, 3):
        for (a, fa), (x, fx), (b, fb) in ((r1, r2, r3), (r2, r1, r3), (r1, r3, r2)):
            if _triple_between(a, x, b, src_pos) != _triple_between(fa, fx, fb, dst_pos):
                return (a, x, b)
    return None


def serialize_table(table: PartialIsoTable) -> str:
    """Header naming the permutation, then one tab-separated row per pair."""
    lines = ["sigma\t" + " ".join(str(x) for x in table.sigma)]
    for src, dst in table.rows:
        lines.append(f"{_token_str(src)}\t->\t{_token_str(dst)}")
    return "\n".join(lines) + "\n"


def _token_str(token: Token) -> str:
    if isinstance(token, EndpointToken):
        return f"endpoint-{token.role}"
    return format_point(token)
