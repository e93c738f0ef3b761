"""Deciding betweenness isomorphism of two configurations and building
finite isomorphism tables.

One or two interior points are always isomorphic.  Three collinear interior
points are isomorphic exactly when their class labels agree, and a matching
pair of labels yields explicit finite pieces of an isomorphism: the hulls
match in stored order, straight or reversed (fixing the index permutation),
and sampled orbits match through the letter-relabelled words, which is
consistent precisely because matching classes share their off-line
stabilizers.

A table is verified without testing its triples.  In a circle with
collinear interior points, strict betweenness has exactly two sources: the
order along the collinear hull, and the chords p - c_i - p.i through the
interior points, since no circle point lies strictly between two points of
the closed disc.  `verify_table` reads each side's triples off those two
sources in O(n*l) exact steps, finding the far end of each chord as one
homology step from its near end.  The premise that makes this complete
has two halves.  The interior hull points lie strictly inside the circle,
on one line in hull order: every `Config` is checked for that when it is
built, and a table carries its two `Config`s, whose hulls
(`collinear_hull`), conics and homologies `verify_table` reads.  Every
other table point lies on the circle, off the hull line: `verify_table`
checks that in O(n).

Tables hold points as canonical triples (`geometry.homogeneous`) and the
chord ends as tokens, in rows and seed pairs.  A build starts from each
configuration's cached test point (`Config.test_triple`) and takes each
sampled image x.g as one homology step on the image of g's prefix;
`verify_table` reads its maps off the rows and refuses non-canonical
triples, so no point appears under two keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from .action import Config, _test_triples
from .classify import (
    ClassLabel,
    CycleLabel,
    NoCycleUpTo,
    _search_cycle,
    classify,
)
from .geometry import Triple, apply_homology, format_triple, line_through, quadric
from .hull import EndpointToken, collinear_hull, hull_isomorphism
from .words import Word

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


# A table key: the canonical triple of a point, or a chord-end token.
Key = Union[Triple, EndpointToken]


@dataclass(frozen=True)
class PartialIsoTable:
    """A finite, exactly verified piece of a betweenness isomorphism: hull
    keys matched ordinally, sampled orbit points matched through the
    relabelled words.  src and dst are the source and target
    configurations; `verify_table` reads each side's hull keys in line
    order (`collinear_hull`, which is all the endpoint tokens have for
    coordinates), conic and homologies off them."""

    rows: tuple  # ((source key, target key), ...)
    sigma: tuple
    seed_pairs: tuple  # ((x_seed, y_seed), ...), as triples
    src: Config
    dst: Config


def _stored_vector(config: Config, vector: tuple) -> tuple:
    """The cycle vector in this configuration's stored point order, which
    is the canonical label or its 1<->3 swap, read off the cycle decision
    (`classify._search_cycle`); CollisionError unless the vector is the
    configuration's canonical label."""
    found = _search_cycle(config, vector[1]) \
        if len(vector) == 3 and vector[1] >= 1 else None
    if found is None or found[0] != vector:
        raise CollisionError(f"{vector} is not a cycle for the configuration")
    return found[1]


def _mirrored(s: Config, r: Config, vector: Optional[tuple]) -> bool:
    """Whether the hull matching must reverse the target's line order: when
    the three points of each side carry the cycle vector in mirrored stored
    orders, only the 1<->3 swap respects the stabilizers; the identity works
    in the trivial classes.  A vector on other than three points is refused
    (`classify._search_cycle`)."""
    return vector is not None and _stored_vector(s, vector) != _stored_vector(r, vector)


def _images(homologies: tuple, x: Triple, words: Sequence[Word]) -> List[Triple]:
    """x.g for each word g, with letter i acting by homologies[i - 1].  The
    words' prefixes form a trie, and each image is one homology step on the
    image of its prefix, so every distinct non-empty prefix costs one step."""
    root: dict = {}  # letter -> (image, children)
    images = []
    for g in words:
        y, children = x, root
        for letter in g.letters:
            node = children.get(letter)
            if node is None:
                node = children[letter] = (apply_homology(homologies[letter - 1], y), {})
            y, children = node
        images.append(y)
    return images


def _orbit_seeds(config: Config, words: Sequence[Word], count: int) -> List[Triple]:
    """Deterministic off-line points, as triples, whose sampled images (the
    point and its images under the sampled words) are pairwise disjoint, so
    no table source comes from two seeds; one seed needs no images and is
    the cached test point.  The stream of `_test_triples` never ends, so
    the loop leaves only by its return."""
    if count == 1:
        return [config.test_triple]
    seeds: List[Triple] = []
    taken: Set[Triple] = set()
    for x in _test_triples(config):
        reached = {x, *_images(config.homologies, x, words)}
        if not taken.isdisjoint(reached):
            continue
        taken |= reached
        seeds.append(x)
        if len(seeds) == count:
            return seeds


def build_partial_iso(s: Config, r: Config, verdict: IsoVerdict,
                      sample_words: Sequence[Word], seeds: int) -> PartialIsoTable:
    """Materialize the isomorphism on the hulls and on `seeds` sampled
    orbits, mapping every x.g to y.(relabelled g), then verify the whole
    table: well-defined, injective, and two-sided betweenness preserving on
    every triple (`verify_table`).  The rows hold the keys as they are
    built, canonical triples and chord-end tokens, and the target images
    come from the target's homologies in relabelled order."""
    if not isinstance(verdict, Isomorphic):
        raise VerdictError(f"need an Isomorphic verdict, got {format_verdict(verdict)}")
    l = _common_size(s, r)
    for w in sample_words:
        if w.alphabet != l:
            raise VerdictError(f"sample word {w.letters} has alphabet {w.alphabet} != {l}")
    hull_iso = hull_isomorphism(collinear_hull(s), collinear_hull(r),
                                _mirrored(s, r, verdict.vector))
    sigma = hull_iso.sigma
    mapping: Dict[Key, Key] = {}

    def put(src: Key, dst: Key) -> None:
        old = mapping.setdefault(src, dst)
        if old != dst:
            raise CollisionError(
                f"source {_key_str(src)} maps to both {_key_str(old)} and {_key_str(dst)}")

    for a, b in hull_iso.pairs:
        put(a, b)
    seed_pairs: tuple = ()
    if seeds > 0:
        seed_pairs = tuple(zip(_orbit_seeds(s, sample_words, seeds),
                               _orbit_seeds(r, sample_words, seeds)))
        relabelled = tuple(r.homologies[j - 1] for j in sigma)
        for x, y in seed_pairs:
            for a, b in zip(_images(s.homologies, x, sample_words),
                            _images(relabelled, y, sample_words)):
                put(a, b)
    sources: Dict[Key, Key] = {}
    for src, dst in mapping.items():
        first = sources.setdefault(dst, src)
        if first != src:
            raise CollisionError(f"targets collide: {_key_str(first)} and "
                                 f"{_key_str(src)} both map to {_key_str(dst)}")
    table = PartialIsoTable(tuple(mapping.items()), sigma, seed_pairs, s, r)
    bad = verify_table(table)
    if bad is not None:
        raise CollisionError("triple check failed at " + ", ".join(map(_key_str, bad)))
    return table


def _between_rows(config: Config, row_of: Dict[Key, int]) -> Set[tuple]:
    """The row triples (i, j, k) whose keys on this side have key j
    strictly between keys i and k, from the two sources of betweenness;
    raises VerdictError when a key is outside the premise.  A hull triple
    is listed with i < k, as a mirrored table lists the target's hull rows
    in reverse; a chord is found from each of its ends, so its triple is
    listed in both orders on both sides.

    The interior points are on one line, strictly inside the circle and in
    hull order (`Config` checks all three), and every other table key must
    be a circle point off that line (a zero dot product with `line_through`
    two interior points).  Then no circle point (chord ends included) is
    strictly between two points of the closed disc, so the middle of a
    triple is an interior point c.  Its ends are either two hull keys,
    between in hull order, or a circle point p and the far end q of its
    chord through c, the reversion of p through c: one `apply_homology`
    step with c's cached homology, looked up among the keys.  The line
    through p and c meets the hull line only at c, so q is never a hull key.
    """
    middles = config.triples
    ranked = [row_of[t] for t in collinear_hull(config) if t in row_of]
    found = {(min(i, k), j, max(i, k)) for i, j, k in itertools.combinations(ranked, 3)}
    chords = [(h, row_of[c]) for c, h in zip(middles, config.homologies) if c in row_of]
    n0, n1, n2 = line_through(*middles[:2]) if len(middles) > 1 else (0, 0, 0)
    on_hull = set(ranked)
    for p, k in row_of.items():
        if k in on_hull:
            continue
        if not isinstance(p, tuple):
            raise VerdictError(f"table token {_key_str(p)} is not on the hull")
        if quadric(config.conic, p) != 0:
            raise VerdictError(f"table point {format_triple(p)} is not on the circle")
        if len(middles) > 1 and n0 * p[0] + n1 * p[1] + n2 * p[2] == 0:
            raise VerdictError(f"table point {format_triple(p)} is on the hull line")
        for h, j in chords:
            i = row_of.get(apply_homology(h, p))
            if i is not None:
                found.add((i, j, k))
    return found


def verify_table(table: PartialIsoTable) -> Optional[tuple]:
    """Two-sided betweenness check of the whole table; returns an offending
    source triple (end, middle, end) of keys or None.  The table is a
    betweenness isomorphism on its domain exactly when the between-triples
    of its sources map onto those of its targets.

    In a circle with collinear interior points, strict betweenness has two
    sources: the order along the collinear hull, and the chords p - c_i -
    p.i through the interior points.  Each side's triples are read off
    those two in O(n*l) exact steps (see `_between_rows`), instead of
    testing every triple, with the hull, conic and homologies of the
    side's `Config`, which was checked for its half of the premise when it
    was built.  The other half is checked on both sides in O(n): every key
    off the hull is a circle point off the hull line.  VerdictError if
    not, if a key is neither an endpoint token nor a canonical triple
    (integers, W > 0, gcd 1), or if the rows repeat a source or a target.
    """
    rows = table.rows
    for key in itertools.chain(*rows):
        if not isinstance(key, EndpointToken) and not (
                isinstance(key, tuple) and len(key) == 3
                and type(key[0]) is type(key[1]) is type(key[2]) is int
                and key[2] > 0 and math.gcd(*key) == 1):
            raise VerdictError(f"table key {key!r} is not a canonical triple")
    src_row = {src: i for i, (src, _) in enumerate(rows)}
    dst_row = {dst: i for i, (_, dst) in enumerate(rows)}
    if len(src_row) != len(rows) or len(dst_row) != len(rows):
        raise VerdictError("table rows repeat a source or a target")
    mismatch = _between_rows(table.src, src_row) ^ _between_rows(table.dst, dst_row)
    if not mismatch:
        return None
    i, j, k = min(mismatch)
    return (rows[i][0], rows[j][0], rows[k][0])


def _key_str(key: Key) -> str:
    if isinstance(key, EndpointToken):
        return f"endpoint-{key.role}"
    return format_triple(key)
