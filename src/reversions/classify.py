"""Classification of a circle with three collinear interior points.

The cycle vectors of a configuration form a cyclic subgroup of Z^3: either
only the zero vector (one single shared class for all such configurations),
or all integer multiples of one primitive balanced vector v with v2 >= 1,
v1 <= v3 <= -1 and gcd 1, which is then a complete class label.  The
stored vector (-k, k+m, -m) is a cycle exactly when the words (2,1) and
(3,2), which translate along the line of the points by factors lambda_12
and lambda_23 in the Beltrami-Klein model, satisfy
lambda_12^k = lambda_23^m.  When the line meets the circle in rational
points ("square D": both factors rational), that equation is decided in
closed form, with no bound and no reversion step: two Euclids on the
numerators and the denominators of the factors, which come from the
traces of the homology products.  The closed form assumes the points
collinear with the middle one strictly between the others, which
`validate_config` checks and which is tested again on the triples.
Otherwise the search walks the two point chains p.(2,1)^k and p.(3,2)^m
from one off-line rational point p and joins them on exact equality, so a
bound B costs O(B) reversions.  The label stays bounded either way:
`NoCycleUpTo(B)` when there is no cycle or its middle entry exceeds B.

The two constructors go the other way and produce a configuration
realizing a prescribed vector, one by exact chord closing, with no
search, one by certified bisection on the middle point.  The
bisection signs one exact residual polynomial pair per vector, in closed
form: for v = (-k, k+m, -m) and the middle abscissa n/d,
9^m (d - n)^(2(k+m)) against 9^k (d + n)^(2(k+m)), which are
lambda_23^(2m) and lambda_12^(2k) times one positive integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .action import Config, act, offline_test_point
from .geometry import (
    Circle,
    Homology,
    NotInterior,
    Point,
    UNIT_CIRCLE,
    apply_homology,
    collinear_between,
    conic,
    homogeneous,
    homology,
    line_through,
    quadric,
)
from .words import (
    Signature,
    Word,
    canonical_word,
    gcd_vec,
    is_balanced,
    pi13,
    signature_of,
    word_from_signature,
)

__all__ = [
    "CycleLabel",
    "NoCycleUpTo",
    "ClassLabel",
    "RealizationInterval",
    "ConfigValidationError",
    "RealizationError",
    "SignChangeError",
    "validate_config",
    "default_base_point",
    "classify",
    "verify_label",
    "format_label",
    "realize_by_closing",
    "search_closing_config",
    "realize_by_bisection",
    "middle_point_residual",
    "avoid_all_cycles",
]

# The first inward shift of the bisection endpoints from -1/2 and 1/2 is
# 2^-BISECTION_SHIFT_BITS.
BISECTION_SHIFT_BITS = 10


class ConfigValidationError(ValueError):
    """A configuration failed validation; `check` names the failed test."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


class RealizationError(ValueError):
    """A constructor was called outside its precondition."""


class SignChangeError(RuntimeError):
    """The certified sign pattern failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class CycleLabel:
    """A verified nonzero cycle class: `vector` is the canonical primitive
    (balanced, v2 >= 1, v1 <= v3 <= -1, gcd 1); the witness word fixes the
    witness point exactly and its signature is the cycle in the stored
    point order (the canonical vector or its 1<->3 swap)."""

    vector: tuple
    witness_word: Word
    witness_point: Point


@dataclass(frozen=True)
class NoCycleUpTo:
    """No nonzero cycle with middle entry up to the bound; an honest search
    bound, not a certificate of the cycle-free class."""

    v2_bound: int


ClassLabel = Union[CycleLabel, NoCycleUpTo]


@dataclass(frozen=True)
class RealizationInterval:
    """Bisection output: the middle interior point abscissa realizing the
    vector lies in (a_lo, a_hi), certified by exact endpoint signs (residual
    positive at a_lo, negative at a_hi)."""

    vector: tuple
    a_lo: Fraction
    a_hi: Fraction


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def default_base_point(circle: Circle) -> Point:
    """Easternmost point when the radius is rational; a rational point on a
    rational circle need not exist in general, so otherwise the caller must
    supply a base point explicitly."""
    r = _rational_sqrt(circle.radius_sq)
    if r is None:
        raise ConfigValidationError(
            "base_point",
            f"radius^2 = {circle.radius_sq} is not a rational square; "
            "supply an explicit rational base point on the circle")
    return Point(circle.center.x + r, circle.center.y)


def validate_config(circle: Circle, points, base_point: Optional[Point] = None) -> Config:
    """Check distinctness, interiority and (for three or more points)
    collinearity and monotone order, and attach a rational seed point on
    the circle.  Each failed check is reported under its own name.

    The checks run on the `homogeneous` triples of the points, against the
    circle's integer conic A (`geometry.conic`), which the returned Config
    keeps as `Config.conic`: a point is inside when X^T A X < 0 and the
    base point is on the circle when X^T A X = 0 (`geometry.quadric`);
    three points are collinear when their 3x3 determinant vanishes
    (`geometry.line_through`); and of three distinct collinear points the
    middle one is strictly between the others when the two segment
    vectors, cross-multiplied to integers, have a positive dot product
    (`geometry.collinear_between`, which also tests the collinearity).
    """
    points = tuple(points)
    if not points:
        raise ConfigValidationError("count", "need at least one interior point")
    triples = [homogeneous(p) for p in points]
    for i, x in enumerate(triples):
        if x in triples[i + 1:]:
            raise ConfigValidationError(
                "distinctness", f"interior point {points[i]} repeated")
    matrix = conic(circle)
    for p, x in zip(points, triples):
        if quadric(matrix, x) >= 0:
            raise ConfigValidationError(
                "interiority", f"{p} is not strictly inside the circle")
    if len(points) >= 3:
        n0, n1, n2 = line_through(triples[0], triples[1])
        for p, (x0, x1, x2) in zip(points[2:], triples[2:]):
            if n0 * x0 + n1 * x1 + n2 * x2 != 0:
                raise ConfigValidationError(
                    "collinearity", f"{p} is off the line of the first two points")
        for mid, left, middle, right in zip(points[1:], triples, triples[1:], triples[2:]):
            if not collinear_between(left, middle, right):
                raise ConfigValidationError(
                    "ordering", f"{mid} is not between its neighbours")
    if base_point is None:
        base_point = default_base_point(circle)
    elif quadric(matrix, homogeneous(base_point)) != 0:
        raise ConfigValidationError(
            "base_point", f"{base_point} is not on the circle")
    config = Config(circle, points, base_point)
    config.__dict__["conic"] = matrix  # the cached property's slot
    return config


def _power_ratio(x: int, y: int) -> Tuple[int, int]:
    """The primitive (k, m), k, m >= 1, with x^k = y^m, for integers
    x, y >= 1 that are not both 1; (0, 0) when only k = m = 0 solves it.

    A Euclid that divides the larger number by the smaller.  If x^k = y^m
    with x > y, then y divides x and (x/y)^k = y^(m-k), so each division
    keeps every solution, with its exponents moved by a unimodular map; a
    remainder proves that there is none.  The invariants x0 = x^a y^b and
    y0 = x^c y^d hold throughout, so when x = y = r it ends with
    x0 = r^(a+b) and y0 = r^(c+d).  Each division halves one number at
    least, so there are fewer steps than the bits of x0 and y0.
    """
    if x == 1 or y == 1:
        return 0, 0
    a, b, c, d = 1, 0, 0, 1
    while x != y:
        if x > y:
            x, rest = divmod(x, y)
            b, d = b + a, d + c
        else:
            y, rest = divmod(y, x)
            a, c = a + b, c + d
        if rest:
            return 0, 0
    g = math.gcd(a + b, c + d)
    return (c + d) // g, (a + b) // g


def _translation_factor(hi: Homology, hj: Homology) -> Optional[Tuple[int, int]]:
    """The translation factor lambda > 1 of the product of two homologies,
    as the lowest-terms pair (a, b) of lambda = a/b, or None when it is
    irrational.

    H_i / q_i and H_j / q_j are the hyperbolic half-turns about the two
    points, so their product translates along the line through them by
    lambda, with eigenvalues lambda, 1 and 1/lambda.  Since l . C = q for
    each homology (the gcd that `geometry.homology` divides by keeps it),
    tr(H_i H_j) = 4 (l_i . C_j)(l_j . C_i) - q_i q_j, and
    tau = lambda + 1/lambda = tr(H_i H_j) / (q_i q_j) - 1 = (t - 2 q) / q
    with t = 4 (l_i . C_j)(l_j . C_i) and q = q_i q_j > 0.  Then
    tau^2 - 4 = t (t - 4 q) / q^2, and lambda = (t - 2 q + s) / (2 q) for
    s^2 = t (t - 4 q), which is rational exactly when that is a square.
    """
    qi, (li0, li1, li2), (ci0, ci1, ci2) = hi
    qj, (lj0, lj1, lj2), (cj0, cj1, cj2) = hj
    t = 4 * (li0 * cj0 + li1 * cj1 + li2 * cj2) * (lj0 * ci0 + lj1 * ci1 + lj2 * ci2)
    q = qi * qj
    disc = t * (t - 4 * q)  # positive, as distinct points give lambda > 1
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    a, b = t - 2 * q + s, 2 * q
    g = math.gcd(a, b)
    return a // g, b // g


def _translation_ratio(config: Config) -> Optional[Tuple[int, int]]:
    """The primitive (k, m) of the cycle (-k, k+m, -m) in stored order, or
    (0, 0) when the configuration has no cycle, decided in closed form; or
    None when the closed form does not apply.

    When the three points are collinear and the middle one is strictly
    between the others (what `validate_config` checks, on the same
    triples), the words (2,1) and (3,2) translate along their line in one
    direction, by the factors lambda_12 and lambda_23 of
    `_translation_factor`.  So (2,1)^k (2,3)^m is the identity, and fixes
    every off-line point, exactly when lambda_12^k = lambda_23^m.  When
    both factors are rational ("square D": the line meets the circle in
    rational points), that holds exactly when the numerators and the
    denominators of the two lowest-terms fractions satisfy it separately,
    which two Euclids decide (`_power_ratio`).  A Config built without
    `validate_config` can break the premise; the closed form then does not
    apply, and neither does it to irrational factors.
    """
    h1, h2, h3 = config.homologies
    if not collinear_between(h1[2], h2[2], h3[2]):
        return None
    f12 = _translation_factor(h1, h2)
    f23 = _translation_factor(h2, h3)
    if f12 is None or f23 is None:
        return None
    (a12, b12), (a23, b23) = f12, f23
    ratio = _power_ratio(a12, a23)  # lambda > 1, so a >= 2
    if (b12, b23) != (1, 1) and _power_ratio(b12, b23) != ratio:
        return 0, 0
    return ratio


def _chain_ratio(config: Config, v2_max: int) -> Tuple[int, int]:
    """The first (k, m) with p.(2,1)^k == p.(3,2)^m at the off-line test
    point p, for k, m < v2_max, divided by its gcd; (0, 0) when there is
    none.

    Both chains grow one level at a time and are joined on the exact
    points (canonical integer triples), so both stored orders are covered
    at once.  The hits are the multiples of the primitive cycle, so the
    first one found, divided by its gcd, is the primitive.
    """
    h1, h2, h3 = config.homologies
    pk = qm = config.test_triple
    p_level: dict = {}  # p.(2,1)^k -> k, on integer triples
    q_level: dict = {}  # p.(3,2)^m -> m
    for n in range(1, v2_max):
        pk = apply_homology(h1, apply_homology(h2, pk))
        qm = apply_homology(h2, apply_homology(h3, qm))
        p_level[pk] = n
        q_level[qm] = n
        if pk in q_level:
            k, m = n, q_level[pk]
        elif qm in p_level:
            k, m = p_level[qm], n
        else:
            continue
        g = math.gcd(k, m)
        return k // g, m // g
    return 0, 0


def _search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """First (canonical, stored-order) cycle pair up to the bound, or None.

    A stored vector (-k, k+m, -m) has the word (2,1)^k (2,3)^m, which fixes
    the test point p exactly when p.(2,1)^k == p.(3,2)^m.  For square D the
    primitive (k, m) is decided in closed form, with no bound and no
    reversion step (`_translation_ratio`).  Otherwise the two point chains
    are searched up to B - 1 levels (`_chain_ratio`), since k, m >= 1 and
    k + m <= B.  Either way, when the primitive's middle entry k + m
    exceeds the bound, so does every other cycle's.
    """
    if len(config.points) != 3:
        raise ConfigValidationError("count", "cycle search needs three points")
    if v2_max < 1:
        raise ValueError(f"v2_max must be >= 1, got {v2_max}")
    # the chain search's inputs, in its order, so that a Config built
    # without validation fails alike on either path
    config.homologies, config.test_triple
    k, m = _translation_ratio(config) or _chain_ratio(config, v2_max)
    if k == 0 or k + m > v2_max:
        return None
    stored = (-k, k + m, -m)
    return (stored if k >= m else pi13(stored)), stored


def classify(config: Config, v2_max: int) -> ClassLabel:
    """Class label of the configuration: the canonical primitive cycle with
    an exactly verified witness, or the bounded no-cycle result."""
    found = _search_cycle(config, v2_max)
    if found is None:
        return NoCycleUpTo(v2_max)
    canonical, stored = found
    witness_word = word_from_signature(stored)
    witness_point = offline_test_point(config)
    label = CycleLabel(canonical, witness_word, witness_point)
    if not verify_label(config, label):
        raise SignChangeError(f"witness for {canonical} failed re-verification")
    return label


def verify_label(config: Config, label: ClassLabel) -> bool:
    """Re-check everything a label claims; True also for bounded no-cycle
    labels (they claim only the search result)."""
    if isinstance(label, NoCycleUpTo):
        return label.v2_bound >= 1
    v = label.vector
    shape_ok = (
        is_balanced(v)
        and v[0] * v[1] * v[2] != 0
        and abs(v[1]) == abs(v[0]) + abs(v[2])
        and v[1] >= 1
        and v[0] <= v[2] <= -1
        and gcd_vec(v) == 1
    )
    if not shape_ok:
        return False
    stored = signature_of(label.witness_word)
    if stored not in (v, pi13(v)):
        return False
    return act(config, label.witness_point, label.witness_word) == label.witness_point


def format_label(label: ClassLabel) -> str:
    if isinstance(label, CycleLabel):
        return "cycle {} {} {}".format(*label.vector)
    return f"no-cycle-upto {label.v2_bound}"


def realize_by_closing(v: Signature, c1x: Fraction, c2x: Fraction,
                       p0: Point) -> Config:
    """Construct an exact configuration with cycle v by closing the chord.

    For v = (v1, v2, -1) the word (2,1)^|v1| (2,3) uses the third point
    once, as its final reversion.  Apply every reversion but that last one
    to the triple of p0, giving q; the final reversion must send q back to
    p0, so the third point is forced: the meet of `line_through(q, p0)`
    with the axis (0, 1, 0).  Reversions are hyperbolic half-turns, so q
    is on the other half circle (the chord meets the axis inside the
    disk) and (2, 3) undoes the translation (2,1)^|v1|, so the third point
    lies beyond the second: valid input never fails, and SignChangeError
    marks a bug."""
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v) or v[2] != -1 or v[0] > -1:
        raise RealizationError(
            f"{v} must be balanced with v3 = -1 and v1 <= -1")
    if not (-1 < c1x < c2x < 1):
        raise RealizationError(f"need -1 < c1x < c2x < 1, got {c1x}, {c2x}")
    matrix = conic(UNIT_CIRCLE)
    x = homogeneous(p0)
    if quadric(matrix, x) != 0:
        raise RealizationError(f"{p0} is not on the unit circle")
    if p0.y == 0:
        raise RealizationError("p0 must be off the x-axis")
    c1 = Point(Fraction(c1x), Fraction(0))
    c2 = Point(Fraction(c2x), Fraction(0))
    steps = (homology(UNIT_CIRCLE, c1, matrix), homology(UNIT_CIRCLE, c2, matrix))
    word = canonical_word(v)
    q = x
    for letter in word.letters[:-1]:
        q = apply_homology(steps[letter - 1], q)
    a, _, c = line_through(q, x)  # meets the axis at (-c, 0, a)
    if a == 0:
        raise SignChangeError(f"the closing chord for {v} does not cross the axis")
    c3 = Point(Fraction(-c, a), Fraction(0))
    config = validate_config(UNIT_CIRCLE, (c1, c2, c3))
    if act(config, p0, word) != p0:
        raise SignChangeError(f"the closed word of {v} does not fix {p0}")
    return config


def search_closing_config(v: Signature) -> Config:
    """The closing construction with c1 = (-1/2, 0), c2 = (0, 0) and
    p0 = (0, 1), which succeeds for every valid v (`realize_by_closing`)."""
    return realize_by_closing(v, Fraction(-1, 2), Fraction(0), Point.of(0, 1))


def _residual_pair(v: Signature, n: int, d: int) -> Tuple[int, int]:
    """The residual polynomial pair of v = (-k, k+m, -m) at the middle
    abscissa n/d, d > 0: alpha = 9^m (d - n)^(2(k+m)) and
    beta = 9^k (d + n)^(2(k+m)), whose (alpha - beta)/(alpha + beta) is
    the residual.

    Every interior point is on the axis y = 0, so its reversion swaps the
    axis ends e+ = (1, 0, 1) and e- = (-1, 0, 1) with two scalings, and
    the Y of a triple stays out of X and W.  Unreduced, the homology of
    (n/d, 0) is H(x) = q x - 2 (l . x) C with C = (n, 0, d),
    l = (n, 0, -d) and q = n^2 - d^2; it sends e+ to (d - n)^2 e- and e-
    to (d + n)^2 e+.  The homologies of (-1/2, 0) and (1/2, 0) send e+ to
    s e- and e- to t e+ with (s, t) = (9, 1) and (1, 9).  Twice the triple
    of (0, 1) is e+ + e- plus a Y part, so the chain starts at
    (X, W) = alpha e+ + beta e- with alpha = beta = 1, and each letter
    pair (2, x) scales alpha by t_x (d - n)^2 and beta by s_x (d + n)^2.
    The canonical word (2,1)^k (2,3)^m ends at the pair above, with
    X = alpha - beta and W = alpha + beta.  Equivalently,
    alpha/beta = (lambda_23^m / lambda_12^k)^2 for the factors
    lambda_12 = 3w and lambda_23 = 3/w, w = (d + n)/(d - n), of
    `_translation_factor`, so the residual vanishes exactly at a cycle.

    The chain that `apply_homology` runs differs from this one only by
    positive factors: it divides each step by a positive gcd, and its
    middle homology is H divided by a positive number.  So its X/W is
    (alpha - beta)/(alpha + beta) exactly, and as its W is positive, the
    residual has the sign of alpha - beta.
    """
    k, m = -v[0], -v[2]
    e = 2 * (k + m)
    return 9 ** m * (d - n) ** e, 9 ** k * (d + n) ** e


def _residual_sign(v: Signature, n: int, d: int) -> int:
    """The sign of the residual of v at n/d, d > 0 (`_residual_pair`)."""
    alpha, beta = _residual_pair(v, n, d)
    return (alpha > beta) - (alpha < beta)


def middle_point_residual(v: Signature, a: Fraction) -> Fraction:
    """First coordinate of the canonical word of v acting on (0, 1), with
    interior points (-1/2, 0), (a, 0), (1/2, 0); zero exactly when the
    configuration realizes v.

    Evaluates the residual polynomial pair of `_residual_pair` at the
    numerator and denominator of a.  Raises ValueError unless v is a
    canonical 3-vector, and NotInterior unless -1 < a < 1.
    """
    canonical_word(tuple(v))  # its checks and messages
    a = Fraction(a)
    n, d = a.numerator, a.denominator
    if n * n >= d * d:
        raise NotInterior(
            f"reversion center {Point(a, Fraction(0))} is not interior to {UNIT_CIRCLE}")
    alpha, beta = _residual_pair(v, n, d)
    return Fraction(alpha - beta, alpha + beta)


def realize_by_bisection(v: Signature, width_bound: Fraction) -> RealizationInterval:
    """Isolate the middle-point abscissa realizing v between (-1/2, 0) and
    (1/2, 0) by exact bisection.

    The residual is positive just right of -1/2 and negative just left of
    1/2 (the configuration degenerates at the exact endpoints, so they are
    shifted inward by 2^-BISECTION_SHIFT_BITS, halving the shift if the
    sign pattern is not yet visible).  There is at most one root in the
    family, so the certified enclosure is unique.  An exact root hit ends
    with a recentred interval whose endpoint signs are still verified.

    The residual at each point is signed by one evaluation of the
    polynomial pair of `_residual_pair`.  The endpoints are integer
    numerators over one power of two 2^e, and a halving doubles both and
    takes their sum as the midpoint over 2^(e+1).
    """
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v):
        raise RealizationError(f"{v} must be a balanced 3-vector")
    if v[1] < 0:
        v = (-v[0], -v[1], -v[2])
    if v[1] < 1 or v[0] > -1 or v[2] > -1:
        raise RealizationError(
            f"{v} must satisfy v2 >= 1 and v1, v3 <= -1 (up to negation)")
    width_bound = Fraction(width_bound)
    if width_bound <= 0:
        raise RealizationError(f"width bound must be positive, got {width_bound}")
    for e in range(BISECTION_SHIFT_BITS, BISECTION_SHIFT_BITS + 24):
        lo, hi = 1 - (1 << (e - 1)), (1 << (e - 1)) - 1  # -1/2 + 2^-e, 1/2 - 2^-e
        if _residual_sign(v, lo, 1 << e) > 0 and _residual_sign(v, hi, 1 << e) < 0:
            break
    else:
        raise SignChangeError(
            f"no certified sign change near the endpoints for {v}")
    p, q = width_bound.numerator, width_bound.denominator
    while (hi - lo) * q > p << e:
        mid, lo, hi, e = lo + hi, 2 * lo, 2 * hi, e + 1
        fmid = _residual_sign(v, mid, 1 << e)
        if fmid > 0:
            lo = mid
        elif fmid < 0:
            hi = mid
        else:
            root = Fraction(mid, 1 << e)
            a_lo, a_hi = root - width_bound / 2, root + width_bound / 2
            if _residual_sign(v, a_lo.numerator, a_lo.denominator) <= 0 \
                    or _residual_sign(v, a_hi.numerator, a_hi.denominator) >= 0:
                raise SignChangeError(
                    f"endpoint signs failed around the exact root {root} for {v}")
            return RealizationInterval(v, a_lo, a_hi)
    return RealizationInterval(v, Fraction(lo, 1 << e), Fraction(hi, 1 << e))


def avoid_all_cycles(seed: int) -> Config:
    """A configuration with no nonzero cycle at any bound: the points
    (-1/2, 0), (0, 0) and ((2^j - 1)/(2^j + 1), 0) of the unit circle, with
    j = |seed| + 1, so that different |seed| give different third points.

    On a diameter, write w = (1 + x)/(1 - x) for the point (x, 0); the
    three points have w = 1/3, 1 and 2^j.  In the Beltrami-Klein model the
    point (x, 0) lies at signed hyperbolic distance (ln w)/2 from the
    center, and the product of the half-turns about two points translates
    by twice the distance between them, so the factors of
    `_translation_ratio` are lambda_12 = w2/w1 = 3 and
    lambda_23 = w3/w2 = 2^j.  The stored vector (-k, k+m, -m) is a cycle
    exactly when lambda_12^k = lambda_23^m, that is 3^k = 2^(jm), which no
    k, m >= 1 solve: the left side is odd and the right side even.
    """
    p = 1 << (abs(seed) + 1)
    return validate_config(
        UNIT_CIRCLE,
        (Point.of(Fraction(-1, 2), 0), Point.of(0, 0), Point.of(Fraction(p - 1, p + 1), 0)))
