"""Classification of a circle with three collinear interior points.

The cycle vectors of a configuration form a cyclic subgroup of Z^3: either
only the zero vector (one single shared class for all such configurations),
or all integer multiples of one primitive balanced vector v with v2 >= 1,
v1 <= v3 <= -1 and gcd 1, which is then a complete class label.  The
stored vector (-k, k+m, -m) is a cycle exactly when the words (2,1) and
(3,2), which translate along the line of the points by factors lambda_12
and lambda_23 in the Beltrami-Klein model, satisfy
lambda_12^k = lambda_23^m.  That equation is decided exactly, with no
reversion step, from tau = lambda + 1/lambda = p/q in lowest terms, which
comes from the traces of the homology products: the denominator of
V_k = lambda^k + lambda^-k is exactly q^k, so both q > 1 leave one
candidate (k, m) to check, one q = 1 leaves none, and both q = 1 make
V_k two integer sequences to merge.  The decision rests on the points
being collinear with the middle one strictly between the others, which
every `Config` is checked for when it is built.  The label stays
bounded: `NoCycleUpTo(B)` when there is no cycle or its middle entry
exceeds B.

The diameter fact: write w = (1 + x)/(1 - x) for the point (x, 0) of
the unit circle.  In the Beltrami-Klein model that point lies at signed
hyperbolic distance (ln w)/2 from the center, and the product of the
half-turns about two points translates by twice the distance between
them, so on the x-axis lambda_ij = w_j / w_i.  Three constructors
rest on it, each in closed form.  `realize_by_closing` solves
(w2/w1)^k = w3/w2 for the third point of the cycle (-k, k+1, -1): with
c1x = n1/d1 and c2x = n2/d2, x3 = (A - B)/(A + B) for
A = (d2 + n2)^(k+1) (d1 - n1)^k and B = (d2 - n2)^(k+1) (d1 + n1)^k.
`realize_by_bisection` isolates the middle point of
v = (-k, k+m, -m) between -1/2 and 1/2 by signing, at n/d,
9^m (d - n)^(2(k+m)) against 9^k (d + n)^(2(k+m)), which are
lambda_23^(2m) and lambda_12^(2k) times one positive integer
(`_residual_pair`).  `avoid_all_cycles` picks w = (1/3, 1, 2^j), where
no cycle can close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .action import (
    Config,
    ConfigValidationError,
    _lucas,
    _powers_agree,
    _tau,
    act,
    default_base_point,
    offline_test_point,
)
from .geometry import (
    Circle,
    NotInterior,
    Point,
    UNIT_CIRCLE,
    conic,
    format_point,
    format_triple,
    homogeneous,
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


def validate_config(circle: Circle, points, base_point: Optional[Point] = None) -> Config:
    """The checked configuration of the circle, the interior points and the
    base point (the default one when None); `Config` runs the checks and
    raises ConfigValidationError for the first that fails."""
    return Config(circle, points, base_point)


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


def _unit_ratio(p12: int, p23: int, v2_max: int) -> Tuple[int, int]:
    """The first (i, j) with V_i(p12) = V_j(p23), i + j <= v2_max, for
    integral tau = p12 and p23; (0, 0) when there is none.

    Both V sequences increase with the index, as lambda > 1, so a merge
    that advances the smaller one meets every equal pair in order, and
    the first one is the primitive cycle: equal pairs are its multiples.
    """
    i = j = 1
    a, a_prev, b, b_prev = p12, 2, p23, 2
    while i + j <= v2_max:
        if a < b:
            a, a_prev, i = p12 * a - a_prev, a, i + 1
        elif b < a:
            b, b_prev, j = p23 * b - b_prev, b, j + 1
        else:
            return i, j
    return 0, 0


def _cycle_ratio(config: Config, v2_max: int) -> Tuple[int, int]:
    """The primitive (k, m) of the cycle (-k, k+m, -m) in stored order, or
    (0, 0) when the configuration has no cycle with k + m <= v2_max.

    The three points are collinear with the middle one strictly between
    the others (`Config` checks it), so the words (2,1) and (3,2)
    translate along their line in one direction, by the factors lambda_12
    and lambda_23.  So (2,1)^k (2,3)^m is the identity, and fixes every
    off-line point, exactly when lambda_12^k = lambda_23^m, that is
    V_k(tau_12) = V_m(tau_23), since x + 1/x is increasing for x > 1
    (`_powers_agree`).  The denominators q_12^k and q_23^m must then be
    equal.  When both exceed 1, their
    primitive solution (`_power_ratio`) is the only candidate, as the
    cycles are multiples of one primitive and so are the solutions, and
    one exact check of the numerators decides it.  When only one is 1
    there is no solution.  When both are 1, both V sequences are integers
    and a merge finds the first equal pair (`_unit_ratio`).
    """
    h1, h2, h3 = config.homologies
    (p12, q12), (p23, q23) = _tau(h1, h2), _tau(h2, h3)
    if q12 == q23 == 1:
        return _unit_ratio(p12, p23, v2_max)
    k, m = _power_ratio(q12, q23)
    if k and k + m <= v2_max and _powers_agree(p12, q12, p23, q23, k, m):
        return k, m
    return 0, 0


def _search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """First (canonical, stored-order) cycle pair up to the bound, or None.

    A stored vector (-k, k+m, -m) has the word (2,1)^k (2,3)^m.  The
    primitive (k, m) is decided exactly, with no reversion step
    (`_cycle_ratio`); the bound only stops the merge of the integral case
    and the numerator check of the others.  When the primitive's middle
    entry k + m exceeds the bound, so does every other cycle's.
    """
    if len(config.points) != 3:
        raise ConfigValidationError("count", "cycle search needs three points")
    if v2_max < 1:
        raise ValueError(f"v2_max must be >= 1, got {v2_max}")
    k, m = _cycle_ratio(config, v2_max)
    if k == 0:
        return None
    stored = (-k, k + m, -m)
    return (stored if k >= m else pi13(stored)), stored


def _witness_word(k: int, m: int) -> Word:
    """The pairs (2,1) and (2,3), k and m times, interleaved as Bresenham
    draws a line of slope m/k: from d = 0, (2,1) when d <= 0, adding m to
    d, else (2,3), subtracting k.  As d stays in (-k, m], the counts are k
    and m: the word has the signature (-k, k+m, -m) of (2,1)^k (2,3)^m, and
    as the two pairs translate along one line and commute, it acts the same.
    But where the walk of (2,1)^k grows to about k log2 lambda_12 bits, this
    one translates by a factor between 1/lambda_23 and lambda_12 after every
    pair, so its triples stay near the homologies' size."""
    letters = []
    d = 0
    for _ in range(k + m):
        if d <= 0:
            letters += (2, 1)
            d += m
        else:
            letters += (2, 3)
            d -= k
    return Word(tuple(letters), 3)


def classify(config: Config, v2_max: int) -> ClassLabel:
    """Class label of the configuration: the canonical primitive cycle with
    an exactly verified witness, or the bounded no-cycle result.  The
    witness word is `_witness_word` of the stored cycle, walked from the
    cached test point."""
    found = _search_cycle(config, v2_max)
    if found is None:
        return NoCycleUpTo(v2_max)
    canonical, stored = found
    witness_word = _witness_word(-stored[0], -stored[2])
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
    if not (len(v) == 3 and is_balanced(v) and v[1] >= 1 and v[0] <= v[2] <= -1
            and gcd_vec(v) == 1):
        return False
    if signature_of(label.witness_word) not in (v, pi13(v)):
        return False
    return act(config, label.witness_point, label.witness_word) == label.witness_point


def format_label(label: ClassLabel) -> str:
    if isinstance(label, CycleLabel):
        return "cycle {} {} {}".format(*label.vector)
    return f"no-cycle-upto {label.v2_bound}"


def realize_by_closing(v: Signature, c1x: Fraction, c2x: Fraction,
                       p0: Point) -> Config:
    """Construct an exact configuration on the x-axis of the unit circle
    with cycle v = (-k, k+1, -1) and first points c1x < c2x.

    The third point is forced: x3 = (A - B)/(A + B) from the diameter fact
    (module docstring).  A and B are positive, so x3 is inside, and
    w3/w2 = (w2/w1)^k > 1, so it lies beyond the second point: valid input
    never fails.  The word must then fix the off-axis circle point p0
    exactly, and SignChangeError marks a bug."""
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v) or v[2] != -1 or v[0] > -1:
        raise RealizationError(
            f"{v} must be balanced with v3 = -1 and v1 <= -1")
    if not (-1 < c1x < c2x < 1):
        raise RealizationError(f"need -1 < c1x < c2x < 1, got {c1x}, {c2x}")
    if quadric(conic(UNIT_CIRCLE), homogeneous(p0)) != 0:
        raise RealizationError(f"point {format_point(p0)} is not on the unit circle")
    if p0.y == 0:
        raise RealizationError("p0 must be off the x-axis")
    c1x, c2x, k = Fraction(c1x), Fraction(c2x), -v[0]
    n1, d1, n2, d2 = c1x.numerator, c1x.denominator, c2x.numerator, c2x.denominator
    a = (d2 + n2) ** (k + 1) * (d1 - n1) ** k
    b = (d2 - n2) ** (k + 1) * (d1 + n1) ** k
    zero = Fraction(0)
    config = validate_config(
        UNIT_CIRCLE, (Point(c1x, zero), Point(c2x, zero), Point(Fraction(a - b, a + b), zero)))
    if act(config, p0, canonical_word(v)) != p0:
        raise SignChangeError(f"the closed word of {v} does not fix point {format_point(p0)}")
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
    X = alpha - beta and W = alpha + beta.  Equivalently, by the diameter
    fact (module docstring) with w = (1/3, (d + n)/(d - n), 3),
    alpha/beta = (lambda_23^m / lambda_12^k)^2, so the residual vanishes
    exactly at a cycle.

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
            f"reversion center {format_triple((n, 0, d))} is not inside the circle")
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

    The three points have w = 1/3, 1 and 2^j, so by the diameter fact
    (module docstring) lambda_12 = 3 and lambda_23 = 2^j.  The stored vector
    (-k, k+m, -m) is a cycle exactly when lambda_12^k = lambda_23^m, that
    is 3^k = 2^(jm), which no k, m >= 1 solve: the left side is odd and the
    right side even.  The cycle decision (`_cycle_ratio`) sees this on the
    denominators 3 and 2^j of tau_12 = 10/3 and tau_23 = (4^j + 1)/2^j.
    A |seed| above 4096 raises ValueError before 2^j is built.
    """
    if abs(seed) > 4096:
        raise ValueError(f"|seed| {abs(seed)} exceeds the budget of 4096")
    p = 1 << (abs(seed) + 1)
    return validate_config(
        UNIT_CIRCLE,
        (Point.of(Fraction(-1, 2), 0), Point.of(0, 0), Point.of(Fraction(p - 1, p + 1), 0)))
