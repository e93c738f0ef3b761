"""Classification of a circle with three collinear interior points.

The cycle vectors of a configuration form a cyclic subgroup of Z^3: either
only the zero vector (one single shared class for all such configurations),
or all integer multiples of one primitive balanced vector v with v2 >= 1,
v1 <= v3 <= -1 and gcd 1, which is then a complete class label.  The
primitive, stored as (-k, k+m, -m), is decided exactly with no
reversion step by `action._cycle_ratio`, which `action.is_cycle` reads
too.  The label stays bounded: `NoCycleUpTo(B)` when there is no cycle
or its middle entry exceeds B.  Every walk of a cycle is the checked
chain of its witness word from the configuration's off-line test point
(`_closed_chain`).

The diameter fact: write w = (1 + x)/(1 - x) for the point (x, 0) of
the unit circle.  In the Beltrami-Klein model that point lies at signed
hyperbolic distance (ln w)/2 from the center, and the product of the
half-turns about two points translates by twice the distance between
them, so on the x-axis lambda_ij = w_j / w_i.  Three constructors
rest on it, each in closed form.  `realize_by_closing` solves
(w2/w1)^k = w3/w2 for the third point of the cycle (-k, k+1, -1), and
`avoid_all_cycles` picks w = (1/3, 1, 2^j), where no cycle can close;
both build their points from the weights (`_diameter_config`).
`realize_by_bisection` isolates the middle point of
v = (-k, k+m, -m) between -1/2 and 1/2 by signing, at n/d,
9^m (d - n)^(2(k+m)) against 9^k (d + n)^(2(k+m)), which are
lambda_23^(2m) and lambda_12^(2k) times one positive integer
(`_residual_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .action import (
    Config,
    ConfigValidationError,
    _cycle_ratio,
    default_base_point,
    offline_test_point,
    walk,
)
from .geometry import (
    Circle,
    NotInterior,
    Point,
    UNIT_CIRCLE,
    format_triple,
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
    "format_label",
    "realize_by_closing",
    "search_closing_config",
    "realize_by_bisection",
    "middle_point_residual",
    "avoid_all_cycles",
]

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


def _search_cycle(config: Config, v2_max: int) -> Optional[Tuple[tuple, tuple]]:
    """First (canonical, stored-order) cycle pair up to the bound, or None.

    A stored vector (-k, k+m, -m) has the word (2,1)^k (2,3)^m.  The
    primitive (k, m) is decided exactly, with no reversion step
    (`action._cycle_ratio`); the bound only stops the merge of the
    integral case and the numerator check of the others.  When the
    primitive's middle entry k + m exceeds the bound, so does every other
    cycle's.
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


def _witness_word(v: Signature) -> Word:
    """The word that walks the cycle v, a balanced 3-vector in stored order
    with v1 v3 > 0; every walk of a cycle in this package walks it.

    For v2 > 0, with k = -v1 and m = -v3, it is the pairs (2,1) and (2,3),
    k and m times, interleaved as Bresenham draws a line of slope m/k: from
    d = 0, (2,1) when d <= 0, adding m to d, else (2,3), subtracting k.  As
    d stays in (-k, m], the counts are k and m: the word has the signature
    v of (2,1)^k (2,3)^m, and as the two pairs translate along one line and
    commute, it acts the same.  But where the walk of (2,1)^k grows to
    about k log2 lambda_12 bits, this one translates by a factor between
    1/lambda_23 and lambda_12 after every pair, so its triples stay near the
    homologies' size.  For v2 < 0 it is the reversal of the word of -v,
    whose signature is v as the word has even length."""
    if v[1] < 0:
        return _witness_word((-v[0], -v[1], -v[2])).inverse()
    k, m = -v[0], -v[2]
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


def _closed_chain(config: Config, v: Signature) -> list:
    """The test point's triple and its images under each letter of the
    witness word of the cycle v in stored order (`_witness_word`);
    SignChangeError, a bug, unless the word's signature is v and the chain
    ends at the test point."""
    word = _witness_word(v)
    if signature_of(word) != v:
        raise SignChangeError(f"the witness word of {v} has signature {signature_of(word)}")
    start = config.test_triple
    chain = [start, *walk(config.homologies, start, word.letters)]
    if chain[-1] != start:
        raise SignChangeError(f"the chain of the witness word of {v} does not close")
    return chain


def classify(config: Config, v2_max: int) -> ClassLabel:
    """Class label of the configuration: the canonical primitive cycle with
    a witness whose chain from the cached test point closes exactly
    (`_closed_chain`), or the bounded no-cycle result."""
    found = _search_cycle(config, v2_max)
    if found is None:
        return NoCycleUpTo(v2_max)
    canonical, stored = found
    if gcd_vec(canonical) != 1:
        raise SignChangeError(f"the cycle {canonical} is not primitive")
    _closed_chain(config, stored)
    return CycleLabel(canonical, _witness_word(stored), offline_test_point(config))


def format_label(label: ClassLabel) -> str:
    if isinstance(label, CycleLabel):
        return "cycle {} {} {}".format(*label.vector)
    return f"no-cycle-upto {label.v2_bound}"


def _diameter_config(weights) -> Config:
    """The unit circle with the points x = (w - 1)/(w + 1) on its x-axis,
    in the order of the positive weights w (the diameter fact)."""
    return validate_config(UNIT_CIRCLE, tuple(Point.of((w - 1) / (w + 1), 0)
                                              for w in map(Fraction, weights)))


def realize_by_closing(v: Signature, c1x: Fraction, c2x: Fraction) -> Config:
    """Construct an exact configuration on the x-axis of the unit circle
    with cycle v = (-k, k+1, -1) and first points c1x < c2x.

    By the diameter fact (module docstring) the third point has the weight
    w3 = w2^(k+1)/w1^k for w = (1 + c)/(1 - c).  It is positive, so the point
    is inside, and w3/w2 = (w2/w1)^k > 1, so it lies beyond the second one:
    valid input never fails.  The witness chain from the test point must
    then close (`_closed_chain`); SignChangeError marks a bug."""
    v = tuple(v)
    if len(v) != 3 or not is_balanced(v) or v[2] != -1 or v[0] > -1:
        raise RealizationError(f"{v} must be balanced with v3 = -1 and v1 <= -1")
    if not (-1 < c1x < c2x < 1):
        raise RealizationError(f"need -1 < c1x < c2x < 1, got {c1x}, {c2x}")
    k = -v[0]
    w1, w2 = ((1 + Fraction(c)) / (1 - Fraction(c)) for c in (c1x, c2x))
    config = _diameter_config((w1, w2, w2 ** (k + 1) / w1 ** k))
    _closed_chain(config, v)
    return config


def search_closing_config(v: Signature) -> Config:
    """The closing construction with c1 = (-1/2, 0) and c2 = (0, 0), which
    succeeds for every valid v (`realize_by_closing`)."""
    return realize_by_closing(v, Fraction(-1, 2), Fraction(0))


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

    The bracket is the exact ends.  With v = (-k, k+m, -m), the residual
    pair of `_residual_pair` has alpha/beta = 3^(4m) > 1 at -1/2 and
    3^(-4k) < 1 at 1/2, so the residual is positive at -1/2 and negative
    at 1/2 for every k, m >= 1.  There is at most one root in the family,
    so the certified enclosure is unique: after ceil(log2(1/width))
    halvings it is the aligned dyadic cell of [-1/2, 1/2] that holds the
    root.  An exact root hit (the root is 0, the first midpoint, exactly
    when k = m) ends with a recentred interval whose endpoint signs are
    still verified.

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
    if v[0] > -1 or v[2] > -1:
        raise RealizationError(f"{v} must satisfy v2 >= 1 and v1, v3 <= -1 (up to negation)")
    width_bound = Fraction(width_bound)
    if width_bound <= 0:
        raise RealizationError(f"width bound must be positive, got {width_bound}")
    lo, hi, e = -1, 1, 1  # -1/2 and 1/2 over 2^e
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
    """A configuration with no nonzero cycle at any bound: the points of
    the weights w = 1/3, 1 and 2^j (`_diameter_config`), which are
    (-1/2, 0), (0, 0) and ((2^j - 1)/(2^j + 1), 0) of the unit circle, with
    j = |seed| + 1, so that different |seed| give different third points.

    By the diameter fact (module docstring) lambda_12 = 3 and
    lambda_23 = 2^j.  The stored vector (-k, k+m, -m) is a cycle exactly
    when lambda_12^k = lambda_23^m (`action._cycle_ratio`), that is
    3^k = 2^(jm), which no k, m >= 1 solve: the left side is odd and the
    right side even.  The decision sees this on the denominators 3 and 2^j
    of tau_12 = 10/3 and tau_23 = (4^j + 1)/2^j.  A |seed| above 4096
    raises ValueError before 2^j is built."""
    if abs(seed) > 4096:
        raise ValueError(f"|seed| {abs(seed)} exceeds the budget of 4096")
    return _diameter_config((Fraction(1, 3), 1, 1 << (abs(seed) + 1)))
