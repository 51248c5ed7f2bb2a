"""Lattes data attached to a quadruple of branch points.

A quadruple of distinct points of P^1(Q) determines a double cover of the
line branched there, hence an elliptic curve with a degree-2 projection, and
the degree-4 map induced by doubling.  This module computes the exact
ultrametric equilibrium data (the segment cut out by the four points, its
Lebesgue measure and the local discrepancies against it), cross-ratios and
Legendre normalization, the Legendre map itself, and 2-power torsion images
over C by iterated preimages.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy_ua import SegmentMeasure, segment_measure, segment_potential
from .errors import (
    BadRadii,
    BranchPointCenter,
    DegenerateQuadruple,
    LevelTooLarge,
    NonFiniteResult,
    ResidueCharTwo,
)
from .places import (
    INFINITY,
    P1Point,
    Place,
    as_complex,
    format_p1_point,
    padic_valuation,
    parse_p1_point,
    parse_rational,
)
from .tree import Segment, TreePoint, median, points_equal, segment_between, type1

TORSION_LEVEL_CAP = 5


@dataclass(frozen=True)
class Quadruple:
    """Four pairwise distinct points of P^1(Q)."""

    points: tuple[P1Point, P1Point, P1Point, P1Point]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) != 4:
            raise DegenerateQuadruple("a quadruple has four points")
        for i in range(4):
            for j in range(i + 1, 4):
                if pts[i] == pts[j]:
                    raise DegenerateQuadruple(f"points {i} and {j} of {self} coincide")

    def finite_points(self) -> list[Fraction]:
        return [p for p in self.points if p is not INFINITY]

    def __str__(self) -> str:
        return "(" + ", ".join(format_p1_point(p) for p in self.points) + ")"


def as_side(side) -> Quadruple:
    """A side of a Lattes system: a quadruple (a ``Quadruple``, tuple or list) or
    a Legendre parameter lam, which is the quadruple (infinity, 0, 1, lam), so
    lam in {0, 1, infinity} raises ``DegenerateQuadruple``."""
    if isinstance(side, Quadruple):
        return side
    if not isinstance(side, (tuple, list)):
        side = (INFINITY, 0, 1, side)
    return Quadruple(tuple(parse_p1_point(p) for p in side))


# ---------------------------------------------------------------------------
# cross-ratios and Moebius normalization


_ONE, _ZERO = Fraction(1), Fraction(0)  # shared: each Fraction(1) built costs about 0.4 us


def _homog(p: P1Point) -> tuple[Fraction, Fraction]:
    if p is INFINITY:
        return _ONE, _ZERO
    return p, _ONE


def _det(p: P1Point, q: P1Point) -> Fraction:
    (x1, y1), (x2, y2) = _homog(p), _homog(q)
    return x1 * y2 - x2 * y1


def cross_ratio(g1, g2, g3, g4) -> Fraction:
    """[g1, g2, g3, g4] = (g3-g1)(g4-g2) / ((g3-g2)(g4-g1)), with infinity handled:
    the Legendre parameter of ``normalize_to_legendre``.

    Exact; lands outside {0, 1} for distinct points.
    """
    return normalize_to_legendre((g1, g2, g3, g4))[0]


def cross_ratio_orbit(beta: Fraction) -> list[Fraction]:
    """The six values of the cross-ratio under permutations of the points."""
    return [
        beta,
        1 / beta,
        1 - beta,
        1 / (1 - beta),
        (beta - 1) / beta,
        beta / (beta - 1),
    ]


@dataclass(frozen=True)
class MobiusMap:
    """t -> (a t + b) / (c t + d) with exact rational coefficients, ad - bc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c == 0:
            raise DegenerateQuadruple("Moebius map needs a nonzero determinant")

    def apply(self, t: P1Point) -> P1Point:
        x, y = _homog(t)
        den = self.c * x + self.d * y
        if den == 0:
            return INFINITY
        return (self.a * x + self.b * y) / den

    @property
    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


def normalize_to_legendre(side) -> tuple[Fraction, MobiusMap]:
    """The Legendre parameter lam of a side (``as_side``) and the Moebius map M
    sending its points g1, g2, g3, g4 to infinity, 0, 1, lam; lam = M(g4) is
    the cross-ratio, and M is the identity for a parameter.

    In homogeneous coordinates g = (x, y), with k = det(g1, g3) and
    l = det(g2, g3), M = (k y2, -k x2, l y1, -l x1).
    """
    g1, g2, g3, g4 = as_side(side).points
    (x1, y1), (x2, y2) = _homog(g1), _homog(g2)
    k, l = _det(g1, g3), _det(g2, g3)
    m = MobiusMap(k * y2, -k * x2, l * y1, -l * x1)
    return m.apply(g4), m


def _normal_complex(x: Fraction) -> complex:
    """``as_complex(x)``; a nonzero x whose float is 0 or subnormal, which the
    float routes would read as 0 or with lost digits, raises ``NonFiniteResult``."""
    z = as_complex(x)
    if abs(z.real) < sys.float_info.min and x:
        size = x.numerator.bit_length() - x.denominator.bit_length()
        raise NonFiniteResult(f"a nonzero rational near 2^{size} lies below the normal float range")
    return z


def float_side(side) -> tuple[Fraction, complex, tuple[complex, ...], float]:
    """The exact lam of ``normalize_to_legendre``, then lam, the entries (a, b,
    c, d) of M and log|det M| as floats: a side as the float routes read it.

    Every cast is ``_normal_complex``.  log|det M| is log|a d - b c| of the
    float entries, or log|num| - log|den| of the exact determinant when the
    float one is not a normal finite float.
    """
    lam, mob = normalize_to_legendre(side)
    lamc = _normal_complex(lam)
    mat = a, b, c, d = tuple(map(_normal_complex, (mob.a, mob.b, mob.c, mob.d)))
    det = abs(a * d - b * c)
    if sys.float_info.min <= det < math.inf:
        return lam, lamc, mat, math.log(det)
    exact = mob.a * mob.d - mob.b * mob.c
    return lam, lamc, mat, math.log(abs(exact.numerator)) - math.log(exact.denominator)


def legendre_parameter(side) -> Fraction:
    """lam of a side whose normalizing map is the identity: a parameter or a
    quadruple (infinity, 0, 1, lam).  Any other quadruple raises ``TypeError``,
    as the Legendre map and its equilibrium measure need its Moebius pullback."""
    lam, mob = normalize_to_legendre(side)
    if not mob.is_identity:
        raise TypeError("a Legendre map takes lam; a quadruple needs its Moebius pullback")
    return lam


# ---------------------------------------------------------------------------
# the equilibrium segment at a finite place


def lattes_segment(gamma, v: Place) -> Segment:
    """The core of the tree spanned by a side's four branch points: Lebesgue
    measure on it is the equilibrium measure at an odd finite place.

    A tree with four leaves has at most two branch points, and the medians
    med(g0, g3, g1), med(g0, g3, g2) are both of them unless the split is
    {03|12}; then med(g0, g2, g1), med(g0, g2, g3) are.  When all four medians
    agree the core is a point.
    """
    if not v.is_finite or v.p == 2:
        raise ResidueCharTwo("the equilibrium segment needs an odd finite place")
    g0, g1, g2, g3 = (type1(p) for p in as_side(gamma).points)
    a, b = median(g0, g3, g1, v), median(g0, g3, g2, v)
    if points_equal(a, b, v):
        c, d = median(g0, g2, g1, v), median(g0, g2, g3, v)
        if not points_equal(c, d, v):
            a, b = c, d
    return segment_between(a, b, v)


def lattes_segment_length_units(gamma, v: Place) -> int:
    """ell(I_gamma) as an exact integer multiple of epsilon * log p."""
    beta, _ = normalize_to_legendre(gamma)
    return max(-padic_valuation(x, v.p) for x in cross_ratio_orbit(beta))


def equilibrium_measure_ua(gamma, v: Place) -> SegmentMeasure:
    """The equilibrium measure at an odd finite place: mu_{I_gamma}."""
    return segment_measure(lattes_segment(gamma, v))


def local_discrepancy(points, u: Fraction | int | str, r: float, v: Place) -> float:
    """I(P, u, r) = |(mu_P, delta_u - chi_{u,r})| for a side P at a finite place, p != 2.

    Evaluated exactly through the segment potential.  r = 0 gives 0 by the
    convention eta_{u,0} = u; u must avoid the branch points of P.
    """
    quad = as_side(points)
    mu = equilibrium_measure_ua(quad, v)  # the odd-place guard, before u and r
    u = parse_rational(u)
    if u in quad.finite_points():
        raise BranchPointCenter(f"u = {u} is a branch point of the quadruple")
    if r < 0:
        raise BadRadii("radius must be nonnegative")
    if r == 0:
        return 0.0
    z_disk = TreePoint(u, v.epsilon * math.log(r))
    z_point = type1(u)
    return abs(segment_potential(mu, z_disk, v) - segment_potential(mu, z_point, v))


# ---------------------------------------------------------------------------
# the Legendre map and 2-power torsion images


def legendre_lattes_eval(lam, t):
    """L(t) = (t^2 - lam)^2 / (4 t (t-1) (t-lam)); infinity is a value.

    Exact over rationals (P^1 points); floating for complex arguments.  ``lam``
    is read by ``legendre_parameter``.
    """
    lam_p = legendre_parameter(lam)
    if isinstance(t, complex):
        lam_p = _normal_complex(lam_p)
    else:
        t = parse_p1_point(t)
        if t is INFINITY:
            return INFINITY
    den = 4 * t * (t - 1) * (t - lam_p)
    if den == 0:
        return INFINITY
    return (t * t - lam_p) ** 2 / den


def lattes_preimages(w, lam: Fraction | complex) -> list[complex]:
    """The four preimages of w under the Legendre map, repeated by multiplicity.

    With r_i = sqrt(w - e_i) for e = (0, 1, lam), the halving formula
    u = w + r1 r2 + r1 r3 + r2 r3 gives one preimage per sign class of
    (r1, r2, r3); the class of largest modulus avoids cancellation.  The deck
    group t -> lam / t, (t - lam) / (t - 1), lam (t - 1) / (t - lam) gives the
    other three, so branch values come out as two coincident pairs.  w is
    finite, and the preimages are sorted by (real, imag).
    """
    lamc = complex(lam)
    wc = complex(w)
    r1, r2, r3 = (cmath.sqrt(wc - e) for e in (0, 1, lamc))
    p12, p13, p23 = r1 * r2, r1 * r3, r2 * r3
    u = max(
        (wc + p12 + p13 + p23, wc - p12 - p13 + p23, wc - p12 + p13 - p23, wc + p12 - p13 - p23),
        key=abs,
    )
    pts = [u, lamc / u, (u - lamc) / (u - 1), lamc * (u - 1) / (u - lamc)]
    pts.sort(key=lambda z: (z.real, z.imag))
    return pts


def lattes_preimages_array(w: np.ndarray, lam: complex) -> np.ndarray:
    """``lattes_preimages`` on n finite points: the 4n preimages, unsorted, those
    of w[i] at i, n + i, 2n + i and 3n + i; the same halving formula and deck group.
    """
    w = np.asarray(w, dtype=complex)
    n = len(w)
    r1, r2, r3 = np.sqrt(w), np.sqrt(w - 1.0), np.sqrt(w - lam)
    p12, p13, p23 = r1 * r2, r1 * r3, r2 * r3
    plus, minus = w + p12, w - p12
    # the four sign classes, each summed left to right as w +- p12 +- p13 +- p23
    signs = np.empty((4, n), dtype=complex)
    np.add(plus, p13, out=signs[0])
    signs[0] += p23
    np.subtract(minus, p13, out=signs[1])
    signs[1] += p23
    np.add(minus, p13, out=signs[2])
    signs[2] -= p23
    np.subtract(plus, p13, out=signs[3])
    signs[3] -= p23
    u = signs[np.abs(signs).argmax(axis=0), np.arange(n)]
    um1, uml = u - 1.0, u - lam
    out = np.empty(4 * n, dtype=complex)
    out[:n] = u
    np.divide(lam, u, out=out[n : 2 * n])
    np.divide(uml, um1, out=out[2 * n : 3 * n])
    # lam stays on the left: numpy's complex multiply can round lam * a and
    # a * lam differently
    np.divide(lam * um1, uml, out=out[3 * n :])
    return out


_WIDEN = 1.0 + 2.0**-50


class PointIndex:
    """Finite complex points, sorted once by real part and searched by a sweep.

    A search within r looks up, for each query point b, the window
    [fl(b.real - rs), fl(b.real + rs)] of sorted real parts with
    rs = fl(r (1 + 2^-50)), drops the candidates a with |fl(a.imag - b.imag)|
    > r (the max-norm box), and lets the euclidean test np.abs(a - b) <= r
    decide each pair.  Neither step loses a pair that test accepts.  np.abs
    of a complex difference is at least the modulus of each computed part, so
    the box keeps the pair, and for the exact real difference x,
    |fl(x)| <= r.  When fl(x) is normal this gives
    |x| <= r / (1 - 2^-53) <= r (1 + 2^-52) <= rs; when it is subnormal the
    subtraction was exact and |x| <= r <= rs.  Rounding is monotone, so
    b.real - rs <= a.real <= b.real + rs gives
    fl(b.real - rs) <= a.real <= fl(b.real + rs).  The naive window
    [fl(b.real - r), fl(b.real + r)] does lose such pairs, and so does one
    widened by two steps of ``np.nextafter``.  ``positive_tolerance`` keeps r
    below 2^1022, so rs is finite; a window end that overflows is an
    infinity, which still brackets every point.
    """

    def __init__(self, points):
        self.z = np.asarray(points, dtype=complex)
        self.order = np.argsort(self.z.real, kind="stable")
        self.sorted = self.z[self.order]
        self.real = np.ascontiguousarray(self.sorted.real)

    def _window(self, q: np.ndarray, lo: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (k, m) of a query q[k] and a sorted position m >= lo[k]
        inside its real-part window within r and with |imag difference| <= r."""
        hi = np.searchsorted(self.real, q.real + r * _WIDEN, side="right")
        counts = np.maximum(hi - lo, 0)
        k = np.repeat(np.arange(len(q)), counts)
        m = np.arange(counts.sum()) + np.repeat(lo + counts - np.cumsum(counts), counts)
        box = np.abs(self.sorted.imag[m] - q.imag[k]) <= r
        return k[box], m[box]

    def near(self, other: "PointIndex", r: float) -> np.ndarray:
        """The sorted indices, in the caller's order, of the points p with
        np.abs(q - p) <= r for some q of ``other``."""
        lo = np.searchsorted(self.real, other.z.real - r * _WIDEN, side="left")
        k, m = self._window(other.z, lo, r)
        return np.unique(self.order[m[np.abs(other.z[k] - self.sorted[m]) <= r]])

    def min_gap(self) -> float:
        """The minimum of np.abs(p - q) over pairs of distinct indices; inf below two points.

        The gap between any two points bounds it from above, so the smallest
        gap between neighbours in index order is a bound in any order, and
        the sweep within that bound over forward windows (later sorted
        positions only) finds every pair that attains the minimum; np.abs of
        a difference does not depend on its sign.  The bound is tight when the
        points are sorted by (real, imag), as ``torsion_image_arrays`` returns
        them.
        """
        n = len(self.z)
        if n < 2:
            return math.inf
        bound = np.abs(np.diff(self.z)).min()
        k, m = self._window(self.sorted, np.arange(1, n + 1), bound)
        return float(np.abs(self.sorted[m] - self.sorted[k]).min())


def positive_tolerance(tol: float) -> float:
    """``tol`` if 0 < tol < 2^1022, else ``ValueError``: the input contract of the
    match tolerance, and the cap that keeps the ``PointIndex`` sweep's
    widened radius finite."""
    if not 0.0 < tol < 2.0**1022:
        raise ValueError(f"a tolerance must lie in (0, 2^1022), not {tol!r}")
    return tol


def adjugate_lift(mat, w):
    """adj(M)(w, 1) = (d w - b, a - c w) for M = (a, b, c, d): a vector of C^2
    whose ratio is M^{-1}(w), found without dividing, so that no point is dropped."""
    a, b, c, d = mat
    return d * w - b, a - c * w


def torsion_image_arrays(side, level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Images of the 2^(level+1)-torsion: the branch points of a side and the
    pullbacks through its normalizing map M of L^{-level}(infinity).

    Returns the distinct finite points sorted by (real, imag), their
    multiplicities, and the multiplicity of infinity (0 when it is no image);
    the total is 4^(level+1).  The branch points have multiplicity 1; level 1
    adds the six critical points +-sqrt(lam), 1 +- sqrt(1 - lam),
    lam +- sqrt(lam^2 - lam), double roots of L = 0, 1, lam; each further
    level adds the four simple preimages of every point the level before
    added, with multiplicity 2.  L sends the critical values 0, 1, lam to
    infinity, so no point below a critical point is critical or repeated, and
    the points are built distinct with no merge.  The side is read by
    ``as_side``: its branch points are exactly its own, and every other point
    is pulled back through adj(M).

    The sort is numpy's stable sort of complex values, lexicographic with the
    float ``<``, so -0.0 and +0.0 tie and ties keep the build order.  A side
    whose float lam makes some image infinite or NaN (lam = 1 + 10^-16 rounds
    to the critical value 1) raises ``NonFiniteResult`` before the sort, and
    so does one with a rational beyond float range or, if nonzero, below the
    normal floats: lam, M, a branch point, 1 - lam or lam^2 - lam.
    """
    if level < 0 or level > TORSION_LEVEL_CAP:
        raise LevelTooLarge(f"level must lie in [0, {TORSION_LEVEL_CAP}]")
    quad = as_side(side)
    lam, lamc, mat, _ = float_side(quad)
    branch = [_normal_complex(p) for p in quad.finite_points()]
    added = [np.empty(0, dtype=complex)]
    if level:
        centres = np.array([0, 1, lamc])
        radii = np.sqrt(np.array([lamc, *map(_normal_complex, (1 - lam, lam * lam - lam))]))
        added.append(np.concatenate([centres + radii, centres - radii]))
    # a side whose float lam is a critical value divides by zero on the way
    # down; its non-finite points raise below, before the sort
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(1, level):
            added.append(lattes_preimages_array(added[-1], lamc))
        w = np.concatenate(added)
        below = len(w)
        x, y = adjugate_lift(mat, w)
        finite = y != 0  # a zero second coordinate is infinity
        w = x[finite] / y[finite]
    points = np.concatenate([branch, w])
    bad = len(points) - np.count_nonzero(np.isfinite(points))
    if bad:
        raise NonFiniteResult(f"{bad} torsion images of {quad} at level {level} are not finite")
    mults = np.repeat([1, 2], [len(branch), len(w)])
    order = np.argsort(points, kind="stable")
    return points[order], mults[order], 4 - len(branch) + 2 * (below - len(w))


def torsion_images(side, level: int) -> list[tuple[complex | object, int]]:
    """``torsion_image_arrays`` as one list of (point, multiplicity): the
    finite points as complex numbers, then infinity when it is an image."""
    points, mults, inf_mult = torsion_image_arrays(side, level)
    out = list(zip(points.tolist(), mults.tolist()))
    if inf_mult:
        out.append((INFINITY, inf_mult))
    return out
