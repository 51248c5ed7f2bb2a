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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .energy_ua import SegmentMeasure, segment_measure, segment_potential
from .errors import BadRadii, BranchPointCenter, DegenerateQuadruple, LevelTooLarge, ResidueCharTwo
from .places import INFINITY, P1Point, Place, format_p1_point, parse_p1_point, parse_rational
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
                if pts[i] == pts[j] or (pts[i] is INFINITY and pts[j] is INFINITY):
                    raise DegenerateQuadruple(f"points {i} and {j} coincide")

    def finite_points(self) -> list[Fraction]:
        return [p for p in self.points if p is not INFINITY]

    def __str__(self) -> str:
        return "(" + ", ".join(format_p1_point(p) for p in self.points) + ")"


def as_quadruple(points) -> Quadruple:
    if isinstance(points, Quadruple):
        return points
    return Quadruple(tuple(parse_p1_point(p) for p in points))


@dataclass(frozen=True)
class LegendreParam:
    lam: Fraction

    def __post_init__(self) -> None:
        if self.lam is INFINITY or self.lam in (0, 1):
            raise DegenerateQuadruple("Legendre parameter must avoid 0, 1 and infinity")


# ---------------------------------------------------------------------------
# cross-ratios and Moebius normalization


def _homog(p: P1Point) -> tuple[Fraction, Fraction]:
    if p is INFINITY:
        return Fraction(1), Fraction(0)
    return p, Fraction(1)


def _det(p: P1Point, q: P1Point) -> Fraction:
    (x1, y1), (x2, y2) = _homog(p), _homog(q)
    return x1 * y2 - x2 * y1


def cross_ratio(g1, g2, g3, g4) -> Fraction:
    """[g1, g2, g3, g4] = (g3-g1)(g4-g2) / ((g3-g2)(g4-g1)), with infinity handled.

    Exact; lands outside {0, 1} for distinct points.
    """
    pts = [parse_p1_point(g) for g in (g1, g2, g3, g4)]
    quad = as_quadruple(pts)  # validates distinctness
    g1, g2, g3, g4 = quad.points
    num = _det(g3, g1) * _det(g4, g2)
    den = _det(g3, g2) * _det(g4, g1)
    return num / den


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
        if t is INFINITY:
            return INFINITY if self.c == 0 else self.a / self.c
        den = self.c * t + self.d
        if den == 0:
            return INFINITY
        return (self.a * t + self.b) / den

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    @property
    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


def normalize_to_legendre(gamma) -> tuple[LegendreParam, MobiusMap]:
    """The Moebius map sending g1, g2, g3 to infinity, 0, 1 and the image of g4.

    The Legendre parameter is exactly the cross-ratio [g1, g2, g3, g4].
    """
    quad = as_quadruple(gamma)
    g1, g2, g3, g4 = quad.points
    # rows of the matrix for t -> (g3-g1)(t-g2) / ((g3-g2)(t-g1)), with the
    # usual degenerations when one of g1, g2, g3 is infinite
    if g1 is INFINITY:
        m = MobiusMap(Fraction(1), -g2, Fraction(0), g3 - g2)
    elif g2 is INFINITY:
        m = MobiusMap(Fraction(0), g3 - g1, Fraction(1), -g1)
    elif g3 is INFINITY:
        m = MobiusMap(Fraction(1), -g2, Fraction(1), -g1)
    else:
        k = g3 - g1
        l = g3 - g2
        m = MobiusMap(k, -k * g2, l, -l * g1)
    lam = m.apply(g4)
    assert lam == cross_ratio(*quad.points)
    return LegendreParam(lam), m


def legendre_form(gamma_or_lambda) -> tuple[LegendreParam, MobiusMap | None]:
    """A Legendre parameter, with the normalizing Moebius map when given a quadruple.

    A quadruple is a ``Quadruple``, tuple or list; anything else is read as the
    parameter itself (0, 1 and infinity raise ``DegenerateQuadruple``).
    """
    if isinstance(gamma_or_lambda, (Quadruple, tuple, list)):
        return normalize_to_legendre(gamma_or_lambda)
    if isinstance(gamma_or_lambda, LegendreParam):
        return gamma_or_lambda, None
    return LegendreParam(parse_p1_point(gamma_or_lambda)), None


# ---------------------------------------------------------------------------
# the equilibrium segment at a finite place


_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _path_intersection(e1a, e1b, e2a, e2b, v: Place) -> Segment | None:
    """[e1a, e1b] cut with [e2a, e2b]; None when the paths miss each other."""
    m1 = median(e1a, e1b, e2a, v)
    m2 = median(e1a, e1b, e2b, v)
    if points_equal(median(e2a, e2b, m1, v), m1, v) and points_equal(
        median(e2a, e2b, m2, v), m2, v
    ):
        return segment_between(m1, m2, v)
    return None


def lattes_segment(gamma, v: Place) -> Segment:
    """The common core of the two geodesics joining the four branch points.

    For any pairing of the quadruple into two pairs whose geodesics meet, the
    intersection is the same type-2/3 segment.  Defined at odd finite places
    (it describes the equilibrium measure only away from residue
    characteristic 2).
    """
    if not v.is_finite or v.p == 2:
        raise ResidueCharTwo("the equilibrium segment needs an odd finite place")
    quad = as_quadruple(gamma)
    leaves = [type1(p) for p in quad.points]
    found: Segment | None = None
    for (i, j), (k, l) in _PAIRINGS:
        seg = _path_intersection(leaves[i], leaves[j], leaves[k], leaves[l], v)
        if seg is None:
            continue
        if found is not None:
            same = (
                points_equal(found.a, seg.a, v) and points_equal(found.b, seg.b, v)
            ) or (points_equal(found.a, seg.b, v) and points_equal(found.b, seg.a, v))
            assert same, "admissible pairings disagree"
        found = seg
    assert found is not None, "some pairing always yields a nonempty intersection"
    return found


def lattes_segment_length_units(gamma, v: Place) -> int:
    """ell(I_gamma) as an exact integer multiple of epsilon * log p."""
    quad = as_quadruple(gamma)
    beta = cross_ratio(*quad.points)
    from .places import padic_valuation

    return max(-padic_valuation(x, v.p) for x in cross_ratio_orbit(beta))


def equilibrium_measure_ua(gamma, v: Place) -> SegmentMeasure:
    """The equilibrium measure at an odd finite place: mu_{I_gamma}."""
    if not v.is_finite:
        raise ResidueCharTwo("ultrametric equilibrium measures need a finite place")
    if v.p == 2:
        raise ResidueCharTwo("residue characteristic 2 is excluded")
    return segment_measure(lattes_segment(gamma, v))


def local_discrepancy(points, u: Fraction | int | str, r: float, v: Place) -> float:
    """I(P, u, r) = |(mu_P, delta_u - chi_{u,r})| at a finite place, p != 2.

    Evaluated exactly through the segment potential.  r = 0 gives 0 by the
    convention eta_{u,0} = u; u must avoid the branch points of P.
    """
    quad = as_quadruple(points)
    if not v.is_finite:
        raise ResidueCharTwo("local discrepancies are ultrametric; use a finite place")
    if v.p == 2:
        raise ResidueCharTwo("residue characteristic 2 is excluded")
    u = parse_rational(u)
    if any(pt is not None and pt == u for pt in quad.finite_points()):
        raise BranchPointCenter(f"u = {u} is a branch point of the quadruple")
    if r < 0:
        raise BadRadii("radius must be nonnegative")
    if r == 0:
        return 0.0
    mu = equilibrium_measure_ua(quad, v)
    z_disk = TreePoint(u, v.epsilon * math.log(r))
    z_point = type1(u)
    return abs(segment_potential(mu, z_disk, v) - segment_potential(mu, z_point, v))


# ---------------------------------------------------------------------------
# the Legendre map and 2-power torsion images


def legendre_lattes_eval(lam: LegendreParam | Fraction | int | str, t):
    """L(t) = (t^2 - lam)^2 / (4 t (t-1) (t-lam)); infinity is a value.

    Exact over rationals (P^1 points); floating for complex arguments.
    """
    lam_p = lam.lam if isinstance(lam, LegendreParam) else parse_p1_point(lam)
    if isinstance(t, complex):
        lamc = complex(lam_p)
        den = 4 * t * (t - 1) * (t - lamc)
        if den == 0:
            return INFINITY
        return (t * t - lamc) ** 2 / den
    t = parse_p1_point(t)
    if t is INFINITY:
        return INFINITY
    den = 4 * t * (t - 1) * (t - lam_p)
    if den == 0:
        return INFINITY
    return (t * t - lam_p) ** 2 / den


def lattes_preimages(w, lam: Fraction | complex) -> list[complex | object]:
    """The four preimages of w under the Legendre map, repeated by multiplicity.

    With r_i = sqrt(w - e_i) for e = (0, 1, lam), the halving formula
    u = w + r1 r2 + r1 r3 + r2 r3 gives one preimage per sign class of
    (r1, r2, r3); the class of largest modulus avoids cancellation.  The deck
    group t -> lam / t, (t - lam) / (t - 1), lam (t - 1) / (t - lam) gives the
    other three, so branch values come out as two coincident pairs.
    L^{-1}(inf) = [0, 1, lam, inf].  Finite preimages are sorted by
    (real, imag).
    """
    lamc = complex(lam)
    if w is INFINITY:
        return [0j, 1 + 0j, lamc, INFINITY]
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


def _dedup_points(pts: Iterable[tuple[complex | object, int]], tol: float):
    """Merge each point into the earliest kept point within ``tol``, adding multiplicities.

    Kept points are hashed by grid cell.  The cell side is the power of two in
    (2 tol, 4 tol], so floor division by it is exact and every kept point
    within ``tol`` of p lies in p's cell or one of its eight neighbours.
    """
    side = math.ldexp(1.0, math.frexp(tol)[1] + 1)
    points: list[complex] = []
    mults: list[int] = []
    newest_in_cell: dict[complex, int] = {}
    older_in_cell: list[int] = []  # the previous kept index in the same cell, or -1
    inf_mult = 0
    for p, m in pts:
        if p is INFINITY:
            inf_mult += m
            continue
        cx, cy = p.real // side, p.imag // side
        match = len(points)
        for dx in (-1.0, 0.0, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                i = newest_in_cell.get(complex(cx + dx, cy + dy), -1)
                while i >= 0:
                    if i < match and abs(p - points[i]) <= tol:
                        match = i
                    i = older_in_cell[i]
        if match < len(points):
            mults[match] += m
            continue
        cell = complex(cx, cy)
        older_in_cell.append(newest_in_cell.get(cell, -1))
        newest_in_cell[cell] = match
        points.append(p)
        mults.append(m)
    out: list[tuple[complex | object, int]] = sorted(
        zip(points, mults), key=lambda pm: (pm[0].real, pm[0].imag)
    )
    if inf_mult:
        out.append((INFINITY, inf_mult))
    return out


def torsion_images(
    gamma_or_lambda,
    level: int,
    tol: float = 1e-9,
    level_cap: int = TORSION_LEVEL_CAP,
) -> list[tuple[complex | object, int]]:
    """Images of the 2^(level+1)-torsion: L^{-level} of the branch set {0,1,lam,inf}.

    Returns deduplicated complex points with multiplicities (total 4^(level+1));
    for a general quadruple the Legendre picture is pulled back through the
    normalizing Moebius map.  A Legendre parameter of 0, 1 or infinity raises
    ``DegenerateQuadruple``.
    """
    if level < 0 or level > level_cap:
        raise LevelTooLarge(f"level must lie in [0, {level_cap}]")
    param, mobius = legendre_form(gamma_or_lambda)
    lamc = complex(param.lam)
    current = [(p, 1) for p in lattes_preimages(INFINITY, lamc)]
    for _ in range(level):
        current = _dedup_points(
            ((p, m) for w, m in current for p in lattes_preimages(w, lamc)), tol
        )
    if mobius is not None:
        inv = mobius.inverse()
        moved = []
        for p, m in current:
            if p is INFINITY:
                img = inv.apply(INFINITY)
                moved.append((INFINITY if img is INFINITY else complex(img), m))
            else:
                den = complex(inv.c) * p + complex(inv.d)
                if den == 0:
                    moved.append((INFINITY, m))
                else:
                    moved.append(((complex(inv.a) * p + complex(inv.b)) / den, m))
        current = _dedup_points(moved, tol)
    return current
