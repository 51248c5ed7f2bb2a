#!/usr/bin/env python3
"""Lattes data of a branch quadruple: segments, cross-ratios, torsion images.

Four distinct points of P^1(Q) determine a double cover, an elliptic curve,
and the degree-4 map induced by doubling.  At an odd finite place its
equilibrium measure is Lebesgue on an explicit segment whose length is the
maximal log cross-ratio; over C the images of 2-power torsion are the
iterated preimages of the branch set.
"""

from fractions import Fraction

from arakelov import (
    cross_ratio,
    equilibrium_measure_ua,
    finite,
    lattes_segment,
    legendre_lattes_eval,
    normalize_to_legendre,
    torsion_images,
)
from arakelov.lattes import cross_ratio_orbit, lattes_segment_length_units
from arakelov.places import INFINITY

quad = ["inf", "0", "1", "1/9"]
v3 = finite(3)
print(f"quadruple {quad} at p = 3:")
beta = cross_ratio(*quad)
print(f"  cross-ratio = {beta}, permutation orbit = {cross_ratio_orbit(beta)}")
seg = lattes_segment(quad, v3)
print(f"  equilibrium segment: {seg}")
print(f"  length = {seg.length:.6f} = {lattes_segment_length_units(quad, v3)} * log 3")
print(f"  measure kind: {equilibrium_measure_ua(quad, v3).kind}")

print()
print("good reduction: (1, 2, 3, inf) at p = 5 collapses to the Gauss point:")
seg5 = lattes_segment([1, 2, 3, "inf"], finite(5))
print(f"  {seg5}")

print()
print("the Legendre map L(t) = (t^2 - lam)^2 / (4 t (t-1) (t-lam)) for lam = 2:")
for t in (0, 1, 2, "inf", 3, Fraction(1, 2)):
    print(f"  L({t}) = {legendre_lattes_eval(2, t)}")
print("  (the branch set {0, 1, lam, inf} maps to inf, which is fixed)")

print()
lam, mob = normalize_to_legendre([1, 2, 3, 4])
print(f"normalizing (1,2,3,4): lam = {lam}, Moebius = ({mob.a} t + {mob.b}) / ({mob.c} t + {mob.d})")

print()
print("2-power torsion images for lam = 2 (iterated preimages of the branch set):")
for level in range(4):
    pts = torsion_images(Fraction(2), level)
    mult = sum(m for _, m in pts)
    sample = ", ".join(
        "inf" if p is INFINITY else f"{p:.3f}" for p, _ in pts[:4]
    )
    print(f"  level {level}: {len(pts):>3} distinct points, total multiplicity {mult:>3}  [{sample}, ...]")
