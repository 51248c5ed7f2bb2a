#!/usr/bin/env python3
"""Archimedean energies: circle closed forms and Monte Carlo Lattes clouds.

Circle measures pair in closed form (log max rules); Lattes equilibrium
measures over C have no such forms, so they are sampled by backward
iteration: each step jumps to a uniformly random preimage among the four
roots, and the empirical cloud approximates the equilibrium measure.  Two
clouds pair through an O(n^2) log double sum; two Lattes measures also pair
in O(n) through the escape rates of their homogeneous lifts.
"""

import math
from fractions import Fraction

import numpy as np

from arakelov import (
    Circle,
    DiracAt,
    circle_potential,
    lattes_sq_energy_arch,
    pair_energy_arch,
    sample_lattes_equilibrium,
    sq_energy_arch,
)
from arakelov.energy_arch import UNIT_CIRCLE

print("circle closed forms:")
print(f"  potential of the unit Haar measure at z = 2i: {circle_potential(0j, 1.0, 2j):.6f} (= log 2)")
print(f"  (chi_0,1, delta_0)        = {pair_energy_arch(UNIT_CIRCLE, DiracAt(0j)):.6f}")
print(f"  (chi_0,1, chi_0,e)        = {pair_energy_arch(UNIT_CIRCLE, Circle(0j, math.e)):.6f}")
print(f"  <chi_0,1, chi_0,1/e>      = {sq_energy_arch(UNIT_CIRCLE, Circle(0j, math.exp(-1))):.6f}")
print(f"  overlapping pair (quad)   = {pair_energy_arch(Circle(0j, 1.0), Circle(0.5 + 0j, 1.2)):.6f}")

print()
n = 8000
print(f"backward-orbit clouds with n = {n}:")
a1 = sample_lattes_equilibrium(Fraction(2), n, seed=1)
a2 = sample_lattes_equilibrium(Fraction(2), n, seed=2)
b = sample_lattes_equilibrium(Fraction(3), n, seed=3)
print(f"  two independent clouds at lam = 2:  energy {sq_energy_arch(a1, a2):+.5f}  (zero up to noise)")
print(f"  lam = 2 against lam = 3:            energy {sq_energy_arch(a1, b):+.5f}  (strictly positive)")
print(f"  fraction of mass with |t| > 10^6:   {float((np.abs(a1.points) > 1e6).mean()):.4f}")

print()
print("invariance of the cloud estimator:")
shift = 0.5 - 0.25j
print(f"  translated: {sq_energy_arch(*(type(a1)(c.points + shift) for c in (a1, b))):+.5f}")
rot = np.exp(0.7j)
print(f"  rotated   : {sq_energy_arch(*(type(a1)(c.points * rot) for c in (a1, b))):+.5f}")

print()
print(f"escape-rate pairing over the same kind of chains, n = {n}:")
e, se = lattes_sq_energy_arch(2, 3, n, seed=1)
print(f"  lam = 2 against lam = 3:            energy {e:+.5f} +- {se:.5f} (batch means)")
e, _ = lattes_sq_energy_arch([1, 2, 3, "inf"], [2, 1, "inf", 3], n, seed=1)
print(f"  one branch set in two orders:       energy {e:+.5f}")
