#!/usr/bin/env python3
"""Global pairings over Q: per-place decomposition, heights, and the scans.

The pairing of two Lattes systems decomposes into local terms: exact closed
forms at odd finite places, a torus-grid quadrature at infinity, and a
flagged exclusion at 2.  A Lattes measure against Diracs and circles needs no
sampling: its potential and self-energy are closed forms in the escape rate.
Heights h_rho(F) generalize the classical height,
the smoothing bound controls the approximation by disk measures, and the
gap/torsion scans explore the uniform lower bound and the common-torsion
count numerically.
"""

from fractions import Fraction

from arakelov import adelic
from arakelov.energy_arch import lattes_sq_energy_arch
from arakelov.adelic import (
    LattesFamily,
    SmoothedSetFamily,
    StandardFamily,
    bft_scan,
    finite_set,
    gap_scan,
    global_energy,
    h_rho_F,
    inequality_suite,
    pair_config,
    pair_with_smoothed_set,
    relevant_places,
    triangle_inequality_check,
)

cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
print(f"configuration a = {cfg.a}, b = {cfg.b}")
print("relevant places:", ", ".join(str(v) for v in relevant_places(cfg)))
report = global_energy(cfg, arch_samples=3000)
for e in report.entries:
    val = "excluded" if e.energy is None else f"{e.energy:+.6f}"
    print(f"  {str(e.place):>6}: {val}  {e.note or ''}")
print(f"  total = {report.total:.6f} (arch tol {report.arch_tol:.3f}), h_ab = {report.h_ab:.6f}")
_, quad_err = lattes_sq_energy_arch(cfg.quadruple_a(), cfg.quadruple_b(), 3000)
print(f"  quadrature error of the archimedean entry: {quad_err:.1e}")

print()
print("heights through energies (exact for the standard family):")
std = StandardFamily()
for x in (Fraction(2), Fraction(-35, 4)):
    print(f"  h_rho({x}) = {h_rho_F(std, [x])['value']:.12f}")
lat = LattesFamily(["inf", "0", "1", "2"])
print(f"  I(mu_2) = {lat.mu.self_energy:+.12f} (-log 2), U(0) = {float(lat.mu.potential(0)):+.12f}"
      " ((1/2) log 2)")
print(f"  h_rho(branch point 0) for the (inf,0,1,2) system = {h_rho_F(lat, [0])['value']:+.1e}"
      " (preperiodic: zero, closed form)")

print()
print("sqrt triangle inequality across measure families:")
sm = SmoothedSetFamily(finite_set([2, 3, "1/2"]))
tri = triangle_inequality_check(std, lat, sm)
print(f"  sqrt{tri['e12']:+.4f} <= sqrt{tri['e13']:+.4f} + sqrt{tri['e32']:+.4f}: {tri['holds']}")

print()
print("smoothing bound for <mu_P, m_F,r>:")
rep = pair_with_smoothed_set(["inf", "0", "1", "2"], finite_set([5, 7]), arch_samples=3000)
print(f"  lhs {rep['lhs']:.4f} <= height {rep['height']:.4f} + discrepancy {rep['discrepancy']:.4f}"
      f" + log term {rep['log_term']:.4f}: {rep['holds']}")

print()
print("explicit-constant inequality suite on one configuration:")
ineq = inequality_suite(cfg)
print(f"  h_f1 = {ineq['h_f1']:.4f} <= 61 log 2 + 122 * {ineq['sum_term']:.4f}: {ineq['f1_holds']}")
print(f"  h_ab = {ineq['h_ab']:.4f} <= 81 * {ineq['h_f2']:.4f}: {ineq['f2_holds']}")

print()
print("scans (desk scale):")
scan = gap_scan(count=25, seed=7, height=15, arch_samples=1000)
print(f"  gap scan: min energy {scan['min_energy']:.4f} over {scan['count']} configs,"
      f" strictly positive: {scan['strictly_positive']}")
for level in range(4):
    b = bft_scan(Fraction(2), Fraction(3), level)
    print(f"  common torsion images, level {level}: {b['count']} of {b['size_a']}")
