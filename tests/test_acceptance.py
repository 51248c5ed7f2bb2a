"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded regression anchors.  Criteria 1 and 10 also enforce
their wall-clock budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from arakelov import adelic, energy_arch, suite, tree
from arakelov.adelic import (
    LattesFamily,
    SmoothedSetFamily,
    StandardFamily,
    finite_set,
    local_pair_energy,
    triangle_inequality_check,
)
from arakelov.energy_arch import Circle, UNIT_CIRCLE, sample_lattes_equilibrium, sq_energy_arch
from arakelov.energy_ua import lower_bound_report, segment_measure
from arakelov.lattes import Quadruple, lattes_segment
from arakelov.places import finite
from arakelov.suite import random_measure, random_quadruple, random_rational


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_closed_form_vs_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst, _ = suite.closed_form_vs_oracle(rng, 300, n=2000, span=3.0)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1.0 and elapsed <= 60.0,
        f"300 pairs, worst |closed-oracle|/tol = {worst:.3e}, {elapsed:.1f}s <= 60s",
    )


def test_c02_union_recursion():
    worst = suite.union_recursion(np.random.default_rng(102), 200, span=3.0, split=(0.05, 0.95))
    report(2, worst <= 1e-10, f"200 abuttable splits, worst defect {worst:.2e} <= 1e-10")


def test_c03_lower_bounds():
    rng = np.random.default_rng(103)
    n_disjoint = n_meeting = n_lamrho = 0
    all_ok = True
    while n_disjoint < 1000 or n_meeting < 1000:
        v = finite(int(rng.choice([3, 5, 7])))
        ia, ib = random_measure(rng, v, 3.0), random_measure(rng, v, 3.0)
        cfg = tree.classify_pair(ia.support, ib.support, v)
        rep = lower_bound_report(ia, ib, v)
        all_ok &= rep["all_hold"]
        if cfg.variant == "disjoint":
            n_disjoint += 1
            continue
        n_meeting += 1
        lam = max(cfg.la - cfg.l_ab, cfg.lb - cfg.l_ab)
        if lam > 1e-9:
            rho = max(cfg.la, cfg.lb) / lam
            rep2 = lower_bound_report(ia, ib, v, lam=lam, rho=rho)
            all_ok &= rep2["bounds"]["meeting_lam_rho"]["holds"]
            n_lamrho += 1
    # the printed gap constant (denominator 6) fails on the canonical nested
    # pair, which is why the asserted bound carries the proof constant 24
    v5 = finite(5)
    big = segment_measure(tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 4.0), v5))
    small = segment_measure(tree.segment_between(tree.eta(0, 1.5), tree.eta(0, 2.5), v5))
    nested = lower_bound_report(big, small, v5)
    counterexample_shown = (
        nested["bounds"]["meeting_gap"]["holds"]
        and not nested["bounds"]["meeting_gap_printed"]["holds"]
    )
    report(
        3,
        all_ok and counterexample_shown,
        f"disjoint={n_disjoint}, meeting={n_meeting}, lam-rho={n_lamrho}; "
        "gap bound holds with the proof constant 24 and the printed /6 variant "
        "is refuted by the nested witness",
    )


def test_c04_cross_ratio_length():
    worst, exact, _ = suite.cross_ratio_length(np.random.default_rng(104), 500, 30)
    ok = exact and worst <= 1e-9
    report(4, ok, "500 quadruples at p in {3,5,7,11}: exact in units of log p")


def test_c05_good_reduction():
    rng = np.random.default_rng(105)
    ok = True
    # unit quadruples with unit differences reduce to the Gauss singleton
    made = 0
    while made < 100:
        p = int(rng.choice([5, 7, 11, 13]))
        v = finite(p)
        residues = [int(x) for x in rng.permutation(p - 1)[:4] + 1]
        if len(residues) < 4:
            continue
        quad = Quadruple(tuple(Fraction(r) for r in residues))
        seg = lattes_segment(quad, v)
        ok &= seg.is_singleton and tree.points_equal(seg.a, tree.GAUSS, v)
        ok &= local_pair_energy(quad, quad, v) == 0.0
        made += 1
    # every finite place outside the relevant list contributes exactly zero
    for _ in range(100):
        cfg = adelic.random_pair_config(rng, 20)
        inside = {v.p for v in adelic.relevant_places(cfg) if v.is_finite}
        qa, qb = cfg.quadruple_a(), cfg.quadruple_b()
        for p in (37, 53, 97):
            if p in inside:
                continue
            ok &= local_pair_energy(qa, qb, finite(p)) == 0.0
    report(5, ok, "unit quadruples give the Gauss singleton; outside places give exactly 0")


def test_c06_flow_scaling():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        cfg = adelic.random_pair_config(rng, 12)
        qa, qb = cfg.quadruple_a(), cfg.quadruple_b()
        primes = [v.p for v in adelic.relevant_places(cfg) if v.is_finite and v.p != 2]
        p = primes[0] if primes else 3
        base = local_pair_energy(qa, qb, finite(p))
        for eps in (0.5, 2.0):
            scaled = local_pair_energy(qa, qb, finite(p, eps))
            worst = max(worst, abs(scaled - eps * base))
    report(6, worst <= 1e-12, f"50 configs x eps in {{1/2, 2}}: worst defect {worst:.2e}")


def test_c07_product_formula_and_heights():
    rng = np.random.default_rng(107)
    worst_res = suite.product_formula_residual(rng, 1000, 500)
    worst_rec = suite.reciprocal_height(rng, 200, 300)
    worst_h = suite.standard_height_recovery(rng, 100, 80)
    ok = worst_res <= 1e-12 and worst_rec <= 1e-12 and worst_h <= 1e-12
    report(
        7,
        ok,
        f"residual {worst_res:.1e}, reciprocal {worst_rec:.1e}, h_rho vs height {worst_h:.1e}",
    )


def test_c08_explicit_constant_inequalities():
    ok = suite.height_bound(np.random.default_rng(108), 500, 60)
    scan = adelic.suite_scan(count=500, seed=108, height=20)
    ok &= scan["all_hold"]
    report(8, ok, "height bound (n+1) on 500 tuples; 61log2+122 and 81 bounds on 500 configs")


def test_c09_arch_closed_forms():
    half = energy_arch.sq_energy_arch(UNIT_CIRCLE, Circle(0j, math.exp(-1.0)))
    minus_one = energy_arch.pair_energy_arch(UNIT_CIRCLE, Circle(0j, math.e))

    def quad_raw(r, s):
        # rotation-reduced double mean of log|z - w| over two centered circles
        val, _ = quad(lambda u: math.log(abs(r - s * np.exp(1j * u))), 0, 2 * math.pi,
                      points=[0.0] if r == s else None, limit=400)
        return -val / (2 * math.pi)

    r = math.exp(-1.0)
    half_quad = 0.5 * (quad_raw(1, 1) - 2 * quad_raw(1, r) + quad_raw(r, r))
    ok = (
        abs(half - 0.5) <= 1e-15
        and abs(minus_one + 1.0) <= 1e-15
        and abs(half_quad - 0.5) <= 1e-6
    )
    report(
        9,
        ok,
        f"<chi,chi_1/e> = {half!r} (quadrature {half_quad:.8f}), (chi, chi_e) = {minus_one!r}",
    )


def test_c10_monte_carlo_consistency():
    start = time.monotonic()
    n = 20000
    a1 = sample_lattes_equilibrium(Fraction(2), n, seed=1)
    a2 = sample_lattes_equilibrium(Fraction(2), n, seed=2)
    self_energy = sq_energy_arch(a1, a2)
    vals = []
    for s in (4, 5, 6):
        ca = sample_lattes_equilibrium(Fraction(2), n, seed=10 * s)
        cb = sample_lattes_equilibrium(Fraction(3), n, seed=10 * s + 1)
        vals.append(sq_energy_arch(ca, cb))
    elapsed = time.monotonic() - start
    ok = (
        abs(self_energy) <= 0.05
        and all(v > 0 for v in vals)
        and max(vals) - min(vals) <= 0.05
        and elapsed <= 120.0
    )
    report(
        10,
        ok,
        f"self {self_energy:.4f} <= 0.05; lam2-vs-3 {['%.4f' % v for v in vals]} "
        f"positive, spread {max(vals) - min(vals):.4f} <= 0.05; {elapsed:.0f}s <= 120s",
    )


def test_c11_sqrt_triangle_inequality():
    rng = np.random.default_rng(111)
    pool = [StandardFamily()]
    for k in range(10):
        quad = random_quadruple(rng, 12)
        pool.append(LattesFamily(quad, arch_samples=2000, seed=300 + k))
    for k in range(5):
        pts = []
        while len(pts) < int(rng.integers(1, 4)):
            cand = random_rational(rng, 12)
            if cand not in pts:
                pts.append(cand)
        pool.append(SmoothedSetFamily(finite_set(pts)))
    ok = True
    for _ in range(100):
        i, j, k = rng.choice(len(pool), size=3, replace=False)
        ok &= triangle_inequality_check(pool[i], pool[j], pool[k])["holds"]
    report(11, ok, "100 random family triples satisfy the sqrt triangle inequality")


def test_c12_postcritical():
    ok = suite.postcritical_containment(np.random.default_rng(112), 100, 200)
    report(12, ok, "L({0,1,lam,inf}) = {inf} exactly for 100 random lambda")


def test_c13_gap_scan():
    rep = adelic.gap_scan(count=200, seed=7, height=20, arch_samples=1500, burn_in=48)
    anchor = 1.4923804810086727  # regression anchor, no reference value exists
    ok = rep["strictly_positive"] and abs(rep["min_energy"] - anchor) <= 0.25
    report(
        13,
        ok,
        f"min energy {rep['min_energy']:.4f} - tol {rep['arch_tol']:.4f} > 0 "
        f"over 200 configs (anchor {anchor:.4f})",
    )


def test_c14_bft_scan():
    counts = [adelic.bft_scan(Fraction(2), Fraction(3), lvl)["count"] for lvl in range(4)]
    control = adelic.bft_scan(Fraction(2), Fraction(2), 3)
    ok = (
        counts == [3, 3, 3, 3]  # regression anchor: the common set stays {0, 1, inf}
        and counts[3] <= 16
        and all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        and control["count"] == control["size_a"] == 130
    )
    report(14, ok, f"matched counts levels 0-3: {counts} (<= 16), control 130/130")
