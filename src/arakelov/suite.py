"""The invariant battery: quick randomized checks across all modules.

Each check returns (name, ok, detail); `run_battery` collects them and is
what the ``suite`` CLI subcommand runs.  Sizes shrink under ``quick``.
"""

from __future__ import annotations

import math

import numpy as np

from . import adelic, energy_arch, energy_ua, lattes, places, tree

Check = tuple[str, bool, str]


def _random_point(rng, v, span=4) -> tree.TreePoint:
    c = adelic._random_fraction(rng, 9)
    k = float(rng.uniform(-span, span)) * math.log(v.p)
    return tree.TreePoint(c, k)


def _random_segment(rng, v) -> tree.Segment:
    return tree.segment_between(_random_point(rng, v), _random_point(rng, v), v)


def run_battery(quick: bool = True, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    size = 1 if quick else 4
    checks: list[Check] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    # places
    worst = max(
        abs(places.product_formula_residual(adelic._random_fraction(rng, 500)))
        for _ in range(100 * size)
    )
    record("product_formula_residual", worst <= 1e-12, f"max |res| = {worst:.2e}")

    ok = True
    for _ in range(50 * size):
        x = adelic._random_fraction(rng, 200)
        ok &= abs(places.affine_height(x) - places.affine_height(1 / x)) <= 1e-12
    record("affine_height_reciprocal", ok)

    ok = True
    for _ in range(50 * size):
        x, y = adelic._random_fraction(rng, 50), adelic._random_fraction(rng, 50)
        for v in (places.finite(3), places.finite(7), places.ARCH):
            lhs = places.log_abs(x * y, v)
            rhs = places.log_abs(x, v) + places.log_abs(y, v)
            ok &= abs(lhs - rhs) <= 1e-12
    record("log_abs_multiplicative", ok)

    ok = True
    for _ in range(30 * size):
        us = [adelic._random_fraction(rng, 60) for _ in range(int(rng.integers(1, 7)))]
        rep = adelic.height_log_norm_bound(us)
        ok &= rep["holds"]
    record("height_log_norm_bound", ok)

    # tree
    v = places.finite(5)
    ok = True
    for _ in range(50 * size):
        x, y = _random_point(rng, v), _random_point(rng, v)
        j = tree.join(x, y, v)
        ok &= tree.points_equal(j, tree.join(y, x, v), v)
        ok &= tree.points_equal(tree.join(x, x, v), x, v)
        ok &= tree.hsia_log_kernel(x, y, v) == j.log_radius
    record("join_axioms", ok)

    ok = True
    for _ in range(30 * size):
        x, y, z = (_random_point(rng, v) for _ in range(3))
        dxy = tree.path_length(x, y, v)
        ok &= dxy <= tree.path_length(x, z, v) + tree.path_length(z, y, v) + 1e-12
    record("path_length_triangle", ok)

    # ultrametric energies
    ok = True
    for _ in range(8 * size):
        p = int(rng.choice([3, 5, 7]))
        vp = places.finite(p)
        ia = energy_ua.segment_measure(_random_segment(rng, vp))
        ib = energy_ua.segment_measure(_random_segment(rng, vp))
        closed = energy_ua.energy_closed_form(ia, ib, vp)
        oracle = energy_ua.energy_oracle(ia, ib, vp, n=600)
        cfg = tree.classify_pair(ia.support, ib.support, vp)
        span = cfg.la + cfg.lb + (cfg.d_ab if isinstance(cfg, tree.Disjoint) else 0.0)
        ok &= abs(closed - oracle) <= max(1e-2, 3.0 * span / 600)
        ok &= energy_ua.lower_bound_report(ia, ib, vp)["all_hold"]
    record("closed_form_vs_oracle", ok)

    ok = True
    for _ in range(20 * size):
        vp = places.finite(5)
        seg = _random_segment(rng, vp)
        if seg.is_singleton:
            continue
        mid = tree.point_on_path(seg.a, seg.b, vp, seg.length * float(rng.uniform(0.2, 0.8)))
        b1 = energy_ua.segment_measure(tree.segment_between(seg.a, mid, vp))
        b2 = energy_ua.segment_measure(tree.segment_between(mid, seg.b, vp))
        ia = energy_ua.segment_measure(_random_segment(rng, vp))
        lhs, rhs = energy_ua.energy_union_check(ia, b1, b2, vp)
        ok &= abs(lhs - rhs) <= 1e-10
    record("union_recursion", ok)

    # lattes
    ok = True
    for _ in range(30 * size):
        p = int(rng.choice([3, 5, 7, 11]))
        vp = places.finite(p)
        pts = []
        while len(pts) < 4:
            cand = adelic._random_fraction(rng, 30) if rng.uniform() > 0.15 else places.INFINITY
            if cand not in pts:
                pts.append(cand)
        quad = lattes.Quadruple(tuple(pts))
        seg = lattes.lattes_segment(quad, vp)
        units = lattes.lattes_segment_length_units(quad, vp)
        ok &= abs(seg.length - units * math.log(p)) <= 1e-9
    record("cross_ratio_length", ok)

    ok = True
    for _ in range(20 * size):
        lam = adelic._random_fraction(rng, 40)
        if lam in (0, 1):
            continue
        images = {lattes.legendre_lattes_eval(lam, t) for t in (0, 1, lam, places.INFINITY)}
        ok &= images == {places.INFINITY}
    record("postcritical_containment", ok)

    # archimedean closed forms
    e_half = energy_arch.sq_energy_arch(
        energy_arch.UNIT_CIRCLE, energy_arch.Circle(0j, math.exp(-1.0))
    )
    pair_e = energy_arch.pair_energy_arch(
        energy_arch.UNIT_CIRCLE, energy_arch.Circle(0j, math.e)
    )
    record(
        "arch_circle_closed_forms",
        abs(e_half - 0.5) <= 1e-12 and abs(pair_e + 1.0) <= 1e-12,
        f"<chi,chi_1/e> = {e_half:.12f}, (chi, chi_e) = {pair_e:.12f}",
    )

    # classical height recovery
    std = adelic.StandardFamily()
    ok = True
    for _ in range(20 * size):
        x = adelic._random_fraction(rng, 80)
        got = adelic.h_rho_F(std, [x])["value"]
        ok &= abs(got - places.affine_height(x)) <= 1e-12
    record("standard_height_recovery", ok)

    # explicit-constant suite
    rep = adelic.suite_scan(count=20 * size, seed=seed, height=12)
    record("explicit_constant_suite", rep["all_hold"])

    passed = sum(1 for _, ok, _ in checks if ok)
    return {
        "quick": quick,
        "seed": seed,
        "passed": passed,
        "failed": len(checks) - passed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
