"""The invariant battery, and the random inputs and invariant checks that it
shares with the acceptance criteria.

Each shared check takes an ``rng`` plus its sizes, draws its inputs in a fixed
order and returns the statistic it measures; the battery and
``tests/test_acceptance.py`` call the same functions with their own seeds,
sizes and tolerances.  `run_battery` collects (name, ok, detail) and is what
the ``suite`` CLI subcommand runs.  Sizes shrink under ``quick``.
"""

from __future__ import annotations

import math

import numpy as np

from . import adelic, energy_arch, energy_ua, lattes, places, tree
from .adelic import random_rational

Check = tuple[str, bool, str]


# ---------------------------------------------------------------------------
# random inputs


def random_point(rng, v: places.Place, span: float) -> tree.TreePoint:
    """A type-2 point: center of height 9, log radius uniform in [-span, span] log p."""
    return tree.TreePoint(random_rational(rng, 9), float(rng.uniform(-span, span)) * math.log(v.p))


def random_measure(rng, v: places.Place, span: float) -> energy_ua.SegmentMeasure:
    """The segment measure between two `random_point` draws."""
    a, b = random_point(rng, v, span), random_point(rng, v, span)
    return energy_ua.segment_measure(tree.segment_between(a, b, v))


def random_quadruple(rng, height: int) -> lattes.Quadruple:
    """Four distinct points; each draw is infinity with probability 0.15 while
    infinity is not taken, else a rational of the given height.  Height 1 has
    only +-1 and infinity, so a height below 2 raises ``ValueError``."""
    if height < 2:
        raise ValueError(f"a quadruple needs height at least 2, not {height}")
    pts: list = []
    while len(pts) < 4:
        if rng.uniform() < 0.15 and places.INFINITY not in pts:
            cand = places.INFINITY
        else:
            cand = random_rational(rng, height)
        if cand not in pts:
            pts.append(cand)
    return lattes.Quadruple(tuple(pts))


# ---------------------------------------------------------------------------
# shared invariant checks


def product_formula_residual(rng, count: int, height: int) -> float:
    """Worst |sum_v log|x|_v| over `count` random rationals."""
    return max(
        abs(places.product_formula_residual(random_rational(rng, height))) for _ in range(count)
    )


def reciprocal_height(rng, count: int, height: int) -> float:
    """Worst |h(x) - h(1/x)| over `count` random rationals."""
    worst = 0.0
    for _ in range(count):
        x = random_rational(rng, height)
        worst = max(worst, abs(places.affine_height(x) - places.affine_height(1 / x)))
    return worst


def height_bound(rng, count: int, height: int) -> bool:
    """Whether the (n+1) height bound holds on `count` random 1- to 6-tuples."""
    ok = True
    for _ in range(count):
        us = [random_rational(rng, height) for _ in range(int(rng.integers(1, 7)))]
        ok &= adelic.height_log_norm_bound(us)["holds"]
    return ok


def closed_form_vs_oracle(rng, count: int, n: int, span: float) -> tuple[float, bool]:
    """Worst |closed - oracle| / max(1e-2, 3 (total length) / n) over `count`
    random segment pairs at p in {3, 5, 7}, and whether every lower bound held."""
    worst, bounds_hold = 0.0, True
    for _ in range(count):
        v = places.finite(int(rng.choice([3, 5, 7])))
        ia, ib = random_measure(rng, v, span), random_measure(rng, v, span)
        report = energy_ua.lower_bound_report(ia, ib, v)
        oracle = energy_ua.energy_oracle(ia, ib, v, n=n)
        cfg = tree.classify_pair(ia.support, ib.support, v)
        length = cfg.la + cfg.lb + (cfg.d_ab if cfg.variant == "disjoint" else 0.0)
        worst = max(worst, abs(report["energy"] - oracle) / max(1e-2, 3.0 * length / n))
        bounds_hold &= report["all_hold"]
    return worst, bounds_hold


def union_recursion(rng, count: int, span: float, split: tuple[float, float]) -> float:
    """Worst |lhs - rhs| of `energy_union_check` at p = 5 over `count` random
    non-singleton segments, each cut at a uniform fraction in `split` of its length."""
    v = places.finite(5)
    worst = 0.0
    done = 0
    while done < count:
        seg = tree.segment_between(random_point(rng, v, span), random_point(rng, v, span), v)
        if seg.is_singleton:
            continue
        mid = tree.point_on_path(seg.a, seg.b, v, seg.length * float(rng.uniform(*split)))
        b1 = energy_ua.segment_measure(tree.segment_between(seg.a, mid, v))
        b2 = energy_ua.segment_measure(tree.segment_between(mid, seg.b, v))
        ia = random_measure(rng, v, span)
        lhs, rhs = energy_ua.energy_union_check(ia, b1, b2, v)
        worst = max(worst, abs(lhs - rhs))
        done += 1
    return worst


def cross_ratio_length(rng, count: int, height: int) -> tuple[float, bool, int]:
    """Over `count` random quadruples at p in {3, 5, 7, 11}: the worst
    |length - units log p| of the Lattes segment, whether length / log p
    always rounds to `lattes_segment_length_units`, and the sum of the units."""
    worst, exact, total = 0.0, True, 0
    for _ in range(count):
        p = int(rng.choice([3, 5, 7, 11]))
        v = places.finite(p)
        quad = random_quadruple(rng, height)
        seg = lattes.lattes_segment(quad, v)
        units = lattes.lattes_segment_length_units(quad, v)
        exact &= round(seg.length / math.log(p)) == units
        worst = max(worst, abs(seg.length - units * math.log(p)))
        total += units
    return worst, exact, total


def postcritical_containment(rng, count: int, height: int) -> bool:
    """Whether L_lam({0, 1, lam, inf}) = {inf} for `count` random lam not in {0, 1}."""
    ok = True
    checked = 0
    while checked < count:
        lam = random_rational(rng, height)
        if lam in (0, 1):
            continue
        images = {lattes.legendre_lattes_eval(lam, t) for t in (0, 1, lam, places.INFINITY)}
        ok &= images == {places.INFINITY}
        checked += 1
    return ok


def standard_height_recovery(rng, count: int, height: int) -> float:
    """Worst |h_rho(x) - h(x)| for the standard family over `count` random rationals."""
    std = adelic.StandardFamily()
    worst = 0.0
    for _ in range(count):
        x = random_rational(rng, height)
        worst = max(worst, abs(adelic.h_rho_F(std, [x])["value"] - places.affine_height(x)))
    return worst


# ---------------------------------------------------------------------------
# the battery


def run_battery(quick: bool = True, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    size = 1 if quick else 4
    checks: list[Check] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # places
    worst = product_formula_residual(rng, 100 * size, 500)
    record("product_formula_residual", worst <= 1e-12, f"max |res| = {worst:.2e}")
    worst = reciprocal_height(rng, 50 * size, 200)
    record("affine_height_reciprocal", worst <= 1e-12, f"max |h(x) - h(1/x)| = {worst:.2e}")

    ok = True
    for _ in range(50 * size):
        x, y = random_rational(rng, 50), random_rational(rng, 50)
        for v in (places.finite(3), places.finite(7), places.ARCH):
            lhs = places.log_abs(x * y, v)
            rhs = places.log_abs(x, v) + places.log_abs(y, v)
            ok &= abs(lhs - rhs) <= 1e-12
    record("log_abs_multiplicative", ok, f"{50 * size} pairs")
    record("height_log_norm_bound", height_bound(rng, 30 * size, 60), f"{30 * size} tuples")

    # tree
    v = places.finite(5)
    ok = True
    for _ in range(50 * size):
        x, y = random_point(rng, v, 4), random_point(rng, v, 4)
        j = tree.join(x, y, v)
        ok &= tree.points_equal(j, tree.join(y, x, v), v)
        ok &= tree.points_equal(tree.join(x, x, v), x, v)
        ok &= tree.hsia_log_kernel(x, y, v) == j.log_radius
    record("join_axioms", ok, f"{50 * size} pairs")

    ok = True
    for _ in range(30 * size):
        x, y, z = (random_point(rng, v, 4) for _ in range(3))
        dxy = tree.path_length(x, y, v)
        ok &= dxy <= tree.path_length(x, z, v) + tree.path_length(z, y, v) + 1e-12
    record("path_length_triangle", ok, f"{30 * size} triples")

    # ultrametric energies
    worst, bounds_hold = closed_form_vs_oracle(rng, 8 * size, n=600, span=4)
    detail = f"worst |closed-oracle|/tol = {worst:.2e}"
    record("closed_form_vs_oracle", worst <= 1.0 and bounds_hold, detail)
    worst = union_recursion(rng, 20 * size, span=4, split=(0.2, 0.8))
    record("union_recursion", worst <= 1e-10, f"max |lhs - rhs| = {worst:.2e}")

    # lattes
    worst, exact, units = cross_ratio_length(rng, 30 * size, 30)
    detail = f"max |len - units log p| = {worst:.2e}, sum of units = {units}"
    record("cross_ratio_length", exact and worst <= 1e-9, detail)
    ok = postcritical_containment(rng, 20 * size, 40)
    record("postcritical_containment", ok, f"{20 * size} lambdas")

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
    worst = standard_height_recovery(rng, 20 * size, 80)
    record("standard_height_recovery", worst <= 1e-12, f"max |h_rho(x) - h(x)| = {worst:.2e}")

    # explicit-constant suite
    rep = adelic.suite_scan(count=20 * size, seed=seed, height=12)
    record("explicit_constant_suite", rep["all_hold"], f"{len(rep['failures'])} failures")

    passed = sum(1 for _, ok, _ in checks if ok)
    return {
        "quick": quick,
        "seed": seed,
        "passed": passed,
        "failed": len(checks) - passed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
