import itertools
import math
import threading
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from arakelov import energy_arch
from arakelov.energy_arch import (
    Circle,
    Cloud,
    DiracAt,
    LattesMeasure,
    UNIT_CIRCLE,
    arch_self_energy,
    circle_potential,
    escape_rate,
    lattes_pairing,
    lattes_sq_energy_arch,
    pair_energy_arch,
    sample_lattes_equilibrium,
    sq_energy_arch,
    _log_dist_sum,
)
from arakelov.errors import (
    CoincidentAtoms,
    DegenerateQuadruple,
    NonConvergentRoots,
    NonFiniteResult,
    SingularPair,
)
from arakelov.lattes import (
    MobiusMap,
    as_side,
    lattes_preimages_array,
    legendre_lattes_eval,
    normalize_to_legendre,
)
from arakelov.places import INFINITY


class Boom(Exception):
    """Raised by a patched escape_rate to trace an error across threads."""


def quadrature_circle_pair(c1, r1, c2, r2):
    """Independent double-mean of log|z - w| over two circles (test oracle)."""

    def outer(phi):
        w = c2 + r2 * np.exp(1j * phi)
        # inner mean over circle 1 via Jensen is exact
        return math.log(max(abs(w - c1), r1))

    val, _ = quad(outer, 0.0, 2 * math.pi, limit=400)
    return -(val / (2 * math.pi))


def mp_circle_pair(d, r1, r2):
    """-(mean of log|z - w|) over |z| = r1 and |w - d| = r2 at 40 digits, the
    angular integral over circle 2 split at the end phi* of its arc inside the
    larger disk (test oracle)."""
    with mpmath.workdps(40):
        d, r1, r2 = (mpmath.mpf(x) for x in (d, r1, r2))
        r1, r2 = max(r1, r2), min(r1, r2)
        cos_star = (d * d + r2 * r2 - r1 * r1) / (2 * d * r2)
        phi_star = mpmath.acos(min(1, max(-1, cos_star)))
        outside = mpmath.quad(
            lambda phi: mpmath.log(d * d + r2 * r2 - 2 * d * r2 * mpmath.cos(phi)) / 2,
            [phi_star, mpmath.pi],
        )
        return float(-(phi_star * mpmath.log(r1) + outside) / mpmath.pi)


def pulled_back_cloud(quad, n, seed):
    """Equilibrium cloud of a quadruple: a Legendre sample pulled back through the
    inverse normalizing map, points sent to infinity dropped (test oracle)."""
    lam, mob = normalize_to_legendre(quad)
    w = sample_lattes_equilibrium(lam, n, seed=seed).points
    inv = MobiusMap(mob.d, -mob.b, -mob.c, mob.a)
    a, b, c, d = (complex(x) for x in (inv.a, inv.b, inv.c, inv.d))
    den = c * w + d
    good = den != 0
    pts = (a * w[good] + b) / den[good]
    pts = pts[np.isfinite(pts.real) & np.isfinite(pts.imag)]
    assert len(pts) >= 0.99 * n, "too many samples escaped through the pullback"
    return Cloud(pts)


def dense_log_mean(x, y, self_pairs):
    """Mean of log|x_i - y_j| over the full distance matrix (test oracle).

    Self-pairs drop the diagonal; exact zero distances are dropped as well.
    """
    d = np.abs(x[:, None] - y[None, :])
    keep = d != 0.0
    if self_pairs:
        np.fill_diagonal(keep, False)
    return float(np.log(d[keep]).mean())


class TestCirclePotential:
    def test_on_circle(self):
        assert circle_potential(0j, 2.0, 2.0 + 0j) == math.log(2.0)

    def test_outside(self):
        assert circle_potential(0j, 1.0, 2j) == math.log(2.0)

    def test_jensen_mean(self):
        z = 3.0 + 1.0j
        val, _ = quad(lambda t: math.log(abs(z - np.exp(1j * t))), 0, 2 * math.pi)
        assert val / (2 * math.pi) == pytest.approx(math.log(abs(z)), abs=1e-9)


class TestClosedForms:
    def test_self_pairing_unit_circle(self):
        assert sq_energy_arch(UNIT_CIRCLE, UNIT_CIRCLE) == 0.0

    def test_unit_vs_shrunk(self):
        assert sq_energy_arch(UNIT_CIRCLE, Circle(0j, math.exp(-1.0))) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_unit_vs_grown_raw(self):
        assert pair_energy_arch(UNIT_CIRCLE, Circle(0j, math.e)) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_dirac_at_center(self):
        assert pair_energy_arch(UNIT_CIRCLE, DiracAt(0j)) == 0.0

    def test_concentric(self):
        assert pair_energy_arch(Circle(1j, 2.0), Circle(1j, 3.0)) == -math.log(3.0)

    def test_closed_vs_quadrature_random_pairs(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(50):
            c1 = complex(rng.normal(), rng.normal())
            c2 = complex(rng.normal(), rng.normal())
            r1, r2 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))
            got = pair_energy_arch(Circle(c1, r1), Circle(c2, r2))
            ref = quadrature_circle_pair(c1, r1, c2, r2)
            worst = max(worst, abs(got - ref))
        assert worst <= 1e-6

    @pytest.mark.parametrize(
        "d, r1, r2",
        [
            (2536.7380019799134, 1299.9707583770567, 1236.767243602857),
            (0.006516451017874147, 0.003248661200828854, 0.0032739053861517236),
            (math.nextafter(1.75, 0.0), 1.0, 0.75),  # external tangency
            (math.nextafter(0.9, math.inf), 1.0, 0.1),  # internal tangency
            (math.nextafter(1.0 + 1e-6, 0.0), 1.0, 1e-6),
            (math.nextafter(1.0 - 3e-6, math.inf), 1.0, 3e-6),
            (math.nextafter(1e6 + 1.0, 0.0), 1e6, 1.0),
            (math.nextafter(1e6 - 1.0, math.inf), 1.0, 1e6),
            (1.0, 1.0, 1e-6),
            (1e6, 1.0, 1e6),
            (0.3, 1e-6, 0.3),
        ],
    )
    def test_crossing_circles_against_mpmath(self, d, r1, r2):
        got = pair_energy_arch(Circle(0j, r1), Circle(complex(d), r2))
        ref = mp_circle_pair(d, r1, r2)
        assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref))

    def test_singular_pair(self):
        with pytest.raises(SingularPair):
            pair_energy_arch(DiracAt(1j), DiracAt(1j))
        with pytest.raises(SingularPair):
            arch_self_energy(DiracAt(1j))


class TestDispatchSymmetry:
    def test_pair_energy_arch_is_symmetric(self):
        rng = np.random.default_rng(58)
        unit, equal, smaller = Circle(0j, 1.0), Circle(1.2 + 0.3j, 1.0), Circle(-0.4 - 0.9j, 0.6)
        for other in (equal, smaller):  # both cross the unit circle
            assert abs(other.radius - 1.0) < abs(other.center) < other.radius + 1.0
        measures = [
            DiracAt(0.25 + 0.5j),
            DiracAt(-1.5 + 0.1j),
            unit,
            equal,
            smaller,
            Cloud(rng.normal(size=300) + 1j * rng.normal(size=300)),
            Cloud(1.0 + rng.normal(size=500) + 1j * rng.normal(size=500)),
            LattesMeasure(2, n=256),
            LattesMeasure((Fraction(-2), Fraction(1, 2), Fraction(3), INFINITY), n=256),
        ]
        for a, b in itertools.combinations(measures, 2):
            ab, ba = pair_energy_arch(a, b), pair_energy_arch(b, a)
            if isinstance(a, Cloud) and isinstance(b, Cloud):
                # the tile sums of _log_dist_sum run in another order
                assert ba == pytest.approx(ab, rel=1e-13)
            else:
                assert ba.hex() == ab.hex(), (a, b)


class TestCloudEnergy:
    def test_translation_invariance(self):
        rng = np.random.default_rng(52)
        a = Cloud(rng.normal(size=400) + 1j * rng.normal(size=400))
        b = Cloud(rng.normal(size=400) + 1j * rng.normal(size=400))
        c = 0.5 - 0.25j
        shifted = sq_energy_arch(Cloud(a.points + c), Cloud(b.points + c))
        assert shifted == pytest.approx(sq_energy_arch(a, b), abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(53)
        a = Cloud(rng.normal(size=400) + 1j * rng.normal(size=400))
        b = Cloud(rng.normal(size=400) + 1j * rng.normal(size=400))
        rot = np.exp(1j * 0.7)
        rotated = sq_energy_arch(Cloud(a.points * rot), Cloud(b.points * rot))
        assert rotated == pytest.approx(sq_energy_arch(a, b), abs=1e-9)

    def test_scaling_within_bias_bound(self):
        rng = np.random.default_rng(54)
        n = 2000
        a = Cloud(rng.normal(size=n) + 1j * rng.normal(size=n))
        b = Cloud(2.0 + rng.normal(size=n) + 1j * rng.normal(size=n))
        base = sq_energy_arch(a, b)
        scaled = sq_energy_arch(Cloud(1.75 * a.points), Cloud(1.75 * b.points))
        assert abs(scaled - base) <= 3.0 / math.sqrt(n)

    def test_two_tight_clusters(self):
        # two 2-point clusters of spread eps at distance d: the off-diagonal
        # estimator gives (1/2)[-2 log eps + 2 log d] = log(d / eps) > 0
        eps = 1e-6
        d = 0.01
        a = Cloud(np.array([0j, eps + 0j]))
        b = Cloud(np.array([d + 0j, d + eps * 1j]))
        e = sq_energy_arch(a, b)
        assert e > 0
        assert e == pytest.approx(math.log(d / eps), rel=0.05)

    def test_coincident_atoms_flagged(self):
        pts = np.zeros(100, dtype=complex)
        pts[50:] = 1.0
        with pytest.raises(CoincidentAtoms):
            sq_energy_arch(Cloud(pts), Cloud(pts.copy()))


class TestLogDistKernel:
    SIZES = [2, 3, 255, 256, 257, 1000]  # around one tile edge, partial diagonal tiles

    @staticmethod
    def _cloud(rng, n, shift=0.0):
        return shift + 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))

    @pytest.mark.parametrize("n", SIZES)
    def test_self_mean_vs_dense(self, n):
        x = self._cloud(np.random.default_rng(n), n)
        ref = dense_log_mean(x, x, self_pairs=True)
        assert -arch_self_energy(Cloud(x)) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_cross_mean_vs_dense(self, n):
        rng = np.random.default_rng(100 + n)
        x, y = self._cloud(rng, n), self._cloud(rng, n + 1, shift=1.0 - 2.0j)
        ref = dense_log_mean(x, y, self_pairs=False)
        assert -pair_energy_arch(Cloud(x), Cloud(y)) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_duplicates_below_threshold_excluded(self):
        rng = np.random.default_rng(7)
        x = self._cloud(rng, 1000)
        x[[10, 300, 700]] = x[[5, 299, 999]]  # 6 coincident ordered pairs <= 1e-3 * n^2
        y = self._cloud(rng, 600, shift=0.5j)
        y[:4] = x[[0, 1, 2, 600]]  # 4 coincident cross pairs
        assert _log_dist_sum(x, x)[1] == 3
        assert _log_dist_sum(x, y)[1] == 4
        assert -arch_self_energy(Cloud(x)) == pytest.approx(
            dense_log_mean(x, x, self_pairs=True), rel=1e-13, abs=0.0
        )
        assert -pair_energy_arch(Cloud(x), Cloud(y)) == pytest.approx(
            dense_log_mean(x, y, self_pairs=False), rel=1e-13, abs=0.0
        )

    def test_close_atoms_far_from_origin(self):
        # |a|^2 + |b|^2 - 2<a, b> loses every digit of a 1e-9 gap at |z| ~ 1e3
        rng = np.random.default_rng(0)
        pts = 1000 + 1000j + rng.normal(size=200) + 1j * rng.normal(size=200)
        pts[1] = pts[0] + 1e-9
        assert _log_dist_sum(pts, pts)[1] == 0
        ref = dense_log_mean(pts, pts, self_pairs=True)
        assert abs(-arch_self_energy(Cloud(pts)) - ref) <= 1e-12

    def test_one_array_in_two_clouds_is_a_cross_pairing(self):
        x = self._cloud(np.random.default_rng(9), 2000)
        assert pair_energy_arch(Cloud(x), Cloud(x)) == pytest.approx(
            arch_self_energy(Cloud(x)), rel=1e-13
        )


class TestSampling:
    def test_deterministic_given_seed(self):
        c1 = sample_lattes_equilibrium(Fraction(2), 300, seed=9)
        c2 = sample_lattes_equilibrium(Fraction(2), 300, seed=9)
        assert np.array_equal(c1.points, c2.points)

    # points 0, 1, 999, 1999 and the mean of two clouds, recorded from the
    # companion-matrix solver that the closed-form preimages replaced
    PINNED = {
        (2, 0): (
            [1.2709947656248723 + 0.6432903122881058j, 0.25816274282780355 - 0.45021806776343193j,
             11.470149432653365 - 6.090639691179653j, 1.1242008372502688 + 0.23116314684914432j],
            1.1814314053204864 - 0.28903734293568134j,
        ),
        (3, 1): (
            [-0.333131542644792 + 0.48564273992824225j, 1.3136174410209458 + 0.13575978787556486j,
             1.5550855631684846 + 2.310402559250305j, 0.12950756462101667 + 0.16302252234441195j],
            5.015996641214972 + 4.981563380701819j,
        ),
    }

    @pytest.mark.parametrize("lam, seed", sorted(PINNED))
    def test_pinned_clouds(self, lam, seed):
        points, mean = self.PINNED[(lam, seed)]
        cloud = sample_lattes_equilibrium(Fraction(lam), 2000, seed=seed)
        got = [complex(cloud.points[i]) for i in (0, 1, 999, 1999)]
        assert got == pytest.approx(points, rel=1e-8, abs=1e-8)
        assert complex(cloud.points.mean()) == pytest.approx(mean, rel=1e-8, abs=1e-8)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sample_lattes_equilibrium(Fraction(2), 10, seed=1)

    def test_orbit_that_leaves_the_plane_raises(self):
        # at lambda = 10^300 the preimage products overflow within the burn-in
        with pytest.raises(NonConvergentRoots, match="left the finite plane"):
            sample_lattes_equilibrium(Fraction(10**300), 100)

    def test_backward_orbit_support(self):
        # consecutive chain points satisfy L(t_{k+1}) = t_k up to solver error
        cloud = sample_lattes_equilibrium(Fraction(2), 1500, seed=3)
        pts = cloud.points
        ok = 0
        for k in range(len(pts) - 1):
            img = legendre_lattes_eval(Fraction(2), complex(pts[k + 1]))
            if img is INFINITY:
                continue
            if abs(img - pts[k]) <= 1e-6 * max(1.0, abs(pts[k])):
                ok += 1
        assert ok >= 0.99 * (len(pts) - 1)

    def test_mass_away_from_infinity(self):
        cloud = sample_lattes_equilibrium(Fraction(2), 5000, seed=4)
        assert float((np.abs(cloud.points) > 1e6).mean()) <= 0.01

    def test_self_consistency_small(self):
        a = sample_lattes_equilibrium(Fraction(2), 4000, seed=5)
        b = sample_lattes_equilibrium(Fraction(2), 4000, seed=6)
        assert abs(sq_energy_arch(a, b)) <= 0.05

    def test_distinct_lambdas_positive(self):
        a = sample_lattes_equilibrium(Fraction(2), 4000, seed=7)
        b = sample_lattes_equilibrium(Fraction(3), 4000, seed=8)
        assert sq_energy_arch(a, b) > 0.0


def legendre_lift(lam, x, y):
    return (x * x - lam * y * y) ** 2, 4 * x * y * (x - y) * (x - lam * y)


def iterated_escape_rate(lift, x, y, steps=30):
    """log||v|| + sum_k 4^-(k+1) log||lift(u_k)|| over unit vectors u_k (test oracle)."""
    norm = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
    g = np.log(norm)
    for k in range(steps):
        x, y = lift(x / norm, y / norm)
        norm = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
        g = g + 4.0 ** -(k + 1) * np.log(norm)
    return g


def mp_escape_rate(lam, x, y):
    """``escape_rate``'s series, its ``_ESCAPE_STEPS`` steps at 40 digits (test oracle)."""
    with mpmath.workdps(40):
        lam, x, y = (mpmath.mpc(complex(t)) for t in (lam, x, y))
        norm = mpmath.sqrt(abs(x) ** 2 + abs(y) ** 2)
        g = mpmath.log(norm)
        for k in range(energy_arch._ESCAPE_STEPS):
            x, y = legendre_lift(lam, x / norm, y / norm)
            norm = mpmath.sqrt(abs(x) ** 2 + abs(y) ** 2)
            g += mpmath.log(norm) / mpmath.mpf(4) ** (k + 1)
        return float(g)


def random_vectors(rng, size=200):
    return tuple(rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))


class TestEscapeRate:
    LAMBDAS = (2, 3, -1, Fraction(1, 9), 0.5 + 0.5j)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_functional_equation(self, lam):
        x, y = random_vectors(np.random.default_rng(1))
        g = escape_rate(lam, x, y)
        lamc = complex(lam)
        assert np.abs(escape_rate(lam, *legendre_lift(lamc, x, y)) - 4.0 * g).max() <= 1e-12

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_homogeneity(self, lam):
        x, y = random_vectors(np.random.default_rng(2))
        g = escape_rate(lam, x, y)
        for c in (1e-3, -2.5 + 0.5j, 1e4j):
            assert np.abs(escape_rate(lam, c * x, c * y) - g - math.log(abs(c))).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [[1, 3, 9, "inf"], ["1/2", -4, 0, 7]])
    def test_conjugate_lift(self, gamma):
        # the lift adj(M) F(M v) of the conjugate map has escape rate
        # G_L(M v) + (1/3) log|det M|
        param, mob = normalize_to_legendre(gamma)
        a, b, c, d = (complex(t) for t in (mob.a, mob.b, mob.c, mob.d))
        lam = complex(param)

        def conjugate_lift(x, y):
            fx, fy = legendre_lift(lam, a * x + b * y, c * x + d * y)
            return d * fx - b * fy, a * fy - c * fx

        x, y = random_vectors(np.random.default_rng(3))
        ref = iterated_escape_rate(conjugate_lift, x, y)
        got = escape_rate(lam, a * x + b * y, c * x + d * y) + math.log(abs(a * d - b * c)) / 3
        assert np.abs(got - ref).max() <= 1e-12

    HUGE = [pytest.param(10**80, id="10^80"), pytest.param(10**100, id="10^100")]

    @pytest.mark.parametrize("side", [2, 3, "1/9", "1001/1000", -1000, [1, 3, 9, "inf"], *HUGE])
    def test_step_against_mpmath(self, side):
        # every 64th point of a level-6 grid, the 0-d inputs (0, 1) and (1, 0)
        # of the potential, and |u| = 1e200, which only a norm that squares
        # nothing survives; the lifts of lam = 10^80 and 10^100 overflow if
        # squared too
        mu = LattesMeasure(side, 1500)
        x, y = (t[::64] for t in mu.grid_levels()[1][0])
        m0, m1, m2, m3 = mu.mat
        vectors = list(zip(m0 * x + m1 * y, m2 * x + m3 * y))
        vectors += [(0.0, 1.0), (1.0, 0.0), (1e200 * np.exp(0.3j), 1.0)]
        for vx, vy in vectors:
            got = escape_rate(mu.lam, vx, vy)
            ref = mp_escape_rate(mu.lam, vx, vy)
            assert np.ndim(got) == 0 and math.isfinite(got)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (side, vx, vy)
        grid = escape_rate(mu.lam, *zip(*vectors))
        assert grid.shape == (len(vectors),) and np.isfinite(grid).all()
        u0 = mp_escape_rate(mu.lam, m1, m3) - mp_escape_rate(mu.lam, m0, m2)
        assert abs(mu.potential(0) - u0) <= 1e-13 * max(1.0, abs(u0))

    @pytest.mark.parametrize("lam", HUGE)
    def test_huge_parameter_pairs_finitely(self, lam):
        energy, quad_err = lattes_sq_energy_arch(lam, 3, 20000)
        assert math.isfinite(energy) and math.isfinite(quad_err)


class TestLattesEnergy:
    # (side a, side b): parameters and general quadruples; the cloud route
    # samples the measures and pulls quadruple samples back by division
    PANEL = [
        (2, 3),
        ("1/9", -2),
        ([1, 3, 9, "inf"], ["inf", 0, 1, 2]),
        ([-1, 2, 5, "1/3"], [0, 1, 4, -3]),
    ]
    N = 4000
    SEEDS = (0, 10, 20, 30, 40, 50)

    @staticmethod
    def _cloud(side, n, seed):
        if isinstance(side, list):
            return pulled_back_cloud(as_side(side), n, seed)
        return sample_lattes_equilibrium(Fraction(side), n, seed=seed)

    @pytest.fixture(scope="class", params=range(len(PANEL)))
    def runs(self, request):
        a, b = self.PANEL[request.param]
        new, _ = lattes_sq_energy_arch(a, b, self.N)
        old = [
            sq_energy_arch(self._cloud(a, self.N, s), self._cloud(b, self.N, s + 1))
            for s in self.SEEDS
        ]
        return new, np.array(old)

    def test_agrees_with_cloud_oracle(self, runs):
        new, old = runs
        # the grid is deterministic, so the clouds carry all of the spread
        combined = old.std(ddof=1) / math.sqrt(len(self.SEEDS))
        assert abs(new - old.mean()) <= 4.0 * combined

    @pytest.fixture(scope="class")
    def level_nine(self):
        # a level-9 grid (262144 points) as the reference for levels 4 to 7
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy_arch, "_GRID_LEVEL_CAP", 9)
            return [lattes_sq_energy_arch(a, b, 4**9)[0] for a, b in self.PANEL]

    @pytest.mark.parametrize("level", [4, 5, 6, 7])
    def test_quad_err_bounds_the_error(self, level_nine, level):
        for (a, b), ref in zip(self.PANEL, level_nine):
            mu_a, mu_b = LattesMeasure(a, 4**level), LattesMeasure(b, 4**level)
            assert mu_a.level == mu_b.level == level
            energy, quad_err = lattes_pairing(mu_a, mu_b)
            assert abs(energy - ref) <= quad_err

    def test_permuted_branch_set_vanishes(self):
        energy, quad_err = lattes_sq_energy_arch([1, 2, 3, "inf"], [2, 1, "inf", 3], 2000)
        assert abs(energy) <= 1e-12 and quad_err <= 1e-12

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (2, 3, (0.022117449945200124, 2.1191950941301663e-07)),
            ([1, 3, 9, "inf"], (-2, "1/2", 2, "inf"), (0.18359324955614137, 3.790672228609626e-07)),
        ],
    )
    def test_level_seven_pinned(self, a, b, expected):
        assert lattes_sq_energy_arch(a, b, 20000) == expected

    # the pairs above at n = 16, 100, 500 and 1500: levels 2, 4, 5 and 6, on one thread
    @pytest.mark.parametrize(
        "a, b, n, expected",
        [
            (2, 3, 16, (0.02372023330218649, 0.01646006561784584)),
            (2, 3, 100, (0.02212929825727089, 0.00011301489271586806)),
            (2, 3, 500, (0.02211555895554565, 2.3152650120566998e-05)),
            (2, 3, 1500, (0.022117774492607864, 2.0461554385009517e-06)),
            ([1, 3, 9, "inf"], (-2, "1/2", 2, "inf"), 16, (0.18519492054107933, 0.03787055362148717)),
            ([1, 3, 9, "inf"], (-2, "1/2", 2, "inf"), 100, (0.18379426740593405, 0.0005341668950379908)),
            ([1, 3, 9, "inf"], (-2, "1/2", 2, "inf"), 500, (0.18358513860087575, 2.3304880034297204e-05)),
            ([1, 3, 9, "inf"], (-2, "1/2", 2, "inf"), 1500, (0.18359403767406673, 7.439711072504407e-06)),
        ],
    )
    def test_levels_below_seven_pinned(self, a, b, n, expected):
        assert lattes_sq_energy_arch(a, b, n) == expected

    @pytest.mark.parametrize("n, level", [(1, 2), (16, 2), (17, 3), (100, 4), (1500, 6),
                                          (4096, 6), (4097, 7), (20000, 7), (10**7, 7)])
    def test_grid_level(self, n, level):
        assert LattesMeasure(2, n).level == level

    @pytest.mark.parametrize("lam", [0, 1, "inf"])
    def test_degenerate_parameter(self, lam):
        with pytest.raises(DegenerateQuadruple):
            lattes_sq_energy_arch(lam, 2, 200)

    @pytest.mark.parametrize("lam", [Fraction(10**14 + 1, 10**14), Fraction(10**120),
                                     Fraction(1, 10**200)], ids=["1+1e-14", "1e120", "1e-200"])
    @pytest.mark.parametrize("n", [4000, 20000], ids=["level-6", "level-7"])
    def test_non_finite_pairing_raises(self, lam, n):
        # a lambda that is 0, 1 or infinity to the grid's floats pairs to NaN;
        # pytest's error::RuntimeWarning filter would turn an escaped numpy
        # warning into an error of its own, so catch_warnings checks both
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sides in ((lam, 2), (2, lam)):
                with pytest.raises(NonFiniteResult, match="the pairing of lambda = ") as raised:
                    lattes_sq_energy_arch(*sides, n)
                message = str(raised.value)
                assert str(complex(lam)) in message and "(2+0j)" in message

    def test_lambda_beyond_float_range_raises(self):
        with pytest.raises(NonFiniteResult, match="beyond float range"):
            LattesMeasure(Fraction(10**400))


class TestLattesMeasure:
    @pytest.mark.parametrize("lam", [2, 3, "1/9", -2, "5/7"])
    def test_potential_at_zero(self, lam):
        # U(0) = G(0, 1) = G(F(0, 1)) / 4 = G(lam^2, 0) / 4 = (1/2) log|lam|
        expected = 0.5 * math.log(abs(Fraction(lam)))
        assert float(LattesMeasure(lam).potential(0j)) == pytest.approx(expected, abs=1e-12)

    def test_self_energy_lambda_two(self):
        assert LattesMeasure(2).self_energy == pytest.approx(-math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("lam", [3, "1/9", -2, "5/7"])
    def test_self_energy_from_resultant(self, lam):
        lam = Fraction(lam)
        expected = -math.log(abs(4 * lam * (lam - 1))) / 3
        assert arch_self_energy(LattesMeasure(lam)) == pytest.approx(expected, abs=1e-12)

    # parameters and general quadruples; each probe is paired with the measure
    # and with the clouds of TestLattesEnergy, which sample it
    PANEL = [2, "1/9", [1, 3, 9, "inf"], ["1/2", -4, 0, 7]]
    N = 4000
    SEEDS = (0, 10, 20, 30, 40, 50)

    @staticmethod
    def _probes(side):
        # a generic Dirac, a Dirac on a branch point, circles crossing the support
        branch = complex(Fraction(side[0])) if isinstance(side, list) else 0j
        return [DiracAt(0.3 + 0.4j), DiracAt(branch), Circle(0.5 + 0.1j, 0.8), Circle(branch, 0.5)]

    @pytest.fixture(scope="class", params=range(len(PANEL)))
    def panel(self, request):
        side = self.PANEL[request.param]
        probes = self._probes(side)
        oracle = []
        for seed in self.SEEDS:
            cloud = TestLattesEnergy._cloud(side, self.N, seed)
            oracle.append([pair_energy_arch(p, cloud) for p in probes] + [arch_self_energy(cloud)])
        mu = LattesMeasure(side)
        exact = [pair_energy_arch(p, mu) for p in probes] + [arch_self_energy(mu)]
        return np.array(exact), np.array(oracle)

    def test_agrees_with_cloud_oracle(self, panel):
        exact, oracle = panel
        stderr = oracle.std(axis=0, ddof=1) / math.sqrt(len(self.SEEDS))
        assert (np.abs(exact - oracle.mean(axis=0)) <= 4.0 * stderr).all()

    @pytest.mark.parametrize(
        "side, circle",
        [
            (2, Circle(0j, 1.0)),
            (2, Circle(0.5 + 0j, 0.5)),
            (-2, Circle(-1 + 0j, 1.0)),
            ([1, 3, 9, "inf"], Circle(2 + 0j, 1.0)),
            (["1/2", -4, 0, 7], Circle(3.5 + 0j, 3.5)),
        ],
    )
    def test_circle_quadrature_converged(self, side, circle):
        # every circle passes through branch points, where the density is singular
        mu = LattesMeasure(side)
        nodes = circle.center + circle.radius * np.exp(2j * math.pi / 16384 * np.arange(16384))
        assert abs(pair_energy_arch(circle, mu) + float(mu.potential(nodes).mean())) <= 1e-6

    def test_cloud_pairs_through_the_potential(self):
        mu = LattesMeasure([1, 3, 9, "inf"])
        pts = np.array([0.3 + 0.4j, -2.0 + 0j, 5.0 - 1j])
        expected = np.mean([pair_energy_arch(DiracAt(p), mu) for p in pts])
        assert pair_energy_arch(Cloud(pts), mu) == pytest.approx(expected, abs=1e-12)
        assert pair_energy_arch(mu, Cloud(pts)) == pair_energy_arch(Cloud(pts), mu)

    def test_pairing_builds_each_grid_once(self, monkeypatch):
        calls = []

        def counting(w, lam):
            calls.append(lam)
            return lattes_preimages_array(w, lam)

        monkeypatch.setattr(energy_arch, "lattes_preimages_array", counting)
        a, b, c = LattesMeasure(2, 500), LattesMeasure([1, 3, 9, "inf"], 500), LattesMeasure(3, 500)
        assert pair_energy_arch(a, b) == pair_energy_arch(b, a)
        pair_energy_arch(a, c)
        # level 5: five preimage steps per measure per pairing; a measure keeps
        # no grids, so a is built again for each of its three pairings
        assert a.level == b.level == c.level == 5
        assert Counter(calls) == {a.lam: 3 * 5, b.lam: 2 * 5, c.lam: 5}

    @pytest.mark.parametrize("n", [500, 20000])
    def test_pairing_leaves_no_arrays_on_the_measures(self, n):
        # level 5 on one thread, level 7 on two; arrays nested in tuples count
        def holds_array(v):
            return isinstance(v, np.ndarray) or isinstance(v, tuple) and any(map(holds_array, v))

        a, b = LattesMeasure(2, n), LattesMeasure([1, 3, 9, "inf"], n)
        lattes_pairing(a, b)
        assert not any(holds_array(v) for mu in (a, b) for v in vars(mu).values())

    @pytest.mark.parametrize("n", [16, 1500, 20000])
    @pytest.mark.parametrize(
        "side",
        [2, 3, "1/9", "1001/1000", -1000, ["inf", -2, 5, "1/3"], [-2, "inf", 5, "1/3"],
         [-2, 5, "inf", "1/3"], [-2, 5, "1/3", "inf"], [-2, 5, "1/3", 7]],
    )
    def test_grid_escapes_follow_the_series(self, side, n):
        # the preimage recursion against the series on the same grids
        mu = LattesMeasure(side, n)
        for grid, g in mu.grid_levels():
            assert np.abs(g - mu.escape(*grid)).max() <= 1e-9

    def test_pairing_runs_the_series_on_partner_grids_only(self, monkeypatch):
        calls = []

        def recording(lam, x, y):
            lam, x, y = np.broadcast_arrays(*(np.asarray(t, dtype=complex) for t in (lam, x, y)))
            calls.append((lam.copy(), x[0], y[0]))
            return escape_rate(lam, x, y)

        monkeypatch.setattr(energy_arch, "escape_rate", recording)
        a, b = LattesMeasure(2, 500), LattesMeasure([1, 3, 9, "inf"], 500)
        lattes_pairing(a, b)
        # one call per half: own's lambda at (w_0, 1), for own's grids, then the
        # partner's lambda on the 4^4 + 4^5 points of own's levels 4 and 5
        assert a.level == b.level == 5 and a.lam != b.lam
        assert [len(lam) for lam, _, _ in calls] == [1 + 4**4 + 4**5] * 2
        for (lam, x0, y0), own, partner in zip(calls, (a, b), (b, a)):
            assert (lam[0], x0, y0) == (own.lam, 0.3 + 0.7j, 1.0)
            assert (lam[1:] == partner.lam).all()

    @staticmethod
    def _record_series_calls(monkeypatch, fail_lam=None):
        """Patch escape_rate to log (size, thread) per call; with ``fail_lam``,
        a call whose partner lambda, the last element, is ``fail_lam`` raises
        ``Boom``."""
        calls = []

        def recording(lam, x, y):
            size = np.broadcast(lam, x, y).size
            calls.append((size, threading.get_ident()))
            if np.asarray(lam).ravel()[-1] == fail_lam:
                raise Boom(threading.get_ident())
            return escape_rate(lam, x, y)

        monkeypatch.setattr(energy_arch, "escape_rate", recording)
        return calls

    def test_level_seven_runs_the_halves_on_two_threads(self, monkeypatch):
        calls = self._record_series_calls(monkeypatch)
        a, b = LattesMeasure(2, 20000), LattesMeasure([1, 3, 9, "inf"], 20000)
        threads = threading.active_count()
        lattes_pairing(a, b)
        assert threading.active_count() == threads
        assert a.level == b.level == 7
        assert [size for size, _ in calls] == [1 + 4**6 + 4**7] * 2
        idents = {ident for _, ident in calls}
        assert len(idents) == 2 and threading.get_ident() in idents

    def test_level_five_stays_on_the_calling_thread(self, monkeypatch):
        calls = self._record_series_calls(monkeypatch)
        lattes_pairing(LattesMeasure(2, 500), LattesMeasure([1, 3, 9, "inf"], 500))
        assert calls == [(1 + 4**4 + 4**5, threading.get_ident())] * 2

    @pytest.mark.parametrize("fail_lam, in_worker", [(2, True), (3, False)])
    def test_error_in_either_half_reaches_the_caller(self, monkeypatch, fail_lam, in_worker):
        # lambda = 2 is the partner only in the half of mu_b, on the worker,
        # and lambda = 3 only in the caller's half; either way the worker has
        # ended when the error reaches the caller
        self._record_series_calls(monkeypatch, fail_lam=fail_lam)
        threads = threading.active_count()
        with pytest.raises(Boom) as raised:
            lattes_pairing(LattesMeasure(2, 20000), LattesMeasure(3, 20000))
        assert (raised.value.args[0] != threading.get_ident()) == in_worker
        assert threading.active_count() == threads

    def test_grid_is_the_iterated_preimage_set(self):
        # level 2 of mu_2: the 16 points t with L(L(t)) = w_0, each distinct
        _, ((x, y), _) = LattesMeasure(2, 16).grid_levels()
        assert len(x) == 16 and np.all(y == 1.0)
        for t in x:
            back = legendre_lattes_eval(Fraction(2), legendre_lattes_eval(Fraction(2), complex(t)))
            assert abs(back - (0.3 + 0.7j)) <= 1e-12
        assert np.abs(x[:, None] - x[None, :])[~np.eye(16, dtype=bool)].min() > 1e-3
