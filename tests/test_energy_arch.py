import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from arakelov.adelic import cloud_for_quadruple
from arakelov.energy_arch import (
    Circle,
    Cloud,
    DiracAt,
    UNIT_CIRCLE,
    arch_self_energy,
    circle_potential,
    escape_rate,
    lattes_sq_energy_arch,
    pair_energy_arch,
    sample_lattes_equilibrium,
    sq_energy_arch,
    _CHUNK,
    _log_dist_sum,
)
from arakelov.errors import CoincidentAtoms, DegenerateQuadruple, SingularPair
from arakelov.lattes import as_quadruple, legendre_lattes_eval, normalize_to_legendre
from arakelov.places import INFINITY


def quadrature_circle_pair(c1, r1, c2, r2):
    """Independent double-mean of log|z - w| over two circles (test oracle)."""

    def outer(phi):
        w = c2 + r2 * np.exp(1j * phi)
        # inner mean over circle 1 via Jensen is exact
        return math.log(max(abs(w - c1), r1))

    val, _ = quad(outer, 0.0, 2 * math.pi, limit=400)
    return -(val / (2 * math.pi))


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

    def test_singular_pair(self):
        with pytest.raises(SingularPair):
            pair_energy_arch(DiracAt(1j), DiracAt(1j))
        with pytest.raises(SingularPair):
            arch_self_energy(DiracAt(1j))


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
        lam = complex(param.lam)

        def conjugate_lift(x, y):
            fx, fy = legendre_lift(lam, a * x + b * y, c * x + d * y)
            return d * fx - b * fy, a * fy - c * fx

        x, y = random_vectors(np.random.default_rng(3))
        ref = iterated_escape_rate(conjugate_lift, x, y)
        got = escape_rate(lam, a * x + b * y, c * x + d * y) + math.log(abs(a * d - b * c)) / 3
        assert np.abs(got - ref).max() <= 1e-12


class TestLattesEnergy:
    # (side a, side b): parameters and general quadruples; the cloud route
    # draws the same chains and pulls quadruple samples back by division
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
            return cloud_for_quadruple(as_quadruple(side), n, seed=seed)
        return sample_lattes_equilibrium(Fraction(side), n, seed=seed)

    @pytest.fixture(scope="class", params=range(len(PANEL)))
    def runs(self, request):
        a, b = self.PANEL[request.param]
        new = [lattes_sq_energy_arch(a, b, self.N, seed=s) for s in self.SEEDS]
        old = [
            sq_energy_arch(self._cloud(a, self.N, s), self._cloud(b, self.N, s + 1))
            for s in self.SEEDS
        ]
        return np.array([e for e, _ in new]), np.array([se for _, se in new]), np.array(old)

    def test_agrees_with_cloud_oracle(self, runs):
        new, _, old = runs
        combined = math.hypot(new.std(ddof=1), old.std(ddof=1)) / math.sqrt(len(self.SEEDS))
        assert abs(new.mean() - old.mean()) <= 4.0 * combined

    def test_stderr_matches_seed_spread(self, runs):
        new, stderr, _ = runs
        ratio = stderr.mean() / new.std(ddof=1)
        assert 1 / 3 <= ratio <= 3

    def test_permuted_branch_set_vanishes(self):
        energy, stderr = lattes_sq_energy_arch([1, 2, 3, "inf"], [2, 1, "inf", 3], 2000, seed=5)
        assert abs(energy) <= 1e-12 and stderr <= 1e-12

    def test_same_chains_as_clouds(self):
        # the chains are the cloud route's (seeds seed and seed + 1), and the
        # blocks of _CHUNK samples, the last one partial, cover each chain once
        n = 2 * _CHUNK + 100
        a = sample_lattes_equilibrium(Fraction(2), n, seed=7).points
        b = sample_lattes_equilibrium(Fraction(3), n, seed=8).points

        def diff(w):
            return escape_rate(2, w, np.ones_like(w)) - escape_rate(3, w, np.ones_like(w))

        energy, _ = lattes_sq_energy_arch(2, 3, n, seed=7)
        assert energy == pytest.approx(0.5 * (diff(b).mean() - diff(a).mean()), abs=1e-15)

    @pytest.mark.parametrize("lam", [0, 1, "inf"])
    def test_degenerate_parameter(self, lam):
        with pytest.raises(DegenerateQuadruple):
            lattes_sq_energy_arch(lam, 2, 200)
