import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from arakelov import lattes, places, suite, tree
from arakelov.energy_arch import sample_lattes_equilibrium
from arakelov.errors import DegenerateQuadruple, LevelTooLarge, ResidueCharTwo
from arakelov.lattes import (
    Quadruple,
    as_quadruple,
    cross_ratio,
    cross_ratio_orbit,
    equilibrium_measure_ua,
    lattes_preimages,
    lattes_segment,
    lattes_segment_length_units,
    legendre_lattes_eval,
    normalize_to_legendre,
    torsion_images,
)
from arakelov.places import INFINITY
from arakelov.suite import random_quadruple

V3 = places.finite(3)
V5 = places.finite(5)


class TestCrossRatio:
    def test_normalized_frame(self):
        lam = Fraction(7, 3)
        assert cross_ratio("inf", 0, 1, lam) == lam

    def test_simple(self):
        assert cross_ratio("inf", 0, 1, 2) == 2

    def test_permuted_orbit_element(self):
        assert cross_ratio(0, "inf", 1, 2) == Fraction(1, 2)

    def test_orbit_closed_under_permutations(self):
        rng = np.random.default_rng(41)
        import itertools

        for _ in range(10):
            quad = random_quadruple(rng, 12)
            orbit = set(cross_ratio_orbit(cross_ratio(*quad.points)))
            for perm in itertools.permutations(quad.points):
                assert cross_ratio(*perm) in orbit

    def test_degenerate(self):
        with pytest.raises(DegenerateQuadruple):
            cross_ratio(1, 1, 2, 3)
        with pytest.raises(DegenerateQuadruple):
            cross_ratio("inf", "inf", 1, 2)


class TestLattesSegment:
    def test_large_lambda(self):
        lam = Fraction(25)
        seg = lattes_segment(["inf", 0, 1, lam], V5)
        assert tree.points_equal(seg.a, tree.GAUSS, V5) or tree.points_equal(seg.b, tree.GAUSS, V5)
        assert seg.length == pytest.approx(2 * math.log(5), abs=1e-12)

    def test_good_reduction_is_gauss(self):
        seg = lattes_segment([1, 2, 3, "inf"], V5)
        assert seg.is_singleton
        assert tree.points_equal(seg.a, tree.GAUSS, V5)

    def test_one_ninth_at_three(self):
        seg = lattes_segment(["inf", "0", "1", "1/9"], V3)
        assert seg.length == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_length_matches_cross_ratio_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            p = int(rng.choice([3, 5, 7, 11]))
            v = places.finite(p)
            quad = random_quadruple(rng, 30)
            seg = lattes_segment(quad, v)
            units = lattes_segment_length_units(quad, v)
            assert units >= 0
            assert round(seg.length / math.log(p)) == units
            assert abs(seg.length - units * math.log(p)) <= 1e-9

    def test_flow_scales_length(self):
        quad = as_quadruple(["inf", "0", "1", "1/9"])
        base = lattes_segment(quad, V3).length
        scaled = lattes_segment(quad, places.finite(3, 0.5)).length
        assert scaled == pytest.approx(0.5 * base, abs=1e-12)

    def test_unit_quadruples_gauss(self):
        rng = np.random.default_rng(43)
        found = 0
        while found < 25:
            p = int(rng.choice([5, 7, 11]))
            v = places.finite(p)
            pts = [int(rng.integers(1, p)) for _ in range(4)]
            if len({x % p for x in pts}) < 4:
                continue
            quad = Quadruple(tuple(Fraction(x) for x in pts))
            seg = lattes_segment(quad, v)
            assert seg.is_singleton and tree.points_equal(seg.a, tree.GAUSS, v)
            found += 1


PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def pairing_oracle(gamma, v):
    """The former route: cut the geodesics of each pairing with each other and
    keep the last nonempty cut; every nonempty cut is the same segment."""
    leaves = [tree.type1(p) for p in as_quadruple(gamma).points]
    found = None
    for (i, j), (k, l) in PAIRINGS:
        m1 = tree.median(leaves[i], leaves[j], leaves[k], v)
        m2 = tree.median(leaves[i], leaves[j], leaves[l], v)
        if not all(
            tree.points_equal(tree.median(leaves[k], leaves[l], m, v), m, v) for m in (m1, m2)
        ):
            continue
        seg = tree.segment_between(m1, m2, v)
        if found is not None:
            same = (
                tree.points_equal(found.a, seg.a, v) and tree.points_equal(found.b, seg.b, v)
            ) or (tree.points_equal(found.a, seg.b, v) and tree.points_equal(found.b, seg.a, v))
            assert same, "admissible pairings disagree"
        found = seg
    assert found is not None, "some pairing always yields a nonempty intersection"
    return found


ORACLE_PRIMES = (3, 5, 7, 11, 13)
ORACLE_EPSILONS = (1 / 3, 1 / 2, 1.0, 2.0)


def oracle_cases(seed, count):
    """(quadruple, place) cases.  Every fourth case has good reduction: four
    distinct points of P^1(F_p), lifted and moved by x -> p^k x + t, so its
    segment is a point.  The others take infinity in slot n % 5 (slot 4: none)."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        p = int(rng.choice(ORACLE_PRIMES))
        v = places.finite(p, float(rng.choice(ORACLE_EPSILONS)))
        if n % 4 == 3:
            scale = Fraction(p) ** int(rng.integers(-2, 3))
            shift = suite.random_rational(rng, 9)
            residues = rng.permutation(p + 1)[:4]  # p stands for infinity
            pts = [INFINITY if r == p else scale * int(r) + shift for r in residues]
        else:
            height = int(rng.choice([3, 30, 200]))
            pts = []
            while len(pts) < 4:
                x = suite.random_rational(rng, height)
                if x not in pts:
                    pts.append(x)
            if n % 5 < 4:
                pts[n % 5] = INFINITY
        yield Quadruple(tuple(pts)), v


class TestPairingOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairing_route(self, seed):
        points = 0
        for quad, v in oracle_cases(1100 + seed, 5000):
            seg = lattes_segment(quad, v)
            assert seg == pairing_oracle(quad, v), (quad, v)
            points += seg.is_singleton
        assert points >= 1250  # the good-reduction quarter at least


class TestEquilibriumMeasure:
    def test_wraps_segment(self):
        mu = equilibrium_measure_ua(["inf", 0, 1, 25], V5)
        assert mu.kind == "lebesgue"
        mu2 = equilibrium_measure_ua([1, 2, 3, "inf"], V5)
        assert mu2.kind == "dirac"

    def test_residue_char_two(self):
        with pytest.raises(ResidueCharTwo):
            equilibrium_measure_ua([1, 3, 5, "inf"], places.finite(2))
        with pytest.raises(ResidueCharTwo):
            equilibrium_measure_ua([1, 3, 5, "inf"], places.ARCH)


class TestLegendreMap:
    def test_pole_at_zero(self):
        assert legendre_lattes_eval(2, 0) is INFINITY

    def test_fixed_infinity(self):
        assert legendre_lattes_eval(2, "inf") is INFINITY

    def test_rational_value(self):
        assert legendre_lattes_eval(2, 3) == Fraction(49, 24)

    def test_postcritical_set(self):
        assert suite.postcritical_containment(np.random.default_rng(44), 100, 60)

    def test_complex_evaluation(self):
        lam = Fraction(2)
        z = 1.5 + 0.5j
        got = legendre_lattes_eval(lam, z)
        expected = (z * z - 2) ** 2 / (4 * z * (z - 1) * (z - 2))
        assert abs(got - expected) < 1e-14


class TestNormalization:
    def test_already_normalized(self):
        lam, mob = normalize_to_legendre(["inf", 0, 1, 5])
        assert lam.lam == 5 and mob.is_identity

    def test_swapped(self):
        lam, _ = normalize_to_legendre([0, "inf", 1, 2])
        assert lam.lam == Fraction(1, 2)

    def test_generic(self):
        lam, _ = normalize_to_legendre([1, 2, 3, 4])
        assert lam.lam == Fraction(4, 3)

    def test_round_trip(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            quad = random_quadruple(rng, 15)
            lam, mob = normalize_to_legendre(quad)
            inv = mob.inverse()
            images = [inv.apply(t) for t in (INFINITY, Fraction(0), Fraction(1), lam.lam)]
            assert tuple(images) == quad.points


class TestTorsionImages:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, 1e308])
    def test_tolerance_out_of_range_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            torsion_images(Fraction(2), 1, tol=tol)

    def test_level_zero(self):
        pts = torsion_images(Fraction(2), 0)
        got = {("inf" if p is INFINITY else p) for p, _ in pts}
        assert got == {0j, 1 + 0j, 2 + 0j, "inf"}

    def test_multiplicity_count(self):
        pts = torsion_images(Fraction(2), 1)
        assert sum(m for _, m in pts) == 16
        assert len(pts) == 10  # 2-power torsion images: 2*4^n + 2 distinct points

    def test_distinct_counts_levels(self):
        for level, expected in ((0, 4), (1, 10), (2, 34), (3, 130)):
            assert len(torsion_images(Fraction(2), level)) == expected

    def test_forward_containment(self):
        lam = Fraction(2)
        prev = {p for p, _ in torsion_images(lam, 1)}
        cur = [p for p, _ in torsion_images(lam, 2)]
        for p in cur:
            img = legendre_lattes_eval(lam, p) if p is not INFINITY else INFINITY
            if img is INFINITY:
                assert any(q is INFINITY for q in prev)
                continue
            assert min(abs(img - q) for q in prev if q is not INFINITY) < 1e-9

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            torsion_images(Fraction(2), 6)

    def test_quadruple_input_pulls_back(self):
        pts = torsion_images(["inf", "0", "1", "2"], 0)
        got = {("inf" if p is INFINITY else p) for p, _ in pts}
        assert got == {0j, 1 + 0j, 2 + 0j, "inf"}

    def test_lambda_infinity_is_degenerate(self):
        with pytest.raises(DegenerateQuadruple):
            torsion_images("inf", 1)
        with pytest.raises(DegenerateQuadruple):
            sample_lattes_equilibrium(INFINITY, 200)


def dedup_quadratic(pts, tol):
    """The former O(n^2) greedy scan: each point joins the first kept point within tol."""
    finite, inf_mult = [], 0
    for p, m in pts:
        if p is INFINITY:
            inf_mult += m
            continue
        for i, (q, mq) in enumerate(finite):
            if abs(p - q) <= tol:
                finite[i] = (q, mq + m)
                break
        else:
            finite.append((p, m))
    finite.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    return finite + ([(INFINITY, inf_mult)] if inf_mult else [])


class TestDedup:
    # steps of a chain, in units of tol: just under and just over the
    # threshold, and a few clearly inside or outside it
    STEPS = (1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6, 1.0, 0.5, 2.0)

    @staticmethod
    def _chains(rng, tol, count=150):
        pts = []
        for _ in range(count):
            z = complex(*rng.normal(size=2)) * 10.0 ** int(rng.integers(-3, 5))
            axis = rng.random() < 0.5  # steps along the real axis cross cell edges
            for _ in range(int(rng.integers(1, 7))):
                pts.append((z, int(rng.integers(1, 5))))
                step = tol * float(rng.choice(TestDedup.STEPS))
                z = z + (step if axis else step * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            if rng.random() < 0.1:
                pts.append((INFINITY, 1))
        order = rng.permutation(len(pts))
        return [pts[i] for i in order[: len(pts) // 2]] + pts  # revisit half the points

    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 0.25, 2.0 ** -20, 3.0, 5e-324, 1e-200, 1e300])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quadratic_scan(self, tol, seed):
        pts = self._chains(np.random.default_rng(seed), tol)
        assert lattes._dedup_points(pts, tol) == dedup_quadratic(pts, tol)

    def test_chain_joins_first_point_only(self):
        tol = 1e-9
        pts = [(0j, 1), (0.9e-9 + 0j, 1), (1.8e-9 + 0j, 1), (0.95e-9 + 0j, 2)]
        assert lattes._dedup_points(pts, tol) == [(0j, 4), (1.8e-9 + 0j, 1)]

    def test_torsion_level_five_matches_quadratic_scan(self):
        lamc = 3 + 0j
        current = [(p, 1) for p in lattes_preimages(INFINITY, lamc)]
        for _ in range(5):
            raw = [(p, m) for w, m in current for p in lattes_preimages(w, lamc)]
            current = lattes._dedup_points(raw, 1e-9)
            assert current == dedup_quadratic(raw, 1e-9)


class TestSemiconjugacy:
    def test_images_of_preimages(self):
        rng = np.random.default_rng(46)
        lam = 2 + 0j
        for _ in range(25):
            t = complex(rng.normal(), rng.normal())
            pre = lattes_preimages(t, lam)
            assert len(pre) == 4
            for p in pre:
                back = legendre_lattes_eval(Fraction(2), p)
                assert abs(back - t) < 1e-6


LAMBDAS = (2, 3, -1, 1.001, 0.5 + 0.5j)


def _probe_values(lam):
    near_branch = [e + 1e-6 * complex(0.6, 0.8) for e in (0, 1, lam)]
    return near_branch + [cmath.rect(r, arg) for r, arg in ((1, 1.27), (1e3, 0.7), (1e6, -2.1))]


class TestPreimageRoute:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_accuracy_against_mpmath(self, lam):
        lamc = complex(lam)
        with mpmath.workdps(50):
            lm = mpmath.mpc(lamc)
            for w in _probe_values(lamc):
                wm = mpmath.mpc(w)
                coeffs = [1, -4 * wm, 4 * wm * (1 + lm) - 2 * lm, -4 * wm * lm, lm * lm]
                exact = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
                got = lattes_preimages(w, lamc)
                assert len(got) == 4
                for r in exact:
                    err = min(abs(mpmath.mpc(p) - r) for p in got)
                    assert err <= 1e-13 * abs(r), (lam, w)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_branch_values_give_coincident_pairs(self, lam):
        lamc = complex(lam)
        for w in (0j, 1 + 0j, lamc):
            pts = lattes_preimages(w, lamc)
            assert len(pts) == 4
            for p in pts:
                near = [q for q in pts if abs(q - p) <= 1e-12]
                assert len(near) == 2, (lam, w, pts)

    def test_infinity(self):
        assert lattes_preimages(INFINITY, Fraction(2)) == [0j, 1 + 0j, 2 + 0j, INFINITY]

    @pytest.mark.parametrize("source", [Fraction(2), ["0", "1", "2", "5"]])
    def test_level_five_torsion_counts(self, source):
        pts = torsion_images(source, 5)
        assert sum(m for _, m in pts) == 4**6
        assert len(pts) == 2050
