import cmath
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from arakelov import lattes, places, suite, tree
from arakelov.energy_arch import LattesMeasure, sample_lattes_equilibrium
from arakelov.errors import DegenerateQuadruple, LevelTooLarge, NonFiniteResult, ResidueCharTwo
from arakelov.lattes import (
    MobiusMap,
    Quadruple,
    as_side,
    cross_ratio,
    cross_ratio_orbit,
    equilibrium_measure_ua,
    lattes_preimages,
    lattes_segment,
    lattes_segment_length_units,
    legendre_lattes_eval,
    normalize_to_legendre,
    torsion_image_arrays,
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

    def test_determinant_quotient_oracle(self):
        # the library computes lam only as M(g4); the quotient is the independent formula
        def det(p, q):
            (x1, y1), (x2, y2) = ((1, 0) if g is INFINITY else (g, 1) for g in (p, q))
            return x1 * y2 - x2 * y1

        def quotient(g1, g2, g3, g4):
            return Fraction(det(g3, g1) * det(g4, g2)) / (det(g3, g2) * det(g4, g1))

        rng = np.random.default_rng(46)
        for _ in range(1000):
            quad = random_quadruple(rng, 15)
            finite = quad.finite_points()[:3]
            with_inf = [Quadruple((*finite[:i], INFINITY, *finite[i:])) for i in range(4)]
            for q in [quad, *with_inf]:
                lam = quotient(*q.points)
                assert normalize_to_legendre(q)[0] == lam == cross_ratio(*q.points), q


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
        quad = as_side(["inf", "0", "1", "1/9"])
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
    leaves = [tree.type1(p) for p in as_side(gamma).points]
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

    def test_side_with_identity_map(self):
        assert legendre_lattes_eval(("inf", 0, 1, 2), 3) == Fraction(49, 24)
        with pytest.raises(TypeError):
            legendre_lattes_eval((1, 2, 3, 4), 3)


class TestNormalization:
    def test_already_normalized(self):
        lam, mob = normalize_to_legendre(["inf", 0, 1, 5])
        assert lam == 5 and mob.is_identity

    def test_swapped(self):
        lam, _ = normalize_to_legendre([0, "inf", 1, 2])
        assert lam == Fraction(1, 2)

    def test_generic(self):
        lam, _ = normalize_to_legendre([1, 2, 3, 4])
        assert lam == Fraction(4, 3)

    def test_round_trip(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            quad = random_quadruple(rng, 15)
            lam, mob = normalize_to_legendre(quad)
            inv = MobiusMap(mob.d, -mob.b, -mob.c, mob.a)
            images = [inv.apply(t) for t in (INFINITY, Fraction(0), Fraction(1), lam)]
            assert tuple(images) == quad.points


class TestTorsionImages:
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

    def test_non_finite_images_raise(self):
        # 1 + 10^-16 rounds to the critical value 1: most level-5 images are NaN
        with pytest.raises(NonFiniteResult, match="1314 torsion images .* at level 5"):
            torsion_images(Fraction(10**16 + 1, 10**16), 5)

    def test_quadruple_input_pulls_back(self):
        pts = torsion_images(["inf", "0", "1", "2"], 0)
        got = {("inf" if p is INFINITY else p) for p, _ in pts}
        assert got == {0j, 1 + 0j, 2 + 0j, "inf"}

    @pytest.mark.parametrize("quad", [("0", "1", "inf", "5"), ("1/3", "-2", "7", "inf")], ids=str)
    def test_quadruple_branch_points_are_exact(self, quad):
        # the quadruple's own points, with no round trip through the Legendre frame
        want = {INFINITY if g == "inf" else complex(Fraction(g)) for g in quad}
        for level in range(3):
            assert {p for p, m in torsion_images(quad, level) if m == 1} == want

    def test_lambda_infinity_is_degenerate(self):
        with pytest.raises(DegenerateQuadruple):
            torsion_images("inf", 1)
        with pytest.raises(DegenerateQuadruple):
            sample_lattes_equilibrium(INFINITY, 200)
        with pytest.raises(DegenerateQuadruple):
            sample_lattes_equilibrium("inf", 200)

    def test_parameter_is_its_normalized_quadruple(self):
        # one route: the same bytes, zero signs included
        for lam in (2, Fraction(1, 9), Fraction(-3, 4), Fraction(1001, 1000)):
            for level in range(5):
                got = repr(torsion_images(lam, level))
                assert got == repr(torsion_images(("inf", 0, 1, lam), level)), (lam, level)

    @pytest.mark.parametrize("side", [0.5, (1, 2, 3, 4), [0, "inf", 1, 2]], ids=repr)
    def test_sampler_takes_a_legendre_parameter(self, side):
        # a float would change the finite places; a quadruple's measure is not mu_lambda
        with pytest.raises(TypeError):
            sample_lattes_equilibrium(side, 200)


@pytest.mark.parametrize(
    "lam, message",
    [
        (0, "points 1 and 3 of (inf, 0, 1, 0) coincide"),
        (1, "points 2 and 3 of (inf, 0, 1, 1) coincide"),
        ("inf", "points 0 and 3 of (inf, 0, 1, inf) coincide"),
    ],
)
def test_degenerate_parameter_is_read_by_one_rule(lam, message):
    readers = (
        normalize_to_legendre,
        lambda side: torsion_images(side, 1),
        lambda side: sample_lattes_equilibrium(side, 200),
        lambda side: legendre_lattes_eval(side, 3),
        lambda side: legendre_lattes_eval(side, 3 + 1j),
    )
    for read in readers:
        with pytest.raises(DegenerateQuadruple) as err:
            read(lam)
        assert str(err.value) == message


def dedup_quadratic(pts, tol):
    """The former greedy scan: each point joins the first kept point within tol.
    numpy preselects the kept points within 2 tol, and abs(p - q) <= tol decides."""
    kept, near_kept, mults, inf_mult = [], np.empty(len(pts), dtype=complex), [], 0
    for p, m in pts:
        if p is INFINITY:
            inf_mult += m
            continue
        near = np.flatnonzero(np.abs(near_kept[: len(kept)] - p) <= 2 * tol).tolist()
        hit = next((i for i in near if abs(p - kept[i]) <= tol), None)
        if hit is None:
            near_kept[len(kept)] = p
            kept.append(p)
            mults.append(m)
        else:
            mults[hit] += m
    finite = sorted(zip(kept, mults), key=lambda pm: (pm[0].real, pm[0].imag))
    return finite + ([(INFINITY, inf_mult)] if inf_mult else [])


def torsion_oracle(source, max_level, tol=1e-9):
    """The former route to ``torsion_images`` at levels 0..max_level: scalar
    preimages level by level from [0, 1, lam, inf], merged within tol, then
    each point pulled back through the inverse Moebius map and merged again."""
    lam, mobius = lattes.normalize_to_legendre(source)
    lamc = complex(lam)
    inv = MobiusMap(mobius.d, -mobius.b, -mobius.c, mobius.a)

    def preimages(w):
        return [0j, 1 + 0j, lamc, INFINITY] if w is INFINITY else lattes_preimages(w, lamc)

    current = [(p, 1) for p in preimages(INFINITY)]
    levels = []
    for level in range(max_level + 1):
        if level:
            current = dedup_quadratic([(p, m) for w, m in current for p in preimages(w)], tol)
        moved = [(inv.apply(p), m) for p, m in current]
        moved = [(p if p is INFINITY else complex(p), m) for p, m in moved]
        levels.append(dedup_quadratic(moved, tol))
    return levels


def assert_same_images(got, want, rel=1e-12):
    """Equal distinct counts and multiplicities, each point within rel max(1, |p|)
    of its nearest counterpart, and that nearest-point map a bijection."""
    assert len(got) == len(want)
    assert [m for p, m in got if p is INFINITY] == [m for p, m in want if p is INFINITY]
    gz, gm = (np.array(c) for c in zip(*[(p, m) for p, m in got if p is not INFINITY]))
    wz, wm = (np.array(c) for c in zip(*[(p, m) for p, m in want if p is not INFINITY]))
    nearest = np.concatenate(
        [np.abs(gz[s : s + 256, None] - wz).argmin(axis=1) for s in range(0, len(gz), 256)]
    )
    assert np.array_equal(np.sort(nearest), np.arange(len(wz)))
    assert np.all(np.abs(gz - wz[nearest]) <= rel * np.maximum(1.0, np.abs(wz[nearest])))
    assert np.array_equal(gm, wm[nearest])


TORSION_PANEL = [
    *map(Fraction, ("2", "3", "4", "5", "-1", "1/9", "1001/1000", "-1000")),
    ("inf", "0", "1", "5"),
    ("0", "1", "inf", "5"),
    ("0", "1", "3", "inf"),
    ("0", "1", "2", "5"),
    ("1/2", "-3", "2", "7/3"),
    ("-1", "1/3", "4", "2"),
    ("0", "1", "2", "-1"),  # lambda = 4 and M(inf) = 2 = sqrt(lambda): inf is critical
]


class TestTorsionOracle:
    @pytest.mark.parametrize("source", TORSION_PANEL, ids=str)
    def test_matches_former_route(self, source):
        for level, want in enumerate(torsion_oracle(source, 5)):
            assert_same_images(torsion_images(source, level), want)


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

    @pytest.mark.parametrize("source", [Fraction(2), ["0", "1", "2", "5"]])
    def test_level_five_torsion_counts(self, source):
        pts = torsion_images(source, 5)
        assert sum(m for _, m in pts) == 4**6
        assert len(pts) == 2050


# seven parameters and six seeded random quadruples; walks on four of them
PIN_SIDES = [2, 3, 4, 5, -1, Fraction(1, 9), Fraction(35, 64)]
_PIN_RNG = np.random.default_rng(11)
PIN_SIDES += [random_quadruple(_PIN_RNG, 20) for _ in range(6)]


class TestBitwisePins:
    """sha256 of raw float bits, recorded before the complex sort and the
    preallocated preimage kernel: both must leave every bit as it was."""

    def test_torsion_image_arrays_pinned(self):
        digest = hashlib.sha256()
        for side in PIN_SIDES:
            for level in range(6):
                points, mults, inf_mult = torsion_image_arrays(side, level)
                digest.update(points.view(np.int64).tobytes())
                digest.update(mults.astype(np.int64).tobytes())
                digest.update(repr(inf_mult).encode())
        want = "ca8ed5f722ffceb9be92928ff749d696fba7944a4cbbb5c88da411e8d5ecaaa2"
        assert digest.hexdigest() == want

    def test_lattes_walk_pinned(self):
        # levels 2, 6 and 7
        digest = hashlib.sha256()
        for side in PIN_SIDES[5:9]:
            for n in (16, 1500, 20000):
                coarse, fine, logs = LattesMeasure(side, n)._walk()
                for a in (coarse, fine, *logs):
                    digest.update(a.view(np.int64).tobytes())
        want = "e5ecb2a93a4e7b4b3fbab6a2c86d7c6712725e445ed7d8e02b2e42d318db2119"
        assert digest.hexdigest() == want
