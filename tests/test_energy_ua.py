import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arakelov import energy_ua, places, suite, tree
from arakelov.energy_ua import (
    energy_closed_form,
    energy_oracle,
    energy_union_check,
    lower_bound_report,
    mutual_energy_raw,
    pair_raw,
    segment_measure,
    sigma_potential,
)
from arakelov.errors import (
    BadBoundParameters,
    BadRadii,
    BranchPointCenter,
    NotAbuttable,
    PlaceMismatch,
    ResidueCharTwo,
)
from arakelov.lattes import local_discrepancy
from arakelov.suite import random_measure

V3 = places.finite(3)
V5 = places.finite(5)


def seg_measure(a, b, v=V5):
    return segment_measure(tree.segment_between(a, b, v))


class TestSigmaPotential:
    def test_midbranch_value(self):
        # middle branch at w = 1/2 with r = 1, s = e: w^2/2 - 0 + 1/2 = 5/8
        got = sigma_potential(0, 1.0, math.e, tree.eta(0, 0.5), V5)
        assert got == pytest.approx(0.625, abs=1e-15)

    def test_plateau_below(self):
        got = sigma_potential(0, 1.0, math.e ** 2, tree.eta(0, -5.0), V5)
        assert got == pytest.approx(2.0, abs=1e-12)  # (s^2 - r^2 logs)/2 = 4/2

    def test_continuity_at_branch_points(self):
        r, s = 0.7, 2.3
        lo, hi = math.log(r), math.log(s)
        for w in (lo, hi):
            eps = 1e-9
            below = sigma_potential(0, r, s, tree.eta(0, w - eps), V5)
            above = sigma_potential(0, r, s, tree.eta(0, w + eps), V5)
            assert below == pytest.approx(above, abs=1e-7)

    def test_outer_branch_matches_log_growth(self):
        r, s = 1.0, math.e
        got = sigma_potential(0, r, s, tree.eta(0, 4.0), V5)
        assert got == pytest.approx((math.log(s) - math.log(r)) * 4.0, abs=1e-12)

    def test_bad_radii(self):
        with pytest.raises(BadRadii):
            sigma_potential(0, 2.0, 1.0, tree.GAUSS, V5)
        with pytest.raises(BadRadii):
            sigma_potential(0, 0.0, 1.0, tree.GAUSS, V5)


class TestClosedForm:
    def test_identical_vanishes(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        assert energy_closed_form(ia, ia, V5) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_five_sixths(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        ib = seg_measure(tree.eta(0, 2.0), tree.eta(0, 3.0))
        assert energy_closed_form(ia, ib, V5) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_singletons_half_distance(self):
        s1 = seg_measure(tree.eta(0, 0.0), tree.eta(0, 0.0))
        s2 = seg_measure(tree.eta(0, 3.0), tree.eta(0, 3.0))
        assert energy_closed_form(s1, s2, V5) == pytest.approx(1.5, abs=1e-12)

    def test_nested_example(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 4.0))
        ib = seg_measure(tree.eta(0, 1.0), tree.eta(0, 2.0))
        # lb/6 formula route: 4/6 - 1/3 + 1/24 - (1*2)/(2*4) = 1/8
        assert energy_closed_form(ia, ib, V5) == pytest.approx(0.125, abs=1e-12)

    def test_symmetry_nonnegativity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p = int(rng.choice([3, 5, 7]))
            v = places.finite(p)
            ia, ib = random_measure(rng, v, 3.0), random_measure(rng, v, 3.0)
            e = energy_closed_form(ia, ib, v)
            assert e >= -1e-12
            assert e == pytest.approx(energy_closed_form(ib, ia, v), abs=1e-12)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            ia, ib = random_measure(rng, V5, 3.0), random_measure(rng, V5, 3.0)
            e = energy_closed_form(ia, ib, V5)
            same = tree.points_equal(ia.support.a, ib.support.a, V5) and tree.points_equal(
                ia.support.b, ib.support.b, V5
            )
            same = same or (
                tree.points_equal(ia.support.a, ib.support.b, V5)
                and tree.points_equal(ia.support.b, ib.support.a, V5)
            )
            if same:
                assert e == pytest.approx(0.0, abs=1e-12)
            elif e < 1e-12:
                # zero energy forces equal supports
                cfg = tree.classify_pair(ia.support, ib.support, V5)
                assert cfg.variant == "meeting"
                assert cfg.l_ab == pytest.approx(cfg.la, abs=1e-9)
                assert cfg.l_ab == pytest.approx(cfg.lb, abs=1e-9)

    def test_matches_potential_route(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = int(rng.choice([3, 5, 7]))
            v = places.finite(p)
            ia, ib = random_measure(rng, v, 3.0), random_measure(rng, v, 3.0)
            assert energy_closed_form(ia, ib, v) == pytest.approx(
                mutual_energy_raw(ia, ib, v), abs=1e-9
            )

    def test_concentric_closed_form(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        ib = seg_measure(tree.eta(0, 2.0), tree.eta(0, 3.0))
        assert energy_closed_form(ia, ib, V5) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_aligned_formula_agrees_with_dispatcher(self):
        # segments with no interior split points: E = la/6 + lb/6 + d/2
        rng = np.random.default_rng(24)
        for _ in range(50):
            r0 = float(rng.uniform(-2, 0))
            r1 = r0 + float(rng.uniform(0, 2))
            r2 = r1 + float(rng.uniform(0, 2))
            r3 = r2 + float(rng.uniform(0, 2))
            ia = seg_measure(tree.eta(0, r0), tree.eta(0, r1))
            ib = seg_measure(tree.eta(0, r2), tree.eta(0, r3))
            expected = (r1 - r0) / 6 + (r3 - r2) / 6 + (r2 - r1) / 2
            assert energy_closed_form(ia, ib, V5) == pytest.approx(expected, abs=1e-12)

    def test_nested_formula_agrees_with_dispatcher(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            r0 = float(rng.uniform(-2, 0))
            r3 = r0 + float(rng.uniform(2, 4))
            r1 = r0 + float(rng.uniform(0, (r3 - r0) / 2))
            r2 = r1 + float(rng.uniform(0, r3 - r1))
            big = seg_measure(tree.eta(0, r0), tree.eta(0, r3))
            small = seg_measure(tree.eta(0, r1), tree.eta(0, r2))
            la, lb = r2 - r1, r3 - r0
            lp, lpp = r1 - r0, r3 - r2
            expected = lb / 6 - la / 3 + la * la / (6 * lb) - lp * lpp / (2 * lb)
            assert energy_closed_form(big, small, V5) == pytest.approx(expected, abs=1e-12)


def atom_points(mu, n, v):
    """The oracle's atoms one by one through tree.point_on_path."""
    seg = mu.support
    if mu.kind == "dirac":
        return [seg.a]
    return [tree.point_on_path(seg.a, seg.b, v, (k + 0.5) * seg.length / n) for k in range(n)]


def dense_block_sum(a, wa, b, wb):
    return float(wa @ np.maximum(a[:, None], b[None, :]) @ wb)


def dense_oracle(ia, ib, v, n):
    """energy_oracle's double sum with per-atom points and dense n x n blocks."""
    groups = {}
    for sign, mu in ((1.0, ia), (-1.0, ib)):
        w = sign / (1 if mu.kind == "dirac" else n)
        for pt in atom_points(mu, n, v):
            groups.setdefault(pt.center, []).append((pt.log_radius, w))
    arrs = {c: (np.array([r for r, _ in g]), np.array([w for _, w in g])) for c, g in groups.items()}
    centers = list(arrs)
    total = 0.0
    for i, ci in enumerate(centers):
        for cj in centers[i:]:
            (ri, wi), (rj, wj) = arrs[ci], arrs[cj]
            log_d = places.NEG_INF if ci == cj else tree.hsia_log_kernel(tree.type1(ci), tree.type1(cj), v)
            block = dense_block_sum(np.maximum(ri, log_d), wi, np.maximum(rj, log_d), wj)
            total += block if ci == cj else 2.0 * block
    return -0.5 * total


def eta_seg(c1, r1, c2, r2, v=V5):
    return seg_measure(tree.eta(c1, r1), tree.eta(c2, r2), v)


# pairs built for ties: equal radii across the two measures, or a center
# distance above every radius, which makes whole blocks constant
TIED_PAIRS = {
    "self": (eta_seg(0, -3.0, 5, -2.0), eta_seg(0, -3.0, 5, -2.0)),
    "concentric_shared_radii": (eta_seg(0, 2.0, 0, 0.0), eta_seg(0, 0.0, 0, 2.0)),
    "concentric_nested": (eta_seg(0, 0.0, 0, 4.0), eta_seg(0, 1.0, 0, 3.0)),
    "dirac_vs_segment": (eta_seg(0, 1.0, 0, 1.0), eta_seg(0, 0.0, 0, 2.0)),
    "equidistant_centers": (eta_seg(1, -2.0, 2, -2.0), eta_seg(0, -3.0, 0, -1.0)),
}


class TestOracle:
    @pytest.mark.parametrize("n", [2, 3, 10, 257])
    @pytest.mark.parametrize("name", list(TIED_PAIRS))
    def test_matches_dense_double_sum(self, name, n):
        ia, ib = TIED_PAIRS[name]
        for a, b in ((ia, ib), (ib, ia)):
            got, want = energy_oracle(a, b, V5, n=n), dense_oracle(a, b, V5, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @staticmethod
    def assert_discretize_bitwise(mu, n, v):
        # per-atom tree.point_on_path is the oracle of the grouped atoms
        groups = energy_ua._discretize(mu, n)
        pts = atom_points(mu, n, v)
        assert [c for c, r, _ in groups for _ in r] == [pt.center for pt in pts]
        got = np.concatenate([r for _, r, _ in groups])
        want = np.array([pt.log_radius for pt in pts])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.concatenate([w for _, _, w in groups]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_discretize_radii_bitwise(self):
        rng = np.random.default_rng(101)  # criterion 1's random pairs
        for i in range(300):
            v = places.finite(int(rng.choice([3, 5, 7])))
            for mu in (random_measure(rng, v, 3.0), random_measure(rng, v, 3.0)):
                self.assert_discretize_bitwise(mu, 2000 if i < 5 else 101, v)
        # the tied pairs put atoms exactly on a join (s == up), e.g. n = 3 on
        # the equidistant centers
        for n in (2, 3, 10, 257):
            for pair in TIED_PAIRS.values():
                for mu in pair:
                    self.assert_discretize_bitwise(mu, n, V5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.floats(-1.0, 1.0)), min_size=1, max_size=30),
        st.lists(st.tuples(st.integers(-4, 4), st.floats(-1.0, 1.0)), min_size=1, max_size=30),
    )
    def test_block_sum_matches_dense(self, xs, ys):
        # radii on a coarse grid, so that ties are frequent
        (a, wa), (b, wb) = (np.array(z, dtype=float).T for z in (xs, ys))
        a, b = a / 2.0, b / 2.0
        scale = max(1.0, float(np.abs(wa).sum() * np.abs(wb).sum() * 2.0))
        got = energy_ua._block_sum(a, wa, b, wb)
        assert abs(got - dense_block_sum(a, wa, b, wb)) <= 1e-12 * scale

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.booleans(), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=40,
        )
    )
    @example([(3, False, 0.5)])
    @example([(2, False, 0.25)] * 9)
    @example([(0, neg, (-1.0) ** k * (k + 1) / 8.0) for k, neg in enumerate([0, 1, 1, 0, 1, 0])])
    def test_self_block_sum_is_block_sum_bitwise(self, xs):
        # radii on a coarse grid, so that runs of ties are long, with -0.0
        # and 0.0 mixed in; the weights are signed
        a = np.array([math.copysign(k / 2.0, -1.0 if neg else 1.0) for k, neg, _ in xs])
        w = np.array([wt for _, _, wt in xs])
        got = energy_ua._self_block_sum(a, w)
        assert got.hex() == energy_ua._block_sum(a, w, a.copy(), w).hex()

    def test_identical_exact_zero(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        assert energy_oracle(ia, ia, V5, n=50) == pytest.approx(0.0, abs=1e-12)

    def test_singletons(self):
        s1 = seg_measure(tree.eta(0, 0.0), tree.eta(0, 0.0))
        s2 = seg_measure(tree.eta(0, 3.0), tree.eta(0, 3.0))
        assert energy_oracle(s1, s2, V5, n=10) == pytest.approx(1.5, abs=1e-12)

    def test_aligned_converges(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        ib = seg_measure(tree.eta(0, 2.0), tree.eta(0, 3.0))
        assert energy_oracle(ia, ib, V5, n=2000) == pytest.approx(5.0 / 6.0, abs=1e-2)

    def test_needs_two_atoms(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        with pytest.raises(ValueError):
            energy_oracle(ia, ia, V5, n=1)


class TestPlaceCheck:
    # two segments cut at p = 5; the arcs come from their place, the kernel from v
    IA = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
    IB = seg_measure(tree.eta(1, -1.0), tree.eta(1, 1.0))

    @pytest.mark.parametrize("route", [pair_raw, mutual_energy_raw, energy_closed_form, energy_oracle])
    def test_segments_pair_only_at_their_place(self, route):
        assert math.isfinite(route(self.IA, self.IB, V5))
        with pytest.raises(PlaceMismatch):
            route(self.IA, self.IB, V3)

    def test_either_side_is_checked(self):
        atoms = [(tree.eta(0, 0.5), 1.0)]
        for mu, nu in ((self.IA, atoms), (atoms, self.IA)):
            assert math.isfinite(pair_raw(mu, nu, V5))
            with pytest.raises(PlaceMismatch):
                pair_raw(mu, nu, V3)
        assert math.isfinite(pair_raw(atoms, atoms, V3))  # atom lists carry no place


class TestUnionRecursion:
    def test_degenerate_singletons(self):
        z = tree.eta(0, 1.0)
        pt = segment_measure(tree.segment_between(z, z, V5))
        ia = seg_measure(tree.eta(1, -1.0), tree.eta(1, 0.0))
        lhs, rhs = energy_union_check(ia, pt, pt, V5)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(energy_closed_form(ia, pt, V5), abs=1e-12)

    def test_random_splits(self):
        rng = np.random.default_rng(31)
        assert suite.union_recursion(rng, 100, span=3.0, split=(0.1, 0.9)) <= 1e-10

    def test_singleton_segment_is_skipped(self, monkeypatch):
        # two equal ends, drawn without touching the rng, go before the
        # random draws: the result is that of the unpatched run
        expected = suite.union_recursion(np.random.default_rng(31), 5, span=3.0, split=(0.1, 0.9))
        draws = iter([tree.GAUSS, tree.GAUSS])
        random_point = suite.random_point
        monkeypatch.setattr(suite, "random_point",
                            lambda rng, v, span: next(draws, None) or random_point(rng, v, span))
        got = suite.union_recursion(np.random.default_rng(31), 5, span=3.0, split=(0.1, 0.9))
        assert got == expected and next(draws, None) is None

    def test_snapped_piece_is_refused(self):
        # a piece 2.2e-10 long is snapped to a point and its weight would be
        # dropped: lhs - rhs was 1.46e-10 against the Gauss Dirac
        v = places.finite(3)
        seg = tree.segment_between(tree.GAUSS, tree.eta(0, math.log(3) / 2), v)
        mid = tree.point_on_path(seg.a, seg.b, v, 4e-10 * seg.length)
        b1, b2 = (seg_measure(x, y, v) for x, y in ((seg.a, mid), (mid, seg.b)))
        assert b1.support.is_singleton
        with pytest.raises(NotAbuttable, match="snapped"):
            energy_union_check(seg_measure(tree.GAUSS, tree.GAUSS, v), b1, b2, v)

    def test_not_abuttable(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        b1 = seg_measure(tree.eta(0, 2.0), tree.eta(0, 3.0))
        b2 = seg_measure(tree.eta(0, 4.0), tree.eta(0, 5.0))
        with pytest.raises(NotAbuttable):
            energy_union_check(ia, b1, b2, V5)


class TestLowerBounds:
    def test_disjoint_example(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 1.0))
        ib = seg_measure(tree.eta(0, 2.0), tree.eta(0, 3.0))
        rep = lower_bound_report(ia, ib, V5)
        assert rep["energy"] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert rep["bounds"]["disjoint_quarter"]["bound"] == pytest.approx(
            7.0 / 12.0, abs=1e-12
        )
        assert rep["all_hold"]

    def test_identical_zero_bounds(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 2.0))
        rep = lower_bound_report(ia, ia, V5)
        assert rep["all_hold"]

    def test_nested_gap_bound(self):
        # la=4, lb=1 centered: E = 3/32, gap bound (la-lb)^2/(24 max) = 9/96
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 4.0))
        ib = seg_measure(tree.eta(0, 1.5), tree.eta(0, 2.5))
        rep = lower_bound_report(ia, ib, V5)
        assert rep["energy"] == pytest.approx(3.0 / 32.0, abs=1e-12)
        assert rep["bounds"]["meeting_gap"]["bound"] == pytest.approx(9.0 / 96.0, abs=1e-12)
        assert rep["all_hold"]
        # the variant printed with denominator 6 fails on exactly this pair
        printed = rep["bounds"]["meeting_gap_printed"]
        assert printed["bound"] == pytest.approx(9.0 / 24.0, abs=1e-12)
        assert not printed["holds"]

    def test_lam_rho_bound(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 4.0))
        ib = seg_measure(tree.eta(0, 1.5), tree.eta(0, 2.5))
        cfg = tree.classify_pair(ia.support, ib.support, V5)
        lam = max(cfg.la - cfg.l_ab, cfg.lb - cfg.l_ab)
        rho = max(cfg.la, cfg.lb) / lam
        rep = lower_bound_report(ia, ib, V5, lam=lam, rho=rho)
        assert rep["bounds"]["meeting_lam_rho"]["holds"]

    def test_bad_parameters(self):
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 4.0))
        ib = seg_measure(tree.eta(0, 1.0), tree.eta(0, 2.0))
        with pytest.raises(BadBoundParameters):
            lower_bound_report(ia, ib, V5, lam=100.0, rho=1.0)
        with pytest.raises(BadBoundParameters):
            lower_bound_report(ia, ib, V5, lam=1.0, rho=None)
        dis = seg_measure(tree.eta(0, 5.0), tree.eta(0, 6.0))
        with pytest.raises(BadBoundParameters):
            lower_bound_report(ia, dis, V5, lam=1.0, rho=10.0)

    @pytest.mark.parametrize(
        "lam, rho", [(1.0, math.nan), (1.0, math.inf), (0.0, math.inf), (math.nan, 4.0)]
    )
    def test_non_finite_parameters(self, lam, rho):
        # a NaN rho used to record a failing NaN bound, and an infinite rho a
        # vacuous bound of 0 that held
        ia = seg_measure(tree.eta(0, 0.0), tree.eta(0, 4.0))
        ib = seg_measure(tree.eta(0, 1.0), tree.eta(0, 3.0))
        assert lower_bound_report(ia, ib, V5, lam=1.0, rho=4.0)["all_hold"]
        with pytest.raises(BadBoundParameters):
            lower_bound_report(ia, ib, V5, lam=lam, rho=rho)


class TestFlowScaling:
    def test_energy_scales_linearly(self):
        # build the same configuration from rational data at eps = 1 and eps = 1/2
        from arakelov.lattes import equilibrium_measure_ua

        quad_a = ["inf", "0", "1", Fraction(1, 9)]
        quad_b = [Fraction(3), Fraction(1, 3), "1", "inf"]
        for eps in (0.5, 2.0):
            v1 = places.finite(3)
            ve = places.finite(3, eps)
            e1 = energy_closed_form(
                equilibrium_measure_ua(quad_a, v1), equilibrium_measure_ua(quad_b, v1), v1
            )
            ee = energy_closed_form(
                equilibrium_measure_ua(quad_a, ve), equilibrium_measure_ua(quad_b, ve), ve
            )
            assert ee == pytest.approx(eps * e1, abs=1e-12)


class TestLocalDiscrepancy:
    def test_good_reduction_vanishes(self):
        assert local_discrepancy([1, 2, 3, "inf"], 0, 1.0, V5) == 0.0
        assert local_discrepancy([1, 2, 3, "inf"], 0, 0.2, V5) == 0.0

    def test_zero_radius(self):
        assert local_discrepancy(["inf", "0", "1", "1/9"], 5, 0.0, V3) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(BadRadii):
            local_discrepancy(["inf", "0", "1", "1/9"], 5, -1.0, V3)

    def test_oracle_agreement(self):
        # discretized double-sum oracle against the exact potential route
        from arakelov.energy_ua import _discretize
        from arakelov.lattes import equilibrium_measure_ua

        quad = ["inf", "0", "1", Fraction(1, 9)]
        for u, r in ((Fraction(5), 1.0), (Fraction(4), 3.0), (Fraction(1), None)):
            if u == 1:
                continue  # branch point, rejected below
            mu = equilibrium_measure_ua(quad, V3)
            groups = _discretize(mu, 4000)
            z1 = tree.type1(u)
            z2 = tree.TreePoint(u, math.log(r))
            acc = sum(
                w * (tree.hsia_log_kernel(tree.TreePoint(c, lr), z2, V3)
                     - tree.hsia_log_kernel(tree.TreePoint(c, lr), z1, V3))
                for c, radii, weights in groups
                for lr, w in zip(radii.tolist(), weights.tolist())
            )
            exact = local_discrepancy(quad, u, r, V3)
            assert exact == pytest.approx(abs(acc), abs=1e-6)

    def test_positive_case(self):
        # radius larger than the distance to the segment gives a real discrepancy
        got = local_discrepancy(["inf", "0", "1", Fraction(1, 9)], 4, 3.0, V3)
        assert got > 0.01

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointCenter):
            local_discrepancy(["inf", "0", "1", "1/9"], 1, 1.0, V3)

    def test_residue_char_two(self):
        with pytest.raises(ResidueCharTwo):
            local_discrepancy([1, 3, 5, "inf"], 0, 1.0, places.finite(2))

    @pytest.mark.parametrize("v", [places.finite(2), places.ARCH], ids=str)
    @pytest.mark.parametrize("u, r", [(0, 0.0), (1, 1.0), (0, -1.0)])
    def test_odd_place_guard_comes_first(self, v, u, r):
        # r = 0 returns early, u = 1 is a branch point and r < 0 is a bad
        # radius: at an excluded place each still raises ResidueCharTwo
        with pytest.raises(ResidueCharTwo):
            local_discrepancy([1, 3, 5, "inf"], u, r, v)
