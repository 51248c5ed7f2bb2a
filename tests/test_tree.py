import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from arakelov import places, tree
from arakelov.errors import ChartMismatch, PlaceMismatch, Type1Endpoint
from arakelov.suite import random_point, random_rational

V5 = places.finite(5)
V7 = places.finite(7)


# Moebius moves (isometries of the tree) for the invariance checks here and in
# test_properties


def translate_point(x: tree.TreePoint, c: Fraction | int, v: places.Place) -> tree.TreePoint:
    if x.at_infinity:
        return x
    c = places.parse_rational(c)
    return tree.TreePoint(x.center + c, x.log_radius)


def scale_point(x: tree.TreePoint, c: Fraction | int, v: places.Place) -> tree.TreePoint:
    c = places.parse_rational(c)
    if c == 0:
        raise ValueError("scaling by zero is not a Moebius map")
    if x.at_infinity:
        return x
    if x.is_type1:
        return tree.type1(c * x.center)
    return tree.TreePoint(c * x.center, x.log_radius + places.log_abs(c, v))


class TestJoin:
    def test_comparable(self):
        x, y = tree.eta(0, 0.0), tree.eta(0, 2.0)
        assert tree.points_equal(tree.join(x, y, V5), y, V5)

    def test_gauss_dominates_p(self):
        # |0 - p|_p = 1/p < 1, so the Gauss point is already the join
        v = places.finite(5)
        j = tree.join(tree.eta(0, 0.0), tree.eta(5, 0.0), v)
        assert tree.points_equal(j, tree.GAUSS, v)

    def test_unit_distance_centers(self):
        j = tree.join(tree.eta(1, -1.0), tree.eta(2, -1.0), V7)
        assert tree.points_equal(j, tree.eta(1, 0.0), V7)

    def test_axioms_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x, y = random_point(rng, V5, 3.0), random_point(rng, V5, 3.0)
            j = tree.join(x, y, V5)
            assert tree.points_equal(j, tree.join(y, x, V5), V5)
            assert tree.points_equal(tree.join(x, x, V5), x, V5)
            # join is an upper bound in the disk order
            assert tree.hsia_log_kernel(x, j, V5) == j.log_radius

    def test_infinity_rejected(self):
        with pytest.raises(ChartMismatch):
            tree.join(tree.POINT_AT_INFINITY, tree.GAUSS, V5)

    def test_needs_finite_place(self):
        with pytest.raises(PlaceMismatch):
            tree.join(tree.GAUSS, tree.GAUSS, places.ARCH)


class TestMedianAtInfinity:
    @pytest.mark.parametrize("slots", [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_two_or_three_infinite_points_give_infinity(self, slots):
        pts = [tree.eta(1, 0.5), tree.GAUSS, tree.eta("1/5", -1.0)]
        for i in slots:
            pts[i] = tree.POINT_AT_INFINITY
        assert tree.median(*pts, V5) is tree.POINT_AT_INFINITY


class TestRepr:
    def test_points(self):
        assert repr(tree.POINT_AT_INFINITY) == "TreePoint(inf)"
        assert repr(tree.type1(Fraction(-2, 3))) == "TreePoint(delta -2/3)"
        assert repr(tree.eta(3, 0.25)) == "TreePoint(eta 3, logr=0.25)"

    def test_segment(self):
        seg = tree.segment_between(tree.eta(0, 0.0), tree.eta("1/5", 1.5), V5)
        expected = "Segment(TreePoint(eta 0, logr=0), TreePoint(eta 1/5, logr=1.5), l=1.71888)"
        assert repr(seg) == expected


class TestHsiaKernel:
    def test_gauss_diagonal(self):
        assert tree.hsia_log_kernel(tree.GAUSS, tree.GAUSS, V5) == 0.0

    def test_comparable_max_rule(self):
        assert tree.hsia_log_kernel(tree.eta(0, 1.0), tree.eta(0, 3.0), V5) == 3.0

    def test_type1_pair(self):
        v = places.finite(5)
        got = tree.hsia_log_kernel(tree.type1(0), tree.type1(5), v)
        assert got == pytest.approx(-math.log(5), abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = random_point(rng, V7, 3.0), random_point(rng, V7, 3.0)
            assert tree.hsia_log_kernel(x, y, V7) == tree.hsia_log_kernel(y, x, V7)


class TestPathLength:
    def test_concentric(self):
        assert tree.path_length(tree.eta(0, 0.0), tree.eta(0, 2.0), V5) == 2.0

    def test_zero_on_diagonal(self):
        x = tree.eta(3, 1.5)
        assert tree.path_length(x, x, V5) == 0.0

    def test_two_descents(self):
        got = tree.path_length(tree.eta(0, -1.0), tree.eta(1, -1.0), V5)
        assert got == pytest.approx(2.0, abs=1e-15)

    def test_type1_endpoint(self):
        with pytest.raises(Type1Endpoint):
            tree.path_length(tree.type1(0), tree.GAUSS, V5)

    def test_metric_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y, z = (random_point(rng, V5, 3.0) for _ in range(3))
            dxy = tree.path_length(x, y, V5)
            assert dxy <= tree.path_length(x, z, V5) + tree.path_length(z, y, V5) + 1e-12

    def test_aligned_triple_additive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = random_point(rng, V5, 3.0), random_point(rng, V5, 3.0)
            total = tree.path_length(x, y, V5)
            if total == 0.0:
                continue
            mid = tree.point_on_path(x, y, V5, total * float(rng.uniform(0, 1)))
            d1 = tree.path_length(x, mid, V5)
            d2 = tree.path_length(mid, y, V5)
            assert d1 + d2 == pytest.approx(total, abs=1e-12)


class TestSegments:
    def test_unit_segment(self):
        seg = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 1.0), V5)
        assert seg.length == 1.0 and not seg.is_singleton

    def test_singleton(self):
        seg = tree.segment_between(tree.GAUSS, tree.GAUSS, V5)
        assert seg.is_singleton

    def test_two_arc_segment(self):
        seg = tree.segment_between(tree.eta(0, -1.0), tree.eta(1, -1.0), V5)
        assert seg.length == pytest.approx(2.0, abs=1e-15)

    def test_arcs_meet_at_the_join(self):
        x, y = tree.eta(0, 0.0), tree.eta("1/5", -1.0)
        seg = tree.segment_between(x, y, V5)
        top = math.log(5)
        assert seg.top == top
        assert seg.arcs == [(Fraction(0), 0.0, top), (Fraction(1, 5), -1.0, top)]
        # concentric: the upper end is the join and carries no arc
        assert tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 2.0), V5).arcs == [
            (Fraction(0), 0.0, 2.0)
        ]
        assert tree.segment_between(tree.GAUSS, tree.GAUSS, V5).arcs == []
        # within the point tolerance the segment snaps to a point and has no arcs
        assert tree.segment_between(x, tree.eta(0, 1e-12), V5).arcs == []

    def test_top_and_length_match_the_kernel_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            v = places.finite(int(rng.choice([3, 5, 7])))
            x, y = random_point(rng, v, 3.0), random_point(rng, v, 3.0)
            seg = tree.segment_between(x, y, v)
            k = tree.hsia_log_kernel(x, y, v)
            assert seg.top == k
            if not seg.is_singleton:
                assert seg.length == tree.path_length(x, y, v)
                assert seg.arcs == [
                    (p.center, p.log_radius, k) for p in (x, y) if k - p.log_radius > 0
                ]

    def test_segment_median_is_median(self):
        def exact(p):
            return p.at_infinity, p.center, p.log_radius.hex()

        rng = np.random.default_rng(13)
        for _ in range(200):
            v = places.finite(int(rng.choice([3, 5, 7])))
            seg = tree.segment_between(random_point(rng, v, 3.0), random_point(rng, v, 3.0), v)
            type2 = tree.TreePoint(random_rational(rng, 9), int(rng.integers(-3, 4)) * math.log(v.p))
            on_seg = tree.point_on_path(seg.a, seg.b, v, float(rng.uniform()) * seg.length)
            for z in (
                tree.type1(random_rational(rng, 9)),
                type2,
                random_point(rng, v, 3.0),  # type 3: a radius off the value group
                on_seg,
                seg.a,
                seg.b,
                tree.POINT_AT_INFINITY,
            ):
                want = tree.median(seg.a, seg.b, z, v)
                assert exact(tree._segment_median(seg, z)) == exact(want)
                assert tree.point_on_segment(z, seg) == tree.points_equal(want, z, v)

    def test_slotted_types(self):
        seg = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 4.0), V5)
        meeting = tree.classify_pair(
            seg, tree.segment_between(tree.eta(0, 1.0), tree.eta(0, 3.0), V5), V5
        )
        disjoint = tree.classify_pair(
            seg, tree.segment_between(tree.eta(1, -2.0), tree.eta(1, -1.0), V5), V5
        )
        assert (meeting.variant, disjoint.variant) == ("meeting", "disjoint")
        for obj in (seg.a, seg, meeting, disjoint):
            assert not hasattr(obj, "__dict__")
        for back in (pickle.loads(pickle.dumps(seg)), copy.deepcopy(seg)):
            assert back == seg and hash(back) == hash(seg)


class TestClassifyPair:
    def test_aligned_disjoint_facing_endpoints(self):
        ia = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 1.0), V5)
        ib = tree.segment_between(tree.eta(0, 2.0), tree.eta(0, 3.0), V5)
        cfg = tree.classify_pair(ia, ib, V5)
        assert cfg.variant == "disjoint"
        assert cfg.d_ab == pytest.approx(1.0, abs=1e-12)
        assert cfg.la1 * cfg.la2 == pytest.approx(0.0, abs=1e-12)
        assert cfg.lb1 * cfg.lb2 == pytest.approx(0.0, abs=1e-12)
        assert tree.points_equal(cfg.z_a, tree.eta(0, 1.0), V5)

    def test_identical_segments(self):
        ia = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 2.0), V5)
        cfg = tree.classify_pair(ia, ia, V5)
        assert cfg.variant == "meeting"
        assert cfg.l_ab == pytest.approx(cfg.la, abs=1e-12)
        assert (cfg.la1, cfg.la2, cfg.lb1, cfg.lb2) == (0.0, 0.0, 0.0, 0.0)

    def test_nested_intervals(self):
        ia = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 4.0), V5)
        ib = tree.segment_between(tree.eta(0, 1.0), tree.eta(0, 2.0), V5)
        cfg = tree.classify_pair(ia, ib, V5)
        assert cfg.variant == "meeting"
        assert cfg.l_ab == pytest.approx(1.0, abs=1e-12)
        assert sorted([cfg.la1, cfg.la2]) == pytest.approx([1.0, 2.0], abs=1e-12)
        assert cfg.lb1 == cfg.lb2 == 0.0

    def test_touching_counts_as_disjoint(self):
        ia = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 1.0), V5)
        ib = tree.segment_between(tree.eta(0, 1.0), tree.eta(0, 2.0), V5)
        cfg = tree.classify_pair(ia, ib, V5)
        assert cfg.variant == "disjoint"
        assert cfg.d_ab == 0.0

    def test_length_reconstruction_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ia = tree.segment_between(random_point(rng, V5, 3.0), random_point(rng, V5, 3.0), V5)
            ib = tree.segment_between(random_point(rng, V5, 3.0), random_point(rng, V5, 3.0), V5)
            cfg = tree.classify_pair(ia, ib, V5)
            if cfg.variant == "disjoint":
                assert cfg.la1 + cfg.la2 == cfg.la
                assert cfg.lb1 + cfg.lb2 == cfg.lb
            else:
                assert cfg.la1 + cfg.l_ab + cfg.la2 == pytest.approx(cfg.la, abs=1e-9)
                assert cfg.lb1 + cfg.l_ab + cfg.lb2 == pytest.approx(cfg.lb, abs=1e-9)

    def test_place_mismatch(self):
        ia = tree.segment_between(tree.eta(0, 0.0), tree.eta(0, 1.0), V5)
        with pytest.raises(PlaceMismatch):
            tree.classify_pair(ia, ia, V7)

    def _config_tuple(self, cfg):
        if cfg.variant == "disjoint":
            return (
                "disjoint",
                cfg.la,
                cfg.lb,
                sorted([cfg.la1, cfg.la2]),
                sorted([cfg.lb1, cfg.lb2]),
                cfg.d_ab,
            )
        return (
            "meeting",
            cfg.la,
            cfg.lb,
            cfg.l_ab,
            sorted([(cfg.la1, cfg.lb1), (cfg.la2, cfg.lb2)]),
        )

    def test_moebius_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = [random_point(rng, V7, 3.0) for _ in range(4)]
            ia = tree.segment_between(pts[0], pts[1], V7)
            ib = tree.segment_between(pts[2], pts[3], V7)
            ref = self._config_tuple(tree.classify_pair(ia, ib, V7))
            c = random_rational(rng, 9)
            moves = [
                lambda q: translate_point(q, c, V7),
                lambda q: scale_point(q, c, V7),
                lambda q: tree.invert_point(q, V7),
            ]
            for move in moves:
                ja = tree.segment_between(move(pts[0]), move(pts[1]), V7)
                jb = tree.segment_between(move(pts[2]), move(pts[3]), V7)
                got = self._config_tuple(tree.classify_pair(ja, jb, V7))
                assert got[0] == ref[0]
                flat_ref = np.array(
                    [x for part in ref[1:] for x in np.atleast_1d(part).ravel()],
                    dtype=float,
                )
                flat_got = np.array(
                    [x for part in got[1:] for x in np.atleast_1d(part).ravel()],
                    dtype=float,
                )
                assert np.allclose(flat_ref, flat_got, atol=1e-12)


class TestInversionLaw:
    def test_small_disk_formula(self):
        # eta_{alpha, r} with r < |alpha| goes to eta_{1/alpha, r/|alpha|^2}
        v = places.finite(5)
        x = tree.TreePoint(Fraction(5), -3.0 * math.log(5))  # |5|_5 = 1/5
        y = tree.invert_point(x, v)
        assert y.center == Fraction(1, 5)
        assert y.log_radius == pytest.approx(-3.0 * math.log(5) + 2 * math.log(5))

    def test_containing_zero_formula(self):
        y = tree.invert_point(tree.eta(0, 2.0), V5)
        assert y.center == 0 and y.log_radius == -2.0

    def test_involution(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = random_point(rng, V5, 3.0)
            y = tree.invert_point(tree.invert_point(x, V5), V5)
            assert tree.points_equal(x, y, V5)

    def test_zero_infinity_swap(self):
        assert tree.invert_point(tree.type1(0), V5).at_infinity
        assert tree.invert_point(tree.POINT_AT_INFINITY, V5) == tree.type1(0)


class TestJson:
    def test_roundtrip_direct(self):
        for pt in (tree.GAUSS, tree.eta(Fraction(3, 4), -1.2), tree.type1(2), tree.POINT_AT_INFINITY):
            obj = tree.tree_point_to_json(pt)
            back = tree.tree_point_from_json(obj, V5)
            assert tree.points_equal(pt, back, V5)

    @pytest.mark.parametrize(
        "obj, expected",
        [
            ({"center": "0", "log_radius": 2.0}, tree.eta(0, -2.0)),
            ({"center": "0", "type1": True}, tree.POINT_AT_INFINITY),
            ({"center": "5", "type1": True}, tree.type1(Fraction(1, 5))),
            ({"center": "5", "log_radius": -5.0}, tree.eta(Fraction(1, 5), -1.7811241751317994)),
            ({"center": "1/25", "log_radius": 1.0}, tree.eta(25, -5.437751649736401)),
        ],
        ids=["center0", "type1_at0", "type1_at5", "center5", "center1_25"],
    )
    def test_inverted_chart_canonicalized(self, obj, expected):
        assert tree.tree_point_from_json({"chart": "inverted", **obj}, V5) == expected

    def test_inverted_needs_place(self):
        with pytest.raises(ChartMismatch):
            tree.tree_point_from_json({"chart": "inverted", "center": "2", "log_radius": 0.0})

    def test_segment_roundtrip(self):
        seg = tree.segment_between(tree.eta(0, 0.0), tree.eta(1, -1.0), V5)
        back = tree.segment_from_json(tree.segment_to_json(seg), V5)
        assert back.length == pytest.approx(seg.length, abs=1e-15)

    @pytest.mark.parametrize("obj", [[1, 2], "s", 3], ids=repr)
    def test_point_is_an_object(self, obj):
        with pytest.raises(TypeError, match="object"):
            tree.tree_point_from_json(obj, V5)

    @pytest.mark.parametrize(
        "ends", ["ab", [{"center": "0", "log_radius": 0.0}], {"a": 1, "b": 2}], ids=repr
    )
    def test_segment_endpoints_are_an_array_of_two(self, ends):
        with pytest.raises(TypeError, match="array of two"):
            tree.segment_from_json({"endpoints": ends}, V5)


class TestLogRadiusRule:
    # eta, TreePoint and the JSON reader share one rule: a log radius is
    # finite or -inf (a type-1 point)
    @pytest.mark.parametrize("log_radius", [math.nan, math.inf], ids=repr)
    def test_nan_and_plus_inf_rejected(self, log_radius):
        with pytest.raises(ValueError, match="log_radius"):
            tree.eta(2, log_radius)
        with pytest.raises(ValueError, match="log_radius"):
            tree.TreePoint(Fraction(1), log_radius)

    def test_minus_inf_is_type1(self):
        assert tree.TreePoint(Fraction(1), -math.inf) == tree.type1(1)
        assert tree.eta(1, -math.inf).is_type1
