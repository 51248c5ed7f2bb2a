import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from arakelov import adelic, cli, energy_arch, lattes, places, tree
from arakelov.adelic import (
    LattesFamily,
    PairConfig,
    PointSetFamily,
    SmoothedSetFamily,
    StandardFamily,
    bft_scan,
    family_sq_energy,
    finite_set,
    gap_scan,
    global_energy,
    h_ab,
    h_rho_F,
    inequality_suite,
    local_pair_energy,
    pair_config,
    pair_energy_global,
    pair_with_smoothed_set,
    relevant_places,
    triangle_inequality_check,
)
from arakelov.energy_arch import lattes_sq_energy_arch
from arakelov.energy_ua import pair_raw
from arakelov.errors import BadRadii, BranchPointCenter, DegenerateConfig, EmptyF, NonFiniteResult
from arakelov.lattes import PointIndex, torsion_image_arrays, torsion_images
from arakelov.suite import random_quadruple

ARCH_N = 2500


class TestPairConfig:
    def test_valid(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        assert cfg.quadruple_a().points[-1] is places.INFINITY
        assert cfg.quadruple_b().points[-1] == 0

    def test_zero_entry(self):
        with pytest.raises(DegenerateConfig):
            pair_config([0, 1, 2], [1, 2, 3])

    def test_repeated_entry(self):
        with pytest.raises(DegenerateConfig):
            pair_config([1, 1, 2], [1, 2, 3])

    @pytest.mark.parametrize(
        "obj", [{"a": "123", "b": "456"}, {"a": {"1": 0, "2": 0, "3": 0}, "b": [4, 5, 6]}], ids=repr
    )
    def test_json_sides_are_arrays(self, obj):
        # a string or an object would be read by its characters or its keys
        with pytest.raises(TypeError, match="arrays"):
            adelic.pair_config_from_json(obj)


class TestRelevantPlaces:
    def test_example_config(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        got = {str(v) for v in relevant_places(cfg)}
        assert {"v_inf", "v_2", "v_3", "v_5"} <= got

    def test_unit_config_excludes_clean_prime(self):
        cfg = pair_config([1, 2, 3], [4, 5, 6])
        primes = {v.p for v in relevant_places(cfg) if v.is_finite}
        assert 7 not in primes and 11 not in primes

    def test_outside_places_contribute_zero(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            cfg = adelic.random_pair_config(rng, 12)
            inside = {v.p for v in relevant_places(cfg) if v.is_finite}
            qa, qb = cfg.quadruple_a(), cfg.quadruple_b()
            probes = [p for p in (37, 41, 97) if p not in inside]
            for p in probes:
                assert local_pair_energy(qa, qb, places.finite(p)) == 0.0


class TestGlobalEnergy:
    def test_same_branch_set_vanishes(self):
        rep = pair_energy_global(
            [1, 2, 3, "inf"], [2, 1, "inf", 3], arch_samples=ARCH_N
        )
        assert abs(rep.total) <= rep.arch_tol

    def test_distinct_sets_positive(self):
        cfg = pair_config([1, 2, 3], [1, 2, 3])
        rep = global_energy(cfg, arch_samples=ARCH_N, seed=5)
        assert rep.total > rep.arch_tol

    def test_total_is_sum_of_entries(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        rep = global_energy(cfg, arch_samples=1500, seed=9)
        s = sum(e.energy for e in rep.entries if e.energy is not None)
        assert rep.total == pytest.approx(s, abs=1e-12)
        excluded = [e for e in rep.entries if e.energy is None]
        assert len(excluded) == 1 and excluded[0].place.p == 2

    def test_projective_invariance_finite_part(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        scaled = pair_config([7, 14, 21], ["7/5", "14/5", "21/5"])
        r1 = global_energy(cfg, arch_samples=1200, seed=9)
        r2 = global_energy(scaled, arch_samples=1200, seed=9)
        fin1 = sum(e.energy for e in r1.entries if e.energy is not None and e.place.is_finite)
        fin2 = sum(e.energy for e in r2.entries if e.energy is not None and e.place.is_finite)
        assert fin1 == pytest.approx(fin2, abs=1e-10)
        assert r1.entries[-1].energy == pytest.approx(r2.entries[-1].energy, abs=1e-9)
        assert h_ab(cfg) == pytest.approx(h_ab(scaled), abs=1e-12)

    def test_arch_entry_is_escape_rate_estimate(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        rep = global_energy(cfg, arch_samples=1500, seed=9, burn_in=48)
        energy, _ = lattes_sq_energy_arch(cfg.quadruple_a(), cfg.quadruple_b(), 1500)
        assert rep.entries[-1].energy == energy
        assert rep.entries[-1].note == "torus grid, level 6"

    def test_epsilon_flow_scales_local_energy(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        qa, qb = cfg.quadruple_a(), cfg.quadruple_b()
        for eps in (0.5, 2.0):
            e1 = local_pair_energy(qa, qb, places.finite(5))
            ee = local_pair_energy(qa, qb, places.finite(5, eps))
            assert ee == pytest.approx(eps * e1, abs=1e-12)


class TestHab:
    def test_six_tuple_value(self):
        assert places.projective_height([1, 1, 1, 1, 1, 2]) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_equal_entries_zero(self):
        assert places.projective_height([3, 3, 3, 3, 3, 3]) == 0.0

    def test_scaling_invariance(self):
        cfg = pair_config([1, 2, 3], [5, 7, 11])
        scaled = pair_config([4, 8, 12], [20, 28, 44])
        assert h_ab(cfg) == pytest.approx(h_ab(scaled), abs=1e-12)


class TestHRhoF:
    def test_standard_recovers_height(self):
        std = StandardFamily()
        assert h_rho_F(std, [2])["value"] == pytest.approx(math.log(2), abs=1e-12)
        assert h_rho_F(std, [1])["value"] == pytest.approx(0.0, abs=1e-12)

    def test_standard_random_heights(self):
        std = StandardFamily()
        rng = np.random.default_rng(62)
        for _ in range(100):
            num = 0
            while num == 0:
                num = int(rng.integers(-60, 61))
            x = Fraction(num, int(rng.integers(1, 61)))
            assert h_rho_F(std, [x])["value"] == pytest.approx(
                places.affine_height(x), abs=1e-12
            )

    def test_branch_point_nearly_zero(self):
        fam = LattesFamily(["inf", "0", "1", "2"], arch_samples=8000, seed=42)
        rep = h_rho_F(fam, [0])
        assert abs(rep["value"]) <= 0.05
        assert rep["skipped_two"]

    def test_branch_point_is_zero(self):
        # <mu_2, delta_0> = (1/2)(I(mu_2) + 2 U(0)) = (1/2)(-log 2 + log 2)
        rep = h_rho_F(LattesFamily(["inf", 0, 1, 2]), [0])
        assert abs(rep["value"]) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyF):
            h_rho_F(StandardFamily(), [])

    def test_float_input_rejected(self):
        with pytest.raises(TypeError, match="float"):
            LattesFamily([0.5, 1, 2, "inf"])
        with pytest.raises(TypeError, match="float"):
            lattes_sq_energy_arch(1 / 9, -2, 200)

    def test_repeated_point_rejected(self):
        with pytest.raises(EmptyF):
            h_rho_F(StandardFamily(), [2, 2])

    @pytest.mark.parametrize(
        "call",
        [
            lambda big: h_rho_F(StandardFamily(), [big]),
            lambda big: family_sq_energy(SmoothedSetFamily(finite_set([big])), StandardFamily()),
            lambda big: pair_with_smoothed_set([1, 2, 3, "inf"], finite_set([big]), 200),
        ],
        ids=["point-set", "smoothed-set", "smoothing-bound"],
    )
    def test_point_beyond_float_range_raises(self, call):
        with pytest.raises(NonFiniteResult, match="beyond float range"):
            call("1" + "0" * 400)

    # regression anchors; the tolerance covers the order of the pair sums
    @pytest.mark.parametrize(
        "family, points, expected",
        [
            ("standard", ["-23/5", "-21/10", "-13/21", "-13/25"], 3.1108537290610485),
            ("standard", ["-27/10", "-11/12", "1/16"], 2.8511107460107037),
            ("lattes", [3, 7], 0.6830005782096072),
            ("lattes", ["1/2", 4, -6], 0.8766790865852482),
            ("lattes", [1, 2, 3, 4], 0.18438274470983057),
            ("smoothed", [3, 7], 0.8482316357866553),
            ("smoothed", ["1/2", 4, -6], 1.0075142682333906),
            ("smoothed", [1, 2, 3, 4], 0.214328536198164),
        ],
    )
    def test_multi_point_values(self, family, points, expected):
        fam = {
            "standard": StandardFamily,
            "lattes": lambda: LattesFamily(["inf", "0", "1", "2"], arch_samples=2000, seed=42),
            "smoothed": lambda: SmoothedSetFamily(finite_set([2, 3, "1/2"])),
        }[family]()
        assert h_rho_F(fam, points)["value"] == pytest.approx(expected, abs=1e-15)

    def test_point_set_self_pairing_is_off_diagonal(self):
        pts = [Fraction(1, 2), Fraction(4), Fraction(-6), Fraction(3, 5)]
        w = 1.0 / len(pts)
        atoms = [(tree.type1(u), w) for u in pts]
        for p in (2, 3, 5):
            v = places.finite(p)
            got = pair_raw(atoms, atoms, v)
            expected = -math.fsum(
                w * w * places.log_abs(x - y, v) for x in pts for y in pts if x != y
            )
            assert math.isfinite(got)
            assert got == pytest.approx(expected, abs=1e-15)
        # coincident type-2 atoms stay paired: the kernel is their log radius
        disk = [(tree.eta(0, 1.5), 1.0)]
        assert pair_raw(disk, disk, places.finite(3)) == -1.5


class TestFamilies:
    def test_standard_is_the_smoothed_set_zero(self):
        std = StandardFamily()
        assert std.label == "standard" and std.support_primes() == []
        for p in (2, 3, 5):
            assert std.finite_measure(places.finite(p)) == [(tree.GAUSS, 1.0)]
        assert std.arch_mixture() == [(energy_arch.UNIT_CIRCLE, 1.0)]

    def test_standard_pairs_bit_identically_with_the_smoothed_set_zero(self):
        zero = SmoothedSetFamily(finite_set([0]))
        partners = [
            LattesFamily(["inf", "0", "1", "2"], arch_samples=ARCH_N),
            SmoothedSetFamily(finite_set([2, 3, "1/2"], {"3": 0.5, "inf": 2.0})),
            PointSetFamily(finite_set(["1/2", 4, -6])),
        ]
        for other in partners:
            for got, want in (
                (family_sq_energy(StandardFamily(), other), family_sq_energy(zero, other)),
                (family_sq_energy(other, StandardFamily()), family_sq_energy(other, zero)),
            ):
                keys = ("value", "per_place", "skipped_two", "tol")
                assert json.dumps([got[k] for k in keys]) == json.dumps([want[k] for k in keys])

    def test_finite_term_is_mutual_energy_raw(self):
        fam = LattesFamily([1, 3, 9, "inf"], arch_samples=ARCH_N)
        pts = PointSetFamily(finite_set(["1/2", 4, -6]))
        rep = family_sq_energy(fam, pts)
        for key, term in rep["per_place"].items():
            if key == "v_inf":
                continue
            v = places.finite(int(key[2:]))
            m1, m2 = fam.finite_measure(v), pts.finite_measure(v)
            raw = pair_raw(m1, m1, v) - 2.0 * pair_raw(m1, m2, v) + pair_raw(m2, m2, v)
            assert term == 0.5 * raw

    def test_unit_radius_adds_no_place(self):
        fs = finite_set([5], {"3": 1.0, "inf": 1, "7": 0.5})
        assert fs.radius_places() == [places.finite(7)]
        assert SmoothedSetFamily(fs).support_primes() == [5, 7]
        assert finite_set([5], {"3": 1.0}).radius_places() == []


class TestInequalitySuite:
    def test_simple_config(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        rep = inequality_suite(cfg)
        assert rep["all_hold"]

    def test_cross_equal_entries_allowed(self):
        rep = inequality_suite(pair_config([1, 2, 3], [1, 2, 3]))
        assert rep["all_hold"]
        assert math.isfinite(rep["h_f1"])

    def test_huge_entry_ratio_bounded(self):
        cfg = pair_config([1, 2, 10 ** 6], [1, 3, 7])
        rep = inequality_suite(cfg)
        assert rep["all_hold"]
        assert rep["h_ab"] <= 81.0 * rep["h_f2"] + 1e-9

    def test_unit_config(self):
        rep = inequality_suite(pair_config([1, 2, 3], [4, 5, 6]))
        assert rep["all_hold"]

    def test_random_scan(self):
        rep = adelic.suite_scan(count=100, seed=17, height=15)
        assert rep["all_hold"], rep["failures"][:3]

    def test_reports_pinned(self):
        # every number of 300 random reports and the two edge configurations
        rng = np.random.default_rng(3)
        cfgs = [adelic.random_pair_config(rng, 20) for _ in range(300)]
        cfgs += [pair_config([1, 2, 3], [1, 2, 3]), pair_config([1, 2, 10**6], [1, 3, 7])]
        digest = hashlib.sha256()
        for cfg in cfgs:
            digest.update(json.dumps(inequality_suite(cfg), sort_keys=True).encode())
        assert digest.hexdigest() == "b4afa72e975f784b5cf9dd093c1c874ed11da83701e3ed4e39411f33038553c8"


class TestTriangleInequality:
    def test_families(self):
        std = StandardFamily()
        lat1 = LattesFamily(["inf", "0", "1", "2"], arch_samples=2000, seed=21)
        lat2 = LattesFamily([1, 3, 9, "inf"], arch_samples=2000, seed=22)
        sm = SmoothedSetFamily(finite_set([2, 3, "1/2"]))
        for trip in [(std, lat1, lat2), (lat1, lat2, sm), (std, sm, lat1)]:
            assert triangle_inequality_check(*trip)["holds"]

    def test_equal_endpoints(self):
        std = StandardFamily()
        lat = LattesFamily(["inf", "0", "1", "2"], arch_samples=2000, seed=23)
        rep = triangle_inequality_check(std, std, lat)
        assert rep["e12"] == pytest.approx(0.0, abs=1e-9)
        assert rep["holds"]

    def test_lattes_pairing_is_symmetric(self):
        f1 = LattesFamily([1, 3, 9, "inf"], arch_samples=800, seed=3)
        f2 = LattesFamily(["1/2", -4, 0, 7], arch_samples=800, seed=4)
        assert family_sq_energy(f1, f2) == family_sq_energy(f2, f1)

    def test_permuted_branch_set_vanishes(self):
        # both orders normalize to lambda = 2 through maps that differ by the
        # deck map t -> 2/t, so G_a - G_b is constant up to rounding
        for seed in range(4):
            f1 = LattesFamily([1, 2, 3, "inf"], arch_samples=800, seed=seed)
            f2 = LattesFamily([2, 1, "inf", 3], arch_samples=800, seed=seed + 1)
            rep = family_sq_energy(f1, f2)
            assert rep["per_place"]["v_3"] == 0.0
            assert abs(rep["value"]) <= 1e-15

    def test_third_equals_first(self):
        std = StandardFamily()
        sm = SmoothedSetFamily(finite_set([5]))
        rep = triangle_inequality_check(std, sm, std)
        assert rep["holds"]
        assert rep["e13"] == pytest.approx(0.0, abs=1e-9)


class TestSmoothedSetBound:
    def test_unit_radii(self):
        rep = pair_with_smoothed_set(["inf", "0", "1", "2"], finite_set([5, 7]),
                                     arch_samples=ARCH_N)
        assert rep["holds"]
        assert rep["log_term"] == 0.0
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 0.002533750510466115, "height": 1.1576468418895964, '
            '"holds": true, "lhs": 1.1589137171448294, "log_term": 0.0, '
            '"rhs": 1.1601805924000625, "tol": 0.12}'
        )

    def test_small_radii_log_term(self):
        fs = finite_set([5], {"3": 0.5, "inf": 0.25})
        rep = pair_with_smoothed_set(["inf", "0", "1", "2"], fs, arch_samples=ARCH_N)
        assert rep["holds"]
        assert rep["log_term"] == pytest.approx(
            (math.log(2.0) + math.log(4.0)) / 2.0, abs=1e-12
        )
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 0.00011928260771165711, "height": 1.1447712216396533, '
            '"holds": true, "lhs": 2.184611275087283, "log_term": 1.0397207708399179, '
            '"rhs": 2.184611275087283, "tol": 0.12}'
        )

    @pytest.mark.parametrize("key", ["3 ", "03", "4", "1", "infinity", "Inf", 3, ""], ids=repr)
    def test_bad_radius_key_rejected(self, key):
        # a key is "inf" or str(p); "3 " was dropped, "4" and "infinity" failed later
        with pytest.raises(BadRadii):
            finite_set([5], {key: 0.5})

    @pytest.mark.parametrize("radius", [0, -1.0])
    def test_non_positive_radius_rejected(self, radius):
        with pytest.raises(BadRadii, match="positive"):
            finite_set([5], {"3": radius})

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    @pytest.mark.parametrize("key", ["3", "inf"])
    def test_non_finite_radius_rejected(self, key, radius):
        # an infinite radius used to pass, then failed in the pairing: in the
        # TreePoint check at 3 and with a math domain error at infinity
        with pytest.raises(BadRadii, match="finite and positive"):
            finite_set([5], {key: radius})

    def test_pinned_json_three_point_set(self):
        fs = finite_set(["1/2", 4, -6], {"inf": 3.0, "5": 0.2})
        rep = pair_with_smoothed_set([1, 3, 9, "inf"], fs)
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 1.0870554766580303, "height": 0.8726070657127832, '
            '"holds": true, "lhs": 0.793890909285782, "log_term": 0.08513760396099841, '
            '"rhs": 2.044800146331812, "tol": 0.09486832980505139}'
        )

    def test_lattes_pairings_draw_no_samples(self, monkeypatch, capsys):
        # a Lattes measure pairs by closed forms and quadratures only
        def refuse(*args, **kwargs):
            raise AssertionError("a library route sampled a Lattes measure")

        monkeypatch.setattr(energy_arch, "sample_lattes_equilibrium", refuse)
        for quad in (["inf", "0", "1", "2"], [1, 3, 9, "inf"]):
            fam = LattesFamily(quad, arch_samples=500)
            h_rho_F(fam, [3, 7])
            pair_with_smoothed_set(quad, finite_set([5, 7], {"inf": 0.5}), arch_samples=500)
        family_sq_energy(fam, LattesFamily([2, 3, 5, 7], arch_samples=500))
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        assert (
            global_energy(cfg, arch_samples=500, seed=1).to_json()
            == global_energy(cfg, arch_samples=500, seed=2, burn_in=5).to_json()
        )
        assert gap_scan(count=2, seed=7, height=12, arch_samples=500)["count"] == 2
        argv = ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "500"]
        assert cli.main(argv) == 0 and json.loads(capsys.readouterr().out)["level"] == 5

    def test_radius_at_two_leaves_the_log_term(self):
        quad = ["inf", "0", "1", "2"]
        at_two = pair_with_smoothed_set(quad, finite_set([5], {"2": 0.5}), arch_samples=ARCH_N)
        at_seven = pair_with_smoothed_set(quad, finite_set([5], {"7": 0.5}), arch_samples=ARCH_N)
        assert at_two["log_term"] == 0.0
        assert at_seven["log_term"] == math.log(2.0) / 2.0

    def test_branch_point_propagates(self):
        with pytest.raises(BranchPointCenter):
            pair_with_smoothed_set(
                ["inf", "0", "1", "1/9"], finite_set([1], {"3": 0.5}),
                arch_samples=ARCH_N,
            )


class TestRandomInputs:
    @pytest.mark.parametrize("height", [1, 0, -3])
    def test_height_below_two_rejected(self, height):
        # height 1 has only the rationals +-1: no side of three distinct entries
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 2"):
            adelic.random_pair_config(rng, height)
        with pytest.raises(ValueError, match="at least 2"):
            random_quadruple(rng, height)

    def test_height_two_returns(self):
        rng = np.random.default_rng(0)
        cfg = adelic.random_pair_config(rng, 2)
        assert all(places.affine_height(x) <= math.log(2) for x in cfg.entries)
        assert len(set(random_quadruple(rng, 2).points)) == 4


class TestScans:
    def test_gap_scan_smoke(self):
        rep = gap_scan(count=8, seed=7, height=12, arch_samples=1000, burn_in=48)
        assert rep["strictly_positive"]
        assert rep["min_energy"] > 0
        assert sum(rep["histogram"]["counts"]) == 8

    def test_gap_scan_empty(self):
        assert gap_scan(count=0, seed=7)["empty"]

    def test_gap_scan_raises_on_a_non_finite_pairing(self, monkeypatch):
        # the middle configuration's float cross-ratio is the critical value 1
        good = pair_config([1, 2, 3], [4, 5, 6])
        bad = pair_config([2, Fraction(2) + Fraction(1, 10**15), 5], [4, 5, 6])
        configs = iter([good, bad, good])
        monkeypatch.setattr(adelic, "random_pair_config", lambda rng, height: next(configs))
        with pytest.raises(NonFiniteResult, match="the pairing of lambda"):
            gap_scan(count=3)

    def test_suite_scan_records_each_failing_configuration(self, monkeypatch):
        monkeypatch.setattr(adelic, "inequality_suite", lambda cfg: {"all_hold": False})
        rep = adelic.suite_scan(count=3, seed=5, height=6)
        rng = np.random.default_rng(5)
        drawn = [adelic.random_pair_config(rng, 6).to_json() for _ in range(3)]
        assert rep["failures"] == drawn and not rep["all_hold"]

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, 1e308])
    def test_bft_tolerance_out_of_range_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            bft_scan(Fraction(2), Fraction(3), 1, tol=tol)

    def test_bft_level_zero(self):
        rep = bft_scan(Fraction(2), Fraction(3), 0)
        assert rep["count"] == 3  # {0, 1, inf}

    def test_bft_control_full_match(self):
        rep = bft_scan(Fraction(2), Fraction(2), 2)
        assert rep["count"] == rep["size_a"] == 34

    def test_bft_monotone_bounded(self):
        counts = [bft_scan(Fraction(2), Fraction(3), lvl)["count"] for lvl in range(4)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        assert counts[3] <= 16

    # json.dumps(bft_scan(a, b, level), sort_keys=True); counts and matched
    # points as the pure Python matching loop found them, gaps as the exact
    # torsion construction gives them (within 3.4e-16 of the merged route's)
    BFT_RECORDED = {
        (2, 3, 0): (
            '{"count": 3, "level": 0, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 1.0, "min_gap_b": 1.0, "size_a": 4, "size_b": 4, "tol": 1e-07}'
        ),
        (2, 3, 1): (
            '{"count": 3, "level": 1, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.41421356237309515, "min_gap_b": 0.4494897427831779, "size_a": 10, '
            '"size_b": 10, "tol": 1e-07}'
        ),
        (2, 3, 2): (
            '{"count": 3, "level": 2, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.10717722122400852, "min_gap_b": 0.12248465859239921, '
            '"size_a": 34, "size_b": 34, "tol": 1e-07}'
        ),
        (2, 3, 3): (
            '{"count": 3, "level": 3, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.026852320940226715, "min_gap_b": 0.03115119969081459, '
            '"size_a": 130, "size_b": 130, "tol": 1e-07}'
        ),
        (2, 3, 4): (
            '{"count": 3, "level": 4, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.00671398811899393, "min_gap_b": 0.007819084121217346, '
            '"size_a": 514, "size_b": 514, "tol": 1e-07}'
        ),
        (2, 3, 5): (
            '{"count": 3, "level": 5, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.0016785112167938543, "min_gap_b": 0.0019566965910073897, '
            '"size_a": 2050, "size_b": 2050, "tol": 1e-07}'
        ),
        ((0, 1, 2, 5), (0, 1, 3, "inf"), 3): (
            '{"count": 2, "level": 3, "matched": [[0.0, 0.0], [1.0, 0.0]], '
            '"min_gap_a": 0.02426169128648159, "min_gap_b": 0.0311511996908147, '
            '"size_a": 130, "size_b": 130, "tol": 1e-07}'
        ),
    }
    # the (2, 2) control matches all 130 points; its 5008-byte string by digest
    BFT_CONTROL_SHA256 = "8184c27c52cfff311bcad1197149436ce5ba2404c810a8ce0a169852dad736e5"

    @pytest.mark.parametrize("case", sorted(BFT_RECORDED, key=repr))
    def test_bft_json_unchanged(self, case):
        assert json.dumps(bft_scan(*case), sort_keys=True) == self.BFT_RECORDED[case]

    def test_bft_control_json_unchanged(self):
        text = json.dumps(bft_scan(2, 2, 3), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BFT_CONTROL_SHA256


def min_gap_rows(points):
    """The former O(n^2) gap audit: one np.abs row per point."""
    arr = np.array([p for p in points if p is not places.INFINITY], dtype=complex)
    gaps = [np.abs(arr[i + 1 :] - arr[i]).min() for i in range(len(arr) - 1)]
    return float(min(gaps, default=math.inf))


def point_key(p) -> tuple:
    """Finite points by (real, imag), infinity last."""
    return (1, 0.0, 0.0) if p is places.INFINITY else (0, p.real, p.imag)


def match_all_pairs(pts_a, pts_b, tol):
    """The former all-pairs match: one np.abs row of B per point of A."""
    finite_b = np.array([q for q in pts_b if q is not places.INFINITY], dtype=complex)
    matched = []
    for p in pts_a:
        if p is places.INFINITY:
            if any(q is places.INFINITY for q in pts_b):
                matched.append(p)
        elif (np.abs(finite_b - p) <= tol).any():
            matched.append(p)
    return matched


# every pair of sides at the default tolerance (ids as before for lam = 2, 3,
# 5), then again at a tolerance wide enough to match near points
ORACLE_SIDES = (2, 3, 5, 4, ("3", "1/7", "-5", "inf"))
ORACLE_PAIRS = list(itertools.combinations_with_replacement(ORACLE_SIDES, 2))
ORACLE_CASES = [pytest.param(lams, 1e-7, id=str(lams)) for lams in ORACLE_PAIRS]
ORACLE_CASES += [pytest.param(lams, 1e-3, id=f"{lams}-tol=0.001") for lams in ORACLE_PAIRS]


class TestPointIndexOracles:
    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("lams, tol", ORACLE_CASES)
    def test_bft_scan_matches_oracles(self, lams, tol, level):
        rep = bft_scan(*lams, level, tol)
        pts_a, pts_b = ([p for p, _ in torsion_images(lam, level)] for lam in lams)
        matched = sorted(match_all_pairs(pts_a, pts_b, rep["tol"]), key=point_key)
        assert rep["matched"] == [
            "inf" if p is places.INFINITY else [p.real, p.imag] for p in matched
        ]
        assert rep["min_gap_a"] == min_gap_rows(pts_a)
        assert rep["min_gap_b"] == min_gap_rows(pts_b)

    @pytest.mark.parametrize("level", [6, 7])
    def test_uncapped_levels_match_oracles(self, level, monkeypatch):
        monkeypatch.setattr(lattes, "TORSION_LEVEL_CAP", 7)
        pts_a, pts_b = (
            [p for p, _ in torsion_images(lam, level) if p is not places.INFINITY]
            for lam in (2, 3)
        )
        index_a = PointIndex(pts_a)
        assert index_a.min_gap() == min_gap_rows(pts_a)
        hits = index_a.near(PointIndex(pts_b), 1e-7)
        assert [pts_a[i] for i in hits] == match_all_pairs(pts_a, pts_b, 1e-7)

    def test_min_gap_below_two_points(self):
        assert PointIndex([]).min_gap() == PointIndex([1j]).min_gap() == math.inf

    def test_bft_scan_sorts_only_the_matched_points(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bft_scan sorted a whole side")

        for module in (lattes, adelic):
            monkeypatch.setattr(module, "torsion_image_arrays", refuse, raising=False)
        assert bft_scan(2, 3, 5)["count"] == 3


class TestMinGapBound:
    """``min_gap`` bounds its search by the smallest gap between neighbours in
    real-part order, whatever the input order; the minimum stays exact."""

    @pytest.mark.parametrize("lam", [2, 3, 5])
    def test_shuffled_level_five_images(self, lam):
        pts = torsion_image_arrays(lam, 5)[0]
        want = min_gap_rows(pts)
        assert PointIndex(pts).min_gap() == want
        rng = np.random.default_rng(lam)
        for _ in range(3):
            assert PointIndex(rng.permutation(pts)).min_gap() == want

    @pytest.mark.parametrize("level", range(6))
    def test_random_quadruple_sides(self, level):
        rng = np.random.default_rng(100 + level)
        for _ in range(4):
            pts = torsion_image_arrays(random_quadruple(rng, 12), level)[0]
            assert PointIndex(pts).min_gap() == min_gap_rows(pts)

    @pytest.mark.parametrize(
        "points, want",
        [
            ([0, 3 + 4j], 5.0),
            ([2j, 2j], 0.0),
            ([7.0, 0.0, 2.5, 1.0, -3.0], 1.0),
            ([1 + 2j, 4 + 1j, 1 - 2j, 1 + 0.5j, 1 - 0.5j], 1.0),
            ([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], 2.0),
        ],
        ids=["two-points", "coincident", "real-line", "conjugates", "square"],
    )
    def test_small_sets(self, points, want):
        assert PointIndex(points).min_gap() == min_gap_rows(points) == want


class TestSweepWindow:
    """The real-part sweep of ``PointIndex`` against the all-pairs oracles,
    where a window or box that rounds the wrong way would lose a pair."""

    @pytest.mark.parametrize(
        "x, y",
        [
            (3.6303831267854576e-08, -6.369616873214543e-08),
            (1.8672976079972758e-08, -8.132702392002724e-08),
            (8.72444227222784e-09, -9.127555772777216e-08),
        ],
    )
    def test_rounding_boundary_pairs(self, x, y):
        r = 1e-7
        a, b = complex(x, 0), complex(y, 0)
        assert np.abs(b - a) <= r and x > y + r  # the naive window end rounds below x
        assert PointIndex([a]).near(PointIndex([b]), r).tolist() == [0]
        assert PointIndex([b]).near(PointIndex([a]), r).tolist() == [0]

    @staticmethod
    def check_against_oracles(pts_a, pts_b, tol):
        hits = PointIndex(pts_a).near(PointIndex(pts_b), tol)
        assert hits.dtype.kind == "i" and list(hits) == sorted(set(hits))
        assert [pts_a[i] for i in hits] == match_all_pairs(pts_a, pts_b, tol)
        assert PointIndex(pts_a).min_gap() == min_gap_rows(pts_a)

    def test_one_vertical_column(self):
        column = [0.5 + 0.01j * k for k in range(50)]
        off = [0.5 + 1e-8 + 0.2j, 0.4999999 + 0.37j, 0.51 + 0.3j, -1 + 0.25j]
        pts = column + off
        self.check_against_oracles(pts, [0.5 + 0.005j, 0.5 + 0.37j, 0.51 + 0.3j], 0.006)
        self.check_against_oracles(pts, off, 1e-7)
        assert PointIndex(pts).min_gap() == min_gap_rows(pts) == pytest.approx(1e-8)
        rng = np.random.default_rng(3)
        shuffled = list(rng.permutation(pts))
        self.check_against_oracles(shuffled, column[::7], 1e-7)

    def test_duplicates_and_signed_zero(self):
        pts = [0.0 + 1j, -0.0 + 1j, 0.0 - 1j, 2 + 0j, 2 + 0j, -0.0 + 0j, 1e-300 + 0j]
        self.check_against_oracles(pts, [-0.0 + 1j, 2 + 0j], 1e-7)
        self.check_against_oracles(pts, [0.0 + 0j], 5e-324)
        assert PointIndex(pts).min_gap() == 0.0
        assert PointIndex([-0.0 + 0j, 0.0 + 0j]).min_gap() == 0.0

    def test_empty_index(self):
        hits = PointIndex([1j, 2]).near(PointIndex([]), 1e-7)
        assert hits.dtype.kind == "i" and hits.size == 0
        assert PointIndex([]).near(PointIndex([1j, 2]), 1e-7).size == 0

    def test_shuffled_input_returns_caller_order(self):
        pts_a = torsion_image_arrays(2, 3)[0]
        pts_b = torsion_image_arrays(3, 3)[0]
        want = set(pts_a[PointIndex(pts_a).near(PointIndex(pts_b), 1e-7)])
        rng = np.random.default_rng(8)
        for _ in range(3):
            perm_a, perm_b = rng.permutation(pts_a), rng.permutation(pts_b)
            hits = PointIndex(perm_a).near(PointIndex(perm_b), 1e-7)
            assert list(hits) == sorted(hits)
            assert set(perm_a[hits]) == want
            assert list(perm_a[hits]) == match_all_pairs(list(perm_a), list(perm_b), 1e-7)

    def test_largest_tolerance_matches_every_point(self):
        tol = np.nextafter(2.0**1022, 0)
        assert lattes.positive_tolerance(tol) == tol
        index_a, index_b = (PointIndex(torsion_image_arrays(lam, 1)[0]) for lam in (2, 3))
        ends = index_b.real + tol * lattes._WIDEN, index_b.real - tol * lattes._WIDEN
        assert all(np.isfinite(end).all() for end in ends)
        hits = index_a.near(index_b, tol)
        assert list(hits) == list(range(len(index_a.z)))
        rep = bft_scan(2, 3, 1, tol=tol)
        assert rep["count"] == rep["size_a"]
