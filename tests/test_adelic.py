import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from arakelov import adelic, places, tree
from arakelov.adelic import (
    LattesFamily,
    PairConfig,
    SmoothedSetFamily,
    StandardFamily,
    bft_scan,
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
from arakelov.energy_arch import arch_self_energy, lattes_sq_energy_arch
from arakelov.energy_ua import pair_raw
from arakelov.errors import BranchPointCenter, DegenerateConfig, EmptyF

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
            [1, 2, 3, "inf"], [2, 1, "inf", 3], arch_samples=ARCH_N, seed=5
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
        assert r1.arch_estimate == pytest.approx(r2.arch_estimate, abs=1e-9)
        assert h_ab(cfg) == pytest.approx(h_ab(scaled), abs=1e-12)

    def test_arch_entry_is_escape_rate_estimate(self):
        cfg = pair_config([1, 2, 3], ["1/5", "2/5", "3/5"])
        rep = global_energy(cfg, arch_samples=1500, seed=9, burn_in=48)
        energy, _ = lattes_sq_energy_arch(
            cfg.quadruple_a(), cfg.quadruple_b(), 1500, seed=9, burn_in=48
        )
        assert rep.arch_estimate == energy

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

    def test_empty_rejected(self):
        with pytest.raises(EmptyF):
            h_rho_F(StandardFamily(), [])

    def test_repeated_point_rejected(self):
        with pytest.raises(EmptyF):
            h_rho_F(StandardFamily(), [2, 2])

    # regression anchors; the tolerance covers the order of the pair sums
    @pytest.mark.parametrize(
        "family, points, expected",
        [
            ("standard", ["-23/5", "-21/10", "-13/21", "-13/25"], 3.1108537290610485),
            ("standard", ["-27/10", "-11/12", "1/16"], 2.8511107460107037),
            ("lattes", [3, 7], 0.6793968788873868),
            ("lattes", ["1/2", 4, -6], 0.873807188784372),
            ("lattes", [1, 2, 3, 4], 0.18131301818722795),
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

    def test_third_equals_first(self):
        std = StandardFamily()
        sm = SmoothedSetFamily(finite_set([5]))
        rep = triangle_inequality_check(std, sm, std)
        assert rep["holds"]
        assert rep["e13"] == pytest.approx(0.0, abs=1e-9)


class TestSmoothedSetBound:
    def test_unit_radii(self):
        rep = pair_with_smoothed_set(["inf", "0", "1", "2"], finite_set([5, 7]),
                                     arch_samples=ARCH_N, seed=31)
        assert rep["holds"]
        assert rep["log_term"] == 0.0
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 0.002429808821418744, "height": 1.140694883477116, '
            '"holds": true, "lhs": 1.1419097878878255, "log_term": 0.0, '
            '"rhs": 1.1431246922985348, "tol": 0.12}'
        )

    def test_small_radii_log_term(self):
        fs = finite_set([5], {"3": 0.5, "inf": 0.25})
        rep = pair_with_smoothed_set(["inf", "0", "1", "2"], fs, arch_samples=ARCH_N, seed=32)
        assert rep["holds"]
        assert rep["log_term"] == pytest.approx(
            (math.log(2.0) + math.log(4.0)) / 2.0, abs=1e-12
        )
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 0.00011711230956712448, "height": 1.1384231428584197, '
            '"holds": true, "lhs": 2.178261026007905, "log_term": 1.0397207708399179, '
            '"rhs": 2.1782610260079047, "tol": 0.12}'
        )

    def test_pinned_json_three_point_set(self):
        fs = finite_set(["1/2", 4, -6], {"inf": 3.0, "5": 0.2})
        rep = pair_with_smoothed_set([1, 3, 9, "inf"], fs)
        assert json.dumps(rep, sort_keys=True) == (
            '{"discrepancy": 1.0871305552455404, "height": 0.8717655188116535, '
            '"holds": true, "lhs": 0.7930743885804888, "log_term": 0.08513760396099841, '
            '"rhs": 2.0440336780181925, "tol": 0.09486832980505139}'
        )

    def test_cloud_self_energy_computed_once(self, monkeypatch):
        seen = []

        def counting(m):
            seen.append(type(m).__name__)
            return arch_self_energy(m)

        monkeypatch.setattr(adelic, "arch_self_energy", counting)
        pair_with_smoothed_set(["inf", "0", "1", "2"], finite_set([5, 7]), arch_samples=500)
        assert seen.count("Cloud") == 1

    def test_branch_point_propagates(self):
        with pytest.raises(BranchPointCenter):
            pair_with_smoothed_set(
                ["inf", "0", "1", "1/9"], finite_set([1], {"3": 0.5}),
                arch_samples=ARCH_N, seed=33,
            )


class TestScans:
    def test_gap_scan_smoke(self):
        rep = gap_scan(count=8, seed=7, height=12, arch_samples=1000, burn_in=48)
        assert rep["strictly_positive"]
        assert rep["min_energy"] > 0
        assert sum(rep["histogram"]["counts"]) == 8

    def test_gap_scan_empty(self):
        assert gap_scan(count=0, seed=7)["empty"]

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

    # json.dumps(bft_scan(a, b, level), sort_keys=True), recorded from the pure
    # Python matching loop and gap audit that the row-vectorised ones replaced
    BFT_RECORDED = {
        (2, 3, 0): (
            '{"count": 3, "level": 0, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 1.0, "min_gap_b": 1.0, "size_a": 4, "size_b": 4, "tol": 1e-07}'
        ),
        (2, 3, 1): (
            '{"count": 3, "level": 1, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.4142135623730949, "min_gap_b": 0.4494897427831782, "size_a": 10, '
            '"size_b": 10, "tol": 1e-07}'
        ),
        (2, 3, 2): (
            '{"count": 3, "level": 2, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.10717722122400863, "min_gap_b": 0.12248465859239932, '
            '"size_a": 34, "size_b": 34, "tol": 1e-07}'
        ),
        (2, 3, 3): (
            '{"count": 3, "level": 3, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.026852320940226826, "min_gap_b": 0.03115119969081448, '
            '"size_a": 130, "size_b": 130, "tol": 1e-07}'
        ),
        (2, 3, 4): (
            '{"count": 3, "level": 4, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.00671398811899393, "min_gap_b": 0.007819084121217346, '
            '"size_a": 514, "size_b": 514, "tol": 1e-07}'
        ),
        (2, 3, 5): (
            '{"count": 3, "level": 5, "matched": [[0.0, 0.0], [1.0, 0.0], "inf"], '
            '"min_gap_a": 0.0016785112167938543, "min_gap_b": 0.0019566965910072787, '
            '"size_a": 2050, "size_b": 2050, "tol": 1e-07}'
        ),
        ((0, 1, 2, 5), (0, 1, 3, "inf"), 3): (
            '{"count": 2, "level": 3, "matched": [[0.0, 0.0], [1.0, 0.0]], '
            '"min_gap_a": 0.02426169128648159, "min_gap_b": 0.03115119969081459, '
            '"size_a": 130, "size_b": 130, "tol": 1e-07}'
        ),
    }
    # the (2, 2) control matches all 130 points; its 5048-byte string by digest
    BFT_CONTROL_SHA256 = "5c5ab63b1c55db9e6f2d563c3307d2d2d6acbdec0f362bde3ec13ab554132985"

    @pytest.mark.parametrize("case", sorted(BFT_RECORDED, key=repr))
    def test_bft_json_unchanged(self, case):
        assert json.dumps(bft_scan(*case), sort_keys=True) == self.BFT_RECORDED[case]

    def test_bft_control_json_unchanged(self):
        text = json.dumps(bft_scan(2, 2, 3), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.BFT_CONTROL_SHA256
