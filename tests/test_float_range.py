"""Sides and segment pairs at the edges of float range: each either gives a
finite answer or fails with a stable error code, never a traceback or a
silently wrong answer."""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
import pytest

from arakelov import cli
from arakelov.energy_arch import LattesMeasure, sample_lattes_equilibrium
from arakelov.errors import NonConvergentRoots, NonFiniteResult
from arakelov.lattes import float_side, legendre_lattes_eval, normalize_to_legendre, torsion_images


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def scaled_config(scale):
    """a = (1, 2, 3) * scale with its entries written out, b = (4, 5, 6)."""
    return json.dumps({"a": [str(k * scale) for k in (1, 2, 3)], "b": ["4", "5", "6"]})


TINY = Fraction(1, 10**400)  # nonzero; its float is 0
NEAR_ONE = 1 + TINY  # its float is 1, and 1 - lam and lam^2 - lam have float 0


class TestSmallEnd:
    @pytest.mark.parametrize("lam", [TINY, NEAR_ONE], ids=["tiny", "near-one"])
    def test_torsion_refuses_a_side_whose_floats_vanish(self, lam):
        # the float route listed [0.0, 0.0] (or [1.0, 0.0]) seven times with exit 0
        with pytest.raises(NonFiniteResult, match=r"near 2\^-13\d\d lies below the normal float"):
            torsion_images(lam, 1)
        code, payload = run_cli(["lattes", "torsion", "--lambda", str(lam), "--level", "1"])
        assert (code, payload["error"]) == (1, "NonFiniteResult")
        assert len(payload["message"]) < 100  # sized, not the 400-digit rational

    def test_branch_point_below_the_normal_floats(self):
        # lam and M are ordinary floats here; the fourth branch point is not
        quad = (1, 2, 3, TINY)
        assert abs(float_side(quad)[1]) > 0.1
        with pytest.raises(NonFiniteResult, match="below the normal float range"):
            torsion_images(quad, 0)

    def test_subnormal_lambda(self):
        lam = Fraction(1, 2**1060)  # a subnormal float: 14 bits of 53 left
        for call in (lambda: float_side(lam), lambda: LattesMeasure(lam, 100),
                     lambda: sample_lattes_equilibrium(lam, 100),
                     lambda: legendre_lattes_eval(lam, 0.5 + 0.5j)):
            with pytest.raises(NonFiniteResult, match=r"near 2\^-1060 lies below"):
                call()

    def test_normal_floats_pass(self):
        lam = Fraction(1, 2**1020)
        assert float_side(lam)[1] == complex(lam)


class TestLogDet:
    @pytest.mark.parametrize("scale", [Fraction(1, 10**150), 10**150], ids=["small", "large"])
    def test_determinant_beyond_float_range_is_read_exactly(self, scale):
        side = (scale, 2 * scale, 3 * scale, "inf")
        _, mob = normalize_to_legendre(side)
        det = mob.a * mob.d - mob.b * mob.c
        a, b, c, d = float_side(side)[2]
        assert not 2.0**-1022 <= abs(a * d - b * c) < math.inf  # the float determinant fails
        want = mpmath.log(abs(mpmath.mpf(det.numerator) / det.denominator))
        assert LattesMeasure(side).log_det == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("scale, total",
                             [(Fraction(1, 10**150), 294.7558), (10**150, 293.3322)],
                             ids=["small", "large"])
    def test_adelic_energy_of_a_scaled_side(self, scale, total):
        # a traceback (small) and exit 1 (large) before log|det M| was read exactly
        code, payload = run_cli(["adelic", "energy", "--config-json", scaled_config(scale)])
        assert code == 0
        assert payload["total"] == pytest.approx(total, abs=1e-4)

    def test_in_range_side_is_unchanged(self):
        code, payload = run_cli(["adelic", "energy", "--config-json", scaled_config(10**100)])
        assert (code, payload["total"]) == (0, 195.5316084090286)

    def test_entries_below_the_normal_floats_still_fail(self):
        code, payload = run_cli(["adelic", "energy", "--config-json",
                                 scaled_config(Fraction(1, 10**200))])
        assert (code, payload["error"]) == (1, "NonFiniteResult")


def test_sampler_at_a_pole_of_the_deck_group():
    # float lam = 1: the deck group divides by u - 1 = 0
    with pytest.raises(NonConvergentRoots):
        sample_lattes_equilibrium(Fraction(10**16 + 1, 10**16), 100)


def segment(*ends):
    return json.dumps({"endpoints": [{"center": c, "log_radius": r} for c, r in ends]})


class TestSegmentPairsBeyondFloatRange:
    @pytest.mark.parametrize("argv", [
        ["--ia", segment(("0", -1e308), ("0", 0)), "--ib", segment(("0", -1e308), ("0", 1)),
         "--place", "5"],
        ["--ia", segment(("0", 0), ("1/5", 0)), "--ib", segment(("0", 0), ("2/5", 0)),
         "--place", "5", "--epsilon", "1e300"],
        ["--ia", segment(("0", -1e103), ("0", 0)), "--ib", segment(("0", -1e103), ("0", 1)),
         "--place", "5"],
    ], ids=["log-radius", "epsilon", "cube"])
    def test_energy_ua_overflow_is_an_error(self, argv):
        # an OverflowError traceback before
        code, payload = run_cli(["energy", "ua", *argv])
        assert (code, payload["error"]) == (1, "NonFiniteResult")

    def test_oracle_overflow_is_an_error(self):
        # disjoint, so the closed form stays finite; the oracle's atoms overflow
        argv = ["energy", "ua", "--ia", segment(("1/25", -1e100), ("1/25", -1e308)),
                "--ib", segment(("1", 1e200), ("3", -1e100)), "--place", "5"]
        code, payload = run_cli(argv)
        assert (code, payload["error"]) == (1, "NonFiniteResult")

    def test_radii_of_1e100_still_pair(self):
        argv = ["energy", "ua", "--ia", segment(("0", -1e100), ("0", 0)),
                "--ib", segment(("0", -1e100), ("0", 1)), "--place", "5"]
        code, payload = run_cli(argv)
        assert code == 0 and math.isfinite(payload["closed"])
