"""One route each for a Lattes side, a Lattes system and a p-adic log.

The digest was recorded before ``pair_energy_global`` read its two sides
through ``LattesFamily`` and before ``log_abs`` at a finite place went through
``log_abs_diff``; every float it covers is bit-identical since.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from arakelov import adelic, lattes, places
from arakelov.adelic import LattesFamily, StandardFamily

PIN_SHA256 = "3cc4ef739bcc360f0fe9f2bc463c3031b20f59add243747a8bc57dc58d4de156"

QUAD = (3, Fraction(1, 7), -5, places.INFINITY)
SMOOTHED = adelic.finite_set(["1/2", 6, -4], {"inf": 0.5, "7": 0.25, "2": 3.0})
LOG_PLACES = [places.finite(p, eps) for p in (2, 3, 5, 7, 101) for eps in (1.0, 0.5, 2.0, 1 / 3)]
LOG_PLACES += [places.TRIVIAL, places.ARCH]


def _update(digest, *items):
    for item in items:
        digest.update(item.encode() if isinstance(item, str) else repr(item).encode())
        digest.update(b"\n")


def _rationals(rng, count):
    out = [Fraction(0)]
    for _ in range(count):
        p = int(rng.choice([2, 3, 5, 7, 101]))
        num = int(rng.integers(-(10**9), 10**9)) * p ** int(rng.integers(0, 6))
        den = int(rng.integers(1, 10**9)) * p ** int(rng.integers(0, 6))
        if num:
            out.append(Fraction(num, den))
    return out


def test_adelic_and_log_outputs_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(7)
    for _ in range(150):
        cfg = adelic.random_pair_config(rng, 20)
        report = adelic.global_energy(cfg, arch_samples=1500)
        relevant = [places.place_to_json(v) for v in adelic.relevant_places(cfg)]
        _update(digest, json.dumps(report.to_json(), sort_keys=True), json.dumps(relevant))
    _update(
        digest,
        json.dumps(adelic.family_sq_energy(LattesFamily(QUAD), StandardFamily()), sort_keys=True),
        json.dumps(adelic.pair_with_smoothed_set(QUAD, SMOOTHED), sort_keys=True),
    )
    for x in _rationals(np.random.default_rng(13), 300):
        _update(digest, [places.log_abs(x, v).hex() for v in LOG_PLACES])
    assert digest.hexdigest() == PIN_SHA256


LAMBDAS = [2, Fraction(1, 9), "-3/5", Fraction(27, 4)]


@pytest.mark.parametrize("lam", LAMBDAS, ids=repr)
def test_a_parameter_is_its_legendre_quadruple(lam):
    quad = (places.INFINITY, 0, 1, lam)
    for p in (3, 5):
        v = places.finite(p)
        assert lattes.lattes_segment(lam, v) == lattes.lattes_segment(quad, v)
        units = lattes.lattes_segment_length_units(lam, v)
        assert units == lattes.lattes_segment_length_units(quad, v)
        for u, r in ((Fraction(1, 2), 0.5), (7, 3.0)):
            assert lattes.local_discrepancy(lam, u, r, v) == lattes.local_discrepancy(quad, u, r, v)
    other = Fraction(-7, 3)
    by_lam = adelic.pair_energy_global(lam, other, arch_samples=1500).to_json()
    by_quad = adelic.pair_energy_global(quad, (places.INFINITY, 0, 1, other), 1500).to_json()
    assert json.dumps(by_lam, sort_keys=True) == json.dumps(by_quad, sort_keys=True)
    assert adelic.family_sq_energy(LattesFamily(lam), LattesFamily(other)) == (
        adelic.family_sq_energy(LattesFamily(quad), LattesFamily((places.INFINITY, 0, 1, other)))
    )
