"""The tree layer's centre distances: a digest of what they feed, and a guard
that the ultrametric route subtracts no ``Fraction``s.

The digest was recorded before centre distances went through
``places.log_abs_diff``; every float it covers is bit-identical since.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from arakelov import adelic, energy_ua, lattes, places, suite, tree
from test_perfbench_smoke import workloads  # noqa: F401  (a fixture)

PIN_SHA256 = "51eac61190377d90e40f7df1afd5b21e7b1ffd88c1499cc2780cc17fa17d24e3"


def _update(digest, *items):
    for item in items:
        digest.update(item.encode() if isinstance(item, str) else repr(item).encode())
        digest.update(b"\n")


def test_tree_layer_outputs_pinned(workloads):  # noqa: F811
    digest = hashlib.sha256()
    for v, ia, ib in workloads["ua_oracle"].generate(11):
        _update(
            digest,
            tree.classify_pair(ia.support, ib.support, v),
            energy_ua.energy_closed_form(ia, ib, v),
            json.dumps(energy_ua.lower_bound_report(ia, ib, v), sort_keys=True),
            energy_ua.energy_oracle(ia, ib, v, n=2000),
        )
    rng = np.random.default_rng(11)
    for _ in range(300):
        gamma = suite.random_quadruple(rng, 20)
        for p in (3, 5, 7):
            seg = lattes.lattes_segment(gamma, places.finite(p))
            _update(digest, json.dumps(tree.segment_to_json(seg)), seg.length, seg.top)
    rng = np.random.default_rng(5)
    for _ in range(40):
        report = adelic.global_energy(adelic.random_pair_config(rng, 20), arch_samples=1500)
        _update(digest, json.dumps(report.to_json(), sort_keys=True))
    assert digest.hexdigest() == PIN_SHA256


def _refuse_subtraction(self, other):
    raise AssertionError("a Fraction was subtracted")


def test_ultrametric_route_subtracts_no_fractions(workloads, monkeypatch):  # noqa: F811
    # centre distances are read from the integers of both centres
    ua = workloads["ua_oracle"]
    inputs = ua.generate(11)[:50]
    rng = np.random.default_rng(3)
    quads = [suite.random_quadruple(rng, 20) for _ in range(2)]
    monkeypatch.setattr(Fraction, "__sub__", _refuse_subtraction)
    monkeypatch.setattr(Fraction, "__rsub__", _refuse_subtraction)
    with pytest.raises(AssertionError, match="subtracted"):
        Fraction(1, 2) - 1
    for inp in inputs:
        ua.op(inp)
    for p in (3, 5, 7):
        v = places.finite(p)
        lattes.lattes_segment(quads[0], v)
        adelic.local_pair_energy(quads[0], quads[1], v)
