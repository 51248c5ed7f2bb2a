"""Input guards that no other test reaches: each input raises its stable type."""

from fractions import Fraction

import numpy as np
import pytest

from arakelov import tree
from arakelov.adelic import pair_config, random_rational
from arakelov.energy_arch import Circle, Cloud, arch_self_energy, pair_energy_arch
from arakelov.energy_ua import energy_union_check, lower_bound_report, segment_measure
from arakelov.errors import (
    BadBoundParameters,
    CoincidentAtoms,
    DegenerateConfig,
    DegenerateQuadruple,
    NotAbuttable,
    PlaceMismatch,
    SingularPair,
    Type1Endpoint,
)
from arakelov.lattes import MobiusMap, Quadruple
from arakelov.places import ARCH, INFINITY, Place, finite

V5 = finite(5)


def seg_measure(lo, hi):
    """Lebesgue measure on [eta(0, lo), eta(0, hi)] at 5."""
    return segment_measure(tree.segment_between(tree.eta(0, lo), tree.eta(0, hi), V5))


def coincident_clouds():
    return pair_energy_arch(Cloud(np.zeros(4, complex)), Cloud(np.zeros(4, complex)))


def overlapping_pieces():
    # the pieces share eta(0, 0) but overlap, so their union is shorter than both
    return energy_union_check(seg_measure(0, 1), seg_measure(0, 1), seg_measure(0, 2), V5)


def rho_too_small():
    # nested pair, la = 4 and lb = 1: lam = 1 is admissible, but 4 > rho lam
    return lower_bound_report(seg_measure(0, 4), seg_measure(1.5, 2.5), V5, lam=1.0, rho=0.5)


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: pair_config([1, 2], [1, 2, 3]), DegenerateConfig, "three entries",
                     id="two-entry side"),
        pytest.param(lambda: Quadruple((Fraction(0), Fraction(1), INFINITY)),
                     DegenerateQuadruple, "four points", id="three-point quadruple"),
        pytest.param(lambda: MobiusMap(1, 1, 1, 1), DegenerateQuadruple, "determinant",
                     id="singular Moebius map"),
        pytest.param(lambda: Place("padic"), ValueError, "unknown place kind",
                     id="unknown place kind"),
        pytest.param(lambda: Place("archimedean", 3), ValueError, "only finite places",
                     id="archimedean place with a prime"),
        pytest.param(lambda: Circle(0j, 0.0), ValueError, "positive", id="zero circle radius"),
        pytest.param(lambda: random_rational(np.random.default_rng(0), 0), ValueError,
                     "at least 1", id="height 0"),
        pytest.param(lambda: tree.segment_between(tree.GAUSS, tree.eta(0, 1.0), ARCH),
                     PlaceMismatch, "finite place", id="segment at infinity"),
        pytest.param(lambda: tree.segment_between(tree.type1(0), tree.GAUSS, V5),
                     Type1Endpoint, "type 2 or 3", id="type-1 segment end"),
        pytest.param(lambda: arch_self_energy(Cloud(np.array([1j]))), SingularPair, "two atoms",
                     id="one-atom cloud"),
        pytest.param(coincident_clouds, CoincidentAtoms, "across the clouds",
                     id="coincident clouds"),
        pytest.param(overlapping_pieces, NotAbuttable, "not a segment", id="overlapping pieces"),
        pytest.param(rho_too_small, BadBoundParameters, "rho", id="rho too small"),
    ],
)
def test_guard_raises_its_type(call, error, match):
    with pytest.raises(error, match=match):
        call()
