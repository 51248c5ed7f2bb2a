"""Property tests of the escape rate and the Lattes pairings over random inputs."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arakelov.energy_arch import LattesMeasure, escape_rate, lattes_pairing, pair_energy_arch
from arakelov.places import INFINITY

# derandomized, so that every run checks the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
lambdas = rationals.filter(lambda x: x not in (0, 1))
quadruples = st.lists(
    st.one_of(rationals, st.just(INFINITY)), min_size=4, max_size=4, unique=True
)
sides = st.one_of(lambdas, quadruples)
parts = st.floats(-1e3, 1e3)
complexes = st.builds(complex, parts, parts)


def lift(lam, x, y):
    return (x * x - lam * y * y) ** 2, 4 * x * y * (x - y) * (x - lam * y)


def nonzero_vector(x, y):
    assume(math.hypot(abs(x), abs(y)) >= 1e-3)
    return np.array([x]), np.array([y])


@PROPERTY
@given(lambdas, complexes, complexes)
def test_escape_rate_functional_equation(lam, x, y):
    x, y = nonzero_vector(x, y)
    g = escape_rate(lam, x, y)
    fx, fy = lift(complex(lam), x, y)
    assert abs(escape_rate(lam, fx, fy) - 4.0 * g)[0] <= 1e-12 * max(1.0, abs(4.0 * g[0]))


@PROPERTY
@given(lambdas, complexes, complexes, complexes)
def test_escape_rate_homogeneity(lam, x, y, c):
    x, y = nonzero_vector(x, y)
    assume(abs(c) >= 1e-3)
    g = escape_rate(lam, x, y)
    shift = math.log(abs(c))
    got = escape_rate(lam, c * x, c * y) - g
    assert abs(got - shift)[0] <= 1e-12 * max(1.0, abs(g[0]), abs(shift))


@PROPERTY
@given(sides, sides, st.integers(0, 1000))
def test_lattes_pairings_are_symmetric(a, b, seed):
    mu_a, mu_b = LattesMeasure(a, 200, seed), LattesMeasure(b, 200, seed + 1)
    assert lattes_pairing(mu_a, mu_b) == lattes_pairing(mu_b, mu_a)
    assert pair_energy_arch(mu_a, mu_b) == pair_energy_arch(mu_b, mu_a)
