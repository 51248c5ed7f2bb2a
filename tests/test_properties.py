"""Property tests of the escape rate, the Lattes pairings and potential, the
array preimage kernel, the torsion images, the ultrametric energies, flow
scaling and the CLI over random inputs."""

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arakelov import cli
from arakelov.adelic import local_pair_energy
from arakelov.energy_arch import (
    Cloud,
    LattesMeasure,
    arch_self_energy,
    escape_rate,
    lattes_pairing,
    pair_energy_arch,
)
from arakelov.energy_ua import (
    energy_closed_form,
    energy_oracle,
    energy_union_check,
    segment_measure,
)
from arakelov.lattes import (
    PointIndex,
    as_side,
    lattes_preimages,
    lattes_preimages_array,
    lattes_segment,
    legendre_lattes_eval,
    torsion_image_arrays,
    torsion_images,
)
from arakelov.places import ARCH, INFINITY, TRIVIAL, finite, log_abs, log_abs_diff
from arakelov.suite import random_quadruple
from arakelov.tree import (
    TreePoint,
    classify_pair,
    hsia_log_kernel,
    point_on_path,
    segment_between,
)
from test_tree import scale_point, translate_point

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
@given(st.integers(0, 2**32 - 1), quadruples)
def test_escape_rate_lambda_per_point(seed, quad):
    # one call over a shuffled mix of vectors for several parameters against
    # one call per parameter, bit for bit; the quadruple's vectors are M v
    rng = np.random.default_rng(seed)
    mu = LattesMeasure(quad)
    lams, xs, ys, expected = [], [], [], []
    for lam in [2, Fraction(1, 9), -1000, 3 + 0.5j, mu.lam]:
        n = int(rng.integers(1, 50))
        x, y = (
            (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4, n)
            for _ in range(2)
        )
        if lam == mu.lam:
            x, y = mu.lift(x, y)
        lams.append(np.full(n, complex(lam)))
        xs.append(x)
        ys.append(y)
        expected.append(escape_rate(lam, x, y))
    order = rng.permutation(sum(map(len, lams)))
    lam, x, y, expected = (np.concatenate(parts)[order] for parts in (lams, xs, ys, expected))
    assert (escape_rate(lam, x, y).view(np.int64) == expected.view(np.int64)).all()


@PROPERTY
@given(sides, sides)
def test_lattes_pairings_are_symmetric(a, b):
    mu_a, mu_b = LattesMeasure(a, 200), LattesMeasure(b, 200)
    assert lattes_pairing(mu_a, mu_b) == lattes_pairing(mu_b, mu_a)
    assert pair_energy_arch(mu_a, mu_b) == pair_energy_arch(mu_b, mu_a)


@PROPERTY
@given(sides, st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)))
def test_lattes_potential_is_the_grid_mean(side, u):
    # U(u) = G(u, 1) - G(1, 0) against the mean of log|u - x| over the
    # level-7 grid, 4^7 points equidistributed for the measure; G(1, 0) is 0
    # for a Legendre parameter, so quadruples are what test that constant
    mu = LattesMeasure(side, 4**7)
    _, ((x, y), _) = mu.grid_levels()
    assert abs(float(np.log(np.abs(u - x / y)).mean()) - float(mu.potential(u))) <= 1e-3


@PROPERTY
@given(lambdas.filter(lambda x: abs(x.numerator) <= 20 and x.denominator <= 20))
def test_lattes_self_energy_is_the_grid_energy(lam):
    # the off-diagonal energy of N grid points carries -ln N / (2N); one
    # Richardson step from level 4 to level 5 leaves -ln 4 / (6 N / 4) of it,
    # which is added back.  Over all 509 parameters of height <= 20 the
    # residual is at most 1.5e-5; the bound is twice that.
    mu = LattesMeasure(lam, 4**5)
    coarse, fine = (arch_self_energy(Cloud(x / y)) for (x, y), _ in mu.grid_levels())
    richardson = (4.0 * fine - coarse) / 3.0 + math.log(4.0) / (6.0 * 4**4)
    assert abs(mu.self_energy - richardson) <= 3.0e-5


@PROPERTY
@given(lambdas, st.lists(complexes, min_size=1, max_size=5))
def test_preimage_array_matches_scalar_route(lam, ws):
    # the preimages of ws[i] sit at i, n + i, 2n + i, 3n + i; the scalar
    # route is the oracle, matched as a multiset
    n = len(ws)
    out = lattes_preimages_array(np.array(ws), complex(lam)).reshape(4, n)
    for i, w in enumerate(ws):
        got = list(out[:, i])
        for t in got:
            back = legendre_lattes_eval(lam, complex(t))
            assert back is not INFINITY and abs(back - w) <= 1e-9 * max(1.0, abs(w))
        for p in lattes_preimages(w, lam):
            dist = [abs(t - p) for t in got]
            j = int(np.argmin(dist))
            assert dist[j] <= 1e-12 * abs(p)
            got.pop(j)


@PROPERTY
@given(sides, st.integers(0, 4))
def test_torsion_images_are_distinct(side, level):
    # 2 4^level + 2 points carry the 4^(level+1) images, no two of the float
    # points coincide, and the finite ones come sorted, infinity last
    pts = torsion_images(side, level)
    assert len(pts) == 2 * 4**level + 2
    assert sum(m for _, m in pts) == 4 ** (level + 1)
    finite = [p for p, _ in pts if p is not INFINITY]
    assert PointIndex(finite).min_gap() > 0
    assert [p for p, _ in pts[: len(finite)]] == sorted(finite, key=lambda p: (p.real, p.imag))


@PROPERTY
@given(st.integers(0, 2**32 - 1), lambdas, st.integers(0, 5))
def test_torsion_image_order_is_lexsort_order(seed, lam, level):
    # lexsort by (real, imag) is the oracle of the complex sort; a real lam
    # gives conjugate pairs, so equal real parts exercise the imaginary key
    for side in (random_quadruple(np.random.default_rng(seed), 20), lam):
        p = torsion_image_arrays(side, level)[0]
        assert (np.lexsort((p.imag, p.real)) == np.arange(len(p))).all()
    assert level == 0 or (np.diff(p.real) == 0).any()  # lam's points tie


BIG = 10**30
big_rationals = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
all_places = st.one_of(
    st.builds(finite, st.sampled_from([2, 3, 5, 7, 101]), st.sampled_from([1.0, 0.5, 2.0, 1 / 3])),
    st.just(TRIVIAL),
    st.just(ARCH),
)


@settings(PROPERTY, max_examples=400)
@given(big_rationals, big_rationals, st.integers(-12, 12), st.integers(-12, 12), all_places)
def test_log_abs_diff_is_log_abs_of_the_difference(a, c, i, j, v):
    # b - a = c p^j, a carries p^i: the differences cancel up to a forced p-power
    q = v.p or 3
    a *= Fraction(q) ** i
    b = a + c * Fraction(q) ** j
    for x, y in ((a, b), (b, a), (a, a)):
        assert log_abs_diff(x, y, v).hex() == log_abs(x - y, v).hex()


@st.composite
def ua_pairs(draw):
    """A finite place and two segment measures; log radii on a grid of
    (log p)/2, so that joins and endpoints tie often."""
    v = finite(draw(st.sampled_from([3, 5, 7])))

    def measure():
        a, b = (TreePoint(draw(rationals), draw(st.integers(-6, 6)) * 0.5 * math.log(v.p))
                for _ in range(2))
        return segment_measure(segment_between(a, b, v))

    return v, measure(), measure()


def config_lengths(cfg):
    last = "d_ab" if cfg.variant == "disjoint" else "l_ab"
    return cfg.variant, [getattr(cfg, k) for k in ("la", "lb", "la1", "la2", "lb1", "lb2", last)]


def close(x, y):
    return abs(x - y) <= 1e-12 * max(1.0, abs(x))


@PROPERTY
@given(ua_pairs(), rationals, rationals.filter(lambda c: c != 0))
def test_ultrametric_moebius_invariance(pair, t, c):
    v, ia, ib = pair
    energy = energy_closed_form(ia, ib, v)
    variant, lengths = config_lengths(classify_pair(ia.support, ib.support, v))
    for move in (lambda x: translate_point(x, t, v), lambda x: scale_point(x, c, v)):
        ja, jb = (segment_measure(segment_between(move(m.support.a), move(m.support.b), v))
                  for m in (ia, ib))
        assert close(energy, energy_closed_form(ja, jb, v))
        moved_variant, moved_lengths = config_lengths(classify_pair(ja.support, jb.support, v))
        assert moved_variant == variant
        assert all(close(x, y) for x, y in zip(lengths, moved_lengths))


@PROPERTY
@given(ua_pairs())
def test_ultrametric_energies_are_symmetric(pair):
    v, ia, ib = pair
    assert close(energy_closed_form(ia, ib, v), energy_closed_form(ib, ia, v))
    assert close(energy_oracle(ia, ib, v, n=64), energy_oracle(ib, ia, v, n=64))


@PROPERTY
@given(ua_pairs())
def test_hsia_kernel_is_symmetric(pair):
    v, ia, ib = pair
    ends = [ia.support.a, ia.support.b, ib.support.a, ib.support.b]
    for x in ends:
        for y in ends:
            assert hsia_log_kernel(x, y, v) == hsia_log_kernel(y, x, v)


@PROPERTY
@given(ua_pairs(), st.floats(0.01, 0.99))
def test_union_recursion(pair, t):
    # ib's support split at the point a fraction t along it; t stays away
    # from 0 and 1 because segment_between snaps a piece shorter than
    # tree.EQ_TOL to a singleton of length 0, which energy_union_check refuses
    v, ia, ib = pair
    seg = ib.support
    assume(not seg.is_singleton)
    mid = point_on_path(seg.a, seg.b, v, t * seg.length)
    b1, b2 = (segment_measure(segment_between(x, y, v)) for x, y in ((seg.a, mid), (mid, seg.b)))
    lhs, rhs = energy_union_check(ia, b1, b2, v)
    assert abs(lhs - rhs) <= 1e-10


@PROPERTY
@given(quadruples, quadruples, st.sampled_from([3, 5, 7, 11, 13]), st.floats(0.05, 20))
def test_flow_scales_segments_and_energies(a, b, p, eps):
    # every local quantity at finite(p, eps) is eps times its eps = 1 value
    qa, qb = as_side(a), as_side(b)
    v1, ve = finite(p), finite(p, eps)
    assert close(lattes_segment(qa, ve).length, eps * lattes_segment(qa, v1).length)
    assert close(local_pair_energy(qa, qb, ve), eps * local_pair_energy(qa, qb, v1))


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


SEG = json.dumps({"endpoints": [
    {"chart": "direct", "center": "0", "log_radius": 0.0},
    {"chart": "direct", "center": "0", "log_radius": 1.0},
]})
FUZZ_ARGV = [
    ["adelic", "gap-scan", "--count", "-2"],
    ["adelic", "suite", "--count", "-1"],
    ["energy", "ua", "--ia", SEG, "--ib", SEG, "--place", "5", "--oracle-n", "-3"],
    ["energy", "ua", "--ia", SEG, "--ib", SEG, "--place", "5", "--oracle-n", "1"],
    ["energy", "ua", "--ia", SEG, "--ib", SEG, "--place", "5", "--oracle-n", "0"],
    ["energy", "ua", "--ia", SEG, "--ib", SEG, "--place", "5", "--oracle-n", "1000001"],
    ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "-1"],
    ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "nan"],
    ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "1e308"],
    ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "1", "--tol", "-1"],
    ["tree", "kernel", "--x", '{"center":"1","log_radius":1e400}',
     "--y", '{"center":"0","log_radius":0}', "--place", "5"],
    ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--seed", "7"],
    ["adelic", "gap-scan", "--count", "0"],
    ["adelic", "gap-scan", "--count", "1", "--height", "5", "--arch-samples", "100"],
    ["adelic", "suite", "--count", "2"],
    ["energy", "ua", "--ia", SEG, "--ib", SEG, "--place", "5", "--oracle-n", "2"],
    ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "5e-324"],
    ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "1", "--tol", "3"],
    ["lattes", "torsion", "--lambda", "2", "--level", "3", "--tol", "1e300"],
    ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "3", "--tol", "1e300"],
    ["places", "logabs", "--x", "2", "--bogus"],
    ["energy", "arch", "--lambda-a", "2"],
    ["lattes", "torsion", "--lambda", "2", "--level", "x"],
    ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "-1e+16"],
    ["adelic", "suite", "--count", "2", "--height=-1"],
    ["adelic", "gap-scan", "--count", "1", "--height=-5"],
    ["adelic", "suite", "--count", "2", "--seed=-1"],
    ["suite", "--quick", "--seed=-3"],
    ["places", "logabs", "--x", "1/9", "--place", "3", "--epsilon", "0"],
    ["places", "logabs", "--x", "1/9", "--epsilon", "0"],
    ["places", "logabs", "--x", "1/9", "--place", "trivial", "--epsilon=-5"],
    ["tree", "kernel", "--x", '{"center":"1","log_radius":0}',
     "--y", '{"center":"2","log_radius":NaN}', "--place", "3"],
    ["tree", "kernel", "--x", '{"center":"2","log_radius":NaN}',
     "--y", '{"center":"1","log_radius":0}', "--place", "3"],
    ["tree", "join", "--x", '{"center":"1","log_radius":0}',
     "--y", '{"center":"2","log_radius":NaN}', "--place", "3"],
    ["tree", "join", "--x", '{"center":"1","log_radius":0}',
     "--y", '{"center":"2","log_radius":Infinity}', "--place", "3"],
    ["tree", "kernel", "--x", "[1,2]", "--y", '{"center":"1","log_radius":0}', "--place", "3"],
    ["tree", "join", "--x", '"s"', "--y", '"t"', "--place", "3"],
    ["tree", "classify", "--ia", '{"endpoints":"ab"}', "--ib", '{"endpoints":"ab"}',
     "--place", "3"],
    ["lattes", "segment", "--gamma", '"1234"', "--place", "3"],
    ["adelic", "energy", "--config-json", '{"a":"123","b":"456"}'],
    ["adelic", "bft", "--lambda-a", "10000000000000001/10000000000000000", "--lambda-b", "2",
     "--level", "5"],
    ["energy", "arch", "--lambda-a", "100000000000001/100000000000000", "--lambda-b", "2",
     "--samples", "4000"],
    ["energy", "arch", "--lambda-a", "1" + "0" * 400, "--lambda-b", "2"],
    ["lattes", "torsion", "--lambda", "1" + "0" * 400, "--level", "1"],
    ["lattes", "torsion", "--lambda", "1" + "0" * 200, "--level", "2"],
    ["adelic", "bft", "--lambda-a", "1" + "0" * 400, "--lambda-b", "2", "--level", "1"],
    ["adelic", "energy", "--config-json", json.dumps({"a": ["1" + "0" * 400, "2", "3"],
                                                      "b": ["4", "5", "6"]})],
    ["adelic", "energy", "--config-json", json.dumps({"a": [f"{k}/1{'0' * 150}" for k in (1, 2, 3)],
                                                      "b": ["4", "5", "6"]})],
    ["adelic", "energy", "--config-json", json.dumps({"a": [f"{k}/1{'0' * 200}" for k in (1, 2, 3)],
                                                      "b": ["4", "5", "6"]})],
    ["energy", "ua", "--place", "5",
     "--ia", '{"endpoints":[{"center":"0","log_radius":-1e308},{"center":"0","log_radius":0}]}',
     "--ib", '{"endpoints":[{"center":"0","log_radius":-1e308},{"center":"0","log_radius":1}]}'],
    ["energy", "ua", "--place", "5", "--epsilon", "1e300",
     "--ia", '{"endpoints":[{"center":"0","log_radius":0},{"center":"1/5","log_radius":0}]}',
     "--ib", '{"endpoints":[{"center":"0","log_radius":0},{"center":"2/5","log_radius":0}]}'],
    ["lattes", "torsion", "--lambda", "100000000000000000001/100000000000000000000", "--level", "1"],
]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue(), parse_constant=_refuse)


@pytest.mark.parametrize("argv", FUZZ_ARGV)
def test_cli_fuzz_table(argv):
    code, payload = run_cli(argv)
    assert code in (0, 1, 2)
    assert (code == 0) == ("error" not in payload)


@PROPERTY
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_cli_tolerance_fuzz(tol):
    # as a separate token, "-1e+16" reads as an option: still a usage error
    argv = ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "5", "--level", "1"]
    for tail in ([f"--tol={tol!r}"], ["--tol", repr(tol)]):
        code, payload = run_cli(argv + tail)
        assert code == (0 if 0.0 < tol < 2.0**1022 else 2)
        assert code == 0 or payload["error"] == "UsageError"
