"""Archimedean energies: circle closed forms, quadrature, Monte Carlo estimates.

The raw pairing is (m1, m2) = - double integral of log|z - w|; the squared
pairing <m1, m2> = (1/2)(m1 - m2, m1 - m2) is assembled from raw pairings
with the off-diagonal convention for cloud self-energies.  Circle/Dirac
combinations have closed forms (Jensen); genuinely overlapping circles fall
back to a single angular quadrature; clouds go through one tiled O(n^2) sum
of log distances.

Two Lattes equilibrium measures are paired in O(n) instead, by the dynamical
pairing of Petsche-Szpiro-Tucker:
<mu_a, mu_b> = (1/2)[int (G_a - G_b) dmu_b - int (G_a - G_b) dmu_a], where G
is the escape rate of a homogeneous lift.  G_a - G_b is bounded and
continuous on P^1, so each integral is a plain sample mean over the
backward-orbit chain, with a batch-means standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import CoincidentAtoms, NonConvergentRoots, QuadratureFailure, SingularPair
from .lattes import LegendreParam, lattes_preimages, legendre_form

_TILE = 256
_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), k=1)
_MAX_COINCIDENT_FRACTION = 1e-3
_ESCAPE_STEPS = 24  # the series tail is below 4^-24 max |log||F(u)||| over unit u
_BATCHES = 20  # contiguous batches per chain for the standard error
_CHUNK = 4096  # samples per escape-rate block, which bounds the temporaries


@dataclass(frozen=True)
class DiracAt:
    c: complex


@dataclass(frozen=True)
class Circle:
    """Normalized Haar measure on the circle |z - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True, eq=False)
class Cloud:
    """Equal-weight atoms at complex points; compares by identity."""

    points: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.points)


ArchMeasure = DiracAt | Circle | Cloud

UNIT_CIRCLE = Circle(0j, 1.0)


def circle_potential(c: complex, r: float, z: complex) -> float:
    """Potential of the Haar circle measure: log max(|z - c|, r)."""
    return math.log(max(abs(z - c), r))


def _circle_circle_mean(c1: complex, r1: float, c2: complex, r2: float, tol: float) -> float:
    """Mean of log|z - w| over two circles; closed forms when they do not cross."""
    d = abs(c1 - c2)
    if d == 0.0:
        return math.log(max(r1, r2))
    # integrate over the circle whose potential plateau is wider
    if r1 < r2:
        c1, r1, c2, r2 = c2, r2, c1, r1
    if d >= r1 + r2:
        return math.log(d)
    if d + r2 <= r1:
        return math.log(r1)

    def f(phi: float) -> float:
        dist2 = d * d + r2 * r2 - 2.0 * d * r2 * math.cos(phi)
        return math.log(max(math.sqrt(max(dist2, 0.0)), r1))

    pts = []
    cos_star = (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)
    if -1.0 < cos_star < 1.0:
        pts.append(math.acos(cos_star))
    val, err = quad(f, 0.0, math.pi, points=pts or None, limit=200, epsabs=tol, epsrel=tol)
    if not math.isfinite(val) or err > max(10 * tol, 1e-7):
        raise QuadratureFailure(f"circle pairing quadrature error {err:.2e}")
    return val / math.pi


def _log_dist_sum(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Sum of log|x_i - y_j|^2 over pairs at nonzero distance, and the zero count.

    Direct differences over fixed tiles; when ``y is x`` only the pairs i < j.
    """
    same = y is x
    xr, xi = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    yr, yi = (xr, xi) if same else (np.ascontiguousarray(y.real), np.ascontiguousarray(y.imag))
    d2_buf, t_buf = np.empty((_TILE, _TILE)), np.empty((_TILE, _TILE))
    sums, zeros = [], 0
    for i0 in range(0, len(xr), _TILE):
        i1 = min(i0 + _TILE, len(xr))
        for j0 in range(i0 if same else 0, len(yr), _TILE):
            j1 = min(j0 + _TILE, len(yr))
            d2, t = d2_buf[: i1 - i0, : j1 - j0], t_buf[: i1 - i0, : j1 - j0]
            np.subtract.outer(xr[i0:i1], yr[j0:j1], out=d2)
            np.square(d2, out=d2)
            np.subtract.outer(xi[i0:i1], yi[j0:j1], out=t)
            np.square(t, out=t)
            d2 += t
            with np.errstate(divide="ignore"):
                np.log(d2, out=d2)
            logs = d2[_UPPER[: i1 - i0, : j1 - j0]] if same and i0 == j0 else d2
            s = float(logs.sum())
            if s == -math.inf:
                zero = logs == -math.inf
                zeros += int(zero.sum())
                s = float(logs[~zero].sum())
            sums.append(s)
    return math.fsum(sums), zeros


def arch_self_energy(m: ArchMeasure) -> float:
    """(m, m) with the off-diagonal convention for clouds."""
    if isinstance(m, DiracAt):
        raise SingularPair("a Dirac mass has infinite self-energy")
    if isinstance(m, Circle):
        return -math.log(m.radius)
    n = len(m.points)
    if n < 2:
        raise SingularPair("cloud self-energy needs at least two atoms")
    total, zeros = _log_dist_sum(m.points, m.points)
    excluded = 2 * zeros  # ordered pairs
    if excluded > _MAX_COINCIDENT_FRACTION * n * n:
        raise CoincidentAtoms(f"{excluded} coincident off-diagonal pairs in a cloud")
    return -total / (n * (n - 1) - excluded)


def pair_energy_arch(m1: ArchMeasure, m2: ArchMeasure, tol: float = 1e-8) -> float:
    """The raw pairing (m1, m2) = - mean of log|z - w|.

    Closed forms: Dirac/Dirac, Dirac/circle (log max(|x-c|, r)), concentric or
    non-crossing circles; crossing circles by angular quadrature to ``tol``;
    clouds by plain means (self-pairs via the off-diagonal convention when the
    same cloud object is passed twice).
    """
    if m1 is m2:
        return arch_self_energy(m1)
    if isinstance(m1, Cloud) and not isinstance(m2, Cloud):
        return pair_energy_arch(m2, m1, tol)
    if isinstance(m1, Circle) and isinstance(m2, DiracAt):
        return pair_energy_arch(m2, m1, tol)

    if isinstance(m1, DiracAt):
        if isinstance(m2, DiracAt):
            if m1.c == m2.c:
                raise SingularPair("coincident Dirac atoms")
            return -math.log(abs(m1.c - m2.c))
        if isinstance(m2, Circle):
            return -circle_potential(m2.center, m2.radius, m1.c)
        d = np.abs(m2.points - m1.c)
        zero = d == 0.0
        if zero.any():
            if zero.sum() > _MAX_COINCIDENT_FRACTION * len(d):
                raise CoincidentAtoms("cloud atoms on the Dirac point")
            d = d[~zero]
        return -float(np.log(d).mean())
    if isinstance(m1, Circle):
        if isinstance(m2, Circle):
            return -_circle_circle_mean(m1.center, m1.radius, m2.center, m2.radius, tol)
        vals = np.maximum(np.abs(m2.points - m1.center), m1.radius)
        return -float(np.log(vals).mean())
    assert isinstance(m1, Cloud) and isinstance(m2, Cloud)
    x, y = m1.points, m2.points
    # two clouds sharing one array still pair every (i, j), the diagonal included
    total, excluded = _log_dist_sum(x, y.copy() if y is x else y)
    if excluded > _MAX_COINCIDENT_FRACTION * len(x) * len(y):
        raise CoincidentAtoms(f"{excluded} coincident atom pairs across the clouds")
    return -0.5 * total / (len(x) * len(y) - excluded)


def sq_energy_arch(m1: ArchMeasure, m2: ArchMeasure, tol: float = 1e-8) -> float:
    """<m1, m2> = (1/2)(m1 - m2, m1 - m2), cloud self-terms off-diagonal."""
    return 0.5 * (
        arch_self_energy(m1) - 2.0 * pair_energy_arch(m1, m2, tol) + arch_self_energy(m2)
    )


def sample_lattes_equilibrium(
    lam,
    n: int,
    seed: int = 0,
    burn_in: int = 64,
    start: complex = 0.3 + 0.7j,
) -> Cloud:
    """Backward-orbit sample of the Legendre Lattes equilibrium measure.

    A single chain: each step replaces the current point by a uniformly random
    one of the four preimages of L(t) = current, repeated by multiplicity and
    sorted by (real, imag) as ``lattes_preimages`` returns them.  The first
    ``burn_in`` points are discarded.  Deterministic given the seed.  The
    parameter must avoid 0, 1 and infinity (``DegenerateQuadruple`` otherwise).
    """
    if n < 100:
        raise ValueError("need n >= 100 samples")
    lamc = complex((lam if isinstance(lam, LegendreParam) else LegendreParam(lam)).lam)
    rng = np.random.default_rng(seed)
    t = complex(start)
    out = np.empty(n, dtype=complex)
    for k in range(burn_in + n):
        t = lattes_preimages(t, lamc)[rng.integers(4)]
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise NonConvergentRoots("backward orbit left the finite plane")
        if k >= burn_in:
            out[k - burn_in] = t
    return Cloud(out)


def escape_rate(lam, x, y) -> np.ndarray:
    """Escape rate G(v) = lim 4^-k log||F^k(v)|| on arrays of vectors v = (x, y).

    F(x, y) = ((x^2 - lam y^2)^2, 4xy(x - y)(x - lam y)) lifts the Legendre
    map to C^2.  Each step renormalises, so
    G(v) = log||v|| + sum_k 4^-(k+1) log||F(u_k)|| with u_0 = v/||v|| and
    u_{k+1} = F(u_k)/||F(u_k)||, summed over a fixed ``_ESCAPE_STEPS`` terms.
    G(F(v)) = 4 G(v) and G(c v) = G(v) + log|c|.
    """
    lamc = complex(lam)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    norm = np.hypot(np.abs(x), np.abs(y))
    g = np.log(norm)
    weight = 1.0
    for _ in range(_ESCAPE_STEPS):
        x, y = x / norm, y / norm
        x2, y2 = x * x, y * y
        x, y = np.square(x2 - lamc * y2), 4.0 * (x2 - x * y) * (x * y - lamc * y2)
        norm = np.hypot(np.abs(x), np.abs(y))
        weight *= 0.25
        g += weight * np.log(norm)
    return g


def _batch_means_se(values: np.ndarray) -> float:
    """Standard error of a chain mean from the means of contiguous batches."""
    means = np.array([b.mean() for b in np.array_split(values, _BATCHES)])
    return float(means.std(ddof=1) / math.sqrt(_BATCHES))


def lattes_sq_energy_arch(
    gamma_or_lambda_a, gamma_or_lambda_b, n: int, seed: int = 0, burn_in: int = 64
) -> tuple[float, float]:
    """<mu_a, mu_b> at infinity for two Lattes maps, and its standard error.

    Each side is a Legendre parameter or a quadruple (as for ``torsion_images``).
    The chains are ``sample_lattes_equilibrium`` with seeds ``seed`` and
    ``seed + 1``.  For a quadruple with normalizing Moebius matrix M, a sample
    w is pulled back to the homogeneous vector adj(M)(w, 1) and
    G_quad(v) = G_L(M v), so no point is divided or dropped.  The estimate is
    (1/2)[mean over chain b - mean over chain a] of G_a - G_b, evaluated in
    blocks of ``_CHUNK`` samples; the error is combined from batch means over
    ``_BATCHES`` contiguous batches per chain.
    """
    sides = [legendre_form(g) for g in (gamma_or_lambda_a, gamma_or_lambda_b)]
    lams = [complex(param.lam) for param, _ in sides]
    mats = [
        (1, 0, 0, 1) if mob is None else tuple(complex(c) for c in (mob.a, mob.b, mob.c, mob.d))
        for _, mob in sides
    ]
    diffs = []
    for k, (param, _) in enumerate(sides):
        w = sample_lattes_equilibrium(param, n, seed=seed + k, burn_in=burn_in).points
        a, b, c, d = mats[k]
        diff = np.empty(n)
        for i in range(0, n, _CHUNK):
            x, y = d * w[i : i + _CHUNK] - b, a - c * w[i : i + _CHUNK]  # adj(M) (w, 1)
            g_a, g_b = (
                escape_rate(lam, m0 * x + m1 * y, m2 * x + m3 * y)
                for lam, (m0, m1, m2, m3) in zip(lams, mats)
            )
            diff[i : i + _CHUNK] = g_a - g_b
        diffs.append(diff)
    estimate = 0.5 * (float(diffs[1].mean()) - float(diffs[0].mean()))
    stderr = 0.5 * math.hypot(_batch_means_se(diffs[0]), _batch_means_se(diffs[1]))
    return estimate, stderr
