"""Archimedean energies: circle closed forms, quadrature, Monte Carlo clouds.

The raw pairing is (m1, m2) = - double integral of log|z - w|; the squared
pairing <m1, m2> = (1/2)(m1 - m2, m1 - m2) is assembled from raw pairings
with the off-diagonal convention for cloud self-energies.  Circle/Dirac
combinations have closed forms (Jensen); genuinely overlapping circles fall
back to a single angular quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import CoincidentAtoms, NonConvergentRoots, QuadratureFailure, SingularPair
from .lattes import LegendreParam, lattes_preimages

_BLOCK = 512
_MAX_COINCIDENT_FRACTION = 1e-3


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


def _sq_dist_block(a: np.ndarray, b: np.ndarray, na2: np.ndarray, nb2: np.ndarray) -> np.ndarray:
    """Squared distances |a_i - b_j|^2 via one GEMM; a, b are (m, 2) real stacks."""
    d2 = a @ b.T
    d2 *= -2.0
    d2 += na2[:, None]
    d2 += nb2[None, :]
    np.maximum(d2, 0.0, out=d2)  # clip rounding negatives
    return d2


def _as_real_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.column_stack((x.real, x.imag))
    return a, (a * a).sum(axis=1)


def _cloud_cross_mean(x: np.ndarray, y: np.ndarray) -> float:
    a, na2 = _as_real_stack(x)
    b, nb2 = _as_real_stack(y)
    total = 0.0
    excluded = 0
    for i0 in range(0, len(x), _BLOCK):
        d2 = _sq_dist_block(a[i0 : i0 + _BLOCK], b, na2[i0 : i0 + _BLOCK], nb2)
        zero = d2 == 0.0
        nz = int(zero.sum())
        if nz:
            excluded += nz
            d2[zero] = 1.0
        total += float(np.log(d2).sum())
    pairs = len(x) * len(y) - excluded
    if excluded > _MAX_COINCIDENT_FRACTION * len(x) * len(y):
        raise CoincidentAtoms(f"{excluded} coincident atom pairs across the clouds")
    return 0.5 * total / pairs


def _cloud_self_mean(x: np.ndarray) -> float:
    """Off-diagonal mean of log|x_i - x_j|."""
    n = len(x)
    if n < 2:
        raise SingularPair("cloud self-energy needs at least two atoms")
    a, na2 = _as_real_stack(x)
    total = 0.0
    excluded = 0
    for i0 in range(0, n, _BLOCK):
        d2 = _sq_dist_block(a[i0 : i0 + _BLOCK], a, na2[i0 : i0 + _BLOCK], na2)
        idx = np.arange(d2.shape[0])
        d2[idx, i0 + idx] = 1.0  # diagonal masked
        zero = d2 == 0.0
        nz = int(zero.sum())
        if nz:
            excluded += nz
            d2[zero] = 1.0
        total += float(np.log(d2).sum())
    pairs = n * (n - 1) - excluded
    if excluded > _MAX_COINCIDENT_FRACTION * n * n:
        raise CoincidentAtoms(f"{excluded} coincident off-diagonal pairs in a cloud")
    return 0.5 * total / pairs


def arch_self_energy(m: ArchMeasure) -> float:
    """(m, m) with the off-diagonal convention for clouds."""
    if isinstance(m, DiracAt):
        raise SingularPair("a Dirac mass has infinite self-energy")
    if isinstance(m, Circle):
        return -math.log(m.radius)
    return -_cloud_self_mean(m.points)


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
    return -_cloud_cross_mean(m1.points, m2.points)


def sq_energy_arch(m1: ArchMeasure, m2: ArchMeasure, tol: float = 1e-8) -> float:
    """<m1, m2> = (1/2)(m1 - m2, m1 - m2), cloud self-terms off-diagonal."""
    return 0.5 * (
        arch_self_energy(m1) - 2.0 * pair_energy_arch(m1, m2, tol) + arch_self_energy(m2)
    )


def cloud_energy(a: Cloud, b: Cloud) -> float:
    """Cloud-vs-cloud estimate of the squared pairing."""
    return sq_energy_arch(a, b)


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
    parameter must avoid 0 and 1 (``DegenerateQuadruple`` otherwise).
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
