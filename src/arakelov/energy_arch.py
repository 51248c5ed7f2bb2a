"""Archimedean energies: circle closed forms, quadratures, and cloud sums.

The raw pairing is (m1, m2) = - double integral of log|z - w|; the squared
pairing <m1, m2> = (1/2)(m1 - m2, m1 - m2) is assembled from raw pairings
with the off-diagonal convention for cloud self-energies.  Circle/Dirac
combinations have closed forms (Jensen); two crossing circles take a constant
on the arc of one inside the other's disk and a fixed 48-node Gauss-Legendre
rule on the rest, where the potential is analytic; clouds go through one tiled
O(n^2) sum of log distances.  Everything here needs numpy only.

A Lattes equilibrium measure has closed-form potential and self-energy in the
escape rate G of a homogeneous lift: it pairs with Diracs exactly and with
circles by quadrature.  Two Lattes measures pair by Petsche-Szpiro-Tucker:
<mu_a, mu_b> = (1/2)[int (G_a - G_b) d(mu_b - mu_a)], each integral a mean
over the 4^k iterated preimages of one point, a uniform grid on the torus
C/Lambda (trapezoidal rule), with one Richardson step from level k - 1.  A
measure's G on its own grids follows from G at that one point by the preimage
recursion, one log per point and level.  Each integral makes one series call,
with one lambda per point: own's G at that point and the partner's G on both
grids, since each call has a fixed cost of some 0.2 ms.  The two integrals
share no data: on level-7 grids the second runs on a worker thread made for
the call, since numpy releases the GIL in the series' ufuncs.
The backward-orbit sampler and the cloud sums are the tests' oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import CoincidentAtoms, NonConvergentRoots, NonFiniteResult, SingularPair
from .lattes import (
    adjugate_lift,
    float_side,
    lattes_preimages,
    lattes_preimages_array,
    legendre_parameter,
)

_TILE = 256
_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), k=1)
_MAX_COINCIDENT_FRACTION = 1e-3
_ESCAPE_STEPS = 24  # the series tail is below 4^-24 max |log||F(u)||| over unit u
_START = 0.3 + 0.7j  # base point of the preimage grids and the sampler; no branch value
_GRID_LEVEL_CAP = 7  # the finest grid has 4^7 = 16384 points
_CIRCLE_NODES = 4096  # equally spaced nodes of the circle-vs-Lattes quadrature
_ARC_NODES = 48  # Gauss-Legendre nodes on the outer arc of two crossing circles
_BURN_IN = 64  # sampler steps discarded before the first kept point
# fine-grid size from which the two halves of lattes_pairing run on two threads
# (numpy drops the GIL in its ufuncs); a pairing of lambda = 2 and 3, its halves
# one after the other, then on two threads, on 2 cores: level 6 (4,096 points)
# 4.15-4.33 ms, then 4.19-4.23 ms (too little to pay for a thread); level 7
# (16,384 points) 16.4-17.5 ms, then 10.3-10.4 ms.  The CPU count is not read:
# pinned to one CPU, a level-7 pairing took 17.7-17.9 ms on two threads and
# 16.7-16.9 ms on one
_THREAD_MIN_POINTS = 4**7


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


class LattesMeasure:
    """Equilibrium measure of the Lattes map of a Legendre parameter or quadruple.

    ``side`` is resolved once by ``float_side`` into lambda, the normalizing
    matrix M (the identity for a parameter) and log|det M|, all as floats;
    G(v) = G_lambda(M v) is the escape rate of the lift.  ``n`` sets the level
    k = min(7, max(2, ceil(log_4 n))) of the preimage grids of
    ``lattes_pairing``.  The measure keeps no grids: a pairing builds them and
    frees them when it returns.
    """

    def __init__(self, side, n: int = 4000):
        _, self.lam, self.mat, self.log_det = float_side(side)
        self.level = min(_GRID_LEVEL_CAP, max(2, ((n - 1).bit_length() + 1) // 2))

    def lift(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """M v for vectors v = (x, y)."""
        m0, m1, m2, m3 = self.mat
        return m0 * x + m1 * y, m2 * x + m3 * y

    def escape(self, x, y) -> np.ndarray:
        """G(v) = G_lambda(M v) on arrays of vectors v = (x, y)."""
        return escape_rate(self.lam, *self.lift(x, y))

    @cached_property
    def _g_inf(self) -> float:
        return float(self.escape(1.0, 0.0))

    def potential(self, u) -> np.ndarray:
        """U(u) = int log|u - x| dmu(x) = G(u, 1) - G(1, 0), by Liouville."""
        return self.escape(u, 1.0) - self._g_inf

    @cached_property
    def self_energy(self) -> float:
        """I = -(1/3) log|4 lam (lam - 1)| - log|det M| + 2 G(1, 0), from Res F_lam."""
        lam = self.lam
        return -math.log(abs(4.0 * lam * (lam - 1.0))) / 3.0 - self.log_det + 2.0 * self._g_inf

    def _walk(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """L^-(k-1)(w_0) and L^-k(w_0), and log|4u(u - 1)(u - lambda)| on every
        level 1..k.  The preimages of w[i] sit at i, n + i, 2n + i and 3n + i."""
        lam = self.lam
        w, logs = np.array([_START]), []
        for _ in range(self.level):
            coarse, w = w, lattes_preimages_array(w, lam)
            logs.append(np.log(np.abs(4.0 * w * (w - 1.0) * (w - lam))))
        return coarse, w, logs

    def _grid_escapes(self, g0: np.ndarray, logs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """G on the two finest levels of ``_walk`` from g0 = G_lambda(w_0, 1).

        G_lambda(u, 1) = (G_lambda(L u, 1) + log|4u(u - 1)(u - lambda)|)/4,
        since F(u, 1) = 4u(u - 1)(u - lambda) (L u, 1), and the parent values
        of a level are ``np.tile(g, 4)``; M adj(M) = det M adds log|det M|.
        """
        coarse = g = g0
        for log in logs:
            coarse, g = g, 0.25 * (np.tile(g, 4) + log)
        return coarse + self.log_det, g + self.log_det

    def grid_levels(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], np.ndarray], ...]:
        """adj(M)(w, 1) and G there, for w over L^-(k-1)(w_0) and L^-k(w_0).

        M pulls mu_lambda back to this measure, and adj(M) does so without
        dividing or dropping points.  G comes from G_lambda(w_0, 1) by the
        preimage recursion (``_grid_escapes``).  Built afresh at every call
        and kept nowhere; the series ``escape(*grid)`` is the oracle of G.
        No library route calls it (``_side_means`` composes ``_walk`` and
        ``_grid_escapes`` itself): it is the tests' view of the grids.
        """
        coarse, fine, logs = self._walk()
        g = self._grid_escapes(escape_rate(self.lam, np.array([_START]), 1.0), logs)
        return tuple((adjugate_lift(self.mat, w), gw) for w, gw in zip((coarse, fine), g))


ArchMeasure = DiracAt | Circle | Cloud | LattesMeasure
_TYPE_ORDER = {DiracAt: 0, Circle: 1, Cloud: 2, LattesMeasure: 3}  # pair_energy_arch's m1 <= m2

UNIT_CIRCLE = Circle(0j, 1.0)


def circle_potential(c: complex, r: float, z: complex) -> float:
    """Potential of the Haar circle measure: log max(|z - c|, r)."""
    return math.log(max(abs(z - c), r))


@cache
def _arc_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on the first crossing pair."""
    return np.polynomial.legendre.leggauss(_ARC_NODES)


def _circle_circle_mean(c1: complex, r1: float, c2: complex, r2: float) -> float:
    """Mean of log|z - w| over two circles; closed forms when they do not cross.

    Crossing circles, r1 >= r2: circle 2 meets disk 1 in the arc |phi| < phi*,
    phi = 0 towards c1, cos phi* = (d^2 + r2^2 - r1^2)/(2 d r2).  The potential
    of circle 1 is log r1 on that arc and (1/2) log((d - r2)^2 + 4 d r2 sin^2(phi/2))
    on the rest, analytic there, so a fixed Gauss-Legendre rule on [phi*, pi]
    reaches rounding level.
    """
    d = abs(c1 - c2)
    # integrate over the circle whose potential plateau is wider
    if r1 < r2:
        c1, r1, c2, r2 = c2, r2, c1, r1
    if d >= r1 + r2:
        return math.log(d)
    if d + r2 <= r1:
        return math.log(r1)
    cos_star = (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)
    phi_star = math.acos(min(1.0, max(-1.0, cos_star)))
    nodes, weights = _arc_rule()
    half = 0.5 * (math.pi - phi_star)
    sin_half = np.sin(0.5 * (phi_star + half * (nodes + 1.0)))
    logs = np.log((d - r2) ** 2 + 4.0 * d * r2 * sin_half * sin_half)
    return (phi_star * math.log(r1) + 0.5 * half * float(weights @ logs)) / math.pi


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
    if isinstance(m, LattesMeasure):
        return m.self_energy
    n = len(m.points)
    if n < 2:
        raise SingularPair("cloud self-energy needs at least two atoms")
    total, zeros = _log_dist_sum(m.points, m.points)
    excluded = 2 * zeros  # ordered pairs
    if excluded > _MAX_COINCIDENT_FRACTION * n * n:
        raise CoincidentAtoms(f"{excluded} coincident off-diagonal pairs in a cloud")
    return -total / (n * (n - 1) - excluded)


def pair_energy_arch(m1: ArchMeasure, m2: ArchMeasure) -> float:
    """The raw pairing (m1, m2) = - mean of log|z - w|.

    The arguments are first put in the type order Dirac < circle < cloud <
    Lattes, so the pairing is symmetric.  Closed forms: Dirac/Dirac,
    Dirac/circle (log max(|x-c|, r)), concentric or non-crossing circles;
    crossing circles by the arc rule of ``_circle_circle_mean``; clouds by
    plain means (self-pairs via the off-diagonal convention when the same
    cloud object is passed twice).  A Lattes measure pairs through its
    potential, with a circle by the mean over ``_CIRCLE_NODES`` equally spaced
    nodes; two pair as (I_a + I_b)/2 - <mu_a, mu_b> (``lattes_pairing``).
    """
    if m1 is m2:
        return arch_self_energy(m1)
    if _TYPE_ORDER[type(m1)] > _TYPE_ORDER[type(m2)]:
        m1, m2 = m2, m1
    if isinstance(m2, LattesMeasure):
        if isinstance(m1, LattesMeasure):
            return 0.5 * (m1.self_energy + m2.self_energy) - lattes_pairing(m1, m2)[0]
        if isinstance(m1, Circle):
            roots = np.exp(2j * math.pi / _CIRCLE_NODES * np.arange(_CIRCLE_NODES))
            return -float(m2.potential(m1.center + m1.radius * roots).mean())
        return -float(m2.potential(m1.c if isinstance(m1, DiracAt) else m1.points).mean())

    if isinstance(m1, DiracAt):
        if isinstance(m2, DiracAt):
            if m1.c == m2.c:
                raise SingularPair("coincident Dirac atoms")
            return -math.log(abs(m1.c - m2.c))
        if isinstance(m2, Circle):
            return -circle_potential(m2.center, m2.radius, m1.c)
        return pair_energy_arch(Cloud(np.array([m1.c])), m2)
    if isinstance(m1, Circle):
        if isinstance(m2, Circle):
            return -_circle_circle_mean(m1.center, m1.radius, m2.center, m2.radius)
        vals = np.maximum(np.abs(m2.points - m1.center), m1.radius)
        return -float(np.log(vals).mean())
    assert isinstance(m1, Cloud) and isinstance(m2, Cloud)
    x, y = m1.points, m2.points
    # two clouds sharing one array still pair every (i, j), the diagonal included
    total, excluded = _log_dist_sum(x, y.copy() if y is x else y)
    if excluded > _MAX_COINCIDENT_FRACTION * len(x) * len(y):
        raise CoincidentAtoms(f"{excluded} coincident atom pairs across the clouds")
    return -0.5 * total / (len(x) * len(y) - excluded)


def sq_energy_arch(m1: ArchMeasure, m2: ArchMeasure) -> float:
    """<m1, m2> = (1/2)(m1 - m2, m1 - m2), cloud self-terms off-diagonal."""
    return 0.5 * (arch_self_energy(m1) - 2.0 * pair_energy_arch(m1, m2) + arch_self_energy(m2))


def sample_lattes_equilibrium(lam, n: int, seed: int = 0) -> Cloud:
    """Backward-orbit sample of the Legendre Lattes equilibrium measure.

    A single chain: each step replaces the current point by a uniformly random
    one of the four preimages of L(t) = current, repeated by multiplicity and
    sorted by (real, imag) as ``lattes_preimages`` returns them.  The first
    ``_BURN_IN`` points are discarded.  Deterministic given the seed.  ``lam`` is
    read by ``legendre_parameter``; a side with M != 1 raises ``TypeError``.  An
    orbit that leaves the finite plane or meets a pole of the deck group (a
    float lam of 1) raises ``NonConvergentRoots``.
    """
    if n < 100:
        raise ValueError("need n >= 100 samples")
    _, lamc, _, _ = float_side(legendre_parameter(lam))
    rng = np.random.default_rng(seed)
    t = _START
    out = np.empty(n, dtype=complex)
    for k in range(_BURN_IN + n):
        try:
            t = lattes_preimages(t, lamc)[rng.integers(4)]
        except ZeroDivisionError:  # a deck-group map at its pole, as at a float lam of 1
            raise NonConvergentRoots("backward orbit met a pole of the deck group") from None
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise NonConvergentRoots("backward orbit left the finite plane")
        if k >= _BURN_IN:
            out[k - _BURN_IN] = t
    return Cloud(out)


def escape_rate(lam, x, y) -> np.ndarray:
    """Escape rate G(v) = lim 4^-k log||F^k(v)|| on arrays of vectors v = (x, y).

    F(x, y) = ((x^2 - lam y^2)^2, 4xy(x - y)(x - lam y)) lifts the Legendre
    map to C^2.  Each step renormalises, so
    G(v) = log||v|| + sum_k 4^-(k+1) log||F(u_k)|| with u_0 = v/||v|| and
    u_{k+1} = F(u_k)/||F(u_k)||, summed over a fixed ``_ESCAPE_STEPS`` terms.
    A step scales by the real reciprocal of the norm and takes the norm as the
    modulus of |x| + i|y|, which, like ``hypot``, squares nothing and so never
    overflows.  G(F(v)) = 4 G(v) and G(c v) = G(v) + log|c|.  ``lam`` is one
    parameter or an array of them, one per vector: every element goes through
    the same ufuncs, so a vector's G does not depend on the others.
    """
    lamc, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in (lam, x, y)))
    norm = np.hypot(np.abs(x), np.abs(y))
    g = np.log(norm)
    # the steps run in place in these buffers: fresh temporaries at every step
    # cost page faults whenever the allocator gives large blocks back
    u, v, x2, xy, t = (np.empty(x.shape, dtype=complex) for _ in range(5))
    logs, nb = np.empty(x.shape), np.empty(x.shape)
    # the scale as s + 0i, the operand that a cast of the real s would hand
    # the complex multiply: kept in one buffer, so no step casts
    sc = np.zeros(x.shape, dtype=complex)
    weight = 1.0
    for _ in range(_ESCAPE_STEPS):
        np.reciprocal(norm, out=sc.real)
        x, y = np.multiply(x, sc, out=u), np.multiply(y, sc, out=v)
        np.multiply(x, x, out=x2)
        np.multiply(lamc, np.multiply(y, y, out=t), out=t)
        np.multiply(x, y, out=xy)
        # y <- 4 (x2 - xy)(xy - lam y2), then x <- (x2 - lam y2)^2
        np.multiply(4.0, np.subtract(x2, xy, out=y), out=y)
        np.multiply(y, np.subtract(xy, t, out=xy), out=y)
        np.square(np.subtract(x2, t, out=x), out=x)
        # xy is free again: it takes |x| + i|y|, whose modulus is the norm
        np.abs(x, out=xy.real)
        np.abs(y, out=xy.imag)
        norm = np.abs(xy, out=nb)
        weight *= 0.25
        g += np.multiply(weight, np.log(norm, out=logs), out=logs)
    return g


def _side_means(own: LattesMeasure, partner: LattesMeasure) -> tuple[float, float]:
    """Means of G_own - G_partner over own's coarse and fine grids: one half of
    ``lattes_pairing``.

    One series call covers own's G at w_0, from which the preimage recursion
    gives own's G on its grids, and the partner's G on both grids: the
    vectors (w_0, 1), then partner.lift(adj(M_own)(w, 1)) over the coarse and
    the fine grid, with lambda_own for the first and lambda_partner for the
    rest.  It reads only the partner's lambda and matrix, so the two halves
    can run at once; own's grids go when it returns.  A mean that is not
    finite (a lambda at or near 0, 1 or infinity in floats) raises
    ``NonFiniteResult``, with numpy's warnings on the way silenced.
    """
    with np.errstate(all="ignore"):
        coarse, fine, logs = own._walk()
        nc = len(coarse)
        x = np.empty(1 + nc + len(fine), dtype=complex)
        y = np.empty_like(x)
        x[0], y[0] = _START, 1.0
        for part, w in ((slice(1, 1 + nc), coarse), (slice(1 + nc, None), fine)):
            x[part], y[part] = partner.lift(*adjugate_lift(own.mat, w))
        del coarse, fine, w
        lam = np.full(len(x), partner.lam)
        lam[0] = own.lam
        g = escape_rate(lam, x, y)
        g_coarse, g_fine = own._grid_escapes(g[:1], logs)
        means = float((g_coarse - g[1 : 1 + nc]).mean()), float((g_fine - g[1 + nc :]).mean())
    if not all(map(math.isfinite, means)):
        raise NonFiniteResult(f"the pairing of lambda = {own.lam} and {partner.lam} is not finite")
    return means


def lattes_pairing(mu_a: LattesMeasure, mu_b: LattesMeasure) -> tuple[float, float]:
    """<mu_a, mu_b> by the Petsche-Szpiro-Tucker pairing, and its quadrature error.

    (1/2)[I_b - I_a], I the integral of G_a - G_b against one measure, is
    -(1/2)(J_a + J_b) with J the integral of G_own - G_partner against own,
    one half per measure (``_side_means``): with m_j its mean over the
    level-j grid, J = (4 m_k - m_{k-1})/3, with error |m_k - m_{k-1}|; the
    error reported is the mean of the two.  The sum commutes, so the result
    is symmetric.  Each call builds both measures' grids and frees them when
    it returns.  When both fine grids have ``_THREAD_MIN_POINTS`` points,
    the half of mu_b runs on one worker thread while the caller runs that of
    mu_a; the thread ends with the call, and an error in either half
    reaches the caller.  The result is the same bit for bit.
    """
    if 4 ** min(mu_a.level, mu_b.level) >= _THREAD_MIN_POINTS:
        # a bare thread: an executor's concurrent.futures and logging imports
        # would add 3 ms to the first call of a process
        half_b = []

        def run_half_b() -> None:
            try:
                half_b.append(_side_means(mu_b, mu_a))
            except BaseException as exc:  # raised again in the caller
                half_b.append(exc)

        worker = threading.Thread(target=run_half_b)
        worker.start()
        try:
            means_a = _side_means(mu_a, mu_b)
        finally:
            worker.join()
        (means_b,) = half_b
        if isinstance(means_b, BaseException):
            raise means_b
    else:
        means_a, means_b = _side_means(mu_a, mu_b), _side_means(mu_b, mu_a)
    (coarse_a, fine_a), (coarse_b, fine_b) = means_a, means_b
    integral_a, integral_b = (4.0 * fine_a - coarse_a) / 3.0, (4.0 * fine_b - coarse_b) / 3.0
    error = 0.5 * (abs(fine_a - coarse_a) + abs(fine_b - coarse_b))
    return -0.5 * (integral_a + integral_b), error


def lattes_sq_energy_arch(side_a, side_b, n: int) -> tuple[float, float]:
    """<mu_a, mu_b> at infinity for two Lattes maps, and its quadrature error.

    Each side is a Legendre parameter or a quadruple (``as_side``);
    ``n`` sets the grid level of ``LattesMeasure``.
    """
    return lattes_pairing(LattesMeasure(side_a, n), LattesMeasure(side_b, n))
