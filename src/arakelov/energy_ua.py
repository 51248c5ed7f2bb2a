"""Ultrametric mutual energy of segment measures.

The mutual energy used throughout is

    (mu, nu)  := - integral of log kappa(x, y) d mu(x) d nu(y)
    <mu, nu>  := (1/2) (mu - nu, mu - nu)

with kappa the Hsia kernel.  Two independent evaluation routes are provided:
closed forms driven by the pair configuration (the segment-vs-segment
calculus), and a discretized kernel double sum by sorted prefix sums
(`energy_oracle`).  A third, potential-based route through the subharmonic
functions sigma_{alpha,r,s} backs the raw pairings needed by the adelic layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadBoundParameters, BadRadii, NonFiniteResult, NotAbuttable, PlaceMismatch
from .places import NEG_INF, Place, log_abs_diff, parse_rational
from .tree import (
    Disjoint,
    PairConfiguration,
    Segment,
    TreePoint,
    classify_pair,
    hsia_log_kernel,
    path_length,
    points_equal,
    segment_between,
    type1,
)

BOUND_SLOP = 1e-9  # float slack when asserting closed-form inequalities


@dataclass(frozen=True)
class SegmentMeasure:
    """Unit measure on a segment: Lebesgue (normalized) or Dirac on a singleton."""

    support: Segment

    @property
    def kind(self) -> str:
        return "dirac" if self.support.is_singleton else "lebesgue"


def segment_measure(seg: Segment) -> SegmentMeasure:
    return SegmentMeasure(seg)


Atoms = list[tuple[TreePoint, float]]


# ---------------------------------------------------------------------------
# sigma potentials


def _sigma_branch(lo: float, hi: float, w: float) -> float:
    """sigma_{alpha, e^lo, e^hi} as a function of w = log|z - alpha|."""
    if w >= hi:
        return (hi - lo) * w
    if w >= lo:
        return 0.5 * w * w - lo * w + 0.5 * hi * hi
    return 0.5 * (hi * hi - lo * lo)


def sigma_potential(alpha: Fraction | int | str, r: float, s: float, z: TreePoint, v: Place) -> float:
    """The subharmonic potential sigma_{alpha,r,s}(z), r <= s, radii > 0.

    Its Laplacian is log(s/r) times the normalized Lebesgue measure on
    [eta_{alpha,r}, eta_{alpha,s}]; near infinity it grows like
    log(s/r) * log|z|.
    """
    if not (0 < r <= s):
        raise BadRadii("need 0 < r <= s")
    alpha = parse_rational(alpha)
    w = hsia_log_kernel(z, type1(alpha), v)
    return _sigma_branch(v.epsilon * math.log(r), v.epsilon * math.log(s), w)


def _sigma_integral(lo: float, hi: float, c: float, a: float, b: float) -> float:
    """Exact integral of x -> sigma-branch(lo, hi, max(x, c)) over [a, b]; 0 if b <= a."""
    total = 0.0
    # constant part where x <= c
    cut = min(b, c)
    if cut > a:
        total += _sigma_branch(lo, hi, c) * (cut - a)
    t0 = max(a, c)
    if b <= t0:
        return total
    # integral of the branch function itself over [t0, b]
    k_const = 0.5 * (hi * hi - lo * lo)
    ell = hi - lo

    def antideriv_mid(x: float) -> float:
        return _power(x, 3) / 6.0 - lo * x * x / 2.0 + hi * hi * x / 2.0

    pieces = [
        (t0, min(b, lo)),
        (max(t0, lo), min(b, hi)),
        (max(t0, hi), b),
    ]
    lo_piece, mid_piece, hi_piece = pieces
    if lo_piece[1] > lo_piece[0]:
        total += k_const * (lo_piece[1] - lo_piece[0])
    if mid_piece[1] > mid_piece[0]:
        total += antideriv_mid(mid_piece[1]) - antideriv_mid(mid_piece[0])
    if hi_piece[1] > hi_piece[0]:
        total += ell * (_power(hi_piece[1], 2) - _power(hi_piece[0], 2)) / 2.0
    return total


def segment_potential(mu: SegmentMeasure, z: TreePoint, v: Place) -> float:
    """U_mu(z) = integral of log kappa(x, z) d mu(x), exactly."""
    seg = mu.support
    if mu.support.is_singleton:
        return hsia_log_kernel(seg.a, z, v)
    total = 0.0
    for center, lo, hi in seg.arcs:
        w = hsia_log_kernel(z, type1(center), v)
        total += _sigma_branch(lo, hi, w)
    return total / seg.length


# ---------------------------------------------------------------------------
# raw pairings (mu, nu) = - double integral of log kappa


def _check_place(v: Place, *measures: SegmentMeasure | Atoms) -> None:
    """``PlaceMismatch`` unless each segment measure lives over v, the place its
    arcs were cut at; an atom list carries no place and is not checked."""
    if any(isinstance(m, SegmentMeasure) and m.support.place != v for m in measures):
        raise PlaceMismatch("a segment measure pairs only over the place of its segment")


def _as_atoms(mu: SegmentMeasure | Atoms) -> Atoms | None:
    if isinstance(mu, SegmentMeasure):
        if mu.support.is_singleton:
            return [(mu.support.a, 1.0)]
        return None
    return mu


def pair_raw(mu: SegmentMeasure | Atoms, nu: SegmentMeasure | Atoms, v: Place) -> float:
    """(mu, nu) for segment measures and weighted atom lists.

    Atom lists follow the off-diagonal convention: a pair of coincident
    type-1 atoms (kernel -inf) is left out, every other pair is summed; the
    kernel is finite on type-2/3 atoms, including coincident ones.  A segment
    measure over a place other than v raises ``PlaceMismatch``.
    """
    _check_place(v, mu, nu)
    atoms_mu = _as_atoms(mu)
    atoms_nu = _as_atoms(nu)
    if atoms_mu is not None and atoms_nu is not None:
        total = 0.0
        for x, wx in atoms_mu:
            for y, wy in atoms_nu:
                k = hsia_log_kernel(x, y, v)
                if k != NEG_INF:
                    total += wx * wy * k
        return -total
    if atoms_mu is not None:
        return pair_raw(nu, mu, v)
    # mu is Lebesgue on a genuine segment
    assert isinstance(mu, SegmentMeasure)
    if atoms_nu is not None:
        total = 0.0
        for y, wy in atoms_nu:
            total += wy * segment_potential(mu, y, v)
        return -total
    assert isinstance(nu, SegmentMeasure)
    total = 0.0
    for ca, lo_a, hi_a in mu.support.arcs:
        for cb, lo_b, hi_b in nu.support.arcs:
            c = log_abs_diff(ca, cb, v)  # -inf if equal
            total += _sigma_integral(lo_a, hi_a, c, lo_b, hi_b)
    return -total / (mu.support.length * nu.support.length)


def mutual_energy_raw(mu: SegmentMeasure | Atoms, nu: SegmentMeasure | Atoms, v: Place) -> float:
    """<mu, nu> = (1/2) [(mu, mu) - 2 (mu, nu) + (nu, nu)] from raw pairings: the
    family pairings' finite term, and an exact alternative to the closed form."""
    return 0.5 * (pair_raw(mu, mu, v) - 2.0 * pair_raw(mu, nu, v) + pair_raw(nu, nu, v))


# ---------------------------------------------------------------------------
# closed forms from the pair configuration


def _power(x: float, k: int) -> float:
    """x ** k; an overflow (the cube of a length from about 10^103) raises
    ``NonFiniteResult``."""
    try:
        return x ** k
    except OverflowError:
        raise NonFiniteResult(f"{x:.3g} ** {k} lies beyond float range") from None


def _half_product(l1: float, l2: float, total: float) -> float:
    # degenerate quotient l1*l2/total at total=0 is the continuity limit 0
    if total == 0.0:
        return 0.0
    return l1 * l2 / total


def energy_from_configuration(cfg: PairConfiguration) -> float:
    if isinstance(cfg, Disjoint):
        return (
            cfg.la / 6.0
            + cfg.lb / 6.0
            + cfg.d_ab / 2.0
            - 0.5 * _half_product(cfg.la1, cfg.la2, cfg.la)
            - 0.5 * _half_product(cfg.lb1, cfg.lb2, cfg.lb)
        )
    la, lb, lab = cfg.la, cfg.lb, cfg.l_ab
    return (
        la / 6.0
        + lb / 6.0
        - lab / 2.0
        + _power(lab, 3) / (6.0 * la * lb)
        - 0.5 * _half_product(cfg.la1, cfg.la2, la)
        - 0.5 * _half_product(cfg.lb1, cfg.lb2, lb)
        - 0.5 * (cfg.la1 * cfg.lb1 + cfg.la2 * cfg.lb2) * lab / (la * lb)
    )


def energy_closed_form(ia: SegmentMeasure, ib: SegmentMeasure, v: Place) -> float:
    """<mu_{I_a}, mu_{I_b}> via the configuration closed forms; >= 0 up to float rounding."""
    cfg = classify_pair(ia.support, ib.support, v)
    return energy_from_configuration(cfg)


def energy_union_check(
    ia: SegmentMeasure, ib1: SegmentMeasure, ib2: SegmentMeasure, v: Place
) -> tuple[float, float]:
    """Both sides of the union recursion for I_b = I'_b u I''_b.

    lhs = E(I_a, I_b); rhs combines E(I_a, I'_b), E(I_a, I''_b) and
    E(I'_b, I''_b) with the length weights.  The two pieces must share exactly
    one endpoint and their union must again be a segment, and neither may be
    a segment that ``segment_between`` snapped to a point, whose weight the
    recursion would drop.
    """
    s1, s2 = ib1.support, ib2.support
    if any(piece.is_singleton and path_length(piece.a, piece.b, v) > 0.0 for piece in (s1, s2)):
        raise NotAbuttable("a piece shorter than the point tolerance was snapped to a point")
    shared = None
    for e1 in (s1.a, s1.b):
        for e2 in (s2.a, s2.b):
            if points_equal(e1, e2, v):
                shared = e1
                other1 = s1.b if e1 is s1.a else s1.a
                other2 = s2.b if e2 is s2.a else s2.a
    if shared is None:
        raise NotAbuttable("the pieces share no endpoint")
    union = segment_between(other1, other2, v)
    l1, l2 = s1.length, s2.length
    if abs(union.length - (l1 + l2)) > 1e-9 * max(1.0, l1 + l2):
        raise NotAbuttable("the union of the pieces is not a segment")
    lhs = energy_closed_form(ia, segment_measure(union), v)
    lb = l1 + l2
    if lb == 0.0:
        return lhs, energy_closed_form(ia, ib1, v)
    rhs = (
        (l1 / lb) * energy_closed_form(ia, ib1, v)
        + (l2 / lb) * energy_closed_form(ia, ib2, v)
        - (l1 * l2 / lb ** 2) * energy_closed_form(ib1, ib2, v)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# discretized kernel oracle


def _discretize(mu: SegmentMeasure, n: int) -> list[tuple[Fraction, np.ndarray, np.ndarray]]:
    """Atoms at arc-length midpoints as at most two groups (center, log_radii, weights).

    [a, b] is two concentric rays meeting at the join ``top``, so the atoms are
    clamped and split as ``tree.point_on_path`` does, with no kernel call.
    """
    seg = mu.support
    if mu.support.is_singleton:
        return [(seg.a.center, np.array([seg.a.log_radius]), np.ones(1))]
    up, total = seg.top - seg.a.log_radius, seg.length
    s = np.minimum(np.maximum((np.arange(n) + 0.5) * total / n, 0.0), total)
    low = s <= up
    w = np.full(n, 1.0 / n)
    groups = [
        (seg.a.center, seg.a.log_radius + s[low], w[low]),
        (seg.b.center, seg.b.log_radius + (total - s[~low]), w[~low]),
    ]
    return [g for g in groups if g[1].size]


def _block_sum(a: np.ndarray, wa: np.ndarray, b: np.ndarray, wb: np.ndarray) -> float:
    """sum_ij wa_i wb_j max(a_i, b_j) by sorted prefix sums: O(n log n) time, O(n) memory.

    A pair counts as a_i when a_i >= b_j and as b_j when b_j > a_i: ties count once.
    The oracle's off-diagonal blocks take this route; a block paired with itself
    takes ``_self_block_sum``, which returns the same float from one sort.
    """
    sa, sb = np.argsort(a), np.argsort(b)
    cum_a = np.concatenate(([0.0], np.cumsum(wa[sa])))
    cum_b = np.concatenate(([0.0], np.cumsum(wb[sb])))
    b_below = cum_b[np.searchsorted(b[sb], a, side="right")]  # weight of b_j <= a_i
    a_below = cum_a[np.searchsorted(a[sa], b, side="left")]  # weight of a_i < b_j
    return float(wa @ (a * b_below) + wb @ (b * a_below))


def _self_block_sum(a: np.ndarray, w: np.ndarray) -> float:
    """``_block_sum(a, w, a, w)`` bit for bit, from one sort and no binary search.

    In the sorted copy a_s, a_i lies in a run of equal values (a run starts
    where a_s[k] != a_s[k - 1], so -0.0 and 0.0 share one), and the run's end
    and start are its ``searchsorted`` ranks with side="right" and side="left".
    The ranks go back to input order through the sort permutation, and the
    sum is the same expression in the same order as ``_block_sum``'s.
    """
    s = np.argsort(a)
    a_s = a[s]
    cum = np.concatenate(([0.0], np.cumsum(w[s])))
    new = np.concatenate(([True], a_s[1:] != a_s[:-1]))
    edges = np.append(np.flatnonzero(new), a.size)  # run r is a_s[edges[r - 1]:edges[r]]
    at = cum[edges]  # the weight below each run, then the total
    run = np.cumsum(new)
    le, lt = np.empty(a.size), np.empty(a.size)
    le[s] = at[run]  # weight of a_j <= a_i
    lt[s] = at[run - 1]  # weight of a_j < a_i
    return float(w @ (a * le) + w @ (a * lt))


def energy_oracle(ia: SegmentMeasure, ib: SegmentMeasure, v: Place, n: int = 2000) -> float:
    """Independent estimate of <mu_a, mu_b> by a signed kernel double sum.

    Each Lebesgue segment becomes n equal masses at arc-length midpoints, and
    the double sum of log kappa (diagonal included; the kernel is finite on
    type-2/3 points) runs against the signed product measure.  The atoms are
    grouped by center; between two groups at log distance D the kernel is
    max(r_i, r_j, D), so each block is a sorted prefix sum (`_block_sum`); a
    group paired with itself (D = -inf) takes one sort and reads its ranks from
    the runs of equal radii (`_self_block_sum`).
    Deterministic; O(n log n); error O((total length)^3 / n^2).  A segment
    over a place other than v raises ``PlaceMismatch``; a numpy overflow or
    invalid operation on the way (log radii or lengths near float range)
    raises ``NonFiniteResult``.
    """
    _check_place(v, ia, ib)
    if n < 2:
        raise ValueError("oracle needs n >= 2")
    groups: dict[Fraction, tuple[np.ndarray, np.ndarray]] = {}
    total = 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for sign, mu in ((1.0, ia), (-1.0, ib)):
                for c, r, w in _discretize(mu, n):
                    r0, w0 = groups.get(c, ((), ()))
                    groups[c] = (np.concatenate((r0, r)), np.concatenate((w0, sign * w)))
            centers = list(groups)
            for i, ci in enumerate(centers):
                ri, wi = groups[ci]
                total += _self_block_sum(ri, wi)
                for cj in centers[i + 1:]:
                    rj, wj = groups[cj]
                    log_d = log_abs_diff(ci, cj, v)
                    total += 2.0 * _block_sum(np.maximum(ri, log_d), wi, np.maximum(rj, log_d), wj)
    except FloatingPointError as exc:
        raise NonFiniteResult(f"the kernel oracle left float range ({exc})") from None
    return -0.5 * total


# ---------------------------------------------------------------------------
# lower bounds


def lower_bound_report(
    ia: SegmentMeasure,
    ib: SegmentMeasure,
    v: Place,
    lam: float | None = None,
    rho: float | None = None,
) -> dict:
    """Evaluate the applicable closed-form lower bounds against the energy.

    Disjoint pairs: E >= la/24 + lb/24 + d/2.  Meeting pairs: the quadratic
    bound in (m_a, m_b), the gap bound E >= (la - lb)^2 / (24 max(la, lb)),
    and the (lam, rho) bound E >= lam/(48 rho^2) when those parameters are
    supplied and admissible.

    The gap bound carries the constant 24 forced by the quadratic bound it is
    derived from (24 la lb E0 equals the cubic polynomial in l_ab that is
    minimized at l_ab = min(la, lb)); the variant with constant 6 is reported
    under ``meeting_gap_printed`` but fails on nested pairs, e.g.
    la = 4, lb = l_ab = 1 centered gives E = 3/32 < 9/24.
    """
    cfg = classify_pair(ia.support, ib.support, v)
    energy = energy_from_configuration(cfg)
    report: dict = {"energy": energy, "config": cfg.variant, "bounds": {}, "all_hold": True}

    def record(name: str, bound: float) -> None:
        ok = energy >= bound - BOUND_SLOP
        report["bounds"][name] = {"bound": bound, "holds": ok}
        report["all_hold"] = report["all_hold"] and ok

    if isinstance(cfg, Disjoint):
        record("disjoint_quarter", cfg.la / 24.0 + cfg.lb / 24.0 + cfg.d_ab / 2.0)
        if lam is not None or rho is not None:
            raise BadBoundParameters("the (lam, rho) bound needs a meeting configuration")
        return report

    la, lb, lab = cfg.la, cfg.lb, cfg.l_ab
    ma, mb = 0.5 * (la - lab), 0.5 * (lb - lab)
    record(
        "meeting_quadratic",
        ma * ma / (6.0 * la) + mb * mb / (6.0 * lb) - lab * ma * mb / (3.0 * la * lb),
    )
    gap = _power(la - lb, 2)
    record("meeting_gap", gap / (24.0 * max(la, lb)))
    printed = gap / (6.0 * max(la, lb))
    report["bounds"]["meeting_gap_printed"] = {
        "bound": printed,
        "holds": energy >= printed - BOUND_SLOP,
        "asserted": False,
    }
    if lam is not None or rho is not None:
        if lam is None or rho is None:
            raise BadBoundParameters("lam and rho must be supplied together")
        if not (0 <= lam <= max(la - lab, lb - lab) + BOUND_SLOP):
            raise BadBoundParameters("lam must lie in [0, max(la - lab, lb - lab)]")
        # written so that a NaN fails: an infinite rho would make the bound a vacuous 0
        if not (0 < rho < math.inf and max(la, lb) <= rho * lam + BOUND_SLOP):
            raise BadBoundParameters("need max(la, lb) <= rho * lam with 0 < rho < inf")
        record("meeting_lam_rho", lam / (48.0 * rho * rho))
    return report
