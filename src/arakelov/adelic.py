"""Global objects over Q: adelic energies, heights, inequality suites, scans.

Local contributions are exact closed forms at odd finite places.  At the
archimedean place a Lattes measure pairs with Diracs in closed form, with
circles by quadrature and with another by a torus-grid quadrature.  The
2-adic place is skipped (and flagged) in every quantity involving a Lattes
equilibrium measure, since the ultrametric description of that measure
requires residue characteristic different from 2; families without a Lattes
component keep their 2-adic terms, which is what makes the classical-height
recovery exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .energy_arch import (
    ArchMeasure,
    Circle,
    DiracAt,
    LattesMeasure,
    arch_self_energy,
    lattes_pairing,
    pair_energy_arch,
)
from .energy_ua import Atoms, SegmentMeasure, energy_closed_form, mutual_energy_raw
from .errors import BadRadii, DegenerateConfig, EmptyF
from .lattes import (
    PointIndex,
    Quadruple,
    as_side,
    equilibrium_measure_ua,
    local_discrepancy,
    positive_tolerance,
    torsion_image_arrays,
)
from .places import (
    ARCH,
    INFINITY,
    Place,
    affine_height,
    as_complex,
    difference_primes,
    finite,
    format_rational,
    is_prime,
    log_abs,
    log_abs_diff,
    parse_rational,
    place_sum,
    place_to_json,
    projective_height,
    submax,
    support_primes,
)
from .tree import TreePoint, type1

LOG2 = math.log(2.0)


def arch_tolerance(arch_samples: int) -> float:
    """The archimedean tolerance reported next to an n-sample pairing: 3 / sqrt(n)."""
    return 3.0 / math.sqrt(arch_samples)


# ---------------------------------------------------------------------------
# the pair moduli datum


@dataclass(frozen=True)
class PairConfig:
    """(a1, a2, a3, inf ; b1, b2, b3, 0) with all six entries nonzero rationals."""

    a: tuple[Fraction, Fraction, Fraction]
    b: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        for side, label in ((self.a, "a"), (self.b, "b")):
            if len(side) != 3:
                raise DegenerateConfig(f"side {label} needs three entries")
            if any(x == 0 for x in side):
                raise DegenerateConfig(f"side {label} has a zero entry")
            if len(set(side)) != 3:
                raise DegenerateConfig(f"side {label} has repeated entries")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return (*self.a, *self.b)

    def quadruple_a(self) -> Quadruple:
        return Quadruple((*self.a, INFINITY))

    def quadruple_b(self) -> Quadruple:
        return Quadruple((*self.b, Fraction(0)))

    def to_json(self) -> dict:
        return {
            "a": [format_rational(x) for x in self.a],
            "b": [format_rational(x) for x in self.b],
        }


def pair_config(a, b) -> PairConfig:
    return PairConfig(tuple(parse_rational(x) for x in a), tuple(parse_rational(x) for x in b))


def pair_config_from_json(obj: dict) -> PairConfig:
    if not all(isinstance(obj[k], list) for k in ("a", "b")):
        raise TypeError("a pair config's a and b are JSON arrays")
    return pair_config(obj["a"], obj["b"])


def h_ab(cfg: PairConfig) -> float:
    """The moduli height h([a1 : a2 : a3 : b1 : b2 : b3])."""
    return projective_height(cfg.entries)


def relevant_places(cfg: PairConfig) -> list[Place]:
    """Archimedean, 2, and every prime where the configuration is not unit-clean.

    Guaranteed superset of the finite places with nonzero local energy.
    """
    return _report_places(LattesFamily(cfg.quadruple_a()), LattesFamily(cfg.quadruple_b()))


def _report_places(fa: LattesFamily, fb: LattesFamily) -> list[Place]:
    """ARCH, the excluded place 2, then the odd primes of ``_family_places``."""
    return [ARCH, finite(2)] + _family_places(fa, fb)[0]


# ---------------------------------------------------------------------------
# per-place energy report


@dataclass
class PlaceEntry:
    place: Place
    energy: float | None
    exact: bool
    note: str | None = None

    def to_json(self) -> dict:
        out = {"place": place_to_json(self.place), "energy": self.energy, "exact": self.exact}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class AdelicEnergyReport:
    entries: list[PlaceEntry]
    arch_tol: float
    quad_err: float
    total: float
    h_ab: float | None = None
    relevant: list[Place] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "places": [e.to_json() for e in self.entries],
            "total": self.total,
            "arch_tol": self.arch_tol,
            "quad_err": self.quad_err,
            "h_ab": self.h_ab,
            "relevant_places": [place_to_json(v) for v in self.relevant],
        }


def local_pair_energy(quad_a: Quadruple, quad_b: Quadruple, v: Place) -> float:
    """Exact local energy <mu_a, mu_b> at an odd finite place."""
    mu_a = equilibrium_measure_ua(quad_a, v)
    mu_b = equilibrium_measure_ua(quad_b, v)
    return energy_closed_form(mu_a, mu_b, v)


def pair_energy_global(quad_a, quad_b, arch_samples: int = 4000) -> AdelicEnergyReport:
    """<L_a, L_b> of two sides' ``LattesFamily``s: local terms over the relevant places.

    Finite odd places are exact closed forms; the place 2 is reported as
    excluded; the archimedean entry is the torus-grid quadrature of
    ``lattes_pairing`` with tolerance 3/sqrt(n), reported next to its
    quadrature error estimate ``quad_err``.  The total is therefore a lower
    bound up to the archimedean tolerance (local terms are nonnegative).
    """
    fa, fb = LattesFamily(quad_a, arch_samples), LattesFamily(quad_b, arch_samples)
    relevant = _report_places(fa, fb)
    entries = [PlaceEntry(relevant[1], None, False, "excluded: residue characteristic 2")]
    total = 0.0
    for v in relevant[2:]:
        e = local_pair_energy(fa.quad, fb.quad, v)
        entries.append(PlaceEntry(v, e, True))
        total += e
    arch, quad_err = lattes_pairing(fa.mu, fb.mu)
    entries.append(PlaceEntry(ARCH, arch, False, f"torus grid, level {fa.mu.level}"))
    total += arch
    return AdelicEnergyReport(entries, fa.arch_tol, quad_err, total, relevant=relevant)


def global_energy(
    cfg: PairConfig, arch_samples: int = 4000, seed: int = 0, burn_in: int = 64
) -> AdelicEnergyReport:
    """``pair_energy_global`` of cfg's quadruples, with h_ab; seed and burn_in change nothing."""
    report = pair_energy_global(cfg.quadruple_a(), cfg.quadruple_b(), arch_samples)
    report.h_ab = h_ab(cfg)
    return report


# ---------------------------------------------------------------------------
# measure families (adelic measures) and their pairings


class LattesFamily:
    """Equilibrium measures of the Lattes map of a side (``as_side``); 2-adic
    term skipped.  ``seed`` changes no output: nothing is sampled."""

    label = "lattes"
    skip_two = True

    def __init__(self, quad, arch_samples: int = 4000, seed: int = 0):
        self.quad = as_side(quad)
        self.mu = LattesMeasure(self.quad, arch_samples)
        self.arch_tol = arch_tolerance(arch_samples)

    def support_primes(self) -> list[int]:
        return difference_primes(self.quad.finite_points())

    def finite_measure(self, v: Place) -> SegmentMeasure:
        return equilibrium_measure_ua(self.quad, v)

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        return [(self.mu, 1.0)]


@dataclass(frozen=True)
class FiniteSet:
    """Distinct rationals with per-place smoothing radii (almost all 1)."""

    points: tuple[Fraction, ...]
    radii: dict = field(default_factory=dict)  # keys "inf" or str(prime)

    def __post_init__(self) -> None:
        if not self.points:
            raise EmptyF("the finite set is empty")
        if len(set(self.points)) != len(self.points):
            raise EmptyF("the finite set has repeated points")
        for key, r in self.radii.items():
            canonical = isinstance(key, str) and key.isdecimal() and key == str(int(key))
            if key != "inf" and not (canonical and is_prime(int(key))):
                raise BadRadii(f"a radius key is 'inf' or a prime, not {key!r}")
            if not 0 < r < math.inf:
                raise BadRadii(f"radius at {key} must be finite and positive")

    def radius_at(self, v: Place) -> float:
        key = "inf" if v.is_archimedean else str(v.p)
        return float(self.radii.get(key, 1.0))

    def radius_places(self) -> list[Place]:
        out = []
        for key, r in self.radii.items():
            if float(r) == 1.0:
                continue
            out.append(ARCH if key == "inf" else finite(int(key)))
        return out


def finite_set(points, radii: dict | None = None) -> FiniteSet:
    return FiniteSet(tuple(parse_rational(x) for x in points), dict(radii or {}))


class SmoothedSetFamily:
    """m_{F,r}: Dirac masses at eta_{u, r_v} (circles of radius r_inf at infinity)."""

    label = "smoothed_set"
    skip_two = False
    arch_tol = 0.0

    def __init__(self, fs: FiniteSet):
        self.fs = fs
        self.weight = 1.0 / len(fs.points)

    def support_primes(self) -> list[int]:
        primes = set(difference_primes(self.fs.points))
        for v in self.fs.radius_places():
            if v.is_finite:
                primes.add(v.p)
        return sorted(primes)

    def finite_measure(self, v: Place) -> Atoms:
        r = self.fs.radius_at(v)
        log_r = v.epsilon * math.log(r)
        return [(TreePoint(u, log_r), self.weight) for u in self.fs.points]

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        r = self.fs.radius_at(ARCH)
        return [(Circle(as_complex(u), r), self.weight) for u in self.fs.points]


class StandardFamily(SmoothedSetFamily):
    """chi_{0,1} at every place, the smoothed set {0} at radius 1: Gauss mass at
    finite places, unit circle at infinity."""

    label = "standard"

    def __init__(self):
        super().__init__(finite_set([0]))


class PointSetFamily(SmoothedSetFamily):
    """[F]: equal Dirac masses at the points of F, at every place."""

    label = "point_set"

    def finite_measure(self, v: Place) -> Atoms:
        return [(type1(u), self.weight) for u in self.fs.points]

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        return [(DiracAt(as_complex(u)), self.weight) for u in self.fs.points]


MeasureFamily = LattesFamily | SmoothedSetFamily


def _mixture_pair(mix1, mix2) -> float:
    total = 0.0
    for m1, w1 in mix1:
        for m2, w2 in mix2:
            total += w1 * w2 * pair_energy_arch(m1, m2)
    return total


def _mixture_self(mix) -> float:
    """Self-pairing of a mixture; a Dirac atom is not paired with itself."""
    total = 0.0
    for i, (m1, w1) in enumerate(mix):
        if not isinstance(m1, DiracAt):
            total += w1 * w1 * arch_self_energy(m1)
        for m2, w2 in mix[i + 1 :]:
            total += 2.0 * w1 * w2 * pair_energy_arch(m1, m2)
    return total


def _family_places(*families: MeasureFamily) -> tuple[list[Place], bool]:
    primes: set[int] = set()
    for f in families:
        primes.update(f.support_primes())
    skip_two = any(f.skip_two for f in families)
    if skip_two:
        primes.discard(2)
    return [finite(p) for p in sorted(primes)], skip_two


def family_sq_energy(f1: MeasureFamily, f2: MeasureFamily) -> dict:
    """<rho1, rho2> = (1/2) sum_v (rho1 - rho2, rho1 - rho2)_v with tolerance."""
    places, skipped_two = _family_places(f1, f2)
    total = 0.0
    per_place = {}
    for v in places:
        term = mutual_energy_raw(f1.finite_measure(v), f2.finite_measure(v), v)
        per_place[str(v)] = term
        total += term
    mix1, mix2 = f1.arch_mixture(), f2.arch_mixture()
    # the self terms are added first, so swapping the families keeps every bit
    arch_term = 0.5 * (_mixture_self(mix1) + _mixture_self(mix2)) - _mixture_pair(mix1, mix2)
    per_place["v_inf"] = arch_term
    total += arch_term
    tol = max(f1.arch_tol, f2.arch_tol, 1e-9)
    return {
        "value": total,
        "tol": tol,
        "per_place": per_place,
        "skipped_two": skipped_two,
        "pair": (f1.label, f2.label),
    }


def h_rho_F(family: MeasureFamily, points) -> dict:
    """h_rho(F) = <rho, [F]>, with [F] paired off-diagonal with itself.

    For the standard family and F = {x} this equals the affine height of x
    exactly (all terms closed-form).
    """
    rep = family_sq_energy(family, PointSetFamily(finite_set(points)))
    return {key: rep[key] for key in ("value", "tol", "skipped_two")}


def pair_with_smoothed_set(quad, fs: FiniteSet, arch_samples: int = 4000) -> dict:
    """Both sides of the smoothing bound for <mu_P, m_{F,r}>.

    lhs = <mu_P, m_{F,r}>; rhs = h_{mu_P}(F) + sum_w sum_{u in F} I(P_w, u, r_w)
    + (1/(2 #F)) sum_w log(1/r_w).  The 2-adic place is skipped on both sides.
    """
    fam = LattesFamily(quad, arch_samples=arch_samples)
    smoothed = SmoothedSetFamily(fs)
    lhs = family_sq_energy(fam, smoothed)
    height = h_rho_F(fam, fs.points)

    places, _ = _family_places(fam, smoothed)
    discrepancy = 0.0
    for v in places:
        r = fs.radius_at(v)
        for u in fs.points:
            discrepancy += local_discrepancy(fam.quad, u, r, v)
    r_inf = fs.radius_at(ARCH)
    for u in fs.points:
        discrepancy += abs(
            pair_energy_arch(DiracAt(as_complex(u)), fam.mu)
            - pair_energy_arch(Circle(as_complex(u), r_inf), fam.mu)
        )

    log_term = 0.0
    for v in fs.radius_places():
        if v.is_finite and v.p == 2:
            continue
        log_term += math.log(1.0 / fs.radius_at(v))
    log_term /= 2.0 * len(fs.points)

    rhs = height["value"] + discrepancy + log_term
    tol = lhs["tol"] + height["tol"]
    return {
        "lhs": lhs["value"],
        "rhs": rhs,
        "height": height["value"],
        "discrepancy": discrepancy,
        "log_term": log_term,
        "tol": tol,
        "holds": lhs["value"] <= rhs + tol,
    }


def triangle_inequality_check(f1: MeasureFamily, f2: MeasureFamily, f3: MeasureFamily) -> dict:
    """sqrt <rho1,rho2> <= sqrt <rho1,rho3> + sqrt <rho3,rho2> within tolerances."""
    e12 = family_sq_energy(f1, f2)
    e13 = family_sq_energy(f1, f3)
    e32 = family_sq_energy(f3, f2)
    lhs = math.sqrt(max(e12["value"] - e12["tol"], 0.0))
    rhs = math.sqrt(max(e13["value"] + e13["tol"], 0.0)) + math.sqrt(
        max(e32["value"] + e32["tol"], 0.0)
    )
    return {
        "e12": e12["value"],
        "e13": e13["value"],
        "e32": e32["value"],
        "lhs_sqrt": lhs,
        "rhs_sqrt": rhs,
        "holds": lhs <= rhs + 1e-9,
    }


# ---------------------------------------------------------------------------
# the explicit-constant inequality suite


def height_log_norm_bound(us) -> dict:
    """The (n+1) height bound: sum_v max_i |log|u_i|_v| <= (n+1) h(u)."""
    xs = [parse_rational(u) for u in us]
    lhs = place_sum(xs, support_primes(xs), lambda logs: max(map(abs, logs)))
    rhs = (len(xs) + 1) * affine_height(xs)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-9}


def inequality_suite(cfg: PairConfig) -> dict:
    """The explicit-constant checks for one configuration.

    h_{f1} <= 61 log 2 + 122 * sum_v max_i |log|u_i/b1|_v|   and
    h_ab <= 81 * h_{f2},  with f2 = max(0, smax_{i,j} log|a_i/b_j|).
    Ratio terms log|u_i/u_j - 1| with u_i = u_j are skipped (the bound for the
    remaining invertible subfamily is the same).
    """
    u = cfg.entries
    h_f1 = 0.0
    sum_term = 0.0
    h_f2 = 0.0
    for v in [ARCH] + [finite(p) for p in difference_primes(u)]:
        logs = [log_abs(x, v) for x in u]  # b1 = u[3]
        best = 0.0
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                best = max(best, abs(logs[i] - logs[j]))
                if u[i] != u[j]:
                    best = max(best, abs(log_abs_diff(u[i], u[j], v) - logs[j]))
        h_f1 += best
        sum_term += max(abs(x - logs[3]) for x in logs)
        h_f2 += max(0.0, submax([logs[i] - logs[j] for i in range(3) for j in range(3, 6)]))

    config_height = h_ab(cfg)
    bound_f1 = 61.0 * LOG2 + 122.0 * sum_term
    checks = {
        "h_f1": h_f1,
        "sum_term": sum_term,
        "f1_bound": bound_f1,
        "f1_holds": h_f1 <= bound_f1 + 1e-9,
        "h_f2": h_f2,
        "h_ab": config_height,
        "f2_holds": config_height <= 81.0 * h_f2 + 1e-9,
        "height_bound": height_log_norm_bound(u),
    }
    checks["all_hold"] = (
        checks["f1_holds"] and checks["f2_holds"] and checks["height_bound"]["holds"]
    )
    return checks


# ---------------------------------------------------------------------------
# random configurations and scans


def random_rational(rng: np.random.Generator, height: int) -> Fraction:
    """A nonzero rational num/den with |num| <= height and 1 <= den <= height.

    A height below 1 leaves no such rational and raises ``ValueError``.
    """
    if height < 1:
        raise ValueError(f"a height must be at least 1, not {height}")
    while True:
        num = int(rng.integers(-height, height + 1))
        if num != 0:
            break
    den = int(rng.integers(1, height + 1))
    return Fraction(num, den)


def random_pair_config(rng: np.random.Generator, height: int = 20) -> PairConfig:
    """A side needs three distinct nonzero entries; height 1 has only +-1, so a
    height below 2 raises ``ValueError``."""
    if height < 2:
        raise ValueError(f"a pair configuration needs height at least 2, not {height}")
    while True:
        a = tuple(random_rational(rng, height) for _ in range(3))
        b = tuple(random_rational(rng, height) for _ in range(3))
        try:
            return PairConfig(a, b)
        except DegenerateConfig:
            continue


def suite_scan(count: int = 500, seed: int = 7, height: int = 20) -> dict:
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(count):
        cfg = random_pair_config(rng, height)
        rep = inequality_suite(cfg)
        if not rep["all_hold"]:
            failures.append(cfg.to_json())
    return {
        "count": count,
        "seed": seed,
        "height": height,
        "failures": failures,
        "all_hold": not failures,
    }


def gap_scan(
    count: int = 200,
    seed: int = 7,
    height: int = 20,
    arch_samples: int = 1500,
    burn_in: int = 48,
) -> dict:
    """Minimum total energy over random distinct-quadruple configurations.

    Qualitative uniform-gap exploration: the minimum should stay strictly
    positive after subtracting the archimedean tolerance.  No reference value
    exists; the result is recorded as a regression anchor.  ``seed`` draws the
    configurations; ``burn_in`` changes no output.
    """
    rng = np.random.default_rng(seed)
    arch_tol = arch_tolerance(arch_samples)
    min_energy = math.inf
    argmin = None
    totals = []
    for _ in range(count):
        cfg = random_pair_config(rng, height)
        report = global_energy(cfg, arch_samples=arch_samples)
        totals.append(report.total)
        if report.total < min_energy:
            min_energy = report.total
            argmin = cfg
    if count == 0:
        return {"count": 0, "seed": seed, "height": height, "empty": True}
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, math.inf]
    hist = [sum(lo <= t < hi for t in totals) for lo, hi in zip(edges, edges[1:])]
    return {
        "count": count,
        "seed": seed,
        "height": height,
        "arch_samples": arch_samples,
        "arch_tol": arch_tol,
        "min_energy": min_energy,
        "argmin": argmin.to_json() if argmin is not None else None,
        "strictly_positive": min_energy - arch_tol > 0.0,
        "histogram": {"edges": edges[:-1], "counts": hist},
    }


def bft_scan(side_a, side_b, level: int, tol: float = 1e-7) -> dict:
    """Count common 2-power torsion images of two configurations at one level.

    Points are matched by euclidean distance <= tol; a collision audit
    reports the minimum pairwise gap inside each set, the numeric evidence
    that the exactly distinct images stay apart as floats.  Both go through
    one ``PointIndex`` per set, a sweep over real parts within tol for the
    match and within the smallest neighbour gap for the audit.  Matched
    points keep the order of ``torsion_image_arrays``, finite ones by
    (real, imag) and infinity last.  A ``tol`` outside (0, 2^1022) raises
    ``ValueError``.
    """
    positive_tolerance(tol)
    finite_a, _, inf_a = torsion_image_arrays(side_a, level)
    finite_b, _, inf_b = torsion_image_arrays(side_b, level)
    index_a, index_b = PointIndex(finite_a), PointIndex(finite_b)
    matched = finite_a[index_a.near(index_b, tol)].view(float).reshape(-1, 2).tolist()
    if inf_a and inf_b:
        matched.append("inf")
    return {
        "level": level,
        "tol": tol,
        "count": len(matched),
        "size_a": len(finite_a) + (inf_a > 0),
        "size_b": len(finite_b) + (inf_b > 0),
        "min_gap_a": index_a.min_gap(),
        "min_gap_b": index_b.min_gap(),
        "matched": matched,
    }
