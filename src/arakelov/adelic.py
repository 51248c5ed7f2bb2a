"""Global objects over Q: adelic energies, heights, inequality suites, scans.

Local contributions are exact closed forms at odd finite places and Monte
Carlo estimates at the archimedean place.  The 2-adic place is skipped (and
flagged) in every quantity involving a Lattes equilibrium measure, since the
ultrametric description of that measure requires residue characteristic
different from 2; families without a Lattes component keep their 2-adic
terms, which is what makes the classical-height recovery exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .energy_arch import (
    ArchMeasure,
    Circle,
    Cloud,
    DiracAt,
    UNIT_CIRCLE,
    arch_self_energy,
    lattes_sq_energy_arch,
    pair_energy_arch,
    sample_lattes_equilibrium,
)
from .energy_ua import (
    Atoms,
    SegmentMeasure,
    energy_closed_form,
    pair_raw,
    segment_measure,
)
from .errors import DegenerateConfig, EmptyF, NonConvergentRoots
from .lattes import (
    Quadruple,
    as_quadruple,
    equilibrium_measure_ua,
    local_discrepancy,
    normalize_to_legendre,
    torsion_images,
)
from .places import (
    ARCH,
    INFINITY,
    Place,
    finite,
    format_rational,
    log_abs,
    parse_rational,
    projective_height,
    submax,
    support_primes,
)
from .tree import GAUSS, TreePoint, segment_between, type1

LOG2 = math.log(2.0)
ARCH_NOISE_COEFF = 3.0  # reported Monte Carlo tolerance is this over sqrt(n)


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
    return pair_config(obj["a"], obj["b"])


def h_ab(cfg: PairConfig) -> float:
    """The moduli height h([a1 : a2 : a3 : b1 : b2 : b3])."""
    return projective_height(cfg.entries)


def quad_support_primes(quad: Quadruple) -> list[int]:
    pts = quad.finite_points()
    diffs = [pts[i] - pts[j] for i in range(len(pts)) for j in range(i + 1, len(pts))]
    return support_primes(pts + diffs)


def relevant_places(cfg: PairConfig) -> list[Place]:
    """Archimedean, 2, and every prime where the configuration is not unit-clean.

    Guaranteed superset of the finite places with nonzero local energy.
    """
    primes = set(quad_support_primes(cfg.quadruple_a()))
    primes |= set(quad_support_primes(cfg.quadruple_b()))
    primes.add(2)
    return [ARCH] + [finite(p) for p in sorted(primes)]


# ---------------------------------------------------------------------------
# archimedean sampling for a general quadruple


def cloud_for_quadruple(
    quad: Quadruple, n: int = 4000, seed: int = 0, burn_in: int = 64
) -> Cloud:
    """Equilibrium cloud for the quadruple by pulling back a Legendre sample."""
    lam, mob = normalize_to_legendre(quad)
    cloud = sample_lattes_equilibrium(lam.lam, n, seed=seed, burn_in=burn_in)
    if mob.is_identity:
        return cloud
    inv = mob.inverse()
    a, b, c, d = (complex(x) for x in (inv.a, inv.b, inv.c, inv.d))
    den = c * cloud.points + d
    good = den != 0
    pts = (a * cloud.points[good] + b) / den[good]
    finite_mask = np.isfinite(pts.real) & np.isfinite(pts.imag)
    pts = pts[finite_mask]
    if len(pts) < 0.99 * n:
        raise NonConvergentRoots("too many samples escaped through the pullback")
    return Cloud(pts)


# ---------------------------------------------------------------------------
# per-place energy report


@dataclass
class PlaceEntry:
    place: Place
    energy: float | None
    exact: bool
    note: str | None = None

    def to_json(self) -> dict:
        from .places import place_to_json

        out = {"place": place_to_json(self.place), "energy": self.energy, "exact": self.exact}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class AdelicEnergyReport:
    entries: list[PlaceEntry]
    arch_estimate: float
    arch_tol: float
    total: float
    h_ab: float | None = None
    relevant: list[Place] = field(default_factory=list)

    def to_json(self) -> dict:
        from .places import place_to_json

        return {
            "places": [e.to_json() for e in self.entries],
            "total": self.total,
            "arch_tol": self.arch_tol,
            "h_ab": self.h_ab,
            "relevant_places": [place_to_json(v) for v in self.relevant],
        }


def local_pair_energy(quad_a: Quadruple, quad_b: Quadruple, v: Place) -> float:
    """Exact local energy <mu_a, mu_b> at an odd finite place."""
    mu_a = equilibrium_measure_ua(quad_a, v)
    mu_b = equilibrium_measure_ua(quad_b, v)
    return energy_closed_form(mu_a, mu_b, v)


def pair_energy_global(
    quad_a,
    quad_b,
    arch_samples: int = 4000,
    seed: int = 0,
    burn_in: int = 64,
) -> AdelicEnergyReport:
    """<L_a, L_b> as a sum of local terms over the relevant places.

    Finite odd places are exact closed forms; the place 2 is reported as
    excluded; the archimedean entry is the escape-rate estimate of
    ``lattes_sq_energy_arch`` with tolerance 3/sqrt(n).  The total is
    therefore a lower bound up to the archimedean tolerance (local terms are
    nonnegative).
    """
    quad_a = as_quadruple(quad_a)
    quad_b = as_quadruple(quad_b)
    primes = sorted(set(quad_support_primes(quad_a)) | set(quad_support_primes(quad_b)) | {2})
    entries: list[PlaceEntry] = []
    total = 0.0
    for p in primes:
        v = finite(p)
        if p == 2:
            entries.append(
                PlaceEntry(v, None, False, "excluded: residue characteristic 2")
            )
            continue
        e = local_pair_energy(quad_a, quad_b, v)
        entries.append(PlaceEntry(v, e, True))
        total += e
    arch, _ = lattes_sq_energy_arch(quad_a, quad_b, arch_samples, seed=seed, burn_in=burn_in)
    arch_tol = ARCH_NOISE_COEFF / math.sqrt(arch_samples)
    entries.append(PlaceEntry(ARCH, arch, False, f"Monte Carlo, n={arch_samples}"))
    total += arch
    return AdelicEnergyReport(
        entries, arch, arch_tol, total, relevant=[ARCH] + [finite(p) for p in primes]
    )


def global_energy(
    cfg: PairConfig, arch_samples: int = 4000, seed: int = 0, burn_in: int = 64
) -> AdelicEnergyReport:
    report = pair_energy_global(
        cfg.quadruple_a(), cfg.quadruple_b(), arch_samples, seed, burn_in
    )
    report.h_ab = h_ab(cfg)
    return report


# ---------------------------------------------------------------------------
# measure families (adelic measures) and their pairings


class _MixtureFamily:
    def arch_self_pairing(self) -> float:
        """The off-diagonal self-pairing of the archimedean mixture."""
        return _mixture_self(self.arch_mixture())


class StandardFamily(_MixtureFamily):
    """chi_{0,1} at every place: Gauss mass at finite places, unit circle at infinity."""

    label = "standard"
    skip_two = False
    arch_tol = 0.0

    def support_primes(self) -> list[int]:
        return []

    def finite_measure(self, v: Place) -> SegmentMeasure:
        return segment_measure(segment_between(GAUSS, GAUSS, v))

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        return [(UNIT_CIRCLE, 1.0)]


class LattesFamily(_MixtureFamily):
    """Equilibrium measures of the Lattes map of a quadruple; 2-adic term skipped."""

    label = "lattes"
    skip_two = True

    def __init__(self, quad, arch_samples: int = 4000, seed: int = 0, burn_in: int = 64):
        self.quad = as_quadruple(quad)
        self.arch_samples = arch_samples
        self.seed = seed
        self.burn_in = burn_in
        self._cloud: Cloud | None = None
        self._self_pairing: float | None = None
        self.arch_tol = ARCH_NOISE_COEFF / math.sqrt(arch_samples)

    def support_primes(self) -> list[int]:
        return quad_support_primes(self.quad)

    def finite_measure(self, v: Place) -> SegmentMeasure:
        return equilibrium_measure_ua(self.quad, v)

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        if self._cloud is None:
            self._cloud = cloud_for_quadruple(
                self.quad, self.arch_samples, seed=self.seed, burn_in=self.burn_in
            )
        return [(self._cloud, 1.0)]

    def arch_self_pairing(self) -> float:
        """The O(n^2) cloud self-energy, computed once per family."""
        if self._self_pairing is None:
            self._self_pairing = super().arch_self_pairing()
        return self._self_pairing


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
            if not r > 0:
                raise EmptyF(f"radius at {key} must be positive")

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


class SmoothedSetFamily(_MixtureFamily):
    """m_{F,r}: Dirac masses at eta_{u, r_v} (circles of radius r_inf at infinity)."""

    label = "smoothed_set"
    skip_two = False
    arch_tol = 0.0

    def __init__(self, fs: FiniteSet):
        self.fs = fs

    def support_primes(self) -> list[int]:
        pts = list(self.fs.points)
        diffs = [x - y for i, x in enumerate(pts) for y in pts[i + 1 :]]
        primes = set(support_primes(pts + diffs))
        for v in self.fs.radius_places():
            if v.is_finite:
                primes.add(v.p)
        return sorted(primes)

    def finite_measure(self, v: Place) -> Atoms:
        r = self.fs.radius_at(v)
        log_r = v.epsilon * math.log(r)
        w = 1.0 / len(self.fs.points)
        return [(TreePoint(u, log_r), w) for u in self.fs.points]

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        r = self.fs.radius_at(ARCH)
        w = 1.0 / len(self.fs.points)
        return [(Circle(complex(u), r), w) for u in self.fs.points]


class PointSetFamily(SmoothedSetFamily):
    """[F]: equal Dirac masses at the points of F, at every place."""

    label = "point_set"

    def finite_measure(self, v: Place) -> Atoms:
        w = 1.0 / len(self.fs.points)
        return [(type1(u), w) for u in self.fs.points]

    def arch_mixture(self) -> list[tuple[ArchMeasure, float]]:
        w = 1.0 / len(self.fs.points)
        return [(DiracAt(complex(u)), w) for u in self.fs.points]


MeasureFamily = StandardFamily | LattesFamily | SmoothedSetFamily


def _mixture_pair(mix1, mix2, tol: float = 1e-8) -> float:
    total = 0.0
    for m1, w1 in mix1:
        for m2, w2 in mix2:
            total += w1 * w2 * pair_energy_arch(m1, m2, tol)
    return total


def _mixture_self(mix, tol: float = 1e-8) -> float:
    """Self-pairing of a mixture; a Dirac atom is not paired with itself."""
    total = 0.0
    for i, (m1, w1) in enumerate(mix):
        if not isinstance(m1, DiracAt):
            total += w1 * w1 * arch_self_energy(m1)
        for m2, w2 in mix[i + 1 :]:
            total += 2.0 * w1 * w2 * pair_energy_arch(m1, m2, tol)
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
        m1 = f1.finite_measure(v)
        m2 = f2.finite_measure(v)
        term = pair_raw(m1, m1, v) - 2.0 * pair_raw(m1, m2, v) + pair_raw(m2, m2, v)
        per_place[str(v)] = 0.5 * term
        total += 0.5 * term
    arch_term = 0.5 * (
        f1.arch_self_pairing()
        - 2.0 * _mixture_pair(f1.arch_mixture(), f2.arch_mixture())
        + f2.arch_self_pairing()
    )
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


def pair_with_smoothed_set(quad, fs: FiniteSet, arch_samples: int = 4000, seed: int = 0) -> dict:
    """Both sides of the smoothing bound for <mu_P, m_{F,r}>.

    lhs = <mu_P, m_{F,r}>; rhs = h_{mu_P}(F) + sum_w sum_{u in F} I(P_w, u, r_w)
    + (1/(2 #F)) sum_w log(1/r_w).  The 2-adic place is skipped on both sides.
    """
    quad = as_quadruple(quad)
    fam = LattesFamily(quad, arch_samples=arch_samples, seed=seed)
    smoothed = SmoothedSetFamily(fs)
    lhs = family_sq_energy(fam, smoothed)
    height = h_rho_F(fam, fs.points)

    places, _ = _family_places(fam, smoothed)
    discrepancy = 0.0
    for v in places:
        r = fs.radius_at(v)
        for u in fs.points:
            discrepancy += local_discrepancy(quad, u, r, v)
    cloud = fam.arch_mixture()[0][0]
    r_inf = fs.radius_at(ARCH)
    for u in fs.points:
        discrepancy += abs(
            pair_energy_arch(DiracAt(complex(u)), cloud)
            - pair_energy_arch(Circle(complex(u), r_inf), cloud)
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


def max_log_norm_sum(us) -> float:
    """sum_v max_i |log|u_i|_v| over the places of Q (nonzero inputs)."""
    xs = [parse_rational(u) for u in us]
    total = max(abs(log_abs(x, ARCH)) for x in xs)
    for p in support_primes(xs):
        v = finite(p)
        total += max(abs(log_abs(x, v)) for x in xs)
    return total


def height_log_norm_bound(us) -> dict:
    """The (n+1) height bound: sum_v max_i |log|u_i|_v| <= (n+1) h(u)."""
    from .places import affine_height

    xs = [parse_rational(u) for u in us]
    lhs = max_log_norm_sum(xs)
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
    b1 = cfg.b[0]
    diffs = [u[i] - u[j] for i in range(6) for j in range(6) if i != j]
    primes = support_primes(list(u) + [d for d in diffs if d != 0])
    places = [ARCH] + [finite(p) for p in primes]

    h_f1 = 0.0
    sum_term = 0.0
    h_f2 = 0.0
    for v in places:
        best = 0.0
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                best = max(best, abs(log_abs(u[i], v) - log_abs(u[j], v)))
                if u[i] != u[j]:
                    best = max(best, abs(log_abs(u[i] - u[j], v) - log_abs(u[j], v)))
        h_f1 += best
        sum_term += max(abs(log_abs(x, v) - log_abs(b1, v)) for x in u)
        ratios = [log_abs(ai, v) - log_abs(bj, v) for ai in cfg.a for bj in cfg.b]
        h_f2 += max(0.0, submax(ratios))

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


def _random_fraction(rng: np.random.Generator, height: int) -> Fraction:
    while True:
        num = int(rng.integers(-height, height + 1))
        if num != 0:
            break
    den = int(rng.integers(1, height + 1))
    return Fraction(num, den)


def random_pair_config(rng: np.random.Generator, height: int = 20) -> PairConfig:
    while True:
        a = tuple(_random_fraction(rng, height) for _ in range(3))
        b = tuple(_random_fraction(rng, height) for _ in range(3))
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
    exists; the result is recorded as a regression anchor.
    """
    rng = np.random.default_rng(seed)
    arch_tol = ARCH_NOISE_COEFF / math.sqrt(arch_samples)
    min_energy = math.inf
    argmin = None
    totals = []
    for k in range(count):
        cfg = random_pair_config(rng, height)
        report = global_energy(cfg, arch_samples=arch_samples, seed=seed + 2 * k, burn_in=burn_in)
        totals.append(report.total)
        if report.total < min_energy:
            min_energy = report.total
            argmin = cfg
    if count == 0:
        return {"count": 0, "seed": seed, "height": height, "empty": True}
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, math.inf]
    hist = [0] * (len(edges) - 1)
    for t in totals:
        for i in range(len(edges) - 1):
            if edges[i] <= t < edges[i + 1]:
                hist[i] += 1
                break
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


def _point_key(p) -> tuple:
    if p is INFINITY:
        return (1, 0.0, 0.0)
    return (0, p.real, p.imag)


def _finite_array(points) -> np.ndarray:
    return np.array([p for p in points if p is not INFINITY], dtype=complex)


def _min_gap(points) -> float:
    arr = _finite_array(points)
    gaps = [np.abs(arr[i + 1 :] - arr[i]).min() for i in range(len(arr) - 1)]
    return float(min(gaps, default=math.inf))


def bft_scan(quad_or_lambda_a, quad_or_lambda_b, level: int, tol: float = 1e-7) -> dict:
    """Count common 2-power torsion images of two configurations at one level.

    Points are matched by euclidean distance <= tol after deduplication; a
    collision audit reports the minimum pairwise gap inside each set.
    """
    set_a = torsion_images(quad_or_lambda_a, level)
    set_b = torsion_images(quad_or_lambda_b, level)
    pts_a = [p for p, _ in set_a]
    pts_b = [p for p, _ in set_b]
    finite_b = _finite_array(pts_b)
    matched = []
    for p in pts_a:
        if p is INFINITY:
            if any(q is INFINITY for q in pts_b):
                matched.append(p)
        elif (np.abs(finite_b - p) <= tol).any():
            matched.append(p)
    matched.sort(key=_point_key)
    return {
        "level": level,
        "tol": tol,
        "count": len(matched),
        "size_a": len(pts_a),
        "size_b": len(pts_b),
        "min_gap_a": _min_gap(pts_a),
        "min_gap_b": _min_gap(pts_b),
        "matched": [
            "inf" if p is INFINITY else [p.real, p.imag] for p in matched
        ],
    }
