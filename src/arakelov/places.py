"""Places of Q, normalized absolute values, the flow scaling and height functions.

A place is the trivial absolute value, a p-adic absolute value (normalized by
|p|_p = 1/p) or the usual archimedean one, together with a positive scaling
exponent epsilon (the flow x -> x^epsilon on semi-norms).  All logarithms are
natural logs.  Finite-place logs are derived from exact integer valuations so
that identities which are integer relations in units of log(p) can be checked
exactly in that unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AllZero, FactorizationTooLarge, NonFiniteResult, TooFewValues, ZeroInput

INF = math.inf
NEG_INF = -math.inf
_TRIAL_LIMIT = 10**6  # the largest trial divisor


def _split(n: int, p: int) -> tuple[int, int]:
    """(m, k) with n = m p^k and p not dividing m, for n != 0."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, by trial division up to 10^6.

    A cofactor with no divisor up to 10^6 is prime below (10^6 + 1)^2; a larger
    one raises ``FactorizationTooLarge``.
    """
    n = abs(n)
    out: list[int] = []
    if n < 2:
        return out
    for p in (2, 3):
        if n % p == 0:
            out.append(p)
            n = _split(n, p)[0]
    f = 5
    while f * f <= n:
        if f > _TRIAL_LIMIT:
            raise FactorizationTooLarge(f"the cofactor {n} has no prime factor up to 10^6")
        if n % f == 0:
            out.append(f)
            n = _split(n, f)[0]
        f += 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


@dataclass(frozen=True)
class Place:
    """A point of the analytic spectrum of Z: trivial, finite p, or archimedean.

    ``epsilon`` is the flow exponent.  It must be positive, and at most 1 at
    the archimedean place (the archimedean branch of the spectrum stops at the
    usual absolute value).
    """

    kind: str  # "trivial" | "finite" | "archimedean"
    p: int | None = None
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("trivial", "finite", "archimedean"):
            raise ValueError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"finite place needs a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("only finite places carry a prime")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.kind == "archimedean" and self.epsilon > 1:
            raise ValueError("archimedean epsilon must lie in (0, 1]")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_archimedean(self) -> bool:
        return self.kind == "archimedean"

    def __str__(self) -> str:
        if self.kind == "finite":
            core = f"v_{self.p}"
        elif self.kind == "archimedean":
            core = "v_inf"
        else:
            core = "v_0"
        return core if self.epsilon == 1.0 else f"{core}^{self.epsilon}"


TRIVIAL = Place("trivial")
ARCH = Place("archimedean")


def finite(p: int, epsilon: float = 1.0) -> Place:
    return Place("finite", p, epsilon)


def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """v_p(x) with v_p(0) = +inf.  Additive: v_p(ab) = v_p(a) + v_p(b)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INF
    return _split(x.numerator, p)[1] - _split(x.denominator, p)[1]


def log_abs(x: Fraction | int, v: Place) -> float:
    """epsilon * log|x|_v, with -inf at x = 0; ``log_abs_diff(x, 0, v)`` at a
    finite place."""
    x = Fraction(x)
    if x == 0:
        return NEG_INF
    if v.kind == "trivial":
        return 0.0
    if v.is_finite:
        return log_abs_diff(x, 0, v)
    # archimedean; keep huge numerators safe by splitting the log
    return v.epsilon * (math.log(abs(x.numerator)) - math.log(x.denominator))


def log_abs_diff(a: Fraction | int, b: Fraction | int, v: Place) -> float:
    """``log_abs(a - b, v)``, at a finite place with no ``Fraction`` built.

    v_p(a - b) = v_p(a_n b_d - b_n a_d) - v_p(a_d b_d) holds for any
    representation of a - b, so the four integers give the valuation without
    the gcd that normalizes a ``Fraction``; ``log_abs`` at a finite place is
    ``log_abs_diff(x, 0, v)``.  The archimedean log reads the reduced
    fraction, and the other places go through ``log_abs``.
    """
    if not v.is_finite:
        return log_abs(a - b, v)
    num = a.numerator * b.denominator - b.numerator * a.denominator
    if num == 0:
        return NEG_INF
    p = v.p
    val = _split(num, p)[1] - _split(a.denominator * b.denominator, p)[1]
    return v.epsilon * (-val * math.log(p))


def as_complex(x: Fraction | int) -> complex:
    """complex(x); a rational beyond float range raises ``NonFiniteResult``."""
    try:
        return complex(x)
    except OverflowError:
        x = Fraction(x)
        size = x.numerator.bit_length() - x.denominator.bit_length()
        raise NonFiniteResult(f"a rational near 2^{size} lies beyond float range") from None


def support_primes(xs: Iterable[Fraction | int]) -> list[int]:
    """Sorted primes dividing some numerator or denominator of the inputs."""
    ps: set[int] = set()
    for x in xs:
        x = Fraction(x)
        if x == 0:
            continue
        ps.update(prime_factors(x.numerator))
        ps.update(prime_factors(x.denominator))
    return sorted(ps)


def difference_primes(points: Sequence[Fraction | int]) -> list[int]:
    """``support_primes`` of the points together with their pairwise differences."""
    pts = list(points)
    return support_primes(pts + [x - y for i, x in enumerate(pts) for y in pts[i + 1 :]])


def place_sum(xs: Sequence[Fraction], primes: Iterable[int], stat) -> float:
    """sum_v stat([log|x|_v for x in xs]) over v = infinity, then each prime in order."""
    total = 0.0
    for v in [ARCH, *map(finite, primes)]:
        total += stat([log_abs(x, v) for x in xs])  # not sum(): it compensates from 3.12 on
    return total


def product_formula_residual(x: Fraction | int) -> float:
    """Sum of log|x|_v over the archimedean place and all primes in the support.

    Zero by the product formula; returned so callers can assert the float
    residual (|residual| <= 1e-12 at desk scale).
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("product formula needs a nonzero rational")
    return place_sum([x], support_primes([x]), max)


def projective_height(coords: Sequence[Fraction | int]) -> float:
    """h([x_0 : ... : x_n]) = sum_v max_i log|x_i|_v over the places of Q.

    Invariant under scaling of the tuple; nonnegative.
    """
    xs = [Fraction(c) for c in coords]
    nonzero = [x for x in xs if x != 0]
    if not nonzero:
        raise AllZero("projective height needs a nonzero coordinate")
    return place_sum(nonzero, support_primes(nonzero), max)


def affine_height(xs: Sequence[Fraction | int] | Fraction | int) -> float:
    """h(x_1, ..., x_n) = h([1 : x_1 : ... : x_n]) = sum_v log+ max_i |x_i|_v."""
    if isinstance(xs, (Fraction, int)):
        xs = [xs]
    return projective_height([Fraction(1), *xs])


def submax(values: Sequence[float]) -> float:
    """Second largest entry (with multiplicity): smax(t_1 <= ... <= t_n) = t_{n-1}."""
    if len(values) < 2:
        raise TooFewValues("submax needs at least two values")
    return sorted(values)[-2]


# ---------------------------------------------------------------------------
# serialization helpers (rationals as "num/den" strings, "inf" for infinity)

_INF_TOKENS = ("inf", "Inf", "INF", "oo", "infinity")


@dataclass(frozen=True)
class _ProjectiveInfinity:
    """The point at infinity of P^1(Q); compares equal only to itself."""

    def __repr__(self) -> str:  # pragma: no cover
        return "INFINITY"


INFINITY = _ProjectiveInfinity()

P1Point = Fraction | _ProjectiveInfinity


def parse_rational(s: str | int | Fraction) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):  # a float would silently change the finite places
        raise TypeError(f"a rational must be a str, int or Fraction, not {type(s).__name__}")
    return Fraction(s.strip())


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_p1_point(s: str | int | Fraction | _ProjectiveInfinity) -> P1Point:
    if s is INFINITY or isinstance(s, _ProjectiveInfinity):
        return INFINITY
    if isinstance(s, str) and s.strip() in _INF_TOKENS:
        return INFINITY
    return parse_rational(s)


def format_p1_point(x: P1Point) -> str:
    return "inf" if x is INFINITY else format_rational(x)


def place_to_json(v: Place) -> dict:
    out: dict = {"kind": v.kind, "epsilon": v.epsilon}
    if v.is_finite:
        out["p"] = v.p
    if v.kind == "trivial":
        out.pop("epsilon")
    return out
