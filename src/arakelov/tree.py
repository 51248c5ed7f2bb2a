"""Geometry of the Berkovich projective line over an ultrametric place of Q.

Points eta_{alpha,r} are stored in the direct chart as (rational center,
log radius); log radius -inf marks a type-1 point and the point at infinity
is a separate sentinel.  Points handed in through the inverted chart
(coordinates u = 1/t) are canonicalized by the chart-change law of
``invert_point``:

    eta_{alpha,r} with r <  |alpha|  ->  eta_{1/alpha, r/|alpha|^2}
    eta_{alpha,r} with r >= |alpha|  ->  eta_{0, 1/r}

All radii live on a log scale and are scaled by the place's flow exponent
epsilon, because center distances go through ``log_abs_diff``, which reads
log|alpha - beta| from the four integers of the two centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartMismatch, PlaceMismatch, Type1Endpoint
from .places import (
    INF,
    INFINITY,
    NEG_INF,
    P1Point,
    Place,
    format_rational,
    log_abs,
    log_abs_diff,
    parse_rational,
)

EQ_TOL = 1e-9  # point identity tolerance on the log-radius scale


@dataclass(frozen=True, slots=True)
class TreePoint:
    """A point of the Berkovich line: eta_{center, exp(log_radius)} or infinity."""

    center: Fraction = Fraction(0)
    log_radius: float = NEG_INF
    at_infinity: bool = False

    def __post_init__(self) -> None:
        if not self.log_radius < INF:  # -inf is a type-1 point; NaN and +inf are no point
            raise ValueError(f"log_radius must be finite or -inf, not {self.log_radius!r}")

    @property
    def is_type1(self) -> bool:
        return self.at_infinity or self.log_radius == NEG_INF

    def __repr__(self) -> str:
        if self.at_infinity:
            return "TreePoint(inf)"
        if self.is_type1:
            return f"TreePoint(delta {format_rational(self.center)})"
        return f"TreePoint(eta {format_rational(self.center)}, logr={self.log_radius:.6g})"


POINT_AT_INFINITY = TreePoint(at_infinity=True)
GAUSS = TreePoint(Fraction(0), 0.0)


def eta(center: Fraction | int | str, log_radius: float) -> TreePoint:
    return TreePoint(parse_rational(center), float(log_radius))


def type1(center: P1Point | int | str) -> TreePoint:
    if center is INFINITY:
        return POINT_AT_INFINITY
    return TreePoint(parse_rational(center), NEG_INF)


def join(x: TreePoint, y: TreePoint, v: Place) -> TreePoint:
    """The smallest point above both, eta_{alpha, max(r, s, |alpha-beta|)}."""
    return _joined(x, y, hsia_log_kernel(x, y, v))


def _joined(x: TreePoint, y: TreePoint, k: float) -> TreePoint:
    """join(x, y) from its log radius k: centered at the end of larger radius, x on ties."""
    base = x if x.log_radius >= y.log_radius else y
    return TreePoint(base.center, k)


def hsia_log_kernel(x: TreePoint, y: TreePoint, v: Place) -> float:
    """log of the Hsia kernel: the log radius of join(x, y).

    Symmetric; equals the log radius on the diagonal; -inf exactly for a pair
    of equal type-1 points.
    """
    if not v.is_finite:
        raise PlaceMismatch("tree operations need a finite place")
    if x.at_infinity or y.at_infinity:
        raise ChartMismatch("the point at infinity has no direct-chart representation")
    return max(x.log_radius, y.log_radius, log_abs_diff(x.center, y.center, v))


def points_equal(x: TreePoint, y: TreePoint, v: Place) -> bool:
    if x.at_infinity or y.at_infinity:
        return x.at_infinity and y.at_infinity
    if x.is_type1 or y.is_type1:
        return x.is_type1 and y.is_type1 and x.center == y.center
    return (
        abs(x.log_radius - y.log_radius) <= EQ_TOL
        and log_abs_diff(x.center, y.center, v) <= x.log_radius + EQ_TOL
    )


def _rises(x: TreePoint, y: TreePoint, v: Place) -> tuple[float, float, float]:
    """[x, y] as two concentric arcs meeting at the join: its log radius k and
    the rises k - r_x and k - r_y from each end."""
    k = hsia_log_kernel(x, y, v)
    return k, k - x.log_radius, k - y.log_radius


def path_length(x: TreePoint, y: TreePoint, v: Place) -> float:
    """Canonical log length of [x, y]; both points must be of type 2 or 3."""
    if x.is_type1 or y.is_type1:
        raise Type1Endpoint("path length is infinite at type-1 endpoints")
    _, up, down = _rises(x, y, v)
    return up + down


def median(x: TreePoint, y: TreePoint, z: TreePoint, v: Place) -> TreePoint:
    """The unique point on all three pairwise paths.

    Accepts the point at infinity (the median then is the join of the other
    two); the result is always an affine point when at most one argument is
    infinite.  Otherwise it is the lowest of the three pairwise joins, the
    first in the order (x, y), (x, z), (y, z) on ties.  A median against a
    segment's two ends is ``_segment_median``, which reads their kernel from
    ``Segment.top``.
    """
    affine = [p for p in (x, y, z) if not p.at_infinity]
    if len(affine) == 2:
        return join(*affine, v)
    if len(affine) < 2:
        return POINT_AT_INFINITY
    return _median_given(x, y, z, hsia_log_kernel(x, y, v), v)


def _median_given(x: TreePoint, y: TreePoint, z: TreePoint, kxy: float, v: Place) -> TreePoint:
    """median(x, y, z) of three affine points, given kxy = hsia_log_kernel(x, y, v)."""
    kxz, kyz = hsia_log_kernel(x, z, v), hsia_log_kernel(y, z, v)
    if kxy <= kxz and kxy <= kyz:
        return _joined(x, y, kxy)
    return _joined(x, z, kxz) if kxz <= kyz else _joined(y, z, kyz)


@dataclass(frozen=True, slots=True)
class Segment:
    """A geodesic between two type-2/3 points, with its place, its cached
    length and the log radius ``top`` of join(a, b), where its two arcs meet."""

    a: TreePoint
    b: TreePoint
    place: Place
    length: float
    top: float

    @property
    def is_singleton(self) -> bool:
        return self.length == 0.0

    @property
    def arcs(self) -> list[tuple[Fraction, float, float]]:
        """The nonempty concentric arcs (center, lo, top) from an end up to the join."""
        if self.is_singleton:
            return []
        ends = (self.a, self.b)
        return [(p.center, p.log_radius, self.top) for p in ends if self.top > p.log_radius]

    def __repr__(self) -> str:
        return f"Segment({self.a!r}, {self.b!r}, l={self.length:.6g})"


def segment_between(x: TreePoint, y: TreePoint, v: Place) -> Segment:
    if not v.is_finite:
        raise PlaceMismatch("segments live over a finite place")
    if x.is_type1 or y.is_type1:
        raise Type1Endpoint("segment endpoints must be of type 2 or 3")
    top, up, down = _rises(x, y, v)
    return Segment(x, y, v, 0.0 if points_equal(x, y, v) else up + down, top)


def point_on_path(x: TreePoint, y: TreePoint, v: Place, s: float) -> TreePoint:
    """The point at arc length s from x along [x, y] (0 <= s <= length)."""
    _, up, down = _rises(x, y, v)
    total = up + down
    s = min(max(s, 0.0), total)
    if s <= up:
        return TreePoint(x.center, x.log_radius + s)
    return TreePoint(y.center, y.log_radius + (total - s))


def _segment_median(seg: Segment, z: TreePoint) -> TreePoint:
    """median(seg.a, seg.b, z, seg.place), with the kernel of the ends read
    from ``seg.top`` (the same float ``segment_between`` computed) instead of
    computed again."""
    if z.at_infinity:
        return _joined(seg.a, seg.b, seg.top)
    return _median_given(seg.a, seg.b, z, seg.top, seg.place)


def point_on_segment(p: TreePoint, seg: Segment) -> bool:
    return points_equal(_segment_median(seg, p), p, seg.place)


@dataclass(frozen=True, slots=True)
class Disjoint:
    """Segments meeting in at most one point (touching counts as d_ab = 0).

    z_a, z_b are the split points facing the other segment; la1/la2 are the
    lengths of the two halves of I_a around z_a, likewise for I_b.
    """

    la: float
    lb: float
    la1: float
    la2: float
    lb1: float
    lb2: float
    d_ab: float
    z_a: TreePoint
    z_b: TreePoint

    variant = "disjoint"


@dataclass(frozen=True, slots=True)
class Meeting:
    """Segments whose intersection is a genuine segment of length l_ab.

    The outer pieces are paired by side: (la1, lb1) hang off one endpoint of
    the intersection and (la2, lb2) off the other.
    """

    la: float
    lb: float
    l_ab: float
    la1: float
    la2: float
    lb1: float
    lb2: float
    u: TreePoint
    w: TreePoint

    variant = "meeting"


PairConfiguration = Disjoint | Meeting


def classify_pair(ia: Segment, ib: Segment, v: Place) -> PairConfiguration:
    """Relative position of two segments: Disjoint/touching or Meeting.

    Matches the two pictures of the segment-vs-segment calculus: in the
    meeting case the intersection [u, w] is cut out and the four outer pieces
    are reported with the same-side pairing convention.  Every median here is
    taken against a segment's ends, so it reads their kernel from
    ``Segment.top`` (``_segment_median``).
    """
    if ia.place != v or ib.place != v:
        raise PlaceMismatch("both segments must live over the classification place")
    xa = ia.a
    xb = ib.a
    p1 = _segment_median(ia, xb)
    p2 = _segment_median(ia, ib.b)
    la, lb = ia.length, ib.length

    zb, d_ab = p1, 0.0  # touching: the intersection is the single point p1
    if point_on_segment(p1, ib) and point_on_segment(p2, ib):
        l_ab = path_length(p1, p2, v)
        if l_ab > EQ_TOL:
            du, dv_ = path_length(xa, p1, v), path_length(xa, p2, v)
            u, w = (p1, p2) if du <= dv_ else (p2, p1)
            du, dv_ = min(du, dv_), max(du, dv_)
            la1 = du
            la2 = max(la - dv_, 0.0)
            eu, ev = path_length(xb, u, v), path_length(xb, w, v)
            if eu <= ev:
                lb1, lb2 = eu, max(lb - ev, 0.0)
            else:
                lb1, lb2 = max(lb - eu, 0.0), ev
            return Meeting(la, lb, l_ab, la1, la2, lb1, lb2, u, w)
    else:  # genuinely disjoint: the projections collapse to single split points
        zb = _segment_median(ib, xa)
        d_ab = path_length(p1, zb, v)
    la1 = path_length(xa, p1, v)
    lb1 = path_length(xb, zb, v)
    return Disjoint(la, lb, la1, max(la - la1, 0.0), lb1, max(lb - lb1, 0.0), d_ab, p1, zb)


def invert_point(x: TreePoint, v: Place) -> TreePoint:
    """Image of x under t -> 1/t, via the chart-change law."""
    if x.at_infinity:
        return type1(0)
    if x.is_type1:
        return POINT_AT_INFINITY if x.center == 0 else type1(1 / x.center)
    la = log_abs(x.center, v)
    if x.log_radius >= la:
        return TreePoint(Fraction(0), -x.log_radius)
    return TreePoint(1 / x.center, x.log_radius - 2.0 * la)


# ---------------------------------------------------------------------------
# JSON encoding


def tree_point_to_json(x: TreePoint) -> dict:
    if x.at_infinity:
        return {"point_at_infinity": True}
    out = {"chart": "direct", "center": format_rational(x.center)}
    if x.is_type1:
        out["type1"] = True
    else:
        out["log_radius"] = x.log_radius
    return out


def tree_point_from_json(obj: dict, v: Place | None = None) -> TreePoint:
    if not isinstance(obj, dict):
        raise TypeError("a tree point is a JSON object")
    if obj.get("point_at_infinity"):
        return POINT_AT_INFINITY
    chart = obj.get("chart", "direct")
    center = parse_rational(obj["center"])
    log_radius = NEG_INF if obj.get("type1") else float(obj["log_radius"])
    if chart == "direct":
        return TreePoint(center, log_radius)
    if chart == "inverted":
        if v is None:
            raise ChartMismatch("inverted-chart points need a place to canonicalize")
        return invert_point(TreePoint(center, log_radius), v)
    raise ChartMismatch(f"unknown chart {chart!r}")


def segment_to_json(seg: Segment) -> dict:
    return {"endpoints": [tree_point_to_json(seg.a), tree_point_to_json(seg.b)]}


def segment_from_json(obj: dict, v: Place) -> Segment:
    ends = obj["endpoints"]
    if not isinstance(ends, list) or len(ends) != 2:
        raise TypeError("a segment's endpoints are a JSON array of two points")
    a, b = (tree_point_from_json(e, v) for e in ends)
    return segment_between(a, b, v)
