"""Exact Newton and Hodge polygons.

Both polygons are lower convex hulls of plane point sets with integer
x-coordinates and exact rational heights.  Read left to right, the slopes
of the Newton polygon of a monic polynomial are the l-adic valuations of
its roots in increasing order; the Hodge polygon of an exponent tuple
c_1 >= ... >= c_d is built from the partial sums of the smallest exponents.

The dominance test compares the two: a group type is admissible for a
polynomial exactly when the Newton polygon lies on or above the Hodge
polygon with matching endpoints.  Equivalently, with both tuples sorted
descending, every top-k partial sum of the exponents must be at least the
top-k partial sum of the valuations, with equal totals.  (Several published
displays of this chain are transposed; the orientation used here is the one
confirmed by the exhaustive matrix oracle in :mod:`weilgroup.oracle`.)

Polygon heights are :class:`fractions.Fraction`; valuations of roots of
l-irreducible quadratics are genuine half-integers and are never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .partitions import as_integers


class PolygonError(ValueError):
    """Invalid polygon construction or incompatible polygon operation."""


def valuation(x: int, l: int) -> int:
    """l-adic valuation of a nonzero integer at l >= 2."""
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    if l < 2:
        raise ValueError(f"valuation needs l >= 2, got l={l}")
    v = 0
    while x % l == 0:
        x //= l
        v += 1
    return v


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_LIMIT; larger n raise ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"n={n} is not below the primality limit {PRIME_TEST_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
        for a in _MR_BASES
    )


def _lower_hull(points: Sequence[tuple[int, Fraction | int]]) -> tuple[tuple[int, Fraction | int], ...]:
    """Lower convex hull of points with strictly increasing x.

    Collinear interior points are dropped, so consecutive hull slopes are
    strictly increasing.  Integer heights stay integers.
    """
    hull: list[tuple[int, Fraction | int]] = []
    for p in points:
        x, y = p
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep hull[-1] only if it lies strictly below segment hull[-2]->p
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def _slopes(hull: Sequence[tuple[int, Fraction | int]]) -> tuple[Fraction, ...]:
    """One slope per unit of width between consecutive hull vertices."""
    out: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.extend([Fraction(y2 - y1, x2 - x1)] * (x2 - x1))
    return tuple(out)


@dataclass(frozen=True)
class LatticePolygon:
    """Lower-convex piecewise linear function on [0, width].

    ``vertices`` are the corner points only: x strictly increasing starting
    at (0, 0), slopes strictly increasing between consecutive segments.
    """

    vertices: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if not vs:
            raise PolygonError("polygon needs at least one vertex")
        if vs[0] != (0, Fraction(0)):
            raise PolygonError(f"polygon must start at (0, 0), got {vs[0]}")
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 <= x1:
                raise PolygonError("vertex x-coordinates must strictly increase")
        slopes = [
            Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(vs, vs[1:])
        ]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 <= s1:
                raise PolygonError("segment slopes must strictly increase")

    @classmethod
    def from_points(cls, points: Sequence[tuple[int, Fraction | int]]) -> "LatticePolygon":
        pts = sorted((int(x), Fraction(y)) for x, y in points)
        xs = [x for x, _ in pts]
        if len(set(xs)) != len(xs):
            raise PolygonError("duplicate x-coordinates")
        return cls(_lower_hull(pts))

    @property
    def width(self) -> int:
        return self.vertices[-1][0]

    @property
    def total(self) -> Fraction:
        return self.vertices[-1][1]

    def value_at(self, x: int | Fraction) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= self.width:
            raise PolygonError(f"x={x} outside [0, {self.width}]")
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x <= x2:
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        return self.vertices[-1][1]

    def slopes(self) -> tuple[Fraction, ...]:
        """One slope per unit of width, weakly increasing."""
        return _slopes(self.vertices)


@dataclass(frozen=True)
class ValuationProfile:
    """Root valuations sorted descending; exact rationals >= 0."""

    vals: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vs = self.vals
        if any(v < 0 for v in vs):
            raise ValueError("valuations must be nonnegative")
        if any(vs[i] < vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError("valuations must be weakly decreasing")

    @classmethod
    def from_polygon(cls, polygon: LatticePolygon) -> "ValuationProfile":
        return cls(tuple(reversed(polygon.slopes())))

    @property
    def total(self) -> Fraction:
        return sum(self.vals, Fraction(0))

    def __len__(self) -> int:
        return len(self.vals)

    def __iter__(self):
        return iter(self.vals)


def transform_one_minus_t(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of (-1)^d * P(1-t) for monic integer P, highest degree first.

    The sign normalization keeps the result monic; applying the transform
    twice returns the input.  A non-integer coefficient raises
    PolygonError.  With u = t - 1, (-1)^d P(1 - t) is
    sum_k (-1)^k c_k u^(d-k), evaluated by Horner's rule in u.
    """
    coeffs = as_integers(coeffs, PolygonError)
    if not coeffs or coeffs[0] != 1:
        raise PolygonError("polynomial must be monic")
    out: list[int] = []
    sign = 1
    for c in coeffs:  # out <- out * (t - 1) + (-1)^k c_k, in place
        prev = 0
        for i, x in enumerate(out):
            out[i] = x - prev
            prev = x
        out.append(sign * c - prev)
        sign = -sign
    return tuple(out)


def newton_hull(coeffs: tuple[int, ...], l: int) -> tuple[tuple[int, int], ...]:
    """The integer vertices of the l-adic Newton polygon, left to right: the
    lower hull of the points (i, v_l(f_i)) of the nonzero coefficients,
    where f_0 = 1 is the leading coefficient.

    Collinear points are dropped, so two polynomials with the same root
    valuations have the same hull: it is a canonical, hashable integer form
    of the valuation profile.  Unchecked: ``coeffs`` must be a tuple of
    ints, monic with a nonzero constant term, and l prime.  Entry points
    that take outside input check these first (:func:`newton_points`);
    ``classify.classify_all`` holds them by construction, so each v_l(f_i)
    is counted inline, without :func:`valuation`'s guards.
    """
    points = []
    for i, c in enumerate(coeffs):
        if c:
            v = 0
            while not c % l:
                c, v = c // l, v + 1
            points.append((i, v))
    return _lower_hull(points)


def newton_points(coeffs: Sequence[int], l: int) -> tuple[tuple[int, int], ...]:
    """:func:`newton_hull` of a monic integer polynomial at the prime l,
    with its preconditions checked.

    The coefficients must be integers.  The constant term must be nonzero,
    else the final slope would be infinite.
    """
    coeffs = as_integers(coeffs, PolygonError)
    if not coeffs or all(c == 0 for c in coeffs):
        raise PolygonError("zero polynomial has no Newton polygon")
    if coeffs[0] != 1:
        raise PolygonError("polynomial must be monic")
    if not is_prime(l):
        raise PolygonError(f"l={l} is not prime")
    if coeffs[-1] == 0:
        raise PolygonError("zero constant term: root valuation would be infinite")
    return newton_hull(coeffs, l)


def newton_polygon(coeffs: Sequence[int], l: int) -> LatticePolygon:
    """Newton polygon of a monic integer polynomial at the prime l, from the
    checked vertices of :func:`newton_points`."""
    return LatticePolygon.from_points(newton_points(coeffs, l))


def hodge_polygon(c: Sequence[int], d: int) -> LatticePolygon:
    """Hodge polygon of the exponent tuple c padded with zeros to length d.

    The exponents must be integers.  Lower hull of (i, sum of the i
    smallest exponents) for i = 0..d; since the exponents are sorted this
    point set is already convex.
    """
    c = as_integers(c, PolygonError)
    if any(x < 0 for x in c):
        raise PolygonError("exponents must be nonnegative")
    if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
        raise PolygonError("exponents must be weakly decreasing")
    if len(c) > d:
        raise PolygonError(f"{len(c)} exponents exceed width {d}")
    full = list(c) + [0] * (d - len(c))
    increasing = list(reversed(full))
    points = [(0, Fraction(0))]
    s = 0
    for i, e in enumerate(increasing, start=1):
        s += e
        points.append((i, Fraction(s)))
    return LatticePolygon.from_points(points)


def np_dominates_hp(np_poly: LatticePolygon, hp_poly: LatticePolygon) -> bool:
    """True iff np lies on or above hp everywhere with equal endpoints.

    With both polygons built from sums of smallest values this says: for
    every k the sum of the k largest exponents is at least the sum of the
    k largest valuations, and the totals agree.
    """
    if np_poly.width != hp_poly.width:
        raise PolygonError(
            f"width mismatch: {np_poly.width} vs {hp_poly.width}"
        )
    if np_poly.total != hp_poly.total:
        return False
    return all(
        np_poly.value_at(x) >= hp_poly.value_at(x)
        for x in range(np_poly.width + 1)
    )
