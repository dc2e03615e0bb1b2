"""Exact Newton and Hodge polygons.

Both polygons are lower convex hulls with integer vertices.  Read left to
right, the slopes of the Newton polygon of a monic polynomial are the
l-adic valuations of its roots in increasing order; the Hodge polygon of an
exponent tuple c_1 >= ... >= c_d is built from the partial sums of the
smallest exponents.

The dominance test compares the two: a group type is admissible for a
polynomial exactly when the Newton polygon lies on or above the Hodge
polygon with matching endpoints.  Equivalently, with both tuples sorted
descending, every top-k partial sum of the exponents must be at least the
top-k partial sum of the valuations, with equal totals.  (Several published
displays of this chain are transposed; the orientation used here is the one
confirmed by the exhaustive matrix oracle in :mod:`weilgroup.oracle`.)
Both forms compare integers with the Newton heights at integer x, so both
read :func:`floor_heights`: an integer is at least a height exactly when it
is at least the height's floor.

Vertices are ints.  Only the slopes are :class:`fractions.Fraction`:
valuations of roots of l-irreducible quadratics are genuine half-integers
and are never rounded.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Sequence

from .partitions import as_integers

Hull = tuple[tuple[int, int], ...]


class PolygonError(ValueError):
    """Invalid polygon construction or incompatible polygon operation."""


def valuation(x: int, l: int) -> int:
    """l-adic valuation of a nonzero integer at l >= 2.

    x and l are taken through ``operator.index``; zero, an l below 2 and a
    value that is not an integer raise PolygonError.  Up to eight factors
    of l come off one division each: one modulo when l does not divide x,
    and no overhead on the small valuations that the classify path meets.
    Beyond eight, x is divided by l, l^2, l^4, ... while they divide, which
    leaves a valuation below the first power that did not, and then by the
    same powers back down, each at most once: O(log v) big-integer
    divisions in all, not v.
    """
    try:
        x, l = index(x), index(l)
    except TypeError:
        raise PolygonError(f"valuation needs integers, got x={x!r}, l={l!r}") from None
    if x == 0:
        raise PolygonError("valuation of zero is infinite")
    if l < 2:
        raise PolygonError(f"valuation needs l >= 2, got l={l}")
    v = 0
    while v < 8 and x % l == 0:
        x //= l
        v += 1
    if v < 8:
        return v
    powers = []
    power = l
    while x % power == 0:
        x //= power
        powers.append(power)
        power *= power
    v += (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if x % powers[k] == 0:
            x //= powers[k]
            v += 1 << k
    return v


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_LIMIT; larger n raise
    PolygonError naming the limit.

    n is taken through ``operator.index``: a float or a string is not prime.
    """
    try:
        n = index(n)
    except TypeError:
        return False
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= PRIME_TEST_LIMIT:
        raise PolygonError(f"n={n} is not below the primality limit {PRIME_TEST_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
        for a in _MR_BASES
    )


def as_prime(l: int, error: type[ValueError] = ValueError) -> int:
    """l as an int, through ``operator.index``, if it is prime; else
    ``error("l=... is not prime")``, also for a float or a string.  An l
    at or above PRIME_TEST_LIMIT that :func:`is_prime` cannot decide raises
    ``error`` too, naming the limit."""
    try:
        prime = is_prime(l)
    except ValueError:
        raise error(f"l={l} is not below the primality limit {PRIME_TEST_LIMIT}") from None
    if not prime:
        raise error(f"l={l} is not prime")
    return index(l)


def _lower_hull(points: Sequence[tuple[int, int]]) -> Hull:
    """Lower convex hull of points with strictly increasing x.

    Collinear interior points are dropped, so consecutive hull slopes are
    strictly increasing.
    """
    hull: list[tuple[int, int]] = []
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


def _slopes(hull: Hull) -> tuple[Fraction, ...]:
    """One slope per unit of width between consecutive hull vertices."""
    from fractions import Fraction  # only here: no classify request reads slopes

    out: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.extend([Fraction(y2 - y1, x2 - x1)] * (x2 - x1))
    return tuple(out)


def floor_heights(hull: Hull) -> list[int]:
    """The floor of the polygon's height at x = 0, 1, ..., width, from its
    integer vertices, the first of which is (0, 0)."""
    out = [0]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y2 - y1
        out += [y1 + dy * k // dx for k in range(1, dx + 1)]
    return out


class _Vertices(NamedTuple):
    vertices: Hull


class LatticePolygon(_Vertices):
    """Lower-convex piecewise linear function on [0, width].

    ``vertices`` are the corner points only, as ints: x strictly increasing
    starting at (0, 0), slopes strictly increasing between consecutive
    segments.  Every construction is checked, ``_replace`` and unpickling
    included.
    """

    __slots__ = ()

    def __new__(cls, vertices: Hull) -> LatticePolygon:
        vs = tuple(as_integers(v, PolygonError) for v in vertices)
        if not vs:
            raise PolygonError("polygon needs at least one vertex")
        if vs[0] != (0, 0):
            raise PolygonError(f"polygon must start at (0, 0), got {vs[0]}")
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 <= x1:
                raise PolygonError("vertex x-coordinates must strictly increase")
        if _lower_hull(vs) != vs:
            raise PolygonError("segment slopes must strictly increase")
        return super().__new__(cls, vs)

    @classmethod
    def _make(cls, iterable) -> LatticePolygon:
        return cls(*iterable)

    @property
    def width(self) -> int:
        return self.vertices[-1][0]

    @property
    def total(self) -> int:
        return self.vertices[-1][1]

    def slopes(self) -> tuple[Fraction, ...]:
        """One slope per unit of width, weakly increasing."""
        return _slopes(self.vertices)


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


def newton_hull(coeffs: tuple[int, ...], l: int) -> Hull:
    """The integer vertices of the l-adic Newton polygon, left to right: the
    lower hull of the points (i, v_l(f_i)) of the nonzero coefficients,
    where f_0 = 1 is the leading coefficient.

    Collinear points are dropped, so two polynomials with the same root
    valuations have the same hull: it is a canonical, hashable integer form
    of the valuation profile.  Unchecked: ``coeffs`` must be a tuple of
    ints, monic with a nonzero constant term, and l prime.  Entry points
    that take outside input check these first (:func:`newton_polygon`);
    ``classify.classify_all`` holds them by construction.

    Only the points right of the last unit coefficient are valued.  Let j
    be the largest i with l not dividing f_i; there is one, as f_0 = 1.
    Every point has height >= 0, (0, 0) and (j, 0) have height 0, and
    every point right of j has height >= 1.  So the polygon is flat on
    [0, j], with vertices (0, 0) and (j, 0), and only the points right of
    j go into the hull; one such point alone ends the polygon as it is.
    The commonest hulls cost one or two modulo operations: j = d gives
    ((0, 0), (d, 0)), and j = d - 1 gives ((0, 0), (d - 1, 0), (d, v)).  A
    zero coefficient is passed over, never divided.
    """
    j = d = len(coeffs) - 1
    while coeffs[j] % l == 0:  # passes over a zero coefficient too
        j -= 1
    flat = ((0, 0), (j, 0)) if j else ((0, 0),)
    if j == d:
        return flat
    rising = []
    for i in range(j + 1, d + 1):
        c = coeffs[i]
        if c:
            v = 1
            c //= l
            while c % l == 0:
                c, v = c // l, v + 1
            rising.append((i, v))
    return flat + tuple(rising) if len(rising) < 2 else _lower_hull(flat + tuple(rising))


def newton_polygon(coeffs: Sequence[int], l: int) -> LatticePolygon:
    """Newton polygon of a monic integer polynomial at the prime l: the
    :func:`newton_hull` of the checked input.

    The coefficients must be integers.  The constant term must be nonzero,
    else the final slope would be infinite.
    """
    coeffs = as_integers(coeffs, PolygonError)
    if not coeffs or all(c == 0 for c in coeffs):
        raise PolygonError("zero polynomial has no Newton polygon")
    if coeffs[0] != 1:
        raise PolygonError("polynomial must be monic")
    l = as_prime(l, PolygonError)
    if coeffs[-1] == 0:
        raise PolygonError("zero constant term: root valuation would be infinite")
    return LatticePolygon(newton_hull(coeffs, l))


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
    heights = [0]
    for e in reversed(list(c) + [0] * (d - len(c))):
        heights.append(heights[-1] + e)
    return LatticePolygon(_lower_hull(list(enumerate(heights))))


def np_dominates_hp(np_poly: LatticePolygon, hp_poly: LatticePolygon) -> bool:
    """True iff np lies on or above hp everywhere with equal endpoints.

    With both polygons built from sums of smallest values this says: for
    every k the sum of the k largest exponents is at least the sum of the
    k largest valuations, and the totals agree.  hp must have integer
    slopes, as every Hodge polygon does, so that its heights at integer x
    are integers and equal to their floors.
    """
    if np_poly.width != hp_poly.width:
        raise PolygonError(
            f"width mismatch: {np_poly.width} vs {hp_poly.width}"
        )
    hp = hp_poly.vertices
    if any((y2 - y1) % (x2 - x1) for (x1, y1), (x2, y2) in zip(hp, hp[1:])):
        raise PolygonError(f"{hp} has a non-integer slope: not a Hodge polygon")
    if np_poly.total != hp_poly.total:
        return False
    return all(n >= h for n, h in zip(floor_heights(np_poly.vertices), floor_heights(hp)))
