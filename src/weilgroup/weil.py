"""Weil polynomials of degree <= 6: validation, factoring, l-adic data.

A q-Weil polynomial is monic over Z with every complex root of modulus
sqrt(q).  With the functional symmetry coeff(t^i) = q^(g-i) *
coeff(t^(2g-i)), f = t^g h(t + q/t) for a monic integer h of degree g,
and f is a Weil polynomial exactly when h has all its roots real and in
[-2 sqrt q, 2 sqrt q] (Kedlaya, "Search techniques for root-unitary
polynomials", 2008).  Validation decides that, and factoring factors h
and lifts its factors, in integer arithmetic only.  q must be below
``polygon.PRIME_TEST_LIMIT`` (about 3.3e24), where primality is decided.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import index
from typing import NamedTuple, Sequence

from .partitions import as_integers
from .polygon import _MR_BASES, PRIME_TEST_LIMIT, is_prime, newton_polygon, valuation


class WeilError(ValueError):
    code = "WeilError"


class NotMonicError(WeilError):
    code = "NotMonic"


class BadDegreeError(WeilError):
    code = "BadDegree"


class SymmetryViolatedError(WeilError):
    code = "SymmetryViolated"


class RootModulusError(WeilError):
    code = "RootModulus"


class QNotPrimePowerError(WeilError):
    code = "QNotPrimePower"


class NotIntegralError(WeilError):
    code = "NotIntegral"


class DegenerateClassError(WeilError):
    code = "DegenerateClass"


class UnsupportedShapeError(WeilError):
    code = "UnsupportedShape"


class SizeLimitError(WeilError):
    code = "SizeLimit"  # q or f(1) not below polygon.PRIME_TEST_LIMIT


class NotPrimeError(WeilError):
    code = "NotPrime"  # classify_all's only_l is not a prime below PRIME_TEST_LIMIT


def _iroot(n: int, r: int) -> int:
    """floor(n^(1/r)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^r with p prime, r >= 1; q >= PRIME_TEST_LIMIT raises SizeLimitError.

    A q divisible by a prime p <= 41 (``polygon._MR_BASES``) is p^v_p(q) or
    not a prime power; only q with no such factor search for a prime root.
    """
    if q < 2:
        raise QNotPrimePowerError(f"q={q} is not a prime power")
    if q >= PRIME_TEST_LIMIT:
        raise SizeLimitError(f"q={q} is not below the size limit {PRIME_TEST_LIMIT}")
    for p in _MR_BASES:
        if not q % p:
            r = valuation(q, p)
            if p ** r != q:
                raise QNotPrimePowerError(f"q={q} is not a prime power")
            return p, r
    for r in range(1, q.bit_length()):
        p = _iroot(q, r)
        if p ** r == q and is_prime(p):
            return p, r
    raise QNotPrimePowerError(f"q={q} is not a prime power")


class WeilPolynomial(NamedTuple):
    """Validated Weil polynomial; coefficients highest degree first."""

    coeffs: tuple[int, ...]
    q: int
    p: int
    r: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def g(self) -> int:
        return self.degree // 2

    def __call__(self, x: int) -> int:
        return poly_eval(self.coeffs, x)


def parse_and_validate(coeffs: Sequence[int], q: int) -> WeilPolynomial:
    """Validate integer coefficients (highest degree first) and q.

    Coefficients and q are taken through ``operator.index``: ints, bools
    and numpy integers pass, anything else (a float, a string) raises
    NotIntegralError for a coefficient and QNotPrimePowerError for q.
    """
    coeffs = as_integers(coeffs, NotIntegralError)
    try:
        q = index(q)
    except TypeError:
        raise QNotPrimePowerError(f"q={q!r} is not a prime power") from None
    p, r = split_prime_power(q)
    if not coeffs or coeffs[0] != 1:
        raise NotMonicError(f"leading coefficient must be 1, got {coeffs[:1]}")
    degree = len(coeffs) - 1
    if degree < 2 or degree % 2 or degree > 6:
        raise BadDegreeError(f"degree must be 2, 4 or 6, got {degree}")
    g = degree // 2
    # coeffs[j] multiplies t^(degree - j)
    for i in range(g + 1):
        low = coeffs[degree - i]
        high = coeffs[i]
        if low != q ** (g - i) * high:
            raise SymmetryViolatedError(
                f"coeff(t^{i}) = {low} != q^{g - i} * coeff(t^{degree - i}) = "
                f"{q ** (g - i) * high}"
            )
    h = _real_weil_polynomial(coeffs, q)
    if not _roots_real_within(h, q):
        raise RootModulusError(f"f = t^{g} h(t + {q}/t) with h = {h}, which has a "
                               f"root that is not real or not in [-2 sqrt q, 2 sqrt q]")
    return WeilPolynomial(coeffs=coeffs, q=q, p=p, r=r)


# ---------------------------------------------------------------------------
# integer polynomial arithmetic on highest-first coefficient tuples


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _real_weil_polynomial(coeffs: Sequence[int], q: int) -> tuple[int, ...]:
    """h with f = t^g h(t + q/t) = sum_k h_k (t^2 + q)^k t^(g-k), for q-symmetric f.

    Matching the top g + 1 coefficients of f gives h = (1, f1, f2 - g q,
    f3 - 2 q f1) cut to degree g.
    """
    g, f = len(coeffs) // 2, tuple(coeffs) + (0, 0)
    return (1, f[1], f[2] - g * q, f[3] - 2 * q * f[1])[: g + 1]


def _roots_real_within(h: Sequence[int], q: int) -> bool:
    """Every root x of the monic h is real with x^2 <= 4q.

    H = x^(3-g) h = x^3 + b x^2 + c x + d, with the roots of h plus zeros, is
    real-rooted iff its discriminant is >= 0.  Then k(z) = -H(x) H(-x) has
    the roots z = x^2, all <= 4q iff its Taylor coefficients at 4q are >= 0.
    """
    _, b, c, d = tuple(h) + (0,) * (4 - len(h))
    disc = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
    z, k2, k1, k0 = 4 * q, 2 * c - b * b, c * c - 2 * b * d, -d * d
    return disc >= 0 and min(3 * z + k2, (3 * z + 2 * k2) * z + k1, ((z + k2) * z + k1) * z + k0) >= 0


def _integer_root(h: Sequence[int], bound: int) -> int | None:
    """The smallest integer root in [-bound, bound] of the monic h of
    degree 2 or 3, whose roots are all real and in [-bound, bound], or None.

    A quadratic x^2 + bx + c has an integer root exactly when its
    discriminant b^2 - 4c (>= 0, since h is real-rooted) is a square s^2;
    then s and b have the same parity, as b^2 - 4c = b^2 (mod 4), so the
    smaller root (-b - s) / 2 is an exact integer division.  A cubic is
    monotone on each piece [-bound, floor(c1)], [floor(c1) + 1, floor(c2)],
    [floor(c2) + 1, bound] between its critical points c1 <= c2.  A piece
    whose end values are both > 0 or both < 0 holds no root and is
    skipped.  On any other, bisection finds in O(log bound) steps the
    smallest x at which h has reached 0 in the direction the piece runs,
    and x is a root iff h(x) = 0.  The pieces go left to right, so the
    first root found is the smallest.
    """
    if len(h) == 3:
        disc = h[1] ** 2 - 4 * h[2]
        s = isqrt(disc)
        return (-h[1] - s) // 2 if s * s == disc else None
    _, b, c, d = h
    # h' = 3x^2 + 2bx + c is real-rooted because h is
    disc = b * b - 3 * c
    s = isqrt(disc)
    cut1, cut2 = (-b - s - (s * s != disc)) // 3, (-b + s) // 3
    for lo, hi in ((-bound, cut1), (cut1 + 1, cut2), (cut2 + 1, bound)):
        at_lo = ((lo + b) * lo + c) * lo + d
        at_hi = ((hi + b) * hi + c) * hi + d
        if at_lo * at_hi > 0:  # one strict sign at both ends: no root
            continue
        sign = 1 if at_hi >= at_lo else -1
        while lo < hi:  # smallest x in the piece with sign * h(x) >= 0
            mid = (lo + hi) // 2
            if sign * (((mid + b) * mid + c) * mid + d) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if ((lo + b) * lo + c) * lo + d == 0:
            return lo
    return None


class FactoredShape(NamedTuple):
    """Complete factorization into monic integer irreducibles, with
    multiplicities; ``shape_of`` reads the classification route off it."""

    weil: WeilPolynomial
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (coeffs, multiplicity)

    @property
    def tag(self) -> str:
        """Display name of the route, e.g. ``P2Q``."""
        return ROUTE_TAGS[shape_of(self).kind]

    def reassembled(self) -> tuple[int, ...]:
        out: tuple[int, ...] = (1,)
        for f, mult in self.factors:
            for _ in range(mult):
                out = poly_mul(out, f)
        return out


def factor_weil(weil: WeilPolynomial) -> FactoredShape:
    """Factor into monic integer irreducibles with multiplicities.

    h of degree <= 3 factors over Q by stripping its integer roots.  Each
    factor of h lifts to an irreducible factor of f, except x -+ 2 sqrt q
    and x^2 - 4q, which lift to (t -+ sqrt q)^2 and (t^2 - q)^2.
    """
    q = weil.q
    h = _real_weil_polynomial(weil.coeffs, q)
    real_factors = []
    while len(h) > 2 and (root := _integer_root(h, isqrt(4 * q))) is not None:
        real_factors.append((1, -root))
        h = tuple(accumulate(h[:-1], lambda acc, c: acc * root + c))  # h / (x - root)
    factors: dict[tuple[int, ...], int] = {}
    for hf in real_factors + [h]:
        if len(hf) == 2 and hf[1] ** 2 == 4 * q:
            lifted, mult = (1, hf[1] // 2), 2
        elif hf == (1, 0, -4 * q):
            lifted, mult = (1, 0, -q), 2
        elif len(hf) == 2:
            lifted, mult = (1, hf[1], q), 1
        elif len(hf) == 3:
            lifted, mult = (1, hf[1], hf[2] + 2 * q, hf[1] * q, q * q), 1
        else:  # h is an irreducible cubic
            lifted, mult = weil.coeffs, 1
        factors[lifted] = factors.get(lifted, 0) + mult
    ordered = tuple(sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return FactoredShape(weil=weil, factors=ordered)


def root_valuations(coeffs: Sequence[int], l: int) -> tuple[Fraction, ...]:
    """Descending l-adic valuations of the roots: the slopes of the checked
    :func:`polygon.newton_polygon`, right to left."""
    return newton_polygon(coeffs, l).slopes()[::-1]


def group_order(weil: WeilPolynomial) -> int:
    """f(1), the order of the group of rational points in the class."""
    value = weil(1)
    if value == 0:
        raise DegenerateClassError("f(1) = 0: degenerate class")
    return abs(value)


ROUTE_TAGS = {  # plan kind -> display name of the factor pattern
    "separable": "Separable",
    "p_square": "PSquare_g2",
    "p2q": "P2Q",
    "p_realsq": "P_RealSq",
    "q2_realsq": "Q2_RealSq",
    "scalar": "ScalarPower",
    "cyclic_index": "CyclicIndexPRQS",
    "unsupported": "Unsupported",
}


class DispatchPlan(NamedTuple):
    """Which classification routine to run, with everything it reads.

    ``kind`` is one of the keys of ``ROUTE_TAGS``.  ``factors`` are the
    f-side factors whose (1 - t)-transforms key the route, in route order:
    f itself for a separable class, t^2 - q for the cyclic-index route,
    none for a scalar class.  ``real_eigenvalue`` is the integer 1 -+ sqrt q
    by which 1 - Frobenius acts on the real part, or 0 when the route has
    none; the route's b at l is its l-adic valuation.  ``r`` and ``s`` are
    the multiplicities the route's formula reads.
    """

    kind: str
    factors: tuple[tuple[int, ...], ...] = ()
    real_eigenvalue: int = 0
    sign: str | None = None  # sign in (t +- sqrt q), for the CLI's --sign check
    r: int = 0
    s: int = 0


def shape_of(shape: FactoredShape) -> DispatchPlan:
    """The classification route of a factored Weil polynomial, decided from
    its factor pattern, with the route's arguments.

    The route key at a prime l is the kind, the Newton hulls at l of the
    transformed ``factors``, b = v_l(``real_eigenvalue``) and r and s.
    Linear factors are always t -+ sqrt q at square q; a factor t + c has
    the real eigenvalue 1 + c.  Patterns outside the classified list give
    kind ``unsupported``.
    """
    q = shape.weil.q
    sq = isqrt(q)
    factors = dict(shape.factors)
    squarefree = all(m == 1 for m in factors.values())

    if sq * sq == q and set(factors) <= {(1, -sq), (1, sq)}:
        u = factors.get((1, -sq), 0)  # multiplicity of (t - sqrt q)
        w = factors.get((1, sq), 0)
        if u == 0 or w == 0:
            return DispatchPlan(kind="scalar", real_eigenvalue=1 + sq if w else 1 - sq,
                                sign="plus" if w else "minus", s=u + w)
        if squarefree:
            return DispatchPlan(kind="separable", factors=(shape.weil.coeffs,))
        # the majority factor (t -+ sqrt q) gives the cyclic parts
        return DispatchPlan(kind="cyclic_index", factors=((1, 0, -q),),
                            real_eigenvalue=1 - sq if u >= w else 1 + sq,
                            r=min(u, w), s=abs(u - w))
    if squarefree:
        return DispatchPlan(kind="separable", factors=(shape.weil.coeffs,))

    degree = shape.weil.degree
    quads = {f: m for f, m in factors.items() if len(f) == 3}
    linears = {f: m for f, m in factors.items() if len(f) == 2}
    if degree == 4 and not linears and list(quads.values()) == [2]:
        return DispatchPlan(kind="p_square", factors=tuple(quads), r=2)
    if degree == 6 and not linears and sorted(quads.values()) == [1, 2]:
        (pf,) = [f for f, m in quads.items() if m == 2]
        (qf,) = [f for f, m in quads.items() if m == 1]
        return DispatchPlan(kind="p2q", factors=(pf, qf), r=2)
    if degree == 6 and list(linears.values()) == [2]:
        # f(0) = q^g > 0 rules out a lone odd-multiplicity real root, so a
        # single linear factor here always carries multiplicity 2
        (lf,) = linears
        sign = "plus" if lf[1] > 0 else "minus"
        rest = {f: m for f, m in factors.items() if f != lf}
        if all(m == 1 for m in rest.values()) and sum(
            (len(f) - 1) * m for f, m in rest.items()
        ) == 4:
            cofactor: tuple[int, ...] = (1,)
            for f in rest:
                cofactor = poly_mul(cofactor, f)
            return DispatchPlan(kind="p_realsq", factors=(cofactor,), real_eigenvalue=1 + lf[1],
                                sign=sign, s=2)
        if len(rest) == 1:
            (qf, qm), = rest.items()
            if len(qf) == 3 and qm == 2:
                return DispatchPlan(kind="q2_realsq", factors=(qf,), real_eigenvalue=1 + lf[1],
                                    sign=sign, r=2, s=2)
    return DispatchPlan(kind="unsupported")
