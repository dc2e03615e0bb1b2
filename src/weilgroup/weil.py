"""Weil polynomials of degree <= 6: validation, factoring, l-adic data.

A q-Weil polynomial is monic over Z with every complex root of modulus
sqrt(q).  With the functional symmetry coeff(t^i) = q^(g-i) *
coeff(t^(2g-i)), f = t^g h(t + q/t) for a monic integer h of degree g,
and f is a Weil polynomial exactly when h has all its roots real and in
[-2 sqrt q, 2 sqrt q] (Kedlaya, "Search techniques for root-unitary
polynomials", 2008).  Validation decides that in one pass over the
coefficients: the powers of q are computed once for the symmetry check,
and the coefficients of h go straight into one exact test on a cubic
(:func:`_cubic_roots_real_within`).  The same test on the integer h
within root bounds enumerates the q-Weil polynomials
(:func:`weil_polynomials`).  Factoring factors h and lifts its factors.
Everything is integer arithmetic.  q must be below
``polygon.PRIME_TEST_LIMIT`` (about 3.3e24), where primality is decided.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .partitions import as_integers
from .polygon import _MR_BASES, PRIME_TEST_LIMIT, is_prime, newton_polygon


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
    not a prime power: p is divided out while it divides, and q is a power
    of p iff 1 is left.  Only q with no such factor search for a prime root.
    """
    if q < 2:
        raise QNotPrimePowerError(f"q={q} is not a prime power")
    if q >= PRIME_TEST_LIMIT:
        raise SizeLimitError(f"q={q} is not below the size limit {PRIME_TEST_LIMIT}")
    for p in _MR_BASES:
        if not q % p:
            rest, r = q // p, 1
            while not rest % p:
                rest, r = rest // p, r + 1
            if rest != 1:
                raise QNotPrimePowerError(f"q={q} is not a prime power")
            return p, r
    for r in range(1, q.bit_length()):
        p = _iroot(q, r)
        if p ** r == q and is_prime(p):
            return p, r
    raise QNotPrimePowerError(f"q={q} is not a prime power")


class _WeilFields(NamedTuple):
    coeffs: tuple[int, ...]
    q: int
    p: int
    r: int


class WeilPolynomial(_WeilFields):
    """Weil polynomial, coefficients highest degree first, validated by every
    construction (``_make``, ``_replace`` and unpickling included) with the
    named WeilError of :func:`parse_and_validate`.  p and r (q = p^r) are
    derived from q, or must match it when given.

    The checks run in one pass, in this order: integers, q, monic, degree,
    symmetry from i = 0 up, roots.  The tuple h is built only for the
    RootModulusError message."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[int], q: int, p: int | None = None, r: int | None = None):
        coeffs = as_integers(coeffs, NotIntegralError)
        try:
            q = index(q)
        except TypeError:
            raise QNotPrimePowerError(f"q={q!r} is not a prime power") from None
        split = split_prime_power(q)
        if (p is not None or r is not None) and (p, r) != split:
            raise QNotPrimePowerError(f"q={q} is {split[0]}^{split[1]}, not p={p!r}, r={r!r}")
        if not coeffs or coeffs[0] != 1:
            raise NotMonicError(f"leading coefficient must be 1, got {coeffs[:1]}")
        degree = len(coeffs) - 1
        if degree not in (2, 4, 6):
            raise BadDegreeError(f"degree must be 2, 4 or 6, got {degree}")
        g = degree // 2
        q2 = q * q
        powers = (1, q, q2, q2 * q)
        # coeffs[j] multiplies t^(degree - j); i = g compares coeffs[g] with itself
        for i in range(g):
            if coeffs[degree - i] != powers[g - i] * coeffs[i]:
                raise SymmetryViolatedError(
                    f"coeff(t^{i}) = {coeffs[degree - i]} != q^{g - i} * "
                    f"coeff(t^{degree - i}) = {powers[g - i] * coeffs[i]}"
                )
        # x^(3-g) h = x^3 + b x^2 + c x + d, with h as in _real_weil_polynomial
        b = coeffs[1]
        c = coeffs[2] - g * q if g > 1 else 0
        d = coeffs[3] - 2 * q * b if g > 2 else 0
        if not _cubic_roots_real_within(b, c, d, q):
            raise RootModulusError(f"f = t^{g} h(t + {q}/t) with h = "
                                   f"{_real_weil_polynomial(coeffs, q)}, which has a root "
                                   f"that is not real or not in [-2 sqrt q, 2 sqrt q]")
        return tuple.__new__(cls, (coeffs, q) + split)

    @classmethod
    def _make(cls, iterable) -> WeilPolynomial:
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def g(self) -> int:
        return self.degree // 2


def parse_and_validate(coeffs: Sequence[int], q: int) -> WeilPolynomial:
    """Validate integer coefficients (highest degree first) and q.

    Coefficients and q are taken through ``operator.index``: ints, bools
    and numpy integers pass, anything else (a float, a string) raises
    NotIntegralError for a coefficient and QNotPrimePowerError for q.
    """
    return WeilPolynomial(coeffs, q)


# ---------------------------------------------------------------------------
# integer polynomial arithmetic on highest-first coefficient tuples


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _real_weil_polynomial(coeffs: Sequence[int], q: int) -> tuple[int, ...]:
    """h with f = t^g h(t + q/t) = sum_k h_k (t^2 + q)^k t^(g-k), for q-symmetric f.

    Matching the top g + 1 coefficients of f gives h = (1, f1, f2 - g q,
    f3 - 2 q f1) cut to degree g.
    """
    g, f = len(coeffs) // 2, tuple(coeffs) + (0, 0)
    return (1, f[1], f[2] - g * q, f[3] - 2 * q * f[1])[: g + 1]


def _cubic_roots_real_within(b: int, c: int, d: int, q: int) -> bool:
    """Every root x of H = x^3 + b x^2 + c x + d is real with x^2 <= 4q.

    H is real-rooted iff its discriminant is >= 0.  Then k(z) = -H(x) H(-x)
    = z^3 + k2 z^2 + k1 z - d^2 has the roots z = x^2, all <= 4q iff its
    Taylor coefficients at 4q are >= 0.  The tests stop at the first that
    fails.
    """
    bb, cc = b * b, c * c
    disc = 18 * b * c * d - 4 * bb * b * d + bb * cc - 4 * cc * c - 27 * d * d
    z, k2, k1 = 4 * q, 2 * c - bb, cc - 2 * b * d
    return (disc >= 0 and 3 * z + k2 >= 0 and (3 * z + 2 * k2) * z + k1 >= 0
            and ((z + k2) * z + k1) * z >= d * d)


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s + (s * s < n)


def weil_polynomials(q: int) -> Iterator[tuple[int, ...]]:
    """Every q-Weil polynomial of degree 2, 4 or 6, each once, as its
    coefficients highest degree first: g = 1, 2, 3 in turn, and each g in
    lexicographic order of the tail (h_1, ..., h_g) of the h with
    f = t^g h(t + q/t).  A q that is not a prime power raises the error of
    :func:`split_prime_power` at the first step.

    The tails are those of monic integer h whose roots might all be real and
    in [-B, B], B = 2 sqrt q, each coefficient bounded by the earlier ones,
    exactly in integers: |h_1| <= g B, since the roots sum to -h_1.  A
    quadratic x^2 + a x + b with both roots there has b <= a^2 / 4 (real
    roots) and h(+-B) >= 0, that is b >= |a| B - 4q.  For a cubic the same
    two conditions hold for h' / 3 = x^2 + (2a/3) x + b/3, whose roots lie
    between those of h, and h(B) >= 0 >= h(-B) gives |c + 4q a| <= (4q + b) B
    with b >= -4q.  :func:`_cubic_roots_real_within` decides each tail,
    padded with zeros to (h_1, h_2, h_3), the tail of x^(3-g) h.  f is h
    lifted: the head (1, h_1, h_2 + g q, h_3 + 2 q h_1), cut to length
    g + 1, that :func:`_real_weil_polynomial` inverts, then the other half
    by the q-symmetry coeff(t^i) = q^(g-i) coeff(t^(2g-i)).
    """
    split_prime_power(q)
    four_q = 4 * q
    for g in (1, 2, 3):
        a_max = isqrt(g * g * four_q)
        for a in range(-a_max, a_max + 1):
            if g == 1:
                tails = ((a, 0, 0),)
            elif g == 2:
                b_min = _ceil_sqrt(four_q * a * a) - four_q
                tails = ((a, b, 0) for b in range(b_min, a * a // 4 + 1))
            else:
                b_min = max(-four_q, _ceil_sqrt(4 * four_q * a * a) - 3 * four_q)
                tails = (
                    (a, b, c)
                    for b in range(b_min, a * a // 3 + 1)
                    for k in (isqrt(four_q * (four_q + b) ** 2),)
                    for c in range(-four_q * a - k, -four_q * a + k + 1)
                )
            for h1, h2, h3 in tails:
                if _cubic_roots_real_within(h1, h2, h3, q):
                    head = (1, h1, h2 + g * q, h3 + 2 * q * h1)[: g + 1]
                    yield head + tuple(q ** (g - i) * head[i] for i in range(g - 1, -1, -1))


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


Factors = tuple[tuple[tuple[int, ...], int], ...]  # ((coeffs, multiplicity), ...)


def factor_weil(weil: WeilPolynomial) -> Factors:
    """Factor into monic integer irreducibles with multiplicities, sorted by
    degree, then by coefficients.

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
    return tuple(sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0])))


def root_valuations(coeffs: Sequence[int], l: int) -> tuple[Fraction, ...]:
    """Descending l-adic valuations of the roots: the slopes of the checked
    :func:`polygon.newton_polygon`, right to left."""
    return newton_polygon(coeffs, l).slopes()[::-1]


def group_order(weil: WeilPolynomial) -> int:
    """f(1) > 0, the order of the group of rational points in the class: the
    non-real roots pair off with their conjugates, and f(0) = q^g gives the
    real roots -+sqrt q even multiplicity.  f(1) is the sum of the
    coefficients."""
    return sum(weil.coeffs)


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

    @property
    def tag(self) -> str:
        """Display name of the route, e.g. ``P2Q``."""
        return ROUTE_TAGS[self.kind]


def shape_of(weil: WeilPolynomial, factors: Factors) -> DispatchPlan:
    """The classification route of ``weil``, decided from the pattern of its
    ``factors`` as :func:`factor_weil` returns them, with the route's
    arguments.

    The route key at a prime l is the kind, the Newton hulls at l of the
    transformed ``factors``, b = v_l(``real_eigenvalue``) and r and s.
    Linear factors are always t -+ sqrt q at square q; a factor t + c has
    the real eigenvalue 1 + c.  Patterns outside the classified list give
    kind ``unsupported``.
    """
    q = weil.q
    sq = isqrt(q)
    mults = dict(factors)
    squarefree = all(m == 1 for m in mults.values())

    if sq * sq == q and set(mults) <= {(1, -sq), (1, sq)}:
        u = mults.get((1, -sq), 0)  # multiplicity of (t - sqrt q)
        w = mults.get((1, sq), 0)
        if u == 0 or w == 0:
            return DispatchPlan(kind="scalar", real_eigenvalue=1 + sq if w else 1 - sq,
                                sign="plus" if w else "minus", s=u + w)
        # no squarefree case: f(0) = (-1)^u q^g = q^g makes u, and so w, even
        # the majority factor (t -+ sqrt q) gives the cyclic parts
        return DispatchPlan(kind="cyclic_index", factors=((1, 0, -q),),
                            real_eigenvalue=1 - sq if u >= w else 1 + sq,
                            r=min(u, w), s=abs(u - w))
    if squarefree:
        return DispatchPlan(kind="separable", factors=(weil.coeffs,))

    degree = weil.degree
    quads = {f: m for f, m in mults.items() if len(f) == 3}
    linears = {f: m for f, m in mults.items() if len(f) == 2}
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
        rest = {f: m for f, m in mults.items() if f != lf}
        if all(m == 1 for m in rest.values()):
            cofactor: tuple[int, ...] = (1,)
            for f in rest:
                cofactor = poly_mul(cofactor, f)
            return DispatchPlan(kind="p_realsq", factors=(cofactor,), real_eigenvalue=1 + lf[1],
                                sign=sign, s=2)
        # the rest has degree 4 and no linear factor; not squarefree, it is one quadratic squared
        (qf,) = rest
        return DispatchPlan(kind="q2_realsq", factors=(qf,), real_eigenvalue=1 + lf[1],
                            sign=sign, r=2, s=2)
    return DispatchPlan(kind="unsupported")
