import itertools
import pickle
import random
import time
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

from weilgroup.classify import classify_all
from weilgroup.polygon import (
    PRIME_TEST_LIMIT,
    LatticePolygon,
    PolygonError,
    newton_hull,
    newton_polygon,
    transform_one_minus_t,
    valuation,
)
from weilgroup.weil import (
    BadDegreeError,
    NotIntegralError,
    NotMonicError,
    QNotPrimePowerError,
    RootModulusError,
    SizeLimitError,
    SymmetryViolatedError,
    WeilError,
    WeilPolynomial,
    _cubic_roots_real_within,
    _integer_root,
    _real_weil_polynomial,
    factor_weil,
    group_order,
    parse_and_validate,
    poly_mul,
    root_valuations,
    shape_of,
    split_prime_power,
    weil_polynomials,
)


def scalar_power(root, s):
    return tuple(comb(s, k) * (-root) ** k for k in range(s + 1))


P2Q_COEFFS = poly_mul(poly_mul((1, -1, 2), (1, -1, 2)), (1, 2, 2))
Q9_COEFFS = poly_mul(poly_mul((1, 3, 9), (1, 3, 9)), poly_mul((1, 3), (1, 3)))


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(7) == (7, 1)
    with pytest.raises(QNotPrimePowerError):
        split_prime_power(12)
    with pytest.raises(QNotPrimePowerError):
        split_prime_power(1)
    assert split_prime_power(2**30) == (2, 30)
    assert split_prime_power(3**13) == (3, 13)
    assert split_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert split_prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    with pytest.raises(QNotPrimePowerError):
        split_prime_power((2**31 - 1) * (2**29 - 3))
    with pytest.raises(QNotPrimePowerError):
        split_prime_power(2**20 * 3)
    with pytest.raises(SizeLimitError):
        split_prime_power(PRIME_TEST_LIMIT)
    # the strip by the primes up to 41, and the root search beyond them
    assert split_prime_power(43**2) == (43, 2)
    assert split_prime_power(2**81) == (2, 81)
    assert split_prime_power(3**51) == (3, 51)
    for q in (41 * 43, 2 * (2**61 - 1)):
        with pytest.raises(QNotPrimePowerError):
            split_prime_power(q)
    with pytest.raises(SizeLimitError):  # the size limit comes before the strip
        split_prime_power(2**82)

    limit = 2**16
    composite = bytearray(limit)
    expected = dict.fromkeys(range(1, limit))
    for p in range(2, limit):  # every prime power below the limit, from a sieve
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, limit, p))
            q, r = p, 1
            while q < limit:
                expected[q] = (p, r)
                q, r = q * p, r + 1

    def split(q):
        try:
            return split_prime_power(q)
        except QNotPrimePowerError:
            return None

    assert {q: split(q) for q in range(1, limit)} == expected


def test_validate_accepts_ordinary_elliptic():
    w = parse_and_validate([1, -1, 2], 2)
    assert (w.q, w.p, w.r, w.g) == (2, 2, 1, 1)


def test_validate_accepts_degree_six():
    w = parse_and_validate(P2Q_COEFFS, 2)
    assert w.g == 3


def test_validate_error_cases():
    with pytest.raises(NotMonicError):
        parse_and_validate([2, -1, 2], 2)
    with pytest.raises(BadDegreeError):
        parse_and_validate([1, -1, 2, 5], 2)
    with pytest.raises(SymmetryViolatedError):
        parse_and_validate([1, 0, -2], 2)
    with pytest.raises(RootModulusError):
        parse_and_validate([1, -3, 2], 2)
    with pytest.raises(QNotPrimePowerError):
        parse_and_validate([1, -1, 6], 6)


_REJECTIONS = [  # (coeffs, q, (p, r) or None, code, message), one input per path
    ((1, 0, 0, 0, 0, 0, 0), 3, None, "SymmetryViolated",
     "coeff(t^0) = 0 != q^3 * coeff(t^6) = 27"),
    ((1, 1, 0, 0, 0, 0, 27), 3, None, "SymmetryViolated",
     "coeff(t^1) = 0 != q^2 * coeff(t^5) = 9"),
    ((1, 1, 1, 0, 0, 9, 27), 3, None, "SymmetryViolated",
     "coeff(t^2) = 0 != q^1 * coeff(t^4) = 3"),
    ((1, -3, 2), 2, None, "RootModulus",  # a real root outside: h = x - 3
     "f = t^1 h(t + 2/t) with h = (1, -3), which has a root that is not real "
     "or not in [-2 sqrt q, 2 sqrt q]"),
    ((1, 0, 5, 0, 4), 2, None, "RootModulus",  # complex roots: h = x^2 + 1
     "f = t^2 h(t + 2/t) with h = (1, 0, 1), which has a root that is not real "
     "or not in [-2 sqrt q, 2 sqrt q]"),
    ((1, -3, 6, -12, 12, -12, 8), 2, None, "RootModulus",  # h = x^2 (x - 3)
     "f = t^3 h(t + 2/t) with h = (1, -3, 0, 0), which has a root that is not real "
     "or not in [-2 sqrt q, 2 sqrt q]"),
    ((2, -1, 2), 2, None, "NotMonic", "leading coefficient must be 1, got (2,)"),
    ((1, 0, 8, 0, 24, 0, 32, 0, 16), 2, None, "BadDegree",  # (t^2 + 2)^4
     "degree must be 2, 4 or 6, got 8"),
    ((1, -1, 6), 6, None, "QNotPrimePower", "q=6 is not a prime power"),
    ((1, 0, 2), 2, (3, 1), "QNotPrimePower", "q=2 is 2^1, not p=3, r=1"),
    ((1, 0, PRIME_TEST_LIMIT), PRIME_TEST_LIMIT, None, "SizeLimit",
     f"q={PRIME_TEST_LIMIT} is not below the size limit {PRIME_TEST_LIMIT}"),
    ((1, 0.5, 2), 2, None, "NotIntegral", "not all integers: (1, 0.5, 2)"),
]


@pytest.mark.parametrize("coeffs, q, split, code, message", _REJECTIONS)
def test_rejection_codes_and_messages_are_pinned(coeffs, q, split, code, message):
    """Each rejection path raises its named error with its exact message."""
    with pytest.raises(WeilError) as info:
        WeilPolynomial(coeffs, q, *(split or ()))
    assert (info.value.code, str(info.value)) == (code, message)


@pytest.mark.parametrize(
    "coeffs, q, error",
    [
        ((1, 0.5, 2), 2, NotIntegralError),  # not truncated to t^2 + 2
        ((1, -1.0, 2), 2, NotIntegralError),
        ((1, "-1", 2), 2, NotIntegralError),
        ((1, Fraction(-1), 2), 2, NotIntegralError),
        ((1, -1, 2), 2.0, QNotPrimePowerError),
        ((1, -1, 2), "2", QNotPrimePowerError),
        ((1, -1, 2), Fraction(2), QNotPrimePowerError),
        ((True, -1, 2), np.int64(2), None),  # bools and numpy integers are integers
        ((1, np.int32(-1), 2), 2, None),
    ],
)
def test_validate_takes_integers_only(coeffs, q, error):
    if error is None:
        w = parse_and_validate(coeffs, q)
        assert (w.coeffs, w.q) == ((1, -1, 2), 2)
        assert all(type(x) is int for x in w.coeffs + (w.q,))
    else:
        with pytest.raises(error) as info:
            parse_and_validate(coeffs, q)
        assert info.value.code == error.code


def test_hand_built_records_are_validated():
    """Every construction of a WeilPolynomial validates, with the named
    error parse_and_validate raises: no record holds a rejected input."""
    with pytest.raises(RootModulusError):
        WeilPolynomial((1, 5, 2), 2, 2, 1)
    with pytest.raises(SymmetryViolatedError):
        WeilPolynomial((1, 0, 0), 2, 2, 1)
    with pytest.raises(QNotPrimePowerError):
        WeilPolynomial((1, 0, 2), 2.0, 2, 1)
    with pytest.raises(QNotPrimePowerError, match="2 is 2\\^1, not p=3, r=1"):
        WeilPolynomial((1, 0, 2), 2, 3, 1)
    weil = parse_and_validate([1, 0, 2], 2)
    assert WeilPolynomial((1, 0, 2), 2) == WeilPolynomial([1, 0, 2], 2, 2, 1) == weil
    assert weil._replace(coeffs=(1, 1, 2)) == parse_and_validate([1, 1, 2], 2)
    with pytest.raises(RootModulusError):
        weil._replace(coeffs=(1, 5, 2))
    with pytest.raises(QNotPrimePowerError):
        weil._replace(q=3)
    with pytest.raises(SymmetryViolatedError):
        WeilPolynomial._make(((1, 0, 0), 2, 2, 1))
    # unpickling constructs too: a record built around the check is refused
    forged = tuple.__new__(WeilPolynomial, ((1, 5, 2), 2, 2, 1))
    with pytest.raises(RootModulusError):
        pickle.loads(pickle.dumps(forged))


def test_factor_p2q():
    w = parse_and_validate(P2Q_COEFFS, 2)
    factors = factor_weil(w)
    assert shape_of(w, factors).tag == "P2Q"
    assert dict(factors) == {(1, -1, 2): 2, (1, 2, 2): 1}
    product = (1,)
    for f, mult in factors:
        for _ in range(mult):
            product = poly_mul(product, f)
    assert product == P2Q_COEFFS


def test_factor_q2_realsq():
    w = parse_and_validate(Q9_COEFFS, 9)
    factors = factor_weil(w)
    assert shape_of(w, factors).tag == "Q2_RealSq"
    assert dict(factors) == {(1, 3): 2, (1, 3, 9): 2}


def test_factor_scalar_power():
    w = parse_and_validate(scalar_power(2, 6), 4)
    assert shape_of(w, factor_weil(w)).tag == "ScalarPower"


def test_factor_cyclic_index():
    coeffs = poly_mul(scalar_power(3, 4), scalar_power(-3, 2))
    w = parse_and_validate(coeffs, 9)
    plan = shape_of(w, factor_weil(w))
    assert plan.tag == "CyclicIndexPRQS"
    assert (plan.kind, plan.r, plan.s) == ("cyclic_index", 2, 2)
    assert plan.factors == ((1, 0, -9),)  # t^2 - q
    assert transform_one_minus_t(plan.factors[0]) == (1, -2, -8)  # roots 1 -+ 3
    assert plan.real_eigenvalue == -2  # the majority factor (t - 3): 1 - 3


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_real_root_powers_take_a_power_route(q):
    """(t - sqrt q)^u (t + sqrt q)^w has f(0) = (-1)^u q^g, so it is a Weil
    polynomial exactly when u and w are both even: 9 of the 15 pairs with
    u + w in {2, 4, 6}.  Each routes as a scalar or cyclic-index power, never
    as separable (u = w = 1 is refused)."""
    sq = isqrt(q)
    accepted = []
    for u, w in ((u, n - u) for n in (2, 4, 6) for u in range(n + 1)):
        coeffs = poly_mul(scalar_power(sq, u), scalar_power(-sq, w))
        if u % 2 or w % 2:
            with pytest.raises(SymmetryViolatedError):
                parse_and_validate(coeffs, q)
            continue
        weil = parse_and_validate(coeffs, q)
        kind = shape_of(weil, factor_weil(weil)).kind
        assert kind == ("scalar" if u == 0 or w == 0 else "cyclic_index"), (u, w)
        accepted.append((u, w))
    assert len(accepted) == 9


def test_factor_separable_and_p_square():
    sep = parse_and_validate(poly_mul((1, -1, 2), (1, 1, 2)), 2)
    assert shape_of(sep, factor_weil(sep)).tag == "Separable"
    psq = parse_and_validate(poly_mul((1, -1, 3), (1, -1, 3)), 3)
    assert shape_of(psq, factor_weil(psq)).tag == "PSquare_g2"


def test_factor_p_realsq():
    quartic = poly_mul((1, 3, 9), (1, -3, 9))  # separable Weil quartic over q=9
    parse_and_validate(quartic, 9)
    coeffs = poly_mul(quartic, poly_mul((1, -3), (1, -3)))
    w = parse_and_validate(coeffs, 9)
    plan = shape_of(w, factor_weil(w))
    assert plan.tag == "P_RealSq"
    assert plan.kind == "p_realsq"
    assert plan.sign == "minus"
    assert plan.factors == (quartic,)
    assert plan.real_eigenvalue == -2  # (t - 3)^2: 1 - 3


def test_unsupported_cube():
    coeffs = poly_mul(poly_mul((1, 1, 2), (1, 1, 2)), (1, 1, 2))
    w = parse_and_validate(coeffs, 2)
    assert shape_of(w, factor_weil(w)).tag == "Unsupported"


def test_every_factor_is_weil_valid():
    for coeffs, q in ((P2Q_COEFFS, 2), (Q9_COEFFS, 9)):
        for f, _mult in factor_weil(parse_and_validate(coeffs, q)):
            if len(f) > 2:
                parse_and_validate(f, q)


def test_root_valuations_examples():
    assert tuple(root_valuations((1, -1, 2), 2)) == (1, 0)
    assert tuple(root_valuations((1, -4, 5), 2)) == (0, 0)
    assert tuple(root_valuations((1, -3, 6), 3)) == (Fraction(1, 2), Fraction(1, 2))
    assert root_valuations([1, 2, 8], 2) == (Fraction(2), Fraction(1))


def test_root_valuations_merge_under_product():
    p, q = (1, -1, 2), (1, 2, 2)
    merged = sorted(
        tuple(root_valuations(p, 2)) + tuple(root_valuations(q, 2)), reverse=True
    )
    assert tuple(root_valuations(poly_mul(p, q), 2)) == tuple(merged)


def _newton_cases(seed, count, primes=(2, 3, 5)):
    """Seeded monic polynomials of degree 1..6 at l in ``primes``: half with
    random zero middle coefficients, half with l dividing every
    coefficient below the leading one."""
    rng = random.Random(seed)
    for k in range(count):
        l, d = rng.choice(primes), rng.randint(1, 6)
        tail = [rng.choice((1, -1)) * l ** rng.randint(0, 6) * rng.randint(1, 50) for _ in range(d)]
        if k % 2:
            tail = [c * l ** rng.randint(1, 3) for c in tail]
        else:
            tail[:-1] = [0 if rng.random() < 0.5 else c for c in tail[:-1]]
        yield (1, *tail), l


def test_root_valuations_match_newton_polygon():
    for coeffs, l in _newton_cases(seed=20, count=3000):
        expected = LatticePolygon(newton_hull(coeffs, l)).slopes()[::-1]
        assert root_valuations(coeffs, l) == expected, (coeffs, l)


def test_newton_hull_is_the_polygon_in_integers():
    """The unchecked hull's vertices are the checked Newton polygon's, as
    ints, with collinear points dropped, so equal root valuations give
    equal hulls; at small primes and at primes above 43^2, where primality
    takes Miller-Rabin."""
    profiles = {}
    for primes in ((2, 3, 5), (1000003, 2**31 - 1, 2**61 - 1)):
        for coeffs, l in _newton_cases(seed=21, count=1000, primes=primes):
            hull = newton_hull(coeffs, l)
            assert all(type(x) is int and type(y) is int for x, y in hull)
            assert hull == newton_polygon(coeffs, l).vertices, (coeffs, l)
            assert profiles.setdefault(root_valuations(coeffs, l), hull) == hull
    assert newton_hull((1, 2, 4, 8), 2) == ((0, 0), (3, 3))
    assert newton_hull((1, -3, 6), 3) == ((0, 0), (2, 1))
    assert newton_hull((1, 0, 0, 1000003**5), 1000003) == ((0, 0), (3, 5))


@pytest.mark.parametrize(
    "coeffs, l",
    [((0,), 2), ((2, 4), 2), ((1, 1, 4), 4), ((1, 2, 0), 2), ((1, 3), 1), ((-1, 2), 3),
     ((1, 1, 4), 1), ((1, 1, 4), 1000003 * 1000033)],
)
def test_root_valuations_rejects_like_newton_polygon(coeffs, l):
    with pytest.raises(PolygonError) as polygon_error:
        newton_polygon(coeffs, l)
    with pytest.raises(PolygonError) as valuations_error:
        root_valuations(coeffs, l)
    assert str(valuations_error.value) == str(polygon_error.value)


def test_quadratic_integer_root_matches_scan():
    """The discriminant answer for every monic quadratic with all roots
    real and in [-2 sqrt q, 2 sqrt q], q <= 64, against a scan over
    [-isqrt(4q), isqrt(4q)] for the smallest integer root."""
    seen = {"double": 0, "irrational": 0, "at_bound": 0}
    for q in range(2, 65):
        bound = isqrt(4 * q)
        for b in range(-2 * bound, 2 * bound + 1):
            for c in range(-4 * q, 4 * q + 1):
                if not _cubic_roots_real_within(b, c, 0, q):  # x h has the extra root 0
                    continue
                h = (1, b, c)
                scan = next((x for x in range(-bound, bound + 1) if x * x + b * x + c == 0), None)
                assert _integer_root(h, bound) == scan, (h, q)
                seen["double"] += b * b == 4 * c
                seen["irrational"] += scan is None
                seen["at_bound"] += scan == -bound or (scan is not None and -b - scan == bound)
    assert all(seen.values()), seen
    for q in (4, 9, 16, 25, 36, 49, 64):  # x^2 - 4q = (x - 2 sqrt q)(x + 2 sqrt q)
        assert _integer_root((1, 0, -4 * q), isqrt(4 * q)) == -isqrt(4 * q)


def test_group_order():
    assert group_order(parse_and_validate([1, -1, 2], 2)) == 2
    assert group_order(parse_and_validate(scalar_power(2, 6), 4)) == 1
    assert group_order(parse_and_validate(P2Q_COEFFS, 2)) == 20


def eval_poly(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_group_order_valuation_additivity():
    w = parse_and_validate(P2Q_COEFFS, 2)
    factors = factor_weil(w)
    for l in (2, 5):
        total = sum(
            mult * valuation(eval_poly(f, 1), l) for f, mult in factors
        )
        assert total == valuation(group_order(w), l)


def test_shape_of_examples():
    w = parse_and_validate(P2Q_COEFFS, 2)
    plan = shape_of(w, factor_weil(w))
    assert plan.kind == "p2q"
    assert plan.factors == ((1, -1, 2), (1, 2, 2))  # P, then Q
    assert (plan.real_eigenvalue, plan.r, plan.s) == (0, 2, 0)
    w = parse_and_validate(Q9_COEFFS, 9)
    plan = shape_of(w, factor_weil(w))
    assert (plan.kind, plan.sign, plan.r, plan.s) == ("q2_realsq", "plus", 2, 2)
    assert (plan.factors, plan.real_eigenvalue) == (((1, 3, 9),), 4)  # (t + 3)^2: 1 + 3
    w = parse_and_validate(scalar_power(-3, 6), 9)
    plan = shape_of(w, factor_weil(w))
    assert (plan.kind, plan.sign, plan.s) == ("scalar", "plus", 6)
    assert (plan.factors, plan.real_eigenvalue) == ((), 4)


# ---------------------------------------------------------------------------
# large q: exact validation and factoring, where a float root check fails


def weil_quadratic(a, q):
    return (1, -a, q)  # t^2 - a t + q


def traces_at_the_edge(e):
    """q = 2^e (e even) and the product of the Weil quadratics with traces
    2 sqrt q, 2 sqrt q - 1 and 2 sqrt q - 2."""
    q, s = 2**e, 2 ** (e // 2)
    return q, poly_mul(
        poly_mul(weil_quadratic(2 * s, q), weil_quadratic(2 * s - 1, q)),
        weil_quadratic(2 * s - 2, q),
    )


@pytest.mark.parametrize("e", [20, 24, 30])
def test_large_q_real_square_validates_and_factors(e):
    q, coeffs = traces_at_the_edge(e)
    s = 2 ** (e // 2)
    start = time.perf_counter()
    w = parse_and_validate(coeffs, q)
    factors = factor_weil(w)
    assert time.perf_counter() - start < 1.0
    assert shape_of(w, factors).tag == "P_RealSq"
    assert dict(factors) == {
        (1, -s): 2,
        weil_quadratic(2 * s - 1, q): 1,
        weil_quadratic(2 * s - 2, q): 1,
    }


@pytest.mark.parametrize("q", [9, 2**20, 3**12])
def test_boundary_traces_at_square_q(q):
    s = isqrt(q)
    for a in (2 * s, -2 * s):
        w = parse_and_validate(weil_quadratic(a, q), q)
        factors = factor_weil(w)
        assert dict(factors) == {(1, -a // 2): 2}
        assert shape_of(w, factors).tag == "ScalarPower"
        with pytest.raises(RootModulusError):
            parse_and_validate(weil_quadratic(a + (1 if a > 0 else -1), q), q)


@pytest.mark.parametrize("q", [2, 8, 2**21, 3**13])
def test_boundary_traces_at_nonsquare_q(q):
    # h = x^2 - 4q has the roots +-2 sqrt q exactly on the boundary
    coeffs = (1, 0, -2 * q, 0, q * q)
    start = time.perf_counter()
    w = parse_and_validate(coeffs, q)
    factors = factor_weil(w)
    assert time.perf_counter() - start < 1.0
    assert dict(factors) == {(1, 0, -q): 2}
    assert shape_of(w, factors).tag == "PSquare_g2"
    top = isqrt(4 * q)  # the largest integer trace, strictly inside
    for a in (top, -top):
        w = parse_and_validate(weil_quadratic(a, q), q)
        assert shape_of(w, factor_weil(w)).tag == "Separable"
        with pytest.raises(RootModulusError):
            parse_and_validate(weil_quadratic(a + (1 if a > 0 else -1), q), q)
    with pytest.raises(RootModulusError):
        parse_and_validate((1, 0, -2 * q - 1, 0, q * q), q)  # h = x^2 - 4q - 1


@pytest.mark.parametrize("q", [2**21, 3**13, 10007])
def test_real_square_of_nonsquare_q_times_quadratic(q):
    for a in (0, 1, -isqrt(4 * q)):
        quad = weil_quadratic(a, q)
        coeffs = poly_mul(poly_mul((1, 0, -q), (1, 0, -q)), quad)
        start = time.perf_counter()
        w = parse_and_validate(coeffs, q)
        factors = factor_weil(w)
        assert time.perf_counter() - start < 1.0
        assert dict(factors) == {(1, 0, -q): 2, quad: 1}
        assert shape_of(w, factors).tag == "P2Q"


def test_classify_size_limit():
    q, coeffs = traces_at_the_edge(20)
    result = classify_all(parse_and_validate(coeffs, q))
    order = group_order(result.weil)
    assert order < PRIME_TEST_LIMIT
    for l, groups in result.groups.items():
        assert order % l == 0
        assert all(sum(c) == valuation(order, l) for c in groups)
    q, coeffs = traces_at_the_edge(30)
    weil = parse_and_validate(coeffs, q)
    assert group_order(weil) >= PRIME_TEST_LIMIT
    with pytest.raises(SizeLimitError):
        classify_all(weil)


# ---------------------------------------------------------------------------
# exhaustive agreement with the float root check and the divisor box search
# that validated and factored Weil polynomials before the exact route


def _reference_squarefree_part(coeffs):
    """f / gcd(f, f') over Q."""

    def rem(a, b):
        while len(a) >= len(b):
            factor = a[0] / b[0]
            a = [x - factor * y for x, y in zip(a, b + [0] * len(a))][1:]
        while a and a[0] == 0:
            a.pop(0)
        return a

    d = len(coeffs) - 1
    a = [Fraction(c) for c in coeffs]
    b = [Fraction((d - i) * c) for i, c in enumerate(coeffs[:-1])]
    while b:
        a, b = b, rem(a, b)
    quot, rest = _divide(coeffs, [c / a[0] for c in a])
    assert not any(rest) and all(c.denominator == 1 for c in quot)
    return tuple(int(c) for c in quot)


def _reference_is_weil(coeffs, q):
    """Every root of the squarefree part has modulus sqrt(q) to 1e-9."""
    roots = np.roots(np.array(_reference_squarefree_part(coeffs), dtype=float))
    target = float(q) ** 0.5
    return all(abs(abs(root) - target) <= 1e-9 * target for root in roots)


def _circle_distance(polys, q):
    """Per monic f (all of one degree): how far its float root farthest off
    modulus sqrt(q) is, relative to sqrt(q).  Over 1%, f is not Weil: even
    a root of multiplicity 4 moves by well under 1% in floats at these
    sizes.  Within 1e-9, f is Weil, as :func:`_reference_is_weil` would
    find.  Only the f in between need the squarefree part."""
    polys = np.array(polys, dtype=float)
    n = polys.shape[1] - 1
    companion = np.zeros((len(polys), n, n))
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -polys[:, 1:]
    moduli = np.abs(np.linalg.eigvals(companion))
    return np.abs(moduli - q**0.5).max(axis=1) / q**0.5


def _divide(num, den):
    """Quotient and remainder of num by monic den."""
    num = list(num)
    for i in range(len(num) - len(den) + 1):
        for j in range(1, len(den)):
            num[i + j] -= num[i] * den[j]
    cut = len(num) - len(den) + 1
    return tuple(num[:cut]), num[cut:]


def _reference_factors(coeffs, q):
    """Strip t -+ sqrt(q), then every monic quadratic that can divide a Weil
    polynomial; what is left is irreducible.  Such a quadratic t^2 + u t + v
    has two roots of modulus sqrt(q), so |v| = q: v = q with
    |u| <= 2 sqrt(q), or v = -q with the roots +-sqrt(q), that is u = 0."""
    rest, factors = tuple(coeffs), {}
    s = isqrt(q)
    linears = [(1, -s), (1, s)] if s * s == q else []
    u_bound = isqrt(4 * q)
    quads = [(1, u, q) for u in range(-u_bound, u_bound + 1)] + [(1, 0, -q)]
    for cand in linears + quads:
        while len(rest) > len(cand) - 1:
            quot, remainder = _divide(rest, cand)
            if any(remainder):
                break
            factors[cand] = factors.get(cand, 0) + 1
            rest = quot
    if len(rest) > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


def _lifted_box(bounds, q):
    """t^g h(t + q/t) for every monic h in the box, h in lexicographic order:
    each lift is its prefix's lift times u = t^2 + q plus h_j t^j, one
    Horner step in u."""
    lifts = [(1,)]
    for j, bound in enumerate(bounds, start=1):
        steps = []
        for acc in lifts:
            times_u = tuple(x + q * y for x, y in zip(acc + (0, 0), (0, 0) + acc))
            steps += [times_u[:j] + (times_u[j] + hj,) + times_u[j + 1 :]
                      for hj in range(-bound, bound + 1)]
        lifts = steps
    return lifts


def test_exhaustive_small_q_agreement():
    """Every monic h with |coeff of x^(g-k)| <= C(g, k) (2 sqrt q)^k, the box
    that holds every real Weil polynomial, lifted to f = t^g h(t + q/t).
    The valid f are exactly the degree-2g part of the census, in its order."""
    valid = 0
    for q, g in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2),
                 (5, 1), (5, 2), (7, 1), (7, 2), (8, 1), (8, 2), (9, 1), (9, 2)]:
        bounds = [isqrt(comb(g, k) ** 2 * 4**k * q**k) for k in range(1, g + 1)]
        polys = _lifted_box(bounds, q)
        found = []
        for coeffs, off in zip(polys, _circle_distance(polys, q)):
            expected = off <= 1e-9 or (off <= 0.01 and _reference_is_weil(coeffs, q))
            try:
                weil = parse_and_validate(coeffs, q)
            except RootModulusError:
                assert not expected, coeffs
                continue
            assert expected, coeffs
            assert dict(factor_weil(weil)) == _reference_factors(coeffs, q), coeffs
            found.append(weil.coeffs)
        census = itertools.takewhile(lambda f: len(f) <= 2 * g + 1, weil_polynomials(q))
        assert found == [f for f in census if len(f) == 2 * g + 1], (q, g)
        valid += len(found)
    assert valid == 1379  # 435 at q <= 4, 944 at q in {5, 7, 8, 9} and g <= 2


def test_weil_polynomials_census():
    """The census has the 2 isqrt(4q) + 1 Weil quadratics t^2 - a t + q,
    a^2 <= 4q, first; its q <= 4 part (the classify digest's 2,753 classes)
    validates and repeats no class; it refuses a q that is not a prime power."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 243, 1024):
        quadratics = list(itertools.takewhile(lambda f: len(f) == 3, weil_polynomials(q)))
        assert quadratics == [(1, a, q) for a in range(-isqrt(4 * q), isqrt(4 * q) + 1)], q
    for q, total in ((2, 255), (3, 747), (4, 1751)):
        census = list(weil_polynomials(q))
        assert len(census) == len(set(census)) == total, q
        assert all(parse_and_validate(f, q).coeffs == f for f in census), q
    for q in (6, 1):
        with pytest.raises(QNotPrimePowerError):
            next(weil_polynomials(q))


def _smallest_root_by_scan(h, bound):
    return next((x for x in range(-bound, bound + 1) if eval_poly(h, x) == 0), None)


def test_cubic_integer_root_on_the_census():
    """The smallest integer root of the cubic h of every sextic of the
    q <= 4 census, against a scan of [-isqrt(4q), isqrt(4q)]."""
    cubics = 0
    for q in (2, 3, 4):
        bound = isqrt(4 * q)
        for f in weil_polynomials(q):
            if len(f) == 7:
                h = _real_weil_polynomial(f, q)
                assert _integer_root(h, bound) == _smallest_root_by_scan(h, bound), (h, q)
                cubics += 1
    assert cubics == 2533


def test_cubic_integer_root_with_three_integer_roots():
    """Every cubic (x - r1)(x - r2)(x - r3) with r1 <= r2 <= r3 in
    [-bound, bound], for the bounds isqrt(4q) of q <= 27 and q = 243: the
    roots sit at piece ends, on the critical points and at +-bound."""
    for bound in sorted({isqrt(4 * q) for q in range(2, 28)} | {isqrt(4 * 243)}):
        for roots in itertools.combinations_with_replacement(range(-bound, bound + 1), 3):
            h = poly_mul(poly_mul((1, -roots[0]), (1, -roots[1])), (1, -roots[2]))
            assert _integer_root(h, bound) == roots[0], (roots, bound)
