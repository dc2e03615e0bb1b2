import itertools
import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weilgroup.classify import classify_all
from weilgroup.oracle import smith_invariants
from weilgroup.polygon import (
    PRIME_TEST_LIMIT,
    LatticePolygon,
    PolygonError,
    _lower_hull,
    hodge_polygon,
    is_prime,
    newton_hull,
    newton_polygon,
    np_dominates_hp,
    transform_one_minus_t,
    valuation,
)
from weilgroup.weil import NotPrimeError, parse_and_validate


def verts(poly):
    return tuple((x, Fraction(y)) for x, y in poly.vertices)


def test_transform_fixed_point():
    assert transform_one_minus_t([1, -1, 2]) == (1, -1, 2)


def test_transform_square():
    assert transform_one_minus_t([1, 0, 0]) == (1, -2, 1)


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_transform_involution_deg2(b, c):
    coeffs = (1, b, c)
    assert transform_one_minus_t(transform_one_minus_t(coeffs)) == coeffs


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_transform_involution_any_degree(tail):
    coeffs = tuple([1] + tail)
    assert transform_one_minus_t(transform_one_minus_t(coeffs)) == coeffs


def _binomial_transform(coeffs):
    """(-1)^d P(1 - t) by expanding each (1 - t)^e with binomials (the
    expansion that preceded Horner's rule)."""
    d = len(coeffs) - 1
    out = [0] * (d + 1)  # out[m] multiplies t^m
    for k, ck in enumerate(coeffs):
        e = d - k
        for m in range(e + 1):
            out[m] += ck * comb(e, m) * (-1) ** m
    return tuple((-1) ** d * out[m] for m in range(d, -1, -1))


def test_transform_matches_binomial_expansion():
    rng = random.Random(14)
    for d in range(9):
        for _ in range(200):
            coeffs = (1, *(rng.randint(-10**6, 10**6) for _ in range(d)))
            assert transform_one_minus_t(coeffs) == _binomial_transform(coeffs), coeffs


def test_transform_rejects_non_monic():
    with pytest.raises(PolygonError):
        transform_one_minus_t([2, 1])


def test_newton_polygon_examples():
    p = newton_polygon([1, 2, 8], 2)
    assert verts(p) == ((0, 0), (1, 1), (2, 3))
    assert p.slopes() == (Fraction(1), Fraction(2))

    assert verts(newton_polygon([1, 0, -1], 2)) == ((0, 0), (2, 0))

    p = newton_polygon([1, -3, 6], 3)
    assert verts(p) == ((0, 0), (2, 1))
    assert p.slopes() == (Fraction(1, 2), Fraction(1, 2))


def test_newton_polygon_rejects_bad_input():
    with pytest.raises(PolygonError):
        newton_polygon([0], 2)
    with pytest.raises(PolygonError):
        newton_polygon([2, 4], 2)
    with pytest.raises(PolygonError):
        newton_polygon([1, 1, 4], 4)
    with pytest.raises(PolygonError):
        newton_polygon([1, 2, 0], 2)


def test_hodge_polygon_examples():
    assert verts(hodge_polygon((2, 1), 2)) == ((0, 0), (1, 1), (2, 3))
    assert verts(hodge_polygon((3, 0), 2)) == ((0, 0), (1, 0), (2, 3))
    assert verts(hodge_polygon((0,) * 6, 6)) == ((0, 0), (6, 0))


def test_hodge_polygon_rejects_overflow():
    with pytest.raises(PolygonError):
        hodge_polygon((1, 1, 1), 2)


def test_dominance_examples():
    np24 = newton_polygon([1, 2, 8], 2)  # slopes 1, 2
    assert np_dominates_hp(np24, hodge_polygon((3, 0), 2))
    assert np_dominates_hp(np24, hodge_polygon((2, 1), 2))
    np03 = newton_polygon([1, 1, 8], 2)  # slopes 0, 3
    assert not np_dominates_hp(np03, hodge_polygon((2, 1), 2))


def test_dominance_rejects_width_mismatch():
    with pytest.raises(PolygonError):
        np_dominates_hp(newton_polygon([1, 1, 2], 2), hodge_polygon((1,), 4))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    st.sampled_from([2, 3, 5]),
)
def test_slope_multiset_multiplicative(t1, t2, l):
    p = tuple([1] + t1)
    q = tuple([1] + t2)
    prod = poly_mul(p, q)
    if p[-1] == 0 or q[-1] == 0:
        return
    merged = sorted(newton_polygon(p, l).slopes() + newton_polygon(q, l).slopes())
    assert merged == sorted(newton_polygon(prod, l).slopes())


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_hodge_slopes_are_sorted_exponents(parts):
    c = tuple(sorted(parts, reverse=True))
    hp = hodge_polygon(c, len(c))
    assert hp.slopes() == tuple(sorted(c))


@given(st.lists(st.integers(-7, 7), min_size=2, max_size=2))
def test_cyclic_group_always_admissible(tail):
    coeffs = tuple([1] + tail)
    if coeffs[-1] == 0:
        return
    npoly = newton_polygon(coeffs, 2)
    total = npoly.total
    if total.denominator != 1:
        return
    cyclic = hodge_polygon((int(total),), npoly.width)
    assert np_dominates_hp(npoly, cyclic)


def test_polygon_invariants_enforced():
    bad = [
        (),  # no vertex
        ((0, 1), (1, 2)),  # does not start at (0, 0)
        ((0, 0), (1, 0), (1, 1)),  # x does not strictly increase
        ((0, 0), (1, 1), (2, 1)),  # slopes decrease
        ((0, 0), (1, 0), (2, 0)),  # collinear middle vertex
    ]
    for vertices in bad:
        with pytest.raises(PolygonError):
            LatticePolygon(vertices)
        with pytest.raises(PolygonError):  # _replace is checked too
            LatticePolygon(((0, 0), (1, 1)))._replace(vertices=vertices)
    with pytest.raises(PolygonError, match="integers"):
        LatticePolygon(((0, 0), (2, Fraction(1))))
    poly = LatticePolygon(((0, 0), (np.int64(2), True)))
    assert poly.vertices == ((0, 0), (2, 1))
    assert all(type(x) is int for v in poly.vertices for x in v)


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(-9, 3) == 2
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_valuation_by_repeated_squaring():
    """Every exponent up to 129 at units prime to l, and one huge exponent."""
    for l in (2, 3, 10):
        for e in range(130):
            for unit in (1, -7, 11):
                assert valuation(unit * l**e, l) == e, (unit, l, e)
    x = 2 * 3**200_000
    start = time.perf_counter()
    assert valuation(x, 3) == 200_000
    assert time.perf_counter() - start < 5  # one division per factor: ~15 s


def test_is_prime():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for n in range(2, limit):
        if sieve[n]:
            for m in range(n * n, limit, n):
                sieve[m] = False
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**29 - 3))
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)


@pytest.mark.parametrize(
    "func, args",
    [
        (newton_polygon, ([1, 2.5, 8], 2)),
        (transform_one_minus_t, ((1, 0.5, 2),)),
        (hodge_polygon, ((2.7,), 2)),
        (hodge_polygon, (("2",), 2)),
    ],
    ids=["newton-float", "transform-float", "hodge-float", "hodge-str"],
)
def test_polygon_entry_points_reject_non_integers(func, args):
    """A non-integer value raises PolygonError instead of being truncated."""
    with pytest.raises(PolygonError, match="integers"):
        func(*args)
    assert transform_one_minus_t((True, np.int64(0), 2)) == transform_one_minus_t((1, 0, 2))
    assert hodge_polygon((np.int32(2),), 2) == hodge_polygon((2,), 2)


def test_dominance_needs_integer_hodge_heights():
    """np_dominates_hp compares floors of the Newton heights with the Hodge
    heights, so a second polygon with a half-integer height is refused."""
    np24 = newton_polygon([1, 2, 8], 2)
    with pytest.raises(PolygonError, match="not a Hodge polygon"):
        np_dominates_hp(np24, LatticePolygon(((0, 0), (2, 3))))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda l: newton_polygon((1, 1), l), PolygonError),
        (lambda l: classify_all(parse_and_validate([1, 0, 2], 2), only_l=l), NotPrimeError),
        (lambda l: smith_invariants([[1, 0], [0, 4]], l), ValueError),
    ],
    ids=["newton_polygon", "classify_all", "smith_invariants"],
)
def test_prime_at_test_limit_raises_named_error(call, error):
    """An l that ``is_prime`` cannot decide raises the entry point's own
    error, naming the limit; ``is_prime`` itself still raises ValueError."""
    assert all(PRIME_TEST_LIMIT % p for p in range(2, 42))  # no small factor decides it
    with pytest.raises(error, match=f"l={PRIME_TEST_LIMIT} is not below the primality limit"):
        call(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError, match="primality limit"):
        is_prime(PRIME_TEST_LIMIT)


@pytest.mark.parametrize("l", [2, 3, 5, 2**61 - 1])
def test_newton_hull_from_the_last_unit_coefficient(l):
    """newton_hull is the lower hull of every nonzero point, for d = 0..6
    and every position j of the last coefficient prime to l: each
    coefficient left of j is 0, a unit or l times one, each right of j is
    0 (but the constant term) or l or l^2 times a unit."""
    rng = random.Random(l)

    def unit():
        return rng.choice((1, -1)) * (rng.randrange(1, min(l, 50)) + l * rng.randrange(3))

    for d in range(7):
        for j in range(d + 1):
            slots = [(None, 0, 1)] * max(j - 1, 0) + [(0,)] * (j > 0)
            slots += [(None, 1, 2)] * max(d - j - 1, 0) + [(1, 2)] * (j < d)
            for vs in itertools.product(*slots):
                coeffs = (1, *(0 if v is None else unit() * l**v for v in vs))
                points = [(i, valuation(c, l)) for i, c in enumerate(coeffs) if c]
                assert newton_hull(coeffs, l) == _lower_hull(points), (coeffs, l)
    assert newton_hull((1,), l) == ((0, 0),)
    assert newton_hull((1, l, 0), l) == ((0, 0), (1, 1))  # a zero constant term ends


@pytest.mark.parametrize(
    "x, l, message",
    [
        (0, 2, "valuation of zero"),
        (12, 1, "l >= 2"),
        (12, -3, "l >= 2"),
        (8.5, 2, "integers"),
        (12, 2.0, "integers"),
        ("8", 2, "integers"),
    ],
    ids=["zero", "l-one", "l-negative", "float-x", "float-l", "str-x"],
)
def test_valuation_raises_polygon_error(x, l, message):
    with pytest.raises(PolygonError, match=message):
        valuation(x, l)


def test_valuation_takes_integers_through_index():
    assert valuation(np.int64(24), np.int64(2)) == 3
    assert valuation(-9, np.int32(3)) == 2


def test_is_prime_at_the_limit_raises_polygon_error():
    with pytest.raises(PolygonError, match=f"not below the primality limit {PRIME_TEST_LIMIT}"):
        is_prime(PRIME_TEST_LIMIT)
