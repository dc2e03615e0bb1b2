import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, isqrt

import numpy as np
import pytest

import weilgroup.classify
from weilgroup.classify import (
    _prime_factors,
    _route_groups,
    admissible_exponents,
    classify_all,
    direct_sums,
    extensions,
)
from weilgroup.oracle import lr_coefficient, operator_group_oracle, smith_invariants
from weilgroup.partitions import merge_sorted, partitions_of
from weilgroup.polygon import (
    PRIME_TEST_LIMIT,
    LatticePolygon,
    PolygonError,
    _lower_hull,
    floor_heights,
    hodge_polygon,
    is_prime,
    newton_hull,
    newton_polygon,
    np_dominates_hp,
    valuation,
)
from weilgroup.polygon import transform_one_minus_t
from weilgroup.weil import (
    NotPrimeError,
    SizeLimitError,
    UnsupportedShapeError,
    factor_weil,
    group_order,
    parse_and_validate,
    poly_mul,
    shape_of,
    weil_polynomials,
)

# each child finishes in under 1.5 s: a wrong rule must fail the test, not hang it
CHILD_TIMEOUT_S = 60


def hull(profile):
    """The integer Newton hull whose slopes are the valuations in ``profile``."""
    heights = [0, *accumulate(sorted(map(Fraction, profile)))]
    vertices = _lower_hull(list(enumerate(heights)))
    assert all(y.denominator == 1 for _, y in vertices), profile
    return tuple((x, int(y)) for x, y in vertices)


def test_prime_factors():
    limit = 20_000
    spf = list(range(limit))  # smallest prime factor, by sieve
    for d in range(2, isqrt(limit - 1) + 1):
        if spf[d] == d:
            for m in range(d * d, limit, d):
                if spf[m] == m:
                    spf[m] = d

    def by_sieve(n):
        out = []
        while n > 1:
            out.append(spf[n])
            while n % out[-1] == 0:
                n //= out[-1]
        return out

    for n in range(1, limit):
        assert _prime_factors(n) == by_sieve(n)
    assert _prime_factors(9973 * 9967) == [9967, 9973]
    # trial division stops early, leaving a cofactor that is proven prime
    assert _prime_factors(2 * 997) == [2, 997]
    assert _prime_factors(4 * 991) == [2, 991]
    assert _prime_factors(991 * 1009) == [991, 1009]
    # the primes below 1000 run out: the cofactor goes to is_prime, then to rho
    assert _prime_factors(997 * 1009) == [997, 1009]
    assert _prime_factors(1009 * 1013) == [1009, 1013]
    assert _prime_factors(2 * 1000003) == [2, 1000003]
    assert _prime_factors(997**2) == [997]
    assert _prime_factors(2**20 * 991 * 997) == [2, 991, 997]
    assert _prime_factors(1023**2 * 1046530) == [2, 3, 5, 11, 31, 229, 457]
    assert _prime_factors((2**31 - 1) * (2**29 - 3)) == [2**29 - 3, 2**31 - 1]
    assert _prime_factors(7 * 1000003**2) == [7, 1000003]
    assert _prime_factors(2**61 - 1) == [2**61 - 1]
    # balanced 82-bit semiprime: the worst case for Pollard's rho below the limit
    assert _prime_factors(1818831969509 * 1818831970583) == [1818831969509, 1818831970583]
    assert _prime_factors(PRIME_TEST_LIMIT - 1) == [2, 3, 5, 127, 18778597, 858557454841]
    with pytest.raises(SizeLimitError):
        _prime_factors(PRIME_TEST_LIMIT)


def test_reducible_f1_is_split_by_its_factors_values(monkeypatch):
    """f = (t^2 - t + q)(t^2 + 1073 t + q) at the prime q = 1818831969509:
    f(1) = q (q + 1074) is a balanced 82-bit semiprime, and each factor's
    value at 1 splits it without Pollard's rho."""
    q = 1818831969509
    weil = parse_and_validate(poly_mul((1, -1, q), (1, 1073, q)), q)

    def no_rho(n):
        raise AssertionError(f"Pollard's rho called on {n}")

    monkeypatch.setattr(weilgroup.classify, "_rho_divisor", no_rho)
    groups = classify_all(weil).groups
    assert sorted(groups) == [q, q + 1074]
    for l, answer in groups.items():
        assert classify_all(weil, only_l=l).groups == {l: answer}


def scalar_power(root, s):
    return tuple(comb(s, k) * (-root) ** k for k in range(s + 1))


P2Q_COEFFS = poly_mul(poly_mul((1, -1, 2), (1, -1, 2)), (1, 2, 2))
Q9_COEFFS = poly_mul(poly_mul((1, 3, 9), (1, 3, 9)), poly_mul((1, 3), (1, 3)))


def test_admissible_exponents_examples():
    assert admissible_exponents(hull((2, 1, 0, 0))) == ((3, 0, 0, 0), (2, 1, 0, 0))
    assert admissible_exponents(hull((0, 0))) == ((0, 0),)
    half = Fraction(1, 2)
    assert admissible_exponents(hull((half, half))) == ((1, 0),)


def test_admissible_matches_operator_oracle():
    # the 2x2 sweep pins the orientation of the dominance condition
    for slopes in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                   (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(3, 2), Fraction(3, 2))):
        expected = set(admissible_exponents(hull(slopes)))
        assert set(operator_group_oracle(slopes, 2, 4)) == expected


def groups_at(coeffs, q, l, kind):
    """classify_all's groups at the single prime l, for a class of the given route."""
    result = classify_all(parse_and_validate(coeffs, q), only_l=l)
    assert result.plan.kind == kind
    return result.groups[l]


def test_groups_separable_examples():
    assert groups_at((1, -1, 2), 2, 2, "separable") == ((1, 0),)
    assert groups_at((1, -1, 2), 2, 7, "separable") == ((0, 0),)


def test_p_square_profiles():
    assert direct_sums(hull((1, 1)), 2, 0, 0) == (
        (2, 2, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1)
    )
    assert direct_sums(hull((1, 0)), 2, 0, 0) == ((1, 1, 0, 0),)
    half = Fraction(1, 2)
    assert direct_sums(hull((half, half)), 2, 0, 0) == ((1, 1, 0, 0),)


def test_groups_p_square_polynomial():
    # transform of t^2 - t + 2 has valuations (1, 0) at l = 2
    p_square = poly_mul((1, -1, 2), (1, -1, 2))
    assert groups_at(p_square, 2, 2, "p_square") == ((1, 1, 0, 0),)


def test_cyclic_index_profiles():
    assert direct_sums(hull((1, 0)), 2, 1, 2) == ((1, 1, 1, 1, 0, 0),)
    assert direct_sums(hull((1, 0)), 0, 2, 3) == ((2, 2, 2),)
    assert direct_sums((), 0, 2, 3) == ((2, 2, 2),)  # the scalar route has no hull


def test_groups_cyclic_index_polynomial():
    # (t - 3)^4 (t + 3)^2 at q = 9: on the operator side P = t^2 - 2t - 8 =
    # (t - 4)(t + 2) and Q = t + 2 divides it; at l = 2 the slopes of P are
    # (1, 2), so the pair profile is (2, 1)
    coeffs = poly_mul(scalar_power(3, 4), scalar_power(-3, 2))
    assert groups_at(coeffs, 9, 2, "cyclic_index") == (
        (3, 3, 1, 1, 0, 0),
        (3, 2, 1, 1, 1, 0),
        (2, 2, 1, 1, 1, 1),
    )


def test_groups_scalar_examples():
    assert groups_at(scalar_power(-3, 6), 9, 2, "scalar") == ((2,) * 6,)
    assert groups_at(scalar_power(2, 2), 4, 3, "scalar") == ((0, 0),)
    assert groups_at(scalar_power(-2, 2), 4, 7, "scalar") == ((0, 0),)


def test_case1_worked_example():
    assert groups_at(P2Q_COEFFS, 2, 2, "p2q") == ((1, 1, 0, 0, 0, 0),)
    assert groups_at(P2Q_COEFFS, 2, 5, "p2q") == ((1, 0, 0, 0, 0, 0),)


def test_case1_contains_direct_sums():
    m, n = hull((2, 1)), hull((1, 1))
    out = set(extensions(direct_sums(m, 2, 0, 0), admissible_exponents(n)))
    for p1 in admissible_exponents(m):
        for p2 in admissible_exponents(m):
            for b in admissible_exponents(n):
                assert merge_sorted(p1, p2, b) in out


def test_case3_worked_example():
    assert groups_at(Q9_COEFFS, 9, 2, "q2_realsq") == ((2, 2, 0, 0, 0, 0),)


def test_case2_case3_contain_direct_sums():
    for m in ((2, 1, 1, 0), (1, 1, 0, 0)):
        for b in (0, 1, 2):
            out = set(extensions(admissible_exponents(hull(m)), ((b, b),)))
            for a in (m,):  # the profile itself is always a witness
                assert merge_sorted(a, (b, b)) in out
    for m in ((1, 1), (2, 0)):
        for b in (0, 1, 2):
            out = set(extensions(direct_sums(hull(m), 2, 0, 0), ((b, b),)))
            for p1 in admissible_exponents(hull(m)):
                for p2 in admissible_exponents(hull(m)):
                    assert merge_sorted(p1, p2, (b, b)) in out


@pytest.mark.parametrize("l", [-1, 0, 1])
def test_valuation_rejects_l_below_two(l):
    # runs before the route test below: a valuation that loops at l = +-1
    # would make it hang instead of fail
    with pytest.raises(ValueError, match="l >= 2"):
        valuation(12, l)


@pytest.mark.parametrize(
    "coeffs, kind",
    [
        pytest.param(scalar_power(3, 2), "scalar", id="scalar"),
        pytest.param(poly_mul(poly_mul((1, 3, 9), (1, -3, 9)), scalar_power(3, 2)), "p_realsq",
                     id="case2"),
        pytest.param(Q9_COEFFS, "q2_realsq", id="case3"),
        pytest.param(poly_mul(scalar_power(3, 4), scalar_power(-3, 2)), "cyclic_index",
                     id="cyclic_index"),
    ],
)
@pytest.mark.parametrize("l", [-1, 0, 1, 4])
def test_groups_wrappers_reject_non_prime_l(coeffs, kind, l):
    """classify_all with only_l rejects a non-prime l on each of these
    routes at q = 9 with NotPrimeError, a WeilError of code NotPrime that
    carries the polygon layer's message, before any valuation."""
    w = parse_and_validate(coeffs, 9)
    assert shape_of(w, factor_weil(w)).kind == kind
    with pytest.raises(NotPrimeError) as route_error:
        classify_all(w, only_l=l)
    assert route_error.value.code == "NotPrime"
    with pytest.raises(PolygonError) as polygon_error:
        newton_polygon((1, 1), l)
    assert str(route_error.value) == str(polygon_error.value) == f"l={l} is not prime"


def test_case2_trivial_profiles():
    assert extensions(admissible_exponents(hull((0, 0, 0, 0))), ((0, 0),)) == ((0,) * 6,)
    assert extensions(admissible_exponents(hull((0, 0, 0, 0))), ((2, 2),)) == ((2, 2, 0, 0, 0, 0),)


def test_degeneration_case2_to_separable():
    for total in range(5):
        for m in partitions_of(total, 4):
            got = extensions(admissible_exponents(hull(m)), ((0, 0),))
            want = tuple(sorted(
                {c + (0, 0) for c in admissible_exponents(hull(m))},
                reverse=True,
            ))
            assert got == want, m


def test_degeneration_case3_to_p_square():
    for total in range(5):
        for m in partitions_of(total, 2):
            got = extensions(direct_sums(hull(m), 2, 0, 0), ((0, 0),))
            want = tuple(sorted(
                {c + (0, 0) for c in direct_sums(hull(m), 2, 0, 0)},
                reverse=True,
            ))
            assert got == want, m


def test_case1_matches_tableau_oracle_on_grid():
    for m_tot in range(4):
        for m in partitions_of(m_tot, 2):
            for n_tot in range(4):
                for n in partitions_of(n_tot, 2):
                    b_wit = admissible_exponents(hull(n))
                    machine = set(extensions(direct_sums(hull(m), 2, 0, 0), b_wit))
                    a_wit = {
                        merge_sorted(p1, p2)
                        for p1 in admissible_exponents(hull(m))
                        for p2 in admissible_exponents(hull(m))
                    }
                    total = 2 * sum(m) + sum(n)
                    oracle = {
                        c
                        for c in partitions_of(int(total), 6)
                        if any(
                            lr_coefficient(a, b, c) > 0
                            for a in a_wit
                            for b in b_wit
                        )
                    }
                    assert machine == oracle, (m, n)


def test_classify_all_worked_example():
    w = parse_and_validate(P2Q_COEFFS, 2)
    result = classify_all(w)
    assert result.groups == {
        2: ((1, 1, 0, 0, 0, 0),),
        5: ((1, 0, 0, 0, 0, 0),),
    }
    assert any("residue characteristic" in n for n in result.notices)


def test_classify_all_scalar_power_is_empty():
    w = parse_and_validate(scalar_power(2, 6), 4)
    assert classify_all(w).groups == {}


def test_classify_all_explicit_l():
    w = parse_and_validate(P2Q_COEFFS, 2)
    assert classify_all(w, only_l=7).groups == {7: ((0,) * 6,)}
    with pytest.raises(ValueError):
        classify_all(w, only_l=4)


def test_classify_all_unsupported():
    coeffs = poly_mul(poly_mul((1, 1, 2), (1, 1, 2)), (1, 1, 2))
    w = parse_and_validate(coeffs, 2)
    with pytest.raises(UnsupportedShapeError):
        classify_all(w)


def test_classify_all_scalar_dispatch():
    w = parse_and_validate(scalar_power(-3, 6), 9)  # (t+3)^6, f(1) = 4^6
    result = classify_all(w)
    assert result.plan.kind == "scalar"
    assert result.groups == {2: ((2, 2, 2, 2, 2, 2),)}


def test_classify_all_cyclic_index_dispatch():
    coeffs = poly_mul(scalar_power(3, 4), scalar_power(-3, 2))
    w = parse_and_validate(coeffs, 9)  # (t-3)^4 (t+3)^2, f(1) = 2^8
    result = classify_all(w)
    assert result.plan.kind == "cyclic_index"
    assert result.groups == {
        2: ((3, 3, 1, 1, 0, 0), (3, 2, 1, 1, 1, 0), (2, 2, 1, 1, 1, 1)),
    }


def test_classify_all_p_realsq_dispatch():
    quartic = poly_mul((1, 3, 9), (1, -3, 9))
    coeffs = poly_mul(quartic, poly_mul((1, -3), (1, -3)))
    w = parse_and_validate(coeffs, 9)  # f(1) = 91 * 4 = 2^2 * 7 * 13
    result = classify_all(w)
    assert result.plan.kind == "p_realsq"
    assert set(result.groups) == {2, 7, 13}
    for l, groups in result.groups.items():
        total = valuation(group_order(w), l)
        assert all(sum(c) == total for c in groups)


def _reference_groups(result, l):
    """Memo-free groups of one class at l: checked Newton hulls of factors read
    off the factorization and q alone, newton_polygon(transform_one_minus_t(...)).

    Only the route kind comes from the plan; P, Q, the real eigenvalue
    1 + c of a factor t + c, and every width and multiplicity are derived
    here."""
    def profile(f):
        return newton_polygon(transform_one_minus_t(f), l).vertices

    w, kind = result.weil, result.plan.kind
    factors = dict(factor_weil(w))
    linears = {f: m for f, m in factors.items() if len(f) == 2}
    rest = [f for f in factors if len(f) > 2]
    if kind == "separable":
        return admissible_exponents(profile(w.coeffs))
    if kind == "p_square":
        (P,) = rest
        return direct_sums(profile(P), 2, 0, 0)
    if kind == "p2q":
        (P,) = [f for f in rest if factors[f] == 2]
        (Q,) = [f for f in rest if factors[f] == 1]
        return extensions(direct_sums(profile(P), 2, 0, 0), admissible_exponents(profile(Q)))
    # the majority real factor t + c, with 1 - Frobenius acting by 1 + c
    (c, u), *minority = sorted(((f[1], m) for f, m in linears.items()), key=lambda cm: -cm[1])
    b = valuation(1 + c, l)
    if kind == "p_realsq":
        return extensions(admissible_exponents(profile(reduce(poly_mul, rest))), ((b, b),))
    if kind == "q2_realsq":
        (Q,) = rest
        return extensions(direct_sums(profile(Q), 2, 0, 0), ((b, b),))
    if kind == "scalar":
        return ((b,) * u,)
    assert kind == "cyclic_index"
    ((_, v),) = minority
    sq = math.isqrt(w.q)  # 1 - t has the roots 1 -+ sqrt q on t^2 - q
    ops = poly_mul((1, sq - 1), (1, -sq - 1))
    return direct_sums(newton_polygon(ops, l).vertices, v, b, u - v)


def _route_corpus():
    """Products of Weil quadratics t^2 + a t + q, squared or not, and of
    (t -+ sqrt q)^2 at square q, then (t - sqrt q)^u (t + sqrt q)^w: every
    supported route.  Last, one class whose route key collides
    with another route's."""
    for q in (2, 3, 4, 9):
        quads = [(1, a, q) for a in range(-4, 5) if a * a < 4 * q][::2]
        sq = math.isqrt(q)
        reals = [(1, -sq), (1, sq)] if sq * sq == q else []
        for i, p1 in enumerate(quads):
            yield q, p1
            yield q, poly_mul(p1, p1)
            for p2 in quads[i + 1 :]:
                yield q, poly_mul(p1, p2)
                yield q, poly_mul(poly_mul(p1, p1), p2)
                yield q, poly_mul(poly_mul(p2, p2), p1)
                for r in reals:
                    yield q, poly_mul(poly_mul(p1, p2), poly_mul(r, r))
            for r in reals:
                yield q, poly_mul(poly_mul(p1, p1), poly_mul(r, r))
    for q in (4, 9, 16):  # symmetry needs u and w even
        sq = math.isqrt(q)
        for u in range(0, 7, 2):
            for w in range(0, 7 - u, 2):
                if u + w:
                    yield q, poly_mul(scalar_power(sq, u), scalar_power(-sq, w))
    # at l = 3 its route key equals, in all but the kind, the l = 2 key of
    # (t - 3)^4 (t + 3)^2 at q = 9, and their groups differ
    yield 25, poly_mul(poly_mul((1, 1, 25), (1, 1, 25)), poly_mul((1, 5), (1, 5)))


def test_dispatch_matches_reference():
    """classify_all answers each prime from a bounded memo keyed on integer
    Newton hulls; the memo-free reference, from checked profiles, must give
    the same groups per prime."""
    seen = set()
    for q, coeffs in _route_corpus():
        w = parse_and_validate(coeffs, q)
        result = classify_all(w)
        for l, groups in result.groups.items():
            assert groups == _reference_groups(result, l), (coeffs, q, l)
        seen.add((result.plan.kind, q if result.plan.kind.endswith("realsq") else None))
    assert {"separable", "p_square", "p2q", "scalar", "cyclic_index"} <= {
        kind for kind, _ in seen
    }
    for kind in ("p_realsq", "q2_realsq"):
        assert {(kind, 4), (kind, 9)} <= seen
    assert _route_groups.cache_info().hits > 0
    assert _route_groups.cache_info().maxsize is not None


def test_classify_does_not_import_scipy():
    """The package imports no scipy, in classification or anywhere else."""
    script = (
        "import sys, weilgroup\n"
        "w = weilgroup.parse_and_validate([1, 0, 3, 2, 6, 0, 8], 2)\n"
        "assert weilgroup.classify_all(w).groups\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    assert out.stdout.strip() == "False"


def test_sextic_corpus_script_runs():
    """scripts/classify_sextic_corpus.py classifies a few classes and prints
    each one's shape tag."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "classify_sextic_corpus.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, script, "--limit", "5"], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert "shape=" in out.stdout


def _fraction_admissible_exponents(profile, length):
    """``admissible_exponents`` as it was written on a descending Fraction
    profile, with the ceilings of its prefix sums: the reference for the
    integer version on hulls."""
    vals = sorted((Fraction(v) for v in profile), reverse=True)
    if len(vals) > length:
        raise ValueError(f"profile longer than ambient length {length}")
    vals += [Fraction(0)] * (length - len(vals))
    total_f = sum(vals, Fraction(0))
    if total_f.denominator != 1:
        raise ValueError(f"profile total {total_f} is not an integer")
    total = int(total_f)
    # an integer partial sum is at least a prefix sum iff it is at least its ceiling
    ceilings = [math.ceil(acc) for acc in accumulate(vals)]

    out = []

    def rec(k, remaining, bound, acc_sum, chosen):
        if k == length:
            if remaining == 0:
                out.append(tuple(chosen))
            return
        lo = -(-remaining // (length - k))  # ceil to keep room for the rest
        for x in range(min(bound, remaining), lo - 1, -1):
            new_sum = acc_sum + x
            if new_sum < ceilings[k]:
                break  # x decreasing: smaller x only gets worse
            chosen.append(x)
            rec(k + 1, remaining - x, x, new_sum, chosen)
            chosen.pop()

    rec(0, total, total, 0, [])
    return tuple(sorted(set(out), reverse=True))


def _value_at(poly, x):
    """The exact Fraction height of ``poly`` at x."""
    for (x1, y1), (x2, y2) in zip(poly.vertices, poly.vertices[1:]):
        if x <= x2:
            return y1 + Fraction(y2 - y1) * (x - x1) / (x2 - x1)
    return Fraction(poly.vertices[-1][1])


def _value_at_dominates(np_poly, hp_poly):
    """``np_dominates_hp`` as it was written: equal totals and the exact
    heights of np at or above those of hp at every integer x."""
    return np_poly.total == hp_poly.total and all(
        _value_at(np_poly, x) >= _value_at(hp_poly, x) for x in range(np_poly.width + 1)
    )


def _integer_hulls(max_width, max_total):
    """Every integer lower hull from (0, 0) of width <= max_width and total
    <= max_total with slopes >= 0: every Newton hull of that size."""
    def extend(vertices):
        yield vertices
        x, y = vertices[-1]
        x0, y0 = vertices[-2] if len(vertices) > 1 else (x - 1, y + 1)  # slope -1 bounds nothing
        for x2 in range(x + 1, max_width + 1):
            for y2 in range(y, max_total + 1):
                if (y2 - y) * (x - x0) > (y - y0) * (x2 - x):  # slopes strictly increase
                    yield from extend(vertices + ((x2, y2),))
    return extend(((0, 0),))


def test_integer_dominance_matches_fraction_reference():
    """On every integer Newton hull of width <= 6 and total <= 6, the one
    floor routine gives the floors of the exact heights, and both integer
    verdicts match their Fraction references: ``admissible_exponents``
    against the profile's prefix-sum ceilings, ``np_dominates_hp`` against
    the exact heights, on every Hodge polygon of matching width and total."""
    count = 0
    for vertices in _integer_hulls(6, 6):
        npoly = LatticePolygon(vertices)
        width, total = npoly.width, npoly.total
        assert floor_heights(vertices) == [math.floor(_value_at(npoly, x)) for x in range(width + 1)]
        admissible = admissible_exponents(vertices)
        assert admissible == _fraction_admissible_exponents(npoly.slopes(), width), vertices
        for c in partitions_of(total, width):
            hp = hodge_polygon(c, width)
            verdict = np_dominates_hp(npoly, hp)
            assert verdict == _value_at_dominates(npoly, hp) == (c in admissible), (vertices, c)
        count += 1
    assert count == 429  # as many as the distinct lower hulls of all height tuples in [0, 6]


@pytest.mark.parametrize("l", [2.0, 3.0, 7.0, "2", Fraction(2)])
def test_non_integer_l_is_not_prime(l):
    """A non-integer l is refused as not prime at every entry point that
    takes one, instead of answering under a float key or dividing the
    coefficients by a float; numpy integers pass as ints."""
    assert not is_prime(l)
    w = parse_and_validate(P2Q_COEFFS, 2)
    with pytest.raises(ValueError, match=f"^l={l} is not prime$"):
        classify_all(w, only_l=l)
    with pytest.raises(PolygonError, match=f"^l={l} is not prime$"):
        newton_polygon([1, 0, 2 * 3**40 + 1], l)
    with pytest.raises(ValueError, match=f"^l={l} is not prime$"):
        smith_invariants([[1, 0], [0, 4]], l)
    with pytest.raises(ValueError, match="integers"):
        smith_invariants([[1.5, 0], [0, 4]], 2)
    groups = classify_all(w, only_l=np.int64(2)).groups
    assert groups == {2: ((1, 1, 0, 0, 0, 0),)} and type(next(iter(groups))) is int
    assert newton_polygon([1, 0, 2 * 3**40 + 1], np.int64(3)).total == 0


def test_classify_answers_are_pinned(reduce_digest):
    """The plan, groups and notices (or error code) of every q-Weil class at
    q <= 4, g <= 3 (2,753 classes, through every Newton hull, cubic root
    and cokernel kernel) hash to the ``classify`` digest of
    scripts/reduce_digest.py."""
    digest = reduce_digest._digest(reduce_digest.FAMILIES["classify"]())
    assert digest == "c5704ffc9823e18fb03b78ec646e1d05dc3e1c2fa8aae4642ac3a3efd69c8e1d"


def test_primes_dividing_f1_once_need_no_route():
    """For every (class, l) of the q <= 4 census with l dividing f(1)
    exactly once, the route that ``classify_all`` skips for it answers
    Z/l: ``_route_groups`` on the class's key at l is ((1, 0, ..., 0),),
    and so is the classification."""
    checked = 0
    for q in (2, 3, 4):
        for coeffs in weil_polynomials(q):
            weil = parse_and_validate(coeffs, q)
            plan = shape_of(weil, factor_weil(weil))
            if plan.kind == "unsupported":
                continue
            order = group_order(weil)
            once = [l for l in _prime_factors(order) if order % (l * l)]
            if not once:
                continue
            ops = [transform_one_minus_t(f) for f in plan.factors]
            cyclic = ((1,) + (0,) * (weil.degree - 1),)
            groups = classify_all(weil).groups
            for l in once:
                hulls = tuple(newton_hull(op, l) for op in ops)
                b = valuation(plan.real_eigenvalue, l) if plan.real_eigenvalue else 0
                assert _route_groups(plan.kind, hulls, b, plan.r, plan.s) == cyclic, (coeffs, q, l)
                assert groups[l] == cyclic
                checked += 1
    assert checked == 3534  # of the 4,799 (class, l) entries of the 2,699 supported classes


def test_every_answer_lies_between_the_diagonal_group_and_the_dominance_set():
    """The sandwich referee over the q <= 4 census, at every prime l of each
    answer, l = p included.  Upper: every group dominates the Newton
    polygon of f(1 - t) at l, the Newton-above-Hodge condition that every
    class meets.  Lower: the diagonal group occurs.  It is the cokernel of
    1 - A0 for the semisimple integer matrix A0 with m companion matrices
    C_h for each factor h^m of f, and coker(1 - C_h) = Z/h(1): so it
    repeats v_l(h(1)) m times for each h^m, padded with zeros to 2g."""
    classes = entries = at_p = 0
    for q in (2, 3, 4):
        for coeffs in weil_polynomials(q):
            weil = parse_and_validate(coeffs, q)
            try:
                groups = classify_all(weil).groups
            except UnsupportedShapeError:
                continue
            classes += 1
            op = transform_one_minus_t(weil.coeffs)
            factors = factor_weil(weil)
            for l, answer in groups.items():
                dominance = set(admissible_exponents(newton_hull(op, l)))
                assert dominance.issuperset(answer), (coeffs, q, l)
                diagonal = [valuation(sum(h), l) for h, m in factors for _ in range(m)]
                diagonal += [0] * (weil.degree - len(diagonal))
                assert tuple(sorted(diagonal, reverse=True)) in answer, (coeffs, q, l)
                entries += 1
                at_p += l == weil.p
    assert (classes, entries, at_p) == (2699, 4799, 1296)


# ---------------------------------------------------------------------------
# the answer memo


def _counted(monkeypatch, name):
    """Calls of ``weilgroup.classify.<name>``, recorded from now on."""
    calls = []
    original = getattr(weilgroup.classify, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(weilgroup.classify, name, counted)
    return calls


def test_repeated_request_is_served_from_the_answer_memo(monkeypatch):
    """An equal record asked again gets an equal answer, in a fresh groups
    dict, without factoring f or transforming a plan factor again."""
    factored = _counted(monkeypatch, "factor_weil")
    transformed = _counted(monkeypatch, "transform_one_minus_t")
    first = classify_all(parse_and_validate(P2Q_COEFFS, 2))
    assert (len(factored), len(transformed)) == (1, 2)  # cold: 4 | f(1) = 20 takes the p2q route
    second = classify_all(parse_and_validate(P2Q_COEFFS, 2))
    assert second == first and second.groups is not first.groups
    assert (len(factored), len(transformed)) == (1, 2)


def test_mutating_an_answer_changes_no_later_answer():
    w = parse_and_validate(P2Q_COEFFS, 2)
    expected = {2: ((1, 1, 0, 0, 0, 0),), 5: ((1, 0, 0, 0, 0, 0),)}
    for _ in range(2):  # the answer of a miss, then of a hit
        result = classify_all(w)
        assert result.groups == expected
        result.groups.clear()
        result.groups[3] = ((1, 0, 0, 0, 0, 0),)
    assert classify_all(w).groups == expected


def test_answer_memo_keeps_each_only_l_apart():
    w = parse_and_validate(P2Q_COEFFS, 2)
    full = classify_all(w).groups
    assert classify_all(w, only_l=5).groups == {5: full[5]}
    assert classify_all(w, only_l=7).groups == {7: ((0,) * 6,)}
    with pytest.raises(NotPrimeError):
        classify_all(w, only_l=4)
    assert classify_all(w).groups == full


def test_answer_memo_keys_are_typed():
    """``only_l=2.0`` and a plain tuple compare equal to keys answered
    before, yet each still fails as it does cold."""
    w = parse_and_validate(P2Q_COEFFS, 2)
    assert classify_all(w, only_l=2).groups == {2: ((1, 1, 0, 0, 0, 0),)}
    with pytest.raises(NotPrimeError, match=r"^l=2\.0 is not prime$"):
        classify_all(w, only_l=2.0)
    classify_all(w)
    with pytest.raises(AttributeError):  # a plain tuple is not a record
        classify_all(tuple(w))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after_only_l_2"])
def test_unhashable_only_l_is_not_prime(warm):
    w = parse_and_validate(P2Q_COEFFS, 2)
    if warm:
        classify_all(w, only_l=2)
    with pytest.raises(NotPrimeError, match=r"^l=\[2\] is not prime$"):
        classify_all(w, only_l=[2])


P3_COEFFS = poly_mul(poly_mul((1, 1, 2), (1, 1, 2)), (1, 1, 2))  # (t^2 + t + 2)^3, unsupported


@pytest.mark.parametrize("only_l", [4, 2.0, [2]], ids=["composite", "float", "list"])
def test_unsupported_shape_is_raised_before_only_l_is_checked(only_l):
    w = parse_and_validate(P3_COEFFS, 2)
    with pytest.raises(UnsupportedShapeError):
        classify_all(w, only_l=only_l)


def test_unsupported_class_raises_on_every_call():
    """Errors are not memoised: each call raises, and the memo stays empty."""
    w = parse_and_validate(P3_COEFFS, 2)
    for only_l in (None, None, 2, 2):
        with pytest.raises(UnsupportedShapeError):
            classify_all(w, only_l=only_l)
    assert weilgroup.classify._answers.cache_info().currsize == 0
