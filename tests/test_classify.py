import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from weilgroup.classify import (
    _prime_factors,
    _route_groups,
    admissible_exponents,
    case1_groups_from_profiles,
    case2_groups_from_profile,
    case3_groups_from_profile,
    classify_all,
    cyclic_index_groups_from_profile,
    groups_case1,
    groups_case2,
    groups_case3,
    groups_cyclic_index,
    groups_p_square,
    groups_scalar,
    groups_separable,
    p_square_groups_from_profile,
    quadratic_pairs,
    separable_groups_from_profile,
)
from weilgroup.oracle import lr_coefficient, operator_group_oracle
from weilgroup.partitions import merge_sorted, partitions_of
from weilgroup.polygon import (
    PRIME_TEST_LIMIT,
    hodge_polygon,
    newton_polygon,
    np_dominates_hp,
    valuation,
)
from weilgroup.polygon import transform_one_minus_t
from weilgroup.weil import (
    SizeLimitError,
    UnsupportedShapeError,
    group_order,
    parse_and_validate,
    poly_mul,
)


def test_prime_factors():
    def by_trial_division(n):
        return [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]

    for n in range(1, 400):
        assert _prime_factors(n) == by_trial_division(n)
    assert _prime_factors(9973 * 9967) == [9967, 9973]
    # trial division stops early, leaving a prime cofactor below 1000
    assert _prime_factors(2 * 997) == [2, 997]
    assert _prime_factors(4 * 991) == [2, 991]
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


def scalar_power(root, s):
    return tuple(comb(s, k) * (-root) ** k for k in range(s + 1))


P2Q_COEFFS = poly_mul(poly_mul((1, -1, 2), (1, -1, 2)), (1, 2, 2))
Q9_COEFFS = poly_mul(poly_mul((1, 3, 9), (1, 3, 9)), poly_mul((1, 3), (1, 3)))


def test_admissible_exponents_examples():
    assert admissible_exponents((2, 1, 0, 0), 4) == ((3, 0, 0, 0), (2, 1, 0, 0))
    assert admissible_exponents((0, 0), 2) == ((0, 0),)
    half = Fraction(1, 2)
    assert admissible_exponents((half, half), 2) == ((1, 0),)


def test_admissible_matches_operator_oracle():
    # the 2x2 sweep pins the orientation of the dominance condition
    for slopes in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                   (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(3, 2), Fraction(3, 2))):
        expected = set(admissible_exponents(slopes, 2))
        assert set(operator_group_oracle(slopes, 2, 4)) == expected


def test_groups_separable_examples():
    assert groups_separable((1, -1, 2), 2) == ((1, 0),)
    assert groups_separable((1, -1, 2), 7) == ((0, 0),)
    with pytest.raises(ValueError):
        groups_separable(poly_mul((1, -1, 2), (1, -1, 2)), 2)


def test_p_square_profiles():
    assert p_square_groups_from_profile((1, 1)) == (
        (2, 2, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1)
    )
    assert p_square_groups_from_profile((1, 0)) == ((1, 1, 0, 0),)
    half = Fraction(1, 2)
    assert p_square_groups_from_profile((half, half)) == ((1, 1, 0, 0),)


def test_groups_p_square_polynomial():
    # transform of t^2 - t + 2 has valuations (1, 0) at l = 2
    assert groups_p_square((1, -1, 2), 2) == ((1, 1, 0, 0),)
    with pytest.raises(ValueError):
        groups_p_square((1, -1, 2, 0), 2)


def test_cyclic_index_profiles():
    assert cyclic_index_groups_from_profile((1, 0), 2, 1, 2) == ((1, 1, 1, 1, 0, 0),)
    assert cyclic_index_groups_from_profile((1, 0), 0, 2, 3) == ((2, 2, 2),)


def test_groups_cyclic_index_polynomial():
    # P = t^2 - 2t - 8 = (t - 4)(t + 2), Q = t + 2 divides it;
    # at l = 2 the slopes of P are (1, 2), so the pair profile is (2, 1)
    assert groups_cyclic_index((1, -2, -8), (1, 2), 2, 2, 2) == (
        (3, 3, 1, 1, 0, 0),
        (3, 2, 1, 1, 1, 0),
        (2, 2, 1, 1, 1, 1),
    )
    with pytest.raises(ValueError, match="does not divide"):
        groups_cyclic_index((1, -2, -8), (1, 1), 2, 2, 2)
    with pytest.raises(ValueError, match="separable"):
        groups_cyclic_index((1, 2, 1), (1, 1), 1, 1, 2)


def test_groups_scalar_examples():
    assert groups_scalar("plus", 9, 6, 2) == (2,) * 6
    assert groups_scalar("minus", 4, 2, 3) == (0, 0)
    assert groups_scalar("plus", 4, 2, 7) == (0, 0)
    with pytest.raises(ValueError):
        groups_scalar("plus", 2, 2, 3)
    with pytest.raises(ValueError):
        groups_scalar("minus", 1, 2, 3)


def test_case1_worked_example():
    assert groups_case1((1, -1, 2), (1, 2, 2), 2) == ((1, 1, 0, 0, 0, 0),)
    assert groups_case1((1, -1, 2), (1, 2, 2), 5) == ((1, 0, 0, 0, 0, 0),)
    with pytest.raises(ValueError):
        groups_case1((1, -1, 2), (1, -1, 2), 2)  # PQ not separable


def test_case1_contains_direct_sums():
    m, n = (2, 1), (1, 1)
    out = set(case1_groups_from_profiles(m, n))
    for p1 in quadratic_pairs(m):
        for p2 in quadratic_pairs(m):
            for b in quadratic_pairs(n):
                assert merge_sorted(p1, p2, b) in out


def test_case3_worked_example():
    assert groups_case3((1, 3, 9), "plus", 9, 2) == ((2, 2, 0, 0, 0, 0),)


def test_case2_case3_contain_direct_sums():
    for m in ((2, 1, 1, 0), (1, 1, 0, 0)):
        for b in (0, 1, 2):
            out = set(case2_groups_from_profile(m, b))
            for a in (m,):  # the profile itself is always a witness
                assert merge_sorted(a, (b, b)) in out
    for m in ((1, 1), (2, 0)):
        for b in (0, 1, 2):
            out = set(case3_groups_from_profile(m, b))
            for p1 in quadratic_pairs(m):
                for p2 in quadratic_pairs(m):
                    assert merge_sorted(p1, p2, (b, b)) in out


def test_case2_case3_polynomial_guards():
    with pytest.raises(ValueError):
        groups_case2(poly_mul((1, -3), (1, 3, 9)), "minus", 9, 2)  # not quartic
    quartic_with_root = poly_mul(poly_mul((1, -3), (1, 3)), (1, 3, 9))
    with pytest.raises(ValueError):
        groups_case2(quartic_with_root, "minus", 9, 2)  # shares the real root
    with pytest.raises(UnsupportedShapeError):
        groups_case3((1, 1, 2), "plus", 2, 3)  # q not a square


def test_case2_trivial_profiles():
    assert case2_groups_from_profile((0, 0, 0, 0), 0) == ((0,) * 6,)
    assert case2_groups_from_profile((0, 0, 0, 0), 2) == ((2, 2, 0, 0, 0, 0),)


def test_degeneration_case2_to_separable():
    for total in range(5):
        for m in partitions_of(total, 4):
            got = case2_groups_from_profile(m, 0)
            want = tuple(sorted(
                {c + (0, 0) for c in separable_groups_from_profile(m, 4)},
                reverse=True,
            ))
            assert got == want, m


def test_degeneration_case3_to_p_square():
    for total in range(5):
        for m in partitions_of(total, 2):
            got = case3_groups_from_profile(m, 0)
            want = tuple(sorted(
                {c + (0, 0) for c in p_square_groups_from_profile(m)},
                reverse=True,
            ))
            assert got == want, m


def test_case1_matches_tableau_oracle_on_grid():
    for m_tot in range(4):
        for m in partitions_of(m_tot, 2):
            for n_tot in range(4):
                for n in partitions_of(n_tot, 2):
                    machine = set(case1_groups_from_profiles(m, n))
                    a_wit = {
                        merge_sorted(p1, p2)
                        for p1 in quadratic_pairs(m)
                        for p2 in quadratic_pairs(m)
                    }
                    b_wit = quadratic_pairs(n)
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


def _wrapper_groups(plan, w, l):
    """The public polynomial-facing wrapper for a dispatch plan."""
    if plan.kind == "separable":
        return groups_separable(w.coeffs, l)
    if plan.kind == "p_square":
        return groups_p_square(plan.P, l)
    if plan.kind == "p2q":
        return groups_case1(plan.P, plan.Q, l)
    if plan.kind == "p_realsq":
        return groups_case2(plan.P, plan.sign, w.q, l)
    if plan.kind == "q2_realsq":
        return groups_case3(plan.Q, plan.sign, w.q, l)
    if plan.kind == "scalar":
        return (groups_scalar(plan.sign, w.q, plan.s, l),)
    assert plan.kind == "cyclic_index"
    return groups_cyclic_index(plan.P, plan.Q, plan.r, plan.s, l)


def _route_corpus():
    """Products of Weil quadratics t^2 + a t + q, squared or not, and of
    (t -+ sqrt q)^2 at square q, then (t - sqrt q)^u (t + sqrt q)^w: every
    shape with a public wrapper.  Last, one class whose route key collides
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


def test_dispatch_matches_public_wrappers():
    """classify_all runs the profile cores directly, behind a bounded memo
    keyed on integer Newton hulls; from cold memos, the public wrappers,
    which re-check the shape, must give the same groups per prime."""
    seen = set()
    for q, coeffs in _route_corpus():
        w = parse_and_validate(coeffs, q)
        result = classify_all(w)
        for l, groups in result.groups.items():
            assert groups == _wrapper_groups(result.plan, w, l), (coeffs, q, l)
        seen.add((result.plan.kind, q if result.plan.kind.endswith("realsq") else None))
    assert {"separable", "p_square", "p2q", "scalar", "cyclic_index"} <= {
        kind for kind, _ in seen
    }
    for kind in ("p_realsq", "q2_realsq"):
        assert {(kind, 4), (kind, 9)} <= seen
    assert _route_groups.cache_info().hits > 0
    assert _route_groups.cache_info().maxsize is not None


def _corpus():
    quads = {
        2: [(1, a, 2) for a in range(-2, 3)],
        3: [(1, a, 3) for a in range(-3, 4)],
    }
    polys = []
    for q, qs in quads.items():
        for i, p1 in enumerate(qs):
            for p2 in qs[i + 1 :]:
                for p3 in qs[qs.index(p2) + 1 :]:
                    coeffs = poly_mul(poly_mul(p1, p2), p3)
                    polys.append((coeffs, q))
        for i, p1 in enumerate(qs):
            for p2 in qs:
                if p2 != p1:
                    polys.append((poly_mul(poly_mul(p1, p1), p2), q))
    return [parse_and_validate(coeffs, q) for coeffs, q in polys]


def test_global_consistency_on_corpus():
    corpus = _corpus()
    assert len(corpus) >= 20
    checked = 0
    for w in corpus:
        try:
            result = classify_all(w)
        except UnsupportedShapeError:
            continue
        transformed = transform_one_minus_t(w.coeffs)
        order = group_order(w)
        for l, groups in result.groups.items():
            npoly = newton_polygon(transformed, l)
            for c in groups:
                assert sum(c) == valuation(order, l)
                assert np_dominates_hp(npoly, hodge_polygon(c, 6))
                checked += 1
    assert checked > 50


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
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_sextic_corpus_script_runs():
    """scripts/classify_sextic_corpus.py classifies a few classes and prints
    each one's shape tag."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "classify_sextic_corpus.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, script, "--limit", "5"], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "shape=" in out.stdout
