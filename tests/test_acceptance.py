"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two criteria quote inequality rows from the source tables that the machine
proves misprinted (their printed K-sets violate the trace condition every
member of U^n_p satisfies, so they cannot denote members at all).  Those
criteria are asserted in their machine-verified form, at full strength,
and the corrections are disclosed both here and in the verification
report; see the omitted-line analysis for the oracle evidence.
"""

import time
from fractions import Fraction

from weilgroup.classify import admissible_exponents, classify_all, direct_sums, extensions
from weilgroup.horn import HornTriple, enumerate_T, enumerate_U
from weilgroup.oracle import (
    lr_coefficient,
    matrix_cokernel_oracle,
    operator_group_oracle,
    _operator_sweep,
)
from weilgroup.partitions import partitions_of, partitions_up_to
from weilgroup.polygon import (
    LatticePolygon,
    hodge_polygon,
    newton_polygon,
    np_dominates_hp,
    valuation,
)
from weilgroup.reduce import redundant_members_full
from weilgroup.smith import enumerate_cokernels, feasible_triple
from weilgroup.verify import verify_paper_lists
from weilgroup.polygon import transform_one_minus_t
from weilgroup.weil import (
    UnsupportedShapeError,
    group_order,
    parse_and_validate,
    poly_mul,
)

P2Q_COEFFS = poly_mul(poly_mul((1, -1, 2), (1, -1, 2)), (1, 2, 2))


def _announce(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_horn_base_and_recursion():
    start = time.time()
    for n in range(1, 9):
        assert enumerate_T(n, 1, allow_large=True) == enumerate_U(n, 1)
    for n in range(2, 9):
        expected = []
        for tri in enumerate_U(n, 2):
            (i1, i2), (j1, j2), (k1, k2) = tri
            if i1 + j1 <= k1 + 1 and i2 + j1 <= k2 + 1 and i1 + j2 <= k2 + 1:
                expected.append(tri)
        assert enumerate_T(n, 2, allow_large=True) == tuple(expected), n
    elapsed = time.time() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _announce(1, f"T^n_1 = U^n_1 and the size-2 criterion hold for n <= 8 "
                 f"({elapsed:.2f}s)")


def test_criterion_2_complement_family():
    start = time.time()
    for n in range(2, 7):
        full = set(range(1, n + 1))
        family = set()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = i + j - n
                if 1 <= k <= n:
                    family.add(HornTriple(
                        tuple(sorted(full - {i})),
                        tuple(sorted(full - {j})),
                        tuple(sorted(full - {k})),
                    ))
        assert enumerate_T(n, n - 1) == tuple(sorted(family)), n
    elapsed = time.time() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _announce(2, f"T^n_(n-1) is the complement family for n <= 6 ({elapsed:.2f}s)")


def test_criterion_3_unique_redundancy_at_six():
    start = time.time()
    redundant = redundant_members_full(6)
    # exactly one member of the full list is implied by the rest, and it is
    # the a1+a3+a5+b1+b3+b5 row; the printed K-set (2,4,5) fails the trace
    # condition (9+9 != 11+6), so the member necessarily has K = (2,4,6)
    assert len(redundant) == 1
    triple = redundant[0]
    assert triple.I == (1, 3, 5) and triple.J == (1, 3, 5)
    assert triple.K == (2, 4, 6)
    printed_k = (2, 4, 5)
    p = 3
    assert sum(triple.I) + sum(triple.J) != sum(printed_k) + p * (p + 1) // 2
    elapsed = time.time() - start
    assert elapsed < 60, f"{elapsed:.1f}s"
    _announce(3, "unique redundant member at n = 6 is I = J = (1,3,5), "
                 f"K = (2,4,6); printed K = (2,4,5) violates the trace "
                 f"condition and is reported as a misprint ({elapsed:.1f}s)")


def test_criterion_4_green_klein_equivalence():
    start = time.time()
    checked = 0
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            for a in partitions_up_to(3 * s, s, 3):
                for b in partitions_up_to(3 * t, t, 3):
                    for c in partitions_of(sum(a) + sum(b), s + t):
                        assert feasible_triple(a, b, c) == (
                            lr_coefficient(a, b, c) > 0
                        ), (a, b, c)
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"{elapsed:.1f}s"
    _announce(4, f"feasibility == tableau positivity on {checked} triples "
                 f"({elapsed:.1f}s)")


def test_criterion_5_matrix_oracle_agreement():
    start = time.time()
    checked = 0
    for l in (2, 3):
        for s in (1, 2):
            for t in (1, 2):
                for a in partitions_up_to(2 * s, s, 2):
                    for b in partitions_up_to(2 * t, t, 2):
                        # a returned sweep is exhaustive; a refused one raises
                        sweep = matrix_cokernel_oracle(a, b, l)
                        assert set(sweep) == set(
                            enumerate_cokernels(a, b)
                        ), (a, b, l)
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"{elapsed:.1f}s"
    _announce(5, f"complete matrix sweeps match enumerate_cokernels on "
                 f"{checked} block pairs ({elapsed:.1f}s)")


def test_criterion_6_orientation_pinning():
    start = time.time()
    table = _operator_sweep(2, 4)
    polygons = {key for key in table if key[0] + key[1] <= 3}
    half = Fraction(1, 2)
    assert polygons == {
        (Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(2)), (Fraction(0), Fraction(3)),
        (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
        (half, half), (3 * half, 3 * half),
    }
    for slopes in polygons:
        total = int(slopes[0] + slopes[1])
        npoly = LatticePolygon(
            ((0, 0), (1, int(slopes[0])), (2, total)) if slopes[0] != slopes[1] else ((0, 0), (2, total))
        )
        predicted = {
            c for c in admissible_exponents(npoly.vertices)
            if np_dominates_hp(npoly, hodge_polygon(c, 2))
        }
        assert predicted == set(admissible_exponents(npoly.vertices))
        assert set(operator_group_oracle(slopes, 2, 4)) == predicted, slopes
    assert operator_group_oracle((1, 2), 2, 4) == frozenset({(3, 0), (2, 1)})
    assert operator_group_oracle((0, 3), 2, 4) == frozenset({(3, 0)})
    elapsed = time.time() - start
    assert elapsed < 60, f"{elapsed:.1f}s"
    _announce(6, f"2x2 sweep matches polygon dominance for every polygon of "
                 f"total <= 3 ({elapsed:.1f}s)")


def test_criterion_7_paper_list_reproduction():
    start = time.time()
    report = verify_paper_lists()
    # every printed triple that satisfies the trace condition lies in the
    # strict restriction, except the size-one families the source itself
    # derives as implied (those lie in the tilde restriction and each
    # implication is confirmed exactly)
    assert report.ok_rows() == 85
    assert len(report.tilde_only_rows) == 12
    assert all(ok for _name, ok in report.implications)
    # the four trace-violating printed rows are detected, and each pairs
    # with a machine row at minimal coefficient distance (c5/c6 swap or a
    # shifted family index)
    assert set(report.malformed_rows) == {
        "p2q/sizes-2-and-4/[11]/i=1",
        "p2q/size-3/[21]",
        "real_sq/sizes-2-and-4/[8]/i=1",
        "real_sq/size-3/[19]",
    }
    by_case = {d.case: d for d in report.diffs}
    # the first summary list: after pairing the two misprints, the
    # discrepancy report contains exactly the one flagged line
    assert by_case["p2q"].residual_machine_only == ("a1+a3+b1 >= c1+c4+c6",)
    assert len(by_case["p2q"].misprint_pairs) == 2
    # and the flagged line is genuinely irredundant, with oracle evidence
    assert report.analysis.lp_irredundant
    assert report.analysis.machine_matches_lr_on_grid
    assert report.analysis.corrected_list_matches_grid
    elapsed = time.time() - start
    assert elapsed < 60, f"{elapsed:.1f}s"
    _announce(7, "printed tables reproduced; discrepancy report for the "
                 "first summary list = one flagged line plus two detected "
                 f"misprints ({elapsed:.1f}s)")


def _sextic_corpus():
    quads = {2: [(1, a, 2) for a in range(-2, 3)],
             3: [(1, a, 3) for a in range(-3, 4)]}
    candidates = []
    for q, qs in quads.items():
        for i, p1 in enumerate(qs):
            for p2 in qs[i + 1 :]:
                for p3 in qs[qs.index(p2) + 1 :]:
                    candidates.append((poly_mul(poly_mul(p1, p2), p3), q))
        for p1 in qs:
            for p2 in qs:
                if p2 != p1:
                    candidates.append((poly_mul(poly_mul(p1, p1), p2), q))
    return [parse_and_validate(coeffs, q) for coeffs, q in candidates]


def test_criterion_8_end_to_end_class():
    start = time.time()
    w = parse_and_validate(P2Q_COEFFS, 2)
    result = classify_all(w)
    assert result.groups == {
        2: ((1, 1, 0, 0, 0, 0),),
        5: ((1, 0, 0, 0, 0, 0),),
    }
    corpus = _sextic_corpus()
    assert len(corpus) >= 20
    classified = 0
    for weil in corpus:
        try:
            res = classify_all(weil)
        except UnsupportedShapeError:
            continue
        transformed = transform_one_minus_t(weil.coeffs)
        order = group_order(weil)
        for l, groups in res.groups.items():
            npoly = newton_polygon(transformed, l)
            for c in groups:
                assert sum(c) == valuation(order, l), (weil.coeffs, l, c)
                assert np_dominates_hp(npoly, hodge_polygon(c, 6)), (
                    weil.coeffs, l, c,
                )
        classified += 1
    assert classified >= 20
    elapsed = time.time() - start
    assert elapsed < 60, f"{elapsed:.1f}s"
    _announce(8, f"worked sextic classified exactly; {classified} corpus "
                 f"classes satisfy the total and dominance invariants "
                 f"({elapsed:.1f}s)")


def test_criterion_9_degeneration_consistency():
    start = time.time()
    for total in range(5):
        for m in partitions_of(total, 4):
            got = extensions(admissible_exponents(hodge_polygon(m, 4).vertices), ((0, 0),))
            want = tuple(sorted(
                {c + (0, 0) for c in admissible_exponents(hodge_polygon(m, 4).vertices)},
                reverse=True,
            ))
            assert got == want, m
    for total in range(5):
        for m in partitions_of(total, 2):
            got = extensions(direct_sums(hodge_polygon(m, 2).vertices, 2, 0, 0), ((0, 0),))
            want = tuple(sorted(
                {c + (0, 0) for c in direct_sums(hodge_polygon(m, 2).vertices, 2, 0, 0)},
                reverse=True,
            ))
            assert got == want, m
    elapsed = time.time() - start
    _announce(9, f"b = 0 degenerations match the separable and squared-pair "
                 f"classifications on all profiles of total <= 4 "
                 f"({elapsed:.1f}s)")
