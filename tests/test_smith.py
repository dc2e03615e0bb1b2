import random
from itertools import combinations_with_replacement, zip_longest

import numpy as np
import pytest
from hypothesis import given, strategies as st

import weilgroup.smith
from weilgroup.horn import enumerate_T
from weilgroup.oracle import lr_coefficient
from weilgroup.partitions import as_partition, merge_sorted, partitions_of
from weilgroup.smith import enumerate_cokernels, feasible_triple, format_inequality, inequality_system


def test_system_1_1():
    assert sorted(format_inequality(*iq.key()) for iq in inequality_system(1, 1)) == [
        "a1 >= c2",
        "b1 >= c2",
    ]


def test_system_4_2_contains_published_families():
    pretty = {format_inequality(*iq.key()) for iq in inequality_system(4, 2)}
    assert "b1 >= c5" in pretty
    assert "b2 >= c6" in pretty
    # complements of these appear as the size-5 rows
    assert "a1+a2+a3+a4+b2 >= c2+c3+c4+c5+c6" in pretty  # b1 <= c1
    assert "a2+a3+a4+b1+b2 >= c2+c3+c4+c5+c6" in pretty  # a1 <= c1


def test_system_guards():
    with pytest.raises(ValueError):
        inequality_system(4, 3)
    with pytest.raises(ValueError):
        inequality_system(0, 1)


def test_feasible_examples():
    assert feasible_triple((1,), (1,), (2, 0))
    assert feasible_triple((1,), (1,), (1, 1))
    assert not feasible_triple((2,), (0,), (1, 1))
    assert not feasible_triple((2, 1), (1,), (4, 0, 0))


def test_feasible_total_mismatch_is_false_not_error():
    assert not feasible_triple((1,), (1,), (3, 0))


def test_feasible_rejects_bad_shapes():
    with pytest.raises(ValueError):
        feasible_triple((1,), (1,), (2,))
    with pytest.raises(ValueError):
        feasible_triple((-1,), (1,), (0, 0))
    with pytest.raises(ValueError):
        feasible_triple((0, 1), (1,), (1, 1, 0))


def test_enumerate_examples():
    assert enumerate_cokernels((1,), (1,)) == ((2, 0), (1, 1))
    assert enumerate_cokernels((0, 0), (0, 0)) == ((0, 0, 0, 0),)
    assert enumerate_cokernels((1, 0), (1, 0)) == ((2, 0, 0, 0), (1, 1, 0, 0))


def _bounded(max_total, max_len, max_part):
    """The partitions of 0..max_total into max_len parts of at most max_part."""
    return [
        c for total in range(max_total + 1) for c in partitions_of(total, max_len)
        if c[0] <= max_part
    ]


def _rowwise_cokernels(a, b):
    """Every partition of the total, each checked row by row."""
    return tuple(
        c for c in partitions_of(sum(a) + sum(b), len(a) + len(b))
        if feasible_triple(a, b, c)
    )


def test_memoised_cokernels_match_rowwise_reference():
    """Every (a, b) with s + t <= 6 and sum(a) + sum(b) <= 6, from a cold memo."""
    weilgroup.smith._cokernels_cached.cache_clear()
    pairs = 0
    for s in range(1, 6):
        for t in range(1, 7 - s):
            for a in _bounded(6, s, 6):
                for b in _bounded(6 - sum(a), t, 6):
                    memoised = enumerate_cokernels(list(a), list(b))
                    assert memoised == _rowwise_cokernels(a, b), (a, b)
                    assert enumerate_cokernels(a, b) is memoised
                    assert type(memoised) is tuple
                    assert all(type(c) is tuple for c in memoised)
                    pairs += 1
    assert pairs == 1145


def test_cokernels_contain_a_and_b():
    """The floor of the cokernel walk: every c of the unpruned row-wise
    reference has c_k >= max(a_k, b_k), over the pairs of the memo test,
    as coker A is a subgroup and coker B a quotient of coker C."""
    pairs = 0
    for s in range(1, 6):
        for t in range(1, 7 - s):
            for a in _bounded(6, s, 6):
                for b in _bounded(6 - sum(a), t, 6):
                    floor = [max(x, y) for x, y in zip_longest(a, b, fillvalue=0)]
                    for c in _rowwise_cokernels(a, b):
                        assert all(x >= m for x, m in zip(c, floor)), (a, b, c)
                    pairs += 1
    assert pairs == 1145


def test_cokernels_match_rowwise_reference_at_larger_totals():
    """Seeded (4, 2) and (2, 2) pairs with sum(a) + sum(b) up to 14, the
    block sizes of the sextic and surface routes."""
    rng = random.Random(20181)
    for s, t in ((4, 2), (2, 2)):
        for total in range(7, 15):
            for _ in range(3):
                split = rng.randint(0, total)
                a = rng.choice(list(partitions_of(split, s)))
                b = rng.choice(list(partitions_of(total - split, t)))
                assert enumerate_cokernels(a, b) == _rowwise_cokernels(a, b), (a, b)


def _one_part_pairs(s, t, total):
    """The pairs with all of ``total`` in the first part of a, or of b."""
    a0, b0 = (0,) * s, (0,) * t
    return (((total,) + a0[1:], b0), (a0, (total,) + b0[1:]))


def test_cokernels_match_rowwise_reference_at_width_edges():
    """Totals 2^k - 1 and 2^k, where the packed field width steps, with every
    row's left side at its largest (all mass in one part of a or of b)."""
    for (s, t), top in (((1, 1), 64), ((2, 2), 64), ((4, 2), 16)):
        totals = sorted({x for k in range(top.bit_length()) for x in (2**k - 1, 2**k)})
        for total in totals:
            for a, b in _one_part_pairs(s, t, total):
                assert enumerate_cokernels(a, b) == _rowwise_cokernels(a, b), (a, b)


def test_strict_rows_use_each_coordinate_once():
    """The packed width bound needs lhs <= total and sum_K c <= total."""
    for s in range(1, 6):
        for t in range(1, 7 - s):
            for iq in inequality_system(s, t):
                for idx in (iq.a_idx, iq.b_idx, iq.c_idx):
                    assert len(set(idx)) == len(idx), (s, t, iq)


def test_every_cokernel_passes_through_partitions_of(monkeypatch):
    """Each result is a yield of the module's ``partitions_of``, which is
    what a tracer wraps to count candidates."""
    pulled = []
    real = weilgroup.smith.partitions_of

    def counting(*args, **kwargs):
        for c in real(*args, **kwargs):
            pulled.append(c)
            yield c

    monkeypatch.setattr(weilgroup.smith, "partitions_of", counting)
    weilgroup.smith._cokernels_cached.cache_clear()
    try:
        result = enumerate_cokernels((3, 1, 0, 0), (2, 1))
    finally:
        weilgroup.smith._cokernels_cached.cache_clear()
    assert len(pulled) == len(result) > 0
    assert tuple(pulled) == result


def _brute_partitions(total, max_len):
    return [
        c for c in combinations_with_replacement(range(total, -1, -1), max_len)
        if sum(c) == total
    ]


def test_partitions_of_matches_brute_force():
    for total in range(11):
        for max_len in range(7):
            assert list(partitions_of(total, max_len)) == _brute_partitions(
                total, max_len), (total, max_len)


def test_partitions_of_within_filters_by_packed_rows():
    """Random rows sum_{k in K} c_k <= bound, packed as the cokernel walk
    packs them: the pruned walk equals the unpruned one filtered."""
    rng = random.Random(13)
    for _ in range(300):
        total, max_len = rng.randint(0, 10), rng.randint(1, 6)
        width = total.bit_length() + 1
        start = high = 0
        coeffs = [0] * max_len
        for r in range(rng.randint(1, 8)):
            low = 1 << (r * width)
            high |= low << (width - 1)
            start += (low << (width - 1)) + low * rng.randint(0, total)
            for k in rng.sample(range(max_len), rng.randint(1, max_len)):
                coeffs[k] += low

        def passes(c):
            packed = start - sum(x * coeff for x, coeff in zip(c, coeffs))
            return packed & high == high

        plain = partitions_of(total, max_len)
        pruned = partitions_of(total, max_len, within=(start, coeffs, high))
        assert list(pruned) == [c for c in plain if passes(c)]


def test_partitions_of_floor_filters_the_walk():
    """Seeded floors, with and without packed rows: the floored walk equals
    the unfloored one filtered by c_k >= floor[k], for every total <= 12
    and every max_len <= 6; a floor may be shorter than max_len."""
    rng = random.Random(29)
    for total in range(13):
        for max_len in range(7):
            for trial in range(6):
                floor = [rng.randint(0, 3) for _ in range(rng.randint(0, max_len))]
                if trial % 2:  # the cokernel walk's floors are partitions
                    floor.sort(reverse=True)
                width = total.bit_length() + 1
                start = high = 0
                coeffs = [0] * max_len
                for r in range(rng.randint(0, 4) if max_len else 0):
                    low = 1 << (r * width)
                    high |= low << (width - 1)
                    start += (low << (width - 1)) + low * rng.randint(0, total)
                    for k in rng.sample(range(max_len), rng.randint(1, max_len)):
                        coeffs[k] += low
                within = (start, coeffs, high)
                plain = partitions_of(total, max_len, within=within)
                floored = partitions_of(total, max_len, within=within, floor=floor)
                assert list(floored) == [
                    c for c in plain if all(x >= m for x, m in zip(c, floor))
                ], (total, max_len, floor, within)


def test_enumerate_descending_lex_and_pruned():
    out = enumerate_cokernels((2, 1), (1,))
    assert out == tuple(sorted(out, reverse=True))
    assert all(c[0] <= 3 for c in out)
    assert all(sum(c) == 4 for c in out)


small_partitions = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(small_partitions, small_partitions)
def test_block_transpose_symmetry(a, b):
    for c in partitions_of(sum(a) + sum(b), len(a) + len(b)):
        assert feasible_triple(a, b, c) == feasible_triple(b, a, c)


@given(small_partitions, small_partitions)
def test_direct_sum_always_feasible(a, b):
    assert feasible_triple(a, b, merge_sorted(a, b))


@given(small_partitions, small_partitions)
def test_green_klein_on_random_triples(a, b):
    for c in partitions_of(sum(a) + sum(b), len(a) + len(b)):
        assert feasible_triple(a, b, c) == (lr_coefficient(a, b, c) > 0)


def _feasible_by_full_T(a, b, c):
    """Decision procedure straight from the unrestricted triple sets."""
    s, t = len(a), len(b)
    n = s + t
    if sum(a) + sum(b) != sum(c):
        return False
    for p in range(1, n + 1):
        for I, J, K in enumerate_T(n, p):
            lhs = sum(a[i - 1] for i in I if i <= s)
            lhs += sum(b[j - 1] for j in J if j <= t)
            if lhs < sum(c[k - 1] for k in K):
                return False
    return True


def test_strict_restriction_is_sound_and_complete():
    # strict-mode feasibility equals full-set feasibility, s+t <= 5, parts <= 3
    for s in (1, 2, 3):
        for t in (1, 2):
            if s + t > 5:
                continue
            for a in _bounded(3 * s, s, 3):
                for b in _bounded(3 * t, t, 3):
                    for c in partitions_of(sum(a) + sum(b), s + t):
                        assert feasible_triple(a, b, c) == _feasible_by_full_T(a, b, c)


def _one_box_removals(p):
    out = []
    for i, part in enumerate(p):
        if part == 0:
            continue
        smaller = p[:i] + (part - 1,) + p[i + 1 :]
        if all(x >= y for x, y in zip(smaller, smaller[1:])):
            out.append(smaller)
    return out


def test_box_removal_at_smith_level():
    # removing one box from a keeps some one-box-smaller c feasible
    for a in _bounded(4, 2, 2):
        for b in _bounded(4, 2, 2):
            for c in enumerate_cokernels(a, b):
                for smaller_a in _one_box_removals(a):
                    assert any(
                        lr_coefficient(smaller_a, b, smaller_c) > 0
                        for smaller_c in _one_box_removals(c)
                    ), (a, b, c, smaller_a)


@pytest.mark.parametrize(
    "func, args",
    [
        (enumerate_cokernels, ((1.9,), (1,))),
        (feasible_triple, ((1.5,), (1,), (2, 0))),
        (feasible_triple, ((1,), (1,), (2.0, 0))),
        (as_partition, (("2", 1),)),
    ],
    ids=["cokernels-float-a", "feasible-float-a", "feasible-float-c", "as_partition-str"],
)
def test_partition_entry_points_reject_non_integers(func, args):
    """A non-integer part raises instead of being truncated (1.9 is not 1)."""
    with pytest.raises(ValueError, match="integers"):
        func(*args)
    assert as_partition((np.int64(2), True, 0)) == (2, 1, 0)
    assert enumerate_cokernels((np.int64(1),), (True,)) == enumerate_cokernels((1,), (1,))
