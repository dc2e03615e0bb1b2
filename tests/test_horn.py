from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from weilgroup.cli import main
from weilgroup.horn import (
    HornTriple,
    HornTable,
    enumerate_T,
    enumerate_T_st,
    enumerate_U,
    lambda_of,
)
from weilgroup.reduce import redundant_members_full


def test_U_examples():
    assert len(enumerate_U(4, 1)) == 10
    assert enumerate_U(2, 2) == (HornTriple((1, 2), (1, 2), (1, 2)),)
    assert HornTriple((2, 4), (1, 3), (3, 4)) in enumerate_U(4, 2)


def test_U_rejects_bad_p():
    with pytest.raises(ValueError):
        enumerate_U(3, 4)
    with pytest.raises(ValueError):
        enumerate_U(3, 0)


def test_U_is_sorted():
    for n in range(1, 8):
        for p in range(1, n + 1):
            U = enumerate_U(n, p)
            assert list(U) == sorted(U)


@lru_cache(maxsize=None)
def reference_T(n, p):
    """T^n_p by the defining recursion, one three-sum check per inner row."""
    subsets = list(combinations(range(1, n + 1), p))
    U = [
        (I, J, K) for I, J, K in product(subsets, repeat=3)
        if sum(I) + sum(J) == sum(K) + p * (p + 1) // 2
    ]
    inner = [(r, reference_T(p, r)) for r in range(1, p)]
    return tuple(
        HornTriple(I, J, K) for I, J, K in U
        if all(
            sum(I[f - 1] for f in F) + sum(J[g - 1] for g in G)
            <= sum(K[h - 1] for h in H) + r * (r + 1) // 2
            for r, table in inner
            for F, G, H in table
        )
    )


def test_T_matches_reference_recursion():
    for n in range(1, 8):
        for p in range(1, n + 1):
            assert enumerate_T(n, p, table=HornTable()) == reference_T(n, p), (n, p)


def test_T_base_case_matches_U():
    for n in range(1, 8):
        assert enumerate_T(n, 1) == enumerate_U(n, 1)


def test_T42_membership_examples():
    t42 = enumerate_T(4, 2)
    assert HornTriple((2, 4), (1, 3), (3, 4)) in t42
    assert HornTriple((2, 3), (1, 2), (1, 4)) not in t42


def t2_criterion(n):
    out = []
    for tri in enumerate_U(n, 2):
        (i1, i2), (j1, j2), (k1, k2) = tri
        if i1 + j1 <= k1 + 1 and i2 + j1 <= k2 + 1 and i1 + j2 <= k2 + 1:
            out.append(tri)
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 11))
def test_T2_three_inequality_criterion(n):
    assert enumerate_T(n, 2) == t2_criterion(n)


def dual_triples(triples, n):
    """Each triple with X -> {n+1-i : i not in X} applied to I, J and K, sorted."""
    def dual(X):
        return tuple(sorted(n + 1 - i for i in range(1, n + 1) if i not in X))
    return tuple(sorted(HornTriple(dual(I), dual(J), dual(K)) for I, J, K in triples))


@pytest.mark.parametrize("n", range(8, 11))
def test_T_codimension_two_is_dual_of_T2(n):
    """Gr(r, n) = Gr(n-r, n) makes T^n_{n-2} the dual of T^n_2, here beyond
    n = 7, where the tests stop the reference recursion."""
    assert enumerate_T(n, n - 2) == dual_triples(t2_criterion(n), n)


def complement_family(n):
    full = set(range(1, n + 1))
    out = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = i + j - n
            if 1 <= k <= n:
                out.add(HornTriple(
                    tuple(sorted(full - {i})),
                    tuple(sorted(full - {j})),
                    tuple(sorted(full - {k})),
                ))
    return tuple(sorted(out))


@pytest.mark.parametrize("n", range(2, 7))
def test_T_top_is_complement_family(n):
    assert enumerate_T(n, n - 1) == complement_family(n)


def test_T_subset_of_U_up_to_7():
    for n in range(1, 8):
        for p in range(1, n + 1):
            t = set(enumerate_T(n, p))
            assert t <= set(enumerate_U(n, p))


BEYOND = "^n=11 exceeds desk scale 10$"


def test_desk_scale_guard(capsys):
    """Every Horn table builder refuses n = 11 before it builds anything,
    with one message and no override, and builds at n = 10."""
    table = HornTable()
    refusals = (
        lambda: enumerate_T(11, 2, table=table),
        lambda: table.T(11, 5),
        lambda: enumerate_U(11, 5),
        lambda: redundant_members_full(11, table=table),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match=BEYOND):
            refused()
        assert table._tables == {} and table._packed == {}
    assert main(["horn", "triples", "--n", "11", "--p", "2"]) == 1
    assert capsys.readouterr() == ("", "error: n=11 exceeds desk scale 10\n")
    assert enumerate_T(10, 1, table=table) == enumerate_U(10, 1)
    assert table.T(10, 9) == complement_family(10)


def test_lambda_examples():
    assert lambda_of((1, 2, 3)) == (0, 0, 0)
    assert lambda_of((2, 4)) == (2, 1)
    assert lambda_of((1, 3, 6)) == (3, 1, 0)
    # not an index set 1 <= i_1 < ... < i_p: no partition to attach
    for I in ((2, 1), (0, 1), (1, 1), (-1, 2), (1.5, 2)):
        with pytest.raises(ValueError):
            lambda_of(I)


@given(st.sets(st.integers(1, 9), min_size=1, max_size=5))
def test_lambda_injective_and_partition(elems):
    I = tuple(sorted(elems))
    lam = lambda_of(I)
    assert all(x >= y for x, y in zip(lam, lam[1:]))
    assert all(x >= 0 for x in lam)
    # injectivity: lambda determines I given p (lam[a] = i_{p-a} - (p-a))
    p = len(I)
    rebuilt = tuple(sorted(lam[a] + (p - a) for a in range(p)))
    assert rebuilt == I


def test_T_st_examples():
    assert HornTriple((2,), (3,), (4,)) in enumerate_T_st(4, 2, 1, "strict")
    assert HornTriple((1, 5), (1, 3), (1, 6)) in enumerate_T_st(4, 2, 2, "strict")
    with pytest.raises(ValueError):
        enumerate_T_st(4, 2, 2, "loose")


def test_T_st_strict_subset_of_tilde():
    for p in range(1, 7):
        strict = set(enumerate_T_st(4, 2, p, "strict"))
        tilde = set(enumerate_T_st(4, 2, p, "tilde"))
        assert strict <= tilde
        # the overflow-count lower bound: tilde members always have
        # #(I & M_s) + #(J & M_t) >= p
        for tri in tilde:
            low = len([i for i in tri.I if i <= 4]) + len(
                [j for j in tri.J if j <= 2]
            )
            assert low >= p


def test_T_st_known_sizes():
    sizes = {p: len(enumerate_T_st(4, 2, p, "strict")) for p in range(1, 7)}
    assert sizes == {1: 6, 2: 18, 3: 26, 4: 18, 5: 6, 6: 1}


def _initial_above(I, s):
    """Whether the part of I above s is an initial segment {s+1..s+alpha}."""
    above = [i for i in I if i > s]
    return above == list(range(s + 1, s + len(above) + 1))


def filtered_T_st(s, t, p, mode):
    """The block restriction by filtering all of T^{s+t}_p: the reference
    for the direct builder in ``enumerate_T_st``."""
    out = []
    for tri in reference_T(s + t, p):
        if not (_initial_above(tri.I, s) and _initial_above(tri.J, t)):
            continue
        if mode == "strict" and sum(i <= s for i in tri.I) + sum(j <= t for j in tri.J) != p:
            continue
        out.append(tri)
    return tuple(out)


def test_T_st_matches_filtered_T():
    shared = HornTable()
    for n in range(2, 8):
        for s in range(1, n):
            for p in range(1, n + 1):
                for mode in ("tilde", "strict"):
                    expected = filtered_T_st(s, n - s, p, mode)
                    for table in (HornTable(), shared, None):
                        got = enumerate_T_st(s, n - s, p, mode, table=table)
                        assert got == expected, (s, n - s, p, mode, table)


def test_selection_setup_is_shared_within_a_table():
    """The restrictions at p and at n - p select at the same (n, p) and
    share its packed set-up; another table sets up again."""
    table = HornTable()
    first = enumerate_T_st(3, 2, 1, "tilde", table=table)
    assert set(table._packed) == {(5, 1)}
    setup = table._packed[5, 1]
    enumerate_T_st(3, 2, 4, "tilde", table=table)  # the dual selection, at p = 1
    assert set(table._packed) == {(5, 1)} and table._packed[5, 1] is setup
    fresh = HornTable()
    assert fresh._packed == {}
    assert enumerate_T_st(3, 2, 1, "tilde", table=fresh) == first
    assert fresh._packed[5, 1] is not setup


def test_T_st_guards():
    for s, t in ((0, 3), (3, 0), (-1, 4), (0, 9)):
        with pytest.raises(ValueError, match=r"^need s, t >= 1$"):
            enumerate_T_st(s, t, 1)
    table = HornTable()
    with pytest.raises(ValueError, match=BEYOND):
        enumerate_T_st(6, 5, 1, table=table)
    assert table._tables == {} and table._packed == {}
    assert enumerate_T_st(5, 5, 1, table=table)
    for p in (0, 4):
        with pytest.raises(ValueError, match=rf"^need 1 <= p <= n, got p={p}, n=3$"):
            enumerate_T_st(2, 1, p)


def test_lidskii_facts():
    # J = {1..p} forces I = K; J = {s+1..s+p} forces K = I + s
    for n in range(2, 7):
        for p in range(1, n):
            for tri in enumerate_T(n, p):
                if tri.J == tuple(range(1, p + 1)):
                    assert tri.I == tri.K
                for s in range(1, n - p + 1):
                    if tri.J == tuple(range(s + 1, s + p + 1)):
                        assert tri.K == tuple(i + s for i in tri.I)


@pytest.mark.parametrize("n", range(2, 6))
def test_box_removal_closure(n):
    # a gap left of i_alpha can be shifted left together with some k_beta
    for p in range(1, n + 1):
        table = set(enumerate_T(n, p))
        for tri in table:
            I, J, K = tri
            for alpha, i_val in enumerate(I):
                prev = I[alpha - 1] if alpha else 0
                if i_val - prev <= 1:
                    continue
                new_I = tuple(sorted(set(I) - {i_val} | {i_val - 1}))
                found = False
                for beta, k_val in enumerate(K):
                    kprev = K[beta - 1] if beta else 0
                    if k_val - kprev <= 1:
                        continue
                    new_K = tuple(sorted(set(K) - {k_val} | {k_val - 1}))
                    if HornTriple(new_I, J, new_K) in table:
                        found = True
                        break
                assert found, (tri, alpha)


def test_table_memoization():
    table = HornTable()
    first = table.T(5, 2)
    assert table.T(5, 2) is first
    assert HornTable().T(5, 2) == first
    # a fresh table starts cold and builds only what T^6_3 recurses into;
    # T^3_2 is the dual of T^3_1, so T^2_1 is not built
    fresh = HornTable()
    assert fresh._tables == {}
    fresh.T(6, 3)
    assert set(fresh._tables) == {(6, 3), (3, 2), (3, 1)}
