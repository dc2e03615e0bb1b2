import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from weilgroup import oracle
from weilgroup.horn import lambda_of
from weilgroup.oracle import (
    lr_coefficient,
    matrix_cokernel_oracle,
    operator_group_oracle,
    smith_invariants,
)


def test_lr_pieri():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1


def test_lr_known_multiplicity_two():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_zero_cases():
    assert lr_coefficient((3,), (1,), (2, 2)) == 0  # mu not inside lambda
    assert lr_coefficient((1,), (1,), (3,)) == 0  # size mismatch
    assert lr_coefficient((2, 2, 1, 1), (1, 1), (4, 2, 1, 1, 0, 0)) == 0


def test_lr_trivial_content():
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr_coefficient((2, 1), (), (3,)) == 0


small_partitions = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(small_partitions, small_partitions)
def test_lr_symmetric(mu, nu):
    total = sum(mu) + sum(nu)
    from weilgroup.partitions import partitions_of

    for lam in partitions_of(total, len(mu) + len(nu) or 1):
        assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


def conjugate(lam):
    """The conjugate partition: column c of the diagram has one cell per part > c.

    An independent reference for ``reduce._conjugate``; ``test_reduce``
    imports it too."""
    cols = Counter(c for part in lam for c in range(part))
    return tuple(cols[c] for c in range(len(cols)))


def test_lr_symmetries_on_horn_boxes():
    """c^lambda_{mu nu} = c^lambda_{nu mu} = c^{lambda'}_{mu' nu'} for every
    triple of partitions lambda(I) in the p x (n - p) box, n <= 5, of
    matching size: the symmetries the full-mode reduction computes once per
    class of."""
    triples = 0
    for n in range(2, 6):
        for p in range(1, n):
            box = {tuple(x for x in lambda_of(I) if x) for I in combinations(range(1, n + 1), p)}
            for mu, nu, lam in product(box, repeat=3):
                if sum(mu) + sum(nu) != sum(lam):
                    continue
                triples += 1
                c = lr_coefficient(mu, nu, lam)
                assert c == lr_coefficient(nu, mu, lam), (mu, nu, lam)
                assert c == lr_coefficient(conjugate(mu), conjugate(nu), conjugate(lam)), (mu, nu, lam)
    assert conjugate((3, 1)) == (2, 1, 1) and conjugate(()) == ()
    assert triples == 258


def test_lr_full_pieri_row():
    # multiplying by a one-row shape: one tableau per horizontal strip
    assert lr_coefficient((2, 1), (2,), (4, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 2)) == 1
    assert lr_coefficient((2, 1), (2,), (2, 2, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (3, 1, 1)) == 1
    assert lr_coefficient((2, 1), (2,), (2, 1, 1, 1)) == 0  # vertical pair of equal entries


def test_smith_invariants_examples():
    assert smith_invariants([[2, 1], [0, 2]], 2) == (2, 0)
    assert smith_invariants([[4, 0], [0, 2]], 2) == (2, 1)
    assert smith_invariants([[1, 0], [0, 1]], 2) == (0, 0)


def test_smith_invariants_diag_sorted():
    assert smith_invariants([[9, 0], [0, 3]], 3) == (2, 1)
    assert smith_invariants([[3, 0], [0, 9]], 3) == (2, 1)


def test_smith_invariants_errors():
    with pytest.raises(ValueError):
        smith_invariants([[0, 0], [0, 0]], 2)
    with pytest.raises(ValueError):
        smith_invariants([[1, 2]], 2)


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return m


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


@given(st.integers(0, 10_000))
def test_smith_invariants_unimodular_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    u = _random_unimodular(rng, n)
    v = _random_unimodular(rng, n)
    conj = _matmul(_matmul(u, m), v)
    for l in (2, 3):
        try:
            base = smith_invariants(m, l)
        except ValueError:
            continue
        assert smith_invariants(conj, l) == base


def test_matrix_oracle_examples():
    assert matrix_cokernel_oracle((1,), (1,), 2) == frozenset({(2, 0), (1, 1)})
    assert matrix_cokernel_oracle((1,), (0,), 2) == frozenset({(1, 0)})
    # one matrix, but its entry l^(10^5) needs a valuation in few divisions
    assert matrix_cokernel_oracle((10**5,), (0,), 3) == frozenset({(100000, 0)})


def test_matrix_oracle_reduced_sweep_equals_full_sweep():
    # justify the entry-modulus reduction against a literal mod-l^N sweep
    from weilgroup.oracle import smith_invariants as inv

    for a, b, l in (((1,), (1,), 2), ((2,), (1,), 2), ((1,), (1,), 3)):
        n_prec = sum(a) + sum(b) + 1
        full = set()
        for x in range(l**n_prec):
            full.add(inv([[l ** a[0], x], [0, l ** b[0]]], l))
        assert matrix_cokernel_oracle(a, b, l) == full


def test_matrix_oracle_refuses_large_sweeps():
    # 3^8 = 6561 classes fit MAX_BLOCK_SWEEP; the refusal names the limit
    assert (2, 2, 2, 2) in matrix_cokernel_oracle((2, 2), (2, 2), 3)
    with pytest.raises(ValueError, match=r"sweep size l\^12 exceeds MAX_BLOCK_SWEEP=200000"):
        matrix_cokernel_oracle((3, 3), (3, 3), 3)


def test_matrix_oracle_refusal_boundary(monkeypatch):
    """A sweep is answered up to the limit and refused one step above it."""
    monkeypatch.setattr(oracle, "MAX_BLOCK_SWEEP", 4)
    assert matrix_cokernel_oracle((2,), (2,), 2) == frozenset({(4, 0), (3, 1), (2, 2)})
    with pytest.raises(ValueError, match=r"l\^3 exceeds MAX_BLOCK_SWEEP=4"):
        matrix_cokernel_oracle((3,), (3,), 2)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: matrix_cokernel_oracle((10**5,), (10**5,), 3),
        lambda: operator_group_oracle((1, 2), 3, 3 * 10**6),
    ],
    ids=["matrix", "operator"],
)
def test_huge_sweeps_refused_at_once(sweep):
    """The refusal is decided from the exponent: no huge power is built."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds MAX_"):
        sweep()
    assert time.perf_counter() - start < 0.1


def test_operator_oracle_examples():
    assert operator_group_oracle((1, 2), 2, 4) == frozenset({(3, 0), (2, 1)})
    assert operator_group_oracle((0, 3), 2, 4) == frozenset({(3, 0)})
    assert operator_group_oracle((0, 0), 2, 4) == frozenset({(0, 0)})
    half = Fraction(1, 2)
    assert operator_group_oracle((half, half), 2, 4) == frozenset({(1, 0)})


def test_operator_oracle_guards():
    with pytest.raises(ValueError):
        operator_group_oracle((Fraction(1, 2), 1), 2, 4)  # non-integer total
    with pytest.raises(ValueError):
        operator_group_oracle((1, 2), 2, 6)  # sweep too large
    with pytest.raises(ValueError):
        operator_group_oracle((4, 1), 2, 4)  # total at precision
    with pytest.raises(ValueError, match="precision=4.0 is not an integer"):
        operator_group_oracle((1, 2), 2, 4.0)
    with pytest.raises(ValueError, match="precision=-1 must be at least 1"):
        operator_group_oracle((-1, -1), 2, -1)
    with pytest.raises(ValueError, match="precision=0 must be at least 1"):
        operator_group_oracle((-1, -1), 2, 0)
    with pytest.raises(ValueError, match="slope -1 is negative"):
        operator_group_oracle((-1, -1), 2, 1)


@pytest.mark.parametrize("args", [((1.2,), (1,), (2,)), ((1,), ("1",), (2,)), ((1,), (1,), (2.0,))])
def test_lr_coefficient_rejects_non_integers(args):
    """A non-integer part raises instead of being truncated (1.2 is not 1)."""
    with pytest.raises(ValueError, match="integers"):
        lr_coefficient(*args)
    assert lr_coefficient((True,), (1,), (2,)) == 1
