"""Independent brute-force oracles.

Everything in this module is deliberately first-principles so it can
arbitrate the combinatorial machinery elsewhere in the package:

* Littlewood-Richardson coefficients by direct skew tableau enumeration;
* Smith invariants of nonsingular integer matrices by exact gcd
  elimination, read l-adically over Z (no working modulus);
* exhaustive sweeps over block triangular matrices [[A, X], [0, B]];
* exhaustive sweeps over all 2x2 operators grouped by Newton polygon.

Each sweep is exhaustive, or refused with a ValueError before it starts
when its size exceeds its module constant below; nothing is sampled.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .partitions import as_integers, as_partition, as_size
from .polygon import as_prime, valuation

MAX_BLOCK_SWEEP = 200_000  # matrix_cokernel_oracle refuses larger sweeps (~10 s, 2-core Xeon)
MAX_SWEEP_MATRICES = 1 << 20  # operator_group_oracle refuses larger sweeps


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def lr_coefficient(
    mu: Sequence[int], nu: Sequence[int], lam: Sequence[int]
) -> int:
    """Number of LR skew tableaux of shape lam/mu with content nu.

    Rows weakly increase, columns strictly increase, and the reverse
    reading word is a lattice word; equivalently, for every row r and
    value v >= 2 the number of v's placed through row r never exceeds
    the number of (v-1)'s placed through row r-1.  Returns 0 whenever
    mu is not contained in lam or the sizes do not match.
    """
    mu = tuple(x for x in as_partition(mu) if x > 0)
    nu = tuple(x for x in as_partition(nu) if x > 0)
    lam = tuple(x for x in as_partition(lam) if x > 0)
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    if not nu:
        return 1 if mu == lam else 0
    rows = len(lam)
    mu_full = mu + (0,) * (rows - len(mu))
    nvals = len(nu)
    counts = [0] * (nvals + 1)

    def fill_row(r: int, col: int, prev_row: tuple[int, ...],
                 above: tuple[int, ...], row_vals: list[int]) -> int:
        if col == lam[r]:
            return place_rows(r + 1, tuple(row_vals))
        lo = 1
        if row_vals:
            lo = row_vals[-1]
        if col < len(prev_row):
            lo = max(lo, prev_row[col] + 1)
        total = 0
        for v in range(lo, nvals + 1):
            if counts[v] >= nu[v - 1]:
                continue
            # lattice: every v through row r needs a v-1 through row r-1
            if v > 1 and counts[v] >= above[v - 1]:
                continue
            counts[v] += 1
            row_vals.append(v)
            total += fill_row(r, col + 1, prev_row, above, row_vals)
            row_vals.pop()
            counts[v] -= 1
        return total

    def place_rows(r: int, prev_vals: tuple[int, ...]) -> int:
        if r == rows:
            return 1
        above = tuple(counts)  # value counts through row r-1
        prev_row = ((0,) * mu_full[r - 1] + prev_vals) if r > 0 else ()
        if lam[r] == mu_full[r]:
            return place_rows(r + 1, ())
        return fill_row(r, mu_full[r], prev_row, above, [])

    return place_rows(0, ())


# ---------------------------------------------------------------------------
# Smith invariants over Z, read l-adically


def _diagonalize(matrix: list[list[int]]) -> list[int]:
    """Diagonalize by unimodular row/column operations; returns the diagonal.

    No divisibility normalization: the multiset of l-adic valuations of any
    unimodular diagonalization already equals that of the Smith form.  A
    singular matrix raises ValueError: its cokernel is infinite.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    diag = []
    for top in range(n):
        # find a nonzero pivot of minimal absolute value
        while True:
            best = None
            for i in range(top, n):
                for j in range(top, n):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise ValueError("matrix is singular: cokernel is infinite")
            bi, bj = best
            m[top], m[bi] = m[bi], m[top]
            for row in m:
                row[top], row[bj] = row[bj], row[top]
            piv = m[top][top]
            done = True
            for i in range(top + 1, n):
                q = m[i][top] // piv
                if q:
                    for j in range(top, n):
                        m[i][j] -= q * m[top][j]
                if m[i][top]:
                    done = False
            for j in range(top + 1, n):
                q = m[top][j] // piv
                if q:
                    for i in range(top, n):
                        m[i][j] -= q * m[i][top]
                if m[top][j]:
                    done = False
            if done:
                diag.append(piv)
                break
    return diag


def smith_invariants(matrix: Sequence[Sequence[int]], l: int) -> tuple[int, ...]:
    """l-adic valuations of the Smith normal form diagonal, sorted descending.

    The matrix must be nonsingular: its cokernel is then finite, and a
    singular matrix raises ValueError.  The entries and l are taken
    through ``operator.index``: a float raises ValueError, not a truncation.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    l = as_prime(l)
    diag = _diagonalize([list(as_integers(row)) for row in matrix])
    return tuple(sorted((valuation(d, l) for d in diag), reverse=True))


# ---------------------------------------------------------------------------
# Block triangular sweep


def _refuse_large_sweep(l: int, exponent: int, limit: int, name: str) -> None:
    """Refuse a sweep over l**exponent matrices when it exceeds ``limit``.

    Decided from the exponent first (l >= 2, so l**exponent > limit once
    exponent reaches limit.bit_length()): no large power of l is built.
    """
    if exponent >= limit.bit_length() or l**exponent > limit:
        raise ValueError(f"sweep size l^{exponent} exceeds {name}={limit}")


def matrix_cokernel_oracle(
    a: Sequence[int], b: Sequence[int], l: int
) -> frozenset[tuple[int, ...]]:
    """Invariants of C = [[A, X], [0, B]] over all X, A = diag(l^a), B = diag(l^b).

    Fixing A and B diagonal loses nothing: unimodular changes on either
    block absorb into X.  Adding A V + W B to X does not change the
    cokernel either, so entry (i, j) of X only matters modulo
    l^min(a_i, b_j).  The sweep runs over all of that quotient and is
    refused when its size exceeds MAX_BLOCK_SWEEP.
    """
    a = as_partition(a)
    b = as_partition(b)
    l = as_prime(l)
    s, t = len(a), len(b)
    exponents = [min(ai, bj) for ai in a for bj in b]
    _refuse_large_sweep(l, sum(exponents), MAX_BLOCK_SWEEP, "MAX_BLOCK_SWEEP")
    mat = [[0] * (s + t) for _ in range(s + t)]
    for k, e in enumerate(a + b):
        mat[k][k] = l**e
    found = set()
    for xs in product(*(range(l**e) for e in exponents)):
        for k, x in enumerate(xs):
            mat[k // t][s + k % t] = x
        found.add(smith_invariants(mat, l))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Exhaustive 2x2 operator sweep


@lru_cache(maxsize=None)
def _operator_sweep(l: int, precision: int) -> dict[tuple[Fraction, Fraction], frozenset[tuple[int, ...]]]:
    """Map each Newton polygon (slope pair, ascending) to the cokernel
    invariant pairs observed over all 2x2 matrices mod l**precision.

    Matrices whose determinant vanishes mod l**precision are skipped; the
    map is trustworthy for polygons of total valuation below the precision.
    """
    ln = l ** precision
    out: dict[tuple[Fraction, Fraction], set[tuple[int, ...]]] = {}
    for a in range(ln):
        for d in range(ln):
            tr = a + d
            v_tr = valuation(tr, l) if tr % ln else None
            for b in range(ln):
                for c in range(ln):
                    det = a * d - b * c
                    if det % ln == 0:
                        continue
                    v_det = valuation(det, l)
                    if v_tr is None or 2 * v_tr >= v_det:
                        slopes = (Fraction(v_det, 2), Fraction(v_det, 2))
                    else:
                        slopes = (Fraction(v_tr), Fraction(v_det - v_tr))
                    v_min = min(
                        (valuation(x, l) for x in (a, b, c, d) if x % ln),
                        default=precision,
                    )
                    inv = (v_det - v_min, v_min)
                    out.setdefault(slopes, set()).add(inv)
    return {k: frozenset(v) for k, v in out.items()}


def operator_group_oracle(
    slopes: Sequence[Fraction | int], l: int, precision: int
) -> frozenset[tuple[int, ...]]:
    """Cokernel invariant pairs of all 2x2 operators with the given Newton polygon.

    ``slopes`` are the polygon's slopes (any order), nonnegative; their
    total must be an integer below the precision, which is at least 1.
    The sweep runs over all l**(4 * precision) matrices mod l**precision
    and is refused above MAX_SWEEP_MATRICES; it explodes combinatorially
    for operators beyond 2x2, which are not swept.
    """
    l = as_prime(l)
    precision = as_size(precision, "precision")
    if precision < 1:
        raise ValueError(f"precision={precision} must be at least 1")
    key = tuple(sorted(Fraction(s) for s in slopes))
    if len(key) != 2:
        raise ValueError("a 2x2 operator has exactly two slopes")
    if key[0] < 0:
        raise ValueError(f"slope {key[0]} is negative: Newton slopes are nonnegative")
    total = key[0] + key[1]
    if total.denominator != 1 or total >= precision:
        raise ValueError(
            f"slope total {total} must be an integer below precision {precision}"
        )
    _refuse_large_sweep(l, 4 * precision, MAX_SWEEP_MATRICES, "MAX_SWEEP_MATRICES")
    table = _operator_sweep(l, precision)
    return table.get(key, frozenset())
