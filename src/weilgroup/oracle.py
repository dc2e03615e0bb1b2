"""Independent brute-force oracles.

Everything in this module is deliberately first-principles so it can
arbitrate the combinatorial machinery elsewhere in the package:

* Littlewood-Richardson coefficients by direct skew tableau enumeration;
* Smith invariants of integer matrices by exact gcd elimination;
* exhaustive sweeps over block triangular matrices [[A, X], [0, B]];
* exhaustive sweeps over all 2x2 operators grouped by Newton polygon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .partitions import as_partition
from .polygon import is_prime, valuation

MAX_SWEEP_MATRICES = 1 << 20  # operator_group_oracle refuses larger sweeps


class PrecisionExhausted(ValueError):
    """Determinant valuation reached the working modulus; invariants unsafe."""


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
    unimodular diagonalization already equals that of the Smith form.
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
                diag.append(0)
                break
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
        else:
            continue
        if diag[-1] == 0:
            break
    while len(diag) < n:
        diag.append(0)
    return diag


def smith_invariants(
    matrix: Sequence[Sequence[int]],
    l: int,
    *,
    precision: int | None = None,
) -> tuple[int, ...]:
    """l-adic valuations of the Smith normal form diagonal, sorted descending.

    ``precision`` marks entries as representatives mod l**precision; the
    result is then the invariant tuple of the underlying l-adic matrix,
    valid only while v_l(det) stays below the precision (else
    :class:`PrecisionExhausted` is raised).
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    if not is_prime(l):
        raise ValueError(f"l={l} is not prime")
    diag = _diagonalize([list(map(int, row)) for row in matrix])
    if any(d == 0 for d in diag):
        if precision is not None:
            raise PrecisionExhausted(
                f"determinant vanishes mod l^{precision}; raise the precision"
            )
        raise ValueError("matrix is singular: cokernel is infinite")
    vals = sorted((valuation(d, l) for d in diag), reverse=True)
    if precision is not None and sum(vals) >= precision:
        raise PrecisionExhausted(
            f"determinant valuation {sum(vals)} >= precision {precision}"
        )
    return tuple(vals)


# ---------------------------------------------------------------------------
# Block triangular sweep


@dataclass(frozen=True)
class SweepResult:
    """Invariant tuples observed in a sweep; ``complete`` marks exhaustion."""

    invariants: frozenset[tuple[int, ...]]
    complete: bool
    space: int
    samples: int | None = None

    def sorted(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.invariants, reverse=True))


def matrix_cokernel_oracle(
    a: Sequence[int],
    b: Sequence[int],
    l: int,
    precision: int | None = None,
    *,
    budget: int = 200_000,
    seed: int = 0,
) -> SweepResult:
    """Invariants of C = [[A, X], [0, B]] over all X, A = diag(l^a), B = diag(l^b).

    Fixing A and B diagonal loses nothing: unimodular changes on either
    block absorb into X.  Adding A V + W B to X does not change the
    cokernel either, so entry (i, j) of X only matters modulo
    l^min(a_i, b_j); the sweep runs over that quotient and is therefore
    complete whenever its size fits the budget, else it samples uniformly
    with a fixed seed.
    """
    a = as_partition(a)
    b = as_partition(b)
    if not is_prime(l):
        raise ValueError(f"l={l} is not prime")
    s, t = len(a), len(b)
    min_precision = sum(a) + sum(b) + 1
    if precision is None:
        precision = min_precision
    if precision < min_precision:
        raise ValueError(
            f"precision {precision} < {min_precision} = sum(a)+sum(b)+1"
        )
    moduli = [[l ** min(a[i], b[j]) for j in range(t)] for i in range(s)]
    space = 1
    for row in moduli:
        for m in row:
            space *= m

    def invariants_for(flat: Sequence[int]) -> tuple[int, ...]:
        n = s + t
        mat = [[0] * n for _ in range(n)]
        for i in range(s):
            mat[i][i] = l ** a[i]
        for j in range(t):
            mat[s + j][s + j] = l ** b[j]
        it = iter(flat)
        for i in range(s):
            for j in range(t):
                mat[i][s + j] = next(it)
        return smith_invariants(mat, l)

    found: set[tuple[int, ...]] = set()
    if space <= budget:
        def rec(idx: int, flat: list[int]):
            if idx == s * t:
                found.add(invariants_for(flat))
                return
            i, j = divmod(idx, t)
            for v in range(moduli[i][j]):
                flat.append(v)
                rec(idx + 1, flat)
                flat.pop()
        rec(0, [])
        return SweepResult(frozenset(found), complete=True, space=space)
    rng = random.Random(seed)
    flat_moduli = [moduli[i][j] for i in range(s) for j in range(t)]
    for _ in range(budget):
        flat = [rng.randrange(m) for m in flat_moduli]
        found.add(invariants_for(flat))
    return SweepResult(frozenset(found), complete=False, space=space, samples=budget)


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

    ``slopes`` are the polygon's slopes (any order); their total must be an
    integer below the precision.  The sweep runs over all l**(4 * precision)
    matrices mod l**precision and is refused above MAX_SWEEP_MATRICES; it
    explodes combinatorially for operators beyond 2x2, which are not swept.
    """
    if not is_prime(l):
        raise ValueError(f"l={l} is not prime")
    key = tuple(sorted(Fraction(s) for s in slopes))
    if len(key) != 2:
        raise ValueError("a 2x2 operator has exactly two slopes")
    total = key[0] + key[1]
    if total.denominator != 1 or total >= precision:
        raise ValueError(
            f"slope total {total} must be an integer below precision {precision}"
        )
    if l ** (4 * precision) > MAX_SWEEP_MATRICES:
        raise ValueError(
            f"sweep size l^{4 * precision} exceeds MAX_SWEEP_MATRICES={MAX_SWEEP_MATRICES}"
        )
    table = _operator_sweep(l, precision)
    return table.get(key, frozenset())
