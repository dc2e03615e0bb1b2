"""Exact rational implication tests for homogeneous linear inequality systems.

Everything here works over cones {x : G x >= 0} with integer coefficient
rows (any equality is eliminated by substitution before reaching this
module).  The question "is row i implied by the other rows?" is decided
exactly.

A system is one :class:`Cone`: one HiGHS model over G x >= 0 and the box
-1 <= x <= 1, built once.  Testing row i frees that row, sets the cost to
it and solves min g_i . x from the basis the previous test left (a warm
start: the tests of one system differ only in the cost and in which row is
free), then restores the row; a row found redundant can be dropped, that
is freed for good.  The model is scipy's private HiGHS binding, the one
``scipy.optimize.linprog`` drives, used directly because that public
wrapper rebuilds the model and re-checks its options on every call, which
cost more than the solves.  Each solve proposes a certificate either way:

* a negative optimum proposes its optimal point x, which is rationalised,
  scaled to an integer vector and accepted as a refutation only if
  g_i . x < 0 and g_j . x >= 0 hold in integer arithmetic for every other
  active row;
* otherwise the row duals lambda propose a Farkas certificate; the system
  sum mu_j g_j = g_i over the support of lambda is solved by fraction-free
  elimination and accepted only if it is consistent with mu >= 0, checked
  again as an integer identity.

No float tolerance decides a verdict.  When neither proposal passes its
check, an exact phase-1 simplex over Fractions decides instead, so a
change in how HiGHS behaves (another basis, a failed warm start) can cost
time but never give a wrong verdict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import NamedTuple, Sequence

Row = tuple[int, ...]

# Duals at or below this size are left out of the proposed support; the
# exact check on the support decides whatever is chosen.
_SUPPORT_CUTOFF = 1e-9


class Cone:
    """The cone {x : G x >= 0} in the box -1 <= x <= 1, as one HiGHS model.

    Row i of G is model row i with bounds [0, inf), so indices stay
    stable while rows are tested and dropped.  A cone with no rows builds
    no model.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [tuple(r) for r in rows]
        self.active = [True] * len(self.rows)
        if not self.rows:
            return
        # the private binding that scipy's own linprog drives; importing it
        # imports scipy.optimize, which classification never needs
        from scipy.optimize._highspy._core import HighsModelStatus, _Highs

        self._optimal = HighsModelStatus.kOptimal
        dim = len(self.rows[0])
        starts, index, value = [], [], []
        for row in self.rows:
            starts.append(len(index))
            for j, v in enumerate(row):
                if v:
                    index.append(j)
                    value.append(v)
        self._highs = highs = _Highs()
        highs.setOptionValue("output_flag", False)
        highs.addVars(dim, [-1.0] * dim, [1.0] * dim)
        m = len(self.rows)
        highs.addRows(m, [0.0] * m, [inf] * m, len(index), starts, index, value)
        self._columns = range(dim)

    def drop(self, i: int) -> None:
        """Free row i for good: it no longer constrains any later test."""
        self.active[i] = False
        self._highs.changeRowBounds(i, -inf, inf)

    def others(self, i: int) -> list[Row]:
        """The active rows other than row i, in index order."""
        return [r for j, r in enumerate(self.rows) if self.active[j] and j != i]


class Solution(NamedTuple):
    success: bool
    fun: float
    x: list[float]
    duals: list[float]  # one per cone row; nonnegative on rows at their bound


def linprog(cone: Cone, i: int) -> Solution:
    """min row_i . x over the cone with row i freed, from the last basis."""
    highs = cone._highs
    highs.changeRowBounds(i, -inf, inf)
    highs.changeColsCost(len(cone._columns), cone._columns, cone.rows[i])
    highs.run()
    solution = highs.getSolution()
    result = Solution(
        highs.getModelStatus() == cone._optimal,
        highs.getObjectiveValue(),
        solution.col_value,
        solution.row_dual,
    )
    if cone.active[i]:
        highs.changeRowBounds(i, 0.0, inf)
    return result


def _farkas_implied(phi: Row, rows: list[Row]) -> bool:
    """Exact phase-1 simplex: is phi a nonnegative combination of rows?

    Solves min sum(artificials) s.t. A lam + artificials = phi, lam >= 0
    with Bland's rule; optimum 0 iff the combination exists.
    """
    m = len(phi)
    ncols = len(rows)
    # tableau rows: m equations; columns: ncols generators + m artificials, then rhs
    tab = [[Fraction(0)] * (ncols + m + 1) for _ in range(m)]
    for i in range(m):
        sign = 1 if phi[i] >= 0 else -1
        for j, row in enumerate(rows):
            tab[i][j] = Fraction(sign * row[i])
        tab[i][ncols + i] = Fraction(1)
        tab[i][-1] = Fraction(sign * phi[i])
    basis = [ncols + i for i in range(m)]
    # objective: minimize sum of artificial variables
    cost = [Fraction(0)] * (ncols + m)
    for j in range(ncols, ncols + m):
        cost[j] = Fraction(1)

    def reduced_costs() -> list[Fraction]:
        # z_j - c_j for minimization with current basis (cost of basics is 1 or 0)
        out = []
        for j in range(ncols + m):
            zj = sum(cost[basis[i]] * tab[i][j] for i in range(m))
            out.append(zj - cost[j])
        return out

    while True:
        rc = reduced_costs()
        enter = next((j for j in range(ncols + m) if rc[j] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break  # unbounded cannot happen in phase 1; defensive
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        basis[leave] = enter
    objective = sum(cost[basis[i]] * tab[i][-1] for i in range(m))
    return objective == 0


def _idot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(r * xi for r, xi in zip(row, x))


def _integer_point(values: Sequence[float]) -> list[int]:
    """The float point rationalised coordinatewise and scaled to integers."""
    fracs = [Fraction(v).limit_denominator(10**7) for v in values]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def _refutes(phi: Row, rows: list[Row], x: Sequence[int]) -> bool:
    """Integer check that x satisfies every row and violates phi."""
    return _idot(phi, x) < 0 and all(_idot(r, x) >= 0 for r in rows)


def _nonnegative_combination(phi: Row, gens: list[Row]) -> bool:
    """Exact check that phi = sum mu_i gens_i with every mu_i >= 0.

    Solves the system by fraction-free Gauss-Jordan elimination on the
    integer columns gens, with free variables set to 0, so a True answer
    is one explicit certificate; False means only that this solution
    fails, not that no certificate exists.
    """
    k = len(gens)
    # one augmented equation per coordinate: sum_i mu_i gens_i[c] = phi[c]
    eqs = [[g[c] for g in gens] + [phi[c]] for c in range(len(phi))]
    pivots: list[int] = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, len(eqs)) if eqs[i][col]), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        prow = eqs[r]
        p = prow[col]
        for i, eq in enumerate(eqs):
            f = eq[col]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(eq, prow)]
                d = gcd(*new)
                eqs[i] = [a // d for a in new] if d > 1 else new
        pivots.append(col)
    if any(eq[-1] for eq in eqs[len(pivots):]):
        return False  # phi is not in the span of the support
    # mu_col = rhs / pivot on each pivot row; free columns stay 0
    denom = lcm(*(abs(eqs[r][col]) for r, col in enumerate(pivots)))
    mu = [0] * k
    for r, col in enumerate(pivots):
        mu[col] = eqs[r][-1] * (denom // eqs[r][col])
    if any(v < 0 for v in mu):
        return False
    # the certificate itself, re-checked as an integer identity
    return all(
        sum(v * g[c] for v, g in zip(mu, gens)) == denom * phi[c] for c in range(len(phi))
    )


def is_implied(cone: Cone, i: int) -> bool:
    """Exact decision: do the other active rows of the cone imply row i?"""
    phi = cone.rows[i]
    rows = cone.others(i)
    res = linprog(cone, i)
    if res.success:
        if res.fun < 0 and _refutes(phi, rows, _integer_point(res.x)):
            return False
        support = [
            r
            for j, (r, lam) in enumerate(zip(cone.rows, res.duals))
            if lam > _SUPPORT_CUTOFF and cone.active[j] and j != i
        ]
        if _nonnegative_combination(phi, support):
            return True
    return _farkas_implied(phi, rows)
