"""Redundancy analysis for Horn inequality systems, decided exactly.

Two settings:

* ``smith`` mode: the block system at sizes (s, t).  Variables are the
  partitions a (length s), b (length t), c (length s+t), constrained by
  orderings, nonnegativity and the trace equality.  Candidate rows are the
  tilde-restricted inequalities; rows outside the strict restriction are
  provably subsumed and are pruned structurally first.  The rest go through
  one :class:`~weilgroup.linprog.Cone` per system, a double description
  decided in integers: each candidate in turn is tested against the other
  active rows, and a removed candidate is dropped from the cone.  The cone
  carries the direct sum of :func:`_direct_sum_point`, which orders the
  rows of the double description (rows tight there first).

* ``full`` mode: the eigenvalue system at ambient n = s+t.  Variables are
  three weakly decreasing real n-tuples (no nonnegativity) with the trace
  equality; candidates are all T^n_p rows for p < n.  No cone is built: a
  Horn row is irredundant iff its Littlewood-Richardson coefficient
  c^{lambda(K)}_{lambda(I) lambda(J)} is 1 (Belkale, "Local systems on
  P^1 - S for S a finite set", Compositio 2001; Knutson, Tao and Woodward,
  "The honeycomb model of GL_n(C) tensor products II: Puzzles determine
  facets of the Littlewood-Richardson cone", JAMS 2004).  No two
  candidates share a functional there, so the verdicts do not depend on
  the order in which candidates are processed.  Every T^n_p row has a
  positive coefficient (Knutson and Tao 1999, the characterisation behind
  the duality in :mod:`weilgroup.horn`), and a product with a one-row or
  one-column partition is multiplicity free (Pieri's rule; Macdonald,
  *Symmetric Functions and Hall Polynomials*, I.5), so a row whose mu or
  nu is a single row or a single column has coefficient 1 and needs no
  count.  Every other row counts its tableaux once, with no memo: that
  leaves 2 of the 142 rows at n = 5 and 55 of the 522 at n = 6.

The trace equality is eliminated by substituting the last c variable, so a
row and its complement collapse to the same functional.  The coordinate
layout (a, then b, then every c but the last) and that substitution live
only in :func:`_functional`, :func:`_base_rows`, :func:`_scalar_base` and
:func:`_direct_sum_point`.  :func:`_block_cone` builds a system's cone from
them, for :func:`reduce_system` and for the implication checks of
:mod:`weilgroup.verify`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Literal, NamedTuple, Sequence

from .horn import HornTable, HornTriple, enumerate_T, enumerate_T_st, lambda_of
from .linprog import Cone, is_implied
from .oracle import count_lr_tableaux
from .partitions import as_size
from .smith import SmithInequality, _block_sizes, _restricted, format_inequality


class ReducedSystem(NamedTuple):
    s: int
    t: int
    mode: str
    kept: tuple[SmithInequality, ...]
    removed_structural: tuple[SmithInequality, ...]
    removed_implied: tuple[SmithInequality, ...]

    def _pretty(self, iq: SmithInequality) -> str:
        """One row as this system prints it: a single b under scalar_b."""
        return format_inequality(*iq.key(), self.mode.endswith("+scalar_b"))

    def pretty_lines(self) -> list[str]:
        lines = [f"minimal system for (s, t) = ({self.s}, {self.t}), mode {self.mode}"]
        lines += ["  " + self._pretty(iq) for iq in self.kept]
        if self.removed_structural:
            lines.append("removed without LP (outside the strict restriction):")
            lines += ["  " + self._pretty(iq) for iq in self.removed_structural]
        if self.removed_implied:
            lines.append("removed as implied by the rest:")
            lines += ["  " + self._pretty(iq) for iq in self.removed_implied]
        return lines


def _eliminate_trace(raw: list[int], na: int, nb: int) -> tuple[int, ...]:
    """Drop the last c coordinate of a functional over (a, b, c).

    ``raw`` has one coefficient per part: a (na), b (nb), then c.  The
    trace gives c_last = sum(a) + sum(b) - (the other c), which is
    substituted, so the result lives on a, b and all c but the last.
    """
    x = raw[-1]
    edge = na + nb
    return tuple(
        [v + x for v in raw[:edge]] + [v - x for v in raw[edge:-1]]
    )


def _functional(
    a_idx: Sequence[int],
    b_idx: Sequence[int],
    c_idx: Sequence[int],
    sizes: tuple[int, int, int],
    sign: int = 1,
) -> tuple[int, ...]:
    """sign * (sum a[a_idx] + sum b[b_idx] - sum c[c_idx]), trace eliminated.

    Indices are 1-based and ``sizes`` are the lengths of a, b and c; a
    repeated index adds up, as in printed rows.  The row is written in one
    list: it starts from the substitution of the last c (its coefficient x
    added on a and b, subtracted on c, as in :func:`_eliminate_trace`), and
    the slot of the last c is cut off at the end.
    """
    na, nb, nc = sizes
    edge = na + nb
    x = -sign * c_idx.count(nc)
    row = [x] * edge + [-x] * nc
    for i in a_idx:
        row[i - 1] += sign
    for j in b_idx:
        row[na + j - 1] += sign
    for k in c_idx:
        row[edge + k - 1] -= sign
    return tuple(row[:-1])


def _base_rows(sizes: tuple[int, int, int], nonnegative: bool) -> list[tuple[int, ...]]:
    """Each block's ordering rows and, with ``nonnegative``, its last part >= 0.

    Rows come block by block (a, b, then c), in the coordinates of
    :func:`_functional`.
    """
    rows = []
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):  # x_i >= x_{i+1}
            raw = [0] * sum(sizes)
            raw[i], raw[i + 1] = 1, -1
            rows.append(raw)
        if nonnegative:
            raw = [0] * sum(sizes)
            raw[start + size - 1] = 1
            rows.append(raw)
        start += size
    return [_eliminate_trace(raw, *sizes[:2]) for raw in rows]


def _direct_sum_point(s: int, t: int, scalar_b: bool) -> tuple[int, ...]:
    """The direct sum a = (s, ..., 1), b = (t, ..., 1), c = a and b merged descending.

    A point of the block cone in the coordinates of :func:`_functional`:
    the last c is dropped.  Under ``scalar_b`` every b part is 1 and so is
    the single b coordinate.
    """
    a = tuple(range(s, 0, -1))
    b = (1,) * t if scalar_b else tuple(range(t, 0, -1))
    c = sorted(a + b, reverse=True)[:-1]
    return a + (b[:1] if scalar_b else b) + tuple(c)


def _scalarize_b(row: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    """Collapse the b-block of a smith-mode row to a single coordinate."""
    b_total = sum(row[s : s + t])
    return row[:s] + (b_total,) + row[s + t :]


def _scalar_base(base: list[tuple[int, ...]], s: int, t: int) -> list[tuple[int, ...]]:
    """Base rows with b scalarised, first copies only, zero rows dropped."""
    return [r for r in dict.fromkeys(_scalarize_b(r, s, t) for r in base) if any(r)]


def _block_cone(rows: list[tuple[int, ...]], s: int, t: int, scalar_b: bool) -> Cone:
    """The cone of ``rows`` (coordinates of :func:`_functional`, b scalarised
    under ``scalar_b``) and the base rows at sizes (s, t), nonnegativity
    included, at the direct-sum point; row k of the cone is ``rows[k]``."""
    base = _base_rows((s, t, s + t), True)
    if scalar_b:
        base = _scalar_base(base, s, t)
    return Cone(rows + base, _direct_sum_point(s, t, scalar_b))


def reduce_system(
    s: int,
    t: int,
    mode: Literal["smith", "full"] = "smith",
    *,
    scalar_b: bool = False,
    table: HornTable | None = None,
) -> ReducedSystem:
    """Remove every inequality implied by the rest of the system.

    ``smith`` mode reduces the block system (candidates: tilde restriction,
    with non-strict rows pruned structurally first).  ``full`` mode reduces
    the plain eigenvalue system at n = s+t.  With ``scalar_b`` the b-block
    is identified to a single repeated value b_1 = ... = b_t (the case of a
    scalar second block); rows that become identical are merged, keeping
    the first representative.  Candidates are processed in canonical order;
    orderings, nonnegativity and the trace are always kept.  ``table`` is
    the Horn table to read (the shared one of :mod:`weilgroup.horn` when
    None); the result itself is not memoised.
    """
    s, t = _block_sizes(s, t)
    n = s + t
    if mode == "smith":
        cands: list[SmithInequality] = []
        structural: list[SmithInequality] = []
        for p in range(1, n):
            for tri in enumerate_T_st(s, t, p, "tilde", table=table):
                iq = _restricted(tri, s, t)
                # strict iff the restriction keeps all p indices of I and J
                (cands if len(iq.a_idx) + len(iq.b_idx) == p else structural).append(iq)
        rows = [_functional(*iq.key(), (s, t, n)) for iq in cands]  # parallel to cands
        if scalar_b:
            seen: set[tuple[int, ...]] = set()
            merged: list[SmithInequality] = []
            merged_rows: list[tuple[int, ...]] = []
            for iq, row in zip(cands, rows):
                row = _scalarize_b(row, s, t)
                if row in seen:
                    structural.append(iq)
                else:
                    seen.add(row)
                    merged.append(iq)
                    merged_rows.append(row)
            cands, rows = merged, merged_rows
        cone = _block_cone(rows, s, t, scalar_b)
        kept: list[SmithInequality] = []
        removed: list[SmithInequality] = []
        for k, iq in enumerate(cands):
            if is_implied(cone, k):
                cone.drop(k)
                removed.append(iq)
            else:
                kept.append(iq)
    elif mode == "full":
        if scalar_b:
            raise ValueError("scalar_b applies to smith mode only")
        structural = []
        kept, removed = [], []
        for tri, facet in _full_rows(n, table):
            iq = SmithInequality(tri.I, tri.J, tri.K, triple=tri)
            (kept if facet else removed).append(iq)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ReducedSystem(
        s=s,
        t=t,
        mode=mode + ("+scalar_b" if scalar_b else ""),
        kept=tuple(kept),
        removed_structural=tuple(structural),
        removed_implied=tuple(removed),
    )


def _full_rows(n: int, table: HornTable | None) -> list[tuple[HornTriple, bool]]:
    """Each T^n_p row, p < n, with whether it is irredundant in the full system:
    its LR coefficient is 1.  Each index set's partition (zero parts
    stripped) is built once, so the counts take it unchecked.  A row whose
    mu or nu is a single row or a single column has coefficient 1 without a
    count (module docstring); every other row counts its tableaux once."""
    tables = [enumerate_T(n, p, table=table) for p in range(1, n)]  # refuses n > DESK_SCALE_N first
    lam = {
        I: tuple(x for x in lambda_of(I) if x)
        for p in range(1, n)
        for I in combinations(range(1, n + 1), p)
    }
    pieri = {I: len(x) <= 1 or x[0] == 1 for I, x in lam.items()}
    out = []
    for rows in tables:
        for tri in rows:
            I, J, K = tri
            facet = pieri[I] or pieri[J] or count_lr_tableaux(lam[I], lam[J], lam[K]) == 1
            out.append((tri, facet))
    return out


def redundant_members_full(n: int, *, table: HornTable | None = None) -> tuple[HornTriple, ...]:
    """Rows of the full eigenvalue system each implied by all the others.

    These are the T^n_p rows whose LR coefficient exceeds 1 (see the module
    docstring); the answer does not depend on processing order.
    """
    n = as_size(n, "n")
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(tri for tri, facet in _full_rows(n, table) if not facet)
