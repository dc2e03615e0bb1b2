"""Redundancy analysis for Horn inequality systems, decided by exact LP.

Two settings share the machinery:

* ``smith`` mode: the block system at sizes (s, t).  Variables are the
  partitions a (length s), b (length t), c (length s+t), constrained by
  orderings, nonnegativity and the trace equality.  Candidate rows are the
  tilde-restricted inequalities; rows outside the strict restriction are
  provably subsumed and can be pruned structurally before the LP pass.

* ``full`` mode: the eigenvalue system at ambient n = s+t.  Variables are
  three weakly decreasing real n-tuples (no nonnegativity) with the trace
  equality; candidates are all T^n_p rows for p < n.

An inequality is redundant iff its maximal violation subject to all other
rows is <= 0.  Over these homogeneous cones one HiGHS solve proposes either
a refutation point or Farkas multipliers, and integer arithmetic decides:
the point must violate the row and satisfy the rest, the multipliers must
be nonnegative and reproduce the row exactly (linprog module, which falls
back to an exact Fraction simplex when neither check passes).
The trace equality is eliminated by substituting the last c variable, so a
row and its complement collapse to the same functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .horn import HornTable, HornTriple, enumerate_T, enumerate_T_st
from .linprog import is_implied
from .smith import SmithInequality, _restricted


@dataclass(frozen=True)
class ReducedSystem:
    s: int
    t: int
    mode: str
    kept: tuple[SmithInequality, ...]
    removed_structural: tuple[SmithInequality, ...]
    removed_implied: tuple[SmithInequality, ...]

    def pretty_lines(self) -> list[str]:
        lines = [f"minimal system for (s, t) = ({self.s}, {self.t}), mode {self.mode}"]
        lines += ["  " + iq.pretty() for iq in self.kept]
        if self.removed_structural:
            lines.append("removed without LP (outside the strict restriction):")
            lines += ["  " + iq.pretty() for iq in self.removed_structural]
        if self.removed_implied:
            lines.append("removed as implied by the rest:")
            lines += ["  " + iq.pretty() for iq in self.removed_implied]
        return lines


def _zvars_smith(s: int, t: int) -> int:
    # coordinates: a_1..a_s, b_1..b_t, c_1..c_{s+t-1}; last c eliminated
    return s + t + (s + t) - 1


def _scalarize_b(row: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    """Collapse the b-block of a smith-mode row to a single coordinate."""
    b_total = sum(row[s : s + t])
    return row[:s] + (b_total,) + row[s + t :]


def _smith_row(iq: SmithInequality, s: int, t: int) -> tuple[int, ...]:
    """Coefficient row of the inequality in trace-eliminated coordinates."""
    n = s + t
    row = [0] * _zvars_smith(s, t)
    for i in iq.a_idx:
        row[i - 1] += 1
    for j in iq.b_idx:
        row[s + j - 1] += 1
    for k in iq.c_idx:
        if k < n:
            row[s + t + k - 1] -= 1
        else:
            # c_n = sum(a) + sum(b) - c_1 - ... - c_{n-1}
            for i in range(s):
                row[i] -= 1
            for j in range(t):
                row[s + j] -= 1
            for k2 in range(n - 1):
                row[s + t + k2] += 1
    return tuple(row)


def _smith_base_rows(s: int, t: int) -> list[tuple[int, ...]]:
    n = s + t
    nz = _zvars_smith(s, t)
    rows: list[list[int]] = []

    def unit(idx: int, sign: int) -> list[int]:
        row = [0] * nz
        row[idx] = sign
        return row

    for i in range(s - 1):  # a_i >= a_{i+1}
        row = [0] * nz
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    rows.append(unit(s - 1, 1))  # a_s >= 0
    for j in range(t - 1):
        row = [0] * nz
        row[s + j], row[s + j + 1] = 1, -1
        rows.append(row)
    rows.append(unit(s + t - 1, 1))  # b_t >= 0
    for k in range(n - 2):  # c_k >= c_{k+1} for k < n-1
        row = [0] * nz
        row[s + t + k], row[s + t + k + 1] = 1, -1
        rows.append(row)
    # functional for the eliminated c_n = sum(a) + sum(b) - c_1 - .. - c_{n-1}
    cn = [0] * nz
    for i in range(s + t):
        cn[i] = 1
    for k in range(n - 1):
        cn[s + t + k] = -1
    prev = [0] * nz
    prev[s + t + n - 2] = 1
    rows.append([x - y for x, y in zip(prev, cn)])  # c_{n-1} - c_n >= 0
    rows.append(cn)  # c_n >= 0
    return [tuple(r) for r in rows]


def _full_row(triple: HornTriple, n: int) -> tuple[int, ...]:
    """Eigenvalue-setting row for (I, J, K), c_n eliminated by the trace."""
    row = [0] * (3 * n - 1)
    I, J, K = triple
    for i in I:
        row[i - 1] += 1
    for j in J:
        row[n + j - 1] += 1
    for k in K:
        if k < n:
            row[2 * n + k - 1] -= 1
        else:
            for i in range(n):
                row[i] -= 1
                row[n + i] -= 1
            for k2 in range(n - 1):
                row[2 * n + k2] += 1
    return tuple(row)


def _full_base_rows(n: int) -> list[tuple[int, ...]]:
    nz = 3 * n - 1
    rows: list[list[int]] = []
    for block, length in ((0, n), (n, n)):
        for i in range(length - 1):
            row = [0] * nz
            row[block + i], row[block + i + 1] = 1, -1
            rows.append(row)
    for k in range(n - 2):
        row = [0] * nz
        row[2 * n + k], row[2 * n + k + 1] = 1, -1
        rows.append(row)
    # c_{n-1} >= c_n with c_n = sum(a) + sum(b) - c_1 - .. - c_{n-1}
    row = [0] * nz
    row[2 * n + n - 2] = 1
    for i in range(2 * n):
        row[i] -= 1
    for k2 in range(n - 1):
        row[2 * n + k2] += 1
    rows.append(row)
    return [tuple(r) for r in rows]


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
    orderings, nonnegativity and the trace are always kept.
    """
    if table is None:
        return _reduce_system_cached(s, t, mode, scalar_b)
    return _reduce_system_impl(s, t, mode, scalar_b, table)


@lru_cache(maxsize=None)
def _reduce_system_cached(s: int, t: int, mode: str, scalar_b: bool) -> ReducedSystem:
    return _reduce_system_impl(s, t, mode, scalar_b, None)


def _reduce_system_impl(
    s: int,
    t: int,
    mode: str,
    scalar_b: bool,
    table: HornTable | None,
) -> ReducedSystem:
    n = s + t
    if n > 6:
        raise ValueError(f"s+t={n} exceeds desk scale 6")
    if mode == "smith":
        cands: list[SmithInequality] = []
        structural: list[SmithInequality] = []
        for p in range(1, n):
            strict = set(enumerate_T_st(s, t, p, "strict", table=table))
            for tri in enumerate_T_st(s, t, p, "tilde", table=table):
                iq = _restricted(tri, s, t)
                if tri in strict:
                    cands.append(iq)
                else:
                    structural.append(iq)
        rows = {iq: _smith_row(iq, s, t) for iq in cands + structural}
        base = _smith_base_rows(s, t)
        if scalar_b:
            rows = {iq: _scalarize_b(r, s, t) for iq, r in rows.items()}
            base = [_scalarize_b(r, s, t) for r in base]
            base = [r for r in dict.fromkeys(base) if any(r)]
            seen: dict[tuple[int, ...], SmithInequality] = {}
            merged: list[SmithInequality] = []
            for iq in cands:
                if rows[iq] in seen:
                    structural.append(iq)
                else:
                    seen[rows[iq]] = iq
                    merged.append(iq)
            cands = merged
    elif mode == "full":
        if scalar_b:
            raise ValueError("scalar_b applies to smith mode only")
        cands = []
        structural = []
        for p in range(1, n):
            for tri in enumerate_T(n, p, table=table):
                cands.append(SmithInequality(tri.I, tri.J, tri.K, triple=tri))
        rows = {iq: _full_row(iq.triple, n) for iq in cands}
        base = _full_base_rows(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    kept = list(cands)
    removed: list[SmithInequality] = []
    for iq in list(cands):
        others = [rows[o] for o in kept if o is not iq] + base
        if is_implied(rows[iq], others):
            kept.remove(iq)
            removed.append(iq)
    return ReducedSystem(
        s=s,
        t=t,
        mode=mode + ("+scalar_b" if scalar_b else ""),
        kept=tuple(kept),
        removed_structural=tuple(structural),
        removed_implied=tuple(removed),
    )


def redundant_members_full(n: int, *, table: HornTable | None = None) -> tuple[HornTriple, ...]:
    """Rows of the full eigenvalue system each implied by all the others.

    Non-sequential test: every candidate is checked against the complete
    system minus itself, so the answer does not depend on processing order.
    """
    if table is None:
        return _redundant_members_full_cached(n)
    return _redundant_members_full_impl(n, table)


@lru_cache(maxsize=None)
def _redundant_members_full_cached(n: int) -> tuple[HornTriple, ...]:
    return _redundant_members_full_impl(n, None)


def _redundant_members_full_impl(
    n: int, table: HornTable | None
) -> tuple[HornTriple, ...]:
    cands: list[HornTriple] = []
    for p in range(1, n):
        cands.extend(enumerate_T(n, p, table=table))
    rows = [_full_row(tri, n) for tri in cands]
    base = _full_base_rows(n)
    out = []
    for idx, tri in enumerate(cands):
        others = rows[:idx] + rows[idx + 1 :] + base
        if is_implied(rows[idx], others):
            out.append(tri)
    return tuple(out)
