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
row and its complement collapse to the same functional.  The coordinate
layout (a, then b, then every c but the last) and that substitution live
only in :func:`_functional`, :func:`_base_rows` and :func:`_scalar_base`,
which :mod:`weilgroup.verify` uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

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
    repeated index adds up, as in printed rows.
    """
    na, nb, nc = sizes
    raw = [0] * (na + nb + nc)
    for i in a_idx:
        raw[i - 1] += sign
    for j in b_idx:
        raw[na + j - 1] += sign
    for k in c_idx:
        raw[na + nb + k - 1] -= sign
    return _eliminate_trace(raw, na, nb)


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


def _scalarize_b(row: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    """Collapse the b-block of a smith-mode row to a single coordinate."""
    b_total = sum(row[s : s + t])
    return row[:s] + (b_total,) + row[s + t :]


def _scalar_base(base: list[tuple[int, ...]], s: int, t: int) -> list[tuple[int, ...]]:
    """Base rows with b scalarised, first copies only, zero rows dropped."""
    return [r for r in dict.fromkeys(_scalarize_b(r, s, t) for r in base) if any(r)]


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
        sizes = (s, t, n)
        rows = {iq: _functional(*iq.key(), sizes) for iq in cands + structural}
        base = _base_rows(sizes, True)
        if scalar_b:
            rows = {iq: _scalarize_b(r, s, t) for iq, r in rows.items()}
            base = _scalar_base(base, s, t)
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
        rows = {iq: _functional(*iq.key(), (n, n, n)) for iq in cands}
        base = _base_rows((n, n, n), False)
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
    rows = [_functional(*tri, (n, n, n)) for tri in cands]
    base = _base_rows((n, n, n), False)
    out = []
    for idx, tri in enumerate(cands):
        others = rows[:idx] + rows[idx + 1 :] + base
        if is_implied(rows[idx], others):
            out.append(tri)
    return tuple(out)
