"""Redundancy analysis for Horn inequality systems, decided exactly.

Two settings:

* ``smith`` mode: the block system at sizes (s, t).  Variables are the
  partitions a (length s), b (length t), c (length s+t), constrained by
  orderings, nonnegativity and the trace equality.  Candidate rows are the
  tilde-restricted inequalities; rows outside the strict restriction are
  provably subsumed and are pruned structurally first.  The rest go through
  one :class:`~weilgroup.linprog.Cone` per system, a double description
  decided in integers: each candidate in turn is tested against the other
  active rows, and a removed candidate is dropped from the cone.

* ``full`` mode: the eigenvalue system at ambient n = s+t.  Variables are
  three weakly decreasing real n-tuples (no nonnegativity) with the trace
  equality; candidates are all T^n_p rows for p < n.  No cone is built: a
  Horn row is irredundant iff its Littlewood-Richardson coefficient
  c^{lambda(K)}_{lambda(I) lambda(J)} is 1 (Belkale, "Local systems on
  P^1 - S for S a finite set", Compositio 2001; Knutson, Tao and Woodward,
  "The honeycomb model of GL_n(C) tensor products II: Puzzles determine
  facets of the Littlewood-Richardson cone", JAMS 2004).  No two
  candidates share a functional there, so the verdicts do not depend on
  the order in which candidates are processed.

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

from .horn import HornTable, HornTriple, enumerate_T, enumerate_T_st, lambda_of
from .linprog import Cone, is_implied
from .oracle import lr_coefficient
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
        cone = Cone([rows[iq] for iq in cands] + base)
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
        for tri in _full_candidates(n, table):
            iq = SmithInequality(tri.I, tri.J, tri.K, triple=tri)
            (kept if _is_facet(tri) else removed).append(iq)
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


def _full_candidates(n: int, table: HornTable | None) -> list[HornTriple]:
    return [tri for p in range(1, n) for tri in enumerate_T(n, p, table=table)]


def _is_facet(tri: HornTriple) -> bool:
    """Whether a Horn row is irredundant in the full system: its LR coefficient is 1."""
    return lr_coefficient(lambda_of(tri.I), lambda_of(tri.J), lambda_of(tri.K)) == 1


def redundant_members_full(n: int, *, table: HornTable | None = None) -> tuple[HornTriple, ...]:
    """Rows of the full eigenvalue system each implied by all the others.

    These are the T^n_p rows whose LR coefficient exceeds 1 (see the module
    docstring); the answer does not depend on processing order.
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
    return tuple(tri for tri in _full_candidates(n, table) if not _is_facet(tri))
