"""Feasibility of Smith-invariant triples for block triangular matrices.

Over the local ring Z_l, partitions a (length s), b (length t) and c
(length s+t) are the Smith invariants of some

    C = [[A, X], [0, B]]

with A, B of invariants a, b exactly when the trace equality
sum(a) + sum(b) = sum(c) holds together with the inequalities

    sum_{i in I & M_s} a_i + sum_{j in J & M_t} b_j >= sum_{k in K} c_k

for the block-restricted Horn triples.  The strict restriction T^{s,t}_p
suffices, and it is the only one used here; the tilde restriction lives in
:mod:`weilgroup.horn`, for :mod:`weilgroup.reduce` and :mod:`weilgroup.verify`.

Zero parts are meaningful (they fix the ambient sizes), so lengths are
enforced exactly and callers pad explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .horn import HornTriple, enumerate_T_st
from .partitions import as_partition, partitions_of

DESK_SCALE_TOTAL = 6
COKERNEL_MEMO_SIZE = 1024  # (a, b) pairs; a classify workload meets a few hundred


@dataclass(frozen=True)
class SmithInequality:
    """One inequality sum_{a_idx} a + sum_{b_idx} b >= sum_{c_idx} c.

    Indices are 1-based; ``a_idx`` lives in M_s, ``b_idx`` in M_t and
    ``c_idx`` in M_{s+t}.  ``triple`` records the originating Horn triple.
    """

    a_idx: tuple[int, ...]
    b_idx: tuple[int, ...]
    c_idx: tuple[int, ...]
    triple: HornTriple | None = None

    def holds(self, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> bool:
        lhs = sum(a[i - 1] for i in self.a_idx) + sum(b[j - 1] for j in self.b_idx)
        return lhs >= sum(c[k - 1] for k in self.c_idx)

    def key(self) -> tuple:
        return (self.a_idx, self.b_idx, self.c_idx)

    def pretty(self) -> str:
        return format_inequality(self.a_idx, self.b_idx, self.c_idx)

    def pretty_scalar_b(self) -> str:
        return format_inequality(self.a_idx, self.b_idx, self.c_idx, scalar_b=True)


def format_inequality(
    a_idx: Sequence[int],
    b_idx: Sequence[int],
    c_idx: Sequence[int],
    scalar_b: bool = False,
    sense: str = ">=",
) -> str:
    """Print a row as ``a1+a3+b1 >= c1+c4+c6``, with ``0`` for an empty side.

    With ``scalar_b`` all b parts are one value b, so the b terms print as
    ``b`` or ``2b``.
    """
    lhs = [f"a{i}" for i in a_idx]
    if not scalar_b:
        lhs += [f"b{j}" for j in b_idx]
    elif len(b_idx) == 1:
        lhs.append("b")
    elif b_idx:
        lhs.append(f"{len(b_idx)}b")
    rhs = [f"c{k}" for k in c_idx]
    return f"{'+'.join(lhs) or '0'} {sense} {'+'.join(rhs) or '0'}"


@dataclass(frozen=True)
class SmithSystem:
    s: int
    t: int
    inequalities: tuple[SmithInequality, ...]


def _restricted(triple: HornTriple, s: int, t: int) -> SmithInequality:
    I, J, K = triple
    return SmithInequality(
        a_idx=tuple(i for i in I if i <= s),
        b_idx=tuple(j for j in J if j <= t),
        c_idx=K,
        triple=triple,
    )


def inequality_system(s: int, t: int) -> SmithSystem:
    """Essential inequalities between a, b and c at block sizes (s, t).

    One inequality per block-restricted triple with 1 <= p <= s+t-1; the
    p = s+t triple restates the trace equality and is omitted.
    """
    if s < 1 or t < 1:
        raise ValueError("need s, t >= 1")
    if s + t > DESK_SCALE_TOTAL:
        raise ValueError(
            f"s+t={s + t} exceeds desk scale {DESK_SCALE_TOTAL}"
        )
    return _inequality_system_cached(s, t)


@lru_cache(maxsize=None)
def _inequality_system_cached(s: int, t: int) -> SmithSystem:
    ineqs = []
    for p in range(1, s + t):
        for tri in enumerate_T_st(s, t, p, "strict"):
            ineqs.append(_restricted(tri, s, t))
    return SmithSystem(s=s, t=t, inequalities=tuple(ineqs))


def feasible_triple(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> bool:
    """True iff (a, b, c) are Smith invariants of some block triangular C.

    Lengths fix the block sizes and must be exact; a total mismatch is an
    infeasible triple, not an error.
    """
    a = as_partition(a)
    b = as_partition(b)
    s, t = len(a), len(b)
    c = as_partition(c, length=s + t)
    if sum(a) + sum(b) != sum(c):
        return False
    system = inequality_system(s, t)
    return all(iq.holds(a, b, c) for iq in system.inequalities)


def enumerate_cokernels(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All c realizable from (a, b), in descending lexicographic order.

    Search space: partitions of sum(a)+sum(b) into s+t parts, pruned by
    c_1 <= a_1 + b_1 (a valid consequence of the size-one inequalities).
    Each candidate is tested against integer bounds on sum_{k in K} c_k
    that the strict system reduces to at this (a, b); see
    ``_cokernels_cached``.  The result is memoised on (a, b):
    classification meets the same few witness pairs across many isogeny
    classes.
    """
    a = as_partition(a)
    b = as_partition(b)
    return _cokernels_cached(a, b)


@lru_cache(maxsize=COKERNEL_MEMO_SIZE)
def _cokernels_cached(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Candidates c passing the strict system, checked as per-K integer bounds.

    With (a, b) fixed, the left side of every row is an integer, so the row
    reads sum_{k in K} c_k <= bound; rows sharing K keep the smallest
    bound.  A bound >= total holds for every c >= 0 of that total, and a
    bound >= len(K) * top holds for every candidate, whose parts are at
    most top; both are dropped.  A candidate passes exactly when it meets
    the remaining bounds, so the result equals checking every row.
    """
    system = inequality_system(len(a), len(b))
    total = sum(a) + sum(b)
    top = min(total, a[0] + b[0])
    bounds: dict[tuple[int, ...], int] = {}
    for iq in system.inequalities:
        lhs = sum(a[i - 1] for i in iq.a_idx) + sum(b[j - 1] for j in iq.b_idx)
        if lhs < bounds.get(iq.c_idx, total):  # a bound >= total never enters
            bounds[iq.c_idx] = lhs
    live = [
        (tuple(k - 1 for k in K), bound)
        for K, bound in bounds.items()
        if bound < len(K) * top
    ]
    out = []
    for c in partitions_of(total, len(a) + len(b), max_part=top):
        part = c.__getitem__
        for K, bound in live:
            if sum(map(part, K)) > bound:
                break
        else:
            out.append(c)
    return tuple(out)
