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

:func:`enumerate_cokernels` lists every c for one (a, b) in a single pruned
walk over the c with c_k >= max(a_k, b_k) that tests all rows at once in a
packed integer.

Zero parts are meaningful (they fix the ambient sizes), so lengths are
enforced exactly and callers pad explicitly.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import zip_longest
from operator import mul
from typing import NamedTuple, Sequence

from .horn import HornTriple, enumerate_T_st
from .partitions import as_partition, as_size, partitions_of

DESK_SCALE_TOTAL = 6
COKERNEL_MEMO_SIZE = 1024  # (a, b) pairs; a classify workload meets a few hundred


class SmithInequality(NamedTuple):
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


def _restricted(triple: HornTriple, s: int, t: int) -> SmithInequality:
    """The row of ``triple`` on a, b and c: I & M_s and J & M_t, each the
    part of a sorted index set up to one bisection.  The triple is strict
    iff the two hold p indices together.  The record is built as a tuple
    directly, since every candidate row of a reduction passes through here."""
    I, J, K = triple
    return tuple.__new__(SmithInequality, (I[: bisect_right(I, s)], J[: bisect_right(J, t)], K, triple))


def _block_sizes(s: int, t: int) -> tuple[int, int]:
    """s and t as ints, refused unless both are at least 1 and s + t <= DESK_SCALE_TOTAL."""
    s, t = as_size(s, "s"), as_size(t, "t")
    if s < 1 or t < 1:
        raise ValueError("need s, t >= 1")
    if s + t > DESK_SCALE_TOTAL:
        raise ValueError(f"s+t={s + t} exceeds desk scale {DESK_SCALE_TOTAL}")
    return s, t


def inequality_system(s: int, t: int) -> tuple[SmithInequality, ...]:
    """Essential inequalities between a, b and c at block sizes (s, t).

    One inequality per block-restricted triple with 1 <= p <= s+t-1; the
    p = s+t triple restates the trace equality and is omitted.
    """
    return _inequality_system_cached(*_block_sizes(s, t))


@lru_cache(maxsize=None)
def _inequality_system_cached(s: int, t: int) -> tuple[SmithInequality, ...]:
    ineqs = []
    for p in range(1, s + t):
        for tri in enumerate_T_st(s, t, p, "strict"):
            ineqs.append(_restricted(tri, s, t))
    return tuple(ineqs)


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
    return all(iq.holds(a, b, c) for iq in inequality_system(s, t))


def enumerate_cokernels(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All c realizable from (a, b), in descending lexicographic order.

    Search space: partitions of sum(a)+sum(b) into s+t parts with
    max(a_k, b_k) <= c_k (a and b padded with zeros).  The floor holds
    because 0 -> coker A -> coker C -> coker B -> 0 is exact for a block
    triangular C with finite cokernel, and the type of a subgroup or of a
    quotient lies inside the type of the group (Macdonald, *Symmetric
    Functions and Hall Polynomials*, ch. II).  The walk over c tests every
    row of the strict system as each part is fixed and drops whole
    subtrees, so a c with c_1 > a_1 + b_1 fails the size-one row at its
    first part; see ``_cokernels_cached``.  The result is memoised on
    (a, b): classification calls this only on a miss of its route memo
    (``classify._route_groups``), and distinct route keys still meet the
    same few witness pairs.
    """
    a = as_partition(a)
    b = as_partition(b)
    return _cokernels_cached(a, b)


@lru_cache(maxsize=None)
def _packed_rows(s: int, t: int, width: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per coordinate of a, b and c, the packed count of the rows using it
    (row r of the (s, t) system owns the ``width``-bit field at bit
    r * width), and the mask of every field's high bit."""
    counts = [[0] * s, [0] * t, [0] * (s + t)]
    high = 0
    for r, iq in enumerate(_inequality_system_cached(s, t)):
        low = 1 << (r * width)
        high |= low << (width - 1)
        for count, idx in zip(counts, (iq.a_idx, iq.b_idx, iq.c_idx)):
            for i in idx:
                count[i - 1] += low
    return tuple(map(tuple, counts)), high


@lru_cache(maxsize=COKERNEL_MEMO_SIZE)
def _cokernels_cached(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Candidates c passing the strict system, all rows in one packed integer.

    Row r, lhs_r = sum_{a_idx} a + sum_{b_idx} b >= sum_{K_r} c, owns a
    W-bit field: ``start`` puts 2^(W-1) + lhs_r in it, and the walk
    subtracts c_k times c_k's packed count as it fixes each part.  Width:
    a row's a, b and c indices come from the strictly increasing I, J and K
    of a Horn triple, so no coordinate enters a row twice.  Hence 0 <= lhs_r
    <= total and 0 <= sum_{K_r} c <= total over every prefix of c.  As
    W = total.bit_length() + 1 gives total < 2^(W-1), every field stays in
    (0, 2^W): no borrow crosses a field, and its high bit is set iff lhs_r
    >= sum_{K_r} c over the parts fixed so far.  That sum only grows, so a
    prefix that clears a high bit is dropped with its subtree, and a
    complete c survives iff every row holds.
    """
    s, t = len(a), len(b)
    inequality_system(s, t)  # refuses s + t > DESK_SCALE_TOTAL; perfbench times this span
    total = sum(a) + sum(b)
    (A, B, C), high = _packed_rows(s, t, total.bit_length() + 1)
    start = high + sum(map(mul, a, A)) + sum(map(mul, b, B))
    floor = [max(x, y) for x, y in zip_longest(a, b, fillvalue=0)]
    return tuple(partitions_of(total, len(C), within=(start, C, high), floor=floor))
