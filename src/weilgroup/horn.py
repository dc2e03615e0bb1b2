"""Horn triples: the sets U^n_p and T^n_p, block restrictions, inequalities.

A Horn triple is three strictly increasing index sets (I, J, K) of equal
cardinality p inside {1..n} satisfying the trace condition

    sum(I) + sum(J) = sum(K) + p(p+1)/2.

U^n_p is all such triples; T^n_p is the recursively defined subset: a triple
stays iff for every r < p and every (F, G, H) in T^p_r

    sum_{f in F} i_f + sum_{g in G} j_g  <=  sum_{h in H} k_h + r(r+1)/2,

where i_f is the f-th smallest element of I.  (One widely circulated
transcription of this recursion reverses the comparison; the direction
above is the one that reproduces the closed-form descriptions of T^n_1,
T^n_2 and T^n_{n-1}, all of which are pinned by tests.)

The block restrictions T~^{s,t}_p and T^{s,t}_p select triples whose
overflow above s (for I) and above t (for J) is an initial segment; the
strict variant additionally requires #(I & M_s) + #(J & M_t) = p.  These
encode the essential inequalities between Smith invariants of a block
triangular matrix, see :mod:`weilgroup.smith`.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

DESK_SCALE_N = 7


class HornTriple(NamedTuple):
    I: tuple[int, ...]
    J: tuple[int, ...]
    K: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.I)


class ComplementTriple(NamedTuple):
    """A complemented Horn triple; its inequality has reversed sense (<=)."""

    triple: HornTriple
    sense: str


def enumerate_U(n: int, p: int) -> tuple[HornTriple, ...]:
    """All of U^n_p in lexicographic order on (I, J, K)."""
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    subsets = list(combinations(range(1, n + 1), p))
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for s in subsets:
        by_sum.setdefault(sum(s), []).append(s)
    shift = p * (p + 1) // 2
    out = []
    for I in subsets:
        for J in subsets:
            target = sum(I) + sum(J) - shift
            for K in by_sum.get(target, ()):
                out.append(HornTriple(I, J, K))
    out.sort()
    return tuple(out)


class HornTable:
    """In-memory memo of the T^n_p tables.

    Each table is built once per instance and returned as the same tuple on
    later lookups; a fresh instance starts cold.
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], tuple[HornTriple, ...]] = {}

    def T(self, n: int, p: int) -> tuple[HornTriple, ...]:
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        return self._compute(n, p)

    def _compute(self, n: int, p: int) -> tuple[HornTriple, ...]:
        key = (n, p)
        if key in self._tables:
            return self._tables[key]
        if p == 1:
            result = enumerate_U(n, 1)
        else:
            inner = [
                (r, self._compute(p, r), r * (r + 1) // 2) for r in range(1, p)
            ]
            kept = []
            for tri in enumerate_U(n, p):
                I, J, K = tri
                ok = True
                for _r, table, shift in inner:
                    for F, G, H in table:
                        lhs = sum(I[f - 1] for f in F) + sum(J[g - 1] for g in G)
                        if lhs > sum(K[h - 1] for h in H) + shift:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    kept.append(tri)
            result = tuple(kept)
        self._tables[key] = result
        return result


_DEFAULT_TABLE = HornTable()


def enumerate_T(
    n: int,
    p: int,
    *,
    allow_large: bool = False,
    table: HornTable | None = None,
) -> tuple[HornTriple, ...]:
    """T^n_p in lexicographic order.

    Guarded at desk scale (n <= 7); pass ``allow_large=True`` beyond that.
    """
    if n > DESK_SCALE_N and not allow_large:
        raise ValueError(
            f"n={n} exceeds desk scale {DESK_SCALE_N}; pass allow_large=True"
        )
    tab = table if table is not None else _DEFAULT_TABLE
    return tab.T(n, p)


def lambda_of(I: Sequence[int], p: int | None = None) -> tuple[int, ...]:
    """Partition (i_p - p >= ... >= i_1 - 1) attached to an index set."""
    I = tuple(I)
    if p is not None and len(I) != p:
        raise ValueError(f"expected {p} indices, got {len(I)}")
    p = len(I)
    return tuple(I[p - 1 - a] - (p - a) for a in range(p))


def eval_inequality(
    triple: HornTriple,
    a: Sequence[int],
    b: Sequence[int],
    c: Sequence[int],
) -> bool:
    """sum_{i in I} a_i + sum_{j in J} b_j >= sum_{k in K} c_k (1-based)."""
    n = len(a)
    if len(b) != n or len(c) != n:
        raise ValueError("a, b, c must have equal length n")
    I, J, K = triple
    for idx in (*I, *J, *K):
        if idx > n:
            raise ValueError(f"index {idx} exceeds length {n}")
    return (
        sum(a[i - 1] for i in I) + sum(b[j - 1] for j in J)
        >= sum(c[k - 1] for k in K)
    )


def complement_triple(
    triple: HornTriple | ComplementTriple, n: int
) -> ComplementTriple | HornTriple:
    """Complement the index sets inside {1..n}, flipping inequality sense.

    Subtracting the triple's inequality from the trace equality turns a
    ">=" constraint on (I, J, K) into a "<=" constraint on the complements.
    Complementing twice returns the original triple.
    """
    if isinstance(triple, ComplementTriple):
        inner = complement_triple(triple.triple, n)
        assert isinstance(inner, ComplementTriple)
        return inner.triple
    I, J, K = triple
    if len(I) >= n:
        raise ValueError("complement of a full-size triple is empty")
    full = set(range(1, n + 1))
    comp = HornTriple(
        tuple(sorted(full - set(I))),
        tuple(sorted(full - set(J))),
        tuple(sorted(full - set(K))),
    )
    return ComplementTriple(comp, "<=")


def _initial_segment_above(s: int, overflow: tuple[int, ...]) -> bool:
    return all(x == s + k + 1 for k, x in enumerate(overflow))


def enumerate_T_st(
    s: int,
    t: int,
    p: int,
    mode: str = "strict",
    *,
    allow_large: bool = False,
    table: HornTable | None = None,
) -> tuple[HornTriple, ...]:
    """Block restriction of T^{s+t}_p.

    ``tilde`` keeps triples whose part of I above s and part of J above t
    are initial segments {s+1..s+alpha} and {t+1..t+beta}; ``strict``
    additionally requires #(I & M_s) + #(J & M_t) = p.
    """
    if mode not in ("tilde", "strict"):
        raise ValueError(f"mode must be 'tilde' or 'strict', got {mode!r}")
    n = s + t
    out = []
    for tri in enumerate_T(n, p, allow_large=allow_large, table=table):
        I, J, K = tri
        I_in = tuple(i for i in I if i <= s)
        I_out = tuple(i for i in I if i > s)
        J_in = tuple(j for j in J if j <= t)
        J_out = tuple(j for j in J if j > t)
        if not _initial_segment_above(s, I_out):
            continue
        if not _initial_segment_above(t, J_out):
            continue
        if mode == "strict" and len(I_in) + len(J_in) != p:
            continue
        out.append(tri)
    return tuple(out)
