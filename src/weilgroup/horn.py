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

:class:`HornTable` decides all of them for one triple in a single integer
sum, one bit field per row (F, G, H).

Above half size no triple is tested: T^n_p is the dual of T^n_{n-p}.  The
dual of an index set X in {1..n} is X^v = {n+1-i : i not in X}, and the
dual of a triple applies it to I, J and K.  T^n_r is the set of triples
whose Littlewood-Richardson coefficient c^{lambda(K)}_{lambda(I) lambda(J)}
is nonzero (Knutson and Tao, "The honeycomb model of GL_n(C) tensor
products I: proof of the saturation conjecture", JAMS 1999; Fulton,
"Eigenvalues, invariant factors, highest weights, and Schubert calculus",
Bull. AMS 2000).  The dual set has the conjugate partition, lambda(X^v) =
lambda(X)' (the isomorphism Gr(r, n) = Gr(n-r, n) on Schubert classes),
and c^{lambda'}_{mu' nu'} = c^lambda_{mu nu}, so the duals of T^n_{n-p}
are exactly T^n_p.  The tests pin the recursion itself up to n = 7 and
T^n_{n-2} against the closed form of T^n_2 up to n = 10.

The block restrictions T~^{s,t}_p and T^{s,t}_p select triples whose
overflow above s (for I) and above t (for J) is an initial segment; the
strict variant additionally requires #(I & M_s) + #(J & M_t) = p, tested
per triple by :func:`is_strict` on the triple's :func:`block_split`.
These encode the essential inequalities between Smith invariants of a
block triangular matrix, see :mod:`weilgroup.smith`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from operator import mul
from typing import NamedTuple, Sequence

from .partitions import as_integers, as_size

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
    n, p = as_size(n, "n"), as_size(p, "p")
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
    return tuple(out)


class HornTable:
    """In-memory memo of the T^n_p tables.

    Each table is built once per instance and returned as the same tuple on
    later lookups; a fresh instance starts cold and builds only the tables a
    lookup needs.  T^n_p with 2p > n is the dual of T^n_{n-p} (module
    docstring), sorted back into lexicographic order: sequential reduction
    keeps the first of equal rows, so the order is part of the answer.  The
    test is strict: at 2p = n the table is its own dual, and ``_compute``
    would call itself.
    Every other table is selected from U^n_p by the rows of each T^p_r,
    r < p, so T^6_3 builds T^3_1 and its dual T^3_2 and nothing else.

    A triple (I, J, K) of U^n_p is tested against every row (F, G, H) of
    every T^p_r, r < p, in one exact integer sum.  With v = r(r+1)/2 -
    (sum_F i_f + sum_G j_g - sum_H k_h), the triple stays iff v >= 0 for
    every row.  As i_f - f lies
    in [0, n-p], the trace of (F, G, H) gives -2r(n-p) <= v <= r(n-p), and
    subtracting the trace of (I, J, K) gives -(p-r)(n-p) <= v <= 2(p-r)(n-p)
    through the complements.  As min(2r, p-r) and min(r, 2(p-r)) are at
    most 2p/3, every row at that n has |v| <= floor(2p/3)(n-p) < 2^(W-1)
    for W = (floor(2p/3)(n-p)).bit_length() + 1.  Row k owns the W-bit
    field at bit kW; ``bias`` holds 2^(W-1) + r(r+1)/2 in every field and
    each coordinate of I, J, K one packed coefficient (-1 in the fields of
    rows whose F, resp. G, holds it, +1 where H does).  Each field of
    bias + sum_c coef_c x_c is then 2^(W-1) + v in [0, 2^W), no borrow
    crosses a field, and the row holds iff the field's high bit is set.

    :meth:`_select` runs that test over any lexicographic choice of I and
    J: all p-subsets for T^n_p itself, the overflow-shaped ones (or their
    duals, above half size) for the block restrictions of
    :func:`enumerate_T_st`.
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], tuple[HornTriple, ...]] = {}

    def T(self, n: int, p: int) -> tuple[HornTriple, ...]:
        n, p = as_size(n, "n"), as_size(p, "p")
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        return self._compute(n, p)

    def _compute(self, n: int, p: int) -> tuple[HornTriple, ...]:
        key = (n, p)
        if key not in self._tables:
            if 2 * p > n:  # strictly: at 2p = n this would call itself
                self._tables[key] = _dual_triples(self._compute(n, n - p), n, n - p)
            else:
                subsets = list(combinations(range(1, n + 1), p))
                self._tables[key] = self._select(n, p, subsets, subsets)
        return self._tables[key]

    def _select(
        self,
        n: int,
        p: int,
        Is: Sequence[tuple[int, ...]],
        Js: Sequence[tuple[int, ...]],
    ) -> tuple[HornTriple, ...]:
        """The triples of T^n_p with I in ``Is`` and J in ``Js``, in lexicographic order.

        ``Is`` and ``Js`` are lexicographically sorted p-subsets of {1..n};
        K runs over every p-subset that meets the trace condition.
        """
        width = ((2 * p // 3) * (n - p)).bit_length() + 1
        bias = mask = 0
        coefs = [[0] * p for _ in range(3)]
        rows = [(r, row) for r in range(1, p) for row in self._compute(p, r)]
        for k, (r, row) in enumerate(rows):
            high = 1 << (k * width + width - 1)
            low = 1 << (k * width)
            bias += high + low * (r * (r + 1) // 2)
            mask |= high
            for coef, sign, idx in zip(coefs, (-low, -low, low), row):
                for f in idx:
                    coef[f - 1] += sign
        cI, cJ, cK = coefs
        by_sum: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for K in combinations(range(1, n + 1), p):
            by_sum.setdefault(sum(K), []).append((K, sum(map(mul, cK, K))))
        packed_J = [(J, sum(J), bias + sum(map(mul, cJ, J))) for J in Js]
        shift = p * (p + 1) // 2
        out = []
        for I in Is:
            sI = sum(I) - shift
            vI = sum(map(mul, cI, I))
            for J, sJ, vJ in packed_J:
                for K, vK in by_sum.get(sI + sJ, ()):
                    if (vI + vJ + vK) & mask == mask:
                        out.append(HornTriple(I, J, K))
        return tuple(out)


_DEFAULT_TABLE = HornTable()


def _check_desk_scale(n: int, allow_large: bool) -> None:
    if n > DESK_SCALE_N and not allow_large:
        raise ValueError(
            f"n={n} exceeds desk scale {DESK_SCALE_N}; pass allow_large=True"
        )


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
    n = as_size(n, "n")
    _check_desk_scale(n, allow_large)
    tab = table if table is not None else _DEFAULT_TABLE
    return tab.T(n, p)


def lambda_of(I: Sequence[int]) -> tuple[int, ...]:
    """Partition (i_p - p >= ... >= i_1 - 1) of an index set 1 <= i_1 < ... < i_p."""
    I = as_integers(I)
    if not all(a < b for a, b in zip((0, *I), I)):
        raise ValueError(f"indices must increase strictly from 1: {I}")
    p = len(I)
    return tuple(I[p - 1 - a] - (p - a) for a in range(p))


def _check_indices(triple: HornTriple, n: int) -> None:
    for idx in (*triple.I, *triple.J, *triple.K):
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} is outside 1..{n}")


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
    _check_indices(triple, n)
    I, J, K = triple
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
    _check_indices(triple, n)
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


def _duals(n: int, p: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each p-subset X of {1..n} mapped to its dual X^v = {n+1-i : i not in X}."""
    return {
        X: tuple(sorted(n + 1 - i for i in range(1, n + 1) if i not in X))
        for X in combinations(range(1, n + 1), p)
    }


def _dual_triples(triples: Sequence[HornTriple], n: int, p: int) -> tuple[HornTriple, ...]:
    """The duals of triples of p-subsets of {1..n}, in lexicographic order."""
    dual = _duals(n, p)
    return tuple(sorted(HornTriple(dual[I], dual[J], dual[K]) for I, J, K in triples))


def _overflow_shaped(n: int, s: int, p: int) -> dict[tuple[int, ...], int]:
    """Each p-subset of {1..n} whose part above s is {s+1..s+alpha}, mapped to alpha."""
    return {
        low + tuple(range(s + 1, s + alpha + 1)): alpha
        for alpha in range(min(p, n - s) + 1)
        for low in combinations(range(1, s + 1), p - alpha)
    }


def block_split(triple: HornTriple, s: int, t: int) -> tuple[int, int]:
    """#(I & M_s) and #(J & M_t), each one bisection of a sorted index set.

    The strict condition (:func:`is_strict`) and the restriction of a
    triple to the blocks (``smith._restricted``) both read this split.
    """
    return bisect_right(triple.I, s), bisect_right(triple.J, t)


def is_strict(triple: HornTriple, s: int, t: int) -> bool:
    """The strict block condition #(I & M_s) + #(J & M_t) = p."""
    return sum(block_split(triple, s, t)) == len(triple.I)


def enumerate_T_st(
    s: int,
    t: int,
    p: int,
    mode: str = "strict",
    *,
    allow_large: bool = False,
    table: HornTable | None = None,
) -> tuple[HornTriple, ...]:
    """Block restriction of T^{s+t}_p, in lexicographic order.

    ``tilde`` keeps triples whose part of I above s and part of J above t
    are initial segments {s+1..s+alpha} and {t+1..t+beta}; ``strict``
    additionally requires :func:`is_strict`.  Only those overflow-shaped I
    and J go through the packed test of :class:`HornTable`, so T^{s+t}_p
    itself is never built; the smaller tables its rows come from are.
    Above half size the duals of those I and J are selected at s+t-p and
    the result is mapped back (module docstring): at s + t = 6 and p = 5
    the selection runs at p = 1 and packs no rows instead of the 142 rows
    of T^5_1..4.
    Guarded at desk scale like :func:`enumerate_T`.
    """
    if mode not in ("tilde", "strict"):
        raise ValueError(f"mode must be 'tilde' or 'strict', got {mode!r}")
    s, t, p = as_size(s, "s"), as_size(t, "t"), as_size(p, "p")
    if s < 1 or t < 1:
        raise ValueError("need s, t >= 1")
    n = s + t
    _check_desk_scale(n, allow_large)
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    over_I = _overflow_shaped(n, s, p)
    over_J = _overflow_shaped(n, t, p)
    tab = table if table is not None else _DEFAULT_TABLE
    if 2 * p > n:
        dual = _duals(n, p)
        Is, Js = sorted(map(dual.get, over_I)), sorted(map(dual.get, over_J))
        out = _dual_triples(tab._select(n, n - p, Is, Js), n, n - p)
    else:
        out = tab._select(n, p, sorted(over_I), sorted(over_J))
    if mode == "strict":
        # the strict condition counts p - alpha parts of I in M_s, p - beta of J in M_t
        out = tuple(tri for tri in out if over_I[tri.I] + over_J[tri.J] == p)
    return out
