"""Horn triples: the sets U^n_p and T^n_p and their block restrictions.

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
strict variant additionally requires #(I & M_s) + #(J & M_t) = p.
These encode the essential inequalities between Smith invariants of a
block triangular matrix, see :mod:`weilgroup.smith`.

Every builder (:func:`enumerate_U`, :meth:`HornTable.T` and
:func:`enumerate_T_st`) refuses n > DESK_SCALE_N before it builds
anything, with no override.  The cost of the tables grows about fivefold
per step in n; the Smith systems need n <= 6, and n = 10 is the largest
that any caller uses (the tests of T^n_2 and T^n_{n-2}).
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple, Sequence

from .partitions import as_integers, as_size

DESK_SCALE_N = 10


class HornTriple(NamedTuple):
    I: tuple[int, ...]
    J: tuple[int, ...]
    K: tuple[int, ...]


def _sizes(n: int, p: int) -> tuple[int, int]:
    """n and p as ints, refused unless 1 <= p <= n <= DESK_SCALE_N."""
    n, p = as_size(n, "n"), as_size(p, "p")
    if n > DESK_SCALE_N:
        raise ValueError(f"n={n} exceeds desk scale {DESK_SCALE_N}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    return n, p


def enumerate_U(n: int, p: int) -> tuple[HornTriple, ...]:
    """All of U^n_p in lexicographic order on (I, J, K).

    This is the brute-force reference, kept beside the tables it checks:
    nothing in the package calls it.  The tests use it to pin the base
    case T^n_1 = U^n_1 up to n = 7.  It shares the size bound of every
    builder.
    """
    n, p = _sizes(n, p)
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
    :func:`enumerate_T_st`.  The mask, the packed coefficients and the
    p-subsets K by sum are set up once per (n, p) on the instance
    (:meth:`_pack`): the block restrictions at p and at n - p of one
    reduction both select at (n, p), and a fresh instance sets up again.
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], tuple[HornTriple, ...]] = {}
        self._packed: dict[tuple[int, int], tuple] = {}  # (n, p) -> _pack(n, p)

    def T(self, n: int, p: int) -> tuple[HornTriple, ...]:
        return self._compute(*_sizes(n, p))

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
        if (n, p) not in self._packed:
            self._packed[n, p] = self._pack(n, p)
        mask, cI, cJ, by_sum = self._packed[n, p]
        packed_J = [(J, sum(J), sum(map(mul, cJ, J))) for J in Js]
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

    def _pack(self, n: int, p: int) -> tuple[int, list[int], list[int], dict]:
        """The mask of every field's high bit, the packed coefficients of I
        and J, and the p-subsets K by sum, each with ``bias`` plus its
        packed value (class docstring)."""
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
            by_sum.setdefault(sum(K), []).append((K, bias + sum(map(mul, cK, K))))
        return mask, cI, cJ, by_sum


_DEFAULT_TABLE = HornTable()


def enumerate_T(n: int, p: int, *, table: HornTable | None = None) -> tuple[HornTriple, ...]:
    """T^n_p in lexicographic order, read from ``table`` (the shared one
    when None).  Refused for n > DESK_SCALE_N, like every table lookup."""
    return (table if table is not None else _DEFAULT_TABLE).T(n, p)


def lambda_of(I: Sequence[int]) -> tuple[int, ...]:
    """Partition (i_p - p >= ... >= i_1 - 1) of an index set 1 <= i_1 < ... < i_p."""
    I = as_integers(I)
    if not all(a < b for a, b in zip((0, *I), I)):
        raise ValueError(f"indices must increase strictly from 1: {I}")
    p = len(I)
    return tuple(I[p - 1 - a] - (p - a) for a in range(p))


def _duals(n: int, p: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each p-subset X of {1..n} mapped to its dual X^v = {n+1-i : i not in X},
    ascending as i descends."""
    down = range(n, 0, -1)
    return {X: tuple([n + 1 - i for i in down if i not in X]) for X in combinations(range(1, n + 1), p)}


def _dual_triples(triples: Sequence[HornTriple], n: int, p: int) -> tuple[HornTriple, ...]:
    """The duals of triples of p-subsets of {1..n}, in lexicographic order."""
    dual = _duals(n, p)
    return tuple(sorted([HornTriple(dual[I], dual[J], dual[K]) for I, J, K in triples]))


def _overflow_shaped(n: int, s: int, p: int) -> dict[tuple[int, ...], int]:
    """Each p-subset of {1..n} whose part above s is {s+1..s+alpha}, mapped to alpha."""
    out = {}
    for alpha in range(min(p, n - s) + 1):
        top = tuple(range(s + 1, s + alpha + 1))
        for low in combinations(range(1, s + 1), p - alpha):
            out[low + top] = alpha
    return out


def enumerate_T_st(
    s: int,
    t: int,
    p: int,
    mode: str = "strict",
    *,
    table: HornTable | None = None,
) -> tuple[HornTriple, ...]:
    """Block restriction of T^{s+t}_p, in lexicographic order.

    ``tilde`` keeps triples whose part of I above s and part of J above t
    are initial segments {s+1..s+alpha} and {t+1..t+beta}; ``strict``
    additionally requires #(I & M_s) + #(J & M_t) = p.  Only those overflow-shaped I
    and J go through the packed test of :class:`HornTable`, so T^{s+t}_p
    itself is never built; the smaller tables its rows come from are.
    Above half size the duals of those I and J are selected at s+t-p and
    the result is mapped back (module docstring): at s + t = 6 and p = 5
    the selection runs at p = 1 and packs no rows instead of the 142 rows
    of T^5_1..4.
    Refused for s + t > DESK_SCALE_N, like :func:`enumerate_T`.
    """
    if mode not in ("tilde", "strict"):
        raise ValueError(f"mode must be 'tilde' or 'strict', got {mode!r}")
    s, t = as_size(s, "s"), as_size(t, "t")
    if s < 1 or t < 1:
        raise ValueError("need s, t >= 1")
    n, p = _sizes(s + t, p)
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
