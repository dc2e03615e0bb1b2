"""Admissible l-primary group types per isogeny class.

The group of rational points is the cokernel of 1 - Frobenius on the Tate
module, so its exponent tuple c (length 2g, descending) must satisfy the
Newton-versus-Hodge dominance for f(1-t) with total v_l(f(1)).  For a
separable class that condition is also sufficient; every non-separable
shape in scope reduces to unions, over witness invariants of a sub- and
quotient module, of the block triangular feasibility decided in
:mod:`weilgroup.smith`.  The inequality systems are never hard-coded: they
are generated from the Horn tables each time.

Every route is one witness set, or ``extensions`` of two: a separable
class is ``admissible_exponents`` of its Newton hull; P^2, (t +- sqrt q)^s and
the cyclic-index pattern are ``direct_sums`` of admissible pairs and
cyclic parts; P^2 Q, P (t +- sqrt q)^2 and Q^2 (t +- sqrt q)^2 are
``extensions`` of a submodule witness set by a quotient witness set.

``classify_all`` does not re-check separability or shape:
``factor_weil`` and ``shape_of`` have settled those already, and the
``DispatchPlan`` carries everything a route reads.

A prime l that divides f(1) exactly once is answered at once, whatever
the route, by Z/l: the single tuple (1, 0, ..., 0).  The l-primary part
of the group has order l^v_l(f(1)) = l, and a group of prime order is
cyclic.  So ``_route_groups`` sees only primes with l^2 | f(1) (and an
``only_l`` that does not divide f(1), which gets the zero group).  The
plan's f-side factors are transformed once, when the first such prime
comes: a class whose primes all divide f(1) once transforms nothing and
touches no memo.

Each remaining prime is answered from a key that does not mention the
polynomial: the route kind, the integer Newton hull
(``polygon.newton_hull``) at l of each transformed factor, b = v_l of the
plan's real eigenvalue 1 -+ sqrt q (0 when the route has none) and the
route's r and s.  Only ``_route_groups`` switches on the kind; it reads
each width off a hull and each multiplicity off r and s.  The answer per
key is memoised in a bounded ``lru_cache`` (``_route_groups``); the
witness sets are computed, straight from the hulls of the key, only on a
miss.

A request answered before, for an equal record and ``only_l`` of the
same types, is served from a second bounded ``lru_cache`` (``_answers``)
without factoring again.  Each call gets its own copy of the ``groups``
dict, whose group tuples are the route memo's.  Errors are not memoised.

``newton_hull`` is the unchecked kernel; ``classify_all`` holds its
preconditions by construction.  Each transformed factor is a monic int
tuple (``transform_one_minus_t`` output).  Its constant term is nonzero:
it is +-P(1) for a factor P of f, and f(1) != 0 for every valid class,
or 1 - q for the cyclic-index factor t^2 - q.  Each l is prime: it comes
from ``_prime_factors`` or passes the ``only_l`` check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

from .polygon import (
    PRIME_TEST_LIMIT,
    Hull,
    as_prime,
    floor_heights,
    is_prime,
    newton_hull,
    transform_one_minus_t,
    valuation,
)
from .smith import enumerate_cokernels
from .partitions import merge_sorted
from .weil import (
    DispatchPlan,
    NotPrimeError,
    SizeLimitError,
    UnsupportedShapeError,
    WeilPolynomial,
    factor_weil,
    group_order,
    shape_of,
)
from .weil import root_valuations  # noqa: F401  (perfbench --trace 1 wraps this name by getattr)

GroupTuple = tuple[int, ...]
GroupSet = tuple[GroupTuple, ...]

ROUTE_MEMO_SIZE = 1024  # route keys; a classify workload meets a few hundred
ANSWER_MEMO_SIZE = 1024  # (record, only_l) keys; classify-small-q meets under 800


def _sorted_groups(groups: Iterable[GroupTuple]) -> GroupSet:
    return tuple(sorted(set(groups), reverse=True))


def admissible_exponents(hull: Hull) -> GroupSet:
    """All integer exponent tuples dominating the integer Newton hull.

    Dominance: equal totals and every top-k partial sum of the exponents
    at least the top-k partial sum of the (descending) valuations; this is
    the polygon condition in partial-sum form.  The top k valuations sum
    to total - height(width - k), and an integer is at least that exactly
    when it is at least total - floor(height(width - k)).  The walk tries
    each part from its largest value down, so it emits the tuples in
    descending lexicographic order, each once.
    """
    width, total = hull[-1]
    need = [total - h for h in reversed(floor_heights(hull))]  # need[k] for the top k

    out: list[GroupTuple] = []

    def rec(k: int, remaining: int, bound: int, acc_sum: int, chosen: list[int]):
        if k == width:
            if remaining == 0:
                out.append(tuple(chosen))
            return
        lo = -(-remaining // (width - k))  # ceil to keep room for the rest
        for x in range(min(bound, remaining), lo - 1, -1):
            new_sum = acc_sum + x
            if new_sum < need[k + 1]:
                break  # x decreasing: smaller x only gets worse
            chosen.append(x)
            rec(k + 1, remaining - x, x, new_sum, chosen)
            chosen.pop()

    rec(0, total, total, 0, [])
    return tuple(out)


def direct_sums(hull: Hull, r: int, v: int, s: int) -> GroupSet:
    """Direct sums of r admissible pairs for the quadratic Newton hull plus
    s cyclic parts of exponent v; with r = 0 the hull is not read."""
    pairs = admissible_exponents(hull) if r else ()
    return _sorted_groups(
        merge_sorted(*combo, (v,) * s) for combo in combinations_with_replacement(pairs, r)
    )


def extensions(A: Sequence[GroupTuple], B: Sequence[GroupTuple]) -> GroupSet:
    """Union over witnesses a in A (submodule) and b in B (quotient) of the
    block triangular cokernels c of :func:`smith.enumerate_cokernels`."""
    return _sorted_groups(c for a in A for b in B for c in enumerate_cokernels(a, b))


# ---------------------------------------------------------------------------
# per-class dispatch


class Classification(NamedTuple):
    """Admissible group types per prime, plus advisory notices."""

    weil: WeilPolynomial
    plan: DispatchPlan
    groups: dict[int, GroupSet]
    notices: tuple[str, ...] = ()


_SMALL_PRIMES = tuple(sorted(  # the 168 primes below 1000, by the sieve of Eratosthenes
    set(range(2, 1000)).difference(*(range(d * d, 1000, d) for d in range(2, 32)))))


def _prime_factors(n: int, factors: Sequence[tuple[Sequence[int], int]] = ()) -> list[int]:
    """Distinct primes dividing n >= 1, ascending; n >= PRIME_TEST_LIMIT
    raises SizeLimitError.  Trial division by the primes below 1000 stops
    at the first prime d with d * d > n, where the unfactored part is 1 or
    a proven prime.  If the primes run out first, the cofactor goes to
    ``is_prime``.  A composite part is split by its gcd with h(1) for each
    (h, m) of ``factors``, a factorization f = prod h^m with n = |f(1)|,
    so that n = prod |h(1)|^m; only a part that no h(1) splits goes to
    Pollard's rho."""
    if n >= PRIME_TEST_LIMIT:
        raise SizeLimitError(f"f(1) = {n} is not below the size limit {PRIME_TEST_LIMIT}")
    out = []
    for d in _SMALL_PRIMES:
        if d * d > n:
            return out + [n] if n > 1 else out
        if not n % d:
            out.append(d)
            while not n % d:
                n //= d
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.append(m)
        else:
            div = next((d for h, _ in factors if 1 < (d := math.gcd(m, sum(h))) < m), None)
            div = div or _rho_divisor(m)
            rest += [div, m // div]
    return sorted(set(out))


_RHO_BATCH = 128


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard's rho.

    The differences x - y are multiplied together mod n and one gcd is taken
    per batch of _RHO_BATCH steps; a batch whose gcd is n is replayed one
    difference at a time, to find the first step that shares a factor with n.
    """
    for c in range(1, n):
        x = y = 2
        power = steps = div = 1
        while div == 1:
            diffs = []
            prod = 1
            for _ in range(_RHO_BATCH):
                if steps == power:  # Brent: compare against y at powers of two
                    x, power, steps = y, 2 * power, 0
                y = (y * y + c) % n
                steps += 1
                diffs.append(x - y)
                prod = prod * (x - y) % n
            div = math.gcd(prod, n)
        if div == n:
            div = next(g for g in (math.gcd(d, n) for d in diffs) if g != 1)
        if div != n:
            return div


def classify_all(weil: WeilPolynomial, *, only_l: int | None = None) -> Classification:
    """Admissible group sets for every prime dividing f(1).

    Primes not dividing f(1) contribute only the zero group and are
    omitted.  A prime dividing f(1) exactly once gets Z/l, (1, 0, ..., 0),
    without a route.  The residue characteristic p is classified by the same
    combinatorics but flagged with a notice: the Tate module argument
    backing the classification assumes l != p.

    Without ``only_l``, |f(1)| must be below ``polygon.PRIME_TEST_LIMIT``
    (about 3.3e24, where primality is decided), else SizeLimitError.  An
    ``only_l`` that is not a prime below that limit raises NotPrimeError.

    A repeated request is answered from a bounded memo (module docstring),
    whose key is the one hash of the request.  An unhashable argument fails
    that hash with TypeError, and the cold path raises its named error.
    """
    try:
        plan, groups, notices = _answers(weil, only_l)
    except TypeError:
        plan, groups, notices = _classified(weil, only_l)
    # every field given: skip the NamedTuple's Python-level __new__
    return tuple.__new__(Classification, (weil, plan, dict(groups), notices))


def _classified(
    weil: WeilPolynomial, only_l: int | None
) -> tuple[DispatchPlan, dict[int, GroupSet], tuple[str, ...]]:
    """The plan, groups and notices that ``classify_all`` answers, computed
    without the answer memo."""
    factors = factor_weil(weil)
    plan = shape_of(weil, factors)
    if plan.kind == "unsupported":
        raise UnsupportedShapeError(f"factor pattern not in the classified list: {list(factors)}")
    order = group_order(weil)
    if only_l is not None:
        primes = [as_prime(only_l, NotPrimeError)]
    else:
        primes = _prime_factors(order, factors)
    notices = ()
    if weil.p in primes:
        notices = (
            f"l = {weil.p} equals the residue characteristic; its entry is "
            "formal (the Tate module has rank 2g only for l != p)",
        )
    cyclic = ((1,) + (0,) * (weil.degree - 1),)
    ops = None
    groups: dict[int, GroupSet] = {}
    for l in primes:
        if not order % l and order % (l * l):
            groups[l] = cyclic  # a group of prime order l is Z/l
            continue
        if ops is None:
            ops = tuple(map(transform_one_minus_t, plan.factors))
        hulls = tuple(newton_hull(op, l) for op in ops)
        b = valuation(plan.real_eigenvalue, l) if plan.real_eigenvalue else 0
        groups[l] = _route_groups(plan.kind, hulls, b, plan.r, plan.s)
    return plan, groups, notices


_answers = lru_cache(maxsize=ANSWER_MEMO_SIZE, typed=True)(_classified)


@lru_cache(maxsize=ROUTE_MEMO_SIZE)
def _route_groups(kind: str, hulls: tuple[Hull, ...], b: int, r: int, s: int) -> GroupSet:
    """The groups of one route at one prime, from its integer key.

    The scalar route has no hull.  Each width is a hull's and each
    multiplicity is r or s, so a new factor pattern on an existing
    formula needs only its ``shape_of`` branch.
    """
    m, n = (hulls + ((), ()))[:2]
    if kind == "separable":
        return admissible_exponents(m)
    if kind in ("p_square", "scalar", "cyclic_index"):
        return direct_sums(m, r, b, s)
    if kind == "p2q":
        return extensions(direct_sums(m, r, 0, 0), admissible_exponents(n))
    if kind == "p_realsq":
        return extensions(admissible_exponents(m), ((b,) * s,))
    if kind == "q2_realsq":
        return extensions(direct_sums(m, r, 0, 0), ((b,) * s,))
    raise UnsupportedShapeError(f"no classifier for plan {kind!r}")
