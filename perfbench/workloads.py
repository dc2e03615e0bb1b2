"""Seeded request generators for the three benchmark workloads.

Every input is built from Weil factors whose shape is known by construction,
so the expected classification route (or the expected error code) travels
with the request and the program's answer can be checked against it:

* ``t +- sqrt(q)`` for square q;
* ``t^2 + a t + q`` with a^2 < 4q (complex roots of modulus sqrt(q));
* irreducible quartics and sextics ``t^g h(t + q/t)`` where h is an integer
  polynomial, irreducible over Q, with g distinct real roots strictly inside
  (-2 sqrt(q), 2 sqrt(q)).  h is sampled by rounding the coefficients of a
  product of uniformly drawn real roots: rejection sampling in the raw
  coefficient box keeps only about 0.2% of candidates at degree 6.

With h irreducible and no real roots, t^g h(t + q/t) is irreducible: a
rational factor would have to collect complex-conjugate root pairs, and the
conjugate of a root pi is q/pi, whose sum with pi is a root of h.

This module uses only the standard library and numpy; it never imports the
package under test.
"""

from __future__ import annotations

import random
from math import isqrt

import numpy as np

SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
LARGE_Q = (32, 64, 81, 125, 128, 243)
NOT_PRIME_POWERS = (6, 10, 12, 14, 15)

KINDS = (
    "separable",
    "p_square",
    "p2q",
    "p_realsq",
    "q2_realsq",
    "scalar",
    "cyclic_index",
    "unsupported",
    "invalid",
)

# classify-small-q: share of the pool per kind, in percent (sums to 100).
# The mix, the pool size and so the repeat share are assumptions: no
# measured traffic stands behind them.  Counted over isogeny classes,
# separable classes would be nearly all of q <= 16, g <= 3; the mix keeps
# every route in the stream instead.  About 900 distinct inputs drawn 6000
# times give a repeat share of about 0.85, which sets what a result cache
# can gain here; classify-large-q is the workload where nothing repeats.
SMALL_MIX = (
    ("separable", 45),
    ("p_square", 8),
    ("p2q", 15),
    ("p_realsq", 8),
    ("q2_realsq", 6),
    ("scalar", 3),
    ("cyclic_index", 5),
    ("unsupported", 3),
    ("invalid", 7),
)
SMALL_POOL = 1200
SMALL_STREAM = 40000
SMALL_TRACE_PREFIX = 6000

# classify-large-q: one request per stratum per round, in this order.
# The smallest stratum, q2_realsq at q = 64, has 62 distinct inputs, so 50
# whole rounds keep the same mix from the first request to the last.
LARGE_STRATA = (
    tuple(("p2q", q) for q in LARGE_Q)
    + (("p_realsq", 64), ("p_realsq", 81), ("q2_realsq", 64), ("q2_realsq", 81))
    + (("separable", 32), ("separable", 243))
)
LARGE_ROUNDS = 50
LARGE_TRACE_PREFIX = 300

# reduce-exact: block systems with s + t <= 5 plus the sextic (4, 2) case,
# each in both modes, and the full-system redundancy scan for n <= 5
REDUCE_BLOCKS = tuple((s, n - s) for n in range(2, 6) for s in range(1, n)) + ((4, 2),)
REDUCE_FULL_N = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# integer polynomials, highest degree first


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def mul_all(*polys):
    out = (1,)
    for p in polys:
        out = mul(out, p)
    return out


def square_root(q):
    s = isqrt(q)
    return s if s * s == q else None


def _add(a, b):
    n = max(len(a), len(b))
    a = (0,) * (n - len(a)) + tuple(a)
    b = (0,) * (n - len(b)) + tuple(b)
    return tuple(x + y for x, y in zip(a, b))


def lift(h, q):
    """t^g h(t + q/t) for monic h of degree g: sum_k h_k (t^2 + q)^k t^(g-k)."""
    g = len(h) - 1
    out = (0,)
    for idx, hk in enumerate(h):
        k = g - idx
        term = (hk,)
        for _ in range(k):
            term = mul(term, (1, 0, q))
        term = term + (0,) * (g - k)
        out = _add(out, term)
    return out


def weil_quadratics(q):
    bound = isqrt(4 * q)
    return [(1, a, q) for a in range(-bound, bound + 1) if a * a < 4 * q]


def _real_rooted_inside(h, q):
    """h has deg(h) distinct real roots strictly inside (-2 sqrt q, 2 sqrt q)."""
    roots = np.roots(np.array(h, dtype=float))
    limit = 2.0 * q**0.5 * (1.0 - 1e-6)
    if np.max(np.abs(roots.imag)) > 1e-9:
        return False
    real = np.sort(roots.real)
    if np.min(np.diff(real)) < 1e-6:
        return False
    return bool(np.all(np.abs(real) < limit))


def _has_integer_root(h, q):
    bound = 2 * isqrt(q) + 2
    for x in range(-bound, bound + 1):
        acc = 0
        for c in h:
            acc = acc * x + c
        if acc == 0:
            return True
    return False


def _sample_h(rng, q, g):
    """Monic integer h of degree g, irreducible over Q, real-rooted inside."""
    limit = 2.0 * q**0.5
    for _ in range(10000):
        roots = [rng.uniform(-limit, limit) for _ in range(g)]
        coeffs = np.poly(roots)
        h = tuple(int(round(c)) for c in coeffs)
        if not _real_rooted_inside(h, q):
            continue
        if g == 2:
            disc = h[1] * h[1] - 4 * h[2]
            if square_root(disc) is not None:
                continue
        elif _has_integer_root(h, q):
            continue
        return h
    raise RuntimeError(f"no irreducible degree-{g} h found for q={q}")


def irreducible_quartic(rng, q):
    return lift(_sample_h(rng, q, 2), q)


def irreducible_sextic(rng, q):
    return lift(_sample_h(rng, q, 3), q)


def distinct_quadratics(rng, q, k):
    return rng.sample(weil_quadratics(q), k)


# ---------------------------------------------------------------------------
# one request per kind


def _request(q, coeffs, kind, expect=None, **factors):
    req = {"q": q, "coeffs": list(coeffs), "kind": kind}
    if expect is not None:
        req["expect"] = expect
    if factors:
        req["factors"] = factors
    return req


def separable_quartic_factor(rng, q):
    """A separable quartic with non-real roots: two distinct quadratics or irreducible."""
    if rng.random() < 0.5:
        return mul_all(*distinct_quadratics(rng, q, 2))
    return irreducible_quartic(rng, q)


def make_separable(rng, q, g):
    if g == 1:
        return _request(q, rng.choice(weil_quadratics(q)), "separable")
    if g == 2:
        return _request(q, separable_quartic_factor(rng, q), "separable")
    pick = rng.randrange(3)
    if pick == 0:
        coeffs = mul_all(*distinct_quadratics(rng, q, 3))
    elif pick == 1:
        coeffs = mul(rng.choice(weil_quadratics(q)), irreducible_quartic(rng, q))
    else:
        coeffs = irreducible_sextic(rng, q)
    return _request(q, coeffs, "separable")


def make_p_square(rng, q):
    P = rng.choice(weil_quadratics(q))
    return _request(q, mul(P, P), "p_square", P=P)


def make_p2q(rng, q):
    P, Q = distinct_quadratics(rng, q, 2)
    return _request(q, mul_all(P, P, Q), "p2q", P=P, Q=Q)


def make_p_realsq(rng, q):
    s = square_root(q)
    sign = rng.choice(("plus", "minus"))
    lin = (1, s) if sign == "plus" else (1, -s)
    P = separable_quartic_factor(rng, q)
    return _request(q, mul_all(P, lin, lin), "p_realsq", P=P, sign=sign)


def make_q2_realsq(rng, q):
    s = square_root(q)
    sign = rng.choice(("plus", "minus"))
    lin = (1, s) if sign == "plus" else (1, -s)
    Q = rng.choice(weil_quadratics(q))
    return _request(q, mul_all(Q, Q, lin, lin), "q2_realsq", Q=Q, sign=sign)


def make_scalar(rng, q, g):
    s = square_root(q)
    lin = rng.choice(((1, s), (1, -s)))
    return _request(q, mul_all(*[lin] * (2 * g)), "scalar")


def make_cyclic_index(rng, q, g):
    """(t - sqrt q)^u (t + sqrt q)^w; f(0) = q^g forces u and w even."""
    s = square_root(q)
    u = rng.randrange(2, 2 * g - 1, 2)
    coeffs = mul_all(*[(1, -s)] * u, *[(1, s)] * (2 * g - u))
    return _request(q, coeffs, "cyclic_index")


def make_unsupported(rng, q):
    """Valid Weil polynomials whose factor pattern the classifier does not cover."""
    P = rng.choice(weil_quadratics(q))
    s = square_root(q)
    pick = rng.randrange(3) if s is not None else 0
    if pick == 0:
        coeffs = mul_all(P, P, P)
    elif pick == 1:
        lin = rng.choice(((1, s), (1, -s)))
        coeffs = mul_all(P, lin, lin)
    else:
        coeffs = mul_all(P, (1, s), (1, s), (1, -s), (1, -s))
    return _request(q, coeffs, "unsupported", expect="UnsupportedShape")


def make_invalid(rng, q):
    """Inputs parse_and_validate must reject, each with its error code."""
    pick = rng.randrange(5)
    P = rng.choice(weil_quadratics(q))
    if pick == 0:
        return _request(q, (2, P[1], 2 * q), "invalid", expect="NotMonic")
    if pick == 1:
        return _request(q, mul_all(*distinct_quadratics(rng, q, 4)), "invalid", expect="BadDegree")
    if pick == 2:
        coeffs = list(mul(P, rng.choice(weil_quadratics(q))))
        coeffs[-1] += rng.choice((-1, 1))
        return _request(q, coeffs, "invalid", expect="SymmetryViolated")
    if pick == 3:
        a = isqrt(4 * q) + 1 + rng.randrange(3)
        bad = (1, rng.choice((a, -a)), q)
        coeffs = mul(bad, P) if rng.random() < 0.5 else bad
        return _request(q, coeffs, "invalid", expect="RootModulus")
    bad_q = rng.choice(NOT_PRIME_POWERS)
    return _request(bad_q, (1, 1, bad_q), "invalid", expect="QNotPrimePower")


def _small_request(rng, kind):
    squares = [q for q in SMALL_Q if square_root(q) is not None]
    if kind == "separable":
        return make_separable(rng, rng.choice(SMALL_Q), rng.choice((1, 2, 3)))
    if kind == "p_square":
        return make_p_square(rng, rng.choice(SMALL_Q))
    if kind == "p2q":
        return make_p2q(rng, rng.choice(SMALL_Q))
    if kind == "p_realsq":
        return make_p_realsq(rng, rng.choice(squares))
    if kind == "q2_realsq":
        return make_q2_realsq(rng, rng.choice(squares))
    if kind == "scalar":
        return make_scalar(rng, rng.choice(squares), rng.choice((1, 2, 3)))
    if kind == "cyclic_index":
        return make_cyclic_index(rng, rng.choice(squares), rng.choice((2, 3)))
    if kind == "unsupported":
        return make_unsupported(rng, rng.choice(SMALL_Q))
    return make_invalid(rng, rng.choice(SMALL_Q))


def _large_request(rng, kind, q):
    if kind == "p2q":
        return make_p2q(rng, q)
    if kind == "p_realsq":
        return make_p_realsq(rng, q)
    if kind == "q2_realsq":
        return make_q2_realsq(rng, q)
    return make_separable(rng, q, 3)


def _key(req):
    return (req["q"], tuple(req["coeffs"]))


# ---------------------------------------------------------------------------
# workloads


def classify_small_q(seed):
    """Draws with replacement from a finite pool that follows SMALL_MIX.

    The pool is built kind by kind in fixed proportions and deduplicated, so
    every seed has nearly the same kind mix; the stream then repeats pool
    members at a rate fixed by the pool size and the stream length.
    """
    rng = random.Random(seed)
    schedule = [kind for kind, share in SMALL_MIX for _ in range(share)]
    pool = {}
    for i in range(SMALL_POOL):
        req = _small_request(rng, schedule[i % len(schedule)])
        pool.setdefault(_key(req), req)
    members = list(pool.values())
    order = [rng.randrange(len(members)) for _ in range(SMALL_STREAM)]
    return {"pool": members, "order": order, "trace_prefix": SMALL_TRACE_PREFIX}


def classify_large_q(seed):
    """Distinct sextics, LARGE_ROUNDS whole rounds of one request per
    stratum: nothing repeats and every prefix has the same mix."""
    rng = random.Random(seed)
    seen = set()
    stream = []
    for _ in range(LARGE_ROUNDS):
        for stratum in LARGE_STRATA:
            for _ in range(1000):
                req = _large_request(rng, *stratum)
                if _key(req) not in seen:
                    break
            else:
                raise RuntimeError(f"no fresh input left for stratum {stratum}")
            seen.add(_key(req))
            stream.append(req)
    return {"pool": stream, "order": list(range(len(stream))), "trace_prefix": LARGE_TRACE_PREFIX}


def reduce_exact(seed):
    """The fixed derivation set, in a seeded order."""
    jobs = [{"op": "reduce_system", "s": s, "t": t, "scalar_b": sb}
            for s, t in REDUCE_BLOCKS for sb in (False, True)]
    jobs += [{"op": "redundant_members_full", "n": n} for n in REDUCE_FULL_N]
    random.Random(seed).shuffle(jobs)
    return {"pool": jobs, "order": list(range(len(jobs))), "trace_prefix": len(jobs)}


WORKLOADS = {
    "classify-small-q": classify_small_q,
    "classify-large-q": classify_large_q,
    "reduce-exact": reduce_exact,
}


def repeat_share(order):
    """Share of requests whose input already appeared earlier in the stream."""
    return 1 - len(set(order)) / len(order)
