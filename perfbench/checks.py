"""Correctness checks, run after the timed region.

Classify workloads, per distinct input:

* the request ends the way its construction says: accepted with the
  expected classification route, or rejected with the expected error code;
* the primes reported are exactly the primes dividing f(1);
* every emitted tuple c has length 2g, is a partition, sums to v_l(f(1)),
  satisfies the package's ``np_dominates_hp`` against the Newton polygon of
  f(1-t), and dominates the root valuations of f(1-t) as this module's own
  reference computes them; separable and P^2 classes must emit every such
  tuple (every sum of two such pairs);
* on a seeded sample of non-separable requests with small totals, the
  emitted set equals the union over witnesses (a, b) of every c with a
  positive Littlewood-Richardson coefficient c^c_{a,b}, counted by the
  package's tableau oracle;
* a repeated input gets the same answer as its first occurrence.

The expected sets and the witness profiles come from the reference below
(Horner substitution for P(1-t), a plain lower hull for the Newton slopes),
not from the package's polygon and valuation layers, so a wrong rewrite of
those layers cannot change the program and its reference alike.

reduce-exact: kept, structurally removed and LP-removed row counts per
system, and the redundant members per full system, equal the values in
``expected_reduce.json``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from weilgroup.oracle import lr_coefficient
from weilgroup.polygon import hodge_polygon, newton_polygon, np_dominates_hp

EXPECTED_REDUCE = Path(__file__).with_name("expected_reduce.json")
LR_MAX_TOTAL = 6
LR_SAMPLE = 24


# ---------------------------------------------------------------------------
# reference: P(1-t) and root valuations, independent of the package


def valuation(n: int, l: int) -> int:
    n, v = abs(n), 0
    while n % l == 0:
        n //= l
        v += 1
    return v


def one_minus_t(coeffs) -> tuple[int, ...]:
    """(-1)^d P(1-t), highest degree first, by Horner's rule in 1-t."""
    acc = [coeffs[0]]
    for c in coeffs[1:]:
        # acc * (1 - t) + c, coefficients highest degree first
        acc = [x - y for x, y in zip([0] + acc, acc + [0])]
        acc[-1] += c
    sign = (-1) ** (len(coeffs) - 1)
    return tuple(sign * x for x in acc)


def root_profile(coeffs, l: int) -> list[Fraction]:
    """l-adic valuations of the roots, descending: the slopes of the lower
    hull of (i, v_l(a_i)), a_i the coefficient i places below the lead."""
    points = [(i, valuation(c, l)) for i, c in enumerate(coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for x, y in points:
        # pop while the last hull point lies on or above the chord to (x, y)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) < (y - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append((x, y))
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes += [Fraction(y2 - y1, x2 - x1)] * (x2 - x1)
    return sorted(slopes, reverse=True)


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def partitions(total: int, length: int, bound: int | None = None):
    """Weakly decreasing nonnegative tuples of the given length and total."""
    bound = total if bound is None else bound
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bound), -1, -1):
        if first * length < total:
            break
        for rest in partitions(total - first, length - 1, first):
            yield (first,) + rest


def dominates(c, profile) -> bool:
    """Top-k partial sums of the partition c are at least those of the
    descending profile, and the totals agree."""
    vals = sorted(profile, reverse=True) + [Fraction(0)] * (len(c) - len(profile))
    acc_c, acc_v = 0, Fraction(0)
    for x, v in zip(c, vals):
        acc_c += x
        acc_v += v
        if acc_c < acc_v:
            return False
    return acc_c == acc_v


def dominating(profile, length: int) -> list[tuple[int, ...]]:
    """Partitions of the given length that dominate the profile."""
    total = sum(profile, Fraction(0))
    return [c for c in partitions(int(total), length) if dominates(c, profile)]


def merges(pairs):
    return {tuple(sorted(p1 + p2, reverse=True)) for p1 in pairs for p2 in pairs}


def _profile(factor, l):
    return root_profile(one_minus_t(factor), l)


def witnesses(req, l):
    """(a, b) witness sets of a non-separable request, from its known factors."""
    kind, f, q = req["kind"], req["factors"], req["q"]
    if kind == "p2q":
        return merges(dominating(_profile(f["P"], l), 2)), dominating(_profile(f["Q"], l), 2)
    s = round(q**0.5)
    v = valuation(1 + s if f["sign"] == "plus" else 1 - s, l)
    if kind == "p_realsq":
        return dominating(_profile(f["P"], l), 4), [(v, v)]
    return merges(dominating(_profile(f["Q"], l), 2)), [(v, v)]


def lr_union(a_set, b_set, total: int, length: int) -> set[tuple[int, ...]]:
    return {
        c
        for c in partitions(total, length)
        if any(lr_coefficient(a, b, c) > 0 for a in a_set for b in b_set)
    }


def check_groups(req, groups) -> str | None:
    """Polygon and total checks for one accepted request; None when all hold.

    Separable and P^2 classes are also checked for completeness: every
    dominating tuple, or every sum of two dominating pairs, must be emitted.
    """
    coeffs = req["coeffs"]
    width = len(coeffs) - 1
    order = abs(sum(coeffs))
    if sorted(groups) != prime_factors(order):
        return f"primes {sorted(groups)} != primes of f(1) = {order}"
    transformed = one_minus_t(coeffs)
    for l, tuples in groups.items():
        if not tuples:
            return f"no group at l={l}"
        npoly = newton_polygon(transformed, l)
        profile = root_profile(transformed, l)
        v = valuation(order, l)
        for c in tuples:
            if len(c) != width or list(c) != sorted(c, reverse=True) or min(c) < 0:
                return f"l={l}: {c} is not a partition of length {width}"
            if sum(c) != v:
                return f"l={l}: {c} sums to {sum(c)}, v_l(f(1)) = {v}"
            if not np_dominates_hp(npoly, hodge_polygon(c, width)):
                return f"l={l}: {c} fails Newton/Hodge dominance"
            if not dominates(c, profile):
                return f"l={l}: {c} does not dominate the reference root valuations"
        if req["kind"] == "separable":
            expected = set(dominating(profile, width))
        elif req["kind"] == "p_square":
            expected = merges(dominating(_profile(req["factors"]["P"], l), 2))
        else:
            continue
        if set(tuples) != expected:
            return f"l={l}: emitted set misses {sorted(expected - set(tuples))[:3]}"
    return None


def check_classify(requests, outputs, seed: int) -> list[str | None]:
    """One verdict per served request: None if correct, else the reason."""
    verdicts: list[str | None] = []
    first: dict[tuple, tuple] = {}
    lr_pool = []
    for idx, (req, out) in enumerate(zip(requests, outputs)):
        key = (req["q"], tuple(req["coeffs"]))
        if key in first:
            verdicts.append(None if out == first[key] else "answer differs from first occurrence")
            continue
        first[key] = out
        verdicts.append(_check_one(req, out))
        if verdicts[-1] is None and req["kind"] in ("p2q", "p_realsq", "q2_realsq"):
            lr_pool.extend((idx, l) for l, tuples in out[2].items() if sum(tuples[0]) <= LR_MAX_TOTAL)
    rng = random.Random(seed)
    for idx, l in rng.sample(lr_pool, min(LR_SAMPLE, len(lr_pool))):
        req, out = requests[idx], outputs[idx]
        a_set, b_set = witnesses(req, l)
        expected = lr_union(a_set, b_set, sum(out[2][l][0]), len(req["coeffs"]) - 1)
        if set(out[2][l]) != expected:
            verdicts[idx] = f"l={l}: emitted set differs from the LR oracle union"
    return verdicts


def _check_one(req, out) -> str | None:
    expect = req.get("expect")
    if req["kind"] == "invalid":
        return None if out == ("rejected", expect) else f"expected rejection {expect}, got {out[:2]}"
    if req["kind"] == "unsupported":
        return None if out == ("error", expect) else f"expected error {expect}, got {out[:2]}"
    if out[0] != "ok":
        return f"expected a classification, got {out}"
    if out[1] != req["kind"]:
        return f"route {out[1]} != constructed shape {req['kind']}"
    return check_groups(req, out[2])


def check_reduce(jobs, outputs) -> list[str | None]:
    expected = json.loads(EXPECTED_REDUCE.read_text())
    verdicts = []
    for job, out in zip(jobs, outputs):
        if out[0] != "ok":
            verdicts.append(f"{job}: {out}")
            continue
        if job["op"] == "reduce_system":
            want = expected["reduce_system"][job_name(job)]
            got = list(out[1])
        else:
            want = expected["redundant_members_full"][job_name(job)]
            got = out[1]
        verdicts.append(None if got == want else f"{job_name(job)}: {got} != expected {want}")
    return verdicts


def job_name(job) -> str:
    if job["op"] == "reduce_system":
        mode = "smith_scalar_b" if job["scalar_b"] else "smith"
        return f"{job['s']}x{job['t']}.{mode}"
    return f"n{job['n']}"
