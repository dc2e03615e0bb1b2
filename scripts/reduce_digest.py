#!/usr/bin/env python3
"""Print one sha256 per family of exact reduction and classification results.

Two checkouts that print the same lines derive the same minimal systems
and classify the same way:

* ``smith``, ``smith+scalar_b``, ``full``: the repr of every
  ``ReducedSystem`` with s, t >= 1 and s + t <= 6 in that mode;
* ``redundant_members_full``: the repr of ``redundant_members_full(n)``
  for n = 1..6;
* ``paper-lists``, ``paper-lists --json``: the output of
  ``weilgroup verify paper-lists``;
* ``classify``: the ``classify_all`` answer (plan, groups and notices, or
  the error code) of every q-Weil polynomial with q in {2, 3, 4} and
  g <= 3, enumerated through the real polynomial h with f = t^g h(t + q/t):
  2,753 classes, 54 of them UnsupportedShape;
* ``classify q=5..9``: the same over q in {5, 7, 8, 9}, the first
  family with p = 5 or p = 7: 40,820 classes.

The classify families hash ``repr(result.plan)``, so their digests change
whenever the fields of ``DispatchPlan`` change, even when every group is
the same; compare kinds, tags, groups and notices to tell the two apart.

Run from the root of a checkout as ``PYTHONPATH=src python
scripts/reduce_digest.py``; point PYTHONPATH at another checkout's
``src`` to digest that one.
"""

import contextlib
import hashlib
import io
import sys
from math import isqrt

from weilgroup.classify import classify_all
from weilgroup.cli import main as cli_main
from weilgroup.reduce import reduce_system, redundant_members_full
from weilgroup.weil import WeilError, _roots_real_within, parse_and_validate, poly_mul

BLOCKS = [(s, n - s) for n in range(2, 7) for s in range(1, n)]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(list(argv))
    return out.getvalue()


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s + (s * s < n)


def _real_weil_tails(q: int):
    """The tails (h_1, ..., h_g), g = 1, 2, 3 in turn and each g in
    lexicographic order, of the monic integer h that meet necessary
    conditions for every root to be real and in [-B, B], B = 2 sqrt q.

    Each coefficient is bounded by the earlier ones, exactly in integers:
    |h_1| <= g B, since the roots sum to -h_1.  A quadratic x^2 + a x + b
    with both roots there has b <= a^2 / 4 (real roots) and h(+-B) >= 0,
    that is b >= |a| B - 4q.  For a cubic the same two conditions hold for
    h' / 3 = x^2 + (2a/3) x + b/3, whose roots lie between those of h, and
    h(B) >= 0 >= h(-B) gives |c + 4q a| <= (4q + b) B with b >= -4q.
    """
    four_q = 4 * q
    for g in (1, 2, 3):
        a_max = isqrt(g * g * four_q)
        for a in range(-a_max, a_max + 1):
            if g == 1:
                yield (a,)
            elif g == 2:
                for b in range(_ceil_sqrt(four_q * a * a) - four_q, a * a // 4 + 1):
                    yield a, b
            else:
                b_min = max(-four_q, _ceil_sqrt(4 * four_q * a * a) - 3 * four_q)
                for b in range(b_min, a * a // 3 + 1):
                    k = isqrt(four_q * (four_q + b) ** 2)
                    for c in range(-four_q * a - k, -four_q * a + k + 1):
                        yield a, b, c


def _weil_polynomials(q: int):
    """Every q-Weil polynomial of degree 2, 4 or 6: f = t^g h(t + q/t) =
    sum_j h_j t^j (t^2 + q)^(g - j) for each monic integer h of degree g
    whose roots are all real and in [-2 sqrt q, 2 sqrt q]: the tails of
    ``_real_weil_tails`` that pass the exact test ``_roots_real_within``."""
    for tail in _real_weil_tails(q):
        h, g = (1,) + tail, len(tail)
        if not _roots_real_within(h, q):
            continue
        f = [0] * (2 * g + 1)
        for j, hj in enumerate(h):
            term = (1,) + (0,) * j
            for _ in range(g - j):
                term = poly_mul(term, (1, 0, q))
            for i, c in enumerate(term):  # degree 2g - j: j leading zeros in f
                f[j + i] += hj * c
        yield f


def _classify_answers(qs):
    for q in qs:
        for f in _weil_polynomials(q):
            weil = parse_and_validate(f, q)
            try:
                result = classify_all(weil)
            except WeilError as exc:
                yield repr((weil.coeffs, q, exc.code))
            else:
                yield repr((weil.coeffs, q, result.plan, sorted(result.groups.items()), result.notices))


# family name -> a function giving the lines it hashes, in printing order
FAMILIES = {
    "smith": lambda: (repr(reduce_system(s, t)) for s, t in BLOCKS),
    "smith+scalar_b": lambda: (repr(reduce_system(s, t, scalar_b=True)) for s, t in BLOCKS),
    "full": lambda: (repr(reduce_system(s, t, "full")) for s, t in BLOCKS),
    "redundant_members_full": lambda: (repr(redundant_members_full(n)) for n in range(1, 7)),
    "paper-lists": lambda: [_cli("verify", "paper-lists")],
    "paper-lists --json": lambda: [_cli("--json", "verify", "paper-lists")],
    "classify": lambda: _classify_answers((2, 3, 4)),
    "classify q=5..9": lambda: _classify_answers((5, 7, 8, 9)),
}


def main() -> int:
    for name, parts in FAMILIES.items():
        print(f"{_digest(parts())}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
