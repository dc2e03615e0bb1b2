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
from itertools import product
from math import comb, isqrt

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


def _weil_polynomials(q: int):
    """Every q-Weil polynomial of degree 2, 4 or 6: f = t^g h(t + q/t) =
    sum_j h_j t^j (t^2 + q)^(g - j) for each monic integer h of degree g
    whose roots are all real and in [-2 sqrt q, 2 sqrt q]."""
    bound = isqrt(4 * q) + 1  # every root has |x| < bound, so |h_k| < C(g, k) bound^k
    for g in (1, 2, 3):
        ranges = [range(-comb(g, k) * bound**k, comb(g, k) * bound**k + 1) for k in range(1, g + 1)]
        for tail in product(*ranges):
            h = (1,) + tail
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


def main() -> int:
    families = {
        "smith": lambda: (repr(reduce_system(s, t)) for s, t in BLOCKS),
        "smith+scalar_b": lambda: (repr(reduce_system(s, t, scalar_b=True)) for s, t in BLOCKS),
        "full": lambda: (repr(reduce_system(s, t, "full")) for s, t in BLOCKS),
        "redundant_members_full": lambda: (repr(redundant_members_full(n)) for n in range(1, 7)),
        "paper-lists": lambda: [_cli("verify", "paper-lists")],
        "paper-lists --json": lambda: [_cli("--json", "verify", "paper-lists")],
        "classify": lambda: _classify_answers((2, 3, 4)),
        "classify q=5..9": lambda: _classify_answers((5, 7, 8, 9)),
    }
    for name, parts in families.items():
        print(f"{_digest(parts())}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
