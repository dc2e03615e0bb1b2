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
  g <= 3, in the order of ``weilgroup.weil.weil_polynomials``:
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

from weilgroup.classify import classify_all
from weilgroup.cli import main as cli_main
from weilgroup.reduce import reduce_system, redundant_members_full
from weilgroup.weil import WeilError, parse_and_validate, weil_polynomials

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


def _classify_answers(qs):
    for q in qs:
        for f in weil_polynomials(q):
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
