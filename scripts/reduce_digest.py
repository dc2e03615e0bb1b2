#!/usr/bin/env python3
"""Print one sha256 per family of exact reduction results.

Two checkouts that print the same lines derive the same minimal systems:

* ``smith``, ``smith+scalar_b``, ``full``: the repr of every
  ``ReducedSystem`` with s, t >= 1 and s + t <= 6 in that mode;
* ``redundant_members_full``: the repr of ``redundant_members_full(n)``
  for n = 1..6;
* ``paper-lists``, ``paper-lists --json``: the output of
  ``weilgroup verify paper-lists``.

Run from the root of a checkout as ``PYTHONPATH=src python
scripts/reduce_digest.py``; point PYTHONPATH at another checkout's
``src`` to digest that one.
"""

import contextlib
import hashlib
import io
import sys

from weilgroup.cli import main as cli_main
from weilgroup.reduce import reduce_system, redundant_members_full

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


def main() -> int:
    families = {
        "smith": lambda: (repr(reduce_system(s, t)) for s, t in BLOCKS),
        "smith+scalar_b": lambda: (repr(reduce_system(s, t, scalar_b=True)) for s, t in BLOCKS),
        "full": lambda: (repr(reduce_system(s, t, "full")) for s, t in BLOCKS),
        "redundant_members_full": lambda: (repr(redundant_members_full(n)) for n in range(1, 7)),
        "paper-lists": lambda: [_cli("verify", "paper-lists")],
        "paper-lists --json": lambda: [_cli("--json", "verify", "paper-lists")],
    }
    for name, parts in families.items():
        print(f"{_digest(parts())}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
