"""Exact implication tests for homogeneous linear inequality systems.

Everything here works over cones {x : G x >= 0} with integer coefficient
rows (any equality is eliminated by substitution before reaching this
module).  The question "is row i implied by the other rows?" is decided
in integer arithmetic, with no LP solver and no float anywhere.

:func:`linprog` is Motzkin's double description method (Motzkin, Raiffa,
Thompson and Thrall, 1953; Fukuda and Prodon, "Double description method
revisited", 1996): it turns the rows into the extreme rays of the cone and
a basis of its lineality space.  A :class:`Cone` runs it once, on first
use, and each row is then classified by the set of rays it is tight on
(the benchmark's tracer looks this module and ``linprog`` up by name and
times the double description as ``linprog.highs``, so both keep their
names until its spans are re-pointed):

* a row that is not tight on every ray and whose face is not a facet is
  implied;
* a facet row is implied iff another active row defines the same facet;
* an implicit equality (tight on every ray) is decided by one more double
  description, of the other implicit equalities alone.  At a
  relative-interior point of the cone every row that is not one is
  positive, so the rest imply it iff the other implicit equalities do.  By
  Gordan's lemma its negative lies in the cone those span, so it is
  implied iff it is nonnegative on every ray of their cone.

Dropping a row found implied leaves the cone as it is, so one description
serves a whole sequential reduction; dropping any other row forces a new
one.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

Row = tuple[int, ...]


class Cone:
    """The cone {x : G x >= 0} of the active rows of G.

    Indices stay stable while rows are tested and dropped; the double
    description and each row's tight set are computed on first use.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [tuple(r) for r in rows]
        self.active = [True] * len(self.rows)
        # per active row, its tight set as a bitmask over the rays; and every ray
        self._faces: tuple[dict[int, int], int] | None = None
        self._implied: int | None = None  # last row found implied since a drop

    def drop(self, i: int) -> None:
        """Free row i for good: it no longer constrains any later test."""
        self.active[i] = False
        if i != self._implied:
            self._faces = None  # the cone itself may have grown
        self._implied = None


def _dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, row, x))


def _combine(a: int, u: Row, b: int, v: Row) -> Row:
    """a u + b v, divided by the gcd of its entries."""
    w = [a * x + b * y for x, y in zip(u, v)]
    d = gcd(*w)
    return tuple(x // d for x in w) if d > 1 else tuple(w)


def linprog(rows: Sequence[Row], dim: int) -> tuple[list[Row], list[Row]]:
    """Extreme rays and a lineality basis of {x in Z^dim : g . x >= 0 for g in rows}.

    Double description from the whole space: rows go in in the order
    given, which decides only the cost, and each ray carries the bitmask
    of inserted rows it is tight on.  A row that is nonzero on the
    lineality space turns one lineality vector into a ray; otherwise each
    pair of rays on opposite sides gives a new ray iff they are adjacent,
    which is decided combinatorially: no third ray is tight on every row
    both are tight on.

    That test is one integer subtraction per pair.  Before row ``bit``
    goes in, every mask uses rows 0..bit-1 only, so ray k's complement
    zero set ``(mask - 1) ^ z_k`` fits below bit W - 1 of a byte-aligned
    W-bit field, W = 8 (bit // 8 + 1), whose top bit is a guard; ``nz``
    packs them all, field k for ray k, every guard set.  Let R hold 1 and
    G the guard in every field.  ``nz & (common * R | G)`` holds, in field
    k, the guard plus the rows of ``common`` that ray k is not tight on,
    and or-ing 1 into the fields of p and q leaves both nonzero below the
    guard.  Subtracting R takes 1 from every field: a field that is
    nonzero below its guard keeps the guard, a field that is zero there
    loses it, and since every field is at least 1 no borrow leaves it.
    So every guard survives iff no third ray is tight on all of
    ``common``: the pair is adjacent.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Row, int]] = []
    for bit, g in enumerate(rows):
        mask = 1 << bit
        k = next((k for k, v in enumerate(lineality) if _dot(g, v)), None)
        if k is not None:
            pivot = lineality.pop(k)
            gp = _dot(g, pivot)
            if gp < 0:
                gp, pivot = -gp, tuple(-x for x in pivot)
            lineality = [_combine(gp, v, -_dot(g, v), pivot) for v in lineality]
            rays = [(_combine(gp, r, -_dot(g, r), pivot), z | mask) for r, z in rays]
            rays.append((pivot, mask - 1))
            continue
        values = [sum(map(mul, g, r)) for r, _ in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        new = [(r, z | mask if v == 0 else z) for (r, z), v in zip(rays, values) if v >= 0]
        if pos and neg:
            need = dim - len(lineality) - 2  # tight rows a 2-face needs
            nbytes = bit // 8 + 1
            width = 8 * nbytes
            ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(rays), "little")
            guards = ones << (width - 1)
            nz = guards | int.from_bytes(
                b"".join(((mask - 1) ^ z).to_bytes(nbytes, "little") for _, z in rays), "little"
            )
            for p in pos:
                rp, zp = rays[p]
                mark = 1 << (width * p)
                for q in neg:
                    rq, zq = rays[q]
                    common = zp & zq
                    if common.bit_count() < need or (
                        (nz & (common * ones | guards) | mark | 1 << (width * q)) - ones
                    ) & guards != guards:
                        continue
                    new.append((_combine(values[p], rq, -values[q], rp), common | mask))
        rays = new
    return [r for r, _ in rays], lineality


def _rays(rows: list[Row], dim: int) -> list[Row]:
    """Extreme rays of the cone of ``rows``, inserted lexicographically decreasing.

    That order keeps the intermediate descriptions of the Horn systems
    small: the (3, 3) block system (92 rows, 25 rays) takes 30-45 ms,
    against 85-110 ms by increasing coefficient weight (2-vCPU Xeon VM).
    """
    return linprog(sorted(rows, reverse=True), dim)[0]


def is_implied(cone: Cone, i: int) -> bool:
    """Exact decision: do the other active rows of the cone imply (active) row i?"""
    phi = cone.rows[i]
    if cone._faces is None:
        active = [j for j, on in enumerate(cone.active) if on]
        rays = _rays([cone.rows[j] for j in active], len(phi))
        tight = {
            j: sum(1 << k for k, r in enumerate(rays) if not _dot(cone.rows[j], r)) for j in active
        }
        cone._faces = tight, (1 << len(rays)) - 1
    tight, every = cone._faces
    zi = tight[i]
    if zi == every:
        # phi is an implicit equality: only the other implicit equalities can
        # imply it, and phi <= 0 on their cone (module docstring), so
        # nonnegative on its rays it is 0 on all of it, lineality included
        equalities = [
            cone.rows[j] for j, z in tight.items() if z == every and cone.active[j] and j != i
        ]
        implied = all(_dot(phi, r) >= 0 for r in _rays(equalities, len(phi)))
    else:
        others = [z for j, z in tight.items() if cone.active[j] and j != i]
        facet = not any(z != every and z != zi and z & zi == zi for z in others)
        implied = not facet or zi in others
    if implied:
        cone._implied = i
    return implied
