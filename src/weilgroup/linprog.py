"""Exact implication tests for homogeneous linear inequality systems.

Everything here works over cones {x : G x >= 0} with integer coefficient
rows (any equality is eliminated by substitution before reaching this
module).  The question "is row i implied by the other rows?" is decided
in integer arithmetic, with no LP solver and no float anywhere.

:func:`linprog` is Motzkin's double description method (Motzkin, Raiffa,
Thompson and Thrall, 1953; Fukuda and Prodon, "Double description method
revisited", 1996): it turns the rows into the extreme rays of the cone and
a basis of its lineality space, and gives each ray's zero set, the rows
it is tight on.  A :class:`Cone` runs it once, on first use, and each row
is then classified by its tight set, the rays it is tight on, read off
those zero sets by a bit transpose (the benchmark's tracer looks this
module and ``linprog`` up by name and times the double description as
``linprog.highs``, so both keep their names until its spans are
re-pointed):

* a row that is not tight on every ray and whose face is not a facet is
  implied;
* a facet row is implied iff another active row defines the same facet.
  Both tests run over the distinct tight sets of the active rows, each
  with the number of rows that have it;
* an implicit equality (tight on every ray) is decided by one more double
  description, of the other implicit equalities alone.  At a
  relative-interior point of the cone every row that is not one is
  positive, so the rest imply it iff the other implicit equalities do.  By
  Gordan's lemma its negative lies in the cone those span, so it is
  implied iff it is nonnegative on every ray of their cone.

Dropping a row found implied leaves the cone as it is, so one description
serves a whole sequential reduction, and only that row's count changes;
dropping any other row forces a new description.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import mul
from typing import Sequence

Row = tuple[int, ...]


class Cone:
    """The cone {x : G x >= 0} of the active rows of G.

    Indices stay stable while rows are tested and dropped.  The double
    description is computed on first use, and with it each active row's
    tight set, a bitmask over the rays read off the rays' zero sets, and
    the number of active rows per distinct tight set.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [tuple(r) for r in rows]
        self.active = [True] * len(self.rows)
        self._tight: dict[int, int] | None = None  # active row -> tight set
        self._every = 0  # the tight set of an implicit equality: every ray
        self._counts: Counter[int] = Counter()  # tight set -> active rows with it
        self._implied: int | None = None  # last row found implied since a drop

    def drop(self, i: int) -> None:
        """Free row i for good: it no longer constrains any later test."""
        self.active[i] = False
        if i == self._implied:  # the cone is unchanged: keep its description
            z = self._tight.pop(i)
            self._counts[z] -= 1
            if not self._counts[z]:
                del self._counts[z]
        else:
            self._tight = None  # the cone itself may have grown
        self._implied = None


def _dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, row, x))


def _combine(a: int, u: Row, b: int, v: Row) -> Row:
    """a u + b v, divided by the gcd of its entries."""
    w = [a * x + b * y for x, y in zip(u, v)]
    d = gcd(*w)
    return tuple(x // d for x in w) if d > 1 else tuple(w)


def linprog(rows: Sequence[Row], dim: int) -> tuple[list[Row], list[Row], list[int]]:
    """Extreme rays, a lineality basis and each ray's zero set for {x in Z^dim : g . x >= 0}.

    Double description from the whole space: rows go in in the order
    given, which decides only the cost, and each ray carries the bitmask
    of inserted rows it is tight on, bit k for ``rows[k]``: its zero set.
    A row that is nonzero on the lineality space turns one lineality
    vector into a ray; otherwise each pair of rays on opposite sides gives
    a new ray iff they are adjacent, which is decided combinatorially: no
    third ray is tight on every row both are tight on.

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
    return [r for r, _ in rays], lineality, [z for _, z in rays]


def _rays(rows: list[Row], dim: int) -> tuple[list[Row], list[int]]:
    """Extreme rays of the cone of ``rows`` and each row's tight set over them.

    Rows go in lexicographically decreasing.  That order keeps the
    intermediate descriptions of the Horn systems small: the (3, 3) block
    system (92 rows, 25 rays) takes 30-45 ms, against 85-110 ms by
    increasing coefficient weight (2-vCPU Xeon VM).  A row's tight set has
    bit k set iff ray k is tight on it: the bit transpose of the rays' zero
    sets, read column by column from their binary strings.
    """
    order = sorted(range(len(rows)), key=rows.__getitem__, reverse=True)
    rays, _, masks = linprog([rows[b] for b in order], dim)
    width = len(rows)
    tight = [0] * width
    # character b of each string is bit b of a zero set, and ray k comes
    # k-th from the end, so column b holds ray k at bit k
    strings = [f"{z:0{width}b}"[::-1] for z in reversed(masks)]
    for b, column in enumerate(zip(*strings)):
        tight[order[b]] = int("".join(column), 2)
    return rays, tight


def is_implied(cone: Cone, i: int) -> bool:
    """Exact decision: do the other active rows of the cone imply (active) row i?

    The cone is described once per change of it.  Row i is then decided
    by its tight set alone, and the facet test runs over the distinct
    tight sets of the active rows with their counts, not over the rows.
    """
    phi = cone.rows[i]
    if cone._tight is None:
        active = [j for j, on in enumerate(cone.active) if on]
        rays, tight = _rays([cone.rows[j] for j in active], len(phi))
        cone._tight, cone._counts = dict(zip(active, tight)), Counter(tight)
        cone._every = (1 << len(rays)) - 1
    tight, every, counts = cone._tight, cone._every, cone._counts
    zi = tight[i]
    if zi == every:
        # phi is an implicit equality: only the other implicit equalities can
        # imply it, and phi <= 0 on their cone (module docstring), so
        # nonnegative on its rays it is 0 on all of it, lineality included
        equalities = [cone.rows[j] for j, z in tight.items() if z == every and j != i]
        implied = all(_dot(phi, r) >= 0 for r in _rays(equalities, len(phi))[0])
    else:
        # a face strictly inside another proper face is no facet; a facet
        # is implied iff another active row defines it too
        facet = not any(z != every and z != zi and z & zi == zi for z in counts)
        implied = not facet or counts[zi] > 1
    if implied:
        cone._implied = i
    return implied
