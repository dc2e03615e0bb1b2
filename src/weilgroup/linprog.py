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
  The facets are the maximal proper tight sets (a face strictly inside
  another proper face is no facet), found once per description among the
  distinct tight sets of the active rows, so each test is a set lookup
  and a count of the rows with that tight set;
* an implicit equality (tight on every ray) is decided by one more double
  description, of the other implicit equalities alone, in the span V of
  the implicit equalities.  At a relative-interior point of the cone every
  row that is not one is positive, so the rest imply it iff the other
  implicit equalities do.  By Gordan's lemma its negative lies in the cone
  those span, so it is implied iff it is nonnegative on every ray of their
  cone.  Implication is cone membership (Farkas): phi is implied by rows
  g_j iff phi = sum mu_j g_j with mu >= 0.  Every implicit equality lies in
  V, of dimension k, so the question concerns vectors of V alone, and any
  k columns on which V has rank k (the pivot columns of the implicit
  equalities, by fraction-free elimination, once per description) restrict
  V injectively to Z^k: phi = sum mu_j g_j holds iff it holds on those
  columns.  So the description runs in dimension k on the restricted rows,
  with the same verdict; for the (1, 4) block system with ``scalar_b``, 16
  implicit equalities in dimension 6 span only k = 3.  Each implicit
  equality is restricted once per description, not once per test.

Dropping a row found implied leaves the cone as it is, so one description
serves a whole sequential reduction, and only that row's count changes
(an implied implicit equality lies in the span of the others, so their
pivot columns and restrictions stay); dropping any other row forces a new
description.  Nor does such a drop change which tight sets are maximal,
so the facets stay too: the row was either no facet, and whether a set
is maximal never depends on a set strictly inside another, or one of
several rows on its facet, whose tight set stays among the active rows'.

A step of a description takes the new row's product with each lineality
vector and each ray once, and keeps the rays in one list and their zero
sets in another, parallel to it.  In the lineality step a vector or ray
on which the new row vanishes is kept as it is: it is primitive, so the
combination would return it unchanged.  A row that is negative on no ray
leaves the rays as they are and only marks those it vanishes on, with no
adjacency test.

Insertion order decides only the cost of a description, never a verdict.
The rows of a cone go in by increasing value at a reference point of it,
which a :class:`Cone` carries: rows tight there first (:func:`_rays`).
The restricted implicit equalities, all 0 at such a point, go in as they
come.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import mul
from typing import Iterable, Sequence

Row = tuple[int, ...]


class Cone:
    """The cone {x : G x >= 0} of the active rows of G.

    Indices stay stable while rows are tested and dropped.  The double
    description is computed on first use, and with it each active row's
    tight set, a bitmask over the rays read off the rays' zero sets, the
    number of active rows per distinct tight set, and the facets: the
    maximal tight sets other than the set of every ray.  ``point``, a point
    of the cone in the same coordinates, orders the rows for the double
    description (the all-ones vector when None); it changes no verdict.
    Rows, and the point, of different lengths are refused.
    """

    def __init__(self, rows: Sequence[Sequence[int]], point: Sequence[int] | None = None):
        self.rows = [tuple(r) for r in rows]
        self.point = None if point is None else tuple(point)
        lengths = {len(r) for r in self.rows} | ({len(self.point)} if self.point else set())
        if len(lengths) > 1:
            raise ValueError(f"rows and point have different lengths {sorted(lengths)}")
        self.active = [True] * len(self.rows)
        self._tight: dict[int, int] | None = None  # active row -> tight set
        # active implicit equality -> its row on their pivot columns
        self._equalities: dict[int, Row] | None = None
        self._every = 0  # the tight set of an implicit equality: every ray
        self._counts: Counter[int] = Counter()  # tight set -> active rows with it
        self._facets: set[int] = set()  # the maximal proper tight sets
        self._implied: int | None = None  # last row found implied since a drop

    def _check(self, i: int) -> None:
        if not 0 <= i < len(self.rows):
            raise ValueError(f"row {i} is outside 0..{len(self.rows) - 1}")

    def drop(self, i: int) -> None:
        """Free row i for good: it no longer constrains any later test."""
        self._check(i)
        self.active[i] = False
        if i == self._implied:
            # the cone is unchanged: keep its description, its facets and
            # the span of its implicit equalities (module docstring)
            z = self._tight.pop(i)
            self._counts[z] -= 1
            if not self._counts[z]:
                del self._counts[z]
            if self._equalities is not None:
                self._equalities.pop(i, None)
        else:
            self._tight = None  # the cone itself may have grown: describe it again
        self._implied = None


def _dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, row, x))


def _combine(a: int, u: Row, b: int, v: Row) -> Row:
    """a u + b v, divided by the gcd of its entries."""
    w = [a * x + b * y for x, y in zip(u, v)]
    d = gcd(*w)
    return tuple(x // d for x in w) if d > 1 else tuple(w)


def _pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Columns on which the row space of ``rows`` has full rank, ascending.

    Fraction-free elimination through :func:`_combine`: each row is
    cleared in the pivot column of every echelon row so far, and a row
    left nonzero joins them, its first nonzero column as its pivot.  On
    the pivot columns the echelon rows are triangular with a nonzero
    diagonal, so the rank there is the rank of ``rows``.
    """
    echelon: list[tuple[int, Row]] = []
    for r in rows:
        for c, e in echelon:
            if r[c]:
                r = _combine(e[c], r, -r[c], e)
        c = next((c for c, x in enumerate(r) if x), None)
        if c is not None:
            echelon.append((c, r))
    return sorted(c for c, _ in echelon)


def linprog(rows: Sequence[Row], dim: int) -> tuple[list[Row], list[Row], list[int]]:
    """Extreme rays, a lineality basis and each ray's zero set for {x in Z^dim : g . x >= 0}.

    Double description from the whole space: rows go in in the order
    given, which decides only the cost, and each ray carries the bitmask
    of inserted rows it is tight on, bit k for ``rows[k]``: its zero set.
    Rays and zero sets are two parallel lists.  A step takes the row's
    product with each lineality vector, and then with each ray, once:

    * a row that is nonzero on the lineality space turns one lineality
      vector into a ray, and every other vector and ray is combined with
      it so that the row vanishes there;
    * a row that is negative on no ray cuts nothing off: it only marks
      the rays it vanishes on;
    * otherwise the rays it is negative on go, and each pair of rays on
      opposite sides gives a new ray iff they are adjacent, which is
      decided combinatorially: no third ray is tight on every row both
      are tight on.

    That test is one integer subtraction per pair.  Before row ``bit``
    goes in, every mask uses rows 0..bit-1 only, so ray k's complement
    zero set ``(mask - 1) ^ z_k`` fits below bit W - 1 of a byte-aligned
    W-bit field, W = 8 (bit // 8 + 1), whose top bit is a guard; ``nz``
    packs them all, field k for ray k, every guard set: the zero sets
    are packed as they are and complemented by one xor.  Let R hold 1 and
    G the guard in every field.  ``nz & (common * R | G)`` holds, in field
    k, the guard plus the rows of ``common`` that ray k is not tight on,
    and or-ing 1 into the fields of p and q leaves both nonzero below the
    guard.  Subtracting R takes 1 from every field: a field that is
    nonzero below its guard keeps the guard, a field that is zero there
    loses it, and since every field is at least 1 no borrow leaves it.
    So every guard survives iff no third ray is tight on all of
    ``common``: the pair is adjacent.  A row whose length is not ``dim``
    is refused.
    """
    for k, g in enumerate(rows):
        if len(g) != dim:
            raise ValueError(f"row {k} {tuple(g)} has length {len(g)}, not dim={dim}")
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[Row] = []
    masks: list[int] = []  # masks[k] is the zero set of rays[k]
    for bit, g in enumerate(rows):
        mask = 1 << bit
        if lineality and any(dots := [sum(map(mul, g, v)) for v in lineality]):
            k = dots.index(next(filter(None, dots)))  # the first nonzero product
            pivot, gp = lineality.pop(k), dots.pop(k)
            if gp < 0:
                gp, pivot = -gp, tuple(-x for x in pivot)
            # a primitive vector on which g vanishes is its own combination
            lineality = [_combine(gp, v, -d, pivot) if d else v for v, d in zip(lineality, dots)]
            rays = [_combine(gp, r, -d, pivot) if (d := sum(map(mul, g, r))) else r for r in rays]
            masks = [z | mask for z in masks]
            rays.append(pivot)
            masks.append(mask - 1)
            continue
        values = [sum(map(mul, g, r)) for r in rays]
        if min(values, default=0) >= 0:
            # g cuts nothing off: its zero rays become tight on it
            if 0 in values:
                masks = [z if v else z | mask for z, v in zip(masks, values)]
            continue
        pos: list[int] = []
        neg: list[int] = []
        new_rays: list[Row] = []
        new_masks: list[int] = []
        for k, v in enumerate(values):
            if v > 0:
                pos.append(k)
                new_rays.append(rays[k])
                new_masks.append(masks[k])
            elif v:
                neg.append(k)
            else:
                new_rays.append(rays[k])
                new_masks.append(masks[k] | mask)
        if pos:
            need = dim - len(lineality) - 2  # tight rows a 2-face needs
            nbytes = bit // 8 + 1
            width = 8 * nbytes
            ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(rays), "little")
            guards = ones << (width - 1)
            packed = int.from_bytes(b"".join([z.to_bytes(nbytes, "little") for z in masks]), "little")
            nz = guards | ((mask - 1) * ones ^ packed)
            for p in pos:
                rp, zp, vp = rays[p], masks[p], values[p]
                mark = 1 << (width * p)
                for q in neg:
                    common = zp & masks[q]
                    if common.bit_count() < need or (
                        (nz & (common * ones | guards) | mark | 1 << (width * q)) - ones
                    ) & guards != guards:
                        continue
                    new_rays.append(_combine(vp, rays[q], -values[q], rp))
                    new_masks.append(common | mask)
        rays, masks = new_rays, new_masks
    return rays, lineality, masks


def _rays(rows: list[Row], dim: int, point: Row | None) -> tuple[list[Row], list[int]]:
    """Extreme rays of the cone of ``rows`` and each row's tight set over them.

    Rows go in by increasing value at ``point`` (the all-ones vector when
    None, where a row's value is its coefficient sum), ties
    lexicographically decreasing.  While every row in so far vanishes at a
    point of the cone, that point and its negative satisfy them all: it
    lies in the lineality space of every intermediate cone, whose
    descriptions stay small, and the rows nearly tight there follow.  With
    the direct-sum point of :mod:`weilgroup.reduce`, the largest
    intermediate description of the (3, 3) block system (92 rows, 25 rays)
    has 62 rays, against 266 in lexicographically decreasing order alone,
    and its description takes 4.5-7.1 ms against 28-45 ms; the (4, 2)
    system (86 rows, 20 rays) has 38 against 118 and takes 2.6-3.3 ms
    against 10-16 ms (best of 7, 2-vCPU Xeon VM).  A row's tight set has
    bit k set iff ray k is tight on it: the bit transpose of the rays' zero
    sets, read column by column, each column one strided slice of their
    binary strings laid end to end.  The facets are the maximal tight sets
    of the rows not tight on every ray, which :func:`is_implied` finds once
    per description (:func:`_maximal`).
    """
    point = point or (1,) * dim
    order = sorted(range(len(rows)), key=rows.__getitem__, reverse=True)
    order.sort(key=[sum(map(mul, row, point)) for row in rows].__getitem__)
    rays, _, masks = linprog([rows[b] for b in order], dim)
    width = len(rows)
    tight = [0] * width
    if not masks:
        return rays, tight
    # ray k's zero set, in ``width`` binary digits, is the k-th block from
    # the end of ``bits``, and digit j of a block is bit width-1-j: so
    # column j holds ray k at bit k, and bit width-1-j is row order[-1-j]
    bits = "".join([f"{z:0{width}b}" for z in reversed(masks)])
    for j, row in enumerate(reversed(order)):
        tight[row] = int(bits[j::width], 2)
    return rays, tight


def _maximal(sets: Iterable[int]) -> set[int]:
    """The maximal bitmasks among distinct ``sets`` under inclusion.

    By descending popcount, each set is compared only with the maxima found
    so far: a set inside a non-maximal one is inside that one's maximum,
    which has more bits and came earlier, and no set strictly contains
    another of the same popcount.
    """
    maxima: list[int] = []
    for z in sorted(sets, key=int.bit_count, reverse=True):
        for m in maxima:
            if z & m == z:
                break
        else:
            maxima.append(z)
    return set(maxima)


def is_implied(cone: Cone, i: int) -> bool:
    """Exact decision: do the other active rows of the cone imply (active) row i?

    The cone is described once per change of it.  Row i is then decided
    by its tight set alone, and the facet test runs over the distinct
    tight sets of the active rows with their counts, not over the rows.
    An implicit equality is decided on the pivot columns of the implicit
    equalities (module docstring), each restricted to them once per
    description.  An index outside the rows is refused.
    """
    cone._check(i)
    if not cone.active[i]:
        raise ValueError(f"row {i} has been dropped from the cone")
    phi = cone.rows[i]
    if cone._tight is None:
        active = [j for j, on in enumerate(cone.active) if on]
        rays, tight = _rays([cone.rows[j] for j in active], len(phi), cone.point)
        cone._tight, cone._counts = dict(zip(active, tight)), Counter(tight)
        cone._every, cone._equalities = (1 << len(rays)) - 1, None
        cone._facets = _maximal(z for z in cone._counts if z != cone._every)
    tight, every, counts = cone._tight, cone._every, cone._counts
    zi = tight[i]
    if zi == every:
        # phi is an implicit equality: only the other implicit equalities can
        # imply it, and phi <= 0 on their cone (module docstring), so
        # nonnegative on its rays it is 0 on all of it, lineality included;
        # all of it is decided on the pivot columns of their span
        if cone._equalities is None:
            equalities = [j for j, z in tight.items() if z == every]
            cols = _pivot_columns([cone.rows[j] for j in equalities])
            cone._equalities = {j: tuple(cone.rows[j][c] for c in cols) for j in equalities}
        phi = cone._equalities[i]
        others = [row for j, row in cone._equalities.items() if j != i]
        implied = all(_dot(phi, r) >= 0 for r in linprog(others, len(phi))[0])
    else:
        # a face strictly inside another proper face is no facet; a facet
        # is implied iff another active row defines it too
        implied = zi not in cone._facets or counts[zi] > 1
    if implied:
        cone._implied = i
    return implied
