"""Small helpers for integer partitions used as exponent tuples.

A partition here is a tuple of weakly decreasing nonnegative integers.
Trailing zeros are meaningful: they fix the ambient length (the size of
the matrix or the number of group generators), so callers pad explicitly.

:func:`partitions_of` walks the partitions depth first in one loop over an
explicit stack.  It can bound each part from below by a floor, and prune
the walk by a packed integer test of a linear system; the cokernel walk of
:func:`weilgroup.smith.enumerate_cokernels` uses both.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence


def as_integers(values: Iterable[int], error: type[ValueError] = ValueError) -> tuple[int, ...]:
    """The values as a tuple of ints, through ``operator.index``.

    Ints, bools and numpy integers pass; anything else (a float, a string)
    raises ``error`` instead of being truncated.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise error(f"not all integers: {values!r}") from None


def as_size(value: int, name: str) -> int:
    """A size or count as an int, through ``operator.index``; a float or a
    string raises ValueError naming the argument."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} is not an integer") from None


def is_partition(parts: Sequence[int]) -> bool:
    return all(x >= 0 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def as_partition(parts: Iterable[int], length: int | None = None) -> tuple[int, ...]:
    """Validate and freeze a partition, optionally enforcing an exact length.

    A part that is not an integer raises ValueError (see :func:`as_integers`).
    """
    t = as_integers(parts)
    if not is_partition(t):
        raise ValueError(f"not a weakly decreasing nonnegative tuple: {t}")
    if length is not None and len(t) != length:
        raise ValueError(f"expected exactly {length} parts, got {len(t)}: {t}")
    return t


def merge_sorted(*parts: Sequence[int]) -> tuple[int, ...]:
    """Concatenate and resort descending (exponents of a direct sum)."""
    out: list[int] = []
    for p in parts:
        out.extend(p)
    return tuple(sorted(out, reverse=True))


def partitions_of(
    total: int, max_len: int, *,
    within: tuple[int, Sequence[int], int] | None = None,
    floor: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` into at most ``max_len`` parts, padded
    with zeros to exactly ``max_len`` parts, in descending lex order.

    ``floor`` (nonnegative, padded with zeros to ``max_len`` parts; zeros
    by default) keeps only the c with c_k >= floor[k] for every k.  Part k
    runs from min(c_(k-1), remaining - sum_{j>k} floor[j]) down to
    max(floor[k], ceil(remaining / parts left)), and the first part from
    total - sum_{j>0} floor[j]: a larger value leaves too little for the
    floors after it, a smaller one too much for weakly decreasing parts.  So the last part is the remainder, and with a
    weakly decreasing floor every value in range has a completion.

    ``within=(start, coeffs, high)`` keeps only the c with (start - sum_k
    c_k coeffs[k]) & high == high, tested as each part is fixed: a failing
    part value is skipped with its subtree.  That is exact when every
    ``coeffs[k]`` is fieldwise nonnegative and no prefix makes a field
    borrow.  Without ``within`` the packed value and mask are 0.

    The walk is one loop over an explicit stack, not one generator per
    part, so a result is yielded once, not passed up through every level.
    """
    start, coeffs, high = within or (0, (0,) * max_len, 0)
    floor = tuple(floor or ())
    floor += (0,) * (max_len - len(floor))
    if max_len == 0:
        if total == 0:
            yield ()
        return
    if max_len == 1:
        if floor[0] <= total and (start - total * coeffs[0]) & high == high:
            yield (total,)
        return
    after = [0] * (max_len + 1)  # after[k] = sum of the floors of parts k, k + 1, ...
    for k in reversed(range(max_len)):
        after[k] = after[k + 1] + floor[k]
    last = max_len - 1
    parts = [0] * max_len
    remaining, packed, low = [total] * last, [start] * last, [0] * last
    k, low[0] = 0, max(floor[0], -(-total // max_len))
    x = total - after[1] + 1
    while True:
        x -= 1
        if x < low[k]:  # part k is exhausted: back to the part before
            if not k:
                return
            k -= 1
            x = parts[k]
            continue
        left = packed[k] - x * coeffs[k]
        if left & high != high:
            continue
        parts[k] = x
        rest = remaining[k] - x
        if k + 1 == last:  # the last part is the rest, in range by the bounds on x
            if (left - rest * coeffs[last]) & high == high:
                parts[last] = rest
                yield tuple(parts)
            continue
        k += 1
        remaining[k], packed[k] = rest, left
        low[k] = max(floor[k], -(-rest // (max_len - k)))
        x = min(parts[k - 1], rest - after[k + 1]) + 1
