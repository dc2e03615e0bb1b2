"""Small helpers for integer partitions used as exponent tuples.

A partition here is a tuple of weakly decreasing nonnegative integers.
Trailing zeros are meaningful: they fix the ambient length (the size of
the matrix or the number of group generators), so callers pad explicitly.

:func:`partitions_of` can prune its depth-first walk by a packed integer
test of a linear system (see :func:`weilgroup.smith.enumerate_cokernels`).
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
    total: int, max_len: int, max_part: int | None = None, *,
    within: tuple[int, Sequence[int], int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` into at most ``max_len`` parts, padded
    with zeros to exactly ``max_len`` parts, in descending lex order.

    ``within=(start, coeffs, high)`` keeps only the c with (start - sum_k
    c_k coeffs[k]) & high == high, tested as each part is fixed: a failing
    part value is skipped with its subtree.  That is exact when every
    ``coeffs[k]`` is fieldwise nonnegative and no prefix makes a field
    borrow.  Without ``within`` the packed value and mask are 0.
    """
    if max_part is None:
        max_part = total
    start, coeffs, high = within or (0, (0,) * max_len, 0)
    def rec(remaining: int, k: int, bound: int, packed: int) -> Iterator[tuple[int, ...]]:
        if k == max_len:
            if remaining == 0:
                yield ()
            return
        coeff = coeffs[k]
        lo = -(-remaining // (max_len - k))  # ceil: keep weakly decreasing feasible
        for first in range(min(bound, remaining), lo - 1, -1):
            left = packed - first * coeff
            if left & high != high:
                continue
            for rest in rec(remaining - first, k + 1, first, left):
                yield (first,) + rest
    yield from rec(total, 0, max_part, start)


def partitions_up_to(max_total: int, max_len: int, max_part: int) -> Iterator[tuple[int, ...]]:
    for total in range(max_total + 1):
        yield from partitions_of(total, max_len, max_part)
