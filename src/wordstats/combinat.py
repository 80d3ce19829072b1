"""Exact combinatorial helpers shared by the formula, oracle and identity layers.

The alternating sums downstream rely on one binomial convention: C(n, 0) is
1 for every integer n (including negative n, which the geometric-series
expansions produce at boundary parameters), and C(n, k) is 0 whenever k is
negative, k exceeds a nonnegative n, or n is negative with k positive.

The identity rows take their weights w_b off one forward-difference table
and expand sum_b w_b (u-1)^b by Horner's rule in u-1 (``expand_shifted``),
so no binomial row is built.

The packed engines hold a one-marker polynomial as one integer, count i in
byte field i (``field_bytes``, ``unpack``, ``respace``).  Only the final
counts must fit a field: on the way the integer stays exact.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterable, Iterator, Sequence


def binom(n: int, k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0 or k > n:
        return 0
    return math.comb(n, k)


def sign(exponent: int) -> int:
    """(-1) ** exponent without ever touching floats."""
    return -1 if exponent % 2 else 1


def expand_shifted(weights: Iterable[int]) -> list[int]:
    """Coefficients of sum_b w_b (u-1)^b, lowest power first, from w_d, ..., w_1, w_0.

    Horner's rule in u-1: the row so far is multiplied by u-1, one pass of
    differences, and the next weight is added to its constant term.
    """
    row: list[int] = []
    for weight in weights:
        row = [weight - row[0], *map(sub, row, row[1:]), row[-1]] if row else [weight]
    return row


def multinomial(total: int, parts: Sequence[int]) -> int:
    """total! / (parts_1! ... parts_m!); zero unless the parts sum to total."""
    if total < 0 or any(p < 0 for p in parts):
        return 0
    if sum(parts) != total:
        return 0
    value = 1
    remaining = total
    for p in parts:
        value *= math.comb(remaining, p)
        remaining -= p
    return value


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``, first part slowest.

    Stars and bars: the ``parts - 1`` cuts 0 <= c_1 <= ... <= c_{parts-1}
    <= total split [0, total] into the parts c_1, c_2 - c_1, ..., total -
    c_{parts-1}, and the cuts come in lexicographic order.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def _digits(key: int, size: int, radix: int) -> tuple[int, ...]:
    """The lowest ``size`` digits of ``key`` in ``radix``, lowest first."""
    digits = []
    for _ in range(size):
        key, digit = divmod(key, radix)
        digits.append(digit)
    return tuple(digits)


def field_bytes(bound: int) -> int:
    """Bytes per packed field that hold every count in 0..bound, with no spare bit."""
    return (bound.bit_length() + 7) // 8


def unpack(packed: int, size: int) -> list[int]:
    """The counts in a packed integer's fields of ``size`` bytes, lowest first, to its top nonzero field."""
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[at : at + size], "little") for at in range(0, len(data), size)]


def respace(packed: int, size: int, wider: int) -> int:
    """The counts in a packed integer's fields of ``size`` bytes, re-packed in fields of ``wider`` bytes."""
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    fields = [data[at : at + size] for at in range(0, len(data), size)]
    return int.from_bytes(bytes(wider - size).join(fields), "little")
