"""Exact combinatorial helpers shared by the formula, oracle and identity layers.

The alternating sums downstream rely on one binomial convention: C(n, 0) is
1 for every integer n (including negative n, which the geometric-series
expansions produce at boundary parameters), and C(n, k) is 0 whenever k is
negative, k exceeds a nonnegative n, or n is negative with k positive.

The Hall-Remmel closed form and the right-hand sides of both binomial
identities end in one step, c_j = sum_i (-1)^(j-i) C(L, j-i) f(i) for a
row of L values f(i): the coefficients of (1-u)^L sum_i f(i) u^i up to
u^(L-1).  ``differences`` takes it as L passes of differences, so no
binomial row is built.

The packed engines hold a one-marker polynomial as one integer, count i in
byte field i (``field_bytes``, ``unpack``, ``respace``).  Only the final
counts must fit a field: on the way the integer stays exact.

Every word engine, the transfer DP (``oracle.statistic_tallies``) and
each closed form's packed pass, hands out a table of a coordinates as
one *tally*.  A value tuple is d_1 + d_2 R + d_3 R^2 + ... in radix R =
n + 1, n the pass's length, which no coordinate exceeds.  Its first
min(2, a) digits, the dense part, name a byte field of one integer, and
the others, the sparse part, key a dict: digit 1 is a shift by one
field, digit 2 by R fields, and digit i >= 3 a step of R^(i-3) in the
key.  A tally maps sparse part -> packed fields, no entry zero; with one
coordinate it is {0: g}, count s in field s.  ``decode_tally`` reads it.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator, Sequence


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


def differences(row: list[int]) -> list[int]:
    """``row`` times (1-u)^len(row), cut at the row's own length.

    The product is len(row) passes of differences.  It is linear in the
    row, so rows of one length may be summed before it.
    """
    for _ in range(len(row)):
        row = [row[0], *map(sub, row[1:], row)]
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


def decode_tally(tally: dict[int, int], size: int, radix: int, arity: int) -> dict[tuple[int, ...], int]:
    """A tally over ``arity`` coordinates, in fields of ``size`` bytes and digits in ``radix``, keyed by value tuples."""
    dense = min(2, arity)
    table = {}
    for sparse, packed in tally.items():
        rest = _digits(sparse, arity - dense, radix)
        for field, count in enumerate(unpack(packed, size)):
            if count:  # field = d_1 + d_2 radix, over the dense digits there are
                table[((field % radix, field // radix) if dense == 2 else (field,) if dense else ()) + rest] = count
    return table


def field_bytes(bound: int) -> int:
    """Bytes per packed field that hold every count in 0..bound, with no spare bit."""
    return (bound.bit_length() + 7) // 8


def unpack(packed: int, size: int) -> list[int]:
    """The counts in a packed integer's fields of ``size`` bytes, lowest first, to its top nonzero field."""
    data, read = packed.to_bytes((packed.bit_length() + 7) // 8, "little"), int.from_bytes
    return [read(data[at : at + size], "little") for at in range(0, len(data), size)]


def respace(packed: int, size: int, wider: int) -> int:
    """The counts in a packed integer's fields of ``size`` bytes, re-packed in fields of ``wider`` bytes."""
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    fields = [data[at : at + size] for at in range(0, len(data), size)]
    return int.from_bytes(bytes(wider - size).join(fields), "little")
