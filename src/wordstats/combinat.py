"""Exact combinatorial helpers, and the two packings every engine counts in.

The alternating sums downstream rely on one binomial convention: C(n, 0) is
1 for every integer n (including negative n, which the geometric-series
expansions produce at boundary parameters), and C(n, k) is 0 whenever k is
negative, k exceeds a nonnegative n, or n is negative with k positive.

The Hall-Remmel closed form and the right-hand sides of both binomial
identities end in one step, c_j = sum_i (-1)^(j-i) C(L, j-i) f(i) for a
row of L values f(i): the coefficients of (1-u)^L sum_i f(i) u^i up to
u^(L-1).  ``differences`` takes it as L passes of differences, so no
binomial row is built.

Two packings carry every engine's counts; only this module encodes and
decodes them, and each engine keeps its own counting rule.

*Keys* key a dict of counts by a vector of a slots: slot i is bit field
a - 1 - i of ``width`` bits, and an optional degree field, field a, holds
the slots' sum.  A slot's unit key (``key_units``) is 1 in its field and
in the degree field, so a key is the sum of units times values
(``encode_key``) and int order is degree, then slot by slot.  No field
carries while the values, and their sum with a degree field, fit
``width`` bits; past that the degree field carries (``key_degree``).
``decode_keys`` places each slot by its unit's lowest set bit.  The walk
and the full-joint DP (``oracle.compact_keys``) use fields of
``n.bit_length()`` bits, n the largest length, and no degree field.
Series coefficients (``polynomials``, ``series.statistic_keys``) use
16-bit fields under a degree field, for their printed order and to
refuse a carried key.

*Tallies* hold a table of a coordinates, none past the pass's length n,
as a value tuple d_1 + d_2 R + d_3 R^2 + ... in radix R = n + 1.  Its
first min(2, a) digits, the dense part, name a byte field of one integer
(``field_bytes``, ``unpack``, ``respace``), and the other, sparse, digits
key a dict: a tally maps sparse part -> packed fields, no entry zero,
and with one coordinate it is {0: g}, count s in field s.  Digit 1 is a
shift by one field, digit 2 by R fields, and digit i >= 3 a step of
R^(i-3) in the key: ``tally_units`` gives each coordinate's (sparse
step, field shift), and ``decode_tally`` reads a tally back.  Only the
final counts must fit a field.  The transfer DP (``oracle.statistic_tallies``) and each closed
form's packed pass hand out tallies.  The DP sizes its fields for
alphabet**n.  The closed forms (``formulas._packed_table``) size them for
alphabet**min(n, 64) and widen them by an eighth whenever the length
passes that bound: sizing for alphabet**n from the first step was
1.2-1.7x slower from n = 300 on (des-gt (6, 2, 600) 81 -> 103 ms), as
every early step then works on fields wider than its counts.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import mul, sub
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


def key_units(width: int, arity: int, degree: bool = False) -> list[int]:
    """The unit key of each of ``arity`` slots in fields of ``width`` bits, slot 0 highest, with ``degree`` a degree field on top."""
    top = width * arity
    return [degree << top | 1 << top - width * slot for slot in range(1, arity + 1)]


def encode_key(values: Sequence[int], width: int, degree: bool = False) -> int:
    """The key of ``values``, one per slot: the sum of the slots' unit keys times their values."""
    return sum(map(mul, values, key_units(width, len(values), degree)))


def key_degree(key: int, width: int, arity: int) -> int:
    """The degree field of a key over ``arity`` slots of ``width`` bits, with whatever carried out of it."""
    return key >> width * arity


def decode_keys(tally: dict[int, int], rows: Sequence[Sequence[int]], width: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """A dict keyed by keys in fields of ``width`` bits, keyed instead by one tuple of slot values per row of ``rows``.

    A row lists unit keys (``key_units``); each distinct reading of a row is decoded once.
    """
    mask = (1 << width) - 1
    places = [[(unit & -unit).bit_length() - 1 for unit in row] for row in rows]
    layout = [(sum(mask << shift for shift in row), row, {}) for row in places]
    entries = {}
    for key, count in tally.items():
        vector = []
        for fields, shifts, seen in layout:
            row = key & fields
            values = seen.get(row)
            if values is None:
                values = seen[row] = tuple([row >> shift & mask for shift in shifts])
            vector.append(values)
        entries[tuple(vector)] = count
    return entries


def tally_units(arity: int, size: int, radix: int) -> list[tuple[int, int]]:
    """Each of ``arity`` coordinates' (sparse step, field shift) in a tally in fields of ``size`` bytes, digits in ``radix``."""
    width = 8 * size
    return [(0, width), (0, width * radix)][:arity] + [(radix**i, 0) for i in range(arity - 2)]


def _digits(key: int, size: int, radix: int) -> tuple[int, ...]:
    """The lowest ``size`` digits of ``key`` in ``radix``, lowest first."""
    digits = []
    for _ in range(size):
        key, digit = divmod(key, radix)
        digits.append(digit)
    return tuple(digits)


def decode_tally(answer: tuple[int, dict[int, int]], radix: int, arity: int) -> dict[tuple[int, ...], int]:
    """A (field bytes, tally) answer over ``arity`` coordinates, digits in ``radix``, keyed by value tuples."""
    size, tally = answer
    dense = min(2, arity)
    table = {}
    for sparse, packed in tally.items():
        rest = _digits(sparse, arity - 2, radix) if arity > 2 else ()
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
