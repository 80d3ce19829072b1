"""Exact combinatorial helpers shared by the formula and identity layers.

The alternating sums downstream rely on one binomial convention: C(n, 0) is
1 for every integer n (including negative n, which the geometric-series
expansions produce at boundary parameters), and C(n, k) is 0 whenever k is
negative, k exceeds a nonnegative n, or n is negative with k positive.
"""

from __future__ import annotations

import functools
import math
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


def signed_row(d: int) -> tuple[int, ...]:
    """(-1)^j C(d, j) for j = 0..d: (1-u)^d lowest power first, (u-1)^d backwards.

    Only rows up to degree 128 are cached, so the cache holds at most 129.
    """
    return _cached_row(d) if d <= 128 else _row(d)


def _row(d: int) -> tuple[int, ...]:
    return tuple(sign(j) * math.comb(d, j) for j in range(d + 1))


_cached_row = functools.cache(_row)


def expand_shifted(weights: dict[int, int]) -> list[int]:
    """Coefficients of sum_b weights[b] (u-1)^b, lowest power first."""
    counts = [0] * (max(weights) + 1)
    for b, weight in weights.items():
        if weight:
            # signed_row(b) backwards is (u-1)^b; zip stops after its b+1 entries.
            counts[: b + 1] = [c + step * weight for c, step in zip(counts, reversed(signed_row(b)))]
    return counts


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
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
