"""Closed-form counts for the refined descent and level statistics.

Every function evaluates an explicit alternating binomial sum in exact
integer arithmetic and returns the number of words with a prescribed
statistic value.  Each one is pinned to the dual oracles by the
verification suite over a dense parameter grid; a couple of transcription
variants that the suite *rejects* are kept available (see
``count_des_mod_uncorrected``) so the suite can demonstrate that exactly
one reading survives cross-validation.

In the threshold and residue sums the statistic value s enters only
through ``C(n-m, s)`` and the sign ``(-1)^(n-m-s)``:

    count(s) = sum_m (-1)^(n-m-s) C(n-m, s) inner(m)

so the whole distribution is the polynomial ``sum_m inner(m) (u-1)^(n-m)``
in a marker u.  Each family builds its s-free ``inner(m)`` once;
``_coefficient`` reads one coefficient of that polynomial (a count) and
``_coefficients`` reads all of them from one pass over m (a table).
The joint level count over blocks factors per block and is a dynamic
program over blocks.  ``distribution`` returns a whole table of any
family from one call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from math import comb
from operator import mul
from typing import Callable, Sequence

from .combinat import binom, multinomial, sign
from .words import InputError


@dataclass(frozen=True)
class FormulaResult:
    """One evaluated closed form: which formula, on what, giving what.

    Genuine counting parameters always yield value >= 0; the alternating
    sums may pass through negative partial terms but never a negative
    total.
    """

    formula: str
    params: tuple
    value: int


def _named(table: dict, formula: str):
    try:
        return table[formula]
    except KeyError:
        raise InputError(f"unknown formula {formula!r}, expected one of {sorted(table)}")


def evaluate(formula: str, params: Sequence) -> FormulaResult:
    """Evaluate a closed form by name; see ``CLOSED_FORMS`` for the names."""
    params = tuple(params)
    return FormulaResult(formula, params, _named(CLOSED_FORMS, formula)(*params))


def distribution(formula: str, params: Sequence) -> dict:
    """Every statistic value of a closed form with its count, from one call.

    ``params`` are the formula's parameters without the statistic value.
    Keys are statistic values, or target tuples for ``levels-blocks``;
    values the closed form gives as 0 may be present or absent.
    """
    return _named(DISTRIBUTIONS, formula)(*params)


def check_params(formula: str, params: Sequence) -> None:
    """Run a closed form's parameter checks on ``params`` without evaluating it.

    ``params`` are those of ``distribution``, optionally followed by the
    statistic value ``evaluate`` takes.  The closed forms run these same
    checks, so an engine that validates through here refuses exactly the
    queries they refuse, with the same message.
    """
    _named(CHECKS, formula)(*params)


# Smallest threshold t each threshold family accepts.
LOWEST_THRESHOLD = {"levels-threshold": 1, "des-le": 1, "des-gt": 0}


def _check_threshold(family: str, k: int, t: int, n: int, s: int = 0) -> None:
    lowest = LOWEST_THRESHOLD[family]
    if not lowest <= t <= k:
        raise InputError(f"threshold {t} outside {lowest}..{k}")
    _check_alphabet(k)
    _check_length(n, s)


def _check_des_mod(s: int, alphabet: int, r: int, n: int, p: int = 0) -> None:
    if s < 2:
        raise InputError(f"modulus must be at least 2, got {s}")
    if not 1 <= r <= s:
        raise InputError(f"residue class {r} outside 1..{s}")
    _check_alphabet(alphabet)
    _check_length(n, p)


def _check_class(rho: Sequence[int], *letters_and_value) -> None:
    """Checks of ``hall_remmel_count``: any letter sets and statistic value pass."""
    if any(reps < 0 for reps in rho):
        raise InputError(f"multiplicities must be nonnegative, got {tuple(rho)}")


def _check_alphabet(k: int) -> None:
    if k < 1:
        raise InputError(f"alphabet size must be at least 1, got {k}")


def _check_length(n: int, s: int = 0) -> None:
    if n < 0 or s < 0:
        raise InputError("length and statistic value must be nonnegative")


def _shifted_power(d: int) -> list[int]:
    """Coefficients of (u-1)^d, lowest power first."""
    return [sign(d - s) * binom(d, s) for s in range(d + 1)]


def _coefficient(inner: Callable[[int], int], n: int, s: int) -> int:
    """Coefficient of u^s in sum_m inner(m) (u-1)^(n-m); reads inner(m) only for m <= n-s."""
    _check_length(n, s)
    return sum(sign(n - m - s) * binom(n - m, s) * inner(m) for m in range(n - s + 1))


def _coefficients(inner: Callable[[int], int], n: int) -> dict[int, int]:
    """Every coefficient of sum_m inner(m) (u-1)^(n-m), from one pass over m."""
    coeffs = [0] * (n + 1)
    for m in range(n + 1):
        value = inner(m)
        if value:
            for s, step in enumerate(_shifted_power(n - m)):
                coeffs[s] += step * value
    return dict(enumerate(coeffs))


def count_levels_threshold(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s levels starting at a letter <= t.

    Evaluates  sum_{m,i} (-1)^(n-m-s) C(m,i) C(i+n-m-1, n-m) C(n-m, s)
    (k-t)^(m-i) t^i.
    """
    return _coefficient(_levels_threshold(k, t, n), n, s)


def _levels_threshold(k: int, t: int, n: int):
    """The s-free inner(m) of ``count_levels_threshold``, after checking its parameters."""
    _check_threshold("levels-threshold", k, t, n)

    def inner(m: int) -> int:
        d = n - m
        return sum(
            binom(m, i) * binom(i + d - 1, d) * (k - t) ** (m - i) * t**i
            for i in range(m + 1)
        )

    return inner


def count_levels_blocks(
    block_sizes: Sequence[int], n: int, targets: Sequence[int]
) -> int:
    """Words with exactly targets[i] levels starting in block i, jointly.

    ``block_sizes[i]`` is how many alphabet letters block i+1 holds; the
    alphabet size is their sum.  Level statistics depend on blocks only
    through these cardinalities.
    """
    return _levels_blocks(tuple(block_sizes), n, tuple(targets), signed=True)


def _check_blocks(
    block_sizes: Sequence[int], n: int, targets: Sequence[int] | None = None
) -> None:
    """Checks of ``count_levels_blocks``; without targets, those of its table."""
    if targets is None:
        targets = (0,) * len(block_sizes)
    if not any(size > 0 for size in block_sizes):
        raise InputError("block sizes must cover at least one letter")
    if len(block_sizes) != len(targets):
        raise InputError(
            f"{len(block_sizes)} block sizes but {len(targets)} level targets"
        )
    if any(size < 0 for size in block_sizes) or any(tt < 0 for tt in targets):
        raise InputError("block sizes and level targets must be nonnegative")
    if n < 0:
        raise InputError(f"length must be nonnegative, got {n}")


def _block_program(block_sizes: tuple[int, ...], n: int, levels) -> dict:
    """The levels-blocks sum over every (a_i, b_i), grouped by key.

    Block i takes a_i letters and b_i level slots, all blocks together n
    positions, with weight C(A_i, a_i) size_i^a_i C(a_i+b_i-1, b_i) where
    A_i = a_1+...+a_i: where its letters sit among the earlier ones, which
    letters they are, and how its levels spread over them.  Each pair
    (key part, factor) of ``levels(i, b_i)`` multiplies the weight and
    extends the key.  The state is (letters placed, level slots used).
    """
    states = {(0, 0): {(): 1}}
    last = len(block_sizes) - 1
    for index, size in enumerate(block_sizes):
        factors = [tuple(levels(index, b)) for b in range(n + 1)]
        grown: dict = defaultdict(lambda: defaultdict(int))
        for (placed, slots), spread in states.items():
            room = n - placed - slots
            for a in range(room + 1):
                lead = binom(placed + a, a) * size**a
                if not lead:
                    continue
                # The last block takes all the room that is left.
                for b in range(room - a if index == last else 0, room - a + 1):
                    weight = lead * binom(a + b - 1, b)
                    if not (weight and factors[b]):
                        continue
                    into = grown[placed + a, slots + b]
                    for part, factor in factors[b]:
                        for key, value in spread.items():
                            into[key + part] += weight * factor * value
        states = grown
    joint: dict = defaultdict(int)
    for (placed, slots), spread in states.items():
        if placed + slots == n:
            for key, value in spread.items():
                joint[key] += value
    return joint


def _levels_blocks(
    block_sizes: tuple[int, ...], n: int, targets: tuple[int, ...], signed: bool
) -> int:
    """One joint count: block i contributes C(b_i, targets_i) (-1)^(b_i - targets_i).

    ``signed=False`` drops the sign, a reading the oracle rejects.
    """
    _check_blocks(block_sizes, n, targets)

    def levels(index: int, b: int):
        level = targets[index]
        pick = binom(b, level) * (sign(b - level) if signed else 1)
        return (((), pick),) if pick else ()

    return _block_program(block_sizes, n, levels).get((), 0)


def _levels_blocks_table(block_sizes: Sequence[int], n: int) -> dict[tuple[int, ...], int]:
    """Every nonzero ``count_levels_blocks`` value, keyed by target tuple, from one pass.

    Block i contributes (u_i - 1)^(b_i); the coefficients of the product are the counts.
    """
    sizes = tuple(block_sizes)
    _check_blocks(sizes, n)
    joint = _block_program(
        sizes, n, lambda index, b: [((level,), step) for level, step in enumerate(_shifted_power(b))]
    )
    return {key: value for key, value in joint.items() if value}


def count_des_le(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter <= t.

    By complementation this also counts words with s rises starting at a
    letter in {k+1-t, ..., k}.
    """
    return _coefficient(_des_le(k, t, n), n, s)


def _des_le(k: int, t: int, n: int):
    """The s-free inner(m) of ``count_des_le``, after checking its parameters."""
    _check_threshold("des-le", k, t, n)

    def inner(m: int) -> int:
        total = 0
        for a in range(m + 1):
            left = binom(m, a)
            # C(t*a, n-b) vanishes below b = n - t*a.
            for b in range(max(n - t * a, 0), m - a + 1):
                total += (
                    sign(m - a - b)
                    * left
                    * binom(m - a, b)
                    * binom(t * a, n - b)
                    * (k - t) ** b
                )
        return total

    return inner


def count_des_gt(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter > t.

    Dually, words with s rises starting at a letter <= k-t.  t = k is the
    empty statistic (every word scores 0) and t = 0 gives plain descents.
    """
    return _coefficient(_des_gt(k, t, n), n, s)


def _des_gt(k: int, t: int, n: int):
    """The s-free inner(m) of ``count_des_gt``, after checking its parameters."""
    _check_threshold("des-gt", k, t, n)

    def inner(m: int) -> int:
        total = 0
        for a in range(m + 1):
            left = binom(m, a) * sign(m - a)
            # C((k-t)*a, n-b) vanishes below b = n - (k-t)*a.
            for b in range(max(n - (k - t) * a, 0), a + 1):
                total += left * binom(a, b) * binom((k - t) * a, n - b) * t**b
        return total

    return inner


def count_des_mod(s: int, alphabet: int, r: int, n: int, p: int) -> int:
    """Words in [alphabet]^n with p descents starting at a letter = r mod s.

    Blocks follow the residue partition (block s holds multiples of s).
    Writing alphabet = s*k + t with 0 <= t < s, the evaluation dispatches
    on t and on whether r exceeds t, matching the three regimes the
    residue classes of the top letter create.
    """
    return _coefficient(_des_mod(s, alphabet, r, n, corrected=True), n, p)


def count_des_mod_uncorrected(s: int, alphabet: int, r: int, n: int, p: int) -> int:
    """Transcription variants of ``count_des_mod`` that cross-validation rejects.

    For an alphabet that is a multiple of s this uses the (s-1) power base
    in place of (r-1); otherwise it collapses the inner summation index to
    its upper bound instead of summing over it.  Retained only so the
    verification suite can demonstrate these readings disagree with the
    oracle on explicit tuples.
    """
    return _coefficient(_des_mod(s, alphabet, r, n, corrected=False), n, p)


def _des_mod(s: int, alphabet: int, r: int, n: int, corrected: bool):
    """The p-free inner(m) of ``count_des_mod``, or of the rejected readings if not ``corrected``."""
    _check_des_mod(s, alphabet, r, n)
    kq, t = divmod(alphabet, s)
    if t == 0:
        return _des_mod_aligned(s, kq, n, base=r - 1 if corrected else s - 1)
    return _des_mod_offset(s, kq, t, r, n, high=r > t, pin_j=not corrected)


def _des_mod_aligned(s: int, kq: int, n: int, base: int):
    def inner(j: int) -> int:
        total = 0
        for i1 in range(j + 1):
            left = binom(j, i1) * s ** (j - i1) * base**i1
            if not left:
                continue
            for i2 in range(j + 1):
                total += sign(j + i2) * left * binom(j, i2) * binom(kq * i2, n - i1)
        return total

    return inner


def _des_mod_offset(s: int, kq: int, t: int, r: int, n: int, high: bool, pin_j: bool):
    i1_base = (r - 1 - t) if high else (s - t + r - 1)

    def inner(m: int) -> int:
        total = 0
        for j in ((m,) if pin_j else range(m + 1)):
            outer = sign(m + j) * binom(m, j)
            top = kq * j if high else kq * j + j
            for i1 in range(m - j + 1):
                left = binom(m - j, i1) * i1_base**i1
                if not left:
                    continue
                # C(top, n-i1-i2) vanishes below i2 = n - i1 - top.
                for i2 in range(max(n - i1 - top, 0), j + 1):
                    mid = binom(j, i2) * (r - 1) ** i2
                    if not mid:
                        continue
                    total += (
                        outer * left * mid * s ** (m - i1 - i2) * binom(top, n - i1 - i2)
                    )
        return total

    return inner


def hall_remmel_count(
    rho: Sequence[int], top_letters, bottom_letters, s: int
) -> int:
    """Rearrangements of the class rho with exactly s constrained descents.

    A descent counts when its first letter lies in ``top_letters`` and its
    second in ``bottom_letters``.  Single alternating sum over products of
    binomials; equals the rearrangement oracle entry at s.
    """
    prefactor, inner, n = _hall_remmel(rho, top_letters, bottom_letters)
    if s < 0:
        return 0
    # C(n+1, s-r) vanishes below r = s-n-1.
    return prefactor * sum(
        sign(s - r) * binom(n + 1, s - r) * inner(r) for r in range(max(s - n - 1, 0), s + 1)
    )


def _hall_remmel(rho: Sequence[int], top_letters, bottom_letters):
    """(prefactor, s-free inner(r), weight) of ``hall_remmel_count``, after checking rho.

    count(s) = prefactor sum_{r<=s} (-1)^(s-r) C(n+1, s-r) inner(r), with
    inner(r) = C(a+r, r) prod_x C(rho_x + r + alpha_x + beta_x, rho_x) over
    the top letters x; a counts the letters outside the tops, alpha_x the
    ones above x, and beta_x the non-bottom letters below x.
    """
    rho = tuple(rho)
    _check_class(rho)
    tops = set(top_letters)
    bottoms = set(bottom_letters)
    outside = [0 if x in tops else reps for x, reps in enumerate(rho, start=1)]
    a = sum(outside)
    prefactor = multinomial(a, outside)
    # Per top letter x: (rho_x, rho_x + alpha_x + beta_x).
    slots = []
    above, below = a, 0
    for x, reps in enumerate(rho, start=1):
        above -= outside[x - 1]
        if x in tops:
            slots.append((reps, reps + above + below))
        if x not in bottoms:
            below += reps

    # Every argument is nonnegative, so math.comb follows the binom convention.
    def inner(r: int) -> int:
        term = comb(a + r, r)
        for reps, base in slots:
            term *= comb(base + r, reps)
        return term

    return prefactor, inner, sum(rho)


def _hall_remmel_table(rho: Sequence[int], top_letters, bottom_letters) -> dict[int, int]:
    """Every ``hall_remmel_count`` value of the class rho, from one pass over r.

    The counts are prefactor times the coefficients of
    (sum_r inner(r) u^r) (1-u)^(n+1) up to u^n.
    """
    prefactor, inner, n = _hall_remmel(rho, top_letters, bottom_letters)
    values = [inner(r) for r in range(n + 1)]
    steps = [sign(j) * comb(n + 1, j) for j in range(n + 1)]
    return {
        s: prefactor * sum(map(mul, steps[s::-1], values)) for s in range(n + 1)
    }


CLOSED_FORMS = {
    "levels-threshold": count_levels_threshold,
    "levels-blocks": count_levels_blocks,
    "des-le": count_des_le,
    "des-gt": count_des_gt,
    "des-mod": count_des_mod,
    "hall-remmel": hall_remmel_count,
}


DISTRIBUTIONS = {
    "levels-threshold": lambda k, t, n: _coefficients(_levels_threshold(k, t, n), n),
    "levels-blocks": _levels_blocks_table,
    "des-le": lambda k, t, n: _coefficients(_des_le(k, t, n), n),
    "des-gt": lambda k, t, n: _coefficients(_des_gt(k, t, n), n),
    "des-mod": lambda s, alphabet, r, n: _coefficients(
        _des_mod(s, alphabet, r, n, corrected=True), n
    ),
    "hall-remmel": _hall_remmel_table,
}


CHECKS = {
    **{family: partial(_check_threshold, family) for family in LOWEST_THRESHOLD},
    "levels-blocks": _check_blocks,
    "des-mod": _check_des_mod,
    "hall-remmel": _check_class,
}
