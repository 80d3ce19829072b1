"""Ground-truth engines for the joint statistic distributions.

Two independent routes produce the same exact object: ``brute_distribution``
walks every word of [k]^n, while the transfer engine runs a dynamic
program over (last letter, accumulated statistics).  Their agreement is a
load-bearing cross-check, so neither is ever expressed in terms of the
other.  The walk is depth first and merges no words: each prefix carries
its statistics packed into one integer, and appending a letter adds an
increment read off ``stat_key`` on one- and two-letter words, so a word
costs O(1), not O(n).  It is charged before it starts (``charge_walk``).

Both routes pass every shorter length on the way to n.  Every length
pass, ``brute_tallies``, ``transfer_tallies``, ``statistic_tallies`` and
``_kernel``, hands out length n alone by default (``first=None``) and
lengths j..n, sized for n, with ``first=j``, so a sweep over n runs each
engine once.  The ``*_distribution`` calls read a pass without ``first``.

The transfer engine runs the transfer-matrix DP over the last letter.
One kernel, ``_kernel``, runs it on the charges its caller gives: per
block, each statistic's (sparse step, field shift) in a packing of
``combinat``.

- ``statistic_tallies`` charges the tracked coordinates as tallies place
  them (``_letter_keys``), so with no sparse coordinate a step is one
  O(k) pass of big-integer shifts and adds: every threshold and residue
  count and table runs it, and a ``levels-blocks`` joint of three or
  more blocks keys the rest.  On the level joint of blocks (2, 3, 1)
  that ran 6-7x faster than plain dict counts at n = 30 and 60 (one
  process, Python 3.11, 2 vCPU).  It hands each tally out as (field
  bytes, radix, tally), as the closed forms' packed passes do, and
  ``statistic_distribution`` decodes its one answer by that layout.
- ``transfer_distribution`` keeps plain counts, keyed as the walk's
  (``compact_keys``).  A full vector's coordinates depend on each other,
  des + ris + lev = cnt - [last letter in the block], so a dense pair of
  them leaves most fields empty: one or two dense fields made its calls
  on the ``oracle-vs-transfer`` grid 1.7x and 2.6x slower.

Only the key layout is shared: the walk reads its steps off ``stat_key``
and the DP off ``_pair_index``.  ``brute_tallies`` and
``transfer_tallies`` hand their tallies out undecoded, and ``verify``'s
joint suites compare them as they are.

A set of coordinates is answered from one pass of either engine:
``statistic_distribution`` tracks only them, and ``DistPolynomial.joint``
projects a walk's full vectors onto them.  Counts and tables both read
off that one answer.

A third oracle, ``rearrangement_distribution``, counts descents whose top
letter lies in one set and whose bottom letter lies in another over a
fixed rearrangement class.  It is a dynamic program over (letters still
to place, last letter), not an enumeration of the class: the answer
depends only on the set of counted (top, bottom) letter pairs
(``counted_pairs``), and ``pair_distribution`` runs the program for one
such set.  Each state holds its whole distribution of counted descents
packed into one integer, so appending a letter is a shift and an add.
It hands out (field bytes, n + 1, {0: g}), n the class's weight, as
``formulas.hall_remmel_table`` does; ``rearrangement_distribution`` reads it.

All counts are exact Python integers; nothing here floats.
"""

from __future__ import annotations

import itertools
import os
from math import factorial, prod
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .combinat import decode_keys, decode_tally, encode_key, field_bytes, key_units, multinomial, tally_units, unpack
from .words import _STAT_INDEX, BlockPartition, DistPolynomial, InputError, _check_coordinate, stat_key
from .words import _check_length, _check_multiplicities, _check_partition
# The budget refusal is defined beside InputError, so a caller can catch it without this module.
from .words import BUDGET_ENV_VAR, BudgetExceededError, _amount

DEFAULT_ENUMERATION_BUDGET = 1 << 24


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument wins, then the environment, then the default cap."""
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            budget = int(raw)
        except ValueError:
            pass
        else:
            if budget >= 0:
                return budget
        raise InputError(f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return DEFAULT_ENUMERATION_BUDGET


def _validate_shape(k: int, n: int, partition: BlockPartition, first: int | None) -> int:
    """The first length a pass hands out, n for ``first=None``, once the shape is checked."""
    _check_partition(k, partition)
    first = n if first is None else first
    _check_length(n, first)
    return first


def charge_walk(k: int, n: int, budget: int | None = None) -> None:
    """Refuse a walk of [k]^n over the budget, before any of it is built.

    The charge is the most of its k**n words, its n steps (one word at k =
    1) and the k x k table of steps it builds first.
    """
    limit = resolve_budget(budget)
    # k**n is at least 2**(n * (bits of k - 1)), so a power far past the limit is refused
    # before it is computed, and one that could pass 2**16 bits is named, not computed.
    if n * (k.bit_length() - 1) > limit.bit_length():
        raise BudgetExceededError(k**n if n * k.bit_length() <= 1 << 16 else f"{k}**{n}", limit)
    required = max(k**n, n, k * k)
    if required > limit:
        raise BudgetExceededError(required, limit)


def compact_keys(n: int, t: int) -> list[list[int]]:
    """The key layout both full-joint engines tally in: per block, the unit key of each statistic index.

    Coordinate (block i, statistic index j) is slot 4(i - 1) + j in fields
    of ``n.bit_length()`` bits, as no coordinate of a word of length up to n exceeds n.
    """
    units = key_units(n.bit_length(), 4 * t)
    return [units[4 * block : 4 * block + 4] for block in range(t)]


def brute_tallies(
    k: int, n: int, partition: BlockPartition, budget: int | None = None, first: int | None = None
) -> list[dict[int, int]]:
    """Per length first..n, ``compact_keys`` key -> number of words, from one walk of the words of [k]^n.

    The walk tallies every prefix of a length from ``first`` on, by
    default n alone; it is depth first, so every length is complete only
    once it ends.
    """
    first = _validate_shape(k, n, partition, first)
    charge_walk(k, n, budget)
    blocks, t, width = partition.blocks, partition.t, n.bit_length()

    def pack(letters) -> int:  # slot 4(i - 1) + j of ``compact_keys``: block-major, as stat_key's rows
        return encode_key([v for row in stat_key(letters, blocks, t) for v in row], width)

    letters = range(1, k + 1)
    start = [pack((b,)) for b in letters]
    # step[a][b-1]: what appending b adds to a word ending in a, or to the empty word at a = 0.
    step = [start] + [[pack((a, b)) - start[a - 1] for b in letters] for a in letters]
    # Pushed last letter first, so words are tallied in lexicographic order.
    children = [list(enumerate(row, start=1))[::-1] for row in step]
    # tallies[j]: the words of length j, tallied from j = first on.
    tallies: list[dict[int, int]] = [{} for _ in range(n + 1)]
    last_tally = tallies[n]
    get = last_tally.get
    # Prefixes still to extend: (packed statistics, last letter, letters to append).
    # A stack, not recursion: at k = 1 the budget admits lengths up to the budget itself.
    stack = [(0, 0, n)]
    while stack:
        key, last, left = stack.pop()
        if left <= n - first:
            tally = tallies[n - left]
            tally[key] = tally.get(key, 0) + 1
        if left == 1:
            for shift in step[last]:
                word = key + shift
                last_tally[word] = get(word, 0) + 1
        elif left:
            left -= 1
            for b, shift in children[last]:
                stack.append((key + shift, b, left))
    return tallies[first:]


def _decoded(k: int, n: int, partition: BlockPartition, tally: dict[int, int]) -> DistPolynomial:
    """A tally of the words of length n in ``compact_keys`` keys, as the distribution of their statistic vectors."""
    return DistPolynomial(decode_keys(tally, compact_keys(n, partition.t), n.bit_length()), k, n, partition)


def brute_distribution(k: int, n: int, partition: BlockPartition, budget: int | None = None) -> DistPolynomial:
    """Joint distribution by summing over all k**n words: the one tally of ``brute_tallies``, decoded."""
    [tally] = brute_tallies(k, n, partition, budget)
    return _decoded(k, n, partition, tally)


# The kernel's own pair classification, not stat_key's, so the two oracles stay independent.
def _pair_index(a: int, b: int) -> int:
    """Statistic index of the adjacent pair (a, b): descent, level or rise."""
    if a > b:
        return _STAT_INDEX["des"]
    if a == b:
        return _STAT_INDEX["lev"]
    return _STAT_INDEX["ris"]


def _letter_keys(
    partition: BlockPartition, coords: Sequence[tuple[int, int]], units: Sequence[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """Per block, the (sparse step, field shift) of each statistic index charged to it.

    ``units[i]`` is that of the (block, statistic index) pair ``coords[i]``,
    as ``combinat.tally_units`` gives them; a pair listed twice adds both.
    """
    place: dict[tuple[int, int], tuple[int, int]] = {}
    for coord, (step, shift) in zip(coords, units):
        held = place.get(coord, (0, 0))
        place[coord] = held[0] + step, held[1] + shift
    return [[place.get((block, index), (0, 0)) for index in range(4)] for block in range(1, partition.t + 1)]


def _kernel(
    k: int, n: int, partition: BlockPartition, charges: Sequence[Sequence[tuple[int, int]]], first: int | None = None
) -> Iterator[dict[int, int]]:
    """The transfer-matrix DP over the last letter: per length first..n, its tally of the words, undecoded.

    One pass to length n goes through every shorter length; it tallies the
    lengths from ``first`` on, by default n alone, and hands each out as it
    reaches it.  ``charges[i - 1][j]`` is the (sparse step, field shift)
    of statistic index j charged to block i: a tally's (``_letter_keys``),
    or a key layout's with no shift (``transfer_tallies``).  Appending b
    after a adds the pair (a, b)'s charge in the block of a, plus the
    letter count's in the block of b.  A state maps sparse part -> packed
    fields, so in a key layout it maps key -> number of words.

    With no sparse step a letter's state is one integer.  The pair (a, b)
    is a rise for every a < b, a level for a = b and a descent for every
    a > b, so

        new[b] = (sum_{a<b} old[a] << ris[a] + old[b] << lev[b]
                  + sum_{a>b} old[a] << des[a]) << cnt[b],

    which one suffix-sum pass and a running prefix sum give for every b in
    O(k) big-integer operations; shifts by 0, which CPython runs as a copy,
    are skipped.  Otherwise a step merges k**2 dicts.
    """
    first = n if first is None else first
    if first <= 0:
        yield {0: 1}
    if n == 0:
        return
    charges = [charges[block - 1] for block in partition.blocks]  # per letter, its block's row

    if not any(step for charge in charges for step, _ in charge):
        des, ris, lev, cnt = (
            [charge[_STAT_INDEX[stat]][1] for charge in charges] for stat in ("des", "ris", "lev", "cnt")
        )
        states = [1 << shift for shift in cnt]
        above = [0] * k
        for length in range(1, n + 1):
            if length > 1:
                # above[b]: the words ending in a letter a > b, each charged its descent
                suffix = 0
                for a in range(k - 1, 0, -1):
                    suffix += states[a] << des[a] if des[a] else states[a]
                    above[a - 1] = suffix
                below = 0  # the words ending in a letter a < b, each charged its rise
                for b, old in enumerate(states):
                    new = below + (old << lev[b] if lev[b] else old) + above[b]
                    states[b] = new << cnt[b] if cnt[b] else new
                    below += old << ris[b] if ris[b] else old
            if length >= first:
                yield {0: sum(states)}
        return

    letters = range(1, k + 1)
    start = [charge[_STAT_INDEX["cnt"]] for charge in charges]
    moves = [[tuple(map(add, charges[a - 1][_pair_index(a, b)], start[b - 1])) for b in letters] for a in letters]
    states = [{step: 1 << shift} for step, shift in start]
    for length in range(1, n + 1):
        if length > 1:
            new_states = []
            for b in range(k):
                merged: dict[int, int] = {}
                get = merged.get
                for a in range(k):
                    step, shift = moves[a][b]
                    if shift:
                        for key, count in states[a].items():
                            key += step
                            merged[key] = get(key, 0) + (count << shift)
                    else:
                        for key, count in states[a].items():
                            key += step
                            merged[key] = get(key, 0) + count
                new_states.append(merged)
            states = new_states
        if length >= first:
            totals: dict[int, int] = {}
            for table in states:
                for key, count in table.items():
                    totals[key] = totals.get(key, 0) + count
            yield totals


def transfer_tallies(
    k: int, n: int, partition: BlockPartition, keys: Sequence[Sequence[int]], first: int | None = None
) -> Iterator[dict[int, int]]:
    """Per length first..n, by default n alone, packed key -> number of words, from one full-joint DP pass.

    The kernel tracks all 4t coordinates in the key layout ``keys``, per
    block the unit key of each statistic index; appending a letter charges
    the new pair to the block of the old last letter.  Runs in time
    polynomial in n for fixed k, independent of the enumeration budget.
    """
    charges = [[(key, 0) for key in row] for row in keys]
    yield from _kernel(k, n, partition, charges, _validate_shape(k, n, partition, first))


def transfer_distribution(k: int, n: int, partition: BlockPartition) -> DistPolynomial:
    """Same distribution via the transfer DP over the last letter: the one tally of ``transfer_tallies``, decoded."""
    return _decoded(k, n, partition, next(transfer_tallies(k, n, partition, compact_keys(n, partition.t))))


def statistic_tallies(
    k: int, n: int, partition: BlockPartition, coords: Sequence[tuple[int, str]], first: int | None = None
) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The kernel's (field bytes, radix, tally) of selected (block, statistic) coordinates, per length first..n, by default n alone.

    The transfer DP tracking just the requested coordinates, keeping the
    state space small when a query needs a single marginal out of a large
    partition: tallies (see ``combinat``) in fields of ``field_bytes(k**n)``
    bytes, digits in radix n + 1, as the closed forms' packed passes hand
    theirs out.  The coordinates and shape are checked at the call.
    """
    indexed = [(block, _check_coordinate(partition, block, stat)) for block, stat in coords]
    first = _validate_shape(k, n, partition, first)
    size = field_bytes(k**n)
    units = tally_units(len(indexed), size, n + 1)
    return ((size, n + 1, tally) for tally in _kernel(k, n, partition, _letter_keys(partition, indexed, units), first))


def statistic_distribution(
    k: int,
    n: int,
    partition: BlockPartition,
    coords: Sequence[tuple[int, str]],
) -> dict[tuple[int, ...], int]:
    """Joint distribution of selected (block, statistic) coordinates: the one tally of ``statistic_tallies``, decoded."""
    return decode_tally(next(statistic_tallies(k, n, partition, coords)), len(coords))


def count_matching(
    k: int,
    n: int,
    partition: BlockPartition,
    constraints: Sequence[tuple[int, str, int]],
) -> int:
    """Number of words of [k]^n whose statistics meet every (block, statistic, value).

    One entry of the transfer engine's ``statistic_distribution``, which checks the
    coordinates, also without constraints.  Nothing in the library calls it.
    """
    coords = [(block, stat) for block, stat, _ in constraints]
    target = tuple(value for _, _, value in constraints)
    for value in target:
        if value < 0:
            raise InputError(f"constraint value must be nonnegative, got {value}")
    return statistic_distribution(k, n, partition, coords).get(target, 0)


def rearrangement_distribution(
    rho: Sequence[int],
    top_letters: Iterable[int],
    bottom_letters: Iterable[int],
    budget: int | None = None,
) -> dict[int, int]:
    """Distribution of constrained descents over one rearrangement class.

    ``rho[j-1]`` is the multiplicity of letter j; a descent position counts
    when its first letter lies in ``top_letters`` and its second in
    ``bottom_letters``.  The all-zero class contributes the empty word,
    giving {0: 1}.  The budget is charged n!, the cost of walking every
    arrangement of the n letters, although the dynamic program never does.
    """
    rho = tuple(rho)
    _check_multiplicities(rho)
    n = sum(rho)
    limit = resolve_budget(budget)
    # 2!, 3!, ... only until one passes the limit; an n! past 10,000 letters is named, not computed.
    if any(product > limit for product in itertools.accumulate(range(2, n + 1), mul, initial=1)):
        raise BudgetExceededError(factorial(n) if n <= 10_000 else f"{n}!", limit)
    size, _, tally = pair_distribution(rho, counted_pairs(rho, top_letters, bottom_letters))
    return {hits: count for hits, count in enumerate(unpack(tally[0], size)) if count}


def counted_pairs(
    rho: Sequence[int], top_letters: Iterable[int], bottom_letters: Iterable[int]
) -> frozenset[tuple[int, int]]:
    """The (top, bottom) descents that count, among letters the class rho uses.

    A descent a > b counts when a is a top letter and b a bottom letter;
    letters of multiplicity 0 never occur, so their pairs are left out.
    """
    tops = frozenset(top_letters)
    bottoms = frozenset(bottom_letters)
    used = [letter for letter, reps in enumerate(rho, start=1) if reps > 0]
    return frozenset(
        (a, b) for a in used if a in tops for b in used if b < a and b in bottoms
    )


def pair_distribution(rho: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[int, int, dict[int, int]]:
    """Number of rearrangements of rho with each number of adjacent ``pairs``, as (field bytes, n + 1, {0: g}), n = sum(rho).

    A dynamic program over (letters placed, last letter).  The letters
    placed are a mixed-radix integer with digit j in 0..rho[j], and placing
    a letter only raises it, so visiting the integers in increasing order
    visits every state after all of its predecessors.  A state holds the
    distribution of counted pairs so far as one integer, count i in byte
    field i of ``field_bytes(multinomial(n, rho))`` bytes, as no count
    exceeds the size of the class; a counted pair is a shift by one field.
    Multiplicities must be nonnegative; no budget is charged.
    """
    rho = tuple(rho)
    n = sum(rho)
    if n == 0:
        return 1, 1, {0: 1}
    m = len(rho)
    counted = frozenset(pairs)
    size = field_bytes(multinomial(n, rho))
    field = (1 << 8 * size) - 1
    place = [1] * m
    for j in range(1, m):
        place[j] = place[j - 1] * (rho[j - 1] + 1)
    # Per appended letter b: the last letters whose pair with b counts.
    before = [[a for a in range(m) if (a + 1, b + 1) in counted] for b in range(m)]

    # Every multiset at or below rho is reached from one with a letter fewer.
    ends_at = [[0] * m for _ in range(prod(reps + 1 for reps in rho))]
    # Digits of the integers 0, 1, 2, ... in the mixed radix, most significant first.
    placed = itertools.product(*(range(reps + 1) for reps in reversed(rho)))
    for used, digits in enumerate(placed):
        ends = ends_at[used]
        # State 0 holds only the empty word, which has no last letter.
        total = sum(ends) if used else 1
        for b in range(m):
            if digits[m - 1 - b] == rho[b]:
                continue
            shifted = 0
            for a in before[b]:
                shifted += ends[a]
            # (total - shifted) + (shifted << 8 * size): a counted pair moves its words up a field.
            ends_at[used + place[b]][b] += total + shifted * field
    return size, n + 1, {0: sum(ends_at[-1])}
