"""Ground-truth engines for the joint statistic distributions.

Two independent routes produce the same exact object: ``brute_distribution``
walks every word of [k]^n, while the transfer engine runs a dynamic
program over (last letter, accumulated statistics).  Their agreement is a
load-bearing cross-check, so neither is ever expressed in terms of the
other.  The walk is depth first and merges no words: each prefix carries
its statistics packed into one integer, and appending a letter adds an
increment read off ``stat_key`` on one- and two-letter words, so a word
costs O(1), not O(n).

The transfer engine runs the transfer-matrix DP over the last letter on
packed keys: tracked coordinate i is digit i of one integer in radix
n + 1, and ``_letter_keys`` gives each letter's key increment per
statistic.  Two kernels run the DP and return the same dict:

- ``_dense_kernel`` holds each last letter's distribution as one integer,
  the count of packed key K in bit field K (Kronecker substitution), so a
  step is O(k) big-integer shifts and adds.  It serves
  ``statistic_distribution`` when the query tracks at most two
  coordinates, a duplicate counting as one more: every count and table
  except ``levels-blocks`` on three or more blocks.
- ``_transfer_kernel`` holds one dict of reachable keys per last letter
  and merges k**2 of them per step.  It serves ``transfer_distribution``,
  which tracks all 4t coordinates, and joints of three or more.

Dense fields number (n + 1)**c for c coordinates, while the reachable keys
form a simplex of about n**c / c! of them.  Measured in one process
(Python 3.11, 2 vCPU), the dense kernel ran 2-19x faster on one coordinate
(k 3-8, n 12-200) and 5-9x on two (k 5-6, n 8-30); on three level blocks
at k = 6 still 1.4-3x (n 6-24), but on four at k = 4 it ran at 0.3-0.4x
(n 8-16) and on six at n = 8 it took 0.29 s against 0.004 s.  The
crossover thus lies between three and four coordinates; the cut is at
two, where the (n + 1)**2 fields stay within about twice the n**2 / 2
reachable keys of two distinct coordinates.
``coordinate_distribution`` answers a set of coordinates from one pass
of either engine; counts and tables both read off it.

A third oracle, ``rearrangement_distribution``, counts descents whose top
letter lies in one set and whose bottom letter lies in another over a
fixed rearrangement class.  It is a dynamic program over (letters still
to place, last letter), not an enumeration of the class: the answer
depends only on the set of counted (top, bottom) letter pairs
(``counted_pairs``), and ``pair_distribution`` runs the program for one
such set.  Each state holds its whole distribution of counted descents
packed into one integer, so appending a letter is a shift and an add.

All counts are exact Python integers; nothing here floats.
"""

from __future__ import annotations

import itertools
import os
from math import factorial, prod
from operator import mul
from typing import Iterable, Sequence

from .words import _STAT_INDEX, BlockPartition, DistPolynomial, InputError, _stat_index, stat_key

DEFAULT_ENUMERATION_BUDGET = 1 << 24
BUDGET_ENV_VAR = "WORDSTATS_ENUM_BUDGET"


def _amount(value: int | str) -> str:
    """``value`` in decimal, or by its bit count where Python refuses to print it."""
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"a {value.bit_length()}-bit number of"


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget; ``required`` may name the charge."""

    def __init__(self, required: int | str, limit: int):
        super().__init__(
            f"enumeration needs {_amount(required)} words, over the budget of {_amount(limit)} "
            f"(override with an explicit budget or {BUDGET_ENV_VAR})"
        )
        self.required = required
        self.limit = limit


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument wins, then the environment, then the default cap."""
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            pass
        else:
            if budget >= 0:
                return budget
        raise InputError(f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {raw!r}")
    return DEFAULT_ENUMERATION_BUDGET


def _validate_shape(k: int, n: int, partition: BlockPartition) -> None:
    if k < 1:
        raise InputError(f"alphabet size must be at least 1, got {k}")
    if n < 0:
        raise InputError(f"word length must be nonnegative, got {n}")
    if partition.k != k:
        raise InputError(
            f"partition covers [{partition.k}], queried alphabet is [{k}]"
        )


def brute_distribution(
    k: int, n: int, partition: BlockPartition, budget: int | None = None
) -> DistPolynomial:
    """Joint distribution by summing over all k**n words."""
    _validate_shape(k, n, partition)
    limit = resolve_budget(budget)
    # k**n is at least 2**(n * (bits of k - 1)), so a power far past the limit is refused
    # before it is computed, and one that could pass 2**16 bits is named, not computed.
    if n * (k.bit_length() - 1) > limit.bit_length():
        raise BudgetExceededError(k**n if n * k.bit_length() <= 1 << 16 else f"{k}**{n}", limit)
    # At k = 1 the one word still takes n steps.
    required = max(k**n, n)
    if required > limit:
        raise BudgetExceededError(required, limit)
    blocks, t = partition.blocks, partition.t
    # Coordinate (block i, statistic j) is bit field 4(i-1)+j; no value exceeds n.
    width = n.bit_length()
    fields = [width * f for f in range(4 * t)]

    def pack(letters) -> int:
        return sum(v << f for v, f in zip(itertools.chain(*stat_key(letters, blocks, t)), fields))

    letters = range(1, k + 1)
    start = [pack((b,)) for b in letters]
    # step[a][b-1]: what appending b adds to a word ending in a, or to the empty word at a = 0.
    step = [start] + [[pack((a, b)) - start[a - 1] for b in letters] for a in letters]
    # Pushed last letter first, so words are tallied in lexicographic order.
    children = [list(enumerate(row, start=1))[::-1] for row in step]
    tally: dict[int, int] = {} if n else {0: 1}
    get = tally.get
    # Prefixes still to extend: (packed statistics, last letter, letters to append).
    # A stack, not recursion: at k = 1 the budget admits lengths up to the budget itself.
    stack = [(0, 0, n)] if n else []
    while stack:
        key, last, left = stack.pop()
        if left == 1:
            for shift in step[last]:
                word = key + shift
                tally[word] = get(word, 0) + 1
        else:
            left -= 1
            for b, shift in children[last]:
                stack.append((key + shift, b, left))
    mask = (1 << width) - 1
    entries = {
        tuple(tuple(key >> f & mask for f in fields[i : i + 4]) for i in range(0, 4 * t, 4)): count
        for key, count in tally.items()
    }
    return DistPolynomial(entries=entries, k=k, n=n, partition=partition)


# The dict kernel's own pair classification, not stat_key's, so the two oracles stay independent.
def _pair_index(a: int, b: int) -> int:
    """Statistic index of the adjacent pair (a, b): descent, level or rise."""
    if a > b:
        return _STAT_INDEX["des"]
    if a == b:
        return _STAT_INDEX["lev"]
    return _STAT_INDEX["ris"]


def _letter_keys(
    n: int, partition: BlockPartition, coords: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """Per letter, the packed-key increment of each statistic index charged to its block.

    ``coords`` lists (block, statistic index) pairs.  Coordinate i is digit
    i of a packed key in radix n + 1, which no coordinate of a length-n word
    exceeds, so digits never carry; a coordinate listed twice adds both
    digits.  Row a - 1 is what a pair whose first letter is a adds, by the
    pair's statistic index, and at ``_STAT_INDEX["cnt"]`` what letter a
    itself adds.
    """
    radix = n + 1
    place: dict[tuple[int, int], int] = {}
    for position, coord in enumerate(coords):
        place[coord] = place.get(coord, 0) + radix**position
    return [[place.get((block, index), 0) for index in range(4)] for block in partition.blocks]


def _transfer_kernel(
    k: int, n: int, partition: BlockPartition, coords: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """The transfer-matrix DP over the last letter, one dict of packed keys per letter.

    ``delta[a][b]`` is the key increment of appending letter b after letter
    a: the pair (a, b) charged to the block of a, plus one letter counted in
    the block of b.  A transition is then a single integer add.  Returns
    packed key (see ``_letter_keys``) -> number of words of length n.
    """
    if n == 0:
        return {0: 1}
    keys = _letter_keys(n, partition, coords)
    letters = range(1, k + 1)
    start = [charge[_STAT_INDEX["cnt"]] for charge in keys]
    delta = [
        [keys[a - 1][_pair_index(a, b)] + start[b - 1] for b in letters]
        for a in letters
    ]

    states = [{key: 1} for key in start]
    for _ in range(n - 1):
        new_states = []
        for b in range(k):
            merged: dict[int, int] = {}
            get = merged.get
            for a in range(k):
                shift = delta[a][b]
                for key, count in states[a].items():
                    key += shift
                    merged[key] = get(key, 0) + count
            new_states.append(merged)
        states = new_states

    out: dict[int, int] = {}
    for table in states:
        for key, count in table.items():
            out[key] = out.get(key, 0) + count
    return out


def _dense_kernel(
    k: int, n: int, partition: BlockPartition, coords: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """The same DP and result as ``_transfer_kernel``, one integer per last letter.

    A state holds the number of words with packed key K in bit field K of
    ``width`` bits: no count exceeds k**n, so fields never carry, and adding
    a key increment is a shift.  Appending b after a charges the pair to
    the block of a, as a rise for every a < b, a level for a = b and a
    descent for every a > b, so

        new[b] = (sum_{a<b} old[a] << ris[a] + old[b] << lev[b]
                  + sum_{a>b} old[a] << des[a]) << cnt[b],

    which one suffix-sum pass and a running prefix sum give for every b in
    O(k) big-integer operations.  The fields number (n + 1)**len(coords).
    """
    if n == 0:
        return {0: 1}
    size = ((k**n).bit_length() + 8) // 8  # bytes per field: one spare bit, rounded up
    width = 8 * size
    keys = _letter_keys(n, partition, coords)
    des, ris, lev, cnt = (
        [charge[_STAT_INDEX[stat]] * width for charge in keys] for stat in ("des", "ris", "lev", "cnt")
    )

    states = [1 << shift for shift in cnt]
    above = [0] * k
    for _ in range(n - 1):
        # above[b]: the words ending in a letter a > b, each charged its descent
        suffix = 0
        for a in range(k - 1, 0, -1):
            suffix += states[a] << des[a]
            above[a - 1] = suffix
        below = 0  # the words ending in a letter a < b, each charged its rise
        for b, old in enumerate(states):
            states[b] = (below + (old << lev[b]) + above[b]) << cnt[b]
            below += old << ris[b]

    total = sum(states)
    fields = -(-total.bit_length() // width)
    data = total.to_bytes(fields * size, "little")
    out: dict[int, int] = {}
    for key in range(fields):
        count = int.from_bytes(data[key * size : (key + 1) * size], "little")
        if count:
            out[key] = count
    return out


def _unpack(key: int, size: int, radix: int) -> tuple[int, ...]:
    digits = []
    for _ in range(size):
        key, digit = divmod(key, radix)
        digits.append(digit)
    return tuple(digits)


def transfer_distribution(k: int, n: int, partition: BlockPartition) -> DistPolynomial:
    """Same distribution via the transfer DP over the last letter.

    The kernel tracks all 4t coordinates; appending a letter charges the new
    pair to the block of the old last letter.  Runs in time polynomial in n
    for fixed k, independent of the enumeration budget.
    """
    _validate_shape(k, n, partition)
    t = partition.t
    coords = [(block, index) for block in range(1, t + 1) for index in range(4)]
    entries = {}
    for key, count in _transfer_kernel(k, n, partition, coords).items():
        values = _unpack(key, 4 * t, n + 1)
        entries[tuple(values[i : i + 4] for i in range(0, 4 * t, 4))] = count
    return DistPolynomial(entries=entries, k=k, n=n, partition=partition)


def statistic_distribution(
    k: int,
    n: int,
    partition: BlockPartition,
    coords: Sequence[tuple[int, str]],
) -> dict[tuple[int, ...], int]:
    """Joint distribution of selected (block, statistic) coordinates only.

    The transfer DP tracking just the requested coordinates, keeping the
    state space small when a query needs a single marginal out of a large
    partition: on the dense kernel for at most two coordinates, otherwise
    on the dict kernel (see the module docstring).
    """
    for block, stat in coords:
        _check_coordinate(partition, block, stat)
    _validate_shape(k, n, partition)
    indexed = [(block, _stat_index(stat)) for block, stat in coords]
    kernel = _dense_kernel if len(indexed) <= 2 else _transfer_kernel
    packed = kernel(k, n, partition, indexed)
    return {_unpack(key, len(indexed), n + 1): count for key, count in packed.items()}


def _check_coordinate(partition: BlockPartition, block: int, stat: str) -> None:
    if not 1 <= block <= partition.t:
        raise InputError(
            f"constraint names block {block}, partition has 1..{partition.t}"
        )
    _stat_index(stat)


def coordinate_distribution(
    k: int,
    n: int,
    partition: BlockPartition,
    coords: Sequence[tuple[int, str]],
    engine: str = "transfer",
) -> dict[tuple[int, ...], int]:
    """Joint distribution of (block, statistic) coordinates from one engine pass.

    ``oracle`` enumerates every word and projects onto ``coords``;
    ``transfer`` runs the DP tracking only ``coords``, which checks them
    itself.  A count reads one entry of the result, a table reads all of
    them.
    """
    if engine == "transfer":
        return statistic_distribution(k, n, partition, coords)
    for block, stat in coords:
        _check_coordinate(partition, block, stat)
    if engine == "oracle":
        return brute_distribution(k, n, partition).joint(coords)
    raise InputError(f"unknown engine {engine!r}, expected oracle or transfer")


def count_matching(
    k: int,
    n: int,
    partition: BlockPartition,
    constraints: Sequence[tuple[int, str, int]],
    engine: str = "transfer",
) -> int:
    """Number of words of [k]^n whose statistics meet every (block, statistic, value).

    One entry of ``coordinate_distribution``, which checks the coordinates,
    also without constraints.
    """
    coords = [(block, stat) for block, stat, _ in constraints]
    target = tuple(value for _, _, value in constraints)
    for value in target:
        if value < 0:
            raise InputError(f"constraint value must be nonnegative, got {value}")
    dist = coordinate_distribution(k, n, partition, coords, engine=engine)
    return dist.get(target, 0)


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
    if any(r < 0 for r in rho):
        raise InputError(f"multiplicities must be nonnegative, got {rho}")
    n = sum(rho)
    limit = resolve_budget(budget)
    # 2!, 3!, ... only until one passes the limit; an n! past 10,000 letters is named, not computed.
    if any(product > limit for product in itertools.accumulate(range(2, n + 1), mul, initial=1)):
        raise BudgetExceededError(factorial(n) if n <= 10_000 else f"{n}!", limit)
    return pair_distribution(rho, counted_pairs(rho, top_letters, bottom_letters))


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


def pair_distribution(
    rho: Sequence[int], pairs: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """Number of rearrangements of rho with each number of adjacent ``pairs``.

    A dynamic program over (letters placed, last letter).  The letters
    placed are a mixed-radix integer with digit j in 0..rho[j], and placing
    a letter only raises it, so visiting the integers in increasing order
    visits every state after all of its predecessors.  A state holds the
    distribution of counted pairs so far as one integer, count i in bit
    field i of ``width`` bits: no count exceeds the size of the class, so
    fields never carry, and a counted pair is a shift by one field.
    Multiplicities must be nonnegative; no budget is charged.
    """
    rho = tuple(rho)
    n = sum(rho)
    if n == 0:
        return {0: 1}
    m = len(rho)
    counted = frozenset(pairs)
    width = factorial(n).bit_length()
    field = (1 << width) - 1
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
            # (total - shifted) + (shifted << width): a counted pair moves its words up a field.
            ends_at[used + place[b]][b] += total + shifted * field
    packed = sum(ends_at[-1])
    out: dict[int, int] = {}
    for hits in range(n):
        count = (packed >> (hits * width)) & field
        if count:
            out[hits] = count
    return out
