"""Ground-truth engines for the joint statistic distributions.

Two independent routes produce the same exact object: ``brute_distribution``
walks every word of [k]^n, while the transfer engine runs a dynamic
program over (last letter, accumulated statistics).  Their agreement is a
load-bearing cross-check, so neither is ever expressed in terms of the
other.

The transfer engine is one kernel, ``_transfer_kernel``, with two entry
points: ``transfer_distribution`` tracks all 4t (block, statistic)
coordinates, ``statistic_distribution`` tracks only the coordinates a
query names.  The kernel packs the tracked values into one integer key
and precomputes the key increment of every letter pair, so a transition
is one integer add.  ``coordinate_distribution`` answers a set of
coordinates from one pass of either engine; counts and tables both read
off it.

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
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable, Sequence

from .words import BlockPartition, InputError, stat_key

DEFAULT_ENUMERATION_BUDGET = 1 << 24
BUDGET_ENV_VAR = "WORDSTATS_ENUM_BUDGET"

_STAT_INDEX = {"des": 0, "ris": 1, "lev": 2, "cnt": 3}


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"enumeration needs {required} words, over the budget of {limit} "
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
            return int(raw)
        except ValueError:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    return DEFAULT_ENUMERATION_BUDGET


@dataclass
class DistPolynomial:
    """Exact joint distribution: ``stat_key`` tuple -> number of words attaining it."""

    entries: dict[tuple[tuple[int, int, int, int], ...], int]
    k: int
    n: int
    partition: BlockPartition

    def total(self) -> int:
        return sum(self.entries.values())

    def marginal(self, block: int, stat: str) -> dict[int, int]:
        """Distribution of one coordinate, e.g. descents charged to a block."""
        return {key[0]: count for key, count in self.joint([(block, stat)]).items()}

    def joint(self, coords: Sequence[tuple[int, str]]) -> dict[tuple[int, ...], int]:
        """Joint distribution of selected (block, statistic) coordinates."""
        indexed = [(block - 1, _stat_index(stat)) for block, stat in coords]
        out: dict[tuple[int, ...], int] = {}
        for vector, count in self.entries.items():
            key = tuple(vector[row][index] for row, index in indexed)
            out[key] = out.get(key, 0) + count
        return out


def _stat_index(stat: str) -> int:
    try:
        return _STAT_INDEX[stat]
    except KeyError:
        raise InputError(f"unknown statistic {stat!r}, expected des/ris/lev/cnt")


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
    required = k**n
    if required > limit:
        raise BudgetExceededError(required, limit)
    blocks = partition.blocks
    t = partition.t
    entries: dict[tuple, int] = {}
    for letters in itertools.product(range(1, k + 1), repeat=n):
        key = stat_key(letters, blocks, t)
        entries[key] = entries.get(key, 0) + 1
    return DistPolynomial(entries=entries, k=k, n=n, partition=partition)


# The transfer kernel's own pair classification, not stat_key's, so the two oracles stay independent.
def _pair_index(a: int, b: int) -> int:
    """Statistic index of the adjacent pair (a, b): descent, level or rise."""
    if a > b:
        return _STAT_INDEX["des"]
    if a == b:
        return _STAT_INDEX["lev"]
    return _STAT_INDEX["ris"]


def _transfer_kernel(
    k: int, n: int, partition: BlockPartition, coords: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """The transfer-matrix DP over the last letter, on packed integer keys.

    ``coords`` lists (block, statistic index) pairs.  Coordinate i is digit
    i of a packed key in radix n + 1, which no coordinate of a length-n word
    exceeds, so digits never carry.  ``delta[a][b]`` is the key increment of
    appending letter b after letter a: the pair (a, b) charged to the block
    of a, plus one letter counted in the block of b.  A transition is then a
    single integer add.  Returns packed key -> number of words of length n.
    """
    if n == 0:
        return {0: 1}
    radix = n + 1
    place: dict[tuple[int, int], int] = {}
    for position, coord in enumerate(coords):
        place[coord] = place.get(coord, 0) + radix**position
    blocks = partition.blocks
    letters = range(1, k + 1)
    start = [place.get((blocks[b - 1], _STAT_INDEX["cnt"]), 0) for b in letters]
    delta = [
        [place.get((blocks[a - 1], _pair_index(a, b)), 0) + start[b - 1] for b in letters]
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
    partition.
    """
    _validate_shape(k, n, partition)
    indexed = []
    for block, stat in coords:
        if not 1 <= block <= partition.t:
            raise InputError(f"block {block} outside 1..{partition.t}")
        indexed.append((block, _stat_index(stat)))
    packed = _transfer_kernel(k, n, partition, indexed)
    return {_unpack(key, len(indexed), n + 1): count for key, count in packed.items()}


@dataclass(frozen=True)
class ConstraintSpec:
    """Exact-value requirements on selected (block, statistic) coordinates."""

    exact: tuple[tuple[int, str, int], ...] = ()

    @classmethod
    def of(cls, *clauses: tuple[int, str, int]) -> "ConstraintSpec":
        return cls(tuple(clauses))

    def validate(self, partition: BlockPartition) -> None:
        for block, stat, value in self.exact:
            _check_coordinate(partition, block, stat)
            if value < 0:
                raise InputError(f"constraint value must be nonnegative, got {value}")


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
    budget: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Joint distribution of (block, statistic) coordinates from one engine pass.

    ``oracle`` enumerates every word and projects onto ``coords``;
    ``transfer`` runs the DP tracking only ``coords``.  A count reads one
    entry of the result, a table reads all of them.
    """
    for block, stat in coords:
        _check_coordinate(partition, block, stat)
    if engine == "oracle":
        return brute_distribution(k, n, partition, budget=budget).joint(coords)
    if engine == "transfer":
        return statistic_distribution(k, n, partition, coords)
    raise InputError(f"unknown engine {engine!r}, expected oracle or transfer")


def count_matching(
    k: int,
    n: int,
    partition: BlockPartition,
    constraints: ConstraintSpec,
    engine: str = "transfer",
    budget: int | None = None,
) -> int:
    """Number of words of [k]^n whose statistics satisfy every constraint."""
    constraints.validate(partition)
    if engine == "transfer" and not constraints.exact:
        return k**n
    coords = [(block, stat) for block, stat, _ in constraints.exact]
    target = tuple(value for _, _, value in constraints.exact)
    dist = coordinate_distribution(k, n, partition, coords, engine=engine, budget=budget)
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
    if factorial(n) > limit:
        raise BudgetExceededError(factorial(n), limit)
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

    ends_at: list[list[int] | None] = [None] * prod(reps + 1 for reps in rho)
    ends_at[0] = [0] * m
    # Digits of the integers 0, 1, 2, ... in the mixed radix, most significant first.
    placed = itertools.product(*(range(reps + 1) for reps in reversed(rho)))
    for used, digits in enumerate(placed):
        ends = ends_at[used]
        if ends is None:
            continue
        # State 0 holds only the empty word, which has no last letter.
        total = sum(ends) if used else 1
        for b in range(m):
            if digits[m - 1 - b] == rho[b]:
                continue
            shifted = 0
            for a in before[b]:
                shifted += ends[a]
            into = ends_at[used + place[b]]
            if into is None:
                into = ends_at[used + place[b]] = [0] * m
            # (total - shifted) + (shifted << width): a counted pair moves its words up a field.
            into[b] += total + shifted * field
    packed = sum(ends_at[-1])
    out: dict[int, int] = {}
    for hits in range(n):
        count = (packed >> (hits * width)) & field
        if count:
            out[hits] = count
    return out
