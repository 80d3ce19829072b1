"""Words over a finite alphabet and their refined pair statistics.

A word is a finite sequence of letters from {1, ..., k}, given as any
sequence of ints.  Every adjacent pair is a descent, a level, or a rise,
and is charged to the block of a fixed alphabet partition that contains
the pair's *first* letter.  Letter counts per block are tracked
alongside, so a word of length n always accounts for n letters and n-1
classified pairs.

``stat_key`` is the one definition and the one representation of a
word's statistics: a tuple with one (descents, rises, levels, letters)
row per block.  Every distribution (``DistPolynomial.entries``) is keyed
by such tuples.  The brute-force oracle computes them with ``stat_key``,
and ``verify.duality_suite`` reads its complement dualities from it, so a
wrong rule there fails that suite too; the transfer DP and the series
engine build them from their own pair classification, so that the engines
stay independent of each other.

The refusals every engine shares are written here once, each with one text:
``_check_alphabet``, ``_check_length``, ``_check_multiplicities``, ``_check_partition``.
The budget refusal, ``BudgetExceededError``, is defined here too, beside
``InputError``, so that the CLI catches it without loading ``oracle``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

_STAT_INDEX = {"des": 0, "ris": 1, "lev": 2, "cnt": 3}


class InputError(ValueError):
    """A documented precondition was violated by the caller."""


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


_setattr = object.__setattr__


class Record:
    """A record type: its constructor, equality and repr, written from its fields.

    The fields are the names a subclass annotates, after its bases' ones; a
    class attribute of that name is the default (in a ``__slots__`` class
    the name holds the slot, so there is none).  A subclass that adds fields
    gets an ``__init__`` compiled from them, as ``namedtuple`` compiles its
    ``__new__``: it costs what a hand-written one does, and Python's own
    argument binding raises ``TypeError`` for a missing, unknown, repeated
    or extra field.  An ``__init__`` of the subclass's own reaches it through
    ``super().__init__``.  Records are equal when their classes and fields
    are; a record is unhashable.  Every wordstats record type is one of
    these, so no wordstats module imports the ``inspect`` and ``ast`` that a
    class decorator from the standard library would bring.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        if not own:
            return
        slots = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(own)
        defaults = {name: getattr(cls, name) for name in own if name in vars(cls) and name not in slots}
        cls._defaults = {**cls._defaults, **defaults}
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name for name in cls._fields)
        # A frozen record's __setattr__ refuses every field, so its fields are set past it.
        assign = "self.{0} = {0}" if cls.__setattr__ is _setattr else "_setattr(self, {0!r}, {0})"
        body = "; ".join(assign.format(name) for name in cls._fields)
        scope = {"_setattr": _setattr, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}): {body}", scope)
        cls._init = scope["__init__"]
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._init

    def __init__(self, *args, **kwargs) -> None:
        self._init(*args, **kwargs)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A ``Record`` that hashes its fields and refuses assignment and deletion."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class BlockPartition(FrozenRecord):
    """Assignment of each letter 1..k to one of t blocks (both 1-based).

    ``blocks[j-1]`` is the block of letter j.  Blocks may be empty on the
    alphabet (e.g. a threshold partition with the cut at k leaves block 2
    without letters); t is the declared number of blocks, not the number
    of inhabited ones.
    """

    __slots__ = ("k", "blocks", "t")
    k: int
    blocks: tuple[int, ...]
    t: int

    def __init__(self, k: int, blocks, t: int) -> None:
        super().__init__(k, tuple(blocks), t)
        _check_alphabet(self.k)
        if self.t < 1:
            raise InputError(f"block count must be at least 1, got {self.t}")
        if len(self.blocks) != self.k:
            raise InputError(
                f"partition covers {len(self.blocks)} letters, alphabet has {self.k}"
            )
        for letter, block in enumerate(self.blocks, start=1):
            if not 1 <= block <= self.t:
                raise InputError(
                    f"letter {letter} assigned to block {block}, valid range 1..{self.t}"
                )

    # The named partitions are cached: a grid asks for the same one at every length.
    @classmethod
    @lru_cache(maxsize=256)
    def threshold(cls, k: int, t: int) -> "BlockPartition":
        """Two blocks: letters 1..t in block 1, letters t+1..k in block 2.

        t = 0 and t = k are allowed; they leave one block empty on [k],
        which is how "descents over all letters" style queries arise.
        """
        if not 0 <= t <= k:
            raise InputError(f"threshold {t} outside 0..{k}")
        return cls(k, tuple(1 if j <= t else 2 for j in range(1, k + 1)), 2)

    @classmethod
    @lru_cache(maxsize=256)
    def mod_residue(cls, k: int, s: int) -> "BlockPartition":
        """s blocks by residue: letter j sits in block ((j-1) mod s) + 1.

        Block r holds the letters congruent to r mod s, with block s
        holding the multiples of s.
        """
        if s < 1:
            raise InputError(f"modulus must be at least 1, got {s}")
        return cls(k, tuple((j - 1) % s + 1 for j in range(1, k + 1)), s)

    @classmethod
    def from_blocks(cls, blocks, t: int | None = None) -> "BlockPartition":
        """Explicit assignment; t defaults to the largest block index used."""
        blocks = tuple(blocks)
        if not blocks:
            raise InputError("explicit partition needs at least one letter")
        if t is None:
            t = max(blocks)
        return cls(len(blocks), blocks, t)

    def block_of(self, letter: int) -> int:
        if not 1 <= letter <= self.k:
            raise InputError(f"letter {letter} outside alphabet 1..{self.k}")
        return self.blocks[letter - 1]

    def block_sizes(self) -> tuple[int, ...]:
        """Number of alphabet letters in each block, indexed 1..t."""
        sizes = [0] * self.t
        for block in self.blocks:
            sizes[block - 1] += 1
        return tuple(sizes)


def stat_key(letters, blocks, t: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per-block (descents, rises, levels, letters) totals of one word.

    ``blocks`` and ``t`` are those of a ``BlockPartition``; row i - 1 holds
    block i.  Letters are not range-checked: this is the brute-force
    oracle's inner loop.
    """
    rows = [[0, 0, 0, 0] for _ in range(t)]
    prev = 0
    for letter in letters:
        rows[blocks[letter - 1] - 1][3] += 1
        if prev:
            row = rows[blocks[prev - 1] - 1]
            if prev > letter:
                row[0] += 1
            elif prev == letter:
                row[2] += 1
            else:
                row[1] += 1
        prev = letter
    return tuple(tuple(row) for row in rows)


class DistPolynomial(Record):
    """Exact joint distribution: ``stat_key`` tuple -> number of words attaining it."""

    __slots__ = ("entries", "k", "n", "partition")
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
        """Joint distribution of selected (block, statistic) coordinates, each checked first."""
        indexed = [(block - 1, _check_coordinate(self.partition, block, stat)) for block, stat in coords]
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


def _check_coordinate(partition: BlockPartition, block: int, stat: str) -> int:
    """The index of ``stat``, once ``block`` is one of the partition's 1..t."""
    if not 1 <= block <= partition.t:
        raise InputError(f"constraint names block {block}, partition has 1..{partition.t}")
    return _stat_index(stat)


def _check_alphabet(k: int) -> None:
    if k < 1:
        raise InputError(f"alphabet size must be at least 1, got {k}")


def _check_length(n: int, s: int = 0) -> None:
    if n < 0 or s < 0:
        raise InputError("length and statistic value must be nonnegative")


def _check_multiplicities(rho: Sequence[int]) -> None:
    if any(reps < 0 for reps in rho):
        raise InputError(f"multiplicities must be nonnegative, got {tuple(rho)}")


def _check_partition(k: int, partition: BlockPartition) -> None:
    """Refuse a partition of any alphabet but [k], and first a k below 1, which none has."""
    if partition.k != k:
        _check_alphabet(k)
        raise InputError(f"partition covers [{partition.k}], queried alphabet is [{k}]")
