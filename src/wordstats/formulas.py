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
in a marker u, which ``_coefficients`` expands by Horner's rule in u-1
(``combinat.expand_shifted``).  ``inner(m)`` is not summed term by term: its
inner sums are hoisted out of m or convolved into one product, and the
sum left over m is a binomial expansion, so inner(m) = [x^n] F^m for a
small factor F that each family derives from the paper's sum.  F is a
polynomial of degree at most the alphabet size plus 1, or for
``levels-threshold`` a series multiplied in O(n), so a table of
``levels-threshold``, ``des-le``, ``des-gt`` or ``des-mod`` costs O(n^2)
for a fixed alphabet.

The joint level count over t blocks is a program over blocks keyed by
each block's level slots b_i; its table expands every (u_i - 1)^(b_i)
once at the end, in O(t n^(t+1)).  ``hall-remmel`` is one sum over r.
``FAMILIES`` declares each family once: its parameter checks, its table
builder, its word DP query, the (alphabet, n, partition, coordinates) of
the statistic it counts, which the CLI's oracle and transfer engines and
the verification suites read, and its verify grid, the cells on which
``verify.formulas_vs_oracle`` checks it, with the names its reports give
the parameters and the statistic value.  ``distribution`` returns a whole
table of any family from one call, and every count is one entry of that
table, read after the count's own parameter checks; the builders check
nothing.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import accumulate, islice, product
from math import comb
from operator import sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# binom is not called here; bench/tracing.py counts calls at formulas.binom.
from .combinat import binom, expand_shifted, multinomial
from .words import BlockPartition, InputError


def _named(table: dict, formula: str):
    try:
        return table[formula]
    except KeyError:
        raise InputError(f"unknown formula {formula!r}, expected one of {sorted(table)}")


def evaluate(formula: str, params: Sequence) -> int:
    """Evaluate a closed form by name; see ``CLOSED_FORMS`` for the names.

    Genuine counting parameters always give a count >= 0; the alternating
    sums may pass through negative partial terms but never a negative total.
    """
    return _named(CLOSED_FORMS, formula)(*params)


def distribution(formula: str, params: Sequence) -> dict:
    """Every statistic value of a closed form with its count, from one call.

    ``params`` are the formula's parameters without the statistic value.
    Keys are statistic values, or target tuples for ``levels-blocks``;
    values the closed form gives as 0 may be present or absent.
    """
    family = _named(FAMILIES, formula)
    family.checks(*params)
    return family.table(*params)


def check_params(formula: str, params: Sequence) -> None:
    """Run a closed form's parameter checks on ``params`` without evaluating it.

    ``params`` are those of ``distribution``, optionally followed by the
    statistic value ``evaluate`` takes.  The closed forms run these same
    checks, so an engine that validates through here refuses exactly the
    queries they refuse, with the same message.
    """
    _named(FAMILIES, formula).checks(*params)


def _entry(formula: str, params: tuple, value):
    """A count: ``value``'s entry of the family's table, after the count's checks."""
    family = FAMILIES[formula]
    family.checks(*params, value)
    return family.table(*params).get(value, 0)


def _check_threshold(lowest: int, k: int, t: int, n: int, s: int = 0) -> None:
    """Checks of a threshold family whose smallest threshold is ``lowest``."""
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
    """Checks of ``hall_remmel_count``: any letter sets pass, a negative value does not."""
    if any(reps < 0 for reps in rho):
        raise InputError(f"multiplicities must be nonnegative, got {tuple(rho)}")
    _check_length(0, *letters_and_value[2:])


def _check_alphabet(k: int) -> None:
    if k < 1:
        raise InputError(f"alphabet size must be at least 1, got {k}")


def _check_length(n: int, s: int = 0) -> None:
    if n < 0 or s < 0:
        raise InputError("length and statistic value must be nonnegative")


def _diagonal(factor: tuple[Callable[[list[int]], list[int]], int], n: int) -> Iterator[int]:
    """inner(m) = [x^n] F^m for m = 0, 1, ... (at most n+1 of them).

    ``factor`` is (times, shift) with F = x^shift G, shift 0 or 1, and
    ``times`` multiplying a series by G, cut at the series' length; G^m
    is kept only up to x^(n - shift m), the coefficient inner(m) reads.
    """
    times, shift = factor
    power = [1] + [0] * n
    while True:
        yield power[-1]
        power = times(power[: len(power) - shift])


def _descent_factor(tau: int, lead: int, slope: int, c0: int, c1: int, n: int):
    """The factor F = (1+x)^tau (lead + slope x) - c0 - c1 x, as ``_diagonal`` takes it.

    ``_diagonal`` reads nothing above x^n, so the binomial row stops at x^min(tau, n).
    """
    row = [comb(tau, j) for j in range(min(tau, n) + 1)]
    coefficients = [lead * a + slope * b for a, b in zip(row + [0], [0] + row)]
    coefficients[0] -= c0
    coefficients[1] -= c1
    shift = 0 if coefficients[0] else 1
    terms = [(j, c) for j, c in enumerate(coefficients[shift:]) if c]

    def times(series: list[int]) -> list[int]:
        product = [0] * len(series)
        for j, c in terms:
            product[j:] = [p + c * v for p, v in zip(product[j:], series)]
        return product

    return times, shift


def _coefficients(factor, n: int) -> dict[int, int]:
    """Every coefficient of sum_m [x^n] F^m (u-1)^(n-m), from one pass over m."""
    # (u-1)^b with b = n-m has weight inner(m), so m = 0 is the highest b.
    return dict(enumerate(expand_shifted(islice(_diagonal(factor, n), n + 1))))


def count_levels_threshold(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s levels starting at a letter <= t.

    Evaluates  sum_{m,i} (-1)^(n-m-s) C(m,i) C(i+n-m-1, n-m) C(n-m, s)
    (k-t)^(m-i) t^i.
    """
    return _entry("levels-threshold", (k, t, n), s)


def _levels_threshold(k: int, t: int, n: int):
    """The factor F of ``count_levels_threshold``.

    C(i+d-1, d) is [x^d] (1-x)^(-i), so the i-sum of inner(m) is
    [x^(n-m)] ((k-t) + t/(1-x))^m = [x^n] F^m with F = x (k - (k-t)x) / (1-x).
    """
    def times(series: list[int]) -> list[int]:
        # Times k - (k-t)x, then prefix sums for 1/(1-x).
        return list(accumulate(k * v - (k - t) * w for v, w in zip(series, [0, *series])))

    return times, 1


def count_levels_blocks(
    block_sizes: Sequence[int], n: int, targets: Sequence[int]
) -> int:
    """Words with exactly targets[i] levels starting in block i, jointly.

    ``block_sizes[i]`` is how many alphabet letters block i+1 holds; the
    alphabet size is their sum.  Level statistics depend on blocks only
    through these cardinalities.
    """
    return _entry("levels-blocks", (block_sizes, n), tuple(targets))


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


def _levels_blocks_query(block_sizes: Sequence[int], n: int) -> tuple:
    """Block i of the partition holds block_sizes[i] letters; every block's levels are read."""
    blocks = [block for block, size in enumerate(block_sizes, start=1) for _ in range(size)]
    coords = [(block, "lev") for block in range(1, len(block_sizes) + 1)]
    return sum(block_sizes), n, BlockPartition.from_blocks(blocks, t=len(block_sizes)), coords


def _block_program(block_sizes: tuple[int, ...], n: int) -> dict[tuple[int, ...], list[int]]:
    """The levels-blocks sum over every (a_i, b_i): (b_1, ..., b_(t-1)) -> weights over b_t.

    Block i takes a_i letters and b_i level slots, all blocks together n
    positions, with weight C(A_i, a_i) size_i^a_i C(a_i+b_i-1, b_i) where
    A_i = a_1+...+a_i: where its letters sit among the earlier ones, which
    letters they are, and how its levels spread over them.  The caller
    applies each block's level factor (u_i - 1)^(b_i).  The state is
    (letters placed, slots so far); its weights over the next b_i add up
    as one vector.
    """
    # spread[a][b] = C(a+b-1, b): b level slots over a letters; row a sums row a-1.
    spread = [[1] + [0] * n]
    for _ in range(n):
        spread.append(list(accumulate(spread[-1])))
    states = {(0, ()): 1}
    for size in block_sizes[:-1]:
        grown: dict = {}
        for (placed, slots), value in states.items():
            room = n - placed - sum(slots)
            for a in range(room + 1):
                lead = comb(placed + a, a) * size**a * value
                if lead:
                    # Every state reaching (placed + a, slots) has room - a slots left.
                    weights = grown.get((placed + a, slots)) or [0] * (room - a + 1)
                    grown[placed + a, slots] = [w + lead * c for w, c in zip(weights, spread[a])]
        states = {
            (placed, slots + (b,)): weight
            for (placed, slots), weights in grown.items()
            for b, weight in enumerate(weights)
            if weight
        }
    # The last block takes all the room that is left: a = room - b.
    powers = [block_sizes[-1] ** a for a in range(n + 1)]
    joint: dict = {}
    for (placed, slots), value in states.items():
        room = n - placed - sum(slots)
        weights = joint.get(slots) or [0] * (n - sum(slots) + 1)
        weights[: room + 1] = [
            w + value * comb(placed + room - b, placed) * powers[room - b] * spread[room - b][b]
            for b, w in enumerate(weights[: room + 1])
        ]
        joint[slots] = weights
    return joint


def _levels_blocks_table(block_sizes: Sequence[int], n: int) -> dict[tuple[int, ...], int]:
    """Every nonzero ``count_levels_blocks`` value, keyed by target tuple, from one pass.

    Block i contributes (u_i - 1)^(b_i), expanded once, one axis at a time.
    """
    sizes = tuple(block_sizes)
    joint = {
        (*slots, b): weight
        for slots, weights in _block_program(sizes, n).items()
        for b, weight in enumerate(weights)
        if weight
    }
    for axis in range(len(sizes)):
        # The keys equal off this axis form a fiber, one polynomial in u_axis - 1.
        fibers: dict = defaultdict(dict)
        for key, value in joint.items():
            fibers[key[:axis], key[axis + 1 :]][key[axis]] = value
        joint = {
            (*head, level, *tail): count
            for (head, tail), fiber in fibers.items()
            for level, count in enumerate(
                expand_shifted(fiber.get(b, 0) for b in range(max(fiber), -1, -1))
            )
            if count
        }
    return joint


def count_des_le(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter <= t.

    By complementation this also counts words with s rises starting at a
    letter in {k+1-t, ..., k}.
    """
    return _entry("des-le", (k, t, n), s)


def _des_le(k: int, t: int, n: int):
    """The factor F of ``count_des_le``.

    inner(m) = sum_{a,b} (-1)^(m-a-b) C(m,a) C(m-a,b) C(ta, n-b) (k-t)^b.
    The b-sum is [x^n] (1+x)^(ta) ((k-t)x - 1)^(m-a) and the a-sum a
    binomial expansion, so F = (1+x)^t + (k-t)x - 1.
    """
    return _descent_factor(t, 1, 0, 1, t - k, n)


def count_des_gt(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter > t.

    Dually, words with s rises starting at a letter <= k-t.  t = k is the
    empty statistic (every word scores 0) and t = 0 gives plain descents.
    """
    return _entry("des-gt", (k, t, n), s)


def _des_gt(k: int, t: int, n: int):
    """The factor F of ``count_des_gt``.

    inner(m) = sum_a (-1)^(m-a) C(m,a) g(a), whose m-free b-sum
    g(a) = sum_b C(a,b) C((k-t)a, n-b) t^b is [x^n] L^a with
    L = (1+tx)(1+x)^(k-t); so F = L - 1.
    """
    return _descent_factor(k - t, 1, t, 1, 0, n)


def count_des_mod(s: int, alphabet: int, r: int, n: int, p: int) -> int:
    """Words in [alphabet]^n with p descents starting at a letter = r mod s.

    Blocks follow the residue partition (block s holds multiples of s).
    Writing alphabet = s*k + t with 0 <= t < s, the paper's sum has three
    regimes: t = 0, and t > 0 with r above or within the offset t.
    """
    return _entry("des-mod", (s, alphabet, r, n), p)


def _des_mod_query(s: int, alphabet: int, r: int, n: int) -> tuple:
    """Descents charged to block r of the residue partition mod s."""
    return alphabet, n, BlockPartition.mod_residue(alphabet, s), [(r, "des")]


def count_des_mod_uncorrected(s: int, alphabet: int, r: int, n: int, p: int) -> int:
    """Transcription variants of ``count_des_mod`` that cross-validation rejects.

    For an alphabet that is a multiple of s this uses the (s-1) power base
    in place of (r-1); otherwise it collapses the inner summation index to
    its upper bound instead of summing over it.  Retained only so the
    verification suite can demonstrate these readings disagree with the
    oracle on explicit tuples.
    """
    _check_des_mod(s, alphabet, r, n, p)
    return _coefficients(_des_mod(s, alphabet, r, n, corrected=False), n).get(p, 0)


def _des_mod(s: int, alphabet: int, r: int, n: int, corrected: bool = True):
    """The factor F of ``count_des_mod``, or of the rejected readings if not ``corrected``.

    Offset regime (t > 0): inner(m) = sum_j (-1)^(m+j) C(m,j) sum_{i1,i2}
    C(m-j,i1) B^i1 C(j,i2) (r-1)^i2 s^(m-i1-i2) C(tau j, n-i1-i2), with
    B = r-1-t, tau = k if r > t and B = s-t+r-1, tau = k+1 otherwise.  The
    (i1, i2) weights of c = i1+i2 are [x^c] (s+Bx)^(m-j) (s+(r-1)x)^j, the
    c-sum against C(tau j, n-c) is one more product, and the j-sum a
    binomial expansion: F = (1+x)^tau (s+(r-1)x) - s - Bx.  Pinning j to m
    (rejected) leaves (1+x)^tau (s+(r-1)x).  Aligned regime (t = 0): the
    same F at t = 0, B = r-1; the rejected reading's base s-1 replaces r-1
    in both places.  In every regime B = (r-1-t) mod s.
    """
    kq, t = divmod(alphabet, s)
    if corrected:
        return _descent_factor(kq + (r <= t), s, r - 1, s, (r - 1 - t) % s, n)
    if t == 0:
        return _descent_factor(kq, s, s - 1, s, s - 1, n)
    return _descent_factor(kq + (r <= t), s, r - 1, 0, 0, n)


def hall_remmel_count(
    rho: Sequence[int], top_letters, bottom_letters, s: int
) -> int:
    """Rearrangements of the class rho with exactly s constrained descents.

    A descent counts when its first letter lies in ``top_letters`` and its
    second in ``bottom_letters``.  Single alternating sum over products of
    binomials; equals the rearrangement oracle entry at s.
    """
    return _entry("hall-remmel", (rho, top_letters, bottom_letters), s)


def hall_remmel_inputs(rho: Sequence[int], top_letters, bottom_letters) -> tuple:
    """(outside, slots, n): all the closed form reads of rho, X and Y.

    count(s) = prefactor sum_{r<=s} (-1)^(s-r) C(n+1, s-r) inner(r), with
    inner(r) = C(a+r, r) prod_x C(rho_x + r + alpha_x + beta_x, rho_x) over
    the top letters x.  ``outside`` holds the multiplicities of the letters
    outside the tops, a in total, whose multinomial is the prefactor;
    ``slots`` one (rho_x, rho_x + alpha_x + beta_x) per top letter x that
    rho uses, where alpha_x counts the outside letters above x and beta_x
    the non-bottom letters below x.  A top letter rho does not use has the
    factor C(r + alpha_x + beta_x, 0) = 1 and no slot, so letter sets that
    differ only in such letters share their inputs.
    """
    tops = frozenset(top_letters)
    bottoms = frozenset(bottom_letters)
    outside = tuple([0 if x in tops else reps for x, reps in enumerate(rho, start=1)])
    slots = []
    above, below = sum(outside), 0
    for x, reps in enumerate(rho, start=1):
        if x in tops:
            if reps:
                slots.append((reps, reps + above + below))
        else:
            above -= reps
        if x not in bottoms:
            below += reps
    return outside, tuple(slots), sum(rho)


def hall_remmel_table(outside, slots, n: int) -> dict[int, int]:
    """Every ``hall_remmel_count`` value of one ``hall_remmel_inputs`` tuple, from one pass over r.

    The counts are the coefficients of the weighted row
    (``hall_remmel_row``) times (1-u)^(n+1) up to u^n; above u^n they
    vanish.
    """
    return dict(enumerate(hall_remmel_differences(hall_remmel_row(outside, slots, n))))


def hall_remmel_row(outside, slots, n: int) -> list[int]:
    """prefactor inner(r) for r = 0..n, of one ``hall_remmel_inputs`` tuple."""
    a = sum(outside)
    prefactor = multinomial(a, outside)
    row = []
    # Every argument is nonnegative, so math.comb follows the binom convention.
    for r in range(n + 1):
        term = prefactor * comb(a + r, r)
        for reps, base in slots:
            term *= comb(base + r, reps)
        row.append(term)
    return row


def hall_remmel_differences(row: list[int]) -> list[int]:
    """``row`` times (1-u)^len(row), cut at the row's own length.

    The product is len(row) passes of differences.  It is linear in the
    row, so rows of one length may be summed before it.
    """
    for _ in range(len(row)):
        row = [row[0], *map(sub, row[1:], row)]
    return row


CLOSED_FORMS = {
    "levels-threshold": count_levels_threshold,
    "levels-blocks": count_levels_blocks,
    "des-le": count_des_le,
    "des-gt": count_des_gt,
    "des-mod": count_des_mod,
    "hall-remmel": hall_remmel_count,
}


def _factor_table(factor: Callable) -> Callable[..., dict[int, int]]:
    """The table of a family whose counts are the coefficients of its factor F; n comes last."""
    return lambda *params: _coefficients(factor(*params), params[-1])


def _grid_partitions(k: int) -> list[BlockPartition]:
    """The partitions of [k] the verify grids run on: every threshold, then residues mod 2 and 3."""
    parts = [BlockPartition.threshold(k, t) for t in range(0, k + 1)]
    parts.extend(BlockPartition.mod_residue(k, s) for s in (2, 3))
    return parts


def _lengths(heads: Iterable[tuple], n_max: int) -> Iterator[tuple]:
    """The cells (*head, n) for n = 0..n_max of each head, with statistic values 0..n."""
    return (((*head, n), range(n + 1)) for head in heads for n in range(n_max + 1))


def _levels_blocks_grid(alphabet_max: int, n_max: int) -> Iterator[tuple]:
    """The block sizes of every grid partition; the target tuples summing to at most n - 1."""
    for k in range(1, alphabet_max + 1):
        for partition in _grid_partitions(k):
            for n in range(n_max + 1):
                targets = product(range(n + 1), repeat=partition.t)
                yield (partition.block_sizes(), n), [tt for tt in targets if sum(tt) <= max(n - 1, 0)]


def _des_mod_grid(alphabet_max: int, n_max: int) -> Iterator[tuple]:
    heads = (
        (s, alphabet, r)
        for alphabet in range(1, alphabet_max + 1)
        for s in range(2, alphabet_max + 2)
        for r in range(1, s + 1)
    )
    return _lengths(heads, n_max)


class FamilyForms(NamedTuple):
    """A family's parameter checks, table builder (which checks nothing), query and verify grid.

    ``query(*params)`` is the word DP's (alphabet, n, partition,
    coordinates) of the statistic the family counts; the partition never
    depends on the length n.  ``grid(alphabet_max, n_max)`` yields the
    (params, statistic values) cells ``verify.formulas_vs_oracle`` checks,
    and ``names`` names each parameter and then the value in its reports.
    ``hall-remmel`` has no word DP query, and its grid has no cells.
    """

    checks: Callable[..., None]
    table: Callable[..., dict]
    query: Callable[..., tuple] | None
    grid: Callable[[int, int], Iterable[tuple]] = lambda alphabet_max, n_max: ()
    names: tuple[str, ...] = ()


def _threshold_family(lowest: int, factor: Callable, coordinate: tuple[int, str]) -> FamilyForms:
    """Thresholds from ``lowest``, counts off ``factor``, one coordinate of the partition at t."""
    return FamilyForms(
        partial(_check_threshold, lowest),
        _factor_table(factor),
        lambda k, t, n: (k, n, BlockPartition.threshold(k, t), [coordinate]),
        lambda alphabet_max, n_max: _lengths(
            ((k, t) for k in range(1, alphabet_max + 1) for t in range(lowest, k + 1)), n_max
        ),
        ("k", "t", "n", "s"),
    )


FAMILIES = {
    "levels-threshold": _threshold_family(1, _levels_threshold, (1, "lev")),
    "levels-blocks": FamilyForms(
        _check_blocks, _levels_blocks_table, _levels_blocks_query, _levels_blocks_grid, ("sizes", "n", "targets")
    ),
    "des-le": _threshold_family(1, _des_le, (1, "des")),
    "des-gt": _threshold_family(0, _des_gt, (2, "des")),
    "des-mod": FamilyForms(
        _check_des_mod, _factor_table(_des_mod), _des_mod_query, _des_mod_grid, ("s", "alphabet", "r", "n", "p")
    ),
    "hall-remmel": FamilyForms(
        _check_class,
        lambda rho, tops, bottoms: hall_remmel_table(*hall_remmel_inputs(rho, tops, bottoms)),
        None,
    ),
}
