"""Closed-form counts for the refined descent and level statistics.

Every family starts from the paper's alternating binomial sum for the
number of words with a prescribed statistic value; all but ``hall-remmel``
rewrite it as a linear recurrence in the length n that builds the whole
table in exact integer arithmetic.  Each one is pinned to the dual oracles
by the verification suite over a dense parameter grid; a couple of
transcription variants that the suite *rejects* are kept available (see
``count_des_mod_uncorrected``) so the suite can demonstrate that exactly
one reading survives cross-validation.

In the threshold and residue sums the statistic value s enters only
through ``C(n-m, s)`` and the sign ``(-1)^(n-m-s)``:

    count(s) = sum_m (-1)^(n-m-s) C(n-m, s) inner(m)

so the table at length n is the polynomial ``sum_m inner(m) v^(n-m)`` in a
marker u, with v = u-1.  ``inner(m)`` is not summed term by term: its
inner sums are hoisted out of m or convolved into one product, and the
sum left over m is a binomial expansion, so inner(m) = [x^n] F^m for a
small factor F with F(0) = 0 that each family derives from the paper's
sum.  As [x^n] F(x)^m v^n = [x^n] F(vx)^m, the tables of all lengths form
one rational function, T(x, u) = sum_m (F(vx)/v)^m = 1 / (1 - F(vx)/v).
So for F = sum_{i>=1} f_i x^i the table at length j is g_j = sum_i f_i
v^(i-1) g_(j-i), and ``levels-threshold``'s F = x (k - (k-t)x) / (1-x)
gives the Smirnov-word form (1 - vx) / (1 - (v+k)x + (k-t)v x^2).
``_packed_table`` runs the recurrence on each g_j packed into one integer,
with fields sized for its word counts, at most k^n; a run to n can hand
out every g_j on its way.
A table of ``levels-threshold``, ``des-le``, ``des-gt`` or ``des-mod``
costs n deg F big-integer operations on operands of O(n^2 log k) bits,
deg F being the recurrence's number of terms: at most min(k + 1, n), and
2 for ``levels-threshold``.

The joint level count over t blocks of c_1, ..., c_t letters is the
paper's sum over compositions a of m (letters) and b of n-m (level slots)
of (-1)^(n-m-sum s_i) C(m; a) prod_i c_i^(a_i) C(a_i+b_i-1, b_i) C(b_i, s_i).
Its table in markers u_i takes sum_s (-1)^(b-s) C(b, s) u^s = (u-1)^b,
and sum_b C(a+b-1, b) y^b = (1-y)^(-a), so summed over n it is the
Smirnov-word substitution T(x; u) = 1 / (1 - sum_i c_i x / (1 - (u_i-1) x)).
Splitting T = 1 + sum_i E_i, E_i = c_i x T / (1 - (u_i-1) x) being the
words that end in block i, the parts e_i of E_i and g of T at each length
follow e_i <- (u_i - 1) e_i + c_i g, g = sum_i e_i, from e_i = 0 and g = 1
at length 0 (``_levels_blocks_table``).  A table costs n steps, each a
pass over t dicts of big-integer adds.  Each word family's ``packed``
pass hands out tallies (see ``combinat``), and its ``tables`` decode
them.  ``hall-remmel`` is one sum over r, and its rows summed over every
class of a weight, with every letter at the bottom, come from one pass
over the letters (``hall_remmel_summed_rows``).
``FAMILIES`` declares each family once: its parameter checks, its table
builder, its word DP query, the (alphabet, n, partition, coordinates) of
the statistic it counts, which the CLI's oracle and transfer engines and
the verification suites read, its verify grid, the cells on which
``verify.formulas_vs_oracle`` checks it, the names of its parameters and
its statistic value, which the CLI's options and the suite's reports give
them, and whether its table is keyed by target tuples.  A word engine
keys its answer by tuples, and ``FamilyForms.keyed`` keys it as the
table, the one rule the CLI and the suites read.  ``distribution``
returns a whole table of any family from one call, and every count is
one entry of that table, read after the count's own parameter checks;
the builders check nothing.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, partial
from itertools import repeat, zip_longest
from math import comb, factorial, prod
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# binom is not called here; bench/tracing.py counts calls at formulas.binom.
from .combinat import binom, compositions, decode_tally, differences, field_bytes, respace, sign, tally_units, unpack
from .words import BlockPartition, InputError, _check_alphabet, _check_length, _check_multiplicities


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
    return deque(family.tables(*params), maxlen=1).pop()


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
    return deque(family.tables(*params), maxlen=1).pop().get(value, 0)


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
    _check_multiplicities(rho)
    _check_length(0, *letters_and_value[2:])


def _packed_table(n: int, alphabet: int, program: list, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The tables g_first, ..., g_n of a family whose tables g_j follow Horner's ``program`` in v.

    One pass to length n computes every g_j on its way; it hands out those
    from ``first`` on, by default g_n alone, as it reaches them, each as
    a one-coordinate tally (field bytes, {0: g_j}), or as ``read(field
    bytes, g_j, j)``, which the tables use.  g_0 = 1 and g_1 = alphabet;
    from j = 2 on, a term (i, c) adds c g_(j-i) and None multiplies by v
    (a shift and a subtract), highest power first.  The
    entries of g_j are word counts in 0..alphabet^j, so fields of
    ``field_bytes(alphabet**bound)`` bytes hold every g_j with j <= bound;
    the bound starts at min(n, 64) and grows by an eighth whenever j
    passes it, re-spacing the g_j still read (``combinat`` says why).
    """
    (i, c), *program = program or [(1, 0)]
    depth = max([i] + [op[0] for op in program if op])
    history = ([0] * depth + [1, alphabet][: n + 1])[-depth:]
    bound = min(n, 64)
    size = field_bytes(alphabet**bound)
    first = n if first is None else first
    _check_length(first)
    for j in range(first, min(n, 1) + 1):
        yield (size, {0: [1, alphabet][j]}) if read is None else read(size, [1, alphabet][j], j)
    for j in range(2, n + 1):
        if j > bound:
            bound = min(n, bound + bound // 8)
            wider = field_bytes(alphabet**bound)
            history = [respace(g, size, wider) for g in history]
            size = wider
        width = 8 * size
        acc = c * history[-i]
        for op in program:
            if op is None:
                acc = (acc << width) - acc
            else:
                acc += history[-op[0]] if op[1] == 1 else op[1] * history[-op[0]]
        history.append(acc)
        del history[0]
        if j >= first:
            yield (size, {0: acc}) if read is None else read(size, acc, j)


def _descent_factor(tau: int, lead: int, slope: int, c0: int, c1: int, n: int) -> list[int]:
    """f_0, ..., f_min(tau+1, n) of F = (1+x)^tau (lead + slope x) - c0 - c1 x.

    Nothing above x^n is read, so the binomial row stops at x^min(tau, n).
    """
    row = [comb(tau, j) for j in range(min(tau, n) + 1)]
    coefficients = [lead * a + slope * b for a, b in zip(row + [0], [0] + row)]
    coefficients[0] -= c0
    coefficients[1] -= c1
    return coefficients[: n + 1]


def _descent_table(alphabet: int, n: int, factor: list[int], first: int | None, read: Callable | None) -> Iterator:
    """The tables to length n of a factor F with F(0) = 0: g_j = sum_i f_i v^(i-1) g_(j-i)."""
    program: list = []
    for i in range(len(factor) - 1, 0, -1):
        # From the highest nonzero f_i down: add f_i g_(j-i), then multiply by v.
        if program or factor[i]:
            program += ([(i, factor[i])] if factor[i] else []) + [None]
    return _packed_table(n, alphabet, program[:-1], first, read)


def count_levels_threshold(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s levels starting at a letter <= t.

    Evaluates  sum_{m,i} (-1)^(n-m-s) C(m,i) C(i+n-m-1, n-m) C(n-m, s)
    (k-t)^(m-i) t^i.
    """
    return _entry("levels-threshold", (k, t, n), s)


def _levels_threshold(k: int, t: int, n: int, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The table of ``count_levels_threshold``.

    C(i+d-1, d) is [x^d] (1-x)^(-i), so the i-sum of inner(m) is
    [x^(n-m)] ((k-t) + t/(1-x))^m = [x^n] F^m with F = x (k - (k-t)x) / (1-x),
    and T = (1 - vx) / (1 - (v+k)x + (k-t)v x^2): g_j = k g_(j-1) +
    v (g_(j-1) - (k-t) g_(j-2)) from g_0 = 1 and g_1 = k.
    """
    return _packed_table(n, k, [(2, t - k), (1, 1), None, (1, k)], first, read)


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
    _check_length(n)


def _levels_blocks_query(block_sizes: Sequence[int], n: int) -> tuple:
    """Block i of the partition holds block_sizes[i] letters; every block's levels are read."""
    coords = [(block, "lev") for block in range(1, len(block_sizes) + 1)]
    return sum(block_sizes), n, _contiguous_blocks(tuple(block_sizes)), coords


@lru_cache(maxsize=256)
def _contiguous_blocks(block_sizes: tuple[int, ...]) -> BlockPartition:
    """The partition whose block i holds the next block_sizes[i] letters, built once per sizes."""
    blocks = [block for block, size in enumerate(block_sizes, start=1) for _ in range(size)]
    return BlockPartition.from_blocks(blocks, t=len(block_sizes))


def _levels_blocks_table(block_sizes: Sequence[int], n: int, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The ``count_levels_blocks`` tables at each length first..n, as (field bytes, tally) or ``read((field bytes, tally), n + 1, t)``.

    One recurrence in the length hands out the lengths from ``first`` on,
    by default n alone, as it reaches them:
    e_i <- (u_i - 1) e_i + c_i g from e_i = 0 and g = 1 at length 0: the
    letter after a word ending in block i repeats its last letter (a
    level, u_i), or is one of the c_i - 1 other letters of block i or a
    letter of another block.  A polynomial is a tally of the t levels in
    fields of ``field_bytes(k**n)`` bytes, k = sum(block_sizes), and u_i
    moves it by level i's (sparse step, field shift).  An empty block's
    e_i is 0 and is not stored.  Shifts by 0, which CPython runs as a
    copy, are skipped.
    """
    size = field_bytes(sum(block_sizes) ** n)
    moves = tally_units(len(block_sizes), size, n + 1)
    live = [(c, move) for c, move in zip(block_sizes, moves) if c]
    ends: list[dict] = [{} for _ in live]
    total = {0: 1}
    first = n if first is None else first
    _check_length(first)
    for length in range(n + 1):
        if length:
            for j, (c, (step, shift)) in enumerate(live):
                e = {key: c * g for key, g in total.items()}
                for key, value in ends[j].items():
                    e[key] -= value
                    e[key + step] = e.get(key + step, 0) + (value << shift if shift else value)
                # A step leaves its old key at c g - e, which may be 0; no other entry can be.
                ends[j] = {key: value for key, value in e.items() if value} if step else e
            total = dict(ends[0])
            for e in ends[1:]:
                for key, value in e.items():
                    total[key] = total.get(key, 0) + value
        if length >= first:
            yield (size, total) if read is None else read((size, total), n + 1, len(block_sizes))


def count_des_le(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter <= t.

    By complementation this also counts words with s rises starting at a
    letter in {k+1-t, ..., k}.
    """
    return _entry("des-le", (k, t, n), s)


def _des_le(k: int, t: int, n: int, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The table of ``count_des_le``, from its factor F.

    inner(m) = sum_{a,b} (-1)^(m-a-b) C(m,a) C(m-a,b) C(ta, n-b) (k-t)^b.
    The b-sum is [x^n] (1+x)^(ta) ((k-t)x - 1)^(m-a) and the a-sum a
    binomial expansion, so F = (1+x)^t + (k-t)x - 1.
    """
    return _descent_table(k, n, _descent_factor(t, 1, 0, 1, t - k, n), first, read)


def count_des_gt(k: int, t: int, n: int, s: int) -> int:
    """Words in [k]^n with exactly s descents starting at a letter > t.

    Dually, words with s rises starting at a letter <= k-t.  t = k is the
    empty statistic (every word scores 0) and t = 0 gives plain descents.
    """
    return _entry("des-gt", (k, t, n), s)


def _des_gt(k: int, t: int, n: int, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The table of ``count_des_gt``, from its factor F.

    inner(m) = sum_a (-1)^(m-a) C(m,a) g(a), whose m-free b-sum
    g(a) = sum_b C(a,b) C((k-t)a, n-b) t^b is [x^n] L^a with
    L = (1+tx)(1+x)^(k-t); so F = L - 1.
    """
    return _descent_table(k, n, _descent_factor(k - t, 1, t, 1, 0, n), first, read)


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
    oracle on explicit tuples.  They are not word counts (the offset one
    has F(0) = s), so they sum over m themselves, F^m cut at x^n.
    """
    _check_des_mod(s, alphabet, r, n, p)
    kq, t = divmod(alphabet, s)
    rejected = (kq, s, s - 1, s, s - 1) if t == 0 else (kq + (r <= t), s, r - 1, 0, 0)
    factor = _descent_factor(*rejected, n)
    power, total = [1] + [0] * n, 0
    for m in range(n + 1):
        total += sign(n - m - p) * comb(n - m, p) * power[n]
        product = [0] * (n + 1)
        for i, c in enumerate(factor):
            product[i:] = [a + c * b for a, b in zip(product[i:], power)]
        power = product
    return total


def _des_mod(s: int, alphabet: int, r: int, n: int, first: int | None = None, read: Callable | None = None) -> Iterator:
    """The table of ``count_des_mod``, from its factor F.

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
    factor = _descent_factor(kq + (r <= t), s, r - 1, s, (r - 1 - t) % s, n)
    return _descent_table(alphabet, n, factor, first, read)


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
    the top letters x.  ``outside`` holds the nonzero multiplicities of the
    letters outside the tops, in increasing order, a in total, whose
    multinomial is the prefactor: only their sum and multinomial are read.
    ``slots`` holds one (rho_x, rho_x + alpha_x + beta_x) per top letter x
    that rho uses, where alpha_x counts the outside letters above x and
    beta_x the non-bottom letters below x.  A top letter rho does not use
    has the factor C(r + alpha_x + beta_x, 0) = 1 and no slot, so letter
    sets that differ only in such letters share their inputs, and so do
    classes that differ only in letters of multiplicity 0.
    """
    tops = frozenset(top_letters)
    bottoms = frozenset(bottom_letters)
    outside = tuple(sorted(reps for x, reps in enumerate(rho, start=1) if reps and x not in tops))
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
    (``hall_remmel_row``) times (1-u)^(n+1) up to u^n
    (``combinat.differences``); above u^n they vanish.
    """
    return dict(enumerate(differences(hall_remmel_row(outside, slots, n))))


def hall_remmel_row(outside, slots, n: int) -> list[int]:
    """prefactor inner(r) for r = 0..n, of one ``hall_remmel_inputs`` tuple."""
    a = sum(outside)
    return hall_remmel_weights(factorial(a) // prod(map(factorial, outside)), a, slots, n)


def hall_remmel_weights(scale: int, a: int, slots, n: int) -> list[int]:
    """scale C(a+r, r) prod C(base + r, reps) over the (reps, base) slots, for r = 0..n.

    Every letter's factor of inner(r) is built here, for one class's row
    (``hall_remmel_row``) and for the letter pass over all classes
    (``hall_remmel_summed_rows``) alike.
    """
    row = []
    # Every argument is nonnegative, so math.comb follows the binom convention.
    for r in range(n + 1):
        term = scale * comb(a + r, r)
        for reps, base in slots:
            term *= comb(base + r, reps)
        row.append(term)
    return row


def hall_remmel_summed_rows(alphabet: int, top_letters, n_max: int) -> list[list[int]]:
    """Row n, n = 0..n_max: the weighted rows of every class of weight n summed, Y = all letters.

    Row n is the sum of ``hall_remmel_row(*hall_remmel_inputs(rho,
    top_letters, range(1, alphabet + 1)))`` over ``compositions(n,
    alphabet)``, from one pass over the letters from the top down.  With
    every letter at the bottom, beta_x = 0 and alpha_x is the number of
    non-top letters placed before x.  A state (N, A), N letters placed and
    A of them non-top, holds a vector over r = 0..n_max.  A non-top letter
    placed j times multiplies it by C(A+j, j), building the multinomial
    prefactor, and moves it to (N+j, A+j); a top letter placed j times
    multiplies entry r by C(j + r + A, j) and moves it to (N+j, A).  After
    the last letter, entry r <= n of state (n, A) times C(A+r, r) is added
    into row n.  The factors come off ``hall_remmel_weights``, one column
    per (A, j) of the pass.
    """
    tops = frozenset(top_letters)
    columns: dict[tuple, list[int]] = {}

    def column(a: int, slots: tuple) -> list[int]:
        if (a, slots) not in columns:
            columns[a, slots] = hall_remmel_weights(1, a, slots, n_max)
        return columns[a, slots]

    states = {(0, 0): [1] * (n_max + 1)}
    for x in range(alphabet, 0, -1):
        reached: dict[tuple[int, int], list[int]] = {}
        for (placed, outside), vector in states.items():
            for j in range(n_max - placed + 1):
                if x in tops:
                    key = placed + j, outside
                    moved = list(map(mul, vector, column(0, ((j, j + outside),)))) if j else vector
                else:
                    key = placed + j, outside + j
                    moved = list(map(mul, vector, repeat(comb(outside + j, j)))) if j and outside else vector
                held = reached.get(key)
                reached[key] = moved if held is None else list(map(add, held, moved))
        states = reached
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    for (n, outside), vector in states.items():
        rows[n] = list(map(add, rows[n], map(mul, vector, column(outside, ()))))
    return rows


CLOSED_FORMS = {
    "levels-threshold": count_levels_threshold,
    "levels-blocks": count_levels_blocks,
    "des-le": count_des_le,
    "des-gt": count_des_gt,
    "des-mod": count_des_mod,
    "hall-remmel": hall_remmel_count,
}


def _grid_partitions(k: int) -> list[BlockPartition]:
    """The partitions of [k] the verify grids run on: every threshold, then residues mod 2 and 3."""
    parts = [BlockPartition.threshold(k, t) for t in range(0, k + 1)]
    parts.extend(BlockPartition.mod_residue(k, s) for s in (2, 3))
    return parts


def _lengths(heads: Iterable[tuple], n_max: int) -> Iterator[tuple]:
    """The cells (*head, n) for n = 0..n_max of each head, with statistic values 0..n."""
    return (((*head, n), range(n + 1)) for head in heads for n in range(n_max + 1))


def _levels_blocks_grid(alphabet_max: int, n_max: int) -> Iterator[tuple]:
    """The block sizes of every grid partition; the target tuples summing to at most n - 1, in lexicographic order."""
    targets: dict[tuple[int, int], list[tuple[int, ...]]] = {}  # per (t, bound), built once
    for k in range(1, alphabet_max + 1):
        for partition in _grid_partitions(k):
            for n in range(n_max + 1):
                shape = partition.t, max(n - 1, 0)
                if shape not in targets:  # compositions into t + 1 parts, the last part the slack
                    targets[shape] = [parts[:-1] for parts in compositions(shape[1], shape[0] + 1)]
                yield (partition.block_sizes(), n), targets[shape]


def _des_mod_grid(alphabet_max: int, n_max: int) -> Iterator[tuple]:
    heads = (
        (s, alphabet, r)
        for alphabet in range(1, alphabet_max + 1)
        for s in range(2, alphabet_max + 2)
        for r in range(1, s + 1)
    )
    return _lengths(heads, n_max)


class FamilyForms(NamedTuple):
    """A family's parameter checks, table pass (which checks nothing), query and verify grid.

    ``tables(*params)`` yields the family's table; a word family's params
    end in the length n, and ``tables(*params, first=j)`` yields lengths
    j..n from one pass; ``first=None``, the default, is n alone, as in
    every length pass.  ``query(*params)`` is the word DP's (alphabet, n,
    partition, coordinates) of the statistic the family counts; the
    partition never depends on the length n, and ``words(*params)`` is its
    (alphabet, n) alone, for a charge made before any partition is built.
    ``grid(alphabet_max, n_max)`` yields the (params, statistic values)
    cells ``verify.formulas_vs_oracle`` checks, each head's cells in order
    of n from 0.  ``names`` names each parameter, in order, and then the
    statistic value: the CLI's options and the suite's reports read them.
    A ``joint`` table is keyed by target tuples, one target per block; any
    other by statistic value, as ``keyed`` keys a word engine's answer.
    ``packed(*params, first=j)`` is the pass ``tables`` decodes: per length,
    (field bytes, tally) over the query's coordinates (see ``combinat``).
    ``hall-remmel`` has no query, no packed pass and no grid cells.
    """

    checks: Callable[..., None]
    tables: Callable[..., Iterator[dict]]
    query: Callable[..., tuple] | None
    names: tuple[str, ...]
    grid: Callable[[int, int], Iterable[tuple]] = lambda alphabet_max, n_max: ()
    words: Callable[..., tuple[int, int]] | None = None
    joint: bool = False
    packed: Callable[..., Iterator[tuple[int, dict[int, int]]]] | None = None

    def keyed(self, dist: dict[tuple[int, ...], int]) -> dict:
        """A word engine's answer to ``query``, keyed by tuples, keyed as the family's table."""
        return dist if self.joint else {key: count for (key,), count in dist.items()}


def _fields(size: int, g: int, j: int) -> dict[int, int]:
    """The table of a one-coordinate tally's integer g at length j: field s counts value s <= j."""
    return dict(zip_longest(range(j + 1), unpack(g, size), fillvalue=0))


def _levels_blocks_tables(block_sizes: Sequence[int], n: int, first: int | None = None) -> Iterator[dict]:
    """Every nonzero ``count_levels_blocks`` value, keyed by target tuple: each tally of the pass, decoded."""
    return _levels_blocks_table(block_sizes, n, first, decode_tally)


def _threshold_family(lowest: int, packed: Callable, coordinate: tuple[int, str]) -> FamilyForms:
    """Thresholds from ``lowest``, tables off the ``packed`` pass, one coordinate of the partition at t."""
    return FamilyForms(
        partial(_check_threshold, lowest),
        partial(packed, read=_fields),
        lambda k, t, n: (k, n, BlockPartition.threshold(k, t), [coordinate]),
        ("k", "t", "n", "s"),
        lambda alphabet_max, n_max: _lengths(
            ((k, t) for k in range(1, alphabet_max + 1) for t in range(lowest, k + 1)), n_max
        ),
        lambda k, t, n: (k, n),
        packed=packed,
    )


FAMILIES = {
    "levels-threshold": _threshold_family(1, _levels_threshold, (1, "lev")),
    "levels-blocks": FamilyForms(
        _check_blocks, _levels_blocks_tables, _levels_blocks_query, ("block_sizes", "n", "targets"),
        _levels_blocks_grid, lambda block_sizes, n: (sum(block_sizes), n), joint=True,
        packed=_levels_blocks_table,
    ),
    "des-le": _threshold_family(1, _des_le, (1, "des")),
    "des-gt": _threshold_family(0, _des_gt, (2, "des")),
    "des-mod": FamilyForms(
        _check_des_mod, partial(_des_mod, read=_fields), _des_mod_query, ("s", "alphabet", "r", "n", "p"), _des_mod_grid,
        lambda s, alphabet, r, n: (alphabet, n), packed=_des_mod,
    ),
    "hall-remmel": FamilyForms(
        _check_class,
        lambda rho, tops, bottoms: iter([hall_remmel_table(*hall_remmel_inputs(rho, tops, bottoms))]),
        None,
        ("rho", "x", "y", "s"),
    ),
}
