"""Direct combinatorial counts and the binomial identities they induce.

Two families of words admit insertion-style direct counts: descents whose
first letter is the top of the alphabet, and descents starting at one of
the two bottom letters.  Equating each direct count with the general
alternating-sum formula, coefficient by coefficient, yields a pure
binomial identity; both sides are evaluated here numerically and compared.

In both right-hand sides s enters only through C(n-m, s) and a sign, and m
only there and through C(m, a), so the sum over m is Chu-Vandermonde's:
sum_m C(m, a) C(n-m, s) = C(n+1, a+s+1).  That leaves
rhs(s) = sum_a (-1)^(n-s-a) C(n+1, n-s-a) f(a) for an s-free f, the
coefficient of u^(n-s) in (1-u)^(n+1) sum_a f(a) u^a: the step that ends
the Hall-Remmel closed form, read backwards, which ``combinat.differences``
takes here.
``top_letter_sides`` and ``two_bottom_sides`` read every s of one (n, r)
off that one row, as the closed forms do: n + 1 binomial products and
(n+1)^2 subtractions.  The left-hand sides come as a list of every s
too, so a row's two sides are compared as two lists.  A cell's report
(``check_top_letter_identity``, ``check_two_bottom_identity``) is read
off the same lists; only where its two sides disagree is an alternate
bound reading (``top_letter_alternate``, ``two_bottom_alternate``)
evaluated too, term by term, so the report shows which reading survives.
"""

from __future__ import annotations

from math import comb

from .combinat import binom, differences, sign
from .words import FrozenRecord, InputError, _check_alphabet, _check_length


class IdentityReport(FrozenRecord):
    identity: str
    params: tuple[int, ...]
    lhs: int
    rhs: int
    alt_rhs: int | None = None


def direct_count_top_letter(k: int, n: int, s: int) -> int:
    """Words in [k]^n with s descents starting at the letter k, counted directly.

    Classify by the number r of letters below k, place the descent-forming
    occurrences of k, then distribute the remaining copies of k:

        sum_{r=s}^{n-s} (k-1)^r C(r, s) C(n-r, s)
    """
    _check_alphabet(k)
    _check_length(n, s)
    return sum(
        (k - 1) ** r * comb(r, s) * comb(n - r, s) for r in range(s, n - s + 1)
    )


def direct_count_two_bottom(k: int, n: int, s: int) -> int:
    """Words in [k]^n with s descents starting at letter 1 or 2, counted directly.

    Classify by the numbers a of 1s and b of 2s, insert s fused 21-blocks
    into a word over the remaining letters, then the leftover 1s and 2s:

        sum_{a,b >= s, a+b <= n} (k-2)^(n-a-b) C(n-a-b+s, s) C(n-b, a-s) C(n-a, b-s)
    """
    if k < 2:
        raise InputError(f"need at least two letters, got alphabet size {k}")
    _check_length(n, s)
    return sum(
        (k - 2) ** (n - a - b)
        * comb(n - a - b + s, s)
        * comb(n - b, a - s)
        * comb(n - a, b - s)
        for a in range(s, n + 1)
        for b in range(s, n - a + 1)
    )


def check_top_letter_identity(n: int, r: int, s: int) -> IdentityReport:
    """C(r,s) C(n-r,s) against its alternating quadruple-binomial expansion."""
    return _report("top-letter-binomial", top_letter_sides, top_letter_alternate, n, r, s)


def top_letter_sides(n: int, r: int) -> tuple[list[int], list[int]]:
    """lhs(s) and rhs(s) of the top-letter identity for s = 0..n, as two lists.

    rhs(s) = sum_{r <= a <= m <= n-s} (-1)^(n-a-s) C(m,a) C(a,r) C(a,n-r) C(n-m,s).
    Summed over m by Chu-Vandermonde it is the u^(n-s) coefficient of
    (1-u)^(n+1) sum_a f(a) u^a, f(a) = C(a,r) C(a,n-r), which vanishes
    below r.  The lhs C(r,s) C(n-r,s) vanishes past s = min(r, n-r).
    """
    _check(n, r)
    last = min(r, n - r)
    lhs = [comb(r, s) * comb(n - r, s) for s in range(last + 1)] + [0] * (n - last)
    return lhs, differences([comb(a, r) * comb(a, n - r) for a in range(n + 1)])[::-1]


def top_letter_alternate(n: int, r: int, s: int) -> int:
    """The top-letter rhs with its outer range widened to m = 0..n, term by term.

    Zero binomials make the extra terms vanish when the two readings agree.
    """
    return sum(
        sign(n - a - s) * binom(m, a) * binom(a, r) * binom(a, n - r) * binom(n - m, s)
        for m in range(0, n + 1)
        for a in range(r, m + 1)
    )


def check_two_bottom_identity(n: int, r: int, s: int) -> IdentityReport:
    """Insertion-count coefficient identity for the two-bottom-letters statistic.

    lhs: sum_a C(r+s, s) C(a+r, a-s) C(n-a, n-a-r-s)
    rhs: sum_{m, a <= m-r} (-1)^(n-a-r-s) C(m,a) C(m-a,r) C(2a, n-r) C(n-m, s)
    """
    return _report("two-bottom-binomial", two_bottom_sides, two_bottom_alternate, n, r, s)


def two_bottom_sides(n: int, r: int) -> tuple[list[int], list[int]]:
    """lhs(s) and rhs(s) of the two-bottom identity for s = 0..n, as two lists.

    C(m,a) C(m-a,r) = C(m,a+r) C(a+r,r), so with b = a + r the rhs summed
    over m by Chu-Vandermonde is the u^(n-s) coefficient of
    (1-u)^(n+1) sum_b f(b) u^b, f(b) = C(b,r) C(2(b-r), n-r), with f = 0
    below b = r.  In the lhs the terms past a = n-r-s vanish, so the sum
    stops there, and it is empty past s = (n-r)/2.
    """
    _check(n, r)
    last = (n - r) // 2
    lhs = [
        comb(r + s, s) * sum(comb(a + r, a - s) * comb(n - a, n - a - r - s) for a in range(s, n - r - s + 1))
        for s in range(last + 1)
    ]
    f = [0] * r + [comb(b, r) * comb(2 * (b - r), n - r) for b in range(r, n + 1)]
    return lhs + [0] * (n - last), differences(f)[::-1]


def two_bottom_alternate(n: int, r: int, s: int) -> int:
    """The two-bottom rhs with its a-range widened to a <= m, term by term."""
    return sum(
        sign(n - a - r - s) * binom(m, a) * binom(m - a, r) * binom(2 * a, n - r) * binom(n - m, s)
        for m in range(0, n + 1)
        for a in range(0, m + 1)
    )


def _check(n: int, r: int) -> None:
    if n < 0 or r < 0:
        raise InputError("identity parameters must be nonnegative")
    if r > n:
        raise InputError(f"identity parameter r must be at most n, got r={r} > n={n}")


def _report(identity: str, sides, alternate, n: int, r: int, s: int) -> IdentityReport:
    """The cell s of the two lists ``sides(n, r)``; both vanish past s = n.

    Only where the two sides differ is ``alternate(n, r, s)`` evaluated.
    """
    if s < 0:
        raise InputError("identity parameters must be nonnegative")
    lhs, rhs = sides(n, r)
    left, right = (lhs[s], rhs[s]) if s <= n else (0, 0)
    return IdentityReport(identity, (n, r, s), left, right, None if left == right else alternate(n, r, s))
