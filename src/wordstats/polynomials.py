"""Sparse multivariate polynomials with exact integer coefficients.

Every polynomial in a computation shares one ordered tuple of variable
names.  A term is keyed by one packed integer (Kronecker substitution)
in a key layout of ``combinat``: a ``FIELD_BITS``-bit slot per variable
in name order under a degree field.  A monomial product is one integer
add, and sorting the keys as ints gives the canonical printed order
(total degree, then exponent tuples lexicographically), which the CLI
relies on for deterministic output.

No field carries silently: a key sum carries only if its degree field
overflows, and ``adopt`` refuses such a key with ``InputError``
(``check_degree``).  ``Polynomial``'s one arithmetic operator, ``*`` by
an int or by a polynomial over the same names, wraps its result through
``from_keys``, which copies its terms into ``adopt``.  The series engine
does its own arithmetic on term dicts with ``add_product`` and hands a
series out through one ``adopt`` call, which takes its dicts without a
copy and checks the largest key of the whole series once (``series``
says why that is enough).  Keys are decoded only where exponents are
shown: ``exponents`` and ``series.coefficient_distribution`` decode
through ``combinat``, and ``render``, the one renderer (``__str__``
renders a list of one), reads each key in two halves and caches each
half's text for the whole list, so the coefficients of a series share it.
"""

from __future__ import annotations

from typing import Sequence

from .combinat import decode_keys, encode_key, key_degree, key_units
from .words import InputError

FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1


def encode(exponents: tuple[int, ...]) -> int:
    """The key of ``exponents``, once their total fits the degree field and none is negative."""
    if sum(exponents) > _MASK or min(exponents, default=0) < 0:
        raise InputError(f"exponents {tuple(exponents)} outside 0..{_MASK} in total")
    return encode_key(exponents, FIELD_BITS, degree=True)


def add_product(acc: dict[int, int], left: dict[int, int], right: dict[int, int], sign: int = 1) -> None:
    """acc += sign * left * right, all keyed by packed exponents."""
    # Series factors are often one or two terms: loop over the larger side inside.
    if len(left) > len(right):
        left, right = right, left
    get = acc.get
    right_items = right.items()
    for key_a, coeff_a in left.items():
        coeff_a *= sign
        for key_b, coeff_b in right_items:
            key = key_a + key_b
            acc[key] = get(key, 0) + coeff_a * coeff_b


class Polynomial:
    """``terms`` maps packed keys to nonzero ints; ``exponents()`` decodes them."""

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms: dict[tuple[int, ...], int] | None = None):
        self.names = tuple(names)
        self.terms = {}
        for exponents, coefficient in (terms or {}).items():
            if len(exponents) != len(self.names):
                raise InputError(
                    f"exponent tuple {exponents} has arity {len(exponents)}, expected {len(self.names)}"
                )
            if coefficient:
                self.terms[encode(exponents)] = coefficient

    @classmethod
    def from_keys(cls, names: tuple[str, ...], terms: dict[int, int]) -> "Polynomial":
        """Wrap a copy of packed terms, dropping zeros; a carried key raises ``InputError``."""
        return adopt(tuple(names), [{key: c for key, c in terms.items() if c}])[0]

    @classmethod
    def constant(cls, names: tuple[str, ...], value: int) -> "Polynomial":
        return cls.from_keys(names, {0: value})

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial.from_keys(self.names, {key: c * other for key, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.names != self.names:
            raise InputError(f"mixed variable sets: {self.names} vs {other.names}")
        product: dict[int, int] = {}
        add_product(product, self.terms, other.terms)
        return Polynomial.from_keys(self.names, product)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, Polynomial):
            return self.names == other.names and self.terms == other.terms
        return NotImplemented

    def exponents(self) -> dict[tuple[int, ...], int]:
        """Terms keyed by exponent tuples, in the order of ``names``."""
        units = key_units(FIELD_BITS, len(self.names), degree=True)
        return {exponents: c for (exponents,), c in decode_keys(self.terms, [units], FIELD_BITS).items()}

    def __str__(self) -> str:
        return render([self])[0]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def check_degree(names: tuple[str, ...], degree: int) -> None:
    """Refuse a key over ``names`` whose total ``degree`` passes its field."""
    if degree > _MASK:
        raise InputError(f"an exponent of {names} exceeds the {FIELD_BITS}-bit field")


def adopt(names: tuple[str, ...], terms: list[dict[int, int]]) -> list[Polynomial]:
    """One polynomial over ``names`` per zero-free term dict, each dict taken as is.

    The caller hands the dicts over and keeps no reference to change them
    through.  One check against the largest key of them all refuses a
    carried key with ``InputError``.
    """
    check_degree(names, key_degree(max([max(t) for t in terms if t], default=0), FIELD_BITS, len(names)))
    polys = []
    for t in terms:
        poly = object.__new__(Polynomial)
        poly.names = names
        poly.terms = t
        polys.append(poly)
    return polys


def render(polys: Sequence[Polynomial]) -> list[str]:
    """Each polynomial's text, its terms in key order (graded, then lexicographic).

    The polynomials share one ``names`` tuple.  A key's exponent fields are
    read in an upper and a lower half, and each half's text is cached for
    the whole call: the terms of one polynomial, and the coefficients of one
    series, share most of their halves.  Every factor's text starts with
    "*", so digits join it directly and a unit coefficient drops the first
    "*".
    """
    if not polys:
        return []
    names = polys[0].names
    arity = len(names)
    half = arity // 2
    split = FIELD_BITS * (arity - half)
    lower_mask = (1 << split) - 1
    upper_mask = (1 << (FIELD_BITS * half)) - 1
    layout = [(FIELD_BITS * (arity - i), "*" + name) for i, name in enumerate(names, 1)]
    upper = [(shift - split, name) for shift, name in layout[:half]]
    lower = layout[half:]
    upper_text: dict[int, str] = {}
    lower_text: dict[int, str] = {}
    texts = []
    for poly in polys:
        if poly.names != names:
            raise InputError(f"mixed variable sets: {names} vs {poly.names}")
        terms = poly.terms
        if not terms:
            texts.append("0")
            continue
        keys = sorted(terms)
        pieces = []
        if not keys[0]:
            constant = terms[0]
            pieces.append(f"+ {constant}" if constant > 0 else f"- {-constant}")
            del keys[0]
        for key in keys:
            high = (key >> split) & upper_mask
            head = upper_text.get(high)
            if head is None:
                head = upper_text[high] = _factors(upper, high)
            low = key & lower_mask
            tail = lower_text.get(low)
            if tail is None:
                tail = lower_text[low] = _factors(lower, low)
            coefficient = terms[key]
            if coefficient == 1:
                pieces.append("+ " + (head + tail)[1:])
            elif coefficient == -1:
                pieces.append("- " + (head + tail)[1:])
            elif coefficient > 0:
                pieces.append(f"+ {coefficient}{head}{tail}")
            else:
                pieces.append(f"- {-coefficient}{head}{tail}")
        text = " ".join(pieces)
        texts.append(text[2:] if text[0] == "+" else "-" + text[2:])
    return texts


def _factors(layout: list[tuple[int, str]], fields: int) -> str:
    """``*x^2*y`` for the exponent fields at the (shift, "*name") pairs of ``layout``."""
    factors = []
    for shift, name in layout:
        power = (fields >> shift) & _MASK
        if power:
            factors.append(name if power == 1 else f"{name}^{power}")
    return "".join(factors)
