"""Truncated power series realizing the master generating functions.

The generating function of all words over [k] (series variable q, graded by
word length) and its composition-weighted analogue (series variable v,
graded by the sum of the parts) are both ratios of polynomials once the
per-letter geometric factors are cleared.  Numerator and denominator are
assembled exactly with polynomial coefficients, and the quotient is taken
as a truncated series; the denominator always has constant coefficient 1,
so division never leaves the integers.

Per-letter factors, with every letter i resolving its block m through the
partition (Q_m is the block letter-count marker when tracked) and entering
with the expansion variable to the power g_i (1 for words, i for
compositions):

    a_i = q^g * Q_m * (1 - y_m)          d_i = 1 - q^g * Q_m * (z_m - y_m)
    b_i = q^g * Q_m * y_m                c_i = 1 - q^g * Q_m * (z_m - x_m)

    numerator   = prod(d) + sum_j a_j * prod(d before j) * prod(c after j)
    denominator = prod(d) - sum_j b_j * prod(d before j) * prod(c after j)

One builder, ``_build_series``, makes both series.  It accumulates each
sum letter by letter, S_j = S_(j-1) * c_j + a_j * prod(d before j), so each
product it takes has a two-term factor.

Every series product, sum and quotient runs on one representation: a list
of packed-key term dicts (see ``polynomials``), one per coefficient.  The
builder and ``solve_block_system`` call the same three helpers,
``_products``, ``_signed_sum`` and ``_quotient``, and ``PowerSeries``'s
``+`` and ``divide`` call the last two; the factors are written as term
dicts straight from the markers' unit keys.
When a series is handed out, ``polynomials.adopt`` wraps each coefficient's
term dict as a ``Polynomial`` without a copy (the helpers return zero-free
dicts that nothing else holds), and one check per series, against the
largest key of any coefficient, refuses a carried key.  Checking there and
not after each step is sound because keys only ever add: every key formed
from a carried key is itself at or above the bound, so a carried key never
lands on a valid one and never changes a coefficient the check accepts.
With every x, y and z marker tracked, the top degree is known from the
order, so a build past the field is refused before it starts, with the
same ``InputError`` (``polynomials.check_degree``).  ``statistic_keys``,
the series' key layout, is what the DP tallies in and what
``coefficient_distribution`` decodes.
"""

from __future__ import annotations

from typing import Iterable

from .combinat import decode_keys, key_units
from .polynomials import FIELD_BITS, Polynomial, add_product, adopt, check_degree
from .words import BlockPartition, DistPolynomial, FrozenRecord, InputError, Record, _check_partition

Terms = dict[int, int]


def _products(pairs: Iterable[tuple[list[Terms], list[Terms]]], order: int) -> list[Terms]:
    """sum(left * right for left, right in pairs), truncated at ``order``."""
    out: list[Terms] = [{} for _ in range(order + 1)]
    for left, right in pairs:
        right_terms = [(j, b) for j, b in enumerate(right) if b]
        for i, a in enumerate(left):
            if a:
                for j, b in right_terms:
                    if i + j > order:
                        break
                    add_product(out[i + j], a, b)
    return [_nonzero(c) if c else c for c in out]


def _signed_sum(left: list[Terms], right: list[Terms], sign: int = 1) -> list[Terms]:
    """left + sign * right, coefficient by coefficient."""
    out = []
    for a, b in zip(left, right):
        acc = dict(a)
        get = acc.get
        for key, coefficient in b.items():
            acc[key] = get(key, 0) + sign * coefficient
        out.append(_nonzero(acc))
    return out


def _quotient(left: list[Terms], right: list[Terms]) -> list[Terms]:
    """Truncated left / right; ``right``'s constant coefficient is 1."""
    divisor = [(j, b) for j, b in enumerate(right) if j and b]
    out: list[Terms] = []
    for i, a in enumerate(left):
        acc = dict(a)
        for j, b in divisor:
            if j > i:
                break
            add_product(acc, b, out[i - j], -1)
        out.append(_nonzero(acc))
    return out


def _nonzero(terms: Terms) -> Terms:
    """``terms`` without its cancelled keys."""
    if 0 in terms.values():
        return {key: c for key, c in terms.items() if c}
    return terms


class PowerSeries(Record):
    """Series in one expansion variable, truncated at ``order`` inclusive.

    ``coeffs[i]`` is the exact polynomial coefficient of var**i; the list
    always has length order + 1.  ``+`` and ``divide``, its only arithmetic,
    run on the coefficients' term dicts and wrap the result's coefficients
    once.
    """

    var: str
    names: tuple[str, ...]
    coeffs: list[Polynomial]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def lift(cls, var: str, names: tuple[str, ...], spine: list, order: int) -> "PowerSeries":
        """Build from a short list of int/Polynomial entries, zero-padded."""
        coeffs = [
            Polynomial.constant(names, entry) if isinstance(entry, int) else entry
            for entry in spine[: order + 1]
        ]
        coeffs += [Polynomial.constant(names, 0)] * (order + 1 - len(coeffs))
        return cls(var, names, coeffs)

    @classmethod
    def _wrap(cls, var: str, names: tuple[str, ...], terms: list[Terms]) -> "PowerSeries":
        return cls(var, names, adopt(names, terms))

    def coefficient(self, i: int) -> Polynomial:
        if not 0 <= i <= self.order:
            raise InputError(f"order {i} outside truncation 0..{self.order}")
        return self.coeffs[i]

    def _terms(self, other: "PowerSeries") -> tuple[list[Terms], list[Terms]]:
        """Both operands' term dicts, once their variables and orders match."""
        if self.var != other.var or self.names != other.names:
            raise InputError("series mix expansion variables or coefficient variables")
        if self.order != other.order:
            raise InputError(f"series orders differ: {self.order} vs {other.order}")
        return [c.terms for c in self.coeffs], [c.terms for c in other.coeffs]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._wrap(self.var, self.names, _signed_sum(*self._terms(other)))

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated quotient; the divisor's constant coefficient must be 1."""
        left, right = self._terms(other)
        if right[0] != {0: 1}:
            raise InputError("series division requires a divisor with constant term 1")
        return self._wrap(self.var, self.names, _quotient(left, right))


class TrackingSpec(FrozenRecord):
    """Which statistic markers stay symbolic in a series build.

    Untracked markers are specialized to 1.  Letter counts are either
    tracked per block (one marker variable per block) or collapsed to a
    single common marker: for word series that common marker is the
    expansion variable itself, for composition series it stays a variable
    counting parts.
    """

    x: tuple[bool, ...]
    y: tuple[bool, ...]
    z: tuple[bool, ...]
    per_block_q: bool = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not len(self.x) == len(self.y) == len(self.z):
            raise InputError("per-block tracking flags must have equal lengths")

    @property
    def t(self) -> int:
        return len(self.x)

    @classmethod
    def all_tracked(cls, t: int) -> "TrackingSpec":
        flags = (True,) * t
        return cls(flags, flags, flags, per_block_q=True)

    @classmethod
    def only(cls, t: int, tracked: set[str], per_block_q: bool = False) -> "TrackingSpec":
        """Track just the named markers, e.g. {"x2", "z1"}."""
        groups = {"x": [False] * t, "y": [False] * t, "z": [False] * t}
        for name in tracked:
            kind, index = name[0], name[1:]
            # str.isdigit also takes "²" and "٣"; a block index is ASCII decimal.
            if kind not in groups or not (index.isascii() and index.isdigit()):
                raise InputError(f"unknown tracked marker {name!r}")
            block = int(index)
            if not 1 <= block <= t:
                raise InputError(f"marker {name!r} names a block outside 1..{t}")
            groups[kind][block - 1] = True
        return cls(
            tuple(groups["x"]), tuple(groups["y"]), tuple(groups["z"]), per_block_q
        )

    def poly_names(self, common_q_var: bool) -> tuple[str, ...]:
        """Variable order: x1..xt, y1..yt, z1..zt, then count markers."""
        names: list[str] = []
        for kind, flags in (("x", self.x), ("y", self.y), ("z", self.z)):
            names.extend(f"{kind}{i}" for i in range(1, self.t + 1) if flags[i - 1])
        if self.per_block_q:
            names.extend(f"q{i}" for i in range(1, self.t + 1))
        elif common_q_var:
            names.append("q")
        return tuple(names)


def _marker_keys(spec: TrackingSpec, names: tuple[str, ...]) -> list[list[int]]:
    """Per block, the keys over ``names`` of its x, y, z and q markers: statistic index order.

    A tracked marker's key is its name's unit key (``combinat.key_units``); an untracked
    marker is the constant 1, key 0, so a product of markers is a sum of keys.
    """
    unit = dict(zip(names, key_units(FIELD_BITS, len(names), degree=True)))
    q = "q{}" if spec.per_block_q else "q"
    return [[unit.get(name.format(m), 0) for name in ("x{}", "y{}", "z{}", q)] for m in range(1, spec.t + 1)]


def _build_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int, var: str,
    degrees: Iterable[int],
) -> tuple[tuple[str, ...], list[Terms], list[tuple[list[Terms], ...]]]:
    """Coefficient variables, the series in ``var`` and its per-letter factors (a, b, c, d).

    Letter i enters with var**degrees[i - 1].  The composition variable v
    keeps a common part-count marker q; for words q is ``var`` itself.
    """
    if order < 0:
        raise InputError(f"truncation order must be nonnegative, got {order}")
    _check_partition(k, partition)
    if spec.t != partition.t:
        raise InputError(
            f"tracking spec covers {spec.t} blocks, partition has {partition.t}"
        )
    names = spec.poly_names(common_q_var=var == "v")
    if all(spec.x + spec.y + spec.z):
        # Each of a word's N - 1 pairs is marked, and each of its N letters when q is a coefficient
        # variable; a composition of weight N has at most N parts, and 1 + ... + 1 has N.
        check_degree(names, order - 1 + order * (var == "v" or spec.per_block_q))
    markers = _marker_keys(spec, names)

    def poly(*terms: tuple[int, int]) -> Terms:
        acc: Terms = {}
        for key, coefficient in terms:
            acc[key] = acc.get(key, 0) + coefficient
        return _nonzero(acc)

    def lift(constant: int, value: Terms, degree: int) -> list[Terms]:
        spine = [poly((0, constant))] + [{}] * (degree - 1) + [value] + [{}] * order
        return spine[: order + 1]

    factors = []
    for letter, degree in enumerate(degrees, start=1):
        xs, ys, zs, qs = markers[partition.block_of(letter) - 1]
        factors.append((
            lift(0, poly((qs, 1), (qs + ys, -1)), degree),
            lift(0, {qs + ys: 1}, degree),
            lift(1, poly((qs + zs, -1), (qs + xs, 1)), degree),
            lift(1, poly((qs + zs, -1), (qs + ys, 1)), degree),
        ))
    # Running sums S_j = S_(j-1) * c_j + a_j * prod(d before j), and likewise with b.
    prefix_d = [{0: 1}] + [{}] * order
    with_a = with_b = [{}] * (order + 1)
    for a, b, c, d in factors:
        with_a = _products([(with_a, c), (a, prefix_d)], order)
        with_b = _products([(with_b, c), (b, prefix_d)], order)
        prefix_d = _products([(prefix_d, d)], order)
    full = _quotient(_signed_sum(prefix_d, with_a), _signed_sum(prefix_d, with_b, -1))
    return names, full, factors


def build_ak_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of all words over [k], truncated in q at ``order``.

    The coefficient of q**n collects one monomial per statistic profile of
    the length-n words, under the requested specialization.  The constant
    coefficient is always 1 (the empty word).
    """
    names, full, _ = _build_series(k, partition, spec, order, "q", [1] * k)
    return PowerSeries._wrap("q", names, full)


def build_bk_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of compositions with parts in [k], truncated in v.

    v grades by the weight (sum of parts); the letter-count markers grade
    by the number of parts, so with a common marker q the coefficient of
    v**w is a polynomial whose q-power records how many parts a
    composition of weight w uses.
    """
    names, full, _ = _build_series(k, partition, spec, order, "v", range(1, k + 1))
    return PowerSeries._wrap("v", names, full)


def solve_block_system(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> list[PowerSeries]:
    """First-letter refinements of the word series, via forward substitution.

    Returns series F(1)..F(k), where F(s) sums the markers of the nonempty
    words starting with letter s.  Letting G be the full word series, the
    letter recurrences are

        F(s) = gamma_s - alpha_s * (F(1) + ... + F(s-1))

    with gamma_s = nu_s * G + lambda_s, and lambda, nu, alpha the cleared
    per-letter ratios a_s / d_s, b_s / d_s and (d_s - c_s) / d_s of the
    builder's factors, so F(s) is one quotient by d_s.  The identity
    1 + sum_s F(s) = G holds through the truncation order and is enforced by
    the test suite.
    """
    names, full, factors = _build_series(k, partition, spec, order, "q", [1] * k)
    solved: list[PowerSeries] = []
    running: list[Terms] = [{}] * (order + 1)
    for a, b, c, d in factors:
        here = _quotient(
            _signed_sum(a, _products([(b, full), (_signed_sum(c, d, -1), running)], order)), d
        )
        solved.append(PowerSeries._wrap("q", names, here))
        running = _signed_sum(running, here)
    return solved


def statistic_keys(spec: TrackingSpec) -> list[list[int]]:
    """Per block, each statistic's word-series key: a word's key is their sum over its letters and pairs."""
    return _marker_keys(spec, spec.poly_names(common_q_var=False))


def coefficient_distribution(
    series: PowerSeries, spec: TrackingSpec, partition: BlockPartition, n: int
) -> DistPolynomial:
    """Read one fully tracked word-series coefficient back as a distribution.

    Requires the all-tracked spec, whose monomials are in bijection with
    statistic vectors: exponents of x/y/z/q markers of block i give that
    block's (descents, rises, levels, letters).
    """
    t = partition.t
    if spec != TrackingSpec.all_tracked(t):
        raise InputError("distribution extraction needs the fully tracked spec")
    expected = spec.poly_names(common_q_var=False)
    if series.names != expected:
        raise InputError(f"series variables {series.names} do not match {expected}")
    entries = decode_keys(series.coefficient(n).terms, statistic_keys(spec), FIELD_BITS)
    return DistPolynomial(entries=entries, k=partition.k, n=n, partition=partition)
