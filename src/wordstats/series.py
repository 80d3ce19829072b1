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
product it takes has a two-term factor.  Series products and quotients add
every coefficient product into one packed-key dict per output coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .polynomials import Polynomial, add_product
from .words import BlockPartition, DistPolynomial, InputError


@dataclass
class PowerSeries:
    """Series in one expansion variable, truncated at ``order`` inclusive.

    ``coeffs[i]`` is the exact polynomial coefficient of var**i; the list
    always has length order + 1.
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

    def coefficient(self, i: int) -> Polynomial:
        if not 0 <= i <= self.order:
            raise InputError(f"order {i} outside truncation 0..{self.order}")
        return self.coeffs[i]

    def _check(self, other: "PowerSeries") -> None:
        if self.var != other.var or self.names != other.names:
            raise InputError("series mix expansion variables or coefficient variables")
        if self.order != other.order:
            raise InputError(f"series orders differ: {self.order} vs {other.order}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries(
            self.var, self.names, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries(
            self.var, self.names, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return _sum_of_products((self, other))

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated quotient; the divisor's constant coefficient must be 1."""
        self._check(other)
        if other.coeffs[0] != 1:
            raise InputError("series division requires a divisor with constant term 1")
        right = [(j, b.terms) for j, b in enumerate(other.coeffs) if j and b.terms]
        out: list[Polynomial] = []
        for i, a in enumerate(self.coeffs):
            acc = dict(a.terms)
            for j, b in right:
                if j > i:
                    break
                add_product(acc, b, out[i - j].terms, -1)
            out.append(Polynomial.from_keys(self.names, acc))
        return PowerSeries(self.var, self.names, out)


def _sum_of_products(*pairs: tuple[PowerSeries, PowerSeries]) -> PowerSeries:
    """sum(left * right for left, right in pairs), one dict per output coefficient."""
    first = pairs[0][0]
    order = first.order
    out: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for left, right in pairs:
        first._check(left)
        first._check(right)
        right_terms = [(j, b.terms) for j, b in enumerate(right.coeffs) if b.terms]
        for i, a in enumerate(left.coeffs):
            if a.terms:
                for j, b in right_terms:
                    if i + j > order:
                        break
                    add_product(out[i + j], a.terms, b)
    return PowerSeries(
        first.var, first.names, [Polynomial.from_keys(first.names, c) for c in out]
    )


@dataclass(frozen=True)
class TrackingSpec:
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

    def __post_init__(self):
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
            if kind not in groups or not index.isdigit():
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


def _build_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int, var: str,
    degrees: Iterable[int],
) -> tuple[PowerSeries, list[tuple[PowerSeries, ...]]]:
    """The series in ``var`` and its per-letter factors (a, b, c, d).

    Letter i enters with var**degrees[i - 1].  The composition variable v
    keeps a common part-count marker q; for words q is ``var`` itself.
    """
    if order < 0:
        raise InputError(f"truncation order must be nonnegative, got {order}")
    if k != partition.k:
        raise InputError(f"partition covers [{partition.k}], requested alphabet [{k}]")
    if spec.t != partition.t:
        raise InputError(
            f"tracking spec covers {spec.t} blocks, partition has {partition.t}"
        )
    names = spec.poly_names(common_q_var=var == "v")

    def marker(name: str):
        return Polynomial.variable(names, name) if name in names else 1

    def lift(constant, value, degree: int) -> PowerSeries:
        return PowerSeries.lift(var, names, [constant] + [0] * (degree - 1) + [value], order)

    factors = []
    for letter, degree in enumerate(degrees, start=1):
        m = partition.block_of(letter)
        xs, ys, zs = (marker(f"{kind}{m}") for kind in "xyz")
        qs = marker(f"q{m}" if spec.per_block_q else "q")
        factors.append((
            lift(0, qs * (1 - ys), degree),
            lift(0, qs * ys, degree),
            lift(1, -(qs * (zs - xs)), degree),
            lift(1, -(qs * (zs - ys)), degree),
        ))
    # Running sums S_j = S_(j-1) * c_j + a_j * prod(d before j), and likewise with b.
    prefix_d = PowerSeries.lift(var, names, [1], order)
    with_a = with_b = PowerSeries.lift(var, names, [], order)
    for a, b, c, d in factors:
        with_a = _sum_of_products((with_a, c), (a, prefix_d))
        with_b = _sum_of_products((with_b, c), (b, prefix_d))
        prefix_d = prefix_d * d
    return (prefix_d + with_a).divide(prefix_d - with_b), factors


def build_ak_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of all words over [k], truncated in q at ``order``.

    The coefficient of q**n collects one monomial per statistic profile of
    the length-n words, under the requested specialization.  The constant
    coefficient is always 1 (the empty word).
    """
    return _build_series(k, partition, spec, order, "q", [1] * k)[0]


def build_bk_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of compositions with parts in [k], truncated in v.

    v grades by the weight (sum of parts); the letter-count markers grade
    by the number of parts, so with a common marker q the coefficient of
    v**w is a polynomial whose q-power records how many parts a
    composition of weight w uses.
    """
    return _build_series(k, partition, spec, order, "v", range(1, k + 1))[0]


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
    full, factors = _build_series(k, partition, spec, order, "q", [1] * k)
    solved: list[PowerSeries] = []
    running = PowerSeries.lift("q", full.names, [], order)
    for a, b, c, d in factors:
        here = (a + _sum_of_products((b, full), (c - d, running))).divide(d)
        solved.append(here)
        running = running + here
    return solved


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
    # Variables run x1..xt, y1..yt, z1..zt, q1..qt, so block i's row is every t-th exponent.
    entries = {
        tuple(exponents[i::t] for i in range(t)): coefficient
        for exponents, coefficient in series.coefficient(n).exponents().items()
    }
    return DistPolynomial(entries=entries, k=partition.k, n=n, partition=partition)
