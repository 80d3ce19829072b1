"""Truncated power series realizing the master generating functions.

The generating function of all words over [k] (series variable q, graded by
word length) and its composition-weighted analogue (series variable v,
graded by the sum of the parts) are both ratios of polynomials once the
per-letter geometric factors are cleared.  Numerator and denominator are
assembled exactly with polynomial coefficients, and the quotient is taken
as a truncated series; the denominator always has constant coefficient 1,
so division never leaves the integers.

Per-letter factors, with every letter i resolving its block m through the
partition (Q_m is the block letter-count marker when tracked):

    a_i = q * Q_m * (1 - y_m)          d_i = 1 - q * Q_m * (z_m - y_m)
    b_i = q * Q_m * y_m                c_i = 1 - q * Q_m * (z_m - x_m)

    numerator   = prod(d) + sum_j a_j * prod(d before j) * prod(c after j)
    denominator = prod(d) - sum_j b_j * prod(d before j) * prod(c after j)

The composition-weighted variant substitutes q -> v**i per letter i, which
decorates all four factors (the level term included) with v**i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import DistPolynomial
from .polynomials import Polynomial
from .words import BlockPartition, InputError


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
        coeffs = []
        for i in range(order + 1):
            entry = spine[i] if i < len(spine) else 0
            if isinstance(entry, int):
                entry = Polynomial.constant(names, entry)
            coeffs.append(entry)
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
        self._check(other)
        zero = Polynomial(self.names)
        out = [zero for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(self.var, self.names, out)

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Truncated quotient; the divisor's constant coefficient must be 1."""
        self._check(other)
        if other.coeffs[0] != 1:
            raise InputError("series division requires a divisor with constant term 1")
        out: list[Polynomial] = []
        for i in range(self.order + 1):
            acc = self.coeffs[i]
            for j in range(1, i + 1):
                b = other.coeffs[j]
                if not b.is_zero():
                    acc = acc - b * out[i - j]
            out.append(acc)
        return PowerSeries(self.var, self.names, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.names == other.names
            and self.coeffs == other.coeffs
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
    def nothing(cls, t: int) -> "TrackingSpec":
        flags = (False,) * t
        return cls(flags, flags, flags, per_block_q=False)

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


def _letter_markers(
    partition: BlockPartition, spec: TrackingSpec, names: tuple[str, ...], letter: int,
    common_q_var: bool,
):
    """(x, y, z, q) marker polynomials (or integer 1) for one letter."""
    if spec.t != partition.t:
        raise InputError(
            f"tracking spec covers {spec.t} blocks, partition has {partition.t}"
        )
    m = partition.block_of(letter)

    def marker(kind: str, flags: tuple[bool, ...]):
        if flags[m - 1]:
            return Polynomial.variable(names, f"{kind}{m}")
        return 1

    xs = marker("x", spec.x)
    ys = marker("y", spec.y)
    zs = marker("z", spec.z)
    if spec.per_block_q:
        qs = Polynomial.variable(names, f"q{m}")
    elif common_q_var:
        qs = Polynomial.variable(names, "q")
    else:
        qs = 1
    return xs, ys, zs, qs


def _quotient_from_factors(
    var: str,
    names: tuple[str, ...],
    a_list: list[PowerSeries],
    b_list: list[PowerSeries],
    c_list: list[PowerSeries],
    d_list: list[PowerSeries],
    order: int,
) -> PowerSeries:
    k = len(a_list)
    one = PowerSeries.lift(var, names, [1], order)
    prefix_d = [one]
    for d in d_list:
        prefix_d.append(prefix_d[-1] * d)
    suffix_c = [one] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix_c[j] = c_list[j] * suffix_c[j + 1]
    numerator = prefix_d[k]
    denominator = prefix_d[k]
    for j in range(k):
        wings = prefix_d[j] * suffix_c[j + 1]
        numerator = numerator + a_list[j] * wings
        denominator = denominator - b_list[j] * wings
    return numerator.divide(denominator)


def build_ak_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of all words over [k], truncated in q at ``order``.

    The coefficient of q**n collects one monomial per statistic profile of
    the length-n words, under the requested specialization.  The constant
    coefficient is always 1 (the empty word).
    """
    if order < 0:
        raise InputError(f"truncation order must be nonnegative, got {order}")
    if k != partition.k:
        raise InputError(f"partition covers [{partition.k}], requested alphabet [{k}]")
    names = spec.poly_names(common_q_var=False)
    a_list, b_list, c_list, d_list = [], [], [], []
    for letter in range(1, k + 1):
        xs, ys, zs, qs = _letter_markers(partition, spec, names, letter, False)
        lift = lambda spine: PowerSeries.lift("q", names, spine, order)
        one_poly = Polynomial.constant(names, 1)
        a_list.append(lift([0, qs * (one_poly - ys)]))
        b_list.append(lift([0, qs * ys]))
        c_list.append(lift([1, -(qs * (zs - xs))]))
        d_list.append(lift([1, -(qs * (zs - ys))]))
    return _quotient_from_factors("q", names, a_list, b_list, c_list, d_list, order)


def build_bk_series(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> PowerSeries:
    """Generating function of compositions with parts in [k], truncated in v.

    v grades by the weight (sum of parts); the letter-count markers grade
    by the number of parts, so with a common marker q the coefficient of
    v**w is a polynomial whose q-power records how many parts a
    composition of weight w uses.
    """
    if order < 0:
        raise InputError(f"truncation order must be nonnegative, got {order}")
    if k != partition.k:
        raise InputError(f"partition covers [{partition.k}], requested alphabet [{k}]")
    names = spec.poly_names(common_q_var=True)
    a_list, b_list, c_list, d_list = [], [], [], []
    for letter in range(1, k + 1):
        xs, ys, zs, qs = _letter_markers(partition, spec, names, letter, True)
        one_poly = Polynomial.constant(names, 1)

        def lift_at(value, degree: int) -> PowerSeries:
            spine: list = [0] * degree + [value]
            return PowerSeries.lift("v", names, spine, order)

        def lift_unit_minus(value, degree: int) -> PowerSeries:
            spine: list = [1] + [0] * (degree - 1) + [-value]
            return PowerSeries.lift("v", names, spine, order)

        a_list.append(lift_at(qs * (one_poly - ys), letter))
        b_list.append(lift_at(qs * ys, letter))
        c_list.append(lift_unit_minus(qs * (zs - xs), letter))
        d_list.append(lift_unit_minus(qs * (zs - ys), letter))
    return _quotient_from_factors("v", names, a_list, b_list, c_list, d_list, order)


def solve_block_system(
    k: int, partition: BlockPartition, spec: TrackingSpec, order: int
) -> list[PowerSeries]:
    """First-letter refinements of the word series, via forward substitution.

    Returns series F(1)..F(k), where F(s) sums the markers of the nonempty
    words starting with letter s.  Letting G be the full word series, the
    letter recurrences are

        F(s) = gamma_s - alpha_s * (F(1) + ... + F(s-1))

    with gamma_s = nu_s * G + lambda_s, and lambda, nu, alpha the cleared
    per-letter ratios (each denominator has constant term 1, so the ratios
    expand exactly).  The identity 1 + sum_s F(s) = G holds through the
    truncation order and is enforced by the test suite.
    """
    full = build_ak_series(k, partition, spec, order)
    names = full.names
    one_poly = Polynomial.constant(names, 1)
    solved: list[PowerSeries] = []
    running = PowerSeries.lift("q", names, [], order)
    for letter in range(1, k + 1):
        xs, ys, zs, qs = _letter_markers(partition, spec, names, letter, False)
        lift = lambda spine: PowerSeries.lift("q", names, spine, order)
        denom = lift([1, -(qs * (zs - ys))])
        lam = lift([0, qs * (one_poly - ys)]).divide(denom)
        nu = lift([0, qs * ys]).divide(denom)
        alpha = lift([0, qs * (ys - xs)]).divide(denom)
        gamma = nu * full + lam
        here = gamma - alpha * running
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
        for exponents, coefficient in series.coefficient(n).terms.items()
    }
    return DistPolynomial(entries=entries, k=partition.k, n=n, partition=partition)
