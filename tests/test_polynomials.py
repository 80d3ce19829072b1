import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_properties import PROPERTY
from wordstats import InputError, Polynomial, PowerSeries
from wordstats.combinat import encode_key
from wordstats.polynomials import FIELD_BITS, add_product, adopt, render
from wordstats.series import _signed_sum

NAMES = ("x1", "y1", "q")


def polynomial(names, terms):
    """The polynomial over ``names`` of tuple-keyed ``terms``, zeros dropped, built as the series engine builds one."""
    return adopt(names, [{encode_key(e, FIELD_BITS, degree=True): c for e, c in terms.items() if c}])[0]


def constant(names, value):
    return polynomial(names, {(0,) * len(names): value})


def P(terms):
    return polynomial(NAMES, terms)


def packed_sum(a, b, sign=1):
    """a + sign * b through the series engine's sum helper, wrapped as the engine wraps it."""
    return adopt(a.names, _signed_sum([a.terms], [b.terms], sign))[0]


def series_product(a, b):
    """a * b truncated at their order, summed through ``add_product``, handed out as the engine hands out a series."""
    left, right = a._terms(b)
    out = [{} for _ in left]
    for i, x in enumerate(left):
        for j, y in enumerate(right[: len(left) - i]):
            add_product(out[i + j], x, y)
    return PowerSeries._wrap(a.var, a.names, [{key: c for key, c in t.items() if c} for t in out])


def series_difference(a, b):
    """a - b through the series engine's sum helper, handed out as the engine hands out a series."""
    return PowerSeries._wrap(a.var, a.names, _signed_sum(*a._terms(b), -1))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        poly = P({(1, 0, 0): 0, (0, 1, 0): 2})
        assert poly.exponents() == {(0, 1, 0): 2}

    def test_constant(self):
        assert Polynomial.constant(NAMES, 5).exponents() == {(0, 0, 0): 5}
        assert Polynomial.constant(NAMES, 0) == P({})


class TestArithmetic:
    def test_sum_helper_cancels(self):
        a = P({(1, 0, 0): 3})
        b = P({(1, 0, 0): -3, (0, 0, 1): 1})
        assert packed_sum(a, b).exponents() == {(0, 0, 1): 1}
        assert packed_sum(a, a, -1) == P({})

    def test_int_operands(self):
        x = P({(1, 0, 0): 1})
        assert (2 * x).exponents() == {(1, 0, 0): 2}
        assert (x * -1).exponents() == {(1, 0, 0): -1}
        assert (x * 0) == P({})

    def test_product(self):
        left = P({(0, 0, 0): 1, (1, 0, 0): 1})
        right = P({(0, 0, 0): 2, (0, 0, 1): 1})
        product = left * right
        assert product.exponents() == {
            (0, 0, 0): 2,
            (1, 0, 0): 2,
            (0, 0, 1): 1,
            (1, 0, 1): 1,
        }

    def test_mixed_variable_sets_rejected(self):
        other = polynomial(("a",), {(1,): 1})
        with pytest.raises(InputError):
            P({(1, 0, 0): 1}) * other
        with pytest.raises(InputError):
            other * P({(1, 0, 0): 1})

    def test_equality_compares_names_and_terms(self):
        assert P({(0, 0, 1): 2}) == P({(0, 0, 1): 2})
        assert P({(0, 0, 1): 2}) != P({(0, 0, 1): 1})
        assert polynomial(("a",), {(1,): 1}) != polynomial(("b",), {(1,): 1})

    def test_equality_with_another_type_is_not_implemented(self):
        x = P({(1, 0, 0): 1})
        assert x.__eq__("x1") is NotImplemented
        assert (x == "x1") is False
        assert (x != "x1") is True

    def test_constant_term(self):
        poly = P({(0, 0, 0): 3, (0, 0, 1): 1})
        assert poly.exponents().get((0, 0, 0)) == 3
        assert (0, 0, 0) not in P({}).exponents()


class TestPrinting:
    def test_zero(self):
        assert str(P({})) == "0"

    def test_constant_plus_variable(self):
        assert str(P({(0, 0, 0): 3, (1, 0, 0): 1})) == "3 + x1"

    def test_signs_and_powers(self):
        poly = P({(2, 0, 1): 2, (0, 0, 1): -3, (0, 0, 0): -1})
        assert str(poly) == "-1 - 3*q + 2*x1^2*q"

    def test_leading_negative(self):
        x = P({(1, 0, 0): 1})
        assert str(x * -1) == "-x1"
        assert str(P({(0, 0, 0): 1, (1, 0, 0): -1})) == "1 - x1"

    def test_graded_lex_order(self):
        poly = P({(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1, (0, 0, 0): 1})
        # degree first, then exponent tuples lexicographically
        assert str(poly) == "1 + q + y1 + x1 + x1*y1"

    def test_sorted_terms_deterministic(self):
        # graded, then lexicographic, whatever order the terms were given in
        for terms in itertools.permutations([((2, 0, 0), 1), ((0, 0, 1), 4), ((1, 1, 0), -2)]):
            assert str(P(dict(terms))) == "4*q - 2*x1*y1 + x1^2"

    @pytest.mark.parametrize("arity", range(6))
    def test_render_of_a_list_is_each_alone(self, arity):
        # Zero, odd and even arities split a key into halves of different widths; the
        # polynomials share halves, and one of them is zero, in the middle of the list.
        names = ("x1", "y1", "z1", "q1", "x2")[:arity]

        def unit(*powers):
            return tuple(powers[:arity]) + (0,) * (arity - len(powers[:arity]))

        polys = [
            polynomial(names, {unit(): 7, unit(1): 1, unit(0, 2): -1, unit(1, 2, 1): -7}),
            polynomial(names, {unit(1, 2, 1): 1, unit(0, 0, 3, 1): 7, unit(1): -1}),
            polynomial(names, {}),
            polynomial(names, {unit(): -1, unit(2, 0, 0, 1, 1): -7, unit(1, 2, 1): 7}),
            polynomial(names, {unit(): 1}),
            polynomial(names, {unit(): -7, unit(0, 2): 1}),
        ]
        texts = render(polys)
        assert texts == [render([poly])[0] for poly in polys]
        assert texts == [reference_str(names, poly.exponents()) for poly in polys]
        assert texts[2] == "0"
        assert render([]) == []

    def test_render_refuses_mixed_variable_sets(self):
        with pytest.raises(InputError):
            render([P({(1, 0, 0): 1}), polynomial(("x1", "y1"), {(1, 0): 1})])


class TestNoCarry:
    TOP = (1 << FIELD_BITS) - 1

    def test_largest_total_degree_fits(self):
        x = P({(1, 0, 0): 1})
        assert (P({(self.TOP - 1, 0, 0): 1}) * x).exponents() == {(self.TOP, 0, 0): 1}

    def test_product_overflowing_a_field_raises(self):
        # x1*y1 overflows only the degree field, x1*x1 also the x1 field.
        top = P({(self.TOP, 0, 0): 1})
        for other in [P({(0, 1, 0): 1}), P({(1, 0, 0): 1}), top]:
            with pytest.raises(InputError):
                top * other
            with pytest.raises(InputError):
                other * top

    def test_series_product_and_quotient_overflow_raise(self):
        top = PowerSeries.lift("v", NAMES, [1, P({(self.TOP, 0, 0): 1})], 2)
        with pytest.raises(InputError):
            series_product(top, top)
        with pytest.raises(InputError):
            PowerSeries.lift("v", NAMES, [1], 2).divide(top)

    def test_series_carry_in_the_last_coefficient_alone_raises(self):
        # The hand-out checks once per series: a carry in its last coefficient still counts.
        top = PowerSeries.lift("v", NAMES, [1, 0, P({(self.TOP, 0, 0): 1})], 3)
        y = PowerSeries.lift("v", NAMES, [1, P({(0, 1, 0): 1})], 3)
        assert series_product(top, PowerSeries.lift("v", NAMES, [1], 3)) == top
        with pytest.raises(InputError):
            series_product(top, y)
        carried = 1 << (FIELD_BITS * (len(NAMES) + 1))
        with pytest.raises(InputError):
            PowerSeries._wrap("v", NAMES, [{0: 1}, {}, {carried: 1}])

    def test_series_hand_out_keeps_its_term_dicts(self):
        terms = [{0: 1}, {}, {encode_key((1, 0, 0), FIELD_BITS, degree=True): -3}]
        series = PowerSeries._wrap("v", NAMES, terms)
        assert all(c.terms is t for c, t in zip(series.coeffs, terms))


def reference_add(left, right):
    """Tuple-keyed sum of two term maps, zeros dropped."""
    merged = dict(left)
    for exponents, coefficient in right.items():
        merged[exponents] = merged.get(exponents, 0) + coefficient
    return {exponents: c for exponents, c in merged.items() if c}


def reference_mul(left, right):
    """Tuple-keyed product, as Polynomial.__mul__ computed it before packed keys."""
    product = {}
    for exp_a, coeff_a in left.items():
        for exp_b, coeff_b in right.items():
            key = tuple(a + b for a, b in zip(exp_a, exp_b))
            product[key] = product.get(key, 0) + coeff_a * coeff_b
    return {exponents: c for exponents, c in product.items() if c}


def reference_str(names, terms):
    """Polynomial.__str__ before packed keys: graded, then lexicographic."""
    if not terms:
        return "0"
    pieces = []
    for exponents, coefficient in sorted(terms.items(), key=lambda item: (sum(item[0]), item[0])):
        factors = [
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(names, exponents)
            if power
        ]
        magnitude = abs(coefficient)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coefficient > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
    return " ".join(pieces)


# The variables of the widest series the CLI prints: x, y, z and q for each of 4 blocks.
SERIES_NAMES = tuple(f"{kind}{block}" for kind in "xyzq" for block in range(1, 5))


def term_maps(names, max_size=6):
    """Tuple-keyed term maps over ``names``, zeros dropped."""
    exponents = st.tuples(*[st.integers(0, 4)] * len(names))
    coefficients = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    return st.dictionaries(exponents, coefficients, max_size=max_size).map(
        lambda terms: {exponents: c for exponents, c in terms.items() if c}
    )


@st.composite
def polynomial_pairs(draw):
    """Variable names and two tuple-keyed term maps over them, zeros dropped."""
    names = SERIES_NAMES[: draw(st.integers(0, len(SERIES_NAMES)))]
    terms = term_maps(names)
    return names, draw(terms), draw(terms)


def _unit(index, power=1):
    return tuple(power if i == index else 0 for i in range(len(SERIES_NAMES)))


@PROPERTY
@given(polynomial_pairs())
@example((SERIES_NAMES, {_unit(0): 2**70, _unit(15, 3): -1, (0,) * 16: 5},
          {_unit(8): -(2**70), _unit(7): 1}))
def test_packed_arithmetic_matches_tuple_reference(pair):
    names, left, right = pair
    a, b = polynomial(names, left), polynomial(names, right)
    assert a.exponents() == left
    for got, want in [
        (a, left),
        (packed_sum(a, b), reference_add(left, right)),
        (packed_sum(a, b, -1), reference_add(left, {e: -c for e, c in right.items()})),
        (a * b, reference_mul(left, right)),
        (b * a, reference_mul(left, right)),
    ]:
        assert got.exponents() == want
        assert str(got) == reference_str(names, want)


def reference_series_mul(left, right):
    """Tuple-keyed truncated product: coefficient i sums left[j] * right[i - j]."""
    out = []
    for i in range(len(left)):
        acc = {}
        for j in range(i + 1):
            acc = reference_add(acc, reference_mul(left[j], right[i - j]))
        out.append(acc)
    return out


def reference_series_divide(left, right):
    """Tuple-keyed truncated quotient by a series with constant coefficient 1."""
    out = []
    for i in range(len(left)):
        acc = left[i]
        for j in range(1, i + 1):
            product = reference_mul(right[j], out[i - j])
            acc = reference_add(acc, {e: -c for e, c in product.items()})
        out.append(acc)
    return out


@st.composite
def series_pairs(draw):
    """Names, then two tuple-keyed series of one order; the second has constant coefficient 1."""
    names = SERIES_NAMES[: draw(st.integers(0, 4))]
    order = draw(st.integers(0, 4))
    terms = term_maps(names, max_size=3)
    left = [draw(terms) for _ in range(order + 1)]
    right = [{(0,) * len(names): 1}] + [draw(terms) for _ in range(order)]
    return names, left, right


@PROPERTY
@given(series_pairs())
def test_series_arithmetic_matches_tuple_reference(pair):
    names, left, right = pair
    order = len(left) - 1

    def lift(coefficients):
        return PowerSeries.lift("q", names, [polynomial(names, c) for c in coefficients], order)

    a, b = lift(left), lift(right)
    negated = [{e: -c for e, c in coefficient.items()} for coefficient in right]
    for got, want in [
        (a + b, [reference_add(x, y) for x, y in zip(left, right)]),
        (series_difference(a, b), [reference_add(x, y) for x, y in zip(left, negated)]),
        (series_product(a, b), reference_series_mul(left, right)),
        (series_product(b, a), reference_series_mul(left, right)),
        (a.divide(b), reference_series_divide(left, right)),
    ]:
        assert [c.exponents() for c in got.coeffs] == want
        assert render(got.coeffs) == [reference_str(names, c) for c in want]
