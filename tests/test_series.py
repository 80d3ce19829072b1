import itertools
from collections import Counter

import pytest

from wordstats import series as series_module
from wordstats.formulas import _grid_partitions
from wordstats import (
    BlockPartition,
    InputError,
    Polynomial,
    PowerSeries,
    TrackingSpec,
    brute_distribution,
    build_ak_series,
    build_bk_series,
    coefficient_distribution,
    solve_block_system,
    transfer_distribution,
)
from wordstats.words import stat_key

from test_polynomials import series_difference, series_product

NAMES = ("u",)


def monomial(names, *markers):
    """The exponent tuple over ``names`` of the product of ``markers``, repeats included."""
    return tuple(markers.count(name) for name in names)


def S(spine, order=5):
    return PowerSeries.lift("q", NAMES, spine, order)


class TestPowerSeries:
    def test_lift_pads_with_zero(self):
        series = S([1, 2])
        assert series.order == 5
        assert series.coefficient(0) == 1
        assert series.coefficient(5) == 0

    def test_multiplication_truncates(self):
        geometric = S([1] * 6)
        square = series_product(geometric, geometric)
        for i in range(6):
            assert square.coefficient(i) == i + 1

    def test_division_roundtrip(self):
        u = Polynomial(NAMES, {(1,): 1})
        a = S([1, u, 3, 0, u * u])
        b = S([1, 2, u])
        assert series_product(a, b).divide(b) == a

    def test_division_needs_unit_constant(self):
        with pytest.raises(InputError):
            S([1]).divide(S([0, 1]))

    def test_geometric_inverse(self):
        one = S([1])
        inv = one.divide(S([1, -1]))
        assert all(inv.coefficient(i) == 1 for i in range(6))

    def test_order_mismatch(self):
        with pytest.raises(InputError):
            S([1], order=3) + S([1], order=4)

    def test_coefficient_bounds(self):
        with pytest.raises(InputError):
            S([1], order=2).coefficient(3)


def _all_partitions(k):
    parts = [BlockPartition.threshold(k, t) for t in range(k + 1)]
    parts.append(BlockPartition.mod_residue(k, 2))
    parts.append(BlockPartition.mod_residue(k, 3))
    return parts


class TestWordSeries:
    def test_constant_coefficient_is_one(self):
        for k in (1, 2, 3):
            part = BlockPartition.threshold(k, 1)
            series = build_ak_series(k, part, TrackingSpec.all_tracked(2), 3)
            assert series.coefficient(0) == 1

    def test_linear_coefficient_counts_letters(self):
        part = BlockPartition.threshold(2, 1)
        series = build_ak_series(2, part, TrackingSpec.all_tracked(2), 2)
        names = series.names
        q1, q2 = monomial(names, "q1"), monomial(names, "q2")
        assert series.coefficient(1) == Polynomial(names, {q1: 1, q2: 1})

    def test_quadratic_coefficient_matches_brute_force(self):
        part = BlockPartition.threshold(2, 1)
        spec = TrackingSpec.all_tracked(2)
        series = build_ak_series(2, part, spec, 2)
        assert coefficient_distribution(series, spec, part, 2) == brute_distribution(
            2, 2, part
        )
        # four words, each its own monomial with coefficient 1
        poly = series.coefficient(2)
        assert len(poly.terms) == 4
        assert set(poly.terms.values()) == {1}

    def test_negative_order_rejected(self):
        part = BlockPartition.threshold(2, 1)
        with pytest.raises(InputError):
            build_ak_series(2, part, TrackingSpec.all_tracked(2), -1)

    def test_all_specialized_gives_powers_of_k(self):
        for k in (1, 2, 3, 4):
            part = BlockPartition.threshold(k, 0)
            series = build_ak_series(k, part, TrackingSpec.only(2, set()), 6)
            for n in range(7):
                assert series.coefficient(n) == k**n

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_oracle_monomial_by_monomial(self, k):
        for part in _all_partitions(k):
            spec = TrackingSpec.all_tracked(part.t)
            series = build_ak_series(k, part, spec, 4)
            for n in range(5):
                got = coefficient_distribution(series, spec, part, n)
                assert got == transfer_distribution(k, n, part)


def _compositions(weight, k):
    if weight == 0:
        yield ()
        return
    for first in range(1, min(k, weight) + 1):
        for rest in _compositions(weight - first, k):
            yield (first,) + rest


class TestCompositionSeries:
    def test_constant_coefficient_is_one(self):
        part = BlockPartition.threshold(2, 1)
        series = build_bk_series(2, part, TrackingSpec.all_tracked(2), 3)
        assert series.coefficient(0) == 1

    def test_weight_one_marks_first_block(self):
        part = BlockPartition.threshold(2, 1)
        series = build_bk_series(2, part, TrackingSpec.all_tracked(2), 2)
        assert series.coefficient(1) == Polynomial(series.names, {monomial(series.names, "q1"): 1})

    def test_part_count_marker_weight_four(self):
        # compositions of 4 with parts <= 2: 22, 112, 121, 211, 1111
        part = BlockPartition.threshold(2, 1)
        series = build_bk_series(2, part, TrackingSpec.only(2, set()), 4)
        assert series.names == ("q",)
        assert series.coefficient(4) == Polynomial(series.names, {(2,): 1, (3,): 3, (4,): 1})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_composition_enumeration(self, k):
        part = BlockPartition.mod_residue(k, 2)
        spec = TrackingSpec.all_tracked(part.t)
        series = build_bk_series(k, part, spec, 6)
        t = part.t
        for weight in range(7):
            expected: dict = {}
            for comp in _compositions(weight, k):
                key = stat_key(comp, part.blocks, t)
                exps = tuple(
                    key[i][coord] for coord in range(4) for i in range(t)
                )
                expected[exps] = expected.get(exps, 0) + 1
            assert series.coefficient(weight).exponents() == expected


class TestBlockSystem:
    def test_single_letter_base_case(self):
        # with one letter the refinement is the whole series minus 1
        part = BlockPartition.from_blocks((1,))
        spec = TrackingSpec.all_tracked(1)
        full = build_ak_series(1, part, spec, 4)
        (refined,) = solve_block_system(1, part, spec, 4)
        one = PowerSeries.lift("q", full.names, [1], 4)
        assert one + refined == full

    def test_sum_identity_order_by_order(self):
        part = BlockPartition.threshold(2, 1)
        spec = TrackingSpec.all_tracked(2)
        full = build_ak_series(2, part, spec, 3)
        refined = solve_block_system(2, part, spec, 3)
        total = PowerSeries.lift("q", full.names, [1], 3)
        for piece in refined:
            total = total + piece
        assert total == full

    def test_recurrence_residual_vanishes(self):
        # recompute gamma and alpha from scratch and check
        # F(s) = gamma_s - alpha_s * (F(1) + ... + F(s-1)) for every s
        k = 3
        part = BlockPartition.mod_residue(k, 2)
        spec = TrackingSpec.all_tracked(part.t)
        order = 4
        full = build_ak_series(k, part, spec, order)
        refined = solve_block_system(k, part, spec, order)
        names = full.names

        def spine(constant, terms):
            return PowerSeries.lift("q", names, [constant, Polynomial(names, terms)], order)

        running = PowerSeries.lift("q", names, [], order)
        for letter in range(1, k + 1):
            m = part.block_of(letter)
            q = monomial(names, f"q{m}")
            qx, qy, qz = (monomial(names, f"q{m}", f"{kind}{m}") for kind in "xyz")
            denom = spine(1, {qz: -1, qy: 1})  # 1 - q_m (z_m - y_m)
            lam = spine(0, {q: 1, qy: -1}).divide(denom)
            nu = spine(0, {qy: 1}).divide(denom)
            alpha = spine(0, {qy: 1, qx: -1}).divide(denom)
            gamma = series_product(nu, full) + lam
            expected = series_difference(gamma, series_product(alpha, running))
            residual = series_difference(refined[letter - 1], expected)
            assert all(c == 0 for c in residual.coeffs)
            running = running + refined[letter - 1]

    def test_first_letter_series_count_the_words_starting_with_each_letter(self):
        # F(s) at q^n holds the words (s, w) of length n, each by its statistic vector.
        checked = 0
        for k, order in ((1, 5), (2, 5), (3, 5), (4, 4)):
            for part in _grid_partitions(k):
                spec = TrackingSpec.all_tracked(part.t)
                for s, refined in enumerate(solve_block_system(k, part, spec, order), start=1):
                    assert refined.coefficient(0) == 0
                    for n in range(1, order + 1):
                        words = itertools.product(range(1, k + 1), repeat=n - 1)
                        want = Counter(stat_key((s, *w), part.blocks, part.t) for w in words)
                        assert coefficient_distribution(refined, spec, part, n).entries == want, (k, part, s, n)
                        checked += 1
        assert checked == 272

    def test_letter_count_specialization(self):
        for k in (1, 2, 3, 4):
            part = BlockPartition.threshold(k, 1)
            refined = solve_block_system(k, part, TrackingSpec.only(2, set()), 5)
            assert len(refined) == k
            for n in range(6):
                # nothing tracked: every coefficient is a constant, keyed by the empty exponent tuple
                total = sum(p.coefficient(n).exponents().get((), 0) for p in refined)
                assert total == k**n - (1 if n == 0 else 0)


# Highest truncation order of the series-expand benchmark ladder, by tracking and k.
LADDER_TOP = {
    "all": {1: 14, 2: 14, 3: 9, 4: 6},
    "partial": {1: 18, 2: 18, 3: 13, 4: 10},
    "none": {1: 26, 2: 26, 3: 18, 4: 14},
}


def _tracking(mode, t, per_block_q):
    markers = {"all": {f"{kind}{i}" for kind in "xyz" for i in range(1, t + 1)},
               "partial": {"x1", f"y{t}", "z1"}, "none": set()}[mode]
    return TrackingSpec.only(t, markers, per_block_q)


class TestNoCarryInvariant:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", sorted(LADDER_TOP))
    def test_exponents_of_coefficient_i_are_at_most_i(self, k, mode):
        order = LADDER_TOP[mode][k]
        partitions = [
            BlockPartition.threshold(k, k // 2),
            BlockPartition.mod_residue(k, 2),
            BlockPartition.from_blocks([letter % 3 + 1 for letter in range(k)], t=3),
        ]
        for part in partitions:
            for per_block_q in (False, True):
                spec = _tracking(mode, part.t, per_block_q)
                for build in (build_ak_series, build_bk_series):
                    series = build(k, part, spec, order)
                    for i, coefficient in enumerate(series.coeffs):
                        for exponents in coefficient.exponents():
                            assert max(exponents, default=0) <= i, (build.__name__, part, i)


class Started(Exception):
    """Raised in place of the first series product: the build got past its up-front checks."""


def _started(*args):
    raise Started


# With every x, y and z tracked, the top degree at order N, and the largest order whose degree fits 16 bits.
TOP_DEGREE = [
    (build_ak_series, False, 65536),  # N - 1: q is the expansion variable
    (build_ak_series, True, 32768),  # 2N - 1: N pairs minus one, N letters
    (build_bk_series, False, 32768),  # 2N - 1 at N parts, the composition 1 + ... + 1
    (build_bk_series, True, 32768),
]


class TestDegreeRefusal:
    @pytest.mark.parametrize("build, per_block_q, largest", TOP_DEGREE)
    def test_all_tracked_build_is_refused_from_its_order_alone(self, monkeypatch, build, per_block_q, largest):
        monkeypatch.setattr(series_module, "_products", _started)
        part = BlockPartition.from_blocks((1,))
        spec = _tracking("all", 1, per_block_q)
        with pytest.raises(Started):
            build(1, part, spec, largest)
        names = spec.poly_names(common_q_var=build is build_bk_series)
        with pytest.raises(InputError) as caught:
            build(1, part, spec, largest + 1)
        assert str(caught.value) == f"an exponent of {names} exceeds the 16-bit field"

    @pytest.mark.parametrize("tracked", [{"x1", "z1"}, set()])
    def test_partly_tracked_build_is_checked_only_once_built(self, monkeypatch, tracked):
        monkeypatch.setattr(series_module, "_products", _started)
        with pytest.raises(Started):
            build_ak_series(1, BlockPartition.from_blocks((1,)), TrackingSpec.only(1, tracked, True), 10**6)


class TestTrackingSpec:
    def test_only_selected_markers(self):
        spec = TrackingSpec.only(2, {"x2", "z1"})
        assert spec.x == (False, True)
        assert spec.z == (True, False)
        assert spec.poly_names(common_q_var=False) == ("x2", "z1")
        assert spec.poly_names(common_q_var=True) == ("x2", "z1", "q")

    def test_bad_marker_names(self):
        with pytest.raises(InputError):
            TrackingSpec.only(2, {"w1"})
        with pytest.raises(InputError):
            TrackingSpec.only(2, {"x3"})
        for name in ("x\u00b2", "y\u0661", "z+1", "q1"):  # superscript, non-ASCII digit, sign, q
            with pytest.raises(InputError):
                TrackingSpec.only(2, {name})

    def test_distribution_extraction_needs_full_tracking(self):
        part = BlockPartition.threshold(2, 1)
        spec = TrackingSpec.only(2, {"x2"})
        series = build_ak_series(2, part, spec, 2)
        with pytest.raises(InputError):
            coefficient_distribution(series, spec, part, 2)
