import pytest

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

NAMES = ("u",)


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
        square = geometric * geometric
        for i in range(6):
            assert square.coefficient(i) == i + 1

    def test_division_roundtrip(self):
        u = Polynomial.variable(NAMES, "u")
        a = S([1, u, 3, 0, u * u])
        b = S([1, 2, u])
        assert (a * b).divide(b) == a

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
        q1 = Polynomial.variable(series.names, "q1")
        q2 = Polynomial.variable(series.names, "q2")
        assert series.coefficient(1) == q1 + q2

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
            series = build_ak_series(k, part, TrackingSpec.nothing(2), 6)
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
        assert series.coefficient(1) == Polynomial.variable(series.names, "q1")

    def test_part_count_marker_weight_four(self):
        # compositions of 4 with parts <= 2: 22, 112, 121, 211, 1111
        part = BlockPartition.threshold(2, 1)
        series = build_bk_series(2, part, TrackingSpec.nothing(2), 4)
        q = Polynomial.variable(series.names, "q")
        assert series.coefficient(4) == q * q + 3 * q * q * q + q * q * q * q

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
            assert series.coefficient(weight).terms == expected


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
        one = Polynomial.constant(names, 1)
        running = PowerSeries.lift("q", names, [], order)
        for letter in range(1, k + 1):
            m = part.block_of(letter)
            xs = Polynomial.variable(names, f"x{m}")
            ys = Polynomial.variable(names, f"y{m}")
            zs = Polynomial.variable(names, f"z{m}")
            qs = Polynomial.variable(names, f"q{m}")
            denom = PowerSeries.lift("q", names, [1, -(qs * (zs - ys))], order)
            lam = PowerSeries.lift("q", names, [0, qs * (one - ys)], order).divide(denom)
            nu = PowerSeries.lift("q", names, [0, qs * ys], order).divide(denom)
            alpha = PowerSeries.lift("q", names, [0, qs * (ys - xs)], order).divide(denom)
            gamma = nu * full + lam
            residual = refined[letter - 1] - (gamma - alpha * running)
            assert all(c.is_zero() for c in residual.coeffs)
            running = running + refined[letter - 1]

    def test_letter_count_specialization(self):
        for k in (1, 2, 3, 4):
            part = BlockPartition.threshold(k, 1)
            refined = solve_block_system(k, part, TrackingSpec.nothing(2), 5)
            assert len(refined) == k
            for n in range(6):
                total = sum(p.coefficient(n).constant_term() for p in refined)
                assert total == k**n - (1 if n == 0 else 0)


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

    def test_distribution_extraction_needs_full_tracking(self):
        part = BlockPartition.threshold(2, 1)
        spec = TrackingSpec.only(2, {"x2"})
        series = build_ak_series(2, part, spec, 2)
        with pytest.raises(InputError):
            coefficient_distribution(series, spec, part, 2)
