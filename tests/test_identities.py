import pytest

from wordstats import (
    InputError,
    count_des_gt,
    count_des_le,
    direct_count_top_letter,
    direct_count_two_bottom,
)
from wordstats import identities
from wordstats.combinat import binom, sign
from wordstats.identities import check_top_letter_identity, check_two_bottom_identity


class TestDirectCountTopLetter:
    def test_single_descent(self):
        assert direct_count_top_letter(2, 2, 1) == 1  # word 21

    def test_no_pairs(self):
        for k in (1, 2, 5):
            assert direct_count_top_letter(k, 1, 0) == k

    def test_matches_general_formula(self):
        for k in range(1, 6):
            for n in range(7):
                for s in range(n + 1):
                    assert direct_count_top_letter(k, n, s) == count_des_gt(
                        k, k - 1, n, s
                    )

    def test_validation(self):
        with pytest.raises(InputError):
            direct_count_top_letter(0, 2, 0)
        with pytest.raises(InputError):
            direct_count_top_letter(2, -1, 0)


class TestDirectCountTwoBottom:
    def test_single_descent(self):
        assert direct_count_two_bottom(2, 2, 1) == 1  # word 21

    def test_third_letter_does_not_start_descents_here(self):
        assert direct_count_two_bottom(3, 2, 1) == 1  # 32 starts above 2

    def test_empty_word(self):
        assert direct_count_two_bottom(4, 0, 0) == 1

    def test_needs_two_letters(self):
        with pytest.raises(InputError):
            direct_count_two_bottom(1, 2, 0)

    def test_matches_general_formula(self):
        for k in range(2, 6):
            for n in range(7):
                for s in range(n + 1):
                    assert direct_count_two_bottom(k, n, s) == count_des_le(k, 2, n, s)


class TestTopLetterIdentity:
    def test_small_example(self):
        report = check_top_letter_identity(2, 1, 1)
        assert report.lhs == 1 and report.rhs == 1
        assert report.ok
        assert report.alt_rhs is None

    def test_vanishing_when_statistic_too_large(self):
        for n, r, s in [(4, 1, 2), (5, 4, 3), (3, 0, 1)]:
            report = check_top_letter_identity(n, r, s)
            assert report.lhs == 0
            assert report.ok

    def test_frozen_value(self):
        report = check_top_letter_identity(6, 3, 2)
        assert report.lhs == 9
        assert report.rhs == 9

    def test_parameters_recorded(self):
        report = check_top_letter_identity(5, 2, 1)
        assert report.identity == "top-letter-binomial"
        assert report.params == (5, 2, 1)

    def test_negative_parameters_rejected(self):
        with pytest.raises(InputError):
            check_top_letter_identity(-1, 0, 0)

    def test_full_small_grid(self):
        for n in range(8):
            for r in range(n + 1):
                for s in range(n + 1):
                    assert check_top_letter_identity(n, r, s).ok


class TestTwoBottomIdentity:
    def test_empty_case(self):
        report = check_two_bottom_identity(0, 0, 0)
        assert report.lhs == 1 and report.rhs == 1

    def test_full_column(self):
        # s = 0, r = n: both sides evaluate and agree
        for n in range(7):
            report = check_two_bottom_identity(n, n, 0)
            assert report.ok

    def test_middle_example(self):
        assert check_two_bottom_identity(4, 1, 1).ok

    def test_full_small_grid(self):
        for n in range(8):
            for r in range(n + 1):
                for s in range(n + 1):
                    report = check_two_bottom_identity(n, r, s)
                    assert report.ok, (n, r, s, report.lhs, report.rhs)


class TestIdentityReport:
    def test_unequal_verdict(self):
        from wordstats import IdentityReport

        report = IdentityReport("demo", (1,), 2, 3)
        assert not report.ok


class TestIdentityRows:
    """Every s of a row against the per-cell sums the checks evaluated before rows."""

    @staticmethod
    def top_letter(n, r, s):
        return sum(
            sign(n - a - s) * binom(m, a) * binom(a, r) * binom(a, n - r) * binom(n - m, s)
            for m in range(r, n - s + 1)
            for a in range(r, m + 1)
        )

    @staticmethod
    def two_bottom(n, r, s):
        return sum(
            sign(n - a - r - s) * binom(m, a) * binom(m - a, r) * binom(2 * a, n - r)
            * binom(n - m, s)
            for m in range(0, n + 1)
            for a in range(0, m - r + 1)
        )

    @staticmethod
    def two_bottom_lhs(n, r, s):
        return sum(
            binom(r + s, s) * binom(a + r, a - s) * binom(n - a, n - a - r - s)
            for a in range(s, n - s + 1)
        )

    def test_rows_equal_per_cell_sums(self):
        for n in range(17):
            for r in range(n + 1):
                for s in range(n + 1):
                    top = check_top_letter_identity(n, r, s)
                    bottom = check_two_bottom_identity(n, r, s)
                    assert (top.params, bottom.params) == ((n, r, s), (n, r, s))
                    assert (top.lhs, top.rhs) == (
                        binom(r, s) * binom(n - r, s), self.top_letter(n, r, s)
                    ), (n, r, s)
                    assert (bottom.lhs, bottom.rhs) == (
                        self.two_bottom_lhs(n, r, s), self.two_bottom(n, r, s)
                    ), (n, r, s)

    def test_alternate_readings_equal_the_rhs(self):
        # Each widened range adds only terms with a vanishing binomial.
        for n in range(9):
            for r in range(n + 1):
                for s in range(n + 2):
                    assert identities.top_letter_alternate(n, r, s) == self.top_letter(n, r, s), (n, r, s)
                    assert identities.two_bottom_alternate(n, r, s) == self.two_bottom(n, r, s), (n, r, s)

    def test_cells_beyond_the_row(self):
        # s above n, which a row of s = 0..n does not reach
        for n in range(7):
            for r in range(n + 1):
                for s in range(n + 3):
                    top = check_top_letter_identity(n, r, s)
                    assert (top.lhs, top.rhs) == (binom(r, s) * binom(n - r, s), self.top_letter(n, r, s))
                    bottom = check_two_bottom_identity(n, r, s)
                    assert (bottom.lhs, bottom.rhs) == (self.two_bottom_lhs(n, r, s), self.two_bottom(n, r, s))

    def test_r_above_n_refused(self):
        # at r > n the top-letter lhs C(r, s) C(n-r, s) is 1 at s = 0 and its rhs 0
        for check in (check_top_letter_identity, check_two_bottom_identity):
            with pytest.raises(InputError, match="r must be at most n, got r=5 > n=3"):
                check(3, 5, 0)
            for n in range(4):
                with pytest.raises(InputError):
                    check(n, n + 1, 0)

    def test_forced_mismatch_fills_alt_rhs(self, monkeypatch):
        differences = identities.differences
        monkeypatch.setattr(identities, "differences", lambda row: [c + 1 for c in differences(row)])
        top = check_top_letter_identity(6, 3, 2)
        assert (top.lhs, top.rhs, top.alt_rhs) == (9, 10, 9)
        assert check_top_letter_identity(6, 3, 7).alt_rhs is None
        bottom = check_two_bottom_identity(4, 1, 1)
        widened = sum(
            sign(4 - a - 1 - 1) * binom(m, a) * binom(m - a, 1) * binom(2 * a, 3) * binom(4 - m, 1)
            for m in range(5)
            for a in range(m + 1)
        )
        assert (bottom.rhs, bottom.alt_rhs) == (bottom.lhs + 1, widened)
        assert not bottom.ok
