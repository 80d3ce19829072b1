import itertools

import pytest

from wordstats import (
    CLOSED_FORMS,
    BlockPartition,
    InputError,
    count_des_gt,
    count_des_le,
    count_des_mod,
    count_des_mod_uncorrected,
    count_levels_blocks,
    count_levels_threshold,
    distribution,
    evaluate,
    hall_remmel_count,
    rearrangement_distribution,
    statistic_distribution,
)
from wordstats.combinat import binom, compositions, multinomial, sign
from wordstats.formulas import _levels_blocks


class TestEvaluate:
    def test_named_dispatch(self):
        assert evaluate("des-mod", (2, 4, 1, 2, 1)) == 2

    def test_unknown_formula(self):
        with pytest.raises(InputError):
            evaluate("des-diagonal", (1, 2))

    def test_every_registered_formula_is_nonnegative(self):
        queries = {
            "levels-threshold": (3, 2, 4, 1),
            "levels-blocks": ((2, 1), 3, (1, 0)),
            "des-le": (3, 2, 4, 1),
            "des-gt": (3, 1, 4, 1),
            "des-mod": (2, 3, 2, 4, 1),
            "hall-remmel": ((2, 1), {2}, {1, 2}, 1),
        }
        assert set(queries) == set(CLOSED_FORMS)
        for name, params in queries.items():
            assert evaluate(name, params) >= 0


class TestDistribution:
    COUNTS = {
        "levels-threshold": count_levels_threshold,
        "des-le": count_des_le,
        "des-gt": count_des_gt,
    }

    def test_threshold_tables_equal_counts(self):
        for family, count in self.COUNTS.items():
            for k in range(1, 5):
                for t in range(0, k + 1):
                    if family != "des-gt" and t == 0:
                        continue
                    for n in range(7):
                        table = distribution(family, (k, t, n))
                        assert sum(table.values()) == k**n
                        for s in range(n + 2):
                            assert table.get(s, 0) == count(k, t, n, s), (family, k, t, n, s)

    def test_des_mod_table_equals_counts(self):
        for s in (2, 3, 4):
            for alphabet in range(1, 8):
                for r in range(1, s + 1):
                    for n in range(6):
                        table = distribution("des-mod", (s, alphabet, r, n))
                        for p in range(n + 2):
                            assert table.get(p, 0) == count_des_mod(s, alphabet, r, n, p)

    def test_levels_blocks_table_equals_counts(self):
        for sizes in [(1,), (3,), (2, 1), (1, 0, 2), (2, 1, 1)]:
            for n in range(6):
                table = distribution("levels-blocks", (sizes, n))
                assert sum(table.values()) == sum(sizes) ** n
                assert all(table.values())
                for targets in itertools.product(range(n + 1), repeat=len(sizes)):
                    assert table.get(targets, 0) == count_levels_blocks(sizes, n, targets)

    def test_hall_remmel_table_equals_counts(self):
        table = distribution("hall-remmel", ((2, 1, 2), {2, 3}, {1, 2, 3}))
        assert table == {s: hall_remmel_count((2, 1, 2), {2, 3}, {1, 2, 3}, s) for s in range(6)}
        subsets = [set(c) for size in range(4) for c in itertools.combinations((1, 2, 3), size)]
        for rho in [(0, 0, 0), (1, 0, 2), (3, 1, 1), (2, 2, 2)]:
            for tops in subsets:
                for bottoms in subsets:
                    table = distribution("hall-remmel", (rho, tops, bottoms))
                    n = sum(rho)
                    assert list(table) == list(range(n + 1))
                    for s in range(n + 3):
                        assert table.get(s, 0) == hall_remmel_count(rho, tops, bottoms, s)

    def test_validation_matches_counts(self):
        for family, params in [
            ("levels-threshold", (3, 0, 4)),
            ("des-le", (3, 4, 4)),
            ("des-gt", (3, 1, -1)),
            ("des-mod", (1, 3, 1, 4)),
            ("des-mod", (2, 3, 3, 4)),
            ("levels-blocks", ((1, -1), 3)),
            ("levels-blocks", ((1, 1), -1)),
            ("hall-remmel", ((1, -3), {1}, {1})),
        ]:
            with pytest.raises(InputError):
                distribution(family, params)

    def test_unknown_formula(self):
        with pytest.raises(InputError):
            distribution("des-diagonal", (1, 2, 3))


class TestCountLevelsThreshold:
    def test_constant_word(self):
        assert count_levels_threshold(1, 1, 3, 2) == 1

    def test_single_level_word(self):
        assert count_levels_threshold(2, 1, 2, 1) == 1  # word 11

    def test_empty_word(self):
        for k, t in [(1, 1), (4, 2), (6, 6)]:
            assert count_levels_threshold(k, t, 0, 0) == 1
            assert count_levels_threshold(k, t, 0, 1) == 0
            assert count_levels_threshold(k, t, 0, 5) == 0

    def test_threshold_out_of_range(self):
        with pytest.raises(InputError):
            count_levels_threshold(2, 3, 1, 0)
        with pytest.raises(InputError):
            count_levels_threshold(2, 0, 1, 0)

    def test_against_oracle(self):
        for k in range(1, 5):
            for t in range(1, k + 1):
                part = BlockPartition.threshold(k, t)
                for n in range(6):
                    marginal = statistic_distribution(k, n, part, [(1, "lev")])
                    for s in range(n + 2):
                        assert count_levels_threshold(k, t, n, s) == marginal.get(
                            (s,), 0
                        )


class TestCountLevelsBlocks:
    def test_single_block_agrees_with_threshold(self):
        for k in (1, 2, 3):
            for n in range(5):
                for target in range(n + 1):
                    assert count_levels_blocks((k,), n, (target,)) == (
                        count_levels_threshold(k, k, n, target)
                    )

    def test_length_one_words(self):
        for sizes in [(1, 1), (2, 1), (3, 2, 1)]:
            assert count_levels_blocks(sizes, 1, (0,) * len(sizes)) == sum(sizes)

    def test_two_singleton_blocks(self):
        assert count_levels_blocks((1, 1), 2, (1, 0)) == 1  # only 11

    def test_shape_validation(self):
        with pytest.raises(InputError):
            count_levels_blocks((1, 2), 3, (0,))
        with pytest.raises(InputError):
            count_levels_blocks((1, -1), 3, (0, 0))

    def test_against_oracle_joint(self):
        for k in range(1, 5):
            for part in [BlockPartition.threshold(k, 1), BlockPartition.mod_residue(k, 2)]:
                sizes = part.block_sizes()
                coords = [(i, "lev") for i in range(1, part.t + 1)]
                for n in range(5):
                    joint = statistic_distribution(k, n, part, coords)
                    for targets in itertools.product(range(n + 1), repeat=part.t):
                        assert count_levels_blocks(sizes, n, targets) == joint.get(
                            targets, 0
                        )

    def test_block_program_equals_composition_sum(self):
        # the paper's sum over pairs of compositions, kept here as the reference
        def literal(sizes, n, targets):
            total = 0
            for m in range(n + 1):
                for avec in compositions(m, len(sizes)):
                    for bvec in compositions(n - m, len(sizes)):
                        term = sign(n - m - sum(targets)) * multinomial(m, avec)
                        for size, a, b, tt in zip(sizes, avec, bvec, targets):
                            term *= size**a * binom(a + b - 1, b) * binom(b, tt)
                        total += term
            return total

        for sizes, n_max in [((2,), 6), ((0, 2), 6), ((2, 3, 1), 4), ((1, 1, 1, 1), 3)]:
            for n in range(n_max + 1):
                for targets in itertools.product(range(n + 1), repeat=len(sizes)):
                    assert count_levels_blocks(sizes, n, targets) == literal(sizes, n, targets)

    def test_unsigned_variant_is_wrong(self):
        # dropping the sign factor breaks already at two letters
        assert _levels_blocks((1, 0), 2, (0, 0), signed=False) == 2
        assert count_levels_blocks((1, 0), 2, (0, 0)) == 0


class TestCountDesLe:
    def test_examples(self):
        assert count_des_le(2, 2, 2, 1) == 1  # 21
        assert count_des_le(3, 2, 2, 1) == 1  # only 21 starts <= 2
        assert count_des_le(4, 1, 1, 0) == 4

    def test_threshold_range(self):
        with pytest.raises(InputError):
            count_des_le(2, 0, 2, 0)
        with pytest.raises(InputError):
            count_des_le(2, 3, 2, 0)

    def test_against_oracle(self):
        for k in range(1, 5):
            for t in range(1, k + 1):
                part = BlockPartition.threshold(k, t)
                for n in range(6):
                    marginal = statistic_distribution(k, n, part, [(1, "des")])
                    for s in range(n + 2):
                        assert count_des_le(k, t, n, s) == marginal.get((s,), 0)


class TestCountDesGt:
    def test_examples(self):
        assert count_des_gt(2, 1, 2, 1) == 1  # 21
        assert count_des_gt(3, 1, 2, 1) == 3  # 21, 31, 32

    def test_full_threshold_empties_statistic(self):
        for k in (1, 2, 3):
            for n in range(5):
                assert count_des_gt(k, k, n, 0) == k**n
                for s in range(1, n + 2):
                    assert count_des_gt(k, k, n, s) == 0

    def test_zero_threshold_counts_plain_descents(self):
        part = BlockPartition.threshold(3, 0)
        for n in range(5):
            marginal = statistic_distribution(3, n, part, [(2, "des")])
            for s in range(n + 1):
                assert count_des_gt(3, 0, n, s) == marginal.get((s,), 0)

    def test_against_oracle(self):
        for k in range(1, 5):
            for t in range(k + 1):
                part = BlockPartition.threshold(k, t)
                for n in range(6):
                    marginal = statistic_distribution(k, n, part, [(2, "des")])
                    for s in range(n + 2):
                        assert count_des_gt(k, t, n, s) == marginal.get((s,), 0)


class TestCountDesMod:
    def test_examples(self):
        assert count_des_mod(2, 2, 2, 2, 1) == 1  # word 21, top letter even
        assert count_des_mod(2, 4, 1, 2, 1) == 2  # words 31, 32
        assert count_des_mod(2, 3, 2, 2, 1) == 1  # offset alphabet branch

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            count_des_mod(1, 2, 1, 2, 0)
        with pytest.raises(InputError):
            count_des_mod(2, 2, 3, 2, 0)
        with pytest.raises(InputError):
            count_des_mod(2, 0, 1, 2, 0)

    def test_against_oracle_all_branches(self):
        for alphabet in range(1, 6):
            for s in (2, 3, 4):
                part = BlockPartition.mod_residue(alphabet, s)
                for n in range(5):
                    for r in range(1, s + 1):
                        marginal = statistic_distribution(alphabet, n, part, [(r, "des")])
                        for p in range(n + 1):
                            assert count_des_mod(s, alphabet, r, n, p) == marginal.get(
                                (p,), 0
                            )

    def test_uncorrected_variants_disagree_with_oracle(self):
        # one frozen counterexample per formula regime
        cases = [
            (2, 2, 1, 2, 0, 3, 4),  # aligned alphabet, wrong power base
            (3, 1, 3, 1, 0, 2, 1),  # offset alphabet, r above the offset
            (2, 1, 1, 1, 0, 2, 1),  # offset alphabet, r within the offset
        ]
        for s, alphabet, r, n, p, rejected, oracle in cases:
            assert count_des_mod_uncorrected(s, alphabet, r, n, p) == rejected
            assert count_des_mod(s, alphabet, r, n, p) == oracle
            part = BlockPartition.mod_residue(alphabet, s)
            marginal = statistic_distribution(alphabet, n, part, [(r, "des")])
            assert marginal.get((p,), 0) == oracle

    def test_uncorrected_matches_where_unambiguous(self):
        # at r = s the two power bases coincide, so both variants agree
        for alphabet in (2, 4):
            for n in range(4):
                for p in range(n + 1):
                    assert count_des_mod(2, alphabet, 2, n, p) == (
                        count_des_mod_uncorrected(2, alphabet, 2, n, p)
                    )


class TestModTwoSpecializations:
    """The four printed mod-2 shortcuts, kept as test-only expressions."""

    def test_even_alphabet_even_start(self):
        for k in (1, 2, 3):
            for n in range(5):
                for p in range(n + 1):
                    value = sum(
                        sign(n + p + i2)
                        * 2 ** (j - i1)
                        * binom(j, i1)
                        * binom(j, i2)
                        * binom(k * i2, n - i1)
                        * binom(n - j, p)
                        for j in range(n + 1)
                        for i1 in range(j + 1)
                        for i2 in range(j + 1)
                    )
                    assert value == count_des_mod(2, 2 * k, 2, n, p)

    def test_even_alphabet_odd_start(self):
        # the shortcut needs k inside the big binomial; without it the
        # expression breaks as soon as k = 2 (frozen counterexample below)
        for k in (1, 2, 3):
            for n in range(5):
                for p in range(n + 1):
                    value = sum(
                        sign(n + p + i)
                        * 2**j
                        * binom(j, i)
                        * binom(k * i, n)
                        * binom(n - j, p)
                        for j in range(n + 1)
                        for i in range(j + 1)
                    )
                    assert value == count_des_mod(2, 2 * k, 1, n, p)

        literal = sum(
            sign(1 + 0 + i) * 2**j * binom(j, i) * binom(i, 1) * binom(1 - j, 0)
            for j in range(2)
            for i in range(j + 1)
        )
        assert literal == 2
        assert count_des_mod(2, 4, 1, 1, 0) == 4

    def test_odd_alphabet_even_start(self):
        for k in (1, 2):
            for n in range(5):
                for p in range(n + 1):
                    value = sum(
                        sign(n + p + j)
                        * 2 ** (m - i)
                        * binom(m, j)
                        * binom(j, i)
                        * binom(k * j, n - i)
                        * binom(n - m, p)
                        for m in range(n + 1)
                        for j in range(m + 1)
                        for i in range(j + 1)
                    )
                    assert value == count_des_mod(2, 2 * k + 1, 2, n, p)

    def test_odd_alphabet_odd_start(self):
        for k in (1, 2):
            for n in range(5):
                for p in range(n + 1):
                    value = sum(
                        sign(n + p + j)
                        * 2 ** (m - n + i)
                        * binom(m, j)
                        * binom(m - j, n - i)
                        * binom(k * j + j, i)
                        * binom(n - m, p)
                        for m in range(n + 1)
                        for j in range(m + 1)
                        for i in range(k * j + j + 1)
                    )
                    assert value == count_des_mod(2, 2 * k + 1, 1, n, p)


class TestHallRemmelCount:
    def test_examples(self):
        assert hall_remmel_count((1, 1), {2}, {1, 2}, 1) == 1
        assert hall_remmel_count((1, 1, 1), {2}, {1, 2, 3}, 0) == 4

    def test_statistic_above_weight_vanishes(self):
        assert hall_remmel_count((2, 1), {1, 2}, {1, 2}, 4) == 0
        assert hall_remmel_count((1, 1), {2}, {1}, 3) == 0

    def test_empty_class(self):
        assert hall_remmel_count((0, 0), {1, 2}, {1, 2}, 0) == 1
        assert hall_remmel_count((0, 0), {1, 2}, {1, 2}, 1) == 0

    def test_negative_multiplicity(self):
        with pytest.raises(InputError):
            hall_remmel_count((1, -1), {1}, {1}, 0)

    def test_against_rearrangement_oracle(self):
        letters = (1, 2, 3)
        subsets = [
            frozenset(c)
            for size in range(4)
            for c in itertools.combinations(letters, size)
        ]
        for rho in [(1, 1, 1), (2, 1, 0), (0, 2, 2), (3, 1, 1)]:
            for tops in subsets:
                for bottoms in subsets:
                    dist = rearrangement_distribution(rho, tops, bottoms)
                    for s in range(sum(rho) + 1):
                        assert hall_remmel_count(rho, tops, bottoms, s) == dist.get(
                            s, 0
                        )

    def test_top_letters_outside_class_are_inert(self):
        # letters beyond the multiplicity vector never occur in a word
        assert hall_remmel_count((1, 1), {2, 7}, {1, 2, 9}, 1) == (
            hall_remmel_count((1, 1), {2}, {1, 2}, 1)
        )


class TestHallRemmelEvenWords:
    # Even letters on top and every letter at the bottom: descents starting
    # at an even letter, so summing over every class of weight n gives the
    # residue-class count with modulus 2.

    def test_examples(self):
        assert hall_remmel_count((1, 1), {2}, {1, 2}, 1) == 1
        assert hall_remmel_count((2, 0), {2}, {1, 2}, 0) == 1

    def test_matches_general_formula(self):
        # the even-alphabet specialization, kept here as the reference: the
        # odd letters are arranged freely and each even letter x contributes
        # a binomial whose slack counts the odd letters above x
        def even_words(rho, n, p):
            odd = range(1, len(rho) + 1, 2)
            a = sum(rho[v - 1] for v in odd)
            total = 0
            for r in range(p + 1):
                term = sign(p - r) * binom(a + r, r) * binom(n + 1, p - r)
                for x in range(2, len(rho) + 1, 2):
                    higher_odds = sum(rho[z - 1] for z in odd if z > x)
                    term *= binom(rho[x - 1] + r + higher_odds, rho[x - 1])
                total += term
            return multinomial(a, [rho[v - 1] for v in odd]) * total

        for alphabet in (2, 4):
            evens = set(range(2, alphabet + 1, 2))
            everything = set(range(1, alphabet + 1))
            for n in range(5):
                for rho in compositions(n, alphabet):
                    for p in range(n + 1):
                        assert even_words(rho, n, p) == hall_remmel_count(
                            rho, evens, everything, p
                        )

    def test_sum_over_classes_matches_mod_count(self):
        for alphabet in (2, 3, 4):
            evens = set(range(2, alphabet + 1, 2))
            everything = set(range(1, alphabet + 1))
            for n in range(5):
                summed = [0] * (n + 1)
                for rho in compositions(n, alphabet):
                    table = distribution("hall-remmel", (rho, evens, everything))
                    for p in range(n + 1):
                        summed[p] += table[p]
                residue = distribution("des-mod", (2, alphabet, 2, n))
                assert summed == [residue.get(p, 0) for p in range(n + 1)]
                assert summed == [count_des_mod(2, alphabet, 2, n, p) for p in range(n + 1)]
