import itertools
import random
import time
from math import factorial

import pytest

from wordstats import (
    BlockPartition,
    BudgetExceededError,
    InputError,
    brute_distribution,
    rearrangement_distribution,
    stat_key,
    statistic_distribution,
    transfer_distribution,
)
from wordstats import cli, formulas, oracle, words
from wordstats.combinat import compositions, field_bytes, tally_units, unpack
from wordstats.oracle import (
    BUDGET_ENV_VAR,
    DEFAULT_ENUMERATION_BUDGET,
    count_matching,
    counted_pairs,
    pair_distribution,
    resolve_budget,
)
from wordstats.verify import _grid_partitions
from wordstats.words import _STAT_INDEX


def _charges(k, n, partition, coords, dense):
    """``oracle._letter_keys`` with coordinate i as digit i in radix n + 1, the first ``dense`` digits in fields.

    Fields are of ``field_bytes(k**n)`` bytes; a digit past them steps the
    key by a power of n + 1.  ``dense`` 2 is the tally's layout
    (``combinat.tally_units``) from two coordinates on, and ``dense`` 0 a
    plain key in radix n + 1.
    """
    width, radix = 8 * field_bytes(k**n), n + 1
    units = [(0, width * radix**i) for i in range(dense)] + [(radix**i, 0) for i in range(len(coords) - dense)]
    return oracle._letter_keys(partition, coords, units)


def _transfer_kernel(k, n, partition, coords):
    """The reference for ``oracle._kernel``: one dict of packed keys per last letter.

    ``delta[a][b]`` is the key increment of appending letter b after letter
    a: the pair (a, b) charged to the block of a, plus one letter counted in
    the block of b.  A transition is then a single integer add.  Returns
    packed key, coordinate i as digit i in radix n + 1, -> number of words
    of length n.
    """
    if n == 0:
        return {0: 1}
    rows = _charges(k, n, partition, coords, 0)
    keys = [[step for step, _ in rows[block - 1]] for block in partition.blocks]
    letters = range(1, k + 1)
    start = [charge[_STAT_INDEX["cnt"]] for charge in keys]
    delta = [
        [keys[a - 1][oracle._pair_index(a, b)] + start[b - 1] for b in letters]
        for a in letters
    ]

    states = [{key: 1} for key in start]
    for _ in range(n - 1):
        new_states = []
        for b in range(k):
            merged = {}
            get = merged.get
            for a in range(k):
                shift = delta[a][b]
                for key, count in states[a].items():
                    key += shift
                    merged[key] = get(key, 0) + count
            new_states.append(merged)
        states = new_states

    out = {}
    for table in states:
        for key, count in table.items():
            out[key] = out.get(key, 0) + count
    return out


def _tally_keys(tally, k, n, dense):
    """A kernel tally as packed key -> number of words.

    With ``dense`` 0 it is that already; otherwise it maps sparse part ->
    packed fields of ``field_bytes(k**n)`` bytes, and field f of sparse
    part p counts key p (n + 1)**dense + f.
    """
    if not dense:
        return tally
    size, radix = field_bytes(k**n), (n + 1) ** dense
    return {sparse * radix + field: count for sparse, packed in tally.items()
            for field, count in enumerate(unpack(packed, size)) if count}


def _partitions(k):
    parts = [BlockPartition.threshold(k, t) for t in range(k + 1)]
    parts.append(BlockPartition.mod_residue(k, 2))
    parts.append(BlockPartition.mod_residue(k, 3))
    return parts


class TestBruteDistribution:
    def test_single_letter_alphabet(self):
        part = BlockPartition.threshold(1, 1)
        dist = brute_distribution(1, 3, part)
        assert dist.entries == {((0, 0, 2, 3), (0, 0, 0, 0)): 1}
        # one word, walked as deep as it is long
        assert brute_distribution(1, 5000, part).entries == {((0, 0, 4999, 5000), (0, 0, 0, 0)): 1}

    def test_four_words_all_distinct(self):
        part = BlockPartition.threshold(2, 1)
        dist = brute_distribution(2, 2, part)
        expected = {
            ((0, 0, 1, 2), (0, 0, 0, 0)): 1,  # 11
            ((0, 1, 0, 1), (0, 0, 0, 1)): 1,  # 12
            ((0, 0, 0, 1), (1, 0, 0, 1)): 1,  # 21
            ((0, 0, 0, 0), (0, 0, 1, 2)): 1,  # 22
        }
        assert dist.entries == expected

    def test_length_zero(self):
        part = BlockPartition.threshold(2, 1)
        dist = brute_distribution(2, 0, part)
        assert dist.entries == {((0, 0, 0, 0), (0, 0, 0, 0)): 1}

    def test_total_mass(self):
        for k in (1, 2, 3):
            for n in range(5):
                for part in _partitions(k):
                    assert brute_distribution(k, n, part).total() == k**n

    def test_budget_error_is_one_class(self):
        """The budget refusal is defined in ``words``; the package and ``oracle`` export it."""
        assert BudgetExceededError is oracle.BudgetExceededError is words.BudgetExceededError
        assert oracle.BUDGET_ENV_VAR is words.BUDGET_ENV_VAR and oracle._amount is words._amount

    def test_budget_error_names_limit(self):
        part = BlockPartition.threshold(2, 1)
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(2, 5, part, budget=16)
        assert "16" in str(exc.value)
        assert exc.value.limit == 16
        assert exc.value.required == 32
        # one letter: the one word is charged its n steps
        one = BlockPartition.threshold(1, 1)
        assert brute_distribution(1, 16, one, budget=16).total() == 1
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(1, 17, one, budget=16)
        assert exc.value.required == 17

    def test_power_far_over_budget_is_not_computed(self):
        part = BlockPartition.threshold(4, 2)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(4, 9_999_999_999, part)
        assert time.perf_counter() - start < 0.1
        assert exc.value.required == "4**9999999999"
        # a power within reach of the limit is still charged in full
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(4, 13, part)
        assert exc.value.required == 4**13

    def test_step_table_is_charged_before_it_is_built(self):
        # The walk first builds a k x k table of steps; at n <= 1 that is the larger charge.
        part = BlockPartition.threshold(5, 2)
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(5, 1, part, budget=24)
        assert exc.value.required == 25
        assert brute_distribution(5, 1, part, budget=25).total() == 5
        assert brute_distribution(5, 0, part, budget=25).total() == 1
        # from n = 2 on the words are the charge, as before
        with pytest.raises(BudgetExceededError) as exc:
            brute_distribution(5, 2, part, budget=24)
        assert exc.value.required == 25
        # from the alphabet size and length alone, before any partition or table
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            oracle.charge_walk(10_000_000, 0)
        assert time.perf_counter() - start < 0.1
        assert exc.value.required == 10**14

    def test_budget_env_override(self, monkeypatch):
        part = BlockPartition.threshold(2, 1)
        monkeypatch.setenv(BUDGET_ENV_VAR, "8")
        with pytest.raises(BudgetExceededError):
            brute_distribution(2, 4, part)
        monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
        with pytest.raises(InputError):
            brute_distribution(2, 4, part)

    @pytest.mark.parametrize("raw", ["-1", "-16", "not-a-number", "1.5", ""])
    def test_budget_env_must_be_a_nonnegative_integer(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(BUDGET_ENV_VAR, raw)
        with pytest.raises(InputError, match="nonnegative integer"):
            resolve_budget()
        code = cli.main(["count", "des-le", "--k", "2", "--t", "1", "--n", "3", "--s", "1",
                         "--engine", "oracle"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == f"error: {BUDGET_ENV_VAR} must be a nonnegative integer, got {raw!r}\n"
        monkeypatch.setenv(BUDGET_ENV_VAR, "0")
        assert resolve_budget() == 0

    def test_resolve_budget_default(self):
        assert resolve_budget() == DEFAULT_ENUMERATION_BUDGET
        assert resolve_budget(100) == 100

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            brute_distribution(3, 2, BlockPartition.threshold(2, 1))


class TestTransferDistribution:
    def test_forced_single_word(self):
        part = BlockPartition.threshold(1, 1)
        dist = transfer_distribution(1, 5, part)
        assert dist.entries == {((0, 0, 4, 5), (0, 0, 0, 0)): 1}

    def test_mass_at_larger_length(self):
        part = BlockPartition.threshold(2, 1)
        assert transfer_distribution(2, 7, part).total() == 128

    def test_matches_brute_small(self):
        for part in _partitions(3):
            assert transfer_distribution(3, 2, part) == brute_distribution(3, 2, part)

    def test_matches_brute_where_a_block_row_passes_ten_thousand(self):
        # (n + 1)**4 = 14,641: a key's block rows are digits past 10**4
        part = BlockPartition.mod_residue(2, 2)
        assert transfer_distribution(2, 10, part) == brute_distribution(2, 10, part)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_exhaustive(self, k):
        for n in range(6):
            for part in _partitions(k):
                assert transfer_distribution(k, n, part) == brute_distribution(
                    k, n, part
                )


class TestStatisticDistribution:
    def test_reduced_matches_full_marginal(self):
        part = BlockPartition.mod_residue(4, 2)
        full = transfer_distribution(4, 4, part)
        for block in (1, 2):
            for stat in ("des", "ris", "lev", "cnt"):
                reduced = statistic_distribution(4, 4, part, [(block, stat)])
                assert {v[0]: c for v, c in reduced.items()} == full.marginal(
                    block, stat
                )

    def test_joint_coordinates(self):
        part = BlockPartition.threshold(2, 1)
        joint = statistic_distribution(2, 2, part, [(1, "lev"), (2, "lev")])
        assert joint == {(1, 0): 1, (0, 1): 1, (0, 0): 2}

    def test_bad_block(self):
        part = BlockPartition.threshold(2, 1)
        with pytest.raises(InputError):
            statistic_distribution(2, 2, part, [(3, "des")])


class TestTransferKernel:
    """Edges of the packed-key kernel behind both transfer entry points."""

    def test_duplicate_coordinates(self):
        part = BlockPartition.mod_residue(3, 2)
        for n in range(5):
            single = statistic_distribution(3, n, part, [(1, "des")])
            doubled = statistic_distribution(3, n, part, [(1, "des"), (1, "des")])
            assert doubled == {(v, v): c for (v,), c in single.items()}

    def test_count_reaching_n_does_not_carry(self):
        # threshold(k, k) leaves block 2 empty: cnt of block 1 is exactly n,
        # the largest digit the radix n + 1 must hold.
        for k in (1, 2, 3):
            part = BlockPartition.threshold(k, k)
            for n in range(1, 6):
                joint = statistic_distribution(k, n, part, [(1, "cnt"), (2, "cnt")])
                assert joint == {(n, 0): k**n}
                full = transfer_distribution(k, n, part)
                assert full.marginal(1, "cnt") == {n: k**n}
                assert full.marginal(2, "cnt") == {0: k**n}

    @pytest.mark.parametrize("k, n", [(3, 5), (2, 8), (3, 10), (2, 16)])
    def test_one_field_holds_every_word(self, k, n):
        # threshold(k, 0) leaves block 1 empty, so every word has 0 of its descents and
        # one field holds k**n: 243 and 59,049 fill 8 and 16 bits, 256 and 65,536 need 9 and 17.
        part = BlockPartition.threshold(k, 0)
        for dense in (0, 1):
            keys = _charges(k, n, part, [(1, _STAT_INDEX["des"])], dense)
            assert next(oracle._kernel(k, n, part, keys)) == {0: k**n}
        assert statistic_distribution(k, n, part, [(1, "des")]) == {(0,): k**n}

    @pytest.mark.parametrize("n", [0, 1])
    def test_shortest_words(self, n):
        for k in (1, 2, 3):
            for part in _partitions(k):
                assert transfer_distribution(k, n, part) == brute_distribution(k, n, part)
                coords = [(1, "des"), (part.t, "cnt"), (1, "lev")]
                assert statistic_distribution(k, n, part, coords) == brute_distribution(
                    k, n, part
                ).joint(coords)

    def test_reduced_matches_full_marginal_k3_n9(self):
        for part in _partitions(3):
            full = transfer_distribution(3, 9, part)
            for block in range(1, part.t + 1):
                for stat in ("des", "ris", "lev", "cnt"):
                    reduced = statistic_distribution(3, 9, part, [(block, stat)])
                    assert {v[0]: c for v, c in reduced.items()} == full.marginal(
                        block, stat
                    )

    def test_kernel_is_the_reference_at_every_dense_count(self):
        rng = random.Random(14)
        for k in range(1, 6):
            # threshold(k, k) and the last partition leave block 2 without a letter
            parts = _partitions(k) + [BlockPartition.from_blocks((1,) * (k - 1) + (3,))]
            for part in parts:
                for n in range(9):
                    # (block, statistic index) pairs; index 3 is cnt
                    coords = [(rng.randint(1, part.t), rng.randrange(4)) for _ in range(rng.randint(1, 4))]
                    # each list also with its first coordinate again, as a duplicate
                    for coords in (coords, coords + coords[:1]):
                        want = _transfer_kernel(k, n, part, coords)
                        for dense in range(len(coords) + 1):
                            tally = next(oracle._kernel(k, n, part, _charges(k, n, part, coords, dense)))
                            assert _tally_keys(tally, k, n, dense) == want, (k, n, part, coords, dense)
                        # the tally codec's units are the layout with min(2, coordinates) dense
                        units = tally_units(len(coords), field_bytes(k**n), n + 1)
                        assert oracle._letter_keys(part, coords, units) == _charges(k, n, part, coords, min(2, len(coords)))

    def test_full_vectors_run_without_dense_fields(self, monkeypatch):
        calls = []

        def recording(k, n, partition, charges, first=None):
            calls.append(charges)
            return kernel(k, n, partition, charges, first)

        kernel = oracle._kernel
        monkeypatch.setattr(oracle, "_kernel", recording)
        part = BlockPartition.mod_residue(4, 3)
        coords = [(1, "lev"), (2, "des"), (3, "cnt")]
        want = brute_distribution(4, 5, part)
        assert transfer_distribution(4, 5, part) == want
        # the full vector in the walk's compact layout, no field shifted; a joint in the tally's
        assert calls == [[[(key, 0) for key in row] for row in oracle.compact_keys(5, part.t)]]
        for joint in (coords[:1], coords, coords[:1] * 3):
            calls.clear()
            assert statistic_distribution(4, 5, part, joint) == want.joint(joint)
            indexed = [(block, _STAT_INDEX[stat]) for block, stat in joint]
            assert calls == [oracle._letter_keys(part, indexed, tally_units(len(joint), field_bytes(4**5), 6))]

    @pytest.mark.parametrize("sizes, n", [((2, 3, 1), 20), ((1, 2, 1), 12), ((1, 1, 2, 2), 16), ((2, 1, 1, 1), 12)])
    def test_three_and_four_block_joints_are_the_closed_form(self, sizes, n):
        want = {key: count for key, count in formulas.distribution("levels-blocks", (sizes, n)).items() if count}
        assert statistic_distribution(*formulas.FAMILIES["levels-blocks"].query(sizes, n)) == want

    def test_brute_force_runs_without_the_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("brute_distribution reached the transfer DP")

        for name in ("_kernel", "_letter_keys", "_pair_index"):
            monkeypatch.setattr(oracle, name, refuse)
        part = BlockPartition.threshold(2, 1)
        assert brute_distribution(2, 3, part).total() == 8

    def test_walk_equals_stat_key_word_by_word(self):
        for k in range(1, 4):
            # block 2 of the last partition holds no letter
            parts = _grid_partitions(k) + [BlockPartition.from_blocks((1,) * (k - 1) + (3,))]
            for part in parts:
                for n in range(7):
                    tally = {}
                    for letters in itertools.product(range(1, k + 1), repeat=n):
                        key = stat_key(letters, part.blocks, part.t)
                        tally[key] = tally.get(key, 0) + 1
                    assert brute_distribution(k, n, part).entries == tally, (k, n, part)


class TestCountMatching:
    def test_single_descent_block_one(self):
        part = BlockPartition.threshold(2, 2)
        assert count_matching(2, 2, part, [(1, "des", 1)]) == 1  # only 21

    def test_empty_constraint_counts_everything(self):
        part = BlockPartition.threshold(3, 1)
        assert count_matching(3, 4, part, []) == 81
        # both engines run and read their one entry
        for k, n, part in [(1, 0, BlockPartition.threshold(1, 1)), (4, 3, BlockPartition.mod_residue(4, 3))]:
            assert statistic_distribution(k, n, part, []) == {(): k**n}
            assert brute_distribution(k, n, part).joint([]) == {(): k**n}

    def test_even_start_descents(self):
        part = BlockPartition.mod_residue(4, 2)
        assert count_matching(4, 2, part, [(2, "des", 1)]) == 4  # 21, 41, 42, 43

    def test_engines_agree(self):
        part = BlockPartition.mod_residue(3, 2)
        coords = [(1, "des"), (2, "cnt")]
        for n in range(5):
            assert brute_distribution(3, n, part).joint(coords) == statistic_distribution(3, n, part, coords)

    def test_engines_agree_on_a_three_coordinate_joint(self):
        # The word answers cli's oracle and transfer engines read, entry by entry.
        part = BlockPartition.mod_residue(4, 3)
        coords = [(3, "des"), (1, "lev"), (2, "cnt")]
        for n in range(5):
            joint = brute_distribution(4, n, part).joint(coords)
            assert joint == statistic_distribution(4, n, part, coords)
            for target, count in joint.items():
                spec = [coord + (value,) for coord, value in zip(coords, target)]
                assert count_matching(4, n, part, spec) == count, (n, target)

    def test_engines_name_the_block(self):
        part = BlockPartition.mod_residue(4, 3)
        with pytest.raises(InputError, match="constraint names block 4, partition has 1..3"):
            brute_distribution(4, 2, part).joint([(4, "des")])
        # the same message from the reduced DP, before the shape is checked
        for n in (2, -1):
            with pytest.raises(InputError, match="constraint names block 4, partition has 1..3"):
                statistic_distribution(4, n, part, [(1, "des"), (4, "lev")])

    @pytest.mark.parametrize(
        "k, n, part, message",
        [
            (2, -1, BlockPartition.threshold(2, 1), "length and statistic value must be nonnegative"),
            (3, 2, BlockPartition.threshold(2, 1), "partition covers [2], queried alphabet is [3]"),
            (0, 2, BlockPartition.threshold(1, 1), "alphabet size must be at least 1, got 0"),
        ],
    )
    def test_engines_refuse_a_bad_shape_alike(self, k, n, part, message):
        # also without coordinates, where both engines still run and read one entry
        for coords in ([], [(1, "des")]):
            for answer in (
                lambda: statistic_distribution(k, n, part, coords),
                lambda: brute_distribution(k, n, part).joint(coords),
            ):
                with pytest.raises(InputError) as caught:
                    answer()
                assert str(caught.value) == message, coords

    def test_unknown_block_rejected(self):
        part = BlockPartition.threshold(2, 1)
        with pytest.raises(InputError):
            count_matching(2, 2, part, [(5, "des", 0)])
        with pytest.raises(InputError):
            count_matching(2, 2, part, [(1, "slope", 0)])
        with pytest.raises(InputError, match="constraint value must be nonnegative, got -1"):
            count_matching(2, 2, part, [(1, "des", -1)])


class TestRearrangementDistribution:
    def test_two_letters(self):
        assert rearrangement_distribution((1, 1), {2}, {1}) == {0: 1, 1: 1}

    def test_constant_class(self):
        assert rearrangement_distribution((2, 0), {1, 2}, {1, 2}) == {0: 1}

    def test_three_distinct_letters_even_tops(self):
        dist = rearrangement_distribution((1, 1, 1), {2}, {1, 2, 3})
        assert dist == {0: 4, 1: 2}

    def test_empty_class(self):
        assert rearrangement_distribution((0, 0), {1}, {1}) == {0: 1}

    def test_negative_multiplicity(self):
        with pytest.raises(InputError):
            rearrangement_distribution((1, -1), {1}, {1})

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as caught:
            rearrangement_distribution((20, 20), {1}, {1}, budget=1000)
        # the charge is n!, the cost of walking every arrangement
        assert (caught.value.required, caught.value.limit) == (factorial(40), 1000)
        # a budget of exactly n! admits the class, one less refuses it
        assert sum(rearrangement_distribution((5, 5), {2}, {1}, budget=factorial(10)).values()) == 252
        with pytest.raises(BudgetExceededError) as caught:
            rearrangement_distribution((5, 5), {2}, {1}, budget=factorial(10) - 1)
        assert caught.value.required == factorial(10)

    def test_over_budget_class_exits_3_on_the_cli(self, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        code = cli.main(["count", "hall-remmel", "--rho", "3,3,3,2", "--x", "all",
                         "--y", "all", "--s", "0", "--engine", "oracle"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BUDGET
        assert captured.out == ""
        assert captured.err == (
            "error: enumeration needs 39916800 words, over the budget of 16777216 "
            f"(override with an explicit budget or {BUDGET_ENV_VAR})\n"
        )

    def test_ten_distinct_letters_without_enumeration(self):
        start = time.perf_counter()
        dist = rearrangement_distribution((1,) * 10, {2, 4, 6, 8, 10}, range(1, 11),
                                          budget=factorial(10))
        elapsed = time.perf_counter() - start
        assert sum(dist.values()) == factorial(10)
        assert elapsed < 1.0, elapsed

    def test_dp_matches_enumeration(self):
        # every class of weight <= 6 over <= 4 letters, every pair of letter sets
        for m in range(1, 5):
            subsets = [
                frozenset(combo)
                for size in range(m + 1)
                for combo in itertools.combinations(range(1, m + 1), size)
            ]
            for weight in range(7):
                for rho in compositions(weight, m):
                    descents = _enumerated_descents(rho)
                    for tops in subsets:
                        for bottoms in subsets:
                            want: dict[int, int] = {}
                            for pairs, words in descents.items():
                                hits = sum(1 for a, b in pairs if a in tops and b in bottoms)
                                want[hits] = want.get(hits, 0) + words
                            got = rearrangement_distribution(rho, tops, bottoms)
                            assert got == want, (rho, tops, bottoms)

    def test_counted_pairs(self):
        # descents only, and only among letters the class uses
        assert counted_pairs((1, 0, 2), {1, 2, 3}, {1, 2, 3}) == {(3, 1)}
        assert counted_pairs((1, 1, 1), {3}, {1, 2, 3}) == {(3, 1), (3, 2)}
        assert counted_pairs((1, 1, 1), {1}, {1, 2, 3}) == frozenset()
        assert counted_pairs((1, 1), {2, 7}, {1, 9}) == {(2, 1)}

    def test_answer_depends_only_on_the_counted_pairs(self):
        rho = (2, 1, 2)
        # 3 is never the bottom of a descent and 1 never its top
        same = [({3}, {1, 2}), ({1, 3}, {1, 2, 3}), ({3}, {1, 2, 3})]
        size, radix, tally = pair_distribution(rho, {(3, 1), (3, 2)})
        want = {hits: count for hits, count in enumerate(unpack(tally[0], size)) if count}
        for tops, bottoms in same:
            assert rearrangement_distribution(rho, tops, bottoms) == want
        # the DP's answer is packed: count s in byte field s of the class size's field bytes,
        # digits in radix weight + 1
        assert (size, radix, want) == (field_bytes(30), 6, {0: 3, 1: 18, 2: 9})
        assert pair_distribution((0, 0), set()) == (1, 1, {0: 1})
        assert pair_distribution((), set()) == (1, 1, {0: 1})

    def test_letters_of_multiplicity_zero_change_no_answer(self):
        # A class with zeros asks what the class without them asks, its letters renamed by rank,
        # under every set of counted descents among its letters.
        for m in range(1, 5):
            for weight in range(6):
                for rho in compositions(weight, m):
                    used = [x for x, reps in enumerate(rho, start=1) if reps]
                    if len(used) == m:
                        continue
                    rank = {x: i for i, x in enumerate(used, start=1)}
                    descents = [(a, b) for a in used for b in used if b < a]
                    for size in range(len(descents) + 1):
                        for pairs in itertools.combinations(descents, size):
                            renamed = {(rank[a], rank[b]) for a, b in pairs}
                            want = pair_distribution([rho[x - 1] for x in used], renamed)
                            assert pair_distribution(rho, pairs) == want, (rho, pairs)

    def test_total_mass_is_multinomial(self):
        for rho in [(2, 1), (1, 1, 2), (3, 0, 1), (2, 2, 1)]:
            n = sum(rho)
            expected = factorial(n)
            for reps in rho:
                expected //= factorial(reps)
            dist = rearrangement_distribution(rho, {1, 2}, {1, 2, 3})
            assert sum(dist.values()) == expected


def _enumerated_descents(rho):
    """Descent pairs of each distinct rearrangement of rho, with how many words have them."""
    base = tuple(letter for letter, reps in enumerate(rho, start=1) for _ in range(reps))
    out: dict[tuple, int] = {}
    for word in set(itertools.permutations(base)):
        pairs = tuple(sorted((a, b) for a, b in zip(word, word[1:]) if a > b))
        out[pairs] = out.get(pairs, 0) + 1
    return out


class TestDistributionSymmetries:
    def test_level_marginal_depends_only_on_block_sizes(self):
        # same sizes (2, 2), different letter placements
        interleaved = BlockPartition.from_blocks((1, 2, 1, 2))
        split = BlockPartition.from_blocks((1, 1, 2, 2))
        for n in range(5):
            a = statistic_distribution(4, n, interleaved, [(1, "lev"), (2, "lev")])
            b = statistic_distribution(4, n, split, [(1, "lev"), (2, "lev")])
            assert a == b

    def test_complement_pushforward(self):
        # descents per block map to rises per mirrored block of the
        # mirrored threshold partition
        k = 3
        for t in range(k + 1):
            part = BlockPartition.threshold(k, t)
            co_part = BlockPartition.threshold(k, k - t)
            for n in range(5):
                des_joint = statistic_distribution(k, n, part, [(1, "des"), (2, "des")])
                ris_joint = statistic_distribution(
                    k, n, co_part, [(2, "ris"), (1, "ris")]
                )
                assert des_joint == ris_joint

    def test_shard_by_prefix_matches_total(self):
        # enumeration split by first letter recombines by pointwise addition
        part = BlockPartition.mod_residue(3, 2)
        n = 4
        whole = brute_distribution(3, n, part)
        merged: dict = {}
        for first in (1, 2, 3):
            for letters in itertools.product(range(1, 4), repeat=n - 1):
                word = (first,) + letters
                key = stat_key(word, part.blocks, part.t)
                merged[key] = merged.get(key, 0) + 1
        assert merged == whole.entries
