import itertools

import pytest

from wordstats import formulas, identities, oracle, verify
from wordstats.combinat import compositions, decode_keys, field_bytes, key_units, respace, unpack
from wordstats.oracle import counted_pairs, statistic_distribution
from wordstats.polynomials import FIELD_BITS, adopt
from wordstats.series import TrackingSpec, statistic_keys
from wordstats.words import _STAT_INDEX, BlockPartition, InputError


def skew_table(monkeypatch, family, cell, key):
    """Add 1 to ``key`` in the family's closed-form table at ``cell``; the passes run are logged.

    The family's one pass, ``packed``, is skewed, so every reader of the
    table, the suites and ``FamilyForms.table`` alike, meets the fault
    through the real decode.  A packed answer (field bytes, radix, tally)
    gains 1 at the value tuple ``key``, digits in the answer's radix, the
    first two in the fields and the rest in the key.  A pass over lengths
    first..n is logged by its parameters, which end in n.
    """
    forms = formulas.FAMILIES[family]
    passes = []

    def add_to_field(answer):
        size, radix, tally = answer
        digits = key if isinstance(key, tuple) else (key,)
        index = sum(digit * radix**i for i, digit in enumerate(digits))
        sparse, field = divmod(index, radix ** min(2, len(digits)))
        return size, radix, {**tally, sparse: tally.get(sparse, 0) + (1 << 8 * size * field)}

    def skewed(*params, first=None):
        passes.append(params)
        lengths = itertools.count(params[-1] if first is None else first)
        for n, answer in zip(lengths, forms.packed(*params, first=first)):
            yield add_to_field(answer) if (*params[:-1], n) == cell else answer

    monkeypatch.setitem(formulas.FAMILIES, family, forms._replace(packed=skewed))
    return passes


def log_decodes(monkeypatch) -> list:
    """Log each (params, answer) that ``FamilyForms.decode`` reads a table off."""
    decoded = []
    decode = formulas.FamilyForms.decode

    def logging(forms, params, answer):
        decoded.append((params, answer))
        return decode(forms, params, answer)

    monkeypatch.setattr(formulas.FamilyForms, "decode", logging)
    return decoded


def skew_radix(monkeypatch, family):
    """Raise the radix of every closed-form answer of ``family`` by 1, its fields as they are."""
    forms = formulas.FAMILIES[family]

    def off(*params, first=None):
        for size, radix, tally in forms.packed(*params, first=first):
            yield size, radix + 1, tally

    monkeypatch.setitem(formulas.FAMILIES, family, forms._replace(packed=off))


def add_to_field(answer: tuple[int, int, dict[int, int]], field: int, count: int = 1) -> tuple[int, int, dict[int, int]]:
    """A one-coordinate (field bytes, radix, {0: g}) answer with ``count`` added to field ``field`` of g."""
    size, radix, tally = answer
    return size, radix, {0: tally[0] + (count << 8 * size * field)}


# The deepest grid each suite gets from the benchmark's verify catalog, with its result.
CATALOG_DEEPEST = [
    ("identities_suite", (22, 22), ("identities", 9143)),
    ("oracle_vs_transfer", (5, 5), ("oracle-vs-transfer", 180)),
    ("series_vs_oracle", (5, 5), ("series-vs-oracle", 180)),
    ("formulas_vs_oracle", (6, 4), ("formulas-vs-oracle", 4374)),
    ("hall_remmel_suite", (4, 2, 8), ("hall-remmel", 4678)),
    ("hall_remmel_suite", (2, 7, 8), ("hall-remmel", 698)),
]


@pytest.mark.parametrize("name, bounds, want", CATALOG_DEEPEST)
def test_catalog_deepest_grid_result(name, bounds, want):
    assert getattr(verify, name)(*bounds) == verify.SuiteResult(*want, 0, None)


# Each length-bounded suite with a negative length bound, and the suite's name.
NEGATIVE_BOUND = [
    ("oracle_vs_transfer", (2, -1), "oracle-vs-transfer"),
    ("series_vs_oracle", (2, -1), "series-vs-oracle"),
    ("formulas_vs_oracle", (2, -1), "formulas-vs-oracle"),
    ("duality_suite", (2, -1), "dualities"),
    ("series_weight_suite", (2, -1), "series-weight-compatibility"),
    ("hall_remmel_suite", (2, -1, -1), "hall-remmel"),
]


@pytest.mark.parametrize("name, bounds, suite", NEGATIVE_BOUND)
def test_negative_bound_checks_nothing(name, bounds, suite):
    assert getattr(verify, name)(*bounds) == verify.SuiteResult(suite)


def test_duality_suite_catches_a_wrong_stat_key(monkeypatch):
    # The word (2, 1) gets one extra descent in the block of its first letter; only descents of words are read.
    original = verify.stat_key

    def skewed(letters, blocks, t):
        key = original(letters, blocks, t)
        if tuple(letters) != (2, 1):
            return key
        rows = [list(row) for row in key]
        rows[blocks[letters[0] - 1] - 1][0] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(verify, "stat_key", skewed)
    result = verify.duality_suite(3, 2)
    # k = 2 and k = 3 each fail every threshold and both residue checks of the word.
    assert (result.checked, result.failures, result.first_failure) == (
        194, 11, "threshold duality k=2 word=(2, 1) bottom=[]"
    )


# The (k, partition blocks, n) whose joint tally is skewed; the grid has this partition once.
SKEWED_JOINT = (3, (1, 1, 2), 3)


def skew_joint(k, partition, tallies):
    """``tallies``, of lengths 0, 1, ..., with one more word at the least packed key of the skewed cell."""
    for n, tally in enumerate(tallies):
        if (k, partition.blocks, n) == SKEWED_JOINT:
            tally[min(tally)] += 1
    return tallies


def skewed(name, original):
    """The packed pass ``verify.<name>``, ``original``, skewed at ``SKEWED_JOINT``."""
    if name == "build_ak_series":
        def series(k, partition, spec, order):
            built = original(k, partition, spec, order)
            skew_joint(k, partition, [c.terms for c in built.coeffs])
            return built
        return series
    return lambda k, n, partition, *keys, first: skew_joint(
        k, partition, list(original(k, n, partition, *keys, first=first))
    )


# Each joint suite, with its left-hand packed pass; the right-hand one is ``transfer_tallies``.
JOINT_SUITES = [("oracle_vs_transfer", "brute_tallies"), ("series_vs_oracle", "build_ak_series")]


@pytest.mark.parametrize("suite, engine", JOINT_SUITES)
def test_wrong_joint_tally_is_caught_and_named(monkeypatch, suite, engine):
    # Only the suite's left-hand engine is skewed, at one cell of its 15 partitions times 5 lengths.
    monkeypatch.setattr(verify, engine, skewed(engine, getattr(verify, engine)))
    result = getattr(verify, suite)(3, 4)
    assert (result.checked, result.failures, result.first_failure) == (75, 1, "k=3 n=3 partition=(1, 1, 2)")


@pytest.mark.parametrize("suite, engine", JOINT_SUITES)
def test_joint_tally_skewed_alike_in_both_engines_fails_the_word_total(monkeypatch, suite, engine):
    # Both engines agree at the skewed cell, but it then holds k**n + 1 words.
    for name in (engine, "transfer_tallies"):
        monkeypatch.setattr(verify, name, skewed(name, getattr(verify, name)))
    result = getattr(verify, suite)(3, 4)
    assert (result.checked, result.failures, result.first_failure) == (75, 1, "k=3 n=3 partition=(1, 1, 2)")


def log_passes(monkeypatch, *names):
    """Log each call of the engine passes ``verify.<name>`` by its name and arguments."""
    passes = []
    for name in names:
        original = getattr(verify, name)

        def logged(*args, name=name, original=original, **kwargs):
            passes.append((name, *args))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, logged)
    return passes


# Each joint suite's two passes to length n for one head, as ``log_passes`` logs them.
JOINT_PASSES = {
    "oracle_vs_transfer": lambda k, partition, n: [
        ("brute_tallies", k, n, partition),
        ("transfer_tallies", k, n, partition, oracle.compact_keys(n, partition.t)),
    ],
    "series_vs_oracle": lambda k, partition, n: [
        ("build_ak_series", k, partition, TrackingSpec.all_tracked(partition.t), n),
        ("transfer_tallies", k, n, partition, statistic_keys(TrackingSpec.all_tracked(partition.t))),
    ],
}


@pytest.mark.parametrize("suite, engine", JOINT_SUITES)
def test_joint_suite_runs_one_packed_pass_per_distinct_partition(monkeypatch, suite, engine):
    passes = log_passes(monkeypatch, engine, "transfer_tallies")
    result = getattr(verify, suite)(2, 3)
    # Nine grid partitions, of which k = 1 repeats one and k = 2 another; every one is checked.
    heads = [(k, partition) for k in (1, 2) for partition in formulas._grid_partitions(k)]
    distinct = list(dict.fromkeys(heads))
    assert (len(heads), len(distinct), result.checked, result.failures) == (9, 7, 36, 0)
    assert passes == [call for k, partition in distinct for call in JOINT_PASSES[suite](k, partition, 3)]


@pytest.mark.parametrize("suite", ["oracle_vs_transfer", "series_vs_oracle"])
def test_dp_charging_a_descent_as_a_rise_fails_both_joint_suites(monkeypatch, suite):
    # Only the DP's own pair rule is skewed; the walk reads stat_key and the series its factors.
    pair_index = oracle._pair_index
    monkeypatch.setattr(oracle, "_pair_index", lambda a, b: _STAT_INDEX["ris"] if a > b else pair_index(a, b))
    result = getattr(verify, suite)(3, 4)
    assert (result.checked, result.failures, result.first_failure) == (75, 33, "k=2 n=2 partition=(2, 2)")


def test_series_layout_with_x_and_y_swapped_fails_and_names_the_cell(monkeypatch):
    # Swapped, 12 charges a descent to the block of 1 and 21 a rise to the block of 2: a change only when those differ.
    monkeypatch.setattr(verify, "statistic_keys", lambda spec: [[y, x, *rest] for x, y, *rest in statistic_keys(spec)])
    result = verify.series_vs_oracle(3, 4)
    assert (result.checked, result.failures, result.first_failure) == (75, 18, "k=2 n=2 partition=(1, 2)")


def test_series_layout_is_carry_free_exactly_where_adopt_accepts():
    # Every word of length n >= 1 has degree 2n - 1 in the series layout, n letters and n - 1
    # pairs, and each exponent at most that; so a key carries exactly when its degree field does.
    spec = TrackingSpec.all_tracked(1)
    names = spec.poly_names(common_q_var=False)
    keys = statistic_keys(spec)
    [(_, _, lev, cnt)] = keys
    one_block = BlockPartition.threshold(1, 1)
    n = 32768  # degree 65,535, the largest a 16-bit field holds
    key = (n - 1) * lev + n * cnt  # the word 1^n, all levels
    assert next(oracle.transfer_tallies(1, n, one_block, keys, n)) == {key: 1}
    # One slot more than the names reads the degree field as slot 0.
    assert decode_keys({key: 1}, [key_units(FIELD_BITS, len(names) + 1)], FIELD_BITS) == {((2 * n - 1, 0, 0, n - 1, n),): 1}
    assert adopt(names, [{key: 1}])[0].exponents() == {(0, 0, n - 1, n): 1}
    with pytest.raises(InputError, match="exceeds the 16-bit field"):
        adopt(names, [{key + lev + cnt: 1}])  # length n + 1


class TestFormulasVsOracle:
    def test_default_grid_result(self):
        assert verify.formulas_vs_oracle() == verify.SuiteResult("formulas-vs-oracle", 12387, 0, None)

    def test_injected_fault_skews_levels_threshold(self):
        result = verify.formulas_vs_oracle(3, 4, corrupt=True)
        assert result == verify.SuiteResult(
            "formulas-vs-oracle", 1080, 90, "levels-threshold k=1 t=1 n=0 s=0"
        )

    def test_agreeing_cells_are_never_decoded(self, monkeypatch):
        decoded = log_decodes(monkeypatch)
        assert verify.formulas_vs_oracle() == verify.SuiteResult("formulas-vs-oracle", 12387, 0, None)
        assert decoded == []
        # Every levels-threshold cell differs once skewed, and each of its two tallies is decoded; no other is.
        result = verify.formulas_vs_oracle(3, 4, corrupt=True)
        assert (result.checked, result.failures, result.first_failure) == (1080, 90, "levels-threshold k=1 t=1 n=0 s=0")
        cells = [(*head, n) for head in formulas.FAMILIES["levels-threshold"].grid(3) for n in range(5)]
        assert len(decoded) == 2 * len(cells) == 60
        assert [params for params, _ in decoded[::2]] == cells
        # Each side is read in the radix it carries, that of the passes to n_max = 4.
        assert all(answer[1] == 5 for _, answer in decoded)

    def test_levels_blocks_grid_is_the_product_filtered(self):
        # One head per grid partition; per cell, every tuple of product(range(n + 1), repeat=t)
        # summing to at most max(n - 1, 0), in order.
        forms = formulas.FAMILIES["levels-blocks"]
        for alphabet_max in range(5):
            partitions = [partition for k in range(1, alphabet_max + 1) for partition in formulas._grid_partitions(k)]
            assert list(formulas._levels_blocks_grid(alphabet_max)) == [(p.block_sizes(),) for p in partitions]
            for partition in partitions:
                for n in range(7):
                    want = [tt for tt in itertools.product(range(n + 1), repeat=partition.t) if sum(tt) <= max(n - 1, 0)]
                    assert list(forms.values((partition.block_sizes(), n))) == want, (partition.blocks, n)

    def test_injected_fault_needs_a_letter(self):
        # alphabet_max 0 checks no skewed entry, so the run could not fail; it is refused
        for n_max in (0, 4):
            with pytest.raises(InputError, match="alphabet_max"):
                verify.formulas_vs_oracle(0, n_max, corrupt=True)
        assert verify.formulas_vs_oracle(0, 4) == verify.SuiteResult("formulas-vs-oracle")
        assert verify.formulas_vs_oracle(1, 0, corrupt=True).failures == 1

    @pytest.mark.parametrize(
        "family, cell, key, name",
        [
            ("des-gt", (3, 1, 4), 2, "des-gt k=3 t=1 n=4 s=2"),
            ("levels-blocks", ((1, 1, 1), 4), (1, 0, 1), "levels-blocks block_sizes=(1, 1, 1) n=4 targets=(1, 0, 1)"),
            ("des-mod", (3, 4, 2, 5), 2, "des-mod s=3 alphabet=4 r=2 n=5 p=2"),
            ("levels-threshold", (3, 2, 5), 1, "levels-threshold k=3 t=2 n=5 s=1"),
            ("des-le", (4, 2, 6), 3, "des-le k=4 t=2 n=6 s=3"),
        ],
    )
    def test_wrong_table_entry_is_caught_and_named(self, monkeypatch, family, cell, key, name):
        passes = skew_table(monkeypatch, family, cell, key)
        result = verify.formulas_vs_oracle(4, 6)
        assert (result.failures, result.first_failure) == (1, name)
        # one pass to n = 6 per distinct head of the grid, in first-seen order
        heads = formulas.FAMILIES[family].grid(4)
        assert passes == [(*head, 6) for head in dict.fromkeys(heads)]


    @pytest.mark.parametrize("respaced", [False, True], ids=["same-integer", "same-counts"])
    def test_a_packed_answer_in_another_field_width_is_compared_in_the_wider_one(self, monkeypatch, respaced):
        # At des-le (4, 2, 6) both passes pack in 2-byte fields.  Handed out in 3-byte fields,
        # the same integer is another table and fails value by value; the same counts,
        # re-spaced, are the right table and pass packed, the DP's answer re-laid in 3-byte fields.
        checked = verify.formulas_vs_oracle(4, 6).checked
        forms = formulas.FAMILIES["des-le"]
        cell = (4, 2, 6)
        [(size, radix, tally)] = forms.packed(*cell)
        g = tally[0]
        answer = respace(g, size, size + 1) if respaced else g

        def wider(*params, first=None):
            lengths = itertools.count(params[-1] if first is None else first)
            for n, packed in zip(lengths, forms.packed(*params, first=first)):
                yield (size + 1, radix, {0: answer}) if (*params[:-1], n) == cell else packed

        monkeypatch.setitem(formulas.FAMILIES, "des-le", forms._replace(packed=wider))
        decoded = log_decodes(monkeypatch)
        result = verify.formulas_vs_oracle(4, 6)
        marginal = forms.keyed(statistic_distribution(*forms.query(*cell)))
        table = dict(enumerate(unpack(answer, size + 1)))
        wrong = [s for s in range(7) if table.get(s, 0) != marginal.get(s, 0)]
        assert bool(wrong) != respaced
        assert (result.checked, result.failures) == (checked, len(wrong))
        assert result.first_failure == (f"des-le k=4 t=2 n=6 s={wrong[0]}" if wrong else None)
        # only a cell that differs is decoded, both its answers
        assert decoded == ([] if respaced else [(cell, (size + 1, 7, {0: answer})), (cell, (size, 7, {0: g}))])

    def test_answers_that_differ_only_in_radix_do_not_agree(self):
        [(size, radix, tally)] = formulas.FAMILIES["des-le"].packed(4, 2, 6)
        wider = size + 1, radix, {0: respace(tally[0], size, size + 1)}
        assert verify._agree((size, radix, tally), (size, radix, tally)) and verify._agree(wider, (size, radix, tally))
        assert not verify._agree((size, radix, tally), (size, radix + 1, tally))
        assert not verify._agree((size + 1, radix + 1, wider[2]), (size, radix, tally))

    def test_a_levels_blocks_answer_off_by_one_in_radix_fails(self, monkeypatch):
        # Answers in different radices never agree, so every levels-blocks check fails, even where
        # the fields, each side read in its own radix, decode to the same counts.
        skew_radix(monkeypatch, "levels-blocks")
        assert verify.formulas_vs_oracle() == verify.SuiteResult(
            "formulas-vs-oracle", 12387, 4071, "levels-blocks block_sizes=(0, 1) n=0 targets=(0, 0)"
        )

    @pytest.mark.parametrize(
        "family, failures, name",
        [("levels-threshold", 756, "levels-threshold k=1 t=1 n=0 s=0"), ("des-mod", 5832, "des-mod s=2 alphabet=1 r=1 n=0 p=0")],
    )
    def test_a_one_coordinate_answer_off_by_one_in_radix_fails_every_value(self, monkeypatch, family, failures, name):
        # A one-coordinate table decodes to the same counts in any radix, yet the answers do not agree
        # (``_agree``): each of the family's checks fails, 36 per head at n_max = 7, as des_mod_errata finds.
        skew_radix(monkeypatch, family)
        heads = list(formulas.FAMILIES[family].grid(6))
        assert verify.formulas_vs_oracle() == verify.SuiteResult("formulas-vs-oracle", 12387, failures, name)
        assert failures == 36 * len(heads)
        assert [case.shipped_ok for case in verify.des_mod_errata()] == [family != "des-mod"] * 3

    def test_a_repeated_head_runs_once_and_counts_as_often_as_listed(self, monkeypatch):
        # At k = 2, threshold(2, 1) and mod_residue(2, 2) are both blocks (1, 2): the grid lists the
        # head (1, 1) twice.  Each engine runs one pass for it, and its one wrong value fails twice.
        forms = formulas.FAMILIES["levels-blocks"]
        assert list(forms.grid(2)).count(((1, 1),)) == 2
        tables = skew_table(monkeypatch, "levels-blocks", ((1, 1), 3), (1, 0))
        marginals = log_passes(monkeypatch, "statistic_tallies")
        result = verify.formulas_vs_oracle(2, 4)
        assert (result.failures, result.first_failure) == (2, "levels-blocks block_sizes=(1, 1) n=3 targets=(1, 0)")
        assert tables.count(((1, 1), 4)) == 1
        assert marginals.count(("statistic_tallies", *forms.query((1, 1), 4))) == 1

    def test_past_n_max_64_no_cell_is_decoded(self, monkeypatch):
        # At alphabet 3 the closed form's pass to n = 66 packs lengths up to 64 in 13-byte fields,
        # sized for 3**64, and the DP's in 14-byte ones: the narrower answer is re-laid, not decoded.
        forms = formulas.FAMILIES["des-le"]
        sizes = [size for size, _, _ in forms.packed(3, 1, 66, first=0)]
        assert (sizes[64], sizes[65], field_bytes(3**66)) == (13, 14, 14)
        monkeypatch.setattr(formulas, "FAMILIES", {"des-le": forms})
        decoded = log_decodes(monkeypatch)
        result = verify.formulas_vs_oracle(3, 66)
        assert (result.checked, result.failures, decoded) == (13668, 0, [])


class TestDesModErrata:
    def test_one_pass_of_each_engine_per_head(self, monkeypatch):
        tables = skew_table(monkeypatch, "des-mod", None, None)  # logs the closed-form passes, skews nothing
        marginals = log_passes(monkeypatch, "statistic_tallies")
        verify.des_mod_errata(6, 7)
        forms = formulas.FAMILIES["des-mod"]
        heads = list(forms.grid(6))
        assert len(heads) == len(set(heads))
        assert tables == [(*head, 7) for head in heads]
        assert marginals == [("statistic_tallies", *forms.query(*head, 7)) for head in heads]

    def test_default_grid_counterexamples(self):
        # Each rejected reading's first counterexample (s, alphabet, r, n, p), its value and the oracle's.
        assert verify.des_mod_errata(6, 7) == [
            verify.ErrataCase("aligned-power-base", True, (2, 2, 1, 2, 0), 3, 4),
            verify.ErrataCase("offset-high-sum-index", True, (3, 1, 3, 1, 0), 2, 1),
            verify.ErrataCase("offset-low-sum-index", True, (2, 1, 1, 1, 0), 2, 1),
        ]


class TestIdentitiesSuite:
    def test_default_grid_result(self):
        assert verify.identities_suite() == verify.SuiteResult("identities", 1820, 0, None)

    @pytest.mark.parametrize(
        "family, cell, key, name",
        [
            ("des-gt", (3, 2, 4), 1, "direct-top k=3 n=4 s=1"),
            ("des-le", (5, 2, 6), 3, "direct-two-bottom k=5 n=6 s=3"),
        ],
    )
    def test_wrong_direct_count_is_caught_and_named(self, monkeypatch, family, cell, key, name):
        passes = skew_table(monkeypatch, family, cell, key)
        result = verify.identities_suite()
        assert (result.checked, result.failures, result.first_failure) == (1820, 1, name)
        # one pass to n = 8 per (k, t) of the direct count
        cells = {"des-gt": [(k, k - 1) for k in range(1, 7)], "des-le": [(k, 2) for k in range(2, 7)]}
        assert passes == [(k, t, 8) for k, t in cells[family]]

    @pytest.mark.parametrize(
        "check, n, r, s, name",
        [
            ("check_top_letter_identity", 6, 3, 1, "top-letter-binomial (6, 3, 1): 9 != 10 (alt 9)"),
            ("check_two_bottom_identity", 7, 2, 0, "two-bottom-binomial (7, 2, 0): 252 != 253 (alt 252)"),
        ],
    )
    def test_wrong_identity_row_is_caught_and_named(self, monkeypatch, check, n, r, s, name):
        # The row of (n, r) is the one whose coefficients are its left-hand sides; only it is skewed.
        wrong = [getattr(identities, check)(n, r, value).lhs for value in range(n + 1)]
        differences = identities.differences

        # The helper's row is the right-hand sides read backwards, so s sits at index n - s.
        def skewed(values):
            row = differences(values)
            if row[::-1] == wrong:
                row[n - s] += 1
            return row

        monkeypatch.setattr(identities, "differences", skewed)
        result = verify.identities_suite()
        assert (result.checked, result.failures, result.first_failure) == (1820, 1, name)


class TestHallRemmelSuite:
    def test_small_grid_result(self):
        result = verify.hall_remmel_suite(m_max=3, weight_max=5, even_n_max=6)
        assert result == verify.SuiteResult("hall-remmel", 4000, 0, None)

    def test_default_grid_result(self):
        assert verify.hall_remmel_suite() == verify.SuiteResult("hall-remmel", 92824, 0, None)

    def test_wrong_input_derivation_is_caught_and_named(self, monkeypatch):
        derive = formulas.hall_remmel_inputs

        def skewed(rho, tops, bottoms):
            outside, slots, n = derive(rho, tops, bottoms)
            if (rho, tops, bottoms) == ((2, 1), {2}, {1}):
                slots = tuple((reps, base + 1) for reps, base in slots)
            return outside, slots, n

        monkeypatch.setattr(formulas, "hall_remmel_inputs", skewed)
        result = verify.hall_remmel_suite(m_max=2, weight_max=3, even_n_max=2)
        # Y={1} is its key's representative: Y={1, 2} shares the key and the verdict.
        assert result.failures == 2
        assert result.first_failure == "rearrangement rho=(2, 1) X=[2] Y=[1]"

    def test_letter_sets_of_one_key_share_pairs_and_inputs(self):
        # The grouping's premise: X matters only through its used letters, and Y only
        # through its used letters below the largest of those.
        for m in range(1, 5):
            subsets = [frozenset(c) for size in range(m + 1)
                       for c in itertools.combinations(range(1, m + 1), size)]
            for weight in range(6):
                for rho in compositions(weight, m):
                    used = {x for x, reps in enumerate(rho, start=1) if reps}
                    for x in subsets:
                        seen = {}
                        for y in subsets:
                            key = frozenset(b for b in y & used if b < max(x & used, default=0))
                            derived = (counted_pairs(rho, x, y), formulas.hall_remmel_inputs(rho, x, y))
                            assert seen.setdefault(key, derived) == derived, (rho, x, y)
                            assert derived == (counted_pairs(rho, x & used, y),
                                               formulas.hall_remmel_inputs(rho, x & used, y)), (rho, x, y)

    def test_classes_of_one_shape_share_pairs_and_inputs(self):
        # The shape rule's premise: a letter of multiplicity 0 enters neither the pairs nor
        # the inputs, so rho with (X, Y) asks what its nonzero multiplicities ask with the
        # used letters of X and Y, each used letter renamed by its rank.
        for m in range(1, 5):
            subsets = [frozenset(c) for size in range(m + 1)
                       for c in itertools.combinations(range(1, m + 1), size)]
            for weight in range(6):
                for rho in compositions(weight, m):
                    used = [x for x, reps in enumerate(rho, start=1) if reps]
                    rank = {x: i for i, x in enumerate(used, start=1)}
                    shape = tuple(rho[x - 1] for x in used)
                    for x in subsets:
                        for y in subsets:
                            tops, bottoms = ({rank[a] for a in letters if a in rank} for letters in (x, y))
                            renamed = frozenset((rank[a], rank[b]) for a, b in counted_pairs(rho, x, y))
                            assert renamed == counted_pairs(shape, tops, bottoms), (rho, x, y)
                            assert (formulas.hall_remmel_inputs(rho, x, y)
                                    == formulas.hall_remmel_inputs(shape, tops, bottoms)), (rho, x, y)

    def test_inputs_are_derived_once_per_shape_row_per_call(self, monkeypatch):
        calls = []
        derive = formulas.hall_remmel_inputs

        def counting(rho, tops, bottoms):
            calls.append((tuple(rho), frozenset(tops), frozenset(bottoms)))
            return derive(rho, tops, bottoms)

        monkeypatch.setattr(formulas, "hall_remmel_inputs", counting)
        # A row: a shape, one set U of its letters and one key, a set of its letters below max(U).
        shapes = {tuple(reps for reps in rho if reps)
                  for m in range(1, 4) for weight in range(5) for rho in compositions(weight, m)}
        sets = lambda below: [frozenset(c) for size in range(below) for c in itertools.combinations(range(1, below), size)]
        rows = {(shape, tops, key) for shape in shapes for tops in sets(len(shape) + 1)
                for key in sets(max(tops, default=1))}
        for _ in range(2):
            calls.clear()
            assert verify.hall_remmel_suite(m_max=3, weight_max=4, even_n_max=0).ok
            assert all(all(rho) for rho, _, _ in calls)
            assert len(calls) == len(set(calls))
            assert set(calls) == rows

    def test_no_answer_outlives_a_call(self, monkeypatch):
        assert verify.hall_remmel_suite(m_max=3, weight_max=4, even_n_max=-1).ok
        evaluate = formulas.hall_remmel_table

        def skewed(*inputs):
            return add_to_field(evaluate(*inputs), 0)

        monkeypatch.setattr(formulas, "hall_remmel_table", skewed)
        result = verify.hall_remmel_suite(m_max=3, weight_max=4, even_n_max=-1)
        # Every class check fails, the first included: no verdict of the clean call was kept.
        assert result.failures == result.checked > 0
        assert result.first_failure == "rearrangement rho=(0,) X=[] Y=[]"

    def test_a_count_moved_to_its_neighbour_fails_though_the_class_total_holds(self, monkeypatch):
        # The closed form's lowest nonzero count gives one word to the next value.  Every class
        # total holds, yet each class of weight >= 1 fails, as its packed row differs: the first
        # in check order is (1,) with X = Y = [].  The classes of weight 0, 4 + 4^2 + 4^3 + 4^4
        # checks, have one value, and the 56 even-words sums read no class's table.
        evaluate = formulas.hall_remmel_table

        def moved(outside, slots, n):
            answer = evaluate(outside, slots, n)
            counts = unpack(answer[2][0], answer[0])
            low = next(s for s, count in enumerate(counts) if count)
            if low == n:
                return answer
            answer = add_to_field(add_to_field(answer, low, -1), low + 1)
            assert sum(unpack(answer[2][0], answer[0])) == sum(counts)
            return answer

        monkeypatch.setattr(formulas, "hall_remmel_table", moved)
        result = verify.hall_remmel_suite()
        assert (result.checked, result.failures) == (92824, 92824 - 340 - 56)
        assert result.first_failure == "rearrangement rho=(1,) X=[] Y=[]"

    @pytest.mark.parametrize(
        "skews, by_class, by_sum",
        [
            # A top letter's factor C(base + r, reps).
            (lambda a, slots: slots == ((1, 2),),
             (108, 6, "rearrangement rho=(1, 1) X=[1] Y=[]"), (30, 9, "even-words-sum alphabet=4 n=2 p=1")),
            # The factor C(a + r, r) of the letters outside the tops.
            (lambda a, slots: (a, slots) == (1, ()),
             (108, 18, "rearrangement rho=(1,) X=[] Y=[]"), (30, 20, "even-words-sum alphabet=2 n=1 p=1")),
        ],
        ids=["top", "outside"],
    )
    def test_skewed_factor_fails_class_and_even_sum(self, monkeypatch, skews, by_class, by_sum):
        # Each class's row and the letter pass take their factors from one helper, so a
        # factor skewed there is caught by the oracle class checks and by the even sum.
        weigh = formulas.hall_remmel_weights

        def skewed(scale, a, slots, n):
            row = weigh(scale, a, slots, n)
            if skews(a, slots) and n >= 1:
                row[1] += 1
            return row

        monkeypatch.setattr(formulas, "hall_remmel_weights", skewed)
        result = verify.hall_remmel_suite(m_max=2, weight_max=2, even_n_max=-1)
        assert result == verify.SuiteResult("hall-remmel", *by_class)
        result = verify.hall_remmel_suite(m_max=0, weight_max=0, even_n_max=4)
        assert result == verify.SuiteResult("hall-remmel", *by_sum)

    def test_even_sum_derives_no_class(self, monkeypatch):
        calls = []
        for name in ("hall_remmel_row", "hall_remmel_inputs"):
            monkeypatch.setattr(formulas, name, lambda *args, name=name: calls.append(name))
        result = verify.hall_remmel_suite(m_max=0, weight_max=7, even_n_max=8)
        assert (result.checked, result.failures, calls) == (90, 0, [])

    def test_wrong_evaluation_is_caught_at_every_letter_set_sharing_it(self, monkeypatch):
        wrong = formulas.hall_remmel_inputs((2, 1), {2}, {1})
        # Every class of the grid, m <= 2 and weight 3, with every pair of letter sets.
        sharing = []
        for m in (1, 2):
            subsets = [set(c) for size in range(m + 1) for c in itertools.combinations(range(1, m + 1), size)]
            sharing += [(rho, x, y) for rho in compositions(3, m) for x in subsets for y in subsets
                        if formulas.hall_remmel_inputs(rho, x, y) == wrong]
        assert len(sharing) > 1
        evaluate = formulas.hall_remmel_table
        calls = []

        def skewed(*inputs):
            calls.append(inputs)
            table = evaluate(*inputs)
            return add_to_field(table, 1) if inputs == wrong else table

        monkeypatch.setattr(formulas, "hall_remmel_table", skewed)
        result = verify.hall_remmel_suite(m_max=2, weight_max=3, even_n_max=2)
        assert result.failures == len(sharing)
        rho, x, y = sharing[0]
        assert result.first_failure == f"rearrangement rho={rho} X={sorted(x)} Y={sorted(y)}"
        # once per distinct input tuple per call
        assert calls.count(wrong) == 1
        assert len(calls) == len(set(calls))

    def test_wrong_evaluation_at_a_used_top_set_is_caught_at_every_top_set_sharing_it(self, monkeypatch):
        # rho leaves letter 3 unused, so X={2} stands for X={2, 3} too.  The closed form's
        # answers are shared for the whole call, so every class of the grid with these
        # inputs fails, those with a zero too, (2, 1) with X={2} first.
        wrong = formulas.hall_remmel_inputs((2, 1, 0), {2}, {1})
        sharing = []
        for m in range(1, 4):
            subsets = [set(c) for size in range(m + 1) for c in itertools.combinations(range(1, m + 1), size)]
            sharing += [(rho, x, y) for rho in compositions(3, m) for x in subsets for y in subsets
                        if formulas.hall_remmel_inputs(rho, x, y) == wrong]
        tops = [sorted(x) for rho, x, _ in sharing if rho == (2, 1, 0)]
        assert [2] in tops and [2, 3] in tops
        assert {rho for rho, _, _ in sharing} == {(2, 1), (2, 1, 0), (2, 0, 1), (0, 2, 1)}
        evaluate = formulas.hall_remmel_table

        def skewed(*inputs):
            table = evaluate(*inputs)
            return add_to_field(table, 0) if inputs == wrong else table

        monkeypatch.setattr(formulas, "hall_remmel_table", skewed)
        result = verify.hall_remmel_suite(m_max=3, weight_max=3, even_n_max=0)
        assert result.failures == len(sharing)
        # The first pair sharing the skew uses only letters of its class.
        rho, x, y = sharing[0]
        assert all(rho[letter - 1] for letter in x | y)
        assert result.first_failure == f"rearrangement rho={rho} X={sorted(x)} Y={sorted(y)}"

    def test_wrong_oracle_for_a_class_is_caught_at_every_pair_of_letter_sets(self, monkeypatch):
        dp = verify.pair_distribution

        def skewed(rho, pairs):
            answer = dp(rho, pairs)
            return add_to_field(answer, 0) if rho == (2, 1) else answer

        monkeypatch.setattr(verify, "pair_distribution", skewed)
        result = verify.hall_remmel_suite(m_max=3, weight_max=3, even_n_max=0)
        # Every class that asks the DP about (2, 1): itself and the classes with one zero,
        # (2, 1, 0), (2, 0, 1) and (0, 2, 1); all 4^2 and 4^3 of their pairs (X, Y), those with
        # the unused letter included.  The first is (2, 1) with X = Y = {}.
        assert result.failures == 4**2 + 3 * 4**3
        assert result.first_failure == "rearrangement rho=(2, 1) X=[] Y=[]"

    def test_wrong_even_identity_is_caught_and_named(self, monkeypatch):
        passes = skew_table(monkeypatch, "des-mod", (2, 4, 2, 3), 2)
        result = verify.hall_remmel_suite(m_max=1, weight_max=1, even_n_max=4)
        assert result.failures == 1
        assert result.first_failure == "even-words-sum alphabet=4 n=3 p=2"
        # one residue pass to n = 4 per alphabet
        assert passes == [(2, 2, 2, 4), (2, 4, 2, 4)]

    def test_oracle_runs_once_per_distinct_question_per_call(self, monkeypatch):
        calls = []
        dp = verify.pair_distribution

        def counting(rho, pairs):
            calls.append((rho, pairs))
            return dp(rho, pairs)

        monkeypatch.setattr(verify, "pair_distribution", counting)
        verify.hall_remmel_suite(m_max=3, weight_max=4, even_n_max=0)
        # A question: the class's nonzero multiplicities and its counted pairs, letters renamed by rank.
        expected = set()
        for m in range(1, 4):
            subsets = [set(c) for size in range(m + 1)
                       for c in itertools.combinations(range(1, m + 1), size)]
            for weight in range(5):
                for rho in compositions(weight, m):
                    used = [x for x, reps in enumerate(rho, start=1) if reps]
                    rank = {x: i for i, x in enumerate(used, start=1)}
                    expected |= {(tuple(rho[x - 1] for x in used),
                                  frozenset((rank[a], rank[b]) for a, b in counted_pairs(rho, x, y)))
                                 for x in subsets for y in subsets}
        assert len(calls) == len(set(calls))
        assert set(calls) == expected
