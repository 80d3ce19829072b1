import itertools

import pytest

from wordstats import formulas, verify
from wordstats.combinat import compositions
from wordstats.oracle import counted_pairs
from wordstats.words import InputError


def skew_table(monkeypatch, family, cell, key):
    """Add 1 to ``key`` in the family's closed-form table at ``cell``; the tables built are logged."""
    table = formulas.FAMILIES[family].table
    calls = []

    def skewed(*params):
        calls.append(params)
        dist = table(*params)
        if params == cell:
            dist[key] = dist.get(key, 0) + 1
        return dist

    monkeypatch.setitem(formulas.FAMILIES, family, formulas.FAMILIES[family]._replace(table=skewed))
    return calls


class TestFormulasVsOracle:
    def test_default_grid_result(self):
        assert verify.formulas_vs_oracle() == verify.SuiteResult("formulas-vs-oracle", 12387, 0, None)

    def test_injected_fault_skews_levels_threshold(self):
        result = verify.formulas_vs_oracle(3, 4, corrupt=True)
        assert result == verify.SuiteResult(
            "formulas-vs-oracle", 1080, 90, "levels-threshold k=1 t=1 n=0 s=0"
        )

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
            ("levels-blocks", ((1, 1, 1), 4), (1, 0, 1), "levels-blocks sizes=(1, 1, 1) n=4 targets=(1, 0, 1)"),
            ("des-mod", (3, 4, 2, 5), 2, "des-mod s=3 alphabet=4 r=2 n=5 p=2"),
            ("levels-threshold", (3, 2, 5), 1, "levels-threshold k=3 t=2 n=5 s=1"),
            ("des-le", (4, 2, 6), 3, "des-le k=4 t=2 n=6 s=3"),
        ],
    )
    def test_wrong_table_entry_is_caught_and_named(self, monkeypatch, family, cell, key, name):
        calls = skew_table(monkeypatch, family, cell, key)
        result = verify.formulas_vs_oracle(4, 6)
        assert (result.failures, result.first_failure) == (1, name)
        # one table per grid cell
        assert calls.count(cell) == 1


class TestDesModErrata:
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
        calls = skew_table(monkeypatch, family, cell, key)
        result = verify.identities_suite()
        assert (result.checked, result.failures, result.first_failure) == (1820, 1, name)
        # one table per (k, n)
        assert calls.count(cell) == 1


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
        # The grouping's premise: Y matters only through its used letters below max X.
        for m in range(1, 5):
            subsets = [frozenset(c) for size in range(m + 1)
                       for c in itertools.combinations(range(1, m + 1), size)]
            for weight in range(6):
                for rho in compositions(weight, m):
                    used = {x for x, reps in enumerate(rho, start=1) if reps}
                    for x in subsets:
                        seen = {}
                        for y in subsets:
                            key = frozenset(b for b in y & used if b < max(x, default=0))
                            derived = (counted_pairs(rho, x, y), formulas.hall_remmel_inputs(rho, x, y))
                            assert seen.setdefault(key, derived) == derived, (rho, x, y)

    def test_wrong_weighted_row_is_caught_in_its_even_sum(self, monkeypatch):
        wrong = formulas.hall_remmel_inputs((1, 2, 0, 0), {2, 4}, {1, 2, 3, 4})
        weigh = formulas.hall_remmel_row

        def skewed(*inputs):
            row = weigh(*inputs)
            if inputs == wrong:
                row[0] += 1
            return row

        monkeypatch.setattr(formulas, "hall_remmel_row", skewed)
        result = verify.hall_remmel_suite(m_max=1, weight_max=1, even_n_max=4)
        # 1 at u^0 times (1-u)^4 moves every p of alphabet 4, n = 3 and nothing else.
        assert result.failures == 4
        assert result.first_failure == "even-words-sum alphabet=4 n=3 p=0"

    def test_wrong_evaluation_is_caught_at_every_letter_set_sharing_it(self, monkeypatch):
        rho = (2, 1)
        wrong = formulas.hall_remmel_inputs(rho, {2}, {1})
        subsets = [set(), {1}, {2}, {1, 2}]
        sharing = [(x, y) for x in subsets for y in subsets
                   if formulas.hall_remmel_inputs(rho, x, y) == wrong]
        assert len(sharing) > 1
        evaluate = formulas.hall_remmel_table
        calls = []

        def skewed(*inputs):
            calls.append(inputs)
            table = evaluate(*inputs)
            if inputs == wrong:
                table[1] += 1
            return table

        monkeypatch.setattr(formulas, "hall_remmel_table", skewed)
        result = verify.hall_remmel_suite(m_max=2, weight_max=3, even_n_max=2)
        assert result.failures == len(sharing)
        x, y = sharing[0]
        assert result.first_failure == f"rearrangement rho=(2, 1) X={sorted(x)} Y={sorted(y)}"
        # once per distinct input tuple and class
        assert calls.count(wrong) == 1

    def test_wrong_even_identity_is_caught_and_named(self, monkeypatch):
        table = formulas.FAMILIES["des-mod"].table

        def skewed(s, alphabet, r, n):
            dist = table(s, alphabet, r, n)
            if (alphabet, n) == (4, 3):
                dist[2] += 1
            return dist

        monkeypatch.setitem(formulas.FAMILIES, "des-mod", formulas.FAMILIES["des-mod"]._replace(table=skewed))
        result = verify.hall_remmel_suite(m_max=1, weight_max=1, even_n_max=4)
        assert result.failures == 1
        assert result.first_failure == "even-words-sum alphabet=4 n=3 p=2"

    def test_oracle_runs_once_per_counted_pair_set(self, monkeypatch):
        calls = []
        dp = verify.pair_distribution

        def counting(rho, pairs):
            calls.append((rho, pairs))
            return dp(rho, pairs)

        monkeypatch.setattr(verify, "pair_distribution", counting)
        verify.hall_remmel_suite(m_max=3, weight_max=4, even_n_max=0)
        expected = []
        for m in range(1, 4):
            subsets = [set(c) for size in range(m + 1)
                       for c in itertools.combinations(range(1, m + 1), size)]
            for weight in range(5):
                for rho in compositions(weight, m):
                    expected.append({counted_pairs(rho, x, y) for x in subsets for y in subsets})
        assert len(calls) == sum(len(sets) for sets in expected)
        assert len(calls) == len(set(calls))
