import itertools
import random
import time
from math import comb

import pytest

from wordstats import (
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
from wordstats import formulas
from wordstats.combinat import binom, compositions, decode_tally, differences, field_bytes, multinomial, respace, sign, unpack
from wordstats.formulas import CLOSED_FORMS, check_params
from wordstats.oracle import counted_pairs, pair_distribution


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

    def test_every_count_is_its_table_entry(self, monkeypatch):
        queries = {
            "levels-threshold": ((3, 2, 4), 1),
            "levels-blocks": (((2, 1), 3), (1, 0)),
            "des-le": ((3, 2, 4), 1),
            "des-gt": ((3, 1, 4), 1),
            "des-mod": ((2, 3, 2, 4), 1),
            "hall-remmel": (((2, 1), {2}, {1, 2}), 1),
        }
        assert set(queries) == set(CLOSED_FORMS)
        for family, (params, value) in queries.items():
            forms = formulas.FAMILIES[family]
            # One pass whose one answer holds 7 at the value's field, digits in the radix it hands out.
            radix = 5
            field = value[0] + value[1] * radix if forms.joint else value
            stub = forms._replace(packed=lambda *_, field=field: iter([(1, radix, {0: 7 << 8 * field})]))
            monkeypatch.setitem(formulas.FAMILIES, family, stub)
            assert evaluate(family, (*params, value)) == 7, family

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
            # a table, the checks alone and a count refuse alike: one family, one check
            value = (0,) * len(params[0]) if family == "levels-blocks" else 0
            messages = set()
            for refuse in (
                lambda: distribution(family, params),
                lambda: check_params(family, params),
                lambda: evaluate(family, (*params, value)),
            ):
                with pytest.raises(InputError) as caught:
                    refuse()
                messages.add(str(caught.value))
            assert len(messages) == 1, (family, params, messages)

    def test_unknown_formula(self):
        with pytest.raises(InputError):
            distribution("des-diagonal", (1, 2, 3))

    @pytest.mark.parametrize(
        "family, params",
        [
            ("levels-threshold", (3, 2, 6)),
            ("levels-blocks", ((2, 1, 1), 6)),
            ("des-le", (4, 2, 6)),
            ("des-gt", (3, 1, 6)),
            ("des-mod", (3, 7, 2, 6)),
            ("hall-remmel", ((2, 0, 3, 1), {2, 3}, {1, 3})),
        ],
    )
    def test_every_pass_hands_out_packed_answers_that_decode_to_the_table(self, family, params):
        # One answer shape, (field bytes, radix, tally), and one decode rule for every family.
        forms = formulas.FAMILIES[family]
        answers = list(forms.packed(*params))
        assert len(answers) == 1
        [(size, radix, tally)] = answers
        assert type(size) is int and type(tally) is dict
        assert all(type(key) is int and type(packed) is int for key, packed in tally.items())
        assert radix == (params[-1] if forms.query else sum(params[0])) + 1
        assert forms.decode(params, answers[0]) == forms.table(*params) == distribution(family, params)
        if forms.query is None:
            return
        # A pass over every length decodes, at each length, to that length's nonzero counts,
        # and a one-coordinate answer lists every value below the pass's radix, n + 1.
        *head, n = params
        nonzero = lambda table: {key: count for key, count in table.items() if count}
        for length, answer in enumerate(forms.packed(*params, first=0)):
            assert answer[1] == n + 1
            table = forms.decode((*head, length), answer)
            assert nonzero(table) == nonzero(distribution(family, (*head, length))), length
            assert forms.joint or list(table) == list(range(n + 1))


def test_differences_single_powers():
    # (1-u)^(d+1) cut at u^d against its binomial expansion
    for d in range(301):
        assert differences([1] + [0] * d) == [sign(j) * binom(d + 1, j) for j in range(d + 1)]


def test_multinomial_is_zero_off_its_domain():
    assert multinomial(4, (1, 2, 1)) == 12
    assert multinomial(3, (1, 1)) == 0  # the parts sum to 2, not 3
    assert multinomial(2, (3, -1)) == 0  # the parts sum to 2, but one is negative
    assert multinomial(-1, ()) == 0


def test_differences_is_the_alternating_sum():
    # c_s = sum_i (-1)^(s-i) C(L, s-i) f(i), term by term, on random rows of length L
    rng = random.Random(36)
    for _ in range(300):
        size = rng.randint(0, 40)
        row = [rng.randint(-(2**70), 2**70) for _ in range(size)]
        want = [sum(sign(s - i) * binom(size, s - i) * row[i] for i in range(s + 1)) for s in range(size)]
        assert differences(row) == want


@pytest.mark.parametrize("size", [1, 2, 3, 8, 9])
def test_packed_fields_at_width_edges(size):
    # 256**size - 1 fills size bytes and one more needs another byte
    top = 256**size - 1
    assert (field_bytes(top), field_bytes(top + 1)) == (size, size + 1)

    def pack(counts, width):
        return sum(count << 8 * width * i for i, count in enumerate(counts))

    # the last field of [0, 0, 255] and [top, 0, 1] is short: it has fewer bytes than size
    for counts in ([top], [0, top], [top, 0, 1, top - 1, top], [top, 0, 1], [0, 0, 255]):
        assert unpack(pack(counts, size), size) == counts
        for wider in (size, size + 1, 2 * size + 1):
            assert respace(pack(counts, size), size, wider) == pack(counts, wider), (counts, wider)
    assert unpack(0, size) == [] and respace(0, size, size + 1) == 0


def _recursive_compositions(total, parts):
    """Head by head, each tail from one level deeper: the reference ``compositions`` walks."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def test_compositions_match_the_recursive_walk():
    # same tuples in the same order, for no parts, zero total and a negative total too
    for total in range(-1, 9):
        for parts in range(6):
            assert list(compositions(total, parts)) == list(_recursive_compositions(total, parts))
    assert list(compositions(0, 0)) == [()] and list(compositions(3, 0)) == []


def _power_loop_levels_threshold(k, t):
    """Times G, where F = x G and G = (k - (k-t)x) / (1-x): times k - (k-t)x, then prefix sums."""
    return lambda series: list(
        itertools.accumulate(k * v - (k - t) * w for v, w in zip(series, [0, *series]))
    )


def _power_loop_descent(tau, lead, slope, c0, c1, n):
    """Times G, where F = x G = (1+x)^tau (lead + slope x) - c0 - c1 x, read up to x^n."""
    row = [comb(tau, j) for j in range(min(tau, n) + 1)]
    coefficients = [lead * a + slope * b for a, b in zip(row + [0], [0] + row)]
    coefficients[0] -= c0
    coefficients[1] -= c1
    assert coefficients[0] == 0
    terms = [(j, c) for j, c in enumerate(coefficients[1:]) if c]

    def times(series):
        product = [0] * len(series)
        for j, c in terms:
            product[j:] = [p + c * v for p, v in zip(product[j:], series)]
        return product

    return times


def _power_loop_times(family, head, n):
    """The G of F = x G for a family's parameters without n, each read up to x^n."""
    if family == "levels-threshold":
        return _power_loop_levels_threshold(*head)
    if family == "des-le":
        k, t = head
        return _power_loop_descent(t, 1, 0, 1, t - k, n)
    if family == "des-gt":
        k, t = head
        return _power_loop_descent(k - t, 1, t, 1, 0, n)
    s, alphabet, r = head
    kq, t = divmod(alphabet, s)
    return _power_loop_descent(kq + (r <= t), s, r - 1, s, (r - 1 - t) % s, n)


def _power_loop_tables(family, head, n_max):
    """The tables at n = 0..n_max as sums of [x^n] F^m (u-1)^(n-m), from one list power loop.

    [x^n] F^m is [x^(n-m)] G^m, and the sum over m is taken term by term.
    The packed recurrence keeps this loop as its reference, as
    ``compositions`` keeps its recursive walk.
    """
    times = _power_loop_times(family, head, n_max)
    powers = [[1] + [0] * n_max]
    for _ in range(n_max):
        powers.append(times(powers[-1]))
    return [
        {
            s: sum(sign(n - m - s) * binom(n - m, s) * powers[m][n - m] for m in range(n - s + 1))
            for s in range(n + 1)
        }
        for n in range(n_max + 1)
    ]


class TestPackedRecurrence:
    """The packed tables against the list power loop, across field widths and re-spacings."""

    @staticmethod
    def heads(family, k):
        if family == "des-mod":
            return [(s, k, r) for s in range(2, k + 2) for r in range(1, s + 1)]
        return [(k, t) for t in range(0 if family == "des-gt" else 1, k + 1)]

    @pytest.mark.parametrize("family", ["levels-threshold", "des-le", "des-gt", "des-mod"])
    def test_every_table_up_to_k_8_and_n_40(self, family):
        for k in range(1, 9):
            for head in self.heads(family, k):
                want = _power_loop_tables(family, head, 40)
                for n in range(41):
                    assert distribution(family, (*head, n)) == want[n], (family, head, n)

    @pytest.mark.parametrize("family", ["levels-threshold", "des-le", "des-gt", "des-mod"])
    def test_field_width_edges(self, family):
        # k = 1 never gains a byte and k = 256 gains one per letter; for every other k,
        # the first n at which a field gains a byte: bits(k**n) passes a multiple of 8
        cases = set()
        for k in (1, 2, 3, 5, 7, 16, 255, 256, 257):
            first = next(
                n for n in itertools.count(1)
                if k == 1 or ((k**n).bit_length() + 7) // 8 > ((k ** (n - 1)).bit_length() + 7) // 8
            )
            heads = self.heads(family, k)
            for head in {heads[0], heads[len(heads) // 2], heads[-1]}:
                cases.update((head, n) for n in {0, 1, first - 1, first, first + 1})
        for head, n in sorted(cases):
            assert distribution(family, (*head, n)) == _power_loop_tables(family, head, n)[n], (head, n)

    @pytest.mark.parametrize("family", ["levels-threshold", "des-le", "des-gt", "des-mod"])
    def test_fields_widen_past_n_64(self, family):
        # the field bound starts at 64 and grows by an eighth: 72 at j = 65, 81 at j = 73, ...
        for k in (2, 7):
            heads = self.heads(family, k)
            for head in {heads[0], heads[-1]}:
                want = _power_loop_tables(family, head, 100)
                for n in (64, 65, 72, 73, 81, 82, 100):
                    assert distribution(family, (*head, n)) == want[n], (head, n)

    def test_huge_alphabet(self):
        want = _power_loop_tables("des-gt", (30_000, 1), 30)
        for n in (0, 1, 29, 30):
            assert distribution("des-gt", (30_000, 1, n)) == want[n]


class TestPastDegree128:
    """Whole tables against the word and rearrangement DPs at n from 127 to 150.

    Every other independent check of the closed forms stops at n <= 7;
    here each (u-1) row reaches degree 127 to 150.
    """

    N = 130

    @staticmethod
    def nonzero(table):
        return {key if isinstance(key, tuple) else (key,): c for key, c in table.items() if c}

    @pytest.mark.parametrize(
        "family, params",
        [
            ("levels-threshold", (3, 2)),
            ("des-le", (4, 2)),
            ("des-gt", (4, 1)),
            ("des-mod", (3, 6, 2)),  # aligned
            ("des-mod", (3, 7, 2)),  # offset, r above t
            ("des-mod", (3, 7, 1)),  # offset, r within t
            ("levels-blocks", ((3,),)),
        ],
    )
    def test_table_is_the_dp_marginal(self, family, params):
        n = self.N
        marginal = statistic_distribution(*formulas.FAMILIES[family].query(*params, n))
        assert self.nonzero(distribution(family, (*params, n))) == self.nonzero(marginal)
        if family == "des-mod":
            # the rejected reading of each regime still disagrees at some p
            assert any(
                count_des_mod_uncorrected(*params, n, p) != marginal.get((p,), 0)
                for p in range(n + 1)
            )

    def test_hall_remmel_is_the_rearrangement_dp(self):
        rho, tops, bottoms = (65, 65), {2}, {1}
        want = pair_distribution(rho, counted_pairs(rho, tops, bottoms))
        assert formulas.hall_remmel_table(*formulas.hall_remmel_inputs(rho, tops, bottoms)) == want
        assert want[1] == 131
        assert self.nonzero(distribution("hall-remmel", (rho, tops, bottoms))) == decode_tally(want, 1)

    def test_every_family_and_regime_around_n_128(self):
        """Tables at n straddling 128, joints on 2-6 blocks, and classes of weight 12-20."""
        regimes = [(4, 8, 3), (3, 8, 3), (4, 6, 2)]  # aligned; offset, r above t; r within t
        queries = [
            ("levels-threshold", (5, 2)),
            ("levels-blocks", ((2,),)),
            ("des-le", (3, 1)),
            ("des-gt", (5, 3)),
            *(("des-mod", params) for params in regimes),
        ]
        disagrees = set()
        for n in (127, 128, 129, 150):
            for family, params in queries:
                marginal = statistic_distribution(*formulas.FAMILIES[family].query(*params, n))
                table = distribution(family, (*params, n))
                assert self.nonzero(table) == self.nonzero(marginal), (family, params, n)
                if family == "des-mod" and params not in disagrees:
                    if any(count_des_mod_uncorrected(*params, n, p) != table.get(p, 0) for p in range(n + 1)):
                        disagrees.add(params)
        # the rejected reading of each regime still disagrees at some such n
        assert disagrees == set(regimes)

        # two blocks are all dense bit fields in the kernel; three to six key the rest in dicts
        for sizes, n in [((2, 3), 29), ((1, 2), 31), ((2, 1, 2), 15), ((1, 1, 2), 16),
                         ((1, 2, 1, 1), 16), ((1,) * 6, 8)]:
            joint = statistic_distribution(*formulas.FAMILIES["levels-blocks"].query(sizes, n))
            assert self.nonzero(distribution("levels-blocks", (sizes, n))) == self.nonzero(joint), sizes

        rng = random.Random(128)
        for weight in range(12, 21):
            m = rng.randint(2, 5)
            cuts = sorted(rng.randint(0, weight) for _ in range(m - 1))
            rho = tuple(b - a for a, b in zip([0, *cuts], [*cuts, weight]))
            tops, bottoms = (set(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(2))
            want = pair_distribution(rho, counted_pairs(rho, tops, bottoms))
            table = distribution("hall-remmel", (rho, tops, bottoms))
            assert want[1] == weight + 1
            assert self.nonzero(table) == decode_tally(want, 1), (rho, tops, bottoms)


class TestInnerSumsReference:
    """The paper's s-free inner sums, term by term, as the reference for the closed forms.

    Each family's count is sum_m (-1)^(n-m-s) C(n-m, s) inner(m); the
    closed forms evaluate inner(m) as a coefficient of a power instead.
    """

    @staticmethod
    def expected(inner, n):
        values = [inner(m) for m in range(n + 1)]
        return [
            sum(sign(n - m - s) * binom(n - m, s) * values[m] for m in range(n + 1))
            for s in range(n + 2)
        ]

    def check(self, family, count, params, inner, n):
        expected = self.expected(inner, n)
        table = distribution(family, params)
        assert [table.get(s, 0) for s in range(n + 2)] == expected, (family, params)
        assert [count(*params, s) for s in range(n + 2)] == expected, (family, params)

    @staticmethod
    def levels_threshold(k, t, n):
        return lambda m: sum(
            binom(m, i) * binom(i + n - m - 1, n - m) * (k - t) ** (m - i) * t**i
            for i in range(m + 1)
        )

    @staticmethod
    def des_le(k, t, n):
        return lambda m: sum(
            sign(m - a - b) * binom(m, a) * binom(m - a, b) * binom(t * a, n - b) * (k - t) ** b
            for a in range(m + 1)
            for b in range(m - a + 1)
        )

    @staticmethod
    def des_gt(k, t, n):
        return lambda m: sum(
            sign(m - a) * binom(m, a) * binom(a, b) * binom((k - t) * a, n - b) * t**b
            for a in range(m + 1)
            for b in range(a + 1)
        )

    @staticmethod
    def des_mod(s, alphabet, r, n, corrected):
        kq, t = divmod(alphabet, s)
        if t == 0:
            # aligned regime; the rejected reading takes the (s-1) power base
            base = r - 1 if corrected else s - 1
            return lambda j: sum(
                sign(j + i2) * binom(j, i1) * s ** (j - i1) * base**i1 * binom(j, i2)
                * binom(kq * i2, n - i1)
                for i1 in range(j + 1)
                for i2 in range(j + 1)
            )
        # offset regime, r above or within the offset t; the rejected reading pins j to m
        high = r > t
        i1_base = r - 1 - t if high else s - t + r - 1
        top = kq if high else kq + 1
        return lambda m: sum(
            sign(m + j) * binom(m, j) * binom(m - j, i1) * i1_base**i1 * binom(j, i2)
            * (r - 1) ** i2 * s ** (m - i1 - i2) * binom(top * j, n - i1 - i2)
            for j in (range(m + 1) if corrected else (m,))
            for i1 in range(m - j + 1)
            for i2 in range(j + 1)
        )

    def test_threshold_families(self):
        families = [
            ("levels-threshold", count_levels_threshold, self.levels_threshold, 1),
            ("des-le", count_des_le, self.des_le, 1),
            ("des-gt", count_des_gt, self.des_gt, 0),
        ]
        for family, count, inner, lowest in families:
            for k in range(1, 6):
                for t in range(lowest, k + 1):
                    for n in range(8):
                        self.check(family, count, (k, t, n), inner(k, t, n), n)

    def test_des_mod_every_regime(self):
        # alphabets below s (kq = 0), multiples of s, and offsets with r <= t and r > t
        regimes = set()
        for s in (2, 3, 4):
            for alphabet in range(1, 10):
                t = alphabet % s
                for r in range(1, s + 1):
                    regimes.add((alphabet < s, t == 0, r <= t))
                    for n in range(7):
                        params = (s, alphabet, r, n)
                        self.check(
                            "des-mod", count_des_mod, params,
                            self.des_mod(*params, corrected=True), n,
                        )
                        rejected = self.expected(self.des_mod(*params, corrected=False), n)
                        assert [
                            count_des_mod_uncorrected(*params, p) for p in range(n + 2)
                        ] == rejected, params
        # (alphabet < s, aligned, r <= t): every combination that can occur
        assert regimes == {
            (True, False, True), (True, False, False),
            (False, True, False), (False, False, True), (False, False, False),
        }


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
        # Residue partitions too: levels depend on a partition only through its block sizes.
        for k in range(1, 7):
            for part in [BlockPartition.threshold(k, 1), *(BlockPartition.mod_residue(k, s) for s in (2, 3))]:
                sizes = part.block_sizes()
                coords = [(i, "lev") for i in range(1, part.t + 1)]
                for n in range(5):
                    joint = statistic_distribution(k, n, part, coords)
                    for targets in itertools.product(range(n + 1), repeat=part.t):
                        assert count_levels_blocks(sizes, n, targets) == joint.get(
                            targets, 0
                        )

    @staticmethod
    def literal(sizes, n, targets, signed=True):
        """The paper's sum over pairs of compositions; ``signed=False`` drops its sign."""
        total = 0
        for m in range(n + 1):
            for avec in compositions(m, len(sizes)):
                for bvec in compositions(n - m, len(sizes)):
                    term = (sign(n - m - sum(targets)) if signed else 1) * multinomial(m, avec)
                    for size, a, b, tt in zip(sizes, avec, bvec, targets):
                        term *= size**a * binom(a + b - 1, b) * binom(b, tt)
                    total += term
        return total

    def test_recurrence_equals_composition_sum(self):
        # The paper's sum, kept here as the reference.  Every n from 0 is run, so the
        # key radix max(n, 1) is 1 and 2 in each case; empty blocks come first, in the
        # middle and last; a 255-letter last block widens its fields by a byte at n = 1, 2, 3.
        cases = [((2,), 6), ((0, 2), 6), ((2, 0), 6), ((1, 0, 2), 4), ((2, 3, 1), 4),
                 ((1, 1, 1, 1), 3), ((1, 1, 1, 1, 1), 3), ((255,), 3), ((1, 255), 3)]
        for sizes, n_max in cases:
            for n in range(n_max + 1):
                for targets in itertools.product(range(n + 1), repeat=len(sizes)):
                    assert count_levels_blocks(sizes, n, targets) == self.literal(sizes, n, targets)
                assert distribution("levels-blocks", (list(sizes), n)) == distribution("levels-blocks", (sizes, n))

    def test_single_block_table_is_the_threshold_table_at_field_edges(self):
        # Both count every level, and both pack the levels in fields sized for k**n at length n;
        # k**n crosses byte edges at k = 255 and 256, and n = 65 is past the threshold table's
        # first re-spacing.
        for k in (1, 2, 3, 255, 256, 30_000):
            for n in (0, 1, 5, 16, 64, 65):
                assert next(formulas._levels_blocks_table((k,), n)) == next(formulas._levels_threshold(k, k, n)), (k, n)
                want = {(s,): count for s, count in formulas.distribution("levels-threshold", (k, k, n)).items() if count}
                assert formulas.distribution("levels-blocks", ((k,), n)) == want, (k, n)

    def test_unsigned_variant_is_wrong(self):
        # dropping the sign factor breaks already at two letters
        assert self.literal((1, 0), 2, (0, 0), signed=False) == 2
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

    def test_huge_alphabet_reads_no_binomial_past_n(self):
        # Only x^0..x^n of (1+x)^k is read, so k = 30,000 at n = 1 builds two binomials.
        start = time.perf_counter()
        assert count_des_gt(30_000, 0, 1, 0) == 30_000
        assert time.perf_counter() - start < 0.5


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

    def test_negative_statistic_value(self):
        # refused like every other family's negative value, by the count and the checks alike
        for refuse in (
            lambda: hall_remmel_count((1, 1), {2}, {1}, -1),
            lambda: check_params("hall-remmel", ((1, 1), {2}, {1}, -1)),
        ):
            with pytest.raises(InputError, match="^length and statistic value must be nonnegative$"):
                refuse()

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

    @pytest.mark.parametrize(
        "classes, size",
        [
            ([(254, 1), (2, 2, 1), (1, 1, 1, 1, 1), (5, 3)], 1),  # 255, 30, 120 and 56 fit one byte
            ([(255, 1), (1, 1, 1, 1, 1, 1), (3, 3, 2), (2, 2, 2, 1)], 2),  # 256, 720, 560 and 630 do not
        ],
    )
    def test_rearrangement_dp_at_field_edges(self, classes, size):
        for rho in classes:
            assert field_bytes(multinomial(sum(rho), rho)) == size
            m = len(rho)
            # with no counted pair, the one count is the class size itself
            for tops, bottoms in [(range(2, m + 1, 2), range(1, m + 1)), (range(1, m + 1),) * 2, ({m}, {1}), ((), ())]:
                want = formulas.hall_remmel_table(*formulas.hall_remmel_inputs(rho, tops, bottoms))
                got = pair_distribution(rho, counted_pairs(rho, tops, bottoms))
                assert got[0] == size and got == want, (rho, tops, bottoms)

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
        # The letter pass sums the same rows without a class, odd alphabets and deeper n included.
        for alphabet in range(1, 7):
            rows = formulas.hall_remmel_summed_rows(alphabet, range(2, alphabet + 1, 2), 10)
            for n, row in enumerate(rows):
                residue = distribution("des-mod", (2, alphabet, 2, n))
                assert differences(row) == [residue.get(p, 0) for p in range(n + 1)]

    def test_letter_pass_is_the_sum_of_class_rows(self):
        for alphabet in range(1, 6):
            letters = range(1, alphabet + 1)
            subsets = [set(c) for size in range(alphabet + 1) for c in itertools.combinations(letters, size)]
            # Letters outside the alphabet are inert, as in every class's inputs.
            for tops in subsets + [{2, 4, alphabet + 1}]:
                rows = formulas.hall_remmel_summed_rows(alphabet, tops, 8)
                assert len(rows) == 9
                for n, row in enumerate(rows):
                    want = [0] * (n + 1)
                    for rho in compositions(n, alphabet):
                        weighted = formulas.hall_remmel_row(*formulas.hall_remmel_inputs(rho, tops, letters))
                        want = [a + b for a, b in zip(want, weighted)]
                    assert row == want, (alphabet, tops, n)

    def test_letter_pass_edges(self):
        # No letter: the empty word alone; a negative bound: no row.
        assert formulas.hall_remmel_summed_rows(0, (), 3) == [[1], [0, 0], [0, 0, 0], [0, 0, 0, 0]]
        assert formulas.hall_remmel_summed_rows(3, {2}, -1) == []
