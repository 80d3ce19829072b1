"""Cross-engine verification suites.

Each suite sweeps a parameter grid and compares two independent routes to
the same exact number: enumeration vs dynamic program, closed form vs
oracle, series coefficient vs oracle, direct count vs general formula.
Results come back as a summary; the first mismatch is recorded verbatim so
a failing run is immediately actionable.

``formulas_vs_oracle`` and ``des_mod_errata`` walk the grids that
``formulas.FAMILIES`` declares, one per family, and a failing check is
named by the report names declared there.  ``formulas_vs_oracle`` accepts
``corrupt=True``, which deliberately skews one closed form by +1.  That
run must fail; it is the self-test proving the harness can actually see a
wrong constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from . import formulas, identities
from .formulas import _grid_partitions
from .oracle import (
    brute_distribution,
    counted_pairs,
    pair_distribution,
    statistic_distribution,
    transfer_distribution,
)
from .series import TrackingSpec, build_ak_series, build_bk_series, coefficient_distribution
from .words import BlockPartition, InputError
from .combinat import compositions


@dataclass
class SuiteResult:
    suite: str
    checked: int = 0
    failures: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe, count: int = 1) -> None:
        """Count ``count`` checks of one verdict; ``describe()`` names the first that fails."""
        self.checked += count
        if not ok:
            self.failures += count
            if self.first_failure is None:
                self.first_failure = describe()


def oracle_vs_transfer(k_max: int = 4, n_max: int = 8) -> SuiteResult:
    """Exhaustive enumeration against the dynamic program, full joint equality."""
    result = SuiteResult("oracle-vs-transfer")
    for k in range(1, k_max + 1):
        for partition in _grid_partitions(k):
            for n in range(n_max + 1):
                brute = brute_distribution(k, n, partition)
                transfer = transfer_distribution(k, n, partition)
                result.record(
                    brute == transfer and brute.total() == k**n,
                    lambda k=k, n=n, partition=partition: f"k={k} n={n} partition={partition.blocks}",
                )
    return result


def series_vs_oracle(k_max: int = 4, n_max: int = 6) -> SuiteResult:
    """Fully tracked word-series coefficients against the transfer oracle."""
    result = SuiteResult("series-vs-oracle")
    for k in range(1, k_max + 1):
        for partition in _grid_partitions(k):
            spec = TrackingSpec.all_tracked(partition.t)
            series = build_ak_series(k, partition, spec, n_max)
            for n in range(n_max + 1):
                got = coefficient_distribution(series, spec, partition, n)
                want = transfer_distribution(k, n, partition)
                result.record(
                    got == want,
                    lambda k=k, n=n, partition=partition: f"k={k} n={n} partition={partition.blocks}",
                )
    return result


def formulas_vs_oracle(
    alphabet_max: int = 6, n_max: int = 7, corrupt: bool = False
) -> SuiteResult:
    """Every closed form against the reduced transfer oracle, on a dense grid.

    Family by family, each cell of the family's declared grid has its
    closed-form table built once and compared entry by entry with the
    oracle's marginal on the family's query, one check per statistic value
    of the cell.  A ``corrupt`` run needs ``alphabet_max >= 1``: below that
    no skewed entry is checked, and the run could not fail.
    """
    if corrupt and alphabet_max < 1:
        raise InputError(
            f"an injected fault is checked only with alphabet_max (--k-max) at least 1, got {alphabet_max}"
        )
    result = SuiteResult("formulas-vs-oracle")
    for family, forms in formulas.FAMILIES.items():
        shift = 1 if corrupt and family == "levels-threshold" else 0
        for params, values in forms.grid(alphabet_max, n_max):
            table = formulas.distribution(family, params)
            marginal = statistic_distribution(*forms.query(*params))
            for value in values:
                # The oracle keys every value by a tuple, a joint table by its target tuple.
                key = value if isinstance(value, tuple) else (value,)
                result.record(
                    table.get(value, 0) + shift == marginal.get(key, 0),
                    lambda cell=(*params, value): " ".join([family, *map("{}={}".format, forms.names, cell)]),
                )
    return result


def identities_suite(top_n_max: int = 12, two_bottom_n_max: int = 10) -> SuiteResult:
    """Both binomial identities on their full grids, plus the direct counts."""
    result = SuiteResult("identities")
    rows = ((identities.top_letter_row, top_n_max), (identities.two_bottom_row, two_bottom_n_max))
    for row, n_max in rows:
        for n in range(n_max + 1):
            for r in range(n + 1):
                for report in row(n, r):
                    result.record(
                        report.ok,
                        lambda report=report: f"{report.identity} {report.params}: {report.lhs} != {report.rhs} (alt {report.alt_rhs})",
                    )
    # Per direct count: the closed form it equals at each (alphabet, threshold).
    direct = (
        ("direct-top", identities.direct_count_top_letter, "des-gt", [(k, k - 1) for k in range(1, 7)]),
        ("direct-two-bottom", identities.direct_count_two_bottom, "des-le", [(k, 2) for k in range(2, 7)]),
    )
    for name, count, family, cells in direct:
        for k, t in cells:
            for n in range(9):
                # One closed-form table per (k, n) answers every s of the cell.
                table = formulas.distribution(family, (k, t, n))
                for s in range(n + 1):
                    result.record(
                        count(k, n, s) == table.get(s, 0),
                        lambda name=name, k=k, n=n, s=s: f"{name} k={k} n={n} s={s}",
                    )
    return result


def hall_remmel_suite(
    m_max: int = 4,
    weight_max: int = 7,
    even_alphabets: tuple[int, ...] = (2, 4),
    even_n_max: int = 6,
) -> SuiteResult:
    """Rearrangement-class closed form against its oracle, all letter sets.

    A check runs for every class rho and every pair (X, Y) of top and
    bottom letter sets, X major, each set in order of size, then
    lexicographically.  Let R be the letters below the largest letter of X
    that rho uses.  Both the counted descent pairs and the closed form's
    inputs depend on Y only through its key, Y & R.  Under one X each key
    is shared by 2^(m - |R|) sets Y, the first of them in check order the
    key itself, so each X row derives pairs, inputs and verdict for its
    keys alone and counts each verdict once per set Y sharing the key.
    The oracle runs once per distinct counted-pair set and class, and the
    closed form once per distinct input tuple and class.

    It also checks that the closed form with the even letters on top and
    every letter at the bottom, summed over every rearrangement class of a
    given weight, reproduces the residue-class descent count with modulus
    2.  The closed form's table is linear in its weighted row, so the rows
    of all classes are summed and differenced once per (alphabet, n).
    """
    result = SuiteResult("hall-remmel")
    for m in range(1, m_max + 1):
        letters = range(1, m + 1)
        subsets = [
            frozenset(combo)
            for size in range(m + 1)
            for combo in itertools.combinations(letters, size)
        ]
        masks = [sum(1 << (x - 1) for x in subset) for subset in subsets]
        # Per relevant mask: its subsets, the keys of one X row, in check order.
        keys_within: dict[int, list[frozenset]] = {}
        for weight in range(weight_max + 1):
            for rho in compositions(weight, m):
                used = sum(1 << (x - 1) for x, reps in enumerate(rho, start=1) if reps)
                oracle_by_pairs: dict[frozenset, dict[int, int]] = {}
                # Keyed by the closed form's own inputs, never by counted pairs.
                closed_by_inputs: dict[tuple, dict[int, int]] = {}
                for tops in subsets:
                    relevant = used & ((1 << (max(tops, default=1) - 1)) - 1)
                    sharing = 1 << (m - relevant.bit_count())
                    keys = keys_within.get(relevant)
                    if keys is None:
                        keys = keys_within[relevant] = [
                            subset for subset, mask in zip(subsets, masks) if not mask & ~relevant
                        ]
                    for bottoms in keys:
                        pairs = counted_pairs(rho, tops, bottoms)
                        if pairs not in oracle_by_pairs:
                            dist = pair_distribution(rho, pairs)
                            oracle_by_pairs[pairs] = {s: dist.get(s, 0) for s in range(weight + 1)}
                        inputs = formulas.hall_remmel_inputs(rho, tops, bottoms)
                        if inputs not in closed_by_inputs:
                            closed_by_inputs[inputs] = formulas.hall_remmel_table(*inputs)
                        result.record(
                            closed_by_inputs[inputs] == oracle_by_pairs[pairs],
                            lambda rho=rho, tops=tops, bottoms=bottoms: f"rearrangement rho={rho} X={sorted(tops)} Y={sorted(bottoms)}",
                            sharing,
                        )

    for alphabet in even_alphabets:
        evens = frozenset(range(2, alphabet + 1, 2))
        everything = frozenset(range(1, alphabet + 1))
        for n in range(even_n_max + 1):
            row = [0] * (n + 1)
            for rho in compositions(n, alphabet):
                weighted = formulas.hall_remmel_row(*formulas.hall_remmel_inputs(rho, evens, everything))
                row = list(map(add, row, weighted))
            summed = formulas.hall_remmel_differences(row)
            residue = formulas.distribution("des-mod", (2, alphabet, 2, n))
            for p in range(n + 1):
                result.record(
                    summed[p] == residue.get(p, 0),
                    lambda alphabet=alphabet, n=n, p=p: f"even-words-sum alphabet={alphabet} n={n} p={p}",
                )
    return result


# Deliberately independent of words.stat_key, so the duality suite shares no code with the engines.
def _des_in(letters: tuple[int, ...], members: frozenset) -> int:
    return sum(
        1
        for i in range(len(letters) - 1)
        if letters[i] > letters[i + 1] and letters[i] in members
    )


def _ris_in(letters: tuple[int, ...], members: frozenset) -> int:
    return sum(
        1
        for i in range(len(letters) - 1)
        if letters[i] < letters[i + 1] and letters[i] in members
    )


def duality_suite(k_max: int = 4, n_max: int = 6) -> SuiteResult:
    """Complement dualities, checked word by word, exhaustively.

    Descents starting in the bottom t letters map to rises starting in the
    top t letters of the complement (and the mirror statement for the top
    block); descents starting in residue class r map to rises starting in
    class ((k - r) mod s) + 1, which reduces to class s + 1 - r when the
    alphabet size is a multiple of s.
    """
    result = SuiteResult("dualities")
    for k in range(1, k_max + 1):
        threshold_sets = [
            (
                frozenset(range(1, t + 1)),
                frozenset(range(k + 1 - t, k + 1)),
                frozenset(range(t + 1, k + 1)),
                frozenset(range(1, k - t + 1)),
            )
            for t in range(k + 1)
        ]
        residue_sets = []
        for s in (2, 3):
            partition = BlockPartition.mod_residue(k, s)
            for r in range(1, s + 1):
                image = (k - r) % s + 1
                residue_sets.append(
                    (
                        s,
                        r,
                        frozenset(partition.letters_in(r)),
                        frozenset(partition.letters_in(image)),
                    )
                )
        for n in range(n_max + 1):
            for letters in itertools.product(range(1, k + 1), repeat=n):
                mirror = tuple(k + 1 - x for x in letters)
                for low, low_mirror, high, high_mirror in threshold_sets:
                    result.record(
                        _des_in(letters, low) == _ris_in(mirror, low_mirror)
                        and _des_in(letters, high) == _ris_in(mirror, high_mirror),
                        lambda k=k, letters=letters, low=low: (
                            f"threshold duality k={k} word={letters} bottom={sorted(low)}"
                        ),
                    )
                for s, r, members, image_members in residue_sets:
                    result.record(
                        _des_in(letters, members) == _ris_in(mirror, image_members),
                        lambda k=k, letters=letters, s=s, r=r: (
                            f"residue duality k={k} word={letters} s={s} r={r}"
                        ),
                    )
    return result


def series_weight_suite(k_max: int = 3, n_max: int = 4) -> SuiteResult:
    """Composition series against the word series after summing out weights.

    With a common part-count marker q, collecting the q^n slice of every
    weight coefficient of the composition series and summing must give the
    q^n coefficient of the word series, provided the truncation reaches
    k*n.
    """
    result = SuiteResult("series-weight-compatibility")
    for k in range(1, k_max + 1):
        for partition in [BlockPartition.threshold(k, 1), BlockPartition.mod_residue(k, 2)]:
            t = partition.t
            spec = TrackingSpec(
                x=(True,) * t, y=(True,) * t, z=(True,) * t, per_block_q=False
            )
            word_series = build_ak_series(k, partition, spec, n_max)
            comp_series = build_bk_series(k, partition, spec, k * n_max)
            q_pos = comp_series.names.index("q")
            for n in range(n_max + 1):
                collected: dict[tuple[int, ...], int] = {}
                for w in range(comp_series.order + 1):
                    for exps, coeff in comp_series.coefficient(w).exponents().items():
                        if exps[q_pos] == n:
                            key = tuple(e for i, e in enumerate(exps) if i != q_pos)
                            collected[key] = collected.get(key, 0) + coeff
                collected = {key: c for key, c in collected.items() if c}
                result.record(
                    collected == word_series.coefficient(n).exponents(),
                    lambda k=k, n=n, partition=partition: f"weight-compat k={k} n={n} partition={partition.blocks}",
                )
    return result


@dataclass
class ErrataCase:
    """One resolved transcription ambiguity in the mod-class formulas."""

    name: str
    shipped_ok: bool
    rejected_counterexample: tuple | None
    rejected_value: int | None = None
    oracle_value: int | None = None

    @property
    def resolved(self) -> bool:
        return self.shipped_ok and self.rejected_counterexample is not None


def des_mod_errata(alphabet_max: int = 6, n_max: int = 7) -> list[ErrataCase]:
    """Show that exactly one reading of each ambiguous mod-class formula survives.

    For each of the three formula regimes the shipped variant must match
    the oracle over the whole ``des-mod`` grid while the rejected variant
    must break on at least one tuple.
    """
    names = ("aligned-power-base", "offset-high-sum-index", "offset-low-sum-index")
    cases = {name: ErrataCase(name, True, None) for name in names}
    forms = formulas.FAMILIES["des-mod"]
    for params, values in forms.grid(alphabet_max, n_max):
        s, alphabet, r, n = params
        t = alphabet % s
        if t == 0:
            case = cases["aligned-power-base"]
            ambiguous = r != s  # the two power bases coincide at r = s
        elif r > t:
            case = cases["offset-high-sum-index"]
            ambiguous = True
        else:
            case = cases["offset-low-sum-index"]
            ambiguous = True
        need_example = ambiguous and case.rejected_counterexample is None
        if not (need_example or case.shipped_ok):
            continue
        table = formulas.distribution("des-mod", params)
        marginal = statistic_distribution(*forms.query(*params))
        for p in values:
            shipped, want = table.get(p, 0), marginal.get((p,), 0)
            if shipped != want:
                case.shipped_ok = False
            if need_example:
                rejected = formulas.count_des_mod_uncorrected(*params, p)
                if rejected != want:
                    case.rejected_counterexample = (*params, p)
                    case.rejected_value = rejected
                    case.oracle_value = want
                    need_example = False
    return list(cases.values())
