"""Cross-engine verification suites.

Each suite sweeps a parameter grid and compares two independent routes to
the same exact number: enumeration vs dynamic program, closed form vs
oracle, series coefficient vs oracle, direct count vs general formula.
Results come back as a summary; the first mismatch is recorded verbatim so
a failing run is immediately actionable.

``formulas_vs_oracle`` accepts ``corrupt=True``, which deliberately skews
one closed form by +1.  That run must fail; it is the self-test proving
the harness can actually see a wrong constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import formulas, identities
from .oracle import (
    brute_distribution,
    counted_pairs,
    pair_distribution,
    statistic_distribution,
    transfer_distribution,
)
from .series import TrackingSpec, build_ak_series, build_bk_series, coefficient_distribution
from .words import BlockPartition
from .combinat import compositions


@dataclass
class SuiteResult:
    suite: str
    checked: int
    failures: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


class _Tally:
    def __init__(self, suite: str):
        self.result = SuiteResult(suite, 0, 0)

    def record(self, ok: bool, describe) -> None:
        self.result.checked += 1
        if not ok:
            self.result.failures += 1
            if self.result.first_failure is None:
                self.result.first_failure = describe()


def _grid_partitions(k: int, moduli=(2, 3)) -> list[BlockPartition]:
    parts = [BlockPartition.threshold(k, t) for t in range(0, k + 1)]
    parts.extend(BlockPartition.mod_residue(k, s) for s in moduli)
    return parts


def oracle_vs_transfer(k_max: int = 4, n_max: int = 8, budget: int | None = None) -> SuiteResult:
    """Exhaustive enumeration against the dynamic program, full joint equality."""
    tally = _Tally("oracle-vs-transfer")
    for k in range(1, k_max + 1):
        for partition in _grid_partitions(k):
            for n in range(n_max + 1):
                brute = brute_distribution(k, n, partition, budget=budget)
                transfer = transfer_distribution(k, n, partition)
                tally.record(
                    brute == transfer and brute.total() == k**n,
                    lambda k=k, n=n, partition=partition: f"k={k} n={n} partition={partition.blocks}",
                )
    return tally.result


def series_vs_oracle(k_max: int = 4, n_max: int = 6) -> SuiteResult:
    """Fully tracked word-series coefficients against the transfer oracle."""
    tally = _Tally("series-vs-oracle")
    for k in range(1, k_max + 1):
        for partition in _grid_partitions(k):
            spec = TrackingSpec.all_tracked(partition.t)
            series = build_ak_series(k, partition, spec, n_max)
            for n in range(n_max + 1):
                got = coefficient_distribution(series, spec, partition, n)
                want = transfer_distribution(k, n, partition)
                tally.record(
                    got == want,
                    lambda k=k, n=n, partition=partition: f"k={k} n={n} partition={partition.blocks}",
                )
    return tally.result


def formulas_vs_oracle(
    alphabet_max: int = 6, n_max: int = 7, corrupt: bool = False
) -> SuiteResult:
    """Every closed form against the reduced transfer oracle, on a dense grid."""
    skew = 1 if corrupt else 0
    tally = _Tally("formulas-vs-oracle")

    for k in range(1, alphabet_max + 1):
        for t in range(0, k + 1):
            partition = BlockPartition.threshold(k, t)
            for n in range(n_max + 1):
                lev1 = statistic_distribution(k, n, partition, [(1, "lev")])
                des1 = statistic_distribution(k, n, partition, [(1, "des")])
                des2 = statistic_distribution(k, n, partition, [(2, "des")])
                for s in range(n + 1):
                    if t >= 1:
                        tally.record(
                            formulas.count_levels_threshold(k, t, n, s) + skew
                            == lev1.get((s,), 0),
                            lambda k=k, t=t, n=n, s=s: f"levels-threshold k={k} t={t} n={n} s={s}",
                        )
                        tally.record(
                            formulas.count_des_le(k, t, n, s) == des1.get((s,), 0),
                            lambda k=k, t=t, n=n, s=s: f"des-le k={k} t={t} n={n} s={s}",
                        )
                    tally.record(
                        formulas.count_des_gt(k, t, n, s) == des2.get((s,), 0),
                        lambda k=k, t=t, n=n, s=s: f"des-gt k={k} t={t} n={n} s={s}",
                    )

    for k in range(1, alphabet_max + 1):
        for partition in _grid_partitions(k):
            sizes = partition.block_sizes()
            coords = [(i, "lev") for i in range(1, partition.t + 1)]
            for n in range(n_max + 1):
                joint = statistic_distribution(k, n, partition, coords)
                for targets in itertools.product(range(n + 1), repeat=partition.t):
                    if sum(targets) > max(n - 1, 0):
                        continue
                    tally.record(
                        formulas.count_levels_blocks(sizes, n, targets)
                        == joint.get(targets, 0),
                        lambda sizes=sizes, n=n, targets=targets: f"levels-blocks sizes={sizes} n={n} targets={targets}",
                    )

    for alphabet in range(1, alphabet_max + 1):
        for s in range(2, alphabet_max + 2):
            partition = BlockPartition.mod_residue(alphabet, s)
            for n in range(n_max + 1):
                for r in range(1, s + 1):
                    marginal = statistic_distribution(alphabet, n, partition, [(r, "des")])
                    for p in range(n + 1):
                        tally.record(
                            formulas.count_des_mod(s, alphabet, r, n, p)
                            == marginal.get((p,), 0),
                            lambda s=s, alphabet=alphabet, r=r, n=n, p=p: f"des-mod s={s} alphabet={alphabet} r={r} n={n} p={p}",
                        )
    return tally.result


def identities_suite(top_n_max: int = 12, two_bottom_n_max: int = 10) -> SuiteResult:
    """Both binomial identities on their full grids, plus the direct counts."""
    tally = _Tally("identities")
    for n in range(top_n_max + 1):
        for r in range(n + 1):
            for s in range(n + 1):
                report = identities.check_top_letter_identity(n, r, s)
                tally.record(
                    report.ok,
                    lambda report=report: f"{report.identity} {report.params}: {report.lhs} != {report.rhs} (alt {report.alt_rhs})",
                )
    for n in range(two_bottom_n_max + 1):
        for r in range(n + 1):
            for s in range(n + 1):
                report = identities.check_two_bottom_identity(n, r, s)
                tally.record(
                    report.ok,
                    lambda report=report: f"{report.identity} {report.params}: {report.lhs} != {report.rhs} (alt {report.alt_rhs})",
                )
    for k in range(1, 7):
        for n in range(9):
            for s in range(n + 1):
                tally.record(
                    identities.direct_count_top_letter(k, n, s)
                    == formulas.count_des_gt(k, k - 1, n, s),
                    lambda k=k, n=n, s=s: f"direct-top k={k} n={n} s={s}",
                )
    for k in range(2, 7):
        for n in range(9):
            for s in range(n + 1):
                tally.record(
                    identities.direct_count_two_bottom(k, n, s)
                    == formulas.count_des_le(k, 2, n, s),
                    lambda k=k, n=n, s=s: f"direct-two-bottom k={k} n={n} s={s}",
                )
    return tally.result


def hall_remmel_suite(
    m_max: int = 4,
    weight_max: int = 7,
    even_alphabets: tuple[int, ...] = (2, 4),
    even_n_max: int = 6,
) -> SuiteResult:
    """Rearrangement-class closed form against its oracle, all letter sets.

    The oracle's answer depends on (X, Y) only through the set of counted
    descent pairs, so it runs once per distinct set and class; the closed
    form is evaluated for every (X, Y).  Also checks that the closed form
    with the even letters on top and every letter at the bottom, summed
    over every rearrangement class of a given weight, reproduces the
    residue-class descent count with modulus 2.
    """
    tally = _Tally("hall-remmel")
    for m in range(1, m_max + 1):
        letters = range(1, m + 1)
        subsets = [
            frozenset(combo)
            for size in range(m + 1)
            for combo in itertools.combinations(letters, size)
        ]
        for weight in range(weight_max + 1):
            for rho in compositions(weight, m):
                oracle_by_pairs: dict[frozenset, dict[int, int]] = {}
                for tops in subsets:
                    for bottoms in subsets:
                        pairs = counted_pairs(rho, tops, bottoms)
                        if pairs not in oracle_by_pairs:
                            dist = pair_distribution(rho, pairs)
                            oracle_by_pairs[pairs] = {s: dist.get(s, 0) for s in range(weight + 1)}
                        table = formulas.distribution("hall-remmel", (rho, tops, bottoms))
                        tally.record(
                            table == oracle_by_pairs[pairs],
                            lambda rho=rho, tops=tops, bottoms=bottoms: f"rearrangement rho={rho} X={sorted(tops)} Y={sorted(bottoms)}",
                        )

    for alphabet in even_alphabets:
        evens = frozenset(range(2, alphabet + 1, 2))
        everything = frozenset(range(1, alphabet + 1))
        for n in range(even_n_max + 1):
            summed = [0] * (n + 1)
            for rho in compositions(n, alphabet):
                table = formulas.distribution("hall-remmel", (rho, evens, everything))
                for p in range(n + 1):
                    summed[p] += table[p]
            residue = formulas.distribution("des-mod", (2, alphabet, 2, n))
            for p in range(n + 1):
                tally.record(
                    summed[p] == residue.get(p, 0),
                    lambda alphabet=alphabet, n=n, p=p: f"even-words-sum alphabet={alphabet} n={n} p={p}",
                )
    return tally.result


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
    tally = _Tally("dualities")
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
                    tally.record(
                        _des_in(letters, low) == _ris_in(mirror, low_mirror)
                        and _des_in(letters, high) == _ris_in(mirror, high_mirror),
                        lambda k=k, letters=letters, low=low: (
                            f"threshold duality k={k} word={letters} bottom={sorted(low)}"
                        ),
                    )
                for s, r, members, image_members in residue_sets:
                    tally.record(
                        _des_in(letters, members) == _ris_in(mirror, image_members),
                        lambda k=k, letters=letters, s=s, r=r: (
                            f"residue duality k={k} word={letters} s={s} r={r}"
                        ),
                    )
    return tally.result


def series_weight_suite(k_max: int = 3, n_max: int = 4) -> SuiteResult:
    """Composition series against the word series after summing out weights.

    With a common part-count marker q, collecting the q^n slice of every
    weight coefficient of the composition series and summing must give the
    q^n coefficient of the word series, provided the truncation reaches
    k*n.
    """
    tally = _Tally("series-weight-compatibility")
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
                    for exps, coeff in comp_series.coefficient(w).terms.items():
                        if exps[q_pos] == n:
                            key = tuple(e for i, e in enumerate(exps) if i != q_pos)
                            collected[key] = collected.get(key, 0) + coeff
                collected = {key: c for key, c in collected.items() if c}
                tally.record(
                    collected == word_series.coefficient(n).terms,
                    lambda k=k, n=n, partition=partition: f"weight-compat k={k} n={n} partition={partition.blocks}",
                )
    return tally.result


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
    the oracle over the whole grid while the rejected variant must break
    on at least one tuple.
    """
    cases = {
        "aligned-power-base": ErrataCase("aligned-power-base", True, None),
        "offset-high-sum-index": ErrataCase("offset-high-sum-index", True, None),
        "offset-low-sum-index": ErrataCase("offset-low-sum-index", True, None),
    }
    for alphabet in range(1, alphabet_max + 1):
        for s in range(2, alphabet_max + 2):
            partition = BlockPartition.mod_residue(alphabet, s)
            t = alphabet % s
            for n in range(n_max + 1):
                for r in range(1, s + 1):
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
                    marginal = statistic_distribution(
                        alphabet, n, partition, [(r, "des")]
                    )
                    for p in range(n + 1):
                        want = marginal.get((p,), 0)
                        if formulas.count_des_mod(s, alphabet, r, n, p) != want:
                            case.shipped_ok = False
                        if need_example:
                            rejected = formulas.count_des_mod_uncorrected(
                                s, alphabet, r, n, p
                            )
                            if rejected != want:
                                case.rejected_counterexample = (s, alphabet, r, n, p)
                                case.rejected_value = rejected
                                case.oracle_value = want
                                need_example = False
    return list(cases.values())

