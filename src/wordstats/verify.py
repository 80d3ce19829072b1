"""Cross-engine verification suites.

Each suite sweeps a parameter grid and compares two independent routes to
the same exact number: enumeration vs dynamic program, closed form vs
oracle, series coefficient vs oracle, direct count vs general formula.
Results come back as a summary; the first mismatch is recorded verbatim so
a failing run is immediately actionable.

The pairwise checks read two engines through ``_walk``, one pass of each
per distinct grid head: ``oracle_vs_transfer`` and ``series_vs_oracle``
over each k's grid partitions, which compare the engines' packed tallies
of the full joint as int-keyed dicts and decode no key (see
``_joint_sweep``), ``formulas_vs_oracle`` and ``des_mod_errata``
over each family's grid in ``formulas.FAMILIES``, which names a failing
check, and the even-words sums of ``hall_remmel_suite``.  Each pass is
asked for every length by keyword, ``first=0``.  The family suites read
the closed form's ``packed`` pass and the DP's ``statistic_tallies``,
one tally layout (see ``combinat``), through ``_packed_walk``; ``_agree``
compares two tallies as they are, and a cell is decoded, keyed as the
family's table (``FamilyForms.keyed``), only to name a failing value or
to look for a rejected reading's counterexample.
``hall_remmel_suite`` derives each class shape, the class's nonzero
multiplicities in letter order, once per call, so classes that differ only
by unused letters share one derivation and one verdict; it asks each engine
each distinct question once per call: the DP by the shape and its counted
pairs, and the closed form by its own inputs.
``corrupt=True`` skews ``formulas_vs_oracle``'s closed-form
``levels-threshold`` answers by +1; that self-test must fail.
``duality_suite`` checks the complement dualities on ``words.stat_key`` itself.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import formulas, identities
from .formulas import _grid_partitions
# The single-length engines are not called here; bench/tracing.py wraps them at verify.
from .oracle import (
    brute_distribution,
    brute_tallies,
    compact_keys,
    counted_pairs,
    pair_distribution,
    statistic_distribution,
    statistic_tallies,
    transfer_distribution,
    transfer_tallies,
)
from .series import TrackingSpec, build_ak_series, build_bk_series, statistic_keys
from .words import BlockPartition, InputError, Record, stat_key
from .combinat import compositions, decode_tally, differences, respace, tally_units


class SuiteResult(Record):
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


def _walk(cells, n_max: int, passes):
    """Each ``(params, values)`` cell of a grid, then two engines' answers at its length n.

    Params are a head, then n; each run of a head's cells goes n = 0..n_max.
    ``passes(*head, n_max)`` gives both engines' passes to n_max, each an
    iterable of the answers at lengths 0..n_max, called once per distinct
    head however many runs the grid gives it, and before any answer of the
    head is read.
    """
    cells = list(cells)
    runs = Counter(params[:-1] for params, _ in cells if params[-1] == 0)
    copies: dict[tuple, list] = {}
    for params, values in cells:
        head = params[:-1]
        if params[-1] == 0:
            if head not in copies:
                # One copy per run of the head's cells; tee drops an answer once every copy has read it.
                copies[head] = list(itertools.tee(zip(*passes(*head, n_max)), runs[head]))
            answers = copies[head].pop()
        yield params, values, *next(answers)


def _joint_sweep(suite: str, k_max: int, n_max: int, passes) -> SuiteResult:
    """Two engines' tallies of the full joint, ``passes(k, partition, n)``, over each k's grid partitions.

    Both passes tally the words of each length 0..n in one packed layout,
    key -> number of words, so a cell checks ``got == want`` on the two
    int-keyed dicts and that they hold all k**n words; no key is decoded.
    """
    result = SuiteResult(suite)
    cells = (((k, p, n), None) for k in range(1, k_max + 1) for p in _grid_partitions(k) for n in range(n_max + 1))
    for (k, partition, n), _, got, want in _walk(cells, n_max, passes):
        result.record(
            got == want and sum(want.values()) == k**n,
            lambda k=k, n=n, partition=partition: f"k={k} n={n} partition={partition.blocks}",
        )
    return result


def oracle_vs_transfer(k_max: int = 4, n_max: int = 8) -> SuiteResult:
    """Exhaustive enumeration against the dynamic program, full joint equality.

    The walk and the DP both tally in the compact layout, ``compact_keys``.
    """
    passes = lambda k, partition, n: (
        brute_tallies(k, n, partition, first=0),
        transfer_tallies(k, n, partition, compact_keys(n, partition.t), first=0),
    )
    return _joint_sweep("oracle-vs-transfer", k_max, n_max, passes)


def series_vs_oracle(k_max: int = 4, n_max: int = 6) -> SuiteResult:
    """Fully tracked word-series coefficients against the transfer oracle.

    The DP tallies in the series' own key layout (``series.statistic_keys``), so each
    coefficient's terms are compared as they are.  The series is built
    before the DP pass starts, so its refusal of a carried key comes first.
    Every key of a length-n word has degree 2n - 1 in that layout, n
    letters and n - 1 pairs, so the DP's keys carry only where the series'
    own check (``polynomials.adopt``) refuses.
    """

    def passes(k: int, partition: BlockPartition, n: int):
        spec = TrackingSpec.all_tracked(partition.t)
        series = build_ak_series(k, partition, spec, n)
        return [c.terms for c in series.coeffs], transfer_tallies(k, n, partition, statistic_keys(spec), first=0)

    return _joint_sweep("series-vs-oracle", k_max, n_max, passes)


def _packed_walk(forms: formulas.FamilyForms, alphabet_max: int, n_max: int):
    """``_walk`` over a family's grid: the closed form's ``packed`` pass and the DP's, each per length a (field bytes, tally)."""
    passes = lambda *params: (forms.packed(*params, first=0), statistic_tallies(*forms.query(*params), first=0))
    return _walk(forms.grid(alphabet_max, n_max), n_max, passes)


def _agree(answer: tuple[int, dict], other: tuple[int, dict]) -> bool:
    """Whether two (field bytes, tally) answers hold the same counts: the narrower re-laid in the wider fields."""
    (size, tally), (wider, wide) = sorted((answer, other), key=lambda pair: pair[0])
    if size < wider:
        tally = {key: respace(packed, size, wider) for key, packed in tally.items()}
    return tally == wide


def _decoded(forms: formulas.FamilyForms, params: tuple, answer: tuple[int, dict], n_max: int) -> dict:
    """A cell's (field bytes, tally) answer, in a pass to n_max, keyed as the family's table."""
    return forms.keyed(decode_tally(answer, n_max + 1, len(forms.query(*params)[3])))


def formulas_vs_oracle(
    alphabet_max: int = 6, n_max: int = 7, corrupt: bool = False
) -> SuiteResult:
    """Every closed form against the reduced transfer oracle, on a dense grid.

    Each cell of a family's declared grid holds one check per statistic
    value, read from one pass of each engine to n_max per distinct head.
    A cell whose two tallies agree (``_agree``) counts its checks at once;
    any other is decoded and compared value by value.  A ``corrupt`` run
    adds 1 to every field 0..n of the closed form's ``levels-threshold``
    answers.  It needs ``alphabet_max >= 1``: below that no skewed entry
    is checked, and the run could not fail.
    """
    if corrupt and alphabet_max < 1:
        raise InputError(
            f"an injected fault is checked only with alphabet_max (--k-max) at least 1, got {alphabet_max}"
        )
    result = SuiteResult("formulas-vs-oracle")
    for family, forms in formulas.FAMILIES.items():  # hall-remmel's grid has no cells
        skewed = corrupt and family == "levels-threshold"
        for params, values, table, marginal in _packed_walk(forms, alphabet_max, n_max):
            if skewed:
                size, tally = table
                [(_, shift)] = tally_units(1, size, n_max + 1)
                table = size, {0: tally.get(0, 0) + sum(1 << shift * value for value in values)}
            if _agree(table, marginal):
                result.record(True, None, len(values))
                continue
            got, want = (_decoded(forms, params, answer, n_max) for answer in (table, marginal))
            for value in values:
                result.record(
                    got.get(value, 0) == want.get(value, 0),
                    lambda cell=(*params, value): " ".join([family, *map("{}={}".format, forms.names, cell)]),
                )
    return result


def identities_suite(top_n_max: int = 12, two_bottom_n_max: int = 10) -> SuiteResult:
    """Both binomial identities on their full grids, plus the direct counts.

    A row (n, r) holds the n + 1 checks s = 0..n.  Its two sides come as
    two lists, and a row whose lists agree counts its checks at once; a
    row that disagrees is compared cell by cell, and only the first
    failing cell has its report built, to name it.
    """
    result = SuiteResult("identities")
    rows = (
        (identities.top_letter_sides, identities.check_top_letter_identity, top_n_max),
        (identities.two_bottom_sides, identities.check_two_bottom_identity, two_bottom_n_max),
    )
    for sides, check, n_max in rows:
        for n in range(n_max + 1):
            for r in range(n + 1):
                lhs, rhs = sides(n, r)
                if lhs == rhs:
                    result.record(True, None, n + 1)
                    continue
                for s, (left, right) in enumerate(zip(lhs, rhs)):
                    result.record(
                        left == right,
                        lambda check=check, n=n, r=r, s=s: "{0.identity} {0.params}: {0.lhs} != {0.rhs} (alt {0.alt_rhs})".format(check(n, r, s)),
                    )
    # Per direct count: the closed form it equals at each (alphabet, threshold).
    direct = (
        ("direct-top", identities.direct_count_top_letter, "des-gt", [(k, k - 1) for k in range(1, 7)]),
        ("direct-two-bottom", identities.direct_count_two_bottom, "des-le", [(k, 2) for k in range(2, 7)]),
    )
    for name, count, family, cells in direct:
        for k, t in cells:
            # One closed-form pass per (k, t) answers every n and s of the cell.
            for n, table in enumerate(formulas.FAMILIES[family].tables(k, t, 8, first=0)):
                for s in range(n + 1):
                    result.record(
                        count(k, n, s) == table.get(s, 0),
                        lambda name=name, k=k, n=n, s=s: f"{name} k={k} n={n} s={s}",
                    )
    return result


def hall_remmel_suite(m_max: int = 4, weight_max: int = 7, even_n_max: int = 6) -> SuiteResult:
    """Rearrangement-class closed form against its oracle, all letter sets.

    A check runs for every class rho and every pair (X, Y) of top and
    bottom letter sets, X major, each set in order of size, then
    lexicographically.  A letter of multiplicity 0 enters neither the
    counted descent pairs nor the closed form's inputs, so, each used
    letter renamed by its rank, rho with (X, Y) asks what its shape asks
    with the used letters of X and Y: the shape is rho's nonzero
    multiplicities in letter order, and (2, 1), (2, 1, 0), (2, 0, 1) and
    (0, 2, 1) share one.  Each shape's rows are derived once per call, as
    the class of len(shape) letters.  The X rows run over the sets U of its
    letters.  Let R be the letters below the largest letter of U; pairs and
    inputs depend on Y only through its key, Y & R, so each U row derives
    pairs, inputs and verdict for its keys only.  A class of m letters
    counts the verdict of a row once per pair (X, Y) that shares U and the
    key, X adding any of the m - |used| unused letters to U and Y any of
    the m - |R| letters outside R to the key, the first of them in check
    order U and the key themselves, letters mapped back through the used
    ones.  So a class whose shape passes records all its checks at once,
    and only a failing shape's rows are walked, in check order, to name
    the class's first failing pair.  Both answers are kept for the whole
    call, each keyed by its own engine's question: the oracle runs once per
    distinct shape and counted pairs, and the closed form once per distinct
    ``hall_remmel_inputs`` tuple, which shapes may share.

    It also checks, on the alphabets of sizes 2 and 4, that the closed form
    with the even letters on top and every letter at the bottom, summed
    over every rearrangement class of a given weight, reproduces the
    residue-class descent count with modulus 2.  The closed form's table
    is linear in its weighted row, so the rows summed over the classes of
    each weight are differenced once per (alphabet, n), by the same
    ``combinat.differences`` as each class's table.  One letter pass per alphabet
    (``formulas.hall_remmel_summed_rows``) gives the summed rows of every
    n without enumerating a class, building its factors from the same
    ``formulas.hall_remmel_weights`` as each class's row, and one residue
    pass per alphabet gives every n.
    """
    result = SuiteResult("hall-remmel")
    # Per tuple of letters: its sets in check order, the U of a shape or the keys of a U row.
    sets_of: dict[tuple, list[frozenset]] = {}
    # Both answers for the whole call: the oracle's by its own question, the closed form's by its own inputs.
    oracle_by_question: dict[tuple, dict[int, int]] = {}
    closed_by_inputs: dict[tuple, dict[int, int]] = {}
    # Per shape: the checks its passing rows count at m = len(shape), and its failing (U, key, checks) rows.
    summaries: dict[tuple, tuple[int, list]] = {}
    for m in range(1, m_max + 1):
        for weight in range(weight_max + 1):
            for rho in compositions(weight, m):
                used = tuple(x for x, reps in enumerate(rho, start=1) if reps)
                shape = tuple(rho[x - 1] for x in used)
                if shape not in summaries:
                    letters = tuple(range(1, len(shape) + 1))
                    passed, failing = 0, []
                    for tops in _sets_of(letters, sets_of):
                        relevant = letters[: max(tops, default=1) - 1]
                        for bottoms in _sets_of(relevant, sets_of):
                            question = shape, counted_pairs(shape, tops, bottoms)
                            if question not in oracle_by_question:
                                dist = pair_distribution(*question)
                                oracle_by_question[question] = {s: dist.get(s, 0) for s in range(weight + 1)}
                            inputs = formulas.hall_remmel_inputs(shape, tops, bottoms)
                            if inputs not in closed_by_inputs:
                                closed_by_inputs[inputs] = formulas.hall_remmel_table(*inputs)
                            checks = 1 << (len(letters) - len(relevant))
                            if closed_by_inputs[inputs] == oracle_by_question[question]:
                                passed += checks
                            else:
                                failing.append((tops, bottoms, checks))
                    summaries[shape] = passed, failing
                passed, failing = summaries[shape]
                # Each unused letter doubles the sets X, and the sets Y, that a row stands for.
                spread = 2 * (m - len(used))
                result.record(True, None, passed << spread)
                for tops, bottoms, checks in failing:
                    # The row's letters back through used, as the class's sets.
                    x, y = (sorted(used[a - 1] for a in ranks) for ranks in (tops, bottoms))
                    result.record(False, lambda rho=rho, x=x, y=y: f"rearrangement rho={rho} X={x} Y={y}", checks << spread)

    passes = lambda alphabet, n: (
        formulas.hall_remmel_summed_rows(alphabet, range(2, alphabet + 1, 2), n),
        formulas.FAMILIES["des-mod"].tables(2, alphabet, 2, n, first=0),
    )
    for (alphabet, n), values, row, residue in _walk(formulas._lengths([(2,), (4,)], even_n_max), even_n_max, passes):
        summed = differences(row)
        for p in values:
            result.record(
                summed[p] == residue.get(p, 0),
                lambda alphabet=alphabet, n=n, p=p: f"even-words-sum alphabet={alphabet} n={n} p={p}",
            )
    return result


def _sets_of(letters: tuple[int, ...], known: dict) -> list[frozenset]:
    """Every set of ``letters``, by size, then lexicographically; kept in ``known``."""
    sets = known.get(letters)
    if sets is None:
        sets = known[letters] = [
            frozenset(combo) for size in range(len(letters) + 1) for combo in itertools.combinations(letters, size)
        ]
    return sets


def duality_suite(k_max: int = 4, n_max: int = 6) -> SuiteResult:
    """Complement dualities, checked word by word, exhaustively.

    Descents starting in the bottom t letters map to rises starting in the
    top t letters of the complement (and the mirror statement for the top
    block); descents starting in residue class r map to rises starting in
    class ((k - r) mod s) + 1, which reduces to class s + 1 - r when the
    alphabet size is a multiple of s.  Both sides are read from
    ``stat_key`` with one block per letter, once per word and once per
    complement, and summed over each side's letters.
    """
    result = SuiteResult("dualities")
    for k in range(1, k_max + 1):
        alphabet = range(1, k + 1)
        # Each side's letters as a slice of the per-letter rows: the word's descents, the complement's rises.
        thresholds = [(t, (slice(t), slice(k - t, k)), (slice(t, k), slice(k - t))) for t in range(k + 1)]
        residues = [(s, r, (slice(r - 1, k, s), slice((k - r) % s, k, s))) for s in (2, 3) for r in range(1, s + 1)]
        for n in range(n_max + 1):
            for letters in itertools.product(alphabet, repeat=n):
                des = [row[0] for row in stat_key(letters, alphabet, k)]
                ris = [row[1] for row in stat_key([k + 1 - x for x in letters], alphabet, k)]
                for t, (low, low_image), (high, high_image) in thresholds:
                    result.record(
                        sum(des[low]) == sum(ris[low_image]) and sum(des[high]) == sum(ris[high_image]),
                        lambda k=k, letters=letters, t=t: f"threshold duality k={k} word={letters} bottom={list(range(1, t + 1))}",
                    )
                for s, r, (members, image) in residues:
                    result.record(
                        sum(des[members]) == sum(ris[image]),
                        lambda k=k, letters=letters, s=s, r=r: f"residue duality k={k} word={letters} s={s} r={r}",
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
    if n_max < 0:  # a negative bound checks nothing, as in every suite; no series is built
        return result
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


class ErrataCase(Record):
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
    for params, values, table, marginal in _packed_walk(forms, alphabet_max, n_max):
        s, alphabet, r, n = params
        t = alphabet % s
        case = cases["aligned-power-base" if t == 0 else "offset-high-sum-index" if r > t else "offset-low-sum-index"]
        # Every cell is ambiguous but an aligned one at r = s, where the two power bases coincide.
        need_example = (t != 0 or r != s) and case.rejected_counterexample is None
        case.shipped_ok = case.shipped_ok and _agree(table, marginal)
        if not need_example:
            continue
        marginal = _decoded(forms, params, marginal, n_max)
        for p in values:
            want, rejected = marginal.get(p, 0), formulas.count_des_mod_uncorrected(s, alphabet, r, n, p)
            if rejected != want:
                case.rejected_counterexample = (s, alphabet, r, n, p)
                case.rejected_value = rejected
                case.oracle_value = want
                break
    return list(cases.values())
