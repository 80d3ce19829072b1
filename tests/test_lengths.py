"""One pass to length n_max hands out every shorter length on its way.

Each engine loop runs once to n_max and yields the lengths it passes;
every length read off that pass must equal the single-length call at that
length, on every head of the verify grids.  A single-length call decodes
its own length and no other.
"""

import pytest

from wordstats import combinat, formulas, oracle
from wordstats.combinat import _digits, decode_tally, field_bytes, unpack
from wordstats.formulas import _grid_partitions
from wordstats.oracle import (
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
from wordstats.words import BlockPartition, InputError, _STAT_INDEX

N_MAXES = [0, 1, 3, 7]
WORD_FAMILIES = [family for family, forms in formulas.FAMILIES.items() if forms.query]


def _decoded(tally, n_max, t):
    """A tally in ``compact_keys(n_max, t)``'s layout, keyed by per-block (des, ris, lev, cnt) tuples.

    Coordinate (block i, statistic j) is slot 4(i - 1) + j of 4t, slot 0 highest: bit field
    4t - 4i + 3 - j of n_max.bit_length() bits.
    """
    width = n_max.bit_length()
    fields = {(i, j): 4 * t - 1 - 4 * i - j for i in range(t) for j in range(4)}
    entries = {}
    for key, count in tally.items():
        values = {(i, j): key >> width * field & (1 << width) - 1 for (i, j), field in fields.items()}
        assert sum(v << width * fields[i, j] for (i, j), v in values.items()) == key
        entries[tuple(tuple(values[i, j] for j in range(4)) for i in range(t))] = count
    return entries


@pytest.mark.parametrize("n_max", N_MAXES)
def test_full_dp_and_walk_lengths_are_the_single_length_calls(n_max):
    for k in range(1, 5):
        for partition in _grid_partitions(k):
            keys = compact_keys(n_max, partition.t)
            passes = {
                "transfer": (list(transfer_tallies(k, n_max, partition, keys, first=0)), transfer_distribution),
                "brute": (brute_tallies(k, n_max, partition, first=0), brute_distribution),
            }
            for engine, (lengths, single) in passes.items():
                assert len(lengths) == n_max + 1
                for n, tally in enumerate(lengths):
                    assert _decoded(tally, n_max, partition.t) == single(k, n, partition).entries, (engine, k, n)


@pytest.mark.parametrize("n_max", N_MAXES)
@pytest.mark.parametrize("family", WORD_FAMILIES)
def test_reduced_dp_lengths_are_the_single_length_calls(family, n_max):
    # The threshold and residue queries keep every coordinate dense; a levels-blocks
    # head of three or more blocks keys its third level in the kernel's dicts.
    forms = formulas.FAMILIES[family]
    for head in forms.grid(4):
        query = forms.query(*head, n_max)
        lengths = [decode_tally(answer, len(query[3])) for answer in statistic_tallies(*query, first=0)]
        assert len(lengths) == n_max + 1
        for n, marginal in enumerate(lengths):
            assert marginal == statistic_distribution(*forms.query(*head, n)), (family, head, n)


@pytest.mark.parametrize("n_max", N_MAXES)
@pytest.mark.parametrize("family", WORD_FAMILIES)
def test_closed_form_lengths_are_the_single_length_tables(family, n_max):
    # A sweep's answers are laid out in radix n_max + 1, so a one-coordinate table lists 0..n_max.
    forms = formulas.FAMILIES[family]
    for head in forms.grid(4):
        lengths = [forms.decode((*head, n), answer) for n, answer in enumerate(forms.packed(*head, n_max, first=0))]
        assert len(lengths) == n_max + 1
        for n, table in enumerate(lengths):
            single = formulas.distribution(family, (*head, n))
            assert {key: count for key, count in table.items() if count} == {
                key: count for key, count in single.items() if count
            }, (family, head, n)


@pytest.mark.parametrize("family", WORD_FAMILIES)
def test_kernel_tallies_decode_to_the_marginals_and_match_the_packed_tables(family):
    # An answer is (field bytes, radix, tally): a tally maps sparse part -> fields of that many
    # bytes; field f of sparse part p is the key p radix**dense + f, dense = min(2, coordinates),
    # read as digits in the answer's radix.  The kernel lays a pass to n in field_bytes(k**n)
    # bytes, digits in radix n + 1.
    forms = formulas.FAMILIES[family]
    for n_max in range(7):
        for head in forms.grid(4):
            k, n, partition, coords = query = forms.query(*head, n_max)
            answers = list(statistic_tallies(*query, first=0))
            assert [answer[:2] for answer in answers] == [(field_bytes(k**n), n + 1)] * (n_max + 1)
            decoded = [
                {_digits(sparse * radix ** min(2, len(coords)) + field, len(coords), radix): count
                 for sparse, packed in tally.items() for field, count in enumerate(unpack(packed, size)) if count}
                for size, radix, tally in answers
            ]
            assert decoded == [decode_tally(answer, len(coords)) for answer in answers], (family, head, n_max)
            # The closed form's packed pass is the same tallies, in the same layout.
            assert list(forms.packed(*head, n_max, first=0)) == answers
            if len(coords) == 1:  # sparse part 0, field s the count of value s
                assert all(list(tally) == [0] for _, _, tally in answers)


# Per family, heads of every regime: empty and full thresholds, three blocks and an empty block,
# both des-mod regimes, and the empty class.
LAYOUT_PARAMS = {
    "levels-threshold": [(3, 2, 6), (1, 1, 3)],
    "levels-blocks": [((2, 1, 1), 6), ((2, 0, 3), 5), ((4,), 4), ((1, 1), 0)],
    "des-le": [(4, 2, 6), (2, 2, 1)],
    "des-gt": [(3, 0, 6), (3, 3, 4)],
    "des-mod": [(3, 7, 2, 6), (2, 4, 2, 5)],
    "hall-remmel": [((2, 0, 3, 1), {2, 3}, {1, 3}), ((), set(), set()), ((3,), {1}, {1}), ((1, 2), {2}, {1, 2})],
}


def _passes(family, params):
    """Each engine's passes for ``params``: a word family's length passes, hall-remmel's one answer each."""
    forms = formulas.FAMILIES[family]
    if forms.query is None:
        rho, tops, bottoms = params
        return [lambda: forms.packed(*params), lambda: iter([pair_distribution(rho, counted_pairs(rho, tops, bottoms))])]
    return [lambda **first: forms.packed(*params, **first), lambda **first: statistic_tallies(*forms.query(*params), **first)]


@pytest.mark.parametrize("family", LAYOUT_PARAMS)
def test_every_answer_carries_its_layout_and_decodes_by_it_alone(family):
    # Closed form and kernel (for hall-remmel, closed form and DP): each answer of a single-length
    # pass and of a first=0 sweep is (field bytes, radix, tally), radix n + 1 for a pass to n or a
    # class of weight n, and decodes, by nothing but itself, to the nonzero counts of ``distribution``.
    assert set(LAYOUT_PARAMS) == set(formulas.FAMILIES)
    forms = formulas.FAMILIES[family]
    nonzero = lambda table: {key: count for key, count in table.items() if count}
    for params in LAYOUT_PARAMS[family]:
        n = params[-1] if forms.query else sum(params[0])
        for run in _passes(family, params):
            [single] = run()
            lengths = [(params, single)]
            if forms.query:
                lengths += [((*params[:-1], j), answer) for j, answer in enumerate(run(first=0))]
                assert len(lengths) == n + 2
            for at, answer in lengths:
                size, radix, tally = answer
                assert (type(size), radix, type(tally)) == (int, n + 1, dict), (family, params, at)
                table = forms.decode(at, answer)
                assert nonzero(table) == nonzero(formulas.distribution(family, at)), (family, params, at)
                assert forms.joint or list(table) == list(range(radix)), (family, params, at)


def test_levels_blocks_engines_pack_alike_on_every_grid_partition():
    # The closed form's pass and the DP's, both to n, as (field bytes, radix, tally) length by length:
    # levels of blocks 1 and 2 in the fields, of blocks 3.. in the keys, digits in radix n + 1.
    forms = formulas.FAMILIES["levels-blocks"]
    for k in range(1, 7):
        for partition in _grid_partitions(k):
            for n in range(8):
                params = partition.block_sizes(), n
                want = list(statistic_tallies(*forms.query(*params), first=0))
                assert list(forms.packed(*params, first=0)) == want, (k, partition.blocks, n)


def test_grids_reach_one_letter_and_dict_keyed_joints():
    # k = 1 heads, and levels-blocks heads of three or more inhabited blocks
    assert (1, 1) in list(formulas.FAMILIES["des-le"].grid(4))
    sizes = [head[0] for head in formulas.FAMILIES["levels-blocks"].grid(4)]
    assert any(sum(1 for size in head if size) >= 3 for head in sizes)


def test_kernel_from_any_first_length_is_the_tail_of_the_whole_pass():
    part = BlockPartition.from_blocks((1, 2, 3, 1))
    coords = [(1, _STAT_INDEX["lev"]), (2, _STAT_INDEX["lev"]), (3, _STAT_INDEX["lev"])]
    # Digits in radix 7, the first ``dense`` of them in fields, the rest in the key; 2 is the tally's layout.
    width, radix = 8 * field_bytes(4**6), 7
    for dense in range(len(coords) + 1):
        units = [(0, width * radix**i) for i in range(dense)] + [(radix**i, 0) for i in range(len(coords) - dense)]
        keys = oracle._letter_keys(part, coords, units)
        whole = list(oracle._kernel(4, 6, part, keys, 0))
        assert len(whole) == 7
        for first in range(8):
            assert list(oracle._kernel(4, 6, part, keys, first)) == whole[first:]
        assert list(oracle._kernel(4, 6, part, keys)) == whole[-1:]
    whole = list(formulas._levels_blocks_table((1, 2, 1), 6, 0))
    assert [list(formulas._levels_blocks_table((1, 2, 1), 6, first)) for first in range(8)] == [
        whole[first:] for first in range(8)
    ]
    whole = list(formulas._des_gt(4, 1, 6, 0))
    assert [list(formulas._des_gt(4, 1, 6, first)) for first in range(8)] == [whole[first:] for first in range(8)]
    walk = brute_tallies(3, 5, BlockPartition.threshold(3, 1), first=0)
    for first in range(7):
        assert brute_tallies(3, 5, BlockPartition.threshold(3, 1), first=first) == walk[first:]


# Every length pass to length 2 over the alphabet [2], by the first length it hands out.
HALVES = BlockPartition.threshold(2, 1)
FAMILY_HEADS = {"levels-threshold": (2, 1), "levels-blocks": ((1, 1),), "des-le": (2, 1), "des-gt": (2, 1),
                "des-mod": (2, 2, 1)}
LENGTH_PASSES = {
    "brute": lambda **first: iter(brute_tallies(2, 2, HALVES, **first)),
    "transfer": lambda **first: transfer_tallies(2, 2, HALVES, compact_keys(2, 2), **first),
    "statistic-tallies": lambda **first: statistic_tallies(2, 2, HALVES, [(1, "des")], **first),
    **{family: lambda family=family, **first: formulas.FAMILIES[family].packed(*FAMILY_HEADS[family], 2, **first)
       for family in WORD_FAMILIES},
}


@pytest.mark.parametrize("engine", LENGTH_PASSES)
def test_a_negative_first_length_is_refused(engine):
    with pytest.raises(InputError, match="^length and statistic value must be nonnegative$"):
        next(LENGTH_PASSES[engine](first=-1))
    assert len(list(LENGTH_PASSES[engine](first=0))) == 3


@pytest.mark.parametrize("engine", LENGTH_PASSES)
def test_a_pass_without_first_yields_length_n_alone(engine):
    whole = list(LENGTH_PASSES[engine](first=0))
    assert list(LENGTH_PASSES[engine]()) == whole[-1:]
    assert list(LENGTH_PASSES[engine](first=None)) == whole[-1:]


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_single_length_decodes_no_shorter_length(monkeypatch):
    # One packed integer per table: a single length unpacks one, a pass one per length.
    unpacked = _counting(monkeypatch, formulas, "unpack")
    formulas.distribution("des-le", (4, 2, 7))
    assert len(unpacked) == 1
    unpacked.clear()
    forms = formulas.FAMILIES["des-le"]
    [forms.decode((4, 2, n), answer) for n, answer in enumerate(forms.packed(4, 2, 7, first=0))]
    assert len(unpacked) == 8
    # A levels-blocks table decodes one tally per length.
    decoded = _counting(monkeypatch, formulas, "decode_tally")
    formulas.distribution("levels-blocks", ((3,), 7))
    assert len(decoded) == 1
    forms = formulas.FAMILIES["levels-blocks"]
    [forms.decode(((1, 2, 1), n), answer) for n, answer in enumerate(forms.packed((1, 2, 1), 7, first=0))]
    assert len(decoded) == 9
    # The kernel's all-dense state is one integer per length, which ``combinat.decode_tally`` unpacks.
    tallied = _counting(monkeypatch, combinat, "unpack")
    part = BlockPartition.threshold(4, 2)
    statistic_distribution(4, 7, part, [(1, "des")])
    assert len(tallied) == 1
    tallied.clear()
    [decode_tally(answer, 1) for answer in statistic_tallies(4, 7, part, [(1, "des")], first=0)]
    assert len(tallied) == 8  # lengths 0..7, the empty word's tally too


def test_compact_tallies_decode_to_the_single_length_calls():
    # Each pass to n in the layout of n, every length decoded with that one layout.
    for k in range(1, 4):
        for partition in _grid_partitions(k):
            for n in range(7):
                keys = oracle.compact_keys(n, partition.t)
                walk = [_decoded(tally, n, partition.t) for tally in brute_tallies(k, n, partition, first=0)]
                dp = [_decoded(tally, n, partition.t) for tally in transfer_tallies(k, n, partition, keys, first=0)]
                assert walk == [brute_distribution(k, m, partition).entries for m in range(n + 1)], (k, partition, n)
                assert dp == [transfer_distribution(k, m, partition).entries for m in range(n + 1)], (k, partition, n)
