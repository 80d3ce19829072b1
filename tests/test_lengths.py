"""One pass to length n_max hands out every shorter length on its way.

Each engine loop runs once to n_max and yields the lengths it passes;
every length read off that pass must equal the single-length call at that
length, on every head of the verify grids.  A single-length call decodes
its own length and no other.
"""

import pytest

from wordstats import combinat, formulas, oracle
from wordstats.combinat import _digits, field_bytes, unpack
from wordstats.formulas import _grid_partitions
from wordstats.oracle import (
    brute_distribution,
    brute_tallies,
    compact_keys,
    statistic_distribution,
    statistic_lengths,
    statistic_tallies,
    transfer_distribution,
    transfer_tallies,
)
from wordstats.words import BlockPartition, InputError, _STAT_INDEX

N_MAXES = [0, 1, 3, 7]
WORD_FAMILIES = [family for family, forms in formulas.FAMILIES.items() if forms.query]


def _heads(forms, alphabet_max, n_max):
    """The heads of a family's grid, one per run of cells n = 0..n_max, in grid order."""
    return [params[:-1] for params, _ in forms.grid(alphabet_max, n_max) if params[-1] == 0]


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
    for head in _heads(forms, 4, n_max):
        lengths = list(statistic_lengths(*forms.query(*head, n_max), first=0))
        assert len(lengths) == n_max + 1
        for n, marginal in enumerate(lengths):
            assert marginal == statistic_distribution(*forms.query(*head, n)), (family, head, n)


@pytest.mark.parametrize("n_max", N_MAXES)
@pytest.mark.parametrize("family", WORD_FAMILIES)
def test_closed_form_lengths_are_the_single_length_tables(family, n_max):
    forms = formulas.FAMILIES[family]
    for head in _heads(forms, 4, n_max):
        lengths = list(forms.tables(*head, n_max, first=0))
        assert len(lengths) == n_max + 1
        for n, table in enumerate(lengths):
            assert table == formulas.distribution(family, (*head, n)), (family, head, n)


@pytest.mark.parametrize("family", WORD_FAMILIES)
def test_kernel_tallies_decode_to_the_marginals_and_match_the_packed_tables(family):
    # A tally maps sparse part -> fields of field_bytes(k**n) bytes; field f of sparse part p
    # is the key p (n + 1)**dense + f, dense = min(2, coordinates), read as digits in radix n + 1.
    forms = formulas.FAMILIES[family]
    for n_max in range(7):
        for head in _heads(forms, 4, n_max):
            k, n, partition, coords = query = forms.query(*head, n_max)
            size, radix = field_bytes(k**n), n + 1
            tallies = list(statistic_tallies(*query, first=0))
            decoded = [
                {_digits(sparse * radix ** min(2, len(coords)) + field, len(coords), radix): count
                 for sparse, packed in tally.items() for field, count in enumerate(unpack(packed, size)) if count}
                for tally in tallies
            ]
            assert decoded == list(statistic_lengths(*query, first=0)), (family, head, n_max)
            # The closed form's packed pass is the same tallies, in the same fields.
            assert list(forms.packed(*head, n_max, first=0)) == [(size, tally) for tally in tallies]
            if len(coords) == 1:  # sparse part 0, field s the count of value s
                assert all(list(tally) == [0] for tally in tallies)


def test_levels_blocks_engines_pack_alike_on_every_grid_partition():
    # The closed form's pass and the DP's, both to n, as (field bytes, tally) length by length:
    # levels of blocks 1 and 2 in the fields, of blocks 3.. in the keys, digits in radix n + 1.
    forms = formulas.FAMILIES["levels-blocks"]
    for k in range(1, 7):
        for partition in _grid_partitions(k):
            for n in range(8):
                params = partition.block_sizes(), n
                size = field_bytes(k**n)
                want = [(size, tally) for tally in statistic_tallies(*forms.query(*params), first=0)]
                assert list(forms.packed(*params, first=0)) == want, (k, partition.blocks, n)


def test_grids_reach_one_letter_and_dict_keyed_joints():
    # k = 1 heads, and levels-blocks heads of three or more inhabited blocks
    assert (1, 1) in _heads(formulas.FAMILIES["des-le"], 4, 0)
    sizes = [head[0] for head in _heads(formulas.FAMILIES["levels-blocks"], 4, 0)]
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
    "statistic": lambda **first: statistic_lengths(2, 2, HALVES, [(1, "des")], **first),
    "statistic-tallies": lambda **first: statistic_tallies(2, 2, HALVES, [(1, "des")], **first),
    **{family: lambda family=family, **first: formulas.FAMILIES[family].tables(*FAMILY_HEADS[family], 2, **first)
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
    list(formulas.FAMILIES["des-le"].tables(4, 2, 7, first=0))
    assert len(unpacked) == 8
    # A levels-blocks table decodes one tally per length.
    decoded = _counting(monkeypatch, formulas, "decode_tally")
    formulas.distribution("levels-blocks", ((3,), 7))
    assert len(decoded) == 1
    list(formulas.FAMILIES["levels-blocks"].tables((1, 2, 1), 7, first=0))
    assert len(decoded) == 9
    # The kernel's all-dense state is one integer per length, which ``combinat.decode_tally`` unpacks.
    tallied = _counting(monkeypatch, combinat, "unpack")
    part = BlockPartition.threshold(4, 2)
    statistic_distribution(4, 7, part, [(1, "des")])
    assert len(tallied) == 1
    tallied.clear()
    list(statistic_lengths(4, 7, part, [(1, "des")], first=0))
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
