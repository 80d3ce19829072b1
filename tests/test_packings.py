"""The two packings of ``combinat``: each codec's round trip, and every key layout read through the one decoder.

Examples are derandomized so a run is repeatable.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wordstats import oracle, series
from wordstats.combinat import decode_keys, decode_tally, encode_key, key_degree, key_units, tally_units
from wordstats.oracle import brute_distribution, transfer_distribution, transfer_tallies
from wordstats.polynomials import FIELD_BITS
from wordstats.series import TrackingSpec, build_ak_series, coefficient_distribution, statistic_keys
from wordstats.verify import _grid_partitions
from wordstats.words import DistPolynomial

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def key_layouts(draw):
    """(width, degree, two value vectors and their sum), the sum fitting every field, the degree field included."""
    width = draw(st.integers(1, 16))
    arity = draw(st.integers(1, 8))
    degree = draw(st.booleans())
    cap = ((1 << width) - 1) // (arity if degree else 1)
    halves = [draw(st.lists(st.integers(0, cap // 2), min_size=arity, max_size=arity)) for _ in range(2)]
    return width, degree, *halves, [a + b for a, b in zip(*halves)]


@PROPERTY
@given(key_layouts(), st.data())
def test_a_key_decodes_to_its_slots_and_units_add_without_carry(layout, data):
    width, degree, left, right, both = layout
    arity = len(both)
    units = key_units(width, arity, degree)
    key = encode_key(both, width, degree)
    assert key == sum(value * unit for value, unit in zip(both, units))
    # Any split of the slots into rows reads the same values back.
    cut = data.draw(st.integers(0, arity))
    assert decode_keys({key: 7}, [units[:cut], units[cut:]], width) == {(tuple(both[:cut]), tuple(both[cut:])): 7}
    assert encode_key(left, width, degree) + encode_key(right, width, degree) == key
    assert key_degree(key, width, arity) == (sum(both) if degree else 0)
    # Sorting keys as ints orders them by degree first.
    if degree and sum(left) < sum(right):
        assert encode_key(left, width, degree) < encode_key(right, width, degree)


@st.composite
def tallies(draw):
    """(size, radix, table): value tuples of 1-5 coordinates, each at most n <= 12, with nonzero counts that fit a field."""
    n = draw(st.integers(0, 12))
    arity = draw(st.integers(1, 5))
    size = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(0, n)] * arity)
    table = draw(st.dictionaries(vectors, st.integers(1, (1 << 8 * size) - 1), max_size=30))
    return size, n + 1, table


@PROPERTY
@given(tallies())
def test_a_tally_decodes_to_its_table(answer):
    size, radix, table = answer
    tally: dict[int, int] = {}
    for values, count in table.items():
        units = tally_units(len(values), size, radix)
        step = sum(value * unit_step for value, (unit_step, _) in zip(values, units))
        shift = sum(value * unit_shift for value, (_, unit_shift) in zip(values, units))
        tally[step] = tally.get(step, 0) + (count << shift)
    arity = len(next(iter(table), (0,)))
    # Distinct tuples land in distinct (key, field) places, so the sum of units never carries.
    assert decode_tally((size, tally), radix, arity) == table


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_key_layout_decodes_to_the_same_distribution(monkeypatch, k):
    decoded = []

    def recording(tally, rows, width):
        decoded.append(width)
        return decode_keys(tally, rows, width)

    monkeypatch.setattr(oracle, "decode_keys", recording)
    monkeypatch.setattr(series, "decode_keys", recording)
    for partition in _grid_partitions(k):
        spec = TrackingSpec.all_tracked(partition.t)
        coefficients = build_ak_series(k, partition, spec, 5)
        for n in range(6):
            decoded.clear()
            walk = brute_distribution(k, n, partition)
            assert transfer_distribution(k, n, partition) == walk, (k, partition, n)
            assert coefficient_distribution(coefficients, spec, partition, n) == walk, (k, partition, n)
            keys = statistic_keys(spec)
            [tally] = transfer_tallies(k, n, partition, keys)
            assert DistPolynomial(recording(tally, keys, FIELD_BITS), k, n, partition) == walk, (k, partition, n)
            # the walk and the DP in the compact layout, the series and the DP in the series' own
            assert decoded == [n.bit_length()] * 2 + [FIELD_BITS] * 2
            assert sum(walk.entries.values()) == k**n
