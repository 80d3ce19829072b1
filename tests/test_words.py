import copy
import itertools
import pickle

import pytest

from wordstats import BlockPartition, DistPolynomial, InputError, brute_distribution, stat_key
from wordstats import formulas, identities, oracle
from wordstats.series import TrackingSpec, build_ak_series
from wordstats.words import FrozenRecord, Record


def _key(letters, partition):
    return stat_key(letters, partition.blocks, partition.t)


def _complement(letters, k):
    return tuple(k + 1 - x for x in letters)


class TestClassifyPair:
    # A two-letter word has one pair, charged to the block of its first letter.
    ONE_BLOCK = BlockPartition.threshold(4, 4)

    def test_descent(self):
        assert _key((2, 1), self.ONE_BLOCK)[0] == (1, 0, 0, 2)

    def test_level(self):
        assert _key((3, 3), self.ONE_BLOCK)[0] == (0, 0, 1, 2)

    def test_rise(self):
        assert _key((1, 4), self.ONE_BLOCK)[0] == (0, 1, 0, 2)

    def test_total_and_exclusive(self):
        # every pair lands in exactly one class, in the block of its first letter
        part = BlockPartition.threshold(4, 2)
        for a, b in itertools.product(range(1, 5), repeat=2):
            key = _key((a, b), part)
            row = key[part.block_of(a) - 1]
            assert row[:3] == (int(a > b), int(a < b), int(a == b))
            assert sum(sum(r[:3]) for r in key) == 1


class TestWord:
    # A word is any sequence of letters, the empty one included.
    def test_empty_word_is_valid(self):
        for t in (1, 2, 3):
            assert _key((), BlockPartition.mod_residue(3, t)) == ((0, 0, 0, 0),) * t

    def test_complement_examples(self):
        # the complement l -> k+1-l swaps descents and rises and keeps levels
        one_block = BlockPartition.threshold(3, 3)
        assert _key((1, 3, 2), one_block)[0] == (1, 1, 0, 3)
        assert _key((3, 3, 1), one_block)[0] == (1, 0, 1, 3)
        assert _key((1, 1, 3), one_block)[0] == (0, 1, 1, 3)
        for letters in itertools.product(range(1, 4), repeat=4):
            des, ris, lev, cnt = _key(letters, one_block)[0]
            assert _key(_complement(letters, 3), one_block)[0] == (ris, des, lev, cnt)


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class Slotted(FrozenRecord):
    __slots__ = ("a", "b")
    a: int
    b: tuple


class Labelled(Point):
    z: int = 9


class TestRecord:
    RECORDS = [
        pytest.param(Point, ("x",), {"y": 0, "label": "p"}, id="unslotted"),
        pytest.param(Slotted, ("a", "b"), {}, id="slotted"),
    ]

    @pytest.mark.parametrize("cls, required, defaults", RECORDS)
    def test_fields_are_the_annotations_and_defaults_the_class_attributes(self, cls, required, defaults):
        assert cls._fields == required + tuple(defaults)
        assert cls._defaults == defaults

    def test_positional_keyword_and_default_fields(self):
        assert repr(Point(1)) == "Point(x=1, y=0, label='p')"
        assert Point(1, 2, "q") == Point(y=2, label="q", x=1) == Point(1, label="q", y=2)
        assert Point(1, 2)._values() == (1, 2, "p")
        slotted = Slotted(1, b=(2,))
        assert (slotted.a, slotted.b) == (1, (2,)) and slotted == Slotted(a=1, b=(2,))
        assert not hasattr(slotted, "__dict__")

    def test_a_subclass_adds_its_fields_after_its_bases(self):
        assert Labelled._fields == ("x", "y", "label", "z")
        assert repr(Labelled(1, z=3)) == "Labelled(x=1, y=0, label='p', z=3)"
        assert Labelled(1) != Point(1)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Point(), r"Point.__init__\(\) missing 1 required positional argument: 'x'"),
            (lambda: Point(1, w=2), r"Point.__init__\(\) got an unexpected keyword argument 'w'"),
            (lambda: Point(1, x=2), r"Point.__init__\(\) got multiple values for argument 'x'"),
            (lambda: Point(1, 2, "q", 4), r"Point.__init__\(\) takes from 2 to 4 positional arguments but 5"),
            (lambda: Slotted(1), r"Slotted.__init__\(\) missing 1 required positional argument: 'b'"),
            (lambda: Slotted(1, (2,), c=3), r"Slotted.__init__\(\) got an unexpected keyword argument 'c'"),
            (lambda: Slotted(1, a=1), r"Slotted.__init__\(\) got multiple values for argument 'a'"),
            (lambda: Slotted(1, (2,), 3), r"Slotted.__init__\(\) takes 3 positional arguments but 4"),
            (lambda: BlockPartition(3, (1, 1, 2)), r"BlockPartition.__init__\(\) missing 1 required"),
            (lambda: DistPolynomial({}, 1, 2, None, 5), r"DistPolynomial.__init__\(\) takes 5 positional"),
        ],
    )
    def test_a_missing_unknown_repeated_or_extra_field_is_a_type_error(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    def test_frozen_records_hash_and_refuse_assignment(self):
        slotted = Slotted(1, (2,))
        assert hash(slotted) == hash((1, (2,))) and pickle.loads(pickle.dumps(slotted)) == slotted
        with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
            slotted.a = 2
        with pytest.raises(TypeError, match="unhashable"):
            hash(Point(1))
        point = Point(1)
        point.y = 5
        assert point == Point(1, 5) and pickle.loads(pickle.dumps(point)) == point


class TestBlockPartition:
    def test_threshold(self):
        part = BlockPartition.threshold(4, 2)
        assert part.blocks == (1, 1, 2, 2)
        assert part.t == 2
        assert part.block_sizes() == (2, 2)

    def test_threshold_edges_allow_empty_blocks(self):
        assert BlockPartition.threshold(3, 0).block_sizes() == (0, 3)
        assert BlockPartition.threshold(3, 3).block_sizes() == (3, 0)
        with pytest.raises(InputError):
            BlockPartition.threshold(3, 4)

    def test_mod_residue(self):
        part = BlockPartition.mod_residue(7, 3)
        assert part.blocks == (1, 2, 3, 1, 2, 3, 1)

    def test_mod_residue_small_alphabet(self):
        part = BlockPartition.mod_residue(2, 3)
        assert part.t == 3
        assert part.block_sizes() == (1, 1, 0)

    def test_from_blocks(self):
        part = BlockPartition.from_blocks((2, 1, 2))
        assert part.k == 3 and part.t == 2
        with pytest.raises(InputError):
            BlockPartition.from_blocks((1, 3), t=2)
        with pytest.raises(InputError):
            BlockPartition.from_blocks(())

    def test_block_of_validates(self):
        part = BlockPartition.threshold(3, 1)
        assert part.block_of(1) == 1 and part.block_of(3) == 2
        with pytest.raises(InputError):
            part.block_of(4)

    @pytest.mark.parametrize(
        "k, blocks, t, message",
        [
            (0, (), 1, "alphabet size must be at least 1, got 0"),
            (2, (1, 1), 0, "block count must be at least 1, got 0"),
            (3, (1, 2), 2, "partition covers 2 letters, alphabet has 3"),
        ],
    )
    def test_shape_validates(self, k, blocks, t, message):
        with pytest.raises(InputError, match=message):
            BlockPartition(k, blocks, t)

    def test_mod_residue_validates(self):
        with pytest.raises(InputError, match="modulus must be at least 1, got 0"):
            BlockPartition.mod_residue(3, 0)

    def test_equality_and_hash_follow_the_fields(self):
        part = BlockPartition.threshold(3, 2)
        same = [BlockPartition(3, [1, 1, 2], 2), BlockPartition.from_blocks((1, 1, 2)),
                BlockPartition(k=3, blocks=(1, 1, 2), t=2)]
        assert all(other == part and hash(other) == hash(part) for other in same)
        assert same[0].blocks == (1, 1, 2)
        assert part != BlockPartition.threshold(3, 1)
        assert part != BlockPartition.from_blocks((1, 1, 2), t=3)
        assert part != (3, (1, 1, 2), 2)
        assert len({part, *same}) == 1

    def test_repr_names_every_field(self):
        assert repr(BlockPartition.threshold(3, 2)) == "BlockPartition(k=3, blocks=(1, 1, 2), t=2)"

    def test_refuses_assignment_and_deletion(self):
        part = BlockPartition.threshold(3, 2)
        for name in ("k", "blocks", "t", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(part, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(part, name)
        assert (part.k, part.blocks, part.t) == (3, (1, 1, 2), 2)

    def test_named_constructors_are_cached(self):
        assert BlockPartition.threshold(5, 2) is BlockPartition.threshold(5, 2)
        assert BlockPartition.mod_residue(5, 2) is BlockPartition.mod_residue(5, 2)

    def test_copies_and_pickles_equal(self):
        part = BlockPartition.mod_residue(5, 2)
        for twin in (copy.copy(part), copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
            assert twin == part and repr(twin) == repr(part)


# Each query fails one shared check and no other; every engine that makes the check refuses it alike.
ONE_LETTER, TWO_LETTERS = BlockPartition.threshold(1, 1), BlockPartition.threshold(2, 1)
COMPACT = oracle.compact_keys(2, 2)  # the full-joint DP's layout for two blocks
ALPHABET = "alphabet size must be at least 1, got 0"
LENGTH = "length and statistic value must be nonnegative"
MULTIPLICITIES = "multiplicities must be nonnegative, got (1, -1)"
PARTITION = "partition covers [2], queried alphabet is [3]"
SHARED_REFUSALS = {
    "alphabet-formulas": (ALPHABET, lambda: formulas.distribution("des-gt", (0, 0, 3))),
    "alphabet-statistic_distribution": (ALPHABET, lambda: oracle.statistic_distribution(0, 2, ONE_LETTER, [])),
    "alphabet-brute_distribution": (ALPHABET, lambda: oracle.brute_distribution(0, 2, ONE_LETTER)),
    "alphabet-BlockPartition": (ALPHABET, lambda: BlockPartition(0, (), 1)),
    "alphabet-direct_count_top_letter": (ALPHABET, lambda: identities.direct_count_top_letter(0, 2, 0)),
    "length-formulas": (LENGTH, lambda: formulas.distribution("des-le", (2, 1, -1))),
    "length-hall_remmel_count": (LENGTH, lambda: formulas.hall_remmel_count((1, 1), {2}, {1}, -1)),
    "length-direct_count_top_letter": (LENGTH, lambda: identities.direct_count_top_letter(2, -1, 0)),
    "length-direct_count_two_bottom": (LENGTH, lambda: identities.direct_count_two_bottom(2, 2, -1)),
    "length-distribution-levels-blocks": (LENGTH, lambda: formulas.distribution("levels-blocks", ((1, 2), -1))),
    "length-packed-levels-blocks-first": (
        LENGTH, lambda: next(formulas.FAMILIES["levels-blocks"].packed((1, 2), 2, first=-1)),
    ),
    "length-packed-des-le-first": (LENGTH, lambda: next(formulas.FAMILIES["des-le"].packed(2, 1, 2, first=-1))),
    "length-statistic_distribution": (LENGTH, lambda: oracle.statistic_distribution(2, -1, TWO_LETTERS, [(1, "des")])),
    "length-brute_distribution": (LENGTH, lambda: oracle.brute_distribution(2, -1, TWO_LETTERS)),
    "length-transfer_distribution": (LENGTH, lambda: oracle.transfer_distribution(2, -1, TWO_LETTERS)),
    "length-brute_tallies-n": (LENGTH, lambda: oracle.brute_tallies(2, -1, TWO_LETTERS)),
    "length-brute_tallies-first": (LENGTH, lambda: oracle.brute_tallies(2, 2, TWO_LETTERS, first=-1)),
    "length-transfer_tallies-n": (LENGTH, lambda: next(oracle.transfer_tallies(2, -1, TWO_LETTERS, COMPACT))),
    "length-transfer_tallies-first": (
        LENGTH, lambda: next(oracle.transfer_tallies(2, 2, TWO_LETTERS, COMPACT, first=-1)),
    ),
    "length-statistic_tallies-n": (LENGTH, lambda: next(oracle.statistic_tallies(2, -1, TWO_LETTERS, [(1, "des")]))),
    "length-statistic_tallies-first": (
        LENGTH, lambda: next(oracle.statistic_tallies(2, 2, TWO_LETTERS, [(1, "des")], first=-1)),
    ),
    "multiplicities-hall_remmel_count": (MULTIPLICITIES, lambda: formulas.hall_remmel_count((1, -1), {2}, {1}, 0)),
    "multiplicities-rearrangement_distribution": (
        MULTIPLICITIES, lambda: oracle.rearrangement_distribution((1, -1), {2}, {1}),
    ),
    "partition-transfer_tallies": (PARTITION, lambda: list(oracle.transfer_tallies(3, 2, TWO_LETTERS, COMPACT))),
    "partition-brute_tallies": (PARTITION, lambda: oracle.brute_tallies(3, 2, TWO_LETTERS)),
    "partition-build_ak_series": (
        PARTITION, lambda: build_ak_series(3, TWO_LETTERS, TrackingSpec((True,) * 2, (True,) * 2, (True,) * 2), 2),
    ),
}


@pytest.mark.parametrize("message, query", SHARED_REFUSALS.values(), ids=SHARED_REFUSALS)
def test_each_shared_refusal_has_one_text_at_every_entry_point(message, query):
    with pytest.raises(InputError) as caught:
        query()
    assert str(caught.value) == message


class TestDistPolynomial:
    KEY = ((1, 0, 0, 2),)

    def _dist(self, count=1):
        return DistPolynomial({self.KEY: count}, k=1, n=2, partition=BlockPartition.threshold(1, 1))

    def test_equality_follows_the_fields(self):
        assert self._dist() == self._dist()
        assert self._dist() != self._dist(2)
        assert self._dist() != {self.KEY: 1}

    def test_is_unhashable_and_mutable(self):
        dist = self._dist()
        with pytest.raises(TypeError, match="unhashable"):
            hash(dist)
        dist.entries = {self.KEY: 2}
        assert dist == self._dist(2)

    def test_repr_names_every_field(self):
        assert repr(self._dist()) == (
            "DistPolynomial(entries={((1, 0, 0, 2),): 1}, k=1, n=2, "
            "partition=BlockPartition(k=1, blocks=(1,), t=2))"
        )

    @pytest.mark.parametrize("block", [0, 3])
    def test_a_block_outside_the_partition_is_refused(self, block):
        # Block 0 once read the row of block t, and block t + 1 raised a bare IndexError.
        dist = brute_distribution(3, 3, BlockPartition.threshold(3, 1))
        assert dist.marginal(2, "des") == {0: 10, 1: 16, 2: 1}
        for read in (lambda: dist.joint([(1, "des"), (block, "des")]), lambda: dist.marginal(block, "des")):
            with pytest.raises(InputError) as caught:
                read()
            assert str(caught.value) == f"constraint names block {block}, partition has 1..2"


class TestStatVector:
    def test_hand_evaluated_word(self):
        # 2121: pairs (2,1) descent, (1,2) rise, (2,1) descent; the rise
        # starts at the 1, the descents at the 2s
        assert _key((2, 1, 2, 1), BlockPartition.threshold(2, 1)) == (
            (0, 1, 0, 2),
            (2, 0, 0, 2),
        )

    def test_empty_word(self):
        part = BlockPartition.mod_residue(4, 2)
        assert _key((), part) == ((0, 0, 0, 0), (0, 0, 0, 0))

    def test_constant_word_only_levels(self):
        assert _key((1, 1, 1), BlockPartition.mod_residue(3, 2)) == (
            (0, 0, 2, 3),
            (0, 0, 0, 0),
        )

    def test_accessors(self):
        # the named statistics read stat_key's rows as (des, ris, lev, cnt)
        key = ((1, 2, 3, 4), (5, 6, 7, 8))
        dist = DistPolynomial({key: 1}, k=2, n=12, partition=BlockPartition.threshold(2, 1))
        for block, row in enumerate(key, start=1):
            for stat, value in zip(("des", "ris", "lev", "cnt"), row):
                assert dist.marginal(block, stat) == {value: 1}
        with pytest.raises(InputError):
            dist.marginal(1, "peaks")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pair_and_count_invariants(self, k):
        partitions = [BlockPartition.threshold(k, t) for t in range(k + 1)]
        partitions.append(BlockPartition.mod_residue(k, 2))
        for n in range(5):
            for letters in itertools.product(range(1, k + 1), repeat=n):
                for part in partitions:
                    key = _key(letters, part)
                    assert sum(row[3] for row in key) == n
                    assert sum(sum(row[:3]) for row in key) == max(n - 1, 0)


class TestComplementDuality:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_threshold_duality(self, k):
        # descents starting <= t become rises starting in the top t letters
        for n in range(5):
            for letters in itertools.product(range(1, k + 1), repeat=n):
                mirror = _complement(letters, k)
                for t in range(k + 1):
                    low, high = _key(letters, BlockPartition.threshold(k, t))
                    co_low, co_high = _key(mirror, BlockPartition.threshold(k, k - t))
                    assert low[0] == co_high[1] and high[0] == co_low[1]

    @pytest.mark.parametrize("s,k", [(2, 2), (2, 4), (3, 3)])
    def test_residue_duality_full_alphabet(self, s, k):
        # alphabet a multiple of s: class r maps to class s+1-r
        part = BlockPartition.mod_residue(k, s)
        for n in range(5):
            for letters in itertools.product(range(1, k + 1), repeat=n):
                key = _key(letters, part)
                co_key = _key(_complement(letters, k), part)
                for r in range(1, s + 1):
                    image_block = (k - r) % s + 1
                    assert image_block == s + 1 - r  # s divides k here
                    assert key[r - 1][0] == co_key[image_block - 1][1]
