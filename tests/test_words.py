import copy
import itertools
import pickle

import pytest

from wordstats import BlockPartition, DistPolynomial, InputError, stat_key


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


class TestBlockPartition:
    def test_threshold(self):
        part = BlockPartition.threshold(4, 2)
        assert part.blocks == (1, 1, 2, 2)
        assert part.t == 2
        assert part.block_sizes() == (2, 2)
        assert part.letters_in(1) == (1, 2)

    def test_threshold_edges_allow_empty_blocks(self):
        assert BlockPartition.threshold(3, 0).block_sizes() == (0, 3)
        assert BlockPartition.threshold(3, 3).block_sizes() == (3, 0)
        with pytest.raises(InputError):
            BlockPartition.threshold(3, 4)

    def test_mod_residue(self):
        part = BlockPartition.mod_residue(7, 3)
        assert part.blocks == (1, 2, 3, 1, 2, 3, 1)
        # multiples of the modulus sit in the last block
        assert part.letters_in(3) == (3, 6)

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

    def test_letters_in_validates(self):
        part = BlockPartition.threshold(3, 1)
        assert part.letters_in(2) == (2, 3)
        for block in (0, 3):
            with pytest.raises(InputError, match=f"block {block} outside 1..2"):
                part.letters_in(block)

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
