"""Unit tests for the buddy allocator (repro.mem.buddy)."""

import pytest

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.common.units import GB, KB, MB
from repro.mem.buddy import BuddyAllocator


def make(total=64 * MB, max_order=10):
    return BuddyAllocator(total, max_order=max_order)


class TestGeometry:
    def test_total_frames(self):
        buddy = make(64 * MB)
        assert buddy.total_frames == 64 * MB // (4 * KB)

    def test_unaligned_total_rejected(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(4 * KB * 1000 + 1)

    def test_max_order_clamped_to_tile_memory(self):
        # 100 frames cannot tile order-10 blocks; the top order clamps to 2.
        buddy = BuddyAllocator(4 * KB * 100, max_order=10)
        assert buddy.max_order == 2
        assert buddy.free_frames() == 100

    def test_order_for_bytes(self):
        buddy = make()
        assert buddy.order_for_bytes(1) == 0
        assert buddy.order_for_bytes(4 * KB) == 0
        assert buddy.order_for_bytes(8 * KB) == 1
        assert buddy.order_for_bytes(8 * KB + 1) == 2
        assert buddy.order_for_bytes(1 * MB) == 8


class TestAllocationAndFree:
    def test_alloc_splits_blocks(self):
        buddy = make()
        start = buddy.alloc_order(0)
        assert buddy.free_frames() == buddy.total_frames - 1
        buddy.free(start)
        assert buddy.free_frames() == buddy.total_frames

    def test_coalescing_restores_max_order(self):
        buddy = make()
        starts = [buddy.alloc_order(0) for _ in range(64)]
        for start in starts:
            buddy.free(start)
        assert buddy.largest_free_order() == buddy.max_order

    def test_distinct_allocations_do_not_overlap(self):
        buddy = make()
        seen = set()
        for _ in range(20):
            start = buddy.alloc_order(3)
            block = set(range(start, start + 8))
            assert not (block & seen)
            seen |= block

    def test_exhaustion_raises(self):
        buddy = BuddyAllocator(4 * MB, max_order=5)
        with pytest.raises(OutOfMemoryError):
            for _ in range(10000):
                buddy.alloc_order(5)

    def test_order_above_max_rejected(self):
        with pytest.raises(OutOfMemoryError):
            make(max_order=5).alloc_order(6)

    def test_double_free_rejected(self):
        buddy = make()
        start = buddy.alloc_order(0)
        buddy.free(start)
        with pytest.raises(ConfigurationError):
            buddy.free(start)

    def test_free_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make().free(12345)

    def test_alloc_bytes_rounds_to_order(self):
        buddy = make()
        buddy.alloc_bytes(5 * KB)  # needs an order-1 block (8KB)
        assert buddy.free_frames() == buddy.total_frames - 2


class TestFreeAccounting:
    def test_free_frames_at_or_above(self):
        buddy = make(64 * MB, max_order=10)
        assert buddy.free_frames_at_or_above(10) == buddy.total_frames
        buddy.alloc_order(0)  # splits one top block down to order 0
        # The split leaves exactly one buddy free at each order 0..9.
        top = buddy.free_frames_at_or_above(10)
        assert top == buddy.total_frames - (1 << 10)

    def test_allocated_blocks_map(self):
        buddy = make()
        a = buddy.alloc_order(2)
        blocks = buddy.allocated_blocks()
        assert blocks[a] == 2


class TestLowestStart:
    @staticmethod
    def _reference_start(buddy, order):
        # The lowest start of the first non-empty free list at or above
        # ``order``: what a full min() scan picks.
        for current in range(order, buddy.max_order + 1):
            if buddy.free_lists[current]:
                return min(buddy.free_lists[current])
        return None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequence_matches_min_scan(self, seed):
        import random

        rng = random.Random(seed)
        buddy = make(4 * MB, max_order=8)
        held = []
        for step in range(6000):
            # Alternate filling and draining phases: memory runs out, and
            # coalescing leaves many stale heap entries to compact away.
            free_share = 0.2 if (step // 1000) % 2 == 0 else 0.8
            if held and rng.random() < free_share:
                buddy.free(held.pop(rng.randrange(len(held))))
            else:
                order = rng.choice((0, 0, 0, 1, 2, 3))
                expected = self._reference_start(buddy, order)
                if expected is None:
                    with pytest.raises(OutOfMemoryError):
                        buddy.alloc_order(order)
                    continue
                assert buddy.alloc_order(order) == expected
                held.append(expected)
            if step % 500 == 0:
                buddy.check_invariants()
        buddy.check_invariants()
        for start in held:
            buddy.free(start)
        assert buddy.free_frames_at_or_above(buddy.max_order) == buddy.total_frames
