"""Frame-granularity buddy allocator.

This models the Linux physical-page allocator closely enough to study
fragmentation: power-of-two blocks of 4KB frames, per-order free lists,
splitting on allocation and buddy coalescing on free.  The free lists are
what the FMFI fragmentation metric (:mod:`repro.mem.fragmentation`) is
computed over.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

from repro.common.errors import ConfigurationError, OutOfMemoryError, SimulationError
from repro.common.units import PAGE_4K


class BuddyAllocator:
    """A buddy allocator over ``total_bytes`` of frame-granular memory.

    Addresses are frame numbers (not bytes).  ``max_order`` is the largest
    block order managed; order ``k`` blocks span ``2**k`` frames.
    """

    def __init__(self, total_bytes: int, max_order: int = 15, frame_bytes: int = PAGE_4K) -> None:
        if total_bytes % frame_bytes != 0:
            raise ConfigurationError("total bytes must be frame aligned")
        self.frame_bytes = frame_bytes
        self.total_frames = total_bytes // frame_bytes
        if self.total_frames == 0:
            raise ConfigurationError("memory smaller than one frame")
        # Clamp the top order so whole memory tiles into top-order blocks.
        while max_order > 0 and self.total_frames % (1 << max_order) != 0:
            max_order -= 1
        self.max_order = max_order
        top = 1 << max_order
        #: free_lists[k] is the set of start frames of free order-k blocks.
        #: Mutate it only through this class: ``_heaps`` must follow it.
        self.free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: _heaps[k] is a min-heap holding every start in free_lists[k],
        #: plus stale starts since removed from it (deleted lazily), so
        #: :meth:`alloc_order` finds the lowest free start without a scan.
        self._heaps: List[List[int]] = [[] for _ in range(max_order + 1)]
        for start in range(0, self.total_frames, top):
            self._add_free(max_order, start)
        #: Allocated blocks: start frame -> order (needed to free correctly).
        self._allocated: Dict[int, int] = {}

    # -- queries -----------------------------------------------------------

    def free_frames(self) -> int:
        """Total free frames across all orders."""
        return sum(len(blocks) << order for order, blocks in enumerate(self.free_lists))

    def free_frames_at_or_above(self, order: int) -> int:
        """Free frames residing in blocks of order >= ``order``."""
        return sum(
            len(blocks) << o
            for o, blocks in enumerate(self.free_lists)
            if o >= order
        )

    def largest_free_order(self) -> int:
        """The largest order with a free block, or -1 if memory is exhausted."""
        for order in range(self.max_order, -1, -1):
            if self.free_lists[order]:
                return order
        return -1

    def order_for_bytes(self, nbytes: int) -> int:
        """Smallest order whose block covers ``nbytes``."""
        frames = -(-nbytes // self.frame_bytes)  # ceil division
        return (frames - 1).bit_length() if frames > 1 else 0

    # -- allocation --------------------------------------------------------

    def alloc_order(self, order: int) -> int:
        """Allocate an order-``order`` block; return its start frame."""
        if order > self.max_order:
            raise OutOfMemoryError(f"order {order} exceeds max order {self.max_order}")
        current = order
        while current <= self.max_order and not self.free_lists[current]:
            current += 1
        if current > self.max_order:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"(largest free: {self.largest_free_order()})"
            )
        free = self.free_lists[current]
        heap = self._heaps[current]
        start = heapq.heappop(heap)
        while start not in free:
            start = heapq.heappop(heap)
        free.remove(start)
        while current > order:
            current -= 1
            self._add_free(current, start + (1 << current))
        self._allocated[start] = order
        return start

    def _add_free(self, order: int, start: int) -> None:
        free = self.free_lists[order]
        heap = self._heaps[order]
        free.add(start)
        heapq.heappush(heap, start)
        if len(heap) > 2 * len(free) + 64:
            # Mostly stale: rebuild from the live set to bound its size.
            heap[:] = free
            heapq.heapify(heap)

    def alloc_bytes(self, nbytes: int) -> int:
        """Allocate the smallest block covering ``nbytes``; return start frame."""
        return self.alloc_order(self.order_for_bytes(nbytes))

    def free(self, start: int) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        if start not in self._allocated:
            raise ConfigurationError(f"frame {start} is not an allocated block start")
        order = self._allocated.pop(start)
        while order < self.max_order:
            buddy = start ^ (1 << order)
            if buddy in self.free_lists[order]:
                self.free_lists[order].remove(buddy)
                start = min(start, buddy)
                order += 1
            else:
                break
        self._add_free(order, start)

    def allocated_blocks(self) -> Dict[int, int]:
        """Return a copy of the allocated {start_frame: order} map."""
        return dict(self._allocated)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the allocator's structural invariants.

        Checked: every block (free or allocated) is aligned to its order
        and inside memory, no two blocks overlap, free + allocated frames
        exactly tile memory, and no free block has a free buddy (i.e.
        coalescing has run to completion).  Raises
        :class:`~repro.common.errors.SimulationError` with structured
        context on the first violation.
        """
        covered = 0
        blocks = []  # (start, order, is_free)
        for order, frees in enumerate(self.free_lists):
            for start in frees:
                blocks.append((start, order, True))
        for start, order in self._allocated.items():
            blocks.append((start, order, False))
        for start, order, is_free in blocks:
            size = 1 << order
            if start % size != 0:
                raise SimulationError(
                    "buddy block misaligned for its order",
                    component="buddy", start=start, order=order, free=is_free,
                )
            if start + size > self.total_frames:
                raise SimulationError(
                    "buddy block extends past end of memory",
                    component="buddy", start=start, order=order,
                    total_frames=self.total_frames,
                )
            covered += size
        if covered != self.total_frames:
            raise SimulationError(
                "buddy blocks do not tile memory (overlap or leak)",
                component="buddy", covered_frames=covered,
                total_frames=self.total_frames,
                free_frames=self.free_frames(),
                allocated=len(self._allocated),
            )
        # Tiling + alignment rules out overlap only if starts are distinct
        # per order region; do an explicit overlap scan to be safe.
        blocks.sort()
        prev_end = 0
        for start, order, is_free in blocks:
            if start < prev_end:
                raise SimulationError(
                    "buddy blocks overlap",
                    component="buddy", start=start, order=order,
                    previous_end=prev_end, free=is_free,
                )
            prev_end = start + (1 << order)
        for order in range(self.max_order):
            for start in self.free_lists[order]:
                if start ^ (1 << order) in self.free_lists[order]:
                    raise SimulationError(
                        "free buddy pair left uncoalesced",
                        component="buddy", start=start, order=order,
                    )
