"""Unit tests for the clustered page-table layer (repro.hashing.clustered)."""

import random

import pytest

from repro.common.errors import ConfigurationError, TableFullError
from repro.core.mehpt import MeHptPageTables
from repro.hashing.clustered import (
    PAGES_PER_BLOCK,
    ClusteredHashedPageTable,
    MapResult,
)
from repro.hashing.policies import AllWayResizePolicy
from repro.mem.allocator import CostModelAllocator
from tests.conftest import make_chunked_table, make_contiguous_table


def make_pt(page_size="4K", table=None):
    return ClusteredHashedPageTable(page_size, table or make_contiguous_table())


class TestClustering:
    def test_eight_pages_share_one_block(self):
        pt = make_pt()
        for offset in range(PAGES_PER_BLOCK):
            pt.map(0x1000 + offset, 0x9000 + offset)
        assert len(pt.table) == 1  # one cuckoo entry for 8 pages
        assert pt.mapped_pages == PAGES_PER_BLOCK

    def test_ninth_page_uses_second_block(self):
        pt = make_pt()
        for offset in range(PAGES_PER_BLOCK + 1):
            pt.map(0x1000 + offset, 0x9000 + offset)
        assert len(pt.table) == 2

    def test_translate_returns_per_page_ppn(self):
        pt = make_pt()
        pt.map(0x1003, 777)
        assert pt.translate(0x1003) == 777
        assert pt.translate(0x1004) is None

    def test_map_result_flags_new_block(self):
        pt = make_pt()
        first = pt.map(0x2000, 1)
        second = pt.map(0x2001, 2)
        assert first.new_block and not second.new_block


class TestUnmap:
    def test_unmap_single_page(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        assert pt.unmap(0x1000)
        assert pt.translate(0x1000) is None
        assert not pt.unmap(0x1000)

    def test_block_removed_when_empty(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        pt.map(0x1001, 6)
        pt.unmap(0x1000)
        assert len(pt.table) == 1
        pt.unmap(0x1001)
        assert len(pt.table) == 0


class TestPageSizes:
    def test_2m_granularity(self):
        pt = make_pt(page_size="2M")
        vpn = 512 * 7  # 2MB-aligned
        pt.map(vpn, 0xAA)
        # Any 4KB vpn within the huge page translates.
        assert pt.translate(vpn + 100) == 0xAA

    def test_alignment_enforced(self):
        pt = make_pt(page_size="2M")
        with pytest.raises(ConfigurationError):
            pt.map(513, 1)

    def test_1g_granularity(self):
        pt = make_pt(page_size="1G")
        vpn = (1 << 18) * 3
        pt.map(vpn, 0xBB)
        assert pt.translate(vpn + 12345) == 0xBB

    def test_unknown_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pt(page_size="16K")


class TestProbeLines:
    def test_one_line_per_way(self):
        pt = make_pt()
        pt.map(0x1000, 5)
        lines = pt.probe_line_addrs(0x1000)
        assert len(lines) == pt.table.num_ways
        assert len(set(lines)) == len(lines)  # distinct storages/slots

    def test_probe_lines_stable_for_same_block(self):
        pt = make_pt()
        assert pt.probe_line_addrs(0x1000) == pt.probe_line_addrs(0x1007)


class TestAccounting:
    def test_peak_bytes_monotonic(self):
        tables = MeHptPageTables(CostModelAllocator(), initial_slots=16)
        last_peak = tables.peak_total_bytes
        for i in range(2000):
            tables.map(0x1000 + i, i)
            assert tables.peak_total_bytes >= last_peak
            last_peak = tables.peak_total_bytes
        assert tables.peak_total_bytes >= tables.total_bytes()

    def test_occupancy_in_range(self):
        pt = make_pt()
        for i in range(100):
            pt.map(0x4000 + i * PAGES_PER_BLOCK, i)
        assert 0.0 < pt.occupancy() <= 0.6 + 1e-9 or pt.table.resizing()


class ReferencePageTable(ClusteredHashedPageTable):
    """Maps as the table did without the memo or the probe-free insert:
    a full cuckoo lookup for every map, and :meth:`insert` probing every
    way again before a new line goes in."""

    def map(self, vpn, ppn):
        block, sub = self._split(vpn)
        entries = self.table.lookup(block)
        if entries is not None:
            if entries[sub] is None:
                self.mapped_pages += 1
            entries[sub] = ppn
            return MapResult(new_block=False, kicks=0)
        entries = [None] * PAGES_PER_BLOCK
        entries[sub] = ppn
        kicks = self.table.insert(block, entries)
        self.mapped_pages += 1
        return MapResult(new_block=True, kicks=kicks)


def layout(table):
    """Every slot of every way's storages, in order."""
    slots = []
    for way in table.ways:
        for storage in (way.storage, way.old_storage):
            if storage is not None:
                slots.append([
                    None if slot is None else (slot[0], tuple(slot[1]))
                    for slot in map(storage.get, range(storage.size_slots))
                ])
    return slots


def stats_of(table):
    stats = table.stats
    return (stats.lookups, stats.inserts, stats.updates, stats.deletes,
            stats.rehash_steps, stats.eager_migrations,
            dict(stats.kick_histogram))


def where(table, block):
    """(way, storage, index) of ``block``'s line."""
    way, storage, idx = table._find_slot(block)
    return way.index, storage, idx


@pytest.mark.fastpath
class TestMapMemo:
    @pytest.mark.parametrize("make_table", [make_contiguous_table, make_chunked_table])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_map(self, make_table, seed):
        pt = ClusteredHashedPageTable("4K", make_table(initial_slots=16))
        ref = ReferencePageTable("4K", make_table(initial_slots=16))
        rng = random.Random(seed)
        mapped = []
        for step in range(3000):
            if mapped and rng.random() < 0.2:
                vpn = mapped.pop(rng.randrange(len(mapped)))
                assert pt.unmap(vpn) == ref.unmap(vpn)
                continue
            # Runs of pages through a few blocks, with holes and revisits.
            vpn = 0x4000 + rng.randrange(1200) if rng.random() < 0.3 else (
                mapped[-1] + rng.choice((1, 1, 2, 3)) if mapped else 0x4000
            )
            assert pt.map(vpn, step) == ref.map(vpn, step)
            mapped.append(vpn)
            assert pt.translate(vpn) == ref.translate(vpn) == step
        assert pt.mapped_pages == ref.mapped_pages
        assert stats_of(pt.table) == stats_of(ref.table)
        assert layout(pt.table) == layout(ref.table)
        pt.table.check_invariants()

    def test_map_unmap_remap_in_one_block(self):
        pt = make_pt()
        for offset in range(4):
            pt.map(0x1000 + offset, 10 + offset)
        assert pt.unmap(0x1001)
        assert pt.map(0x1001, 99) == MapResult(new_block=False, kicks=0)
        # One lookup per map, memo hits included, and one for the unmap.
        assert pt.table.stats.lookups == 6
        assert [pt.translate(0x1000 + i) for i in range(5)] == [10, 99, 12, 13, None]
        assert pt.mapped_pages == 4 and len(pt.table) == 1

    def test_map_after_memoized_block_deleted(self):
        pt = make_pt()
        pt.map(0x1000, 1)
        assert pt.unmap(0x1000)
        assert len(pt.table) == 0
        assert pt.map(0x1003, 2).new_block
        assert len(pt.table) == 1 and pt.translate(0x1003) == 2
        pt.table.check_invariants()

    def _memo_hit_after(self, pt, move, vpn=0x1000):
        """Map a page, let ``move`` relocate its line, then fill another
        page of the line through the memo."""
        pt.map(vpn, 1)
        move(pt.table)
        lookups = pt.table.stats.lookups
        assert pt.map(vpn + 5, 2) == MapResult(new_block=False, kicks=0)
        assert pt.table.stats.lookups == lookups + 1
        assert pt.translate(vpn) == 1 and pt.translate(vpn + 5) == 2
        pt.table.check_invariants()

    def test_memo_survives_kicks(self):
        policy = AllWayResizePolicy(upsize_threshold=0.99, min_way_slots=16)
        pt = make_pt(table=make_contiguous_table(initial_slots=16, policy=policy))
        block = 0x1000 // PAGES_PER_BLOCK

        def kick(table):
            start = where(table, block)
            for key in range(1 << 20, (1 << 20) + 40):
                table.insert(key, [None] * PAGES_PER_BLOCK)
                if where(table, block) != start:
                    break
            assert where(table, block) != start
            assert table.stats.rehash_steps == 0

        self._memo_hit_after(pt, kick)

    def test_memo_survives_rehash(self):
        pt = make_pt()

        def rehash(table):
            start = where(table, 0x1000 // PAGES_PER_BLOCK)
            table.start_upsize(table.ways[start[0]])
            table.drain()
            assert where(table, 0x1000 // PAGES_PER_BLOCK) != start

        self._memo_hit_after(pt, rehash)

    def test_memo_survives_rollback(self):
        # A line the gradual rehash reaches before its last step, so the
        # resize is still in flight when it has moved.
        vpn = 0x1000
        while True:
            probe = make_pt()
            probe.map(vpn, 1)
            if where(probe.table, vpn // PAGES_PER_BLOCK)[2] < 15:
                break
            vpn += PAGES_PER_BLOCK
        block = vpn // PAGES_PER_BLOCK

        def rollback(table):
            start = where(table, block)
            way = table.ways[start[0]]
            table.start_upsize(way)
            table.maintenance(steps=start[2] + 1)
            assert where(table, block)[1] is way.storage  # migrated
            table.rollback_resize(way)
            assert where(table, block) == start

        self._memo_hit_after(make_pt(), rollback, vpn)

    def test_memo_survives_eager_migration(self):
        pt = make_pt(table=make_chunked_table(initial_slots=16))

        def migrate(table):
            start = where(table, 0x1000 // PAGES_PER_BLOCK)
            way = table.ways[start[0]]
            table._eager_migrate(way, way.size * 2)
            assert table.stats.eager_migrations == 1
            assert where(table, 0x1000 // PAGES_PER_BLOCK)[1] is not start[1]

        self._memo_hit_after(pt, migrate)

    def test_failed_insert_clears_memo(self, monkeypatch):
        pt = make_pt()
        pt.map(0x1000, 1)

        def stuck(key, value):
            # A kick chain that gives up drops the line it was carrying,
            # which may be the memoized one.
            pt.table.delete(0x1000 // PAGES_PER_BLOCK)
            raise TableFullError("cuckoo table stuck")

        monkeypatch.setattr(pt.table, "insert_new", stuck)
        with pytest.raises(TableFullError):
            pt.map(0x2000, 2)
        monkeypatch.undo()
        assert pt.map(0x1001, 3).new_block
        assert pt.translate(0x1001) == 3
