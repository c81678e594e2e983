"""Unit tests for the radix page table (repro.radix.table)."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import PAGE_4K
from repro.radix.table import FANOUT, RadixPageTable


class TestMapping:
    def test_map_translate_4k(self):
        table = RadixPageTable()
        table.map(0x12345, 0x999)
        assert table.translate(0x12345) == (0x999, "4K")
        assert table.translate(0x12346) is None

    def test_map_2m_leaf_covers_512_pages(self):
        table = RadixPageTable()
        base = 512 * 9
        table.map(base, 0x777, "2M")
        assert table.translate(base) == (0x777, "2M")
        assert table.translate(base + 511) == (0x777, "2M")
        assert table.translate(base + 512) is None

    def test_map_1g_leaf(self):
        table = RadixPageTable()
        base = (1 << 18) * 2
        table.map(base, 0x555, "1G")
        assert table.translate(base + 98765) == (0x555, "1G")

    def test_alignment_enforced(self):
        table = RadixPageTable()
        with pytest.raises(ConfigurationError):
            table.map(513, 1, "2M")

    def test_conflicting_leaf_levels_rejected(self):
        table = RadixPageTable()
        table.map(0, 1, "2M")
        with pytest.raises(ConfigurationError):
            table.map(0, 2, "4K")  # inside the huge page
        table2 = RadixPageTable()
        table2.map(5, 1, "4K")
        with pytest.raises(ConfigurationError):
            table2.map(0, 2, "2M")  # over existing small pages

    def test_remap_replaces(self):
        table = RadixPageTable()
        table.map(7, 1)
        table.map(7, 2)
        assert table.translate(7) == (2, "4K")
        assert table.mapped_pages["4K"] == 1

    def test_unmap(self):
        table = RadixPageTable()
        table.map(7, 1)
        assert table.unmap(7)
        assert table.translate(7) is None
        assert not table.unmap(7)

    def test_five_level_mode(self):
        table = RadixPageTable(levels=5)
        vpn = (1 << 48) // PAGE_4K * 3  # beyond 48-bit VA space
        table.map(vpn, 0xAB)
        assert table.translate(vpn) == (0xAB, "4K")

    def test_invalid_levels(self):
        with pytest.raises(ConfigurationError):
            RadixPageTable(levels=3)


class TestMemoryAccounting:
    def test_one_node_initially(self):
        assert RadixPageTable().total_bytes() == PAGE_4K

    def test_dense_mapping_node_count(self):
        table = RadixPageTable()
        # Map 2*FANOUT contiguous pages: 2 PTE nodes + 1 PMD + 1 PUD + root.
        for vpn in range(2 * FANOUT):
            table.map(vpn, vpn)
        assert table.node_count == 5
        assert table.max_contiguous_bytes() == PAGE_4K

    def test_sparse_mapping_costs_more_nodes(self):
        dense = RadixPageTable()
        sparse = RadixPageTable()
        for i in range(64):
            dense.map(i, i)
            sparse.map(i * FANOUT * FANOUT, i)
        assert sparse.node_count > dense.node_count


class TestWalkPath:
    def test_walk_depth_4k(self):
        table = RadixPageTable()
        table.map(0x1000, 1)
        leaf, lines = table.walk(0x1000)
        assert leaf is not None
        assert len(lines) == 4  # PGD, PUD, PMD, PTE

    def test_walk_depth_2m(self):
        table = RadixPageTable()
        table.map(0, 1, "2M")
        leaf, lines = table.walk(100)
        assert leaf.page_size == "2M"
        assert len(lines) == 3  # stops at the PMD leaf

    def test_walk_unmapped_stops_at_missing_entry(self):
        table = RadixPageTable()
        table.map(0x1000, 1)
        leaf, lines = table.walk(0x1000 + (1 << 27))  # different PGD entry
        assert leaf is None
        assert len(lines) == 1

    def test_walk_lines_distinct_per_level(self):
        table = RadixPageTable()
        table.map(0x2000, 1)
        _leaf, lines = table.walk(0x2000)
        assert len(set(lines)) == len(lines)


class TestIteration:
    def test_iter_mappings_roundtrip(self):
        table = RadixPageTable()
        expected = set()
        for i in range(50):
            table.map(i * 17, i)
            expected.add((i * 17, i, "4K"))
        table.map(512 * 100, 1234, "2M")
        expected.add((512 * 100, 1234, "2M"))
        assert set(table.iter_mappings()) == expected


class MemoFreeRadix(RadixPageTable):
    """The radix table with its leaf memo cleared before every map."""

    def map(self, vpn, ppn, page_size="4K"):
        self._memo_prefix = -1
        return super().map(vpn, ppn, page_size)


@pytest.mark.fastpath
class TestMapMemo:
    def test_2m_map_over_memoized_leaf_rejected(self):
        table = RadixPageTable()
        table.map(512 * 9 + 5, 1)  # memoizes the leaf node of region 9
        with pytest.raises(ConfigurationError):
            table.map(512 * 9, 2, "2M")
        table.map(512 * 9 + 6, 3)  # the memo still serves the region
        assert table.translate(512 * 9 + 6) == (3, "4K")
        assert table.translate(512 * 9) is None

    def test_unmap_and_remap_in_memoized_leaf(self):
        table = RadixPageTable()
        table.map(100, 1)
        table.map(101, 2)
        assert table.unmap(100)
        assert table.map(100, 3) == 0
        assert table.translate(100) == (3, "4K")
        assert table.mapped_pages["4K"] == 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_memo_free_map(self, seed):
        import random

        rng = random.Random(seed)
        table, ref = RadixPageTable(), MemoFreeRadix()
        for step in range(4000):
            roll = rng.random()
            vpn = rng.randrange(1 << 14)
            if roll < 0.1:
                assert table.unmap(vpn) == ref.unmap(vpn)
                continue
            size = "2M" if roll < 0.15 else "4K"
            vpn = RadixPageTable.align_vpn(vpn, size)
            outcomes = []
            for t in (table, ref):
                try:
                    outcomes.append(t.map(vpn, step, size))
                except ConfigurationError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
        assert list(table.iter_mappings()) == list(ref.iter_mappings())
        assert table.node_count == ref.node_count
        assert table.mapped_pages == ref.mapped_pages


class TestCheckInvariants:
    """``check_invariants`` passes on real tables and catches each corruption."""

    @staticmethod
    def populated():
        table = RadixPageTable()
        for vpn in range(0, 3 * FANOUT, 7):
            table.map(vpn, vpn)
        table.map(8 * FANOUT, 1, "2M")
        table.map(RadixPageTable.align_vpn(1 << 20, "1G"), 2, "1G")
        table.map(5 * FANOUT + 3, 4)  # leaves the map memo on a fresh leaf node
        table.check_invariants()
        return table

    @staticmethod
    def leaf_node(table, vpn):
        return table.node_for_prefix(vpn >> 9, table.levels - 1)

    def test_passes_after_maps_and_unmaps(self):
        table = self.populated()
        assert table.unmap(7)
        assert table.unmap(8 * FANOUT, "2M")
        table.check_invariants()

    def test_node_count_drift(self):
        table = self.populated()
        table.node_count += 1
        with pytest.raises(SimulationError, match="node count"):
            table.check_invariants()

    def test_mapped_pages_drift(self):
        table = self.populated()
        table.mapped_pages["2M"] -= 1
        with pytest.raises(SimulationError, match="mapped-page counts"):
            table.check_invariants()

    def test_leaf_at_the_wrong_depth(self):
        table = self.populated()
        # A 4KB leaf relabelled as a 2MB page sits one level too deep.
        self.leaf_node(table, 0).entries[0].page_size = "2M"
        with pytest.raises(SimulationError, match="depth") as info:
            table.check_invariants()
        assert info.value.context["page_size"] == "2M"

    def test_leaf_index_outside_the_node(self):
        table = self.populated()
        entries = self.leaf_node(table, 0).entries
        entries[FANOUT] = entries.pop(0)
        with pytest.raises(SimulationError, match="index outside"):
            table.check_invariants()

    def test_stale_map_memo(self):
        table = self.populated()
        table._memo_leaf = self.leaf_node(table, 0)
        with pytest.raises(SimulationError, match="memo"):
            table.check_invariants()
