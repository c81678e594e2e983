"""Unit tests for address spaces and fault handling (repro.kernel.address_space)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.mehpt import MeHptPageTables
from repro.ecpt.tables import EcptPageTables
from repro.kernel.address_space import AddressSpace, SegmentationFault, Vma
from repro.kernel.thp import PAGES_PER_2M, ThpPolicy
from repro.mem.allocator import CostModelAllocator
from repro.radix.table import RadixPageTable


def make_aspace(tables=None, thp=None, **kwargs):
    tables = tables if tables is not None else EcptPageTables(CostModelAllocator(fmfi=0.3))
    aspace = AddressSpace(tables, thp=thp, fmfi=0.3, **kwargs)
    aspace.add_vma(0x10000, 200_000, "heap")
    return aspace


class TestVma:
    def test_empty_vma_rejected(self):
        with pytest.raises(ConfigurationError):
            Vma(10, 10)

    def test_overlap_rejected(self):
        aspace = make_aspace()
        with pytest.raises(ConfigurationError):
            aspace.add_vma(0x10000 + 100, 10)

    def test_vma_for(self):
        aspace = make_aspace()
        assert aspace.vma_for(0x10000).name == "heap"
        assert aspace.vma_for(0x5) is None

    def test_total_pages(self):
        aspace = make_aspace()
        assert aspace.total_vma_pages() == 200_000


class TestFaultHandling:
    def test_fault_maps_page(self):
        aspace = make_aspace()
        result = aspace.handle_fault(0x10005)
        assert result.page_size == "4K"
        assert aspace.page_tables.translate(0x10005) is not None
        assert result.cycles > 0

    def test_segfault_outside_vmas(self):
        aspace = make_aspace()
        with pytest.raises(SegmentationFault):
            aspace.handle_fault(0x5)

    def test_segfault_just_past_the_vma_last_faulted(self):
        aspace = make_aspace()
        aspace.handle_fault(0x10000 + 200_000 - 1)
        with pytest.raises(SegmentationFault):
            aspace.handle_fault(0x10000 + 200_000)

    def test_thp_fault_maps_whole_region(self):
        aspace = make_aspace(thp=ThpPolicy(enabled=True, coverage=1.0))
        vpn = ((0x10000 // PAGES_PER_2M) + 1) * PAGES_PER_2M + 37
        result = aspace.handle_fault(vpn)
        assert result.page_size == "2M"
        base = aspace.thp.region_base(vpn)
        assert aspace.page_tables.translate(base)[1] == "2M"
        assert aspace.page_tables.translate(base + 511)[1] == "2M"

    def test_thp_clipped_at_vma_edge(self):
        tables = EcptPageTables(CostModelAllocator(fmfi=0.3))
        aspace = AddressSpace(tables, thp=ThpPolicy(enabled=True, coverage=1.0), fmfi=0.3)
        # A VMA that does not cover a whole 2MB region.
        aspace.add_vma(PAGES_PER_2M * 10 + 5, 100, "small")
        result = aspace.handle_fault(PAGES_PER_2M * 10 + 50)
        assert result.page_size == "4K"

    def test_huge_frames_are_aligned(self):
        aspace = make_aspace(thp=ThpPolicy(enabled=True, coverage=1.0))
        vpn = ((0x10000 // PAGES_PER_2M) + 2) * PAGES_PER_2M
        aspace.handle_fault(vpn)
        ppn, size = aspace.page_tables.translate(vpn)
        assert size == "2M"
        assert ppn % PAGES_PER_2M == 0

    def test_totals_accumulate(self):
        aspace = make_aspace()
        for i in range(50):
            aspace.handle_fault(0x10000 + i)
        assert aspace.totals.faults == 50
        assert aspace.totals.pages_mapped_4k == 50
        assert aspace.totals.cycles > 0

    def test_pt_alloc_delta_charged_for_hpt(self):
        aspace = make_aspace(charge_data_alloc=False)
        # Map enough to force HPT resizes; some fault must carry pt cycles.
        for i in range(30_000):
            aspace.handle_fault(0x10000 + i)
        assert aspace.totals.pt_alloc_cycles > 0

    def test_radix_node_cost_charged(self):
        tables = RadixPageTable()
        aspace = AddressSpace(tables, fmfi=0.3, charge_data_alloc=False)
        aspace.add_vma(0x10000, 1000, "heap")
        aspace.handle_fault(0x10000)
        assert aspace.totals.pt_alloc_cycles > 0

    def test_faults_map_whole_vma(self):
        tables = MeHptPageTables(CostModelAllocator(fmfi=0.3))
        aspace = AddressSpace(tables, fmfi=0.3)
        vma = aspace.add_vma(0x40000, 500, "data")
        for vpn in range(vma.start_vpn, vma.end_vpn):
            aspace.handle_fault(vpn)
        assert all(
            tables.translate(0x40000 + i) is not None for i in range(0, 500, 13)
        )

    def test_thp_faults_count_huge_pages(self):
        tables = MeHptPageTables(CostModelAllocator(fmfi=0.3))
        aspace = AddressSpace(
            tables, thp=ThpPolicy(enabled=True, coverage=1.0), fmfi=0.3
        )
        start = PAGES_PER_2M * 20
        aspace.add_vma(start, PAGES_PER_2M * 2, "data")
        for vpn in (start + 7, start + PAGES_PER_2M + 300):
            assert aspace.handle_fault(vpn).page_size == "2M"
        assert aspace.totals.pages_mapped_2m == 2
        assert aspace.totals.pages_mapped_4k == 0

    def test_data_alloc_toggle(self):
        with_data = make_aspace(charge_data_alloc=True)
        without = make_aspace(charge_data_alloc=False)
        a = with_data.handle_fault(0x10000)
        b = without.handle_fault(0x10000)
        assert a.data_alloc_cycles > 0
        assert b.data_alloc_cycles == 0
