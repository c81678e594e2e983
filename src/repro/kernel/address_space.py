"""Address spaces, VMAs and the demand-paging fault handler.

The fault handler is where the page-table organizations differ in *cost*:

* allocating the data frame (identical across organizations — charged
  from the measured cost curve at the configured fragmentation);
* inserting the translation, which for HPTs may trigger cuckoo
  re-insertions (OS work) and — crucially — HPT resizes whose *page-table
  allocations* are cheap small chunks for ME-HPT but huge contiguous
  regions for ECPT.  Those allocation cycles are charged to the faulting
  process, which is exactly the effect behind Figure 9's ME-HPT > ECPT
  performance gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError, MEHPTError
from repro.kernel.thp import PAGES_PER_2M, REGION_SHIFT, ThpPolicy
from repro.mem.alloc_cost import AllocationCostModel
from repro.obs.trace import EVENT_FAULT_SERVICED

#: OS entry/exit + fault bookkeeping, beyond the allocation itself.
FAULT_OVERHEAD_CYCLES = 1200
#: OS cycles per cuckoo re-insertion performed inside an insert.
REINSERT_CYCLES = 120


class SegmentationFault(MEHPTError):
    """Access outside every VMA."""


@dataclass
class Vma:
    """One virtual memory area: [start_vpn, end_vpn) 4KB-granular."""

    start_vpn: int
    end_vpn: int
    name: str = "anon"

    def __post_init__(self) -> None:
        if self.end_vpn <= self.start_vpn:
            raise ConfigurationError(f"empty VMA {self.name}")

    def covers(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def pages(self) -> int:
        return self.end_vpn - self.start_vpn


@dataclass
class FaultResult:
    """Cost breakdown of one serviced page fault."""

    page_size: str
    cycles: float
    data_alloc_cycles: float
    pt_alloc_cycles: float
    reinsert_cycles: float
    kicks: int


@dataclass
class FaultTotals:
    """Aggregated fault costs for one address space."""

    faults: int = 0
    cycles: float = 0.0
    data_alloc_cycles: float = 0.0
    pt_alloc_cycles: float = 0.0
    reinsert_cycles: float = 0.0
    kicks: int = 0
    pages_mapped_4k: int = 0
    pages_mapped_2m: int = 0


class AddressSpace:
    """One process's virtual address space over any page-table organization.

    ``page_tables`` is any organization: radix
    (:class:`~repro.radix.table.RadixPageTable`) and hashed
    (:class:`~repro.ecpt.tables.HashedPageTableSet`) tables both provide
    ``map``/``translate``.  A hashed organization's ``allocation_cycles()``
    method reports its cumulative page-table allocation cycles so the
    fault handler can charge deltas, and its ``map`` returns a
    :class:`~repro.hashing.clustered.MapResult`; radix sets
    ``allocation_cycles`` to None, its ``map`` returns the number of new
    4KB nodes, and it is charged per node instead.

    The THP policy, cost model, FMFI and cycle constants are read once
    here: the fault handler precomputes its per-page-size charges.
    """

    def __init__(
        self,
        page_tables,
        thp: Optional[ThpPolicy] = None,
        cost_model: Optional[AllocationCostModel] = None,
        fmfi: float = 0.7,
        fault_overhead_cycles: float = FAULT_OVERHEAD_CYCLES,
        reinsert_cycles: float = REINSERT_CYCLES,
        charge_data_alloc: bool = True,
        obs=None,
    ) -> None:
        self.page_tables = page_tables
        #: ``page_tables.allocation_cycles`` (None for radix), resolved
        #: once here because every fault reads it twice.
        self._pt_cycles_fn = page_tables.allocation_cycles
        self.thp = thp if thp is not None else ThpPolicy(enabled=False)
        self.cost_model = cost_model if cost_model is not None else AllocationCostModel()
        self.fmfi = fmfi
        self.fault_overhead_cycles = fault_overhead_cycles
        self.reinsert_cycles = reinsert_cycles
        self.charge_data_alloc = charge_data_alloc
        #: Optional repro.obs.Observability; every serviced fault emits a
        #: ``fault_serviced`` trace event carrying its cycle bill.
        self.obs = obs
        self.vmas: List[Vma] = []
        self.totals = FaultTotals()
        self._next_frame = 1 << 20  # synthetic physical frame numbers
        #: The VMA the last fault hit.  VMAs cannot overlap, so a VPN it
        #: covers lies in no other VMA.
        self._last_vma: Optional[Vma] = None
        #: Whether a fault may map a 2MB page at all.
        self._thp_on = self.thp.enabled and self.thp.coverage > 0.0
        fmfi_cost = min(fmfi, self.cost_model.fail_fmfi)
        #: Cycles to allocate one new radix node; hashed organizations
        #: report their page-table allocation cycles themselves.
        self._node_cycles = (
            self.cost_model.cycles(4096, fmfi_cost) if self._pt_cycles_fn is None else None
        )
        #: Data-frame allocation cycles per page size.
        self._data_cycles = {
            size: self.cost_model.cycles(pages * 4096, fmfi_cost) if charge_data_alloc else 0.0
            for size, pages in (("4K", 1), ("2M", PAGES_PER_2M))
        }

    # -- VMA management ------------------------------------------------------

    def add_vma(self, start_vpn: int, pages: int, name: str = "anon") -> Vma:
        """Register a VMA; overlapping VMAs are rejected."""
        vma = Vma(start_vpn, start_vpn + pages, name)
        for existing in self.vmas:
            if vma.start_vpn < existing.end_vpn and existing.start_vpn < vma.end_vpn:
                raise ConfigurationError(
                    f"VMA {name} overlaps {existing.name}"
                )
        self.vmas.append(vma)
        return vma

    def vma_for(self, vpn: int) -> Optional[Vma]:
        """The VMA covering ``vpn``, or None; tries the last one hit first."""
        vma = self._last_vma
        if vma is not None and vma.start_vpn <= vpn < vma.end_vpn:
            return vma
        for vma in self.vmas:
            if vma.covers(vpn):
                self._last_vma = vma
                return vma
        return None

    def total_vma_pages(self) -> int:
        return sum(vma.pages for vma in self.vmas)

    # -- fault handling -----------------------------------------------------

    def handle_fault(self, vpn: int) -> FaultResult:
        """Service a page fault at ``vpn`` (demand paging).

        Raises :class:`SegmentationFault` outside every VMA.  Returns the
        cycle cost breakdown; the caller adds it to the faulting access.
        """
        vma = self.vma_for(vpn)
        if vma is None:
            raise SegmentationFault(f"access to unmapped vpn {vpn:#x}")
        page_size = "4K"
        map_vpn = vpn
        if self._thp_on and self.thp.page_size_for(vpn) == "2M":
            # Clip huge mappings to the VMA: fall back to 4KB if the 2MB
            # region pokes outside it (as Linux does).
            base = (vpn >> REGION_SHIFT) << REGION_SHIFT
            if vma.start_vpn <= base and base + PAGES_PER_2M <= vma.end_vpn:
                page_size = "2M"
                map_vpn = base
        frame = self._next_frame
        if page_size == "2M":
            # Keep huge frames aligned to their size.
            if frame % PAGES_PER_2M:
                frame += PAGES_PER_2M - frame % PAGES_PER_2M
            self._next_frame = frame + PAGES_PER_2M
        else:
            self._next_frame = frame + 1
        data_cycles = self._data_cycles[page_size]

        cycles_fn = self._pt_cycles_fn
        if cycles_fn is None:
            # Radix: ``map`` returns the number of new 4KB nodes.
            nodes = self.page_tables.map(map_vpn, frame, page_size)
            pt_cycles = nodes * self._node_cycles if nodes > 0 else 0.0
            kicks = 0
        else:
            pt_cycles_before = cycles_fn()
            kicks = self.page_tables.map(map_vpn, frame, page_size).kicks
            pt_cycles = cycles_fn() - pt_cycles_before
        reinsert = kicks * self.reinsert_cycles

        total = self.fault_overhead_cycles + data_cycles + pt_cycles + reinsert
        totals = self.totals
        totals.faults += 1
        totals.cycles += total
        totals.data_alloc_cycles += data_cycles
        totals.pt_alloc_cycles += pt_cycles
        totals.reinsert_cycles += reinsert
        totals.kicks += kicks
        if page_size == "2M":
            totals.pages_mapped_2m += 1
        else:
            totals.pages_mapped_4k += 1
        if self.obs is not None:
            self.obs.emit(
                EVENT_FAULT_SERVICED,
                vpn=vpn, page_size=page_size, cycles=total,
                pt_alloc_cycles=pt_cycles, reinsert_cycles=reinsert,
                data_alloc_cycles=data_cycles, kicks=kicks,
            )
        return FaultResult(page_size, total, data_cycles, pt_cycles, reinsert, kicks)
