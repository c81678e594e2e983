"""Fault-once populate equals the translate-then-fault loop it replaced.

:func:`repro.sim.simulator.populate_tables` faults each mapping unit once
and never looks a page up first, charging the lookups it skips.  The
reference below is the loop it replaced: translate every page and fault
on a miss.  The reference also runs without the fault path's memos (the
last cluster line, radix leaf node and VMA), so every map looks its line
up, descends the tree and scans the VMAs in full.  Both must yield
identical memory results, identical metric snapshots (``cuckoo.lookups``
included) and, when traced, byte-identical event streams, also when the
populate aborts part-way.
"""

import dataclasses

import pytest

import repro.sim.simulator as simulator
from repro.common.errors import ConfigurationError
from repro.faults.plan import SITE_CHUNK_ALLOC, SITE_CONTIGUOUS_ALLOC, FaultPlan, FaultSpec
from repro.hashing.clustered import PAGES_PER_BLOCK, ClusteredHashedPageTable
from repro.kernel.address_space import AddressSpace
from repro.obs import ObservabilityConfig
from repro.radix.table import RadixPageTable
from repro.sim.config import SimulationConfig
from repro.sim.simulator import (
    POPULATE_CHUNK_PAGES,
    check_system_invariants,
    memory_result,
    populate_tables,
)
from repro.workloads import get_workload

pytestmark = pytest.mark.fastpath

#: Footprint divisor per app: small page sets, and at 1/64 MUMmer mixes
#: 2MB and 4KB mappings under THP.
SCALES = {"GUPS": 1024, "BFS": 1024, "MUMmer": 64}


def reference_populate(system):
    """Translate every page of the page set; fault it in on a miss.

    For hashed tables it also re-sums the bytes after every fault, as the
    peak tracker once did, and checks the tables' peak against that.
    """
    aspace = system.address_space
    tables = system.page_tables
    hashed = hasattr(tables, "peak_total_bytes")
    peak = tables.total_bytes() if hashed else 0
    check_every = system.config.invariant_check_every
    page_set = system.workload.page_set()
    i = 0
    try:
        for start in range(0, len(page_set), POPULATE_CHUNK_PAGES):
            for vpn in page_set[start : start + POPULATE_CHUNK_PAGES].tolist():
                if tables.translate(vpn) is None:
                    aspace.handle_fault(vpn)
                    if hashed:
                        peak = max(peak, tables.total_bytes())
                if check_every and i % check_every == 0 and i:
                    check_system_invariants(system, i)
                i += 1
    finally:
        if hashed:
            assert tables.peak_total_bytes == peak
    if check_every:
        check_system_invariants(system, -1)
    if system.obs is not None:
        system.obs.advance_clock(int(aspace.totals.cycles))
        system.obs.registry.counter("sim.populated_pages").set_total(i)


def without_memos(patch):
    """Clear the map memos before every map and scan every VMA per fault."""
    hpt_map = ClusteredHashedPageTable.map
    radix_map = RadixPageTable.map

    def hpt(self, vpn, ppn):
        self._memo_block = -1
        return hpt_map(self, vpn, ppn)

    def radix(self, vpn, ppn, page_size="4K"):
        self._memo_prefix = -1
        return radix_map(self, vpn, ppn, page_size)

    def vma_for(self, vpn):
        return next((vma for vma in self.vmas if vma.covers(vpn)), None)

    patch.setattr(ClusteredHashedPageTable, "map", hpt)
    patch.setattr(RadixPageTable, "map", radix)
    patch.setattr(AddressSpace, "vma_for", vma_for)


def both_results(monkeypatch, app, reshape=None, trace_dir=None, **config):
    """``asdict(memory_result)`` from the reference loop and from the new one.

    ``reshape(workload, patch)`` may replace the workload's page set or
    VMA layout for both runs.  With ``trace_dir`` each run also writes
    its event trace there; the second item of each result is its bytes.
    """
    workload = get_workload(app, scale=SCALES[app])
    if reshape is not None:
        reshape(workload, monkeypatch)

    def run(name):
        obs = ObservabilityConfig()
        if trace_dir is not None:
            obs = ObservabilityConfig(trace_path=str(trace_dir / f"{name}.jsonl"))
        cfg = SimulationConfig(scale=SCALES[app], obs=obs, **config)
        result = dataclasses.asdict(memory_result(cfg.build(workload)))
        if trace_dir is None:
            return result
        return result, (trace_dir / f"{name}.jsonl").read_bytes()

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "populate_tables", reference_populate)
        without_memos(patch)
        reference = run("reference")
    return reference, run("fault_once")


@pytest.mark.parametrize("check_every", [0, 97])
@pytest.mark.parametrize("thp", [False, True])
@pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
@pytest.mark.parametrize("app", sorted(SCALES))
def test_matches_translate_then_fault(monkeypatch, app, organization, thp, check_every):
    reference, fault_once = both_results(
        monkeypatch, app,
        organization=organization, thp_enabled=thp,
        invariant_check_every=check_every,
    )
    assert not reference["failed"]
    assert reference["metrics"]
    assert fault_once == reference


def with_holes(workload, patch):
    """Drop about a third of the pages: holes inside lines and leaves."""
    pages = workload.page_set()
    kept = pages[(pages * 2654435761 >> 5) % 3 != 0]
    patch.setattr(workload, "page_set", lambda: kept)


def split_inside_a_block(workload, patch):
    """Split the data VMA in two inside a cluster line, two pages apart,
    so the line (and with THP its 2MB region) straddles both VMAs."""
    (start, pages, name), = workload.vma_layout()
    all_pages = workload.page_set()
    present = set(all_pages.tolist())
    # From the middle on, the first line with pages on both sides of the
    # gap [cut, cut + 2) and in it.
    cut = next(
        vpn for vpn in all_pages[all_pages.size // 2:].tolist()
        if vpn % PAGES_PER_BLOCK == 3 and vpn - 3 in present and vpn + 4 in present
    )
    layout = [(start, cut - start, name), (cut + 2, start + pages - cut - 2, name + "-hi")]
    patch.setattr(workload, "vma_layout", lambda: layout)
    kept = all_pages[(all_pages < cut) | (all_pages >= cut + 2)]
    patch.setattr(workload, "page_set", lambda: kept)


@pytest.mark.parametrize("reshape", [with_holes, split_inside_a_block])
@pytest.mark.parametrize("thp", [False, True])
@pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
def test_reshaped_page_sets_match(monkeypatch, organization, thp, reshape):
    reference, fault_once = both_results(
        monkeypatch, "GUPS", reshape=reshape,
        organization=organization, thp_enabled=thp, invariant_check_every=97,
    )
    assert not reference["failed"]
    assert fault_once == reference


@pytest.mark.parametrize("thp", [False, True])
@pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
def test_traced_events_match(monkeypatch, tmp_path, organization, thp):
    (reference, ref_trace), (fault_once, trace) = both_results(
        monkeypatch, "MUMmer", reshape=with_holes, trace_dir=tmp_path,
        organization=organization, thp_enabled=thp,
    )
    assert fault_once == reference
    assert b'"fault_serviced"' in ref_trace
    assert trace == ref_trace


def test_ecpt_contiguous_abort_matches(monkeypatch):
    reference, fault_once = both_results(
        monkeypatch, "GUPS", organization="ecpt", fmfi=0.75,
    )
    assert reference["failed"] and "contiguous" in reference["failure_reason"]
    assert fault_once == reference


def test_mehpt_chunk_fault_abort_matches(monkeypatch):
    plan = FaultPlan(
        [FaultSpec(SITE_CHUNK_ALLOC, probability=0.6, min_bytes=65537)], seed=1
    )
    reference, fault_once = both_results(
        monkeypatch, "GUPS", organization="mehpt", fault_plan=plan,
        invariant_check_every=97,
    )
    assert reference["failed"]
    assert reference["degradation_counts"]["abort"] > 0
    assert fault_once == reference


def test_abort_after_huge_mappings_matches(monkeypatch):
    # Aborts part-way through MUMmer after some 2MB mappings, so the
    # charged lookups include 2MB hits.
    plan = FaultPlan([FaultSpec(SITE_CONTIGUOUS_ALLOC, every=1, min_bytes=65537)])
    reference, fault_once = both_results(
        monkeypatch, "MUMmer", organization="ecpt", thp_enabled=True,
        fault_plan=plan,
    )
    assert reference["failed"] and reference["pages_mapped_2m"]
    assert fault_once == reference


def test_lookups_charged_without_probing():
    workload = get_workload("MUMmer", scale=SCALES["MUMmer"])
    system = SimulationConfig(
        organization="mehpt", scale=SCALES["MUMmer"], thp_enabled=True
    ).build(workload)
    populate_tables(system)
    pages = len(workload.page_set())
    faults = system.address_space.totals
    hits_2m = pages - faults.faults
    assert faults.pages_mapped_2m and faults.pages_mapped_4k and hits_2m
    lookups = {
        size: table.table.stats.lookups
        for size, table in system.page_tables.tables.items()
    }
    # Each page a translate would have probed, plus each block map()'s own
    # lookup of its cluster line in the table it maps into.
    assert lookups["1G"] == pages
    assert lookups["2M"] == pages + faults.pages_mapped_2m
    assert lookups["4K"] == faults.faults + faults.pages_mapped_4k


@pytest.mark.parametrize("organization", ["radix", "ecpt", "mehpt"])
def test_second_populate_is_a_configuration_error(organization):
    workload = get_workload("BFS", scale=SCALES["BFS"])
    system = SimulationConfig(organization=organization, scale=SCALES["BFS"]).build(workload)
    populate_tables(system)
    faults = system.address_space.totals.faults
    with pytest.raises(ConfigurationError, match="fresh page tables"):
        populate_tables(system)
    assert system.address_space.totals.faults == faults


def test_unsorted_page_set_is_a_configuration_error(monkeypatch):
    workload = get_workload("BFS", scale=SCALES["BFS"])
    system = SimulationConfig(organization="mehpt", scale=SCALES["BFS"]).build(workload)
    reversed_pages = workload.page_set()[::-1]
    monkeypatch.setattr(workload, "page_set", lambda: reversed_pages)
    with pytest.raises(ConfigurationError, match="sorted, unique"):
        populate_tables(system)
    assert system.address_space.totals.faults == 0
