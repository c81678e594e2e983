"""Fault-once populate equals the translate-then-fault loop it replaced.

:func:`repro.sim.simulator.populate_tables` faults each mapping unit once
and never looks a page up first, charging the lookups it skips.  The
reference below is the loop it replaced: translate every page and fault
on a miss.  Both must yield identical memory results *and* identical
metric snapshots (``cuckoo.lookups`` included), also when the populate
aborts part-way.
"""

import dataclasses

import pytest

import repro.sim.simulator as simulator
from repro.common.errors import ConfigurationError
from repro.faults.plan import SITE_CHUNK_ALLOC, SITE_CONTIGUOUS_ALLOC, FaultPlan, FaultSpec
from repro.obs import ObservabilityConfig
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


def both_results(monkeypatch, app, **config):
    """``asdict(memory_result)`` from the reference loop and from the new one."""
    workload = get_workload(app, scale=SCALES[app])
    config = SimulationConfig(scale=SCALES[app], obs=ObservabilityConfig(), **config)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "populate_tables", reference_populate)
        reference = dataclasses.asdict(memory_result(config.build(workload)))
    fault_once = dataclasses.asdict(memory_result(config.build(workload)))
    return reference, fault_once


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
