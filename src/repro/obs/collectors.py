"""Snapshot-time collectors: copy component counters into the registry.

The simulator's components already count everything the paper's figures
need (walker cycles, cuckoo kick histograms, allocator footprints);
observing them costs nothing until a snapshot is taken.  This module
registers one collector per component on a built
:class:`~repro.sim.config.SimulatedSystem`; each collector runs inside
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and copies the
component's state into catalogue-validated metrics.

Everything here is duck-typed against the component attributes (``stats``
objects, lifetime counters) rather than against the classes, so the
module imports nothing from the simulator and stays a leaf.  The page
tables publish their own metrics (``publish_metrics``), whatever their
organization.

All byte quantities are published at full-scale equivalents, matching
``MemoryFootprintResult`` (the allocator already accounts at ``scale x``;
table and way bytes are multiplied back by the scale).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


def register_system_metrics(registry: MetricsRegistry, system) -> None:
    """Register collectors for every instrumented component of ``system``."""
    scale = system.config.scale
    _register_alloc(registry, system.allocator.stats)
    _register_tlb(registry, system.tlb)
    _register_walker(registry, system.walker)
    _register_kernel(registry, system.address_space.totals)
    _register_degradation(registry, system.degradation)
    tables = system.page_tables
    registry.add_collector(lambda reg: tables.publish_metrics(reg, scale))


def _register_alloc(registry: MetricsRegistry, stats) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("alloc.allocations").set_total(stats.allocations)
        reg.counter("alloc.frees").set_total(stats.frees)
        reg.counter("alloc.cycles").set_total(stats.cycles)
        reg.counter("alloc.failed_allocations").set_total(stats.failed_allocations)
        reg.gauge("alloc.current_bytes").set(stats.current_bytes)
        reg.gauge("alloc.peak_bytes").set(stats.peak_bytes)
        reg.gauge("alloc.max_contiguous_bytes").set(stats.max_contiguous_bytes)

    registry.add_collector(collect)


def _register_tlb(registry: MetricsRegistry, tlb) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("tlb.translations").set_total(tlb.translations)
        reg.counter("tlb.l1_hits").set_total(tlb.l1_hits)
        reg.counter("tlb.l2_hits").set_total(tlb.l2_hits)
        reg.counter("tlb.walks").set_total(tlb.walks)
        reg.counter("tlb.faults").set_total(tlb.faults)

    registry.add_collector(collect)


def _register_walker(registry: MetricsRegistry, walker) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("walker.walks").set_total(walker.walks)
        reg.counter("walker.walk_cycles").set_total(walker.total_cycles)
        reg.counter("walker.memory_accesses").set_total(walker.total_accesses)
        if hasattr(walker, "cwt_memory_reads"):
            reg.counter("walker.cwt_memory_reads").set_total(
                walker.cwt_memory_reads
            )
        if hasattr(walker, "l2p_hidden_accesses"):
            reg.counter("l2p.hidden_accesses").set_total(
                walker.l2p_hidden_accesses
            )
            reg.counter("l2p.exposed_cycles").set_total(
                walker.l2p_exposed_cycles
            )

    registry.add_collector(collect)


def _register_kernel(registry: MetricsRegistry, totals) -> None:
    def collect(reg: MetricsRegistry) -> None:
        reg.counter("kernel.faults").set_total(totals.faults)
        reg.counter("kernel.fault_cycles").set_total(totals.cycles)
        reg.counter("kernel.pt_alloc_cycles").set_total(totals.pt_alloc_cycles)
        reg.counter("kernel.data_alloc_cycles").set_total(totals.data_alloc_cycles)
        reg.counter("kernel.reinsert_cycles").set_total(totals.reinsert_cycles)
        reg.counter("kernel.kicks").set_total(totals.kicks)
        reg.counter("kernel.pages_mapped_4k").set_total(totals.pages_mapped_4k)
        reg.counter("kernel.pages_mapped_2m").set_total(totals.pages_mapped_2m)

    registry.add_collector(collect)


def _register_degradation(registry: MetricsRegistry, log) -> None:
    def collect(reg: MetricsRegistry) -> None:
        for kind, count in sorted(log.counts().items()):
            reg.counter("faults.events", kind=kind).set_total(count)
        reg.counter("faults.recovery_cycles").set_total(log.recovery_cycles)

    registry.add_collector(collect)
