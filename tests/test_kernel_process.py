"""Unit tests for the process model (repro.kernel.process)."""

import numpy as np

from repro.kernel.process import Process
from repro.sim.config import SimulationConfig
from repro.workloads import get_workload

SCALE = 256


def make_process(app="TC", trace_length=3_000):
    workload = get_workload(app, scale=SCALE)
    config = SimulationConfig(organization="mehpt", scale=SCALE)
    system = config.build(workload)
    return Process(
        name=f"{app}#0",
        address_space=system.address_space,
        tlb=system.tlb,
        trace=workload.trace(trace_length),
    )


class TestQuantumExecution:
    def test_runs_in_quanta(self):
        process = make_process(trace_length=2_500)
        cycles = process.run_quantum(1_000)
        assert cycles > 0
        assert process.cursor == 1_000
        assert not process.finished
        process.run_quantum(1_000)
        process.run_quantum(1_000)  # clipped to the remaining 500
        assert process.cursor == 2_500
        assert process.finished
        assert process.accesses_done == 2_500

    def test_remaining(self):
        process = make_process(trace_length=2_000)
        assert process.remaining() == 2_000
        process.run_quantum(700)
        assert process.remaining() == 1_300

    def test_cycles_accumulate(self):
        process = make_process()
        process.run_quantum(500)
        first = process.cycles
        process.run_quantum(500)
        assert process.cycles > first

    def test_demand_paging_happens(self):
        process = make_process()
        process.run_quantum(2_000)
        assert process.address_space.totals.faults > 0
        # Faulted pages really are mapped.
        vpn = int(process.trace[0])
        assert process.address_space.page_tables.translate(vpn) is not None


class TestTeardown:
    def test_teardown_counts_own_entries_only(self):
        a = make_process("TC")
        b = make_process("MUMmer")
        a.run_quantum(3_000)
        b.run_quantum(3_000)
        # Per-process tables: teardown cost is each process's own entry
        # count, independent of the other process (Section II-B).
        assert a.teardown_entries() > 0
        assert b.teardown_entries() > 0
        total = a.teardown_entries() + b.teardown_entries()
        assert a.teardown_entries() < total

    def test_radix_process_reports_zero_hpt_entries(self):
        workload = get_workload("TC", scale=SCALE)
        system = SimulationConfig(organization="radix", scale=SCALE).build(workload)
        process = Process("r", system.address_space, system.tlb,
                          workload.trace(100))
        assert process.teardown_entries() == 0
