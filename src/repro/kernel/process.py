"""Process model: a schedulable entity owning page tables and a trace.

Per-process HPTs are the paper's setting (a global HPT cannot support
sharing/page sizes or cheap teardown — Section II-B), so a process here
bundles its own page tables, address space, and workload stream, plus
the process-lifetime operations the multi-process simulator needs.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.address_space import AddressSpace
from repro.kernel.thp import REGION_SHIFT


class Process:
    """One runnable process with its own translation machinery.

    ``trace`` is the process's (possibly very long) virtual-page access
    stream; the scheduler consumes it in quanta.  ``l2p`` is the page
    tables' L2P table (ME-HPT) or None — the context-switch model uses
    it to price the L2P save/restore.
    """

    def __init__(
        self,
        name: str,
        address_space: AddressSpace,
        tlb,
        trace: np.ndarray,
    ) -> None:
        self.name = name
        self.address_space = address_space
        self.tlb = tlb
        self.trace = trace
        self.l2p = address_space.page_tables.l2p
        self.cursor = 0
        self.cycles = 0.0
        self.accesses_done = 0
        self.finished = False

    def remaining(self) -> int:
        return len(self.trace) - self.cursor

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent."""
        end = min(self.cursor + quantum, len(self.trace))
        cycles = 0.0
        translate = self.tlb.translate
        fault = self.address_space.handle_fault
        fill = self.tlb.fill
        # One bulk numpy->int conversion per quantum instead of one
        # int() call per access; the loop then runs on plain ints.
        for vpn in self.trace[self.cursor:end].tolist():
            outcome = translate(vpn)
            cycles += outcome.cycles
            if outcome.level == "fault":
                result = fault(vpn)
                fill(
                    (vpn >> REGION_SHIFT) << REGION_SHIFT
                    if result.page_size == "2M"
                    else vpn,
                    result.page_size,
                )
        self.accesses_done += end - self.cursor
        self.cursor = end
        self.cycles += cycles
        if self.cursor >= len(self.trace):
            self.finished = True
        return cycles

    def teardown_entries(self) -> int:
        """Entries to delete at process death.

        For per-process HPTs this is a table drop (free the chunks); the
        global-HPT alternative would need a linear scan of everything —
        the Section II-B argument for per-process tables.
        """
        return self.address_space.page_tables.teardown_entries()
