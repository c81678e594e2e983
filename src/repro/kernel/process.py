"""Process model and the simulator's one per-access scalar loop.

Per-process HPTs are the paper's setting (a global HPT cannot support
sharing/page sizes or cheap teardown — Section II-B), so a process here
bundles its own page tables, address space, and workload stream, plus
the process-lifetime operations the datacenter scheduler needs.

:class:`AccessLoop` is the scalar reference every fast path is checked
against; :meth:`Process.run_quantum` drives it for scheduler quanta and
:class:`~repro.sim.simulator.TranslationSimulator`'s scalar engine over
a single-process trace.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.kernel.address_space import AddressSpace


class AccessLoop:
    """Translate → ``handle_fault`` → ``fill``, one access at a time.

    After :meth:`run` returns or raises, ``done`` is the number of
    accesses it completed and ``cycles`` the total through the last one
    it translated: on an abort, the aborting access, whose walk ran
    before the fault handler raised.
    """

    def __init__(self, tlb, address_space: AddressSpace) -> None:
        self.tlb = tlb
        self.address_space = address_space
        self.done = 0
        self.cycles = 0.0

    def run(self, vpns: List[int], cycles: float = 0.0, clock=None) -> float:
        """Add each access's cycles to ``cycles``; returns the new total.

        ``clock`` gets the integer total after every access, so events
        emitted while servicing an access carry the clock at its start.
        """
        translate = self.tlb.translate
        fault = self.address_space.handle_fault
        fill = self.tlb.fill
        region_base = self.address_space.thp.region_base
        done = 0
        try:
            for done, vpn in enumerate(vpns):
                outcome = translate(vpn)
                cycles += outcome.cycles
                if outcome.level == "fault":
                    size = fault(vpn).page_size
                    fill(vpn if size != "2M" else region_base(vpn), size)
                if clock is not None:
                    clock(int(cycles))
            done = len(vpns)
        finally:
            self.done = done  # on a raise: the aborting access's index
            self.cycles = cycles
        return cycles


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
        self.loop = AccessLoop(tlb, address_space)
        self.cursor = 0
        self.cycles = 0.0
        self.accesses_done = 0
        self.finished = False

    def remaining(self) -> int:
        return len(self.trace) - self.cursor

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent.

        An abort propagates with cursor and cycles left as they were.
        """
        end = min(self.cursor + quantum, len(self.trace))
        # One bulk numpy->int conversion per quantum instead of one
        # int() call per access; the loop then runs on plain ints.
        cycles = self.loop.run(self.trace[self.cursor:end].tolist())
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
