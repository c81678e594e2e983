"""The vectorized engine: one core, two drivers.

:class:`QuantumEngine` is the simulator's one vectorized core.  It holds
the suspendable batched state of one process —
:class:`~repro.mmu.tlb_array.ArrayTlb` mirrors of its L1/L2 TLBs, a
:class:`StaticThpSizer`, and a :mod:`repro.mmu.walk_batch` Plan/Seal/Flush
batcher — and :meth:`~QuantumEngine.run_chunk` replays one numpy chunk
of VPNs through it instead of one Python int at a time.  Per chunk it
decides — exactly, via offline LRU — which accesses hit L1 (zero
cycles), which hit L2, and which are full misses; the misses are
*batch-walked* (line streams resolved with vectorized gathers and
probed against array mirrors of the cache hierarchy), and only demand
faults, with their kicks, resizes and allocations, run through the real
fault handler, in trace order.

Two drivers feed the core:

* :func:`repro.sim.fastpath.run_vectorized` streams a single-process
  trace chunk by chunk and adds the warmup snapshot, invariant-check
  cadence and traced event synthesis (through the ``checks`` and
  ``on_walks`` hooks, which only that driver sets);
* :meth:`QuantumEngine.run_quantum` runs one scheduling quantum of a
  :class:`~repro.kernel.process.Process` for the datacenter simulator.
  The state survives context switches: nothing outside a process's own
  accesses touches its TLBs (the datacenter shootdown model is
  accounting-only).

Both are **bit-identical** to the one scalar reference loop,
:class:`~repro.kernel.process.AccessLoop` (driven by
:meth:`~repro.sim.simulator.TranslationSimulator.run`'s scalar engine
and by :meth:`~repro.kernel.process.Process.run_quantum`): every
counter, cycle total, metrics snapshot, traced event and final TLB
content.
What makes exactness possible:

* Every completed access leaves its tag at the MRU position of the TLBs
  of its resolved page size, so per-chunk hit levels are a pure function
  of the VPN stream (see :mod:`repro.mmu.tlb_array`).  The same
  invariant holds for cache-hierarchy lines, which is what lets the
  batched walker mirror the caches as arrays.
* THP page-size decisions are stateless and per-2MB-region consistent,
  so :class:`StaticThpSizer` computes each access's page size up front
  and the chunk splits into independent per-size probe streams.  The
  kernel and the walkers confirm every prediction; a mismatch raises
  :class:`~repro.common.errors.EngineDivergenceError`.
* Faults are the only operations that mutate page tables, cuckoo
  geometry or CWT contents, so between faults the batcher resolves line
  addresses for many walks at once; the cache hierarchy is touched by
  nothing but walks, so its probes are deferred to one flush per chunk.
* Cycle totals are integer-valued floats below 2**53, so batched sums
  equal the scalar engine's one-by-one accumulation exactly.  The
  per-walk NUMA charge (``machine.on_walk``) is applied as batched
  per-socket adds at flush: the active socket is fixed for a quantum.
* An exception raised mid-chunk (an abort from the fault handler) is
  handled as the scalar loop handles it: the aborting access's walk was
  charged before the handler raised, so pending walks are flushed and
  counters applied through it, then the exception propagates.  Aborted
  runs' TLB *contents* are unspecified in both engines; their counters
  are exact.

The datacenter simulator shares one
:class:`~repro.mmu.walk_batch.NumaCacheBatch` across every tenant's
batcher — tenants share the machine's cache hierarchy, and per-quantum
flushing keeps the global line stream in exactly the scalar
interleaving.  Every other engine owns a private cache mirror.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import EngineDivergenceError
from repro.hashing.clustered import PAGE_SHIFT
from repro.hashing.hashes import mix64_array
from repro.kernel.address_space import AddressSpace
from repro.kernel.thp import PAGES_PER_2M, REGION_SHIFT
from repro.mmu.tlb_array import ArrayTlb
from repro.mmu.walk_batch import CacheBatch, make_walk_batch


class StaticThpSizer:
    """Vectorized, exact replica of the kernel's page-size decision.

    ``ThpPolicy.page_size_for`` is a pure function of the 2MB region
    number, and ``AddressSpace.handle_fault`` clips 2MB mappings to 4KB
    unless some VMA fully covers the region — also a pure region-level
    predicate (VMAs never change mid-run and cannot overlap).  So every
    access's resolved page size is known before simulation, which is
    what lets the engine split a chunk into per-size probe streams.
    """

    def __init__(self, aspace: AddressSpace, probe_sizes: List[str]) -> None:
        thp = aspace.thp
        self.enabled = thp.enabled and thp.coverage > 0.0 and "2M" in probe_sizes
        self.seed = thp.seed
        self.coverage = thp.coverage
        self.code_2m = probe_sizes.index("2M") if self.enabled else 0
        self._vmas = [(vma.start_vpn, vma.end_vpn) for vma in aspace.vmas]

    def codes(self, chunk: np.ndarray) -> np.ndarray:
        """Per-access probe-stream codes (indices into the probe order)."""
        codes = np.zeros(chunk.size, dtype=np.int64)
        if not self.enabled:
            return codes
        regions = chunk >> np.int64(REGION_SHIFT)
        uniq, inverse = np.unique(regions, return_inverse=True)
        # The policy's deterministic per-region coin, bit-exactly.
        draw = (mix64_array(uniq, self.seed) >> np.uint64(11)).astype(
            np.float64
        ) / float(1 << 53)
        backed = draw < self.coverage
        base = uniq << np.int64(REGION_SHIFT)
        covered = np.zeros(uniq.size, dtype=bool)
        for start, end in self._vmas:
            covered |= (base >= start) & (base + PAGES_PER_2M <= end)
        codes[(backed & covered)[inverse]] = self.code_2m
        return codes


def _apply_counters(
    tlb, sizes: List[str], level: np.ndarray, stream: np.ndarray
) -> None:
    """Add one (possibly partial) chunk's TLB counters, exactly.

    ``level`` holds each access's resolution (0 = L1 hit, 1 = L2 hit,
    2 = walk, 3 = fault) and ``stream`` its page-size probe code.  The
    scalar probe cascade determines which TLBs each access touched: an
    access resolving at level L in stream s probes every earlier-order
    TLB of its resolving level (misses) and all TLBs of lower levels.
    """
    nsizes = len(sizes)
    joint = np.bincount(
        level.astype(np.int64) * nsizes + stream, minlength=4 * nsizes
    ).reshape(4, nsizes)
    per_level = joint.sum(axis=1)
    n = int(level.size)
    ge1 = n - int(per_level[0])
    ge2 = int(per_level[2] + per_level[3])
    for order, size in enumerate(sizes):
        l1 = tlb.l1[size]
        l2 = tlb.l2[size]
        l1.hits += int(joint[0, order])
        l1.misses += int(joint[0, order + 1:].sum()) + ge1
        l2.hits += int(joint[1, order])
        l2.misses += int(joint[1, order + 1:].sum()) + ge2
    tlb.translations += n
    tlb.l1_hits += int(per_level[0])
    tlb.l2_hits += int(per_level[1])
    tlb.walks += ge2
    tlb.faults += int(per_level[3])


class QuantumEngine:
    """Suspendable vectorized execution state for one process.

    ``process`` is only needed by :meth:`run_quantum`; the single-process
    driver passes None and feeds :meth:`run_chunk` directly.  ``caches``
    shares a cache mirror across engines (the datacenter's
    :class:`~repro.mmu.walk_batch.NumaCacheBatch`), ``machine`` is the
    datacenter's per-walk NUMA accounting hook.
    """

    def __init__(
        self,
        process,
        system,
        caches: Optional[CacheBatch] = None,
        machine=None,
    ) -> None:
        tlb = system.tlb
        self.process = process
        self.system = system
        self.machine = machine
        self.sizes = list(tlb.l1.keys())
        self.sizer = StaticThpSizer(system.address_space, self.sizes)
        self._shifts = [PAGE_SHIFT[size] for size in self.sizes]
        self._l2_hit_cycles = [tlb.l2[size].hit_cycles for size in self.sizes]
        self.l2_probe_cycles = tlb.l2_miss_probe_cycles
        self.l1_arr: Dict[str, ArrayTlb] = {
            size: ArrayTlb.from_tlb(t) for size, t in tlb.l1.items()
        }
        self.l2_arr: Dict[str, ArrayTlb] = {
            size: ArrayTlb.from_tlb(t) for size, t in tlb.l2.items()
        }
        self._owns_caches = caches is None
        self.batcher = make_walk_batch(system, self.sizes, caches=caches)
        #: Invariant-check cadence: ``checks.through(index)`` runs every
        #: check due at or before global event ``index``.  None = off.
        self.checks = None
        #: Traced-event sink called with each flushed
        #: :class:`~repro.mmu.walk_batch.WalkFlush`; when set, pending
        #: walks are also flushed before every fault so events keep
        #: trace order.  None = off.
        self.on_walks = None
        #: The last chunk's per-access resolution level and cycles, and
        #: after an exception the chunk-local index of the aborting access.
        self.level: Optional[np.ndarray] = None
        self.cycles: Optional[np.ndarray] = None
        self.aborted_at = -1
        self._finalized = False

    def run_quantum(self, quantum: int) -> float:
        """Execute up to ``quantum`` accesses; returns the cycles spent.

        Drop-in replacement for the scalar
        :meth:`~repro.kernel.process.Process.run_quantum`: updates the
        same process fields, returns the same float, raises the same
        exceptions at the same access (leaving cursor and cycles as they
        were).
        """
        process = self.process
        trace = process.trace
        start = process.cursor
        end = min(start + quantum, len(trace))
        total = self.run_chunk(
            np.ascontiguousarray(trace[start:end], dtype=np.int64)
        )
        process.accesses_done += end - start
        process.cursor = end
        process.cycles += total
        if process.cursor >= len(trace):
            process.finished = True
            self.finalize()
        return total

    def run_chunk(self, chunk: np.ndarray, base: int = 0) -> float:
        """Translate one chunk of VPNs; returns its translation cycles.

        Classifies every access per page-size stream against the TLB
        mirrors, walks the misses in trace order (plan → seal → real
        fault handler → page-size check), flushes the batched walks and
        applies the chunk's TLB counters.  ``base`` is the chunk's global
        event index, used only by the ``checks`` cadence.
        """
        n = int(chunk.size)
        sizes = self.sizes
        sizer = self.sizer
        stream = sizer.codes(chunk)
        level = np.zeros(n, dtype=np.int8)
        cycles = np.zeros(n, dtype=np.int64)
        self.level, self.cycles = level, cycles
        for code, size in enumerate(sizes):
            if sizer.enabled:
                idx = np.flatnonzero(stream == code)
            elif code == 0:
                idx = np.arange(n, dtype=np.int64)  # all accesses are 4K
            else:
                break
            if idx.size == 0:
                continue
            numbers = chunk[idx] >> np.int64(self._shifts[code])
            l1_hit = self.l1_arr[size].batch_probe(numbers)
            l1_miss = idx[~l1_hit]
            l2_hit = self.l2_arr[size].batch_probe(numbers[~l1_hit])
            hit2 = l1_miss[l2_hit]
            level[hit2] = 1
            cycles[hit2] = self._l2_hit_cycles[code]
            level[l1_miss[~l2_hit]] = 2

        batcher = self.batcher
        fault_fn = self.system.address_space.handle_fault
        tlb = self.system.tlb
        checks = self.checks
        drain_at_faults = self.on_walks is not None
        aborted_at = -1
        try:
            for local in np.flatnonzero(level >= 2).tolist():
                if checks is not None:
                    checks.through(base + local - 1)
                aborted_at = local
                vpn = int(chunk[local])
                code = int(stream[local])
                if batcher.plan(local, vpn, code):
                    # Demand fault: seal the segment's line addresses
                    # against the pre-fault geometry, then run the real
                    # fault handler in trace order.  Cache probing only
                    # has to happen now when events are being emitted.
                    batcher.seal_segment()
                    if drain_at_faults:
                        self._drain()
                    level[local] = 3
                    page_size = fault_fn(vpn).page_size
                    if page_size != sizes[code]:
                        organization = self.system.config.organization
                        raise EngineDivergenceError(vpn, sizes[code], page_size, organization)
                if checks is not None:
                    checks.through(base + local)
            self._drain()
            if checks is not None:
                checks.through(base + n - 1)
        except Exception:
            # The aborting access's walk completed in the scalar loop
            # before the fault handler raised: finalize the pending
            # walks (all planned at or before it) and count the prefix
            # through it, so cycles and counters stay exact.
            self.aborted_at = aborted_at
            self._drain()
            done = aborted_at + 1
            _apply_counters(tlb, sizes, level[:done], stream[:done])
            if self._owns_caches:
                batcher.caches.write_back()
            raise
        _apply_counters(tlb, sizes, level, stream)
        return float(cycles.sum())

    def _drain(self) -> None:
        """Flush pending walks: scatter cycles, charge NUMA, emit events."""
        result = self.batcher.flush()
        if result is None:
            return
        self.cycles[result.locals_] = self.l2_probe_cycles + result.cycles
        machine = self.machine
        if machine is not None:
            # Replicates translate()'s per-walk on_walk(walk.cycles):
            # the active socket is fixed for the whole quantum and walk
            # cycles are integer-valued, so the batched sum is exact.
            socket = machine.active_socket
            machine.walks_by_socket[socket] += int(result.locals_.size)
            machine.walk_cycles_by_socket[socket] += float(result.cycles.sum())
        if self.on_walks is not None:
            self.on_walks(result)

    def finalize(self) -> None:
        """Write TLB mirrors (and an owned cache mirror) back; idempotent.

        Called when a run completes or a process is torn down mid-run so
        the real TLB lists hold exactly what the scalar engine leaves
        behind.  A shared cache mirror is written back by its owner (the
        datacenter simulator) instead.
        """
        if self._finalized:
            return
        self._finalized = True
        tlb = self.system.tlb
        for size in self.sizes:
            self.l1_arr[size].write_back(tlb.l1[size])
            self.l2_arr[size].write_back(tlb.l2[size])
        if self._owns_caches:
            self.batcher.caches.write_back()
