"""Single-process trace replay on the vectorized engine.

:func:`run_vectorized` is the single-process driver of the one
vectorized core, :class:`~repro.sim.quantum.QuantumEngine` (whose module
docstring explains the batching and why it is exact); the other driver
is the scheduler's per-quantum
:meth:`~repro.sim.quantum.QuantumEngine.run_quantum`.  It streams
``workload.trace_chunks`` into
:meth:`~repro.sim.quantum.QuantumEngine.run_chunk` — the trace is never
materialized — and adds only what single-process replay needs on top:
the warmup snapshot, the ``invariant_check_every`` cadence, traced event
synthesis, and the conversion of ``ABORT_ERRORS`` into a
:class:`~repro.sim.simulator.LoopOutcome`.  Results are **bit-identical**
to :class:`~repro.sim.simulator.TranslationSimulator`'s scalar engine,
which runs the one reference loop,
:class:`~repro.kernel.process.AccessLoop`, with its own warmup, abort,
check and clock handling:
every ``PerformanceResult`` field, every TLB/cache/walker counter,
metrics snapshots, abort/warmup accounting, and — when a trace sink is
attached — the traced event stream byte-for-byte (property-tested in
``tests/test_sim_fastpath.py`` and ``tests/test_obs_trace_equivalence.py``).

Event tracing composes with the engine: the scalar engine's per-access
events (``walk_start``/``walk_end``/``tlb_miss``/``measure_start``) are
synthesized from the batch results in per-access order with the exact
scalar clock values, while fault-path events (``fault_serviced``,
kicks, resizes, chunk transitions) are emitted live by the real fault
machinery.  The synthesized emit-call sequence equals the scalar
engine's, so per-kind sampling counters, sequence numbers and therefore
the JSONL/ring-buffer output are byte-identical.

Ordering contract for invariant checks: the scalar engine checks
invariants after every ``invariant_check_every``-th access; this engine
performs the same *set* of checks against the same page-table states —
faults are the only mutations and checks are caught up before each
fault and at chunk end — so any check that fails in one engine fails in
the other with the same ``progress`` value.  The only divergence is
*when* a failing check raises relative to hit-only accesses between two
faults: the vectorized engine may execute those accesses (and, when
tracing, emit later walks' events) before the deferred check fires.
Counters and traces of *completed* runs are unaffected; only the
partial state observed after an uncaught ``SimulationError`` differs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import ContiguousAllocationError
from repro.faults.log import EVENT_ABORT
from repro.obs.trace import (
    EVENT_MEASURE_START,
    EVENT_TLB_MISS,
    EVENT_WALK_END,
    EVENT_WALK_START,
)
from repro.sim.quantum import QuantumEngine, StaticThpSizer, make_walk_batch
from repro.sim.simulator import (
    ABORT_ERRORS,
    LoopOutcome,
    check_system_invariants,
)

__all__ = ["DEFAULT_CHUNK_VALUES", "StaticThpSizer", "make_walk_batch", "run_vectorized"]

#: Default trace events per engine chunk.
DEFAULT_CHUNK_VALUES = 65536


class _InvariantCadence:
    """``check_system_invariants`` at every ``every``-th event index."""

    def __init__(self, system, every: int) -> None:
        self.system = system
        self.every = every
        self.next = every

    def through(self, index: int) -> None:
        """Run every check due at or before global event ``index``."""
        while self.next <= index:
            check_system_invariants(self.system, self.next)
            self.next += self.every


class _EventSynthesizer:
    """The scalar loop's per-access events, rebuilt from batch results.

    Events of access i carry the clock at the access's start: the
    cumulative translation cycles through access i-1, exactly as the
    scalar loop stamps them.  ``_folded`` tracks how far the chunk's
    per-access cycle prefix sum has been folded in; cycles of batched
    walks are final before any event referencing them is emitted (the
    engine's drain scatters them first).
    """

    def __init__(self, engine: QuantumEngine, obs, warmup_events: int) -> None:
        self.engine = engine
        self.obs = obs
        self.warmup_events = warmup_events
        # When warmup_events == 0 the simulator emits measure_start itself.
        self.measure_emitted = warmup_events == 0
        self.start_chunk(0, 0.0)

    def start_chunk(self, base: int, before_cycles: float) -> None:
        self.boundary_local = self.warmup_events - 1 - base
        self.before_cycles = before_cycles
        self._folded = 0
        self._folded_cycles = 0.0

    def _clock_before(self, local: int) -> int:
        if local > self._folded:
            cycles = self.engine.cycles
            self._folded_cycles += float(cycles[self._folded:local].sum())
            self._folded = local
        return int(self.before_cycles + self._folded_cycles)

    def _measure_before(self, local: int) -> None:
        # The scalar loop emits measure_start right after the
        # warmup-completing access; replicate it before emitting any
        # later access's events (hit-only accesses emit nothing, so
        # this preserves the exact event sequence).
        if not self.measure_emitted and self.boundary_local < local:
            self.obs.advance_clock(self._clock_before(self.boundary_local + 1))
            self.obs.emit(EVENT_MEASURE_START, event=self.warmup_events)
            self.measure_emitted = True

    def on_walks(self, result) -> None:
        obs = self.obs
        probe_cycles = self.engine.l2_probe_cycles
        for j in range(result.locals_.size):
            local = int(result.locals_[j])
            vpn = result.vpns[j]
            walk_id = result.walk_ids[j]
            walk_cycles = int(result.cycles[j])
            self._measure_before(local)
            obs.advance_clock(self._clock_before(local))
            obs.emit(EVENT_WALK_START, walk=walk_id, vpn=vpn)
            obs.emit(
                EVENT_WALK_END, walk=walk_id, cycles=walk_cycles,
                accesses=int(result.accesses[j]),
            )
            obs.emit(
                EVENT_TLB_MISS, vpn=vpn,
                level="fault" if result.faults[j] else "walk",
                cycles=probe_cycles + walk_cycles,
            )

    def end_chunk(self, n: int, total_cycles: float) -> None:
        # measure_start for a warmup boundary inside a hit-only chunk
        # tail, then the scalar loop's end-of-access clock.
        self._measure_before(n)
        self.obs.advance_clock(int(total_cycles))


def _warm_snapshot(
    outcome: LoopOutcome, before: Tuple, engine: QuantumEngine, prefix: int
) -> None:
    """Record the warmup boundary from a chunk's first ``prefix`` accesses."""
    level = engine.level[:prefix]
    outcome.warm_cycles = before[0] + float(engine.cycles[:prefix].sum())
    outcome.warm_l1 = before[1] + int((level == 0).sum())
    outcome.warm_l2 = before[2] + int((level == 1).sum())
    outcome.warm_walks = before[3] + int((level >= 2).sum())
    outcome.warm_faults = before[4] + int((level == 3).sum())


def run_vectorized(
    system,
    workload,
    trace_length: int,
    warmup_events: int,
    chunk_values: Optional[int] = None,
) -> LoopOutcome:
    """Run the trace through ``system`` with the vectorized engine.

    Mirrors the scalar engine of
    :meth:`~repro.sim.simulator.TranslationSimulator.run` exactly —
    counters, cycles, warmup snapshot, abort accounting, invariant
    checks and traced events — and returns the same :class:`LoopOutcome`.
    """
    tlb = system.tlb
    obs = system.obs
    engine = QuantumEngine(None, system)
    check_every = system.config.invariant_check_every
    if check_every:
        engine.checks = _InvariantCadence(system, check_every)
    events = None
    if obs is not None and obs.tracer is not None:
        events = _EventSynthesizer(engine, obs, warmup_events)
        engine.on_walks = events.on_walks
    boundary = warmup_events - 1  # global index completing the warmup
    warm_taken = warmup_events == 0

    outcome = LoopOutcome()
    base = 0
    for chunk in workload.trace_chunks(
        trace_length, chunk_values or DEFAULT_CHUNK_VALUES
    ):
        n = int(chunk.size)
        before = (
            outcome.total_cycles, tlb.l1_hits, tlb.l2_hits, tlb.walks,
            tlb.faults,
        )
        if events is not None:
            events.start_chunk(base, outcome.total_cycles)
        try:
            outcome.total_cycles += engine.run_chunk(chunk, base)
        except ABORT_ERRORS as exc:
            outcome.failed = True
            outcome.reason = str(exc)
            if not isinstance(exc, ContiguousAllocationError):
                system.degradation.record(
                    EVENT_ABORT, "trace", error=type(exc).__name__,
                )
            # The engine counted the aborting access (its walk ran) but
            # it never *completes*: the scalar loop's events_done stops
            # just before it.  So the warmup window only closes when the
            # boundary access lies strictly before it — one tighter than
            # the clean path's `boundary < base + n`; an abort exactly
            # at the boundary leaves the run inside warmup.
            aborted_at = engine.aborted_at
            outcome.events_done = base + aborted_at
            outcome.total_cycles += float(engine.cycles[:aborted_at + 1].sum())
            if not warm_taken and boundary < base + aborted_at:
                _warm_snapshot(outcome, before, engine, boundary - base + 1)
            return outcome
        if not warm_taken and boundary < base + n:
            _warm_snapshot(outcome, before, engine, boundary - base + 1)
            warm_taken = True
        if events is not None:
            events.end_chunk(n, outcome.total_cycles)
        base += n
        outcome.events_done = base

    # Clean completion: the mirrors hold the TLB contents after the last
    # access — install them so post-run inspection (and equivalence
    # tests) see exactly what the scalar engine leaves behind.  After an
    # abort they hold full-chunk (future) state, so they are
    # deliberately not written back; the engine has already written
    # back its cache mirror, which only ever advances walk by walk.
    engine.finalize()
    return outcome
