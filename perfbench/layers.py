"""Per-layer host-time attribution for the benchmark's traced run.

The benchmark wraps public entry points of each simulator layer — by
class or module attribute, before any cell runs — and records a span
per call: name, start, end, parent span and cell id.  Spans are kept in
flat in-memory arrays and written out when the run ends.  A span's self
time is its duration minus the time covered by its child spans (spans
nest strictly: the simulator is single-threaded).

Hot leaf methods such as ``Storage.get`` are deliberately not wrapped:
their call counts would make the wrapper cost dominate what it
measures.  ``TARGETS`` is the complete list of what is wrapped;
``PER_LAYER`` the complete list of metrics derived from it, in the
order ``BENCHMARK.json`` lists them.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _kicks(counts, args, result) -> None:
    counts["ecpt.map.kicks"] += result.kicks


def _plan_faults(counts, args, result) -> None:
    if result:
        counts["mmu.walk_plan.faults"] += 1


def _flush_walks(counts, args, result) -> None:
    if result is not None:
        counts["mmu.walk_flush.walks"] += int(result.locals_.size)


def _probe_lines(counts, args, result) -> None:
    counts["mmu.cache_probe.lines"] += len(args[1])


def _probe_hits(counts, args, result) -> None:
    counts["mmu.batch_probe.values"] += int(result.size)
    counts["mmu.batch_probe.hits"] += int(np.count_nonzero(result))


def _decoded(counts, args, result) -> None:
    counts["traces.decode.values"] += int(result.size)


def _unbatched(counts, args, result) -> None:
    if result is None:
        counts["mmu.make_walk_batch.unbatched"] += 1


@dataclass(frozen=True)
class Target:
    """One wrapped attribute.

    ``owner`` is a class name in ``module``, or empty for a module-level
    function.  With ``span`` empty the wrapper only counts calls into
    ``counter`` (for methods too hot to time, or pure dispatch).
    ``skip_under`` names parent spans under which a call is not a new
    span: ``ArrayTlb.batch_probe`` probes cache lines when called from a
    cache probe and TLB entries otherwise.
    """

    module: str
    owner: str
    attr: str
    span: str = ""
    counter: str = ""
    observe: Optional[Callable] = None
    generator: bool = False
    failures: str = ""
    skip_under: Tuple[str, ...] = ()


_WB = "repro.mmu.walk_batch"

TARGETS: Tuple[Target, ...] = (
    Target("repro.experiments.engine", "SweepEngine", "run_cells", "experiments.run_cells"),
    Target("repro.sim.config", "SimulationConfig", "build", "sim.build"),
    Target("repro.sim.simulator", "", "memory_result", "sim.memory_result"),
    Target("repro.sim.simulator", "", "populate_tables", "sim.populate_tables"),
    Target("repro.sim.simulator", "TranslationSimulator", "run", "sim.run"),
    Target("repro.sim.fastpath", "", "run_vectorized", "sim.run_vectorized"),
    Target("repro.sim.fastpath", "StaticThpSizer", "codes", "sim.thp_codes"),
    Target("repro.sim.quantum", "QuantumEngine", "run_quantum", "sim.quantum"),
    Target("repro.kernel.process", "Process", "run_quantum", "sim.scalar_quantum"),
    Target("repro.sim.datacenter.simulator", "DatacenterSimulator", "run", "sim.datacenter"),
    Target("repro.sim.datacenter.replication", "ReplicationEngine",
           "on_unit_registered", "sim.replication"),
    Target("repro.sim.datacenter.replication", "ReplicationEngine", "on_faults",
           "sim.replication"),
    Target("repro.sim.datacenter.replication", "ReplicationEngine", "migrate_units",
           "sim.replication"),
    Target("repro.sim.datacenter.topology", "SocketPoolAllocator", "alloc",
           "sim.datacenter.pool_alloc"),
    Target("repro.kernel.address_space", "AddressSpace", "handle_fault", "kernel.handle_fault"),
    Target("repro.ecpt.tables", "HashedPageTableSet", "map", "ecpt.map", observe=_kicks),
    Target("repro.ecpt.tables", "HashedPageTableSet", "translate", "ecpt.translate"),
    Target("repro.ecpt.tables", "HashedPageTableSet", "total_bytes",
           counter="ecpt.total_bytes.calls"),
    Target("repro.radix.table", "RadixPageTable", "map", "radix.map"),
    Target("repro.radix.table", "RadixPageTable", "translate", "radix.translate"),
    Target("repro.hashing.storage", "ContiguousStorage", "extend_to", "hashing.extend_to"),
    Target("repro.hashing.storage", "ChunkedStorage", "extend_to", "hashing.extend_to"),
    Target("repro.mem.allocator", "CostModelAllocator", "alloc", "mem.alloc",
           failures="mem.alloc.failed"),
    Target(_WB, "HptWalkBatch", "plan", "mmu.walk_plan", observe=_plan_faults),
    Target(_WB, "RadixWalkBatch", "plan", "mmu.walk_plan", observe=_plan_faults),
    Target(_WB, "HptWalkBatch", "seal_segment", "mmu.walk_seal"),
    Target(_WB, "RadixWalkBatch", "seal_segment", "mmu.walk_seal"),
    Target(_WB, "HptWalkBatch", "flush", "mmu.walk_flush", observe=_flush_walks),
    Target(_WB, "RadixWalkBatch", "flush", "mmu.walk_flush", observe=_flush_walks),
    Target(_WB, "CacheBatch", "probe", "mmu.cache_probe", observe=_probe_lines),
    Target("repro.mmu.tlb_array", "ArrayTlb", "batch_probe", "mmu.batch_probe",
           observe=_probe_hits, skip_under=("mmu.cache_probe",)),
    # make_walk_batch is bound by name in both engines' modules.
    Target("repro.sim.fastpath", "", "make_walk_batch",
           counter="mmu.make_walk_batch.calls", observe=_unbatched),
    Target("repro.sim.quantum", "", "make_walk_batch",
           counter="mmu.make_walk_batch.calls", observe=_unbatched),
    Target("repro.traces.format", "", "decode_vpn_chunk", "traces.decode", observe=_decoded),
    Target("repro.workloads.base", "Workload", "page_set", "workloads.page_set"),
    Target("repro.workloads.base", "Workload", "trace", "workloads.trace"),
    Target("repro.workloads.base", "Workload", "trace_chunks", "workloads.trace_chunks",
           generator=True),
)

#: Span names; a span stores its name as an index into this tuple.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS if t.span))

#: (metric, unit, better) for every per-layer metric, in report order.
#: ``bench.*`` and ``host.*`` entries are filled in by the runner.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.handle_fault.calls", "count", "lower"),
    ("kernel.handle_fault.s", "s", "lower"),
    ("kernel.handle_fault.self_s", "s", "lower"),
    ("ecpt.map.calls", "count", "lower"),
    ("ecpt.map.s", "s", "lower"),
    ("ecpt.map.self_s", "s", "lower"),
    ("ecpt.map.kicks", "count", "lower"),
    ("ecpt.translate.calls", "count", "lower"),
    ("ecpt.translate.s", "s", "lower"),
    ("ecpt.total_bytes.calls", "count", "lower"),
    ("radix.map.calls", "count", "lower"),
    ("radix.map.s", "s", "lower"),
    ("radix.translate.calls", "count", "lower"),
    ("radix.translate.s", "s", "lower"),
    ("hashing.extend_to.calls", "count", "lower"),
    ("hashing.extend_to.s", "s", "lower"),
    ("mem.alloc.calls", "count", "lower"),
    ("mem.alloc.s", "s", "lower"),
    ("mem.alloc.failed", "count", "lower"),
    ("sim.datacenter.pool_alloc.calls", "count", "lower"),
    ("sim.datacenter.pool_alloc.s", "s", "lower"),
    ("mmu.walk_plan.calls", "count", "lower"),
    ("mmu.walk_plan.s", "s", "lower"),
    ("mmu.walk_plan.fault_ratio", "ratio", "lower"),
    ("mmu.walk_seal.calls", "count", "lower"),
    ("mmu.walk_seal.s", "s", "lower"),
    ("mmu.walk_flush.calls", "count", "lower"),
    ("mmu.walk_flush.walks", "count", "lower"),
    ("mmu.walk_flush.s", "s", "lower"),
    ("mmu.cache_probe.calls", "count", "lower"),
    ("mmu.cache_probe.lines", "count", "lower"),
    ("mmu.cache_probe.s", "s", "lower"),
    ("mmu.batch_probe.calls", "count", "lower"),
    ("mmu.batch_probe.values", "count", "lower"),
    ("mmu.batch_probe.s", "s", "lower"),
    ("mmu.batch_probe.hit_ratio", "ratio", "higher"),
    ("mmu.make_walk_batch.calls", "count", "lower"),
    ("mmu.make_walk_batch.unbatched", "count", "lower"),
    ("traces.decode.calls", "count", "lower"),
    ("traces.decode.values", "count", "lower"),
    ("traces.decode.s", "s", "lower"),
    ("workloads.page_set.s", "s", "lower"),
    ("workloads.trace.s", "s", "lower"),
    ("workloads.trace_chunks.s", "s", "lower"),
    ("sim.build.calls", "count", "lower"),
    ("sim.build.s", "s", "lower"),
    ("sim.populate_tables.self_s", "s", "lower"),
    ("sim.memory_result.self_s", "s", "lower"),
    ("sim.run_vectorized.self_s", "s", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim.thp_codes.calls", "count", "lower"),
    ("sim.thp_codes.s", "s", "lower"),
    ("sim.quantum.calls", "count", "lower"),
    ("sim.quantum.s", "s", "lower"),
    ("sim.quantum.self_s", "s", "lower"),
    ("sim.scalar_quantum.calls", "count", "lower"),
    ("sim.quantum.vectorized_share", "ratio", "higher"),
    ("sim.datacenter.self_s", "s", "lower"),
    ("sim.replication.calls", "count", "lower"),
    ("sim.replication.s", "s", "lower"),
    ("experiments.run_cells.self_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.failed_frac", "ratio", "lower"),
    ("host.calibration_s", "s", "lower"),
)

_SPAN_STATS = ("calls", "s", "self_s")


class SpanRecorder:
    """Wraps every :data:`TARGETS` attribute while active (a context manager).

    ``cell`` is stamped into every span opened; the runner sets it to
    the index of the cell it is about to run.
    """

    def __init__(self) -> None:
        self.cell = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self._name = array("B")
        self._cell = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    # -- wrapping ---------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        try:
            for target in TARGETS:
                owner = importlib.import_module(target.module)
                if target.owner:
                    owner = getattr(owner, target.owner)
                original = vars(owner).get(target.attr)
                if original is None:
                    raise AttributeError(
                        f"layer entry point {target.module}."
                        f"{target.owner + '.' if target.owner else ''}{target.attr} "
                        "not found; update perfbench/layers.py TARGETS"
                    )
                setattr(owner, target.attr, self._wrap(target, original))
                self._installed.append((owner, target.attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        counts = self.counts
        observe = target.observe
        if not target.span:
            key = target.counter

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[key] += 1
                if observe is not None:
                    observe(counts, args, result)
                return result

            return counted

        nid = SPAN_NAMES.index(target.span)
        passthrough = {nid} | {SPAN_NAMES.index(s) for s in target.skip_under}
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        failures = target.failures
        clock = time.perf_counter_ns

        def open_span() -> int:
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            self._cell.append(self.cell)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if target.generator:
            @functools.wraps(fn)
            def spanned_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return spanned_gen

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and names[stack[-1]] in passthrough:
                # Re-entry (a subclass calling up) or a call the parent
                # layer owns: attribute it to the parent span.
                return fn(*args, **kwargs)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failures:
                    counts[failures] += 1
                raise
            finally:
                close_span(idx)
            if observe is not None:
                observe(counts, args, result)
            return result

        return spanned

    # -- results ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (times in ns)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.uint8).copy(),
            "cell": np.frombuffer(self._cell, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def save(self, path: str, cell_labels: Sequence[str]) -> None:
        """Write the spans, span names and cell labels to an ``.npz``."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            cells=np.array(list(cell_labels) or [""]),
            **self.arrays(),
        )

    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``s`` (total) and ``self_s``."""
        cols = self.arrays()
        n = cols["start_ns"].size
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        has_parent = cols["parent"] >= 0
        covered = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - covered[:n]
        k = len(SPAN_NAMES)
        calls = np.bincount(cols["name"], minlength=k)
        total = np.bincount(cols["name"], weights=dur, minlength=k)
        self_total = np.bincount(cols["name"], weights=own, minlength=k)
        return {
            name: {
                "calls": float(calls[i]),
                "s": float(total[i]) / 1e9,
                "self_s": float(self_total[i]) / 1e9,
            }
            for i, name in enumerate(SPAN_NAMES)
        }

    def layer_metrics(self) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric except the runner's own."""
        stats = self.span_stats()
        counts = self.counts
        out: Dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            prefix, _, stat = metric.rpartition(".")
            if prefix in stats and stat in _SPAN_STATS:
                out[metric] = stats[prefix][stat]
            elif not metric.startswith(("bench.", "host.")):
                out[metric] = float(counts.get(metric, 0.0))
        plans = out["mmu.walk_plan.calls"]
        out["mmu.walk_plan.fault_ratio"] = (
            counts.get("mmu.walk_plan.faults", 0.0) / plans if plans else 0.0
        )
        values = out["mmu.batch_probe.values"]
        out["mmu.batch_probe.hit_ratio"] = (
            counts.get("mmu.batch_probe.hits", 0.0) / values if values else 0.0
        )
        quanta = out["sim.quantum.calls"] + out["sim.scalar_quantum.calls"]
        # No quanta at all (single-process workloads) is no fallback.
        out["sim.quantum.vectorized_share"] = (
            out["sim.quantum.calls"] / quanta if quanta else 1.0
        )
        out["bench.spans"] = float(len(self))
        return out


def consistency_problems(
    metrics: Dict[str, float], pages: int, events: int, replays: bool
) -> List[str]:
    """Checks a traced run must pass; returns one message per failure.

    ``pages`` are the pages the cells report faulted, ``events`` the
    translations they simulated, ``replays`` whether the cells replay
    traces through the TLB batch probes at all.
    """
    problems = []
    if metrics["kernel.handle_fault.calls"] != pages:
        problems.append(
            f"kernel.handle_fault.calls {metrics['kernel.handle_fault.calls']:.0f} "
            f"!= {pages} pages faulted by the cells"
        )
    if replays and metrics["mmu.batch_probe.values"] < events:
        problems.append(
            f"mmu.batch_probe.values {metrics['mmu.batch_probe.values']:.0f} "
            f"< {events} events replayed"
        )
    if metrics["mmu.make_walk_batch.unbatched"]:
        problems.append(
            f"mmu.make_walk_batch.unbatched is "
            f"{metrics['mmu.make_walk_batch.unbatched']:.0f}: a silent scalar walk fallback"
        )
    if metrics["sim.quantum.vectorized_share"] != 1.0:
        problems.append(
            f"sim.quantum.vectorized_share is "
            f"{metrics['sim.quantum.vectorized_share']:.4f}: scalar quanta ran"
        )
    return problems
