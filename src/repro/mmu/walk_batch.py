"""Batched page walks for the vectorized engine.

The scalar walkers resolve one miss at a time: compute the cache lines
the walk touches, charge each line to the cache hierarchy, account the
walk.  This module batches that work across the misses of a chunk while
staying *bit-identical* to the scalar walkers:

* **Plan** (:meth:`HptWalkBatch.plan` / :meth:`RadixWalkBatch.plan`) runs
  per miss, in global trace order, and performs every operation whose
  *state* is inherently sequential but tiny: CWC lookups/fills, PWC
  lookups/fills, cuckoo key lookups (``stats.lookups``), the ME-HPT L2P
  accounting, and the walk counter.  These touch a few dozen entries and
  are cheap; replaying them on the real objects guarantees the exact
  hit/miss sequences of the scalar walker.
* **Seal** (:meth:`~HptWalkBatch.seal_segment`) converts a *fault-
  separated segment* — the planned walks since the last state-mutating
  access — into cache-line addresses with vectorized gathers:
  :meth:`~repro.hashing.clustered.ClusteredHashedPageTable.probe_line_addrs_batch`
  over the cuckoo ways (grouped by candidate-size set), or radix node
  base addresses memoized per (depth, VPN-prefix).  Sealing must happen
  before the next fault because faults move cuckoo geometry (resizes,
  kicks) and grow the radix tree; the *sealed* line addresses stay valid
  forever (radix nodes are never moved or removed).
* **Flush** (:meth:`~HptWalkBatch.flush`) feeds the accumulated line
  stream — still in global per-walk order — through :class:`CacheBatch`,
  an :class:`~repro.mmu.tlb_array.ArrayTlb` mirror of the cache
  hierarchy, and reduces per-line latencies to per-walk cycles
  (``max`` per probe group for the parallel HPT probes, ``sum`` for the
  sequential radix levels).  Faults never touch the cache hierarchy, so
  cache probing can be deferred across fault boundaries and amortized
  over a whole chunk.

Accesses that mutate simulator state — demand faults, and everything
they trigger (cuckoo kicks, resizes, CWT updates, allocation) — are not
batched: the engine replays them through the real fault handler in
global trace order between segments.  A plan that finds the live tables
disagreeing with the engine's static prediction raises
:class:`~repro.common.errors.EngineDivergenceError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigurationError, EngineDivergenceError
from repro.common.units import CACHE_LINE
from repro.ecpt.walker import EcptWalker, _PROBE_ORDER
from repro.mem.cache import CacheHierarchy
from repro.mmu.tlb_array import ArrayTlb
from repro.radix.table import FANOUT, LEVEL_BITS, PAGE_SIZE_BITS, ENTRIES_PER_LINE
from repro.radix.walker import RadixWalker

#: Below this many pending walks a segment is sealed with the scalar
#: per-walk line computation — numpy call overhead would dominate.
MIN_SEAL_BATCH = 8

#: Cache-probe streams at or below this length are replayed per line on
#: the array mirror instead of paying ``batch_probe``'s stream setup.
SMALL_PROBE_STREAM = 48

_LINE_SHIFT = ENTRIES_PER_LINE.bit_length() - 1


class WalkFlush:
    """Per-walk results of one :meth:`flush`, in global walk order."""

    __slots__ = ("locals_", "walk_ids", "vpns", "faults", "cycles", "accesses")

    def __init__(self, locals_, walk_ids, vpns, faults, cycles, accesses):
        self.locals_ = locals_      # np.int64 chunk-local indices
        self.walk_ids = walk_ids    # List[int]
        self.vpns = vpns            # List[int]
        self.faults = faults        # List[bool]
        self.cycles = cycles        # np.int64 per-walk walk cycles
        self.accesses = accesses    # np.int64 per-walk memory accesses


class CacheBatch:
    """Array mirror of a :class:`~repro.mem.cache.CacheHierarchy`.

    Each :class:`~repro.mem.cache.CacheLevel` keeps MRU-first tag lists
    — exactly the layout :meth:`ArrayTlb.from_lists` mirrors — and every
    ``access`` leaves its line at MRU (hit-touch or miss-fill), which is
    the invariant :meth:`ArrayTlb.batch_probe` needs.  The cascade is
    replicated level by level: only the previous level's misses reach
    the next, and whatever misses the last level is a DRAM access.

    Counters are tracked as deltas and installed, together with the
    mirrored contents, by :meth:`write_back` at the end of the engine
    run (nothing reads cache state mid-run: the walkers are the only
    cache clients and the batched engine replaces their accesses).
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.arrays = [
            ArrayTlb.from_lists(level.name, level._sets, level.ways, level.hit_cycles)
            for level in hierarchy.levels
        ]
        self._hits = [0] * len(self.arrays)
        self._misses = [0] * len(self.arrays)
        self._dram = 0

    def probe(self, lines: np.ndarray) -> np.ndarray:
        """Per-line round-trip cycles for ``lines``, in stream order.

        Bit-identical to calling ``hierarchy.access`` per line: same
        hit/miss decisions, same LRU evolution, same counters (applied
        at :meth:`write_back`).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        cycles = np.full(lines.size, self.hierarchy.dram_cycles, dtype=np.int64)
        idx = np.arange(lines.size, dtype=np.int64)
        stream = lines
        for li, arr in enumerate(self.arrays):
            if stream.size == 0:
                break
            if stream.size <= SMALL_PROBE_STREAM:
                hit = np.empty(stream.size, dtype=bool)
                for j, line in enumerate(stream.tolist()):
                    h = arr.lookup(line)
                    if not h:
                        arr.fill(line)
                    hit[j] = h
            else:
                hit = arr.batch_probe(stream)
            n_hit = int(np.count_nonzero(hit))
            self._hits[li] += n_hit
            self._misses[li] += int(stream.size) - n_hit
            cycles[idx[hit]] = arr.hit_cycles
            idx = idx[~hit]
            stream = stream[~hit]
        self._on_dram(stream, idx, cycles)
        return cycles

    def _on_dram(
        self, lines: np.ndarray, idx: np.ndarray, cycles: np.ndarray
    ) -> None:
        """Account the lines that missed every level (a DRAM access each).

        ``lines`` are the missing line addresses, ``idx`` their positions
        in the probed stream, ``cycles`` the full per-stream cycle array
        (already set to ``dram_cycles`` at those positions).  Subclasses
        may adjust ``cycles[idx]`` in place — the NUMA variant charges the
        remote-DRAM delta here.
        """
        self._dram += int(idx.size)

    def write_back(self) -> None:
        """Install mirrored contents and counter deltas into the real levels."""
        for arr, level, hits, misses in zip(
            self.arrays, self.hierarchy.levels, self._hits, self._misses
        ):
            level._sets = arr.write_back_lists()
            level.hits += hits
            level.misses += misses
        self.hierarchy.dram_accesses += self._dram
        self._hits = [0] * len(self.arrays)
        self._misses = [0] * len(self.arrays)
        self._dram = 0


class NumaCacheBatch(CacheBatch):
    """NUMA-aware :class:`CacheBatch` over a shared datacenter hierarchy.

    Mirrors :meth:`~repro.sim.datacenter.topology.NumaCacheHierarchy.access`
    bit-identically: every line that misses all levels resolves its
    home socket and, when homed on a socket other than the machine's
    ``active_socket`` (and not replicated everywhere), pays the
    remote-DRAM delta.  Instead of one ``home_of`` bisect per line,
    homes are resolved in batch with a ``searchsorted`` over a numpy
    interval snapshot of the :class:`LineHomeMap`, rebuilt only when
    the map's epoch moves (register / set_home / unregister).

    ``local/remote_dram_accesses`` and ``remote_delta_cycles`` are
    accumulated as deltas and installed into the machine at
    :meth:`write_back` — nothing reads them mid-run (results and
    metric snapshots are taken after the final write-back).

    Requires an integer ``remote_dram_delta`` (per-line latencies stay
    int64 and batched sums stay exact); the datacenter simulator runs
    scalar quanta otherwise.
    """

    def __init__(self, hierarchy) -> None:
        super().__init__(hierarchy)
        machine = hierarchy.machine
        if not float(machine.remote_dram_delta).is_integer():
            raise ConfigurationError(
                "NumaCacheBatch needs an integral remote_dram_delta"
            )
        self.machine = machine
        self._delta = int(machine.remote_dram_delta)
        self._local_dram = 0
        self._remote_dram = 0
        self._snapshot_epoch = -1
        self._bases = self._ends = self._sockets = None
        #: Diagnostics surfaced as ``numa.batch_*`` metrics.
        self.batch_dram_probes = 0
        self.snapshot_rebuilds = 0

    def _remote_mask(self, lines: np.ndarray) -> np.ndarray:
        """Which of ``lines`` are homed on a non-active, non-replicated
        socket — exactly ``home_of``'s bisect, vectorized."""
        from repro.sim.datacenter.topology import ALL_SOCKETS

        home_map = self.machine.home_map
        if self._snapshot_epoch != home_map.epoch:
            self._bases, self._ends, self._sockets = home_map.as_arrays()
            self._snapshot_epoch = home_map.epoch
            self.snapshot_rebuilds += 1
        if self._bases.size == 0:
            return np.zeros(lines.size, dtype=bool)
        pos = np.searchsorted(self._bases, lines, side="right") - 1
        clipped = np.maximum(pos, 0)
        within = (pos >= 0) & (lines < self._ends[clipped])
        homes = self._sockets[clipped]
        return (
            within
            & (homes != np.int64(ALL_SOCKETS))
            & (homes != np.int64(self.machine.active_socket))
        )

    def _on_dram(
        self, lines: np.ndarray, idx: np.ndarray, cycles: np.ndarray
    ) -> None:
        n = int(idx.size)
        self._dram += n
        self.batch_dram_probes += n
        if n == 0:
            return
        remote = self._remote_mask(lines)
        n_remote = int(np.count_nonzero(remote))
        self._local_dram += n - n_remote
        self._remote_dram += n_remote
        if n_remote:
            cycles[idx[remote]] += np.int64(self._delta)

    def write_back(self) -> None:
        """Install cache state plus the machine's NUMA DRAM counters."""
        super().write_back()
        machine = self.machine
        machine.local_dram_accesses += self._local_dram
        machine.remote_dram_accesses += self._remote_dram
        # Scalar accumulation adds the (integer-valued) float delta once
        # per remote miss; a single product lands on the same float.
        machine.remote_delta_cycles += float(self._delta * self._remote_dram)
        self._local_dram = 0
        self._remote_dram = 0


class HptWalkBatch:
    """Batched walks for :class:`~repro.ecpt.walker.EcptWalker` (and the
    ME-HPT subclass): CWC resolution and key lookups happen at plan
    time on the real objects; way line addresses are gathered per
    candidate-size group; per-walk latency is ``cwc + max(cwt lines) +
    max(probe lines) + extra`` exactly as in the scalar walker."""

    def __init__(self, walker: EcptWalker, caches: CacheBatch, sizes: List[str], org: str) -> None:
        self.walker = walker
        self.caches = caches
        self.sizes = sizes
        self.organization = org
        self.tables = walker.tables
        self._segment: List[tuple] = []
        self._reset_pending()

    def _reset_pending(self) -> None:
        self._flat: List[np.ndarray] = []
        self._flat_len = 0
        self._locals: List[int] = []
        self._walk_ids: List[int] = []
        self._vpns: List[int] = []
        self._faults: List[bool] = []
        self._extras: List[int] = []
        self._cwt_start: List[int] = []
        self._n_cwt: List[int] = []
        self._probe_start: List[int] = []
        self._n_probe: List[int] = []

    def plan(self, local: int, vpn: int, code: int) -> bool:
        """Phase A for one miss: the walk's sequential state updates.

        Returns True when the access will demand-fault (no candidate
        table maps the page), in which case the caller must seal the
        segment and run the real fault handler before planning further.
        """
        walker = self.walker
        walk_id = walker.walks
        walker.walks += 1
        candidate_sizes, cwt_lines = walker._resolve_candidates(vpn)
        if cwt_lines:
            walker.cwt_memory_reads += len(cwt_lines)
        hit_size = None
        extra = 0
        if candidate_sizes:
            extra = walker._extra_probe_cycles(vpn, candidate_sizes)
            for page_size in _PROBE_ORDER:
                if page_size not in candidate_sizes:
                    continue
                if self.tables.tables[page_size].translate(vpn) is not None:
                    hit_size = page_size
                    break
        fault = hit_size is None
        if not fault and hit_size != self.sizes[code]:
            raise EngineDivergenceError(vpn, self.sizes[code], hit_size, self.organization)
        self._segment.append(
            (local, walk_id, vpn, tuple(candidate_sizes), cwt_lines, extra, fault)
        )
        return fault

    def seal_segment(self) -> None:
        """Resolve the pending segment's walks to cache-line addresses.

        Must run before the next state-mutating access: line addresses
        depend on the live cuckoo geometry (rehash pointers, way sizes),
        which the fault path may change.
        """
        seg = self._segment
        if not seg:
            return
        self._segment = []
        if len(seg) < MIN_SEAL_BATCH:
            for local, walk_id, vpn, cands, cwt_lines, extra, fault in seg:
                probe_lines: List[int] = []
                for page_size in cands:
                    probe_lines.extend(
                        self.tables.tables[page_size].probe_line_addrs(vpn)
                    )
                self._append_walk(
                    local, walk_id, vpn, fault, extra, cwt_lines,
                    np.asarray(probe_lines, dtype=np.int64),
                )
            return
        k = len(seg)
        groups: Dict[tuple, List[int]] = {}
        for i, rec in enumerate(seg):
            groups.setdefault(rec[3], []).append(i)
        n_cwt = np.array([len(rec[4]) for rec in seg], dtype=np.int64)
        width = np.zeros(k, dtype=np.int64)
        rows_by_group: Dict[tuple, np.ndarray] = {}
        for cands, idxs in groups.items():
            if not cands:
                continue
            vpns_g = np.array([seg[i][2] for i in idxs], dtype=np.int64)
            mats = [
                self.tables.tables[s].probe_line_addrs_batch(vpns_g) for s in cands
            ]
            rows = mats[0] if len(mats) == 1 else np.hstack(mats)
            rows_by_group[cands] = rows
            width[idxs] = rows.shape[1]
        offs = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(n_cwt + width, out=offs[1:])
        flat = np.empty(int(offs[-1]), dtype=np.int64)
        for i, rec in enumerate(seg):
            if rec[4]:
                flat[int(offs[i]): int(offs[i]) + len(rec[4])] = rec[4]
        for cands, idxs in groups.items():
            rows = rows_by_group.get(cands)
            if rows is None:
                continue
            sel = np.asarray(idxs, dtype=np.int64)
            starts = offs[sel] + n_cwt[sel]
            pos = starts[:, None] + np.arange(rows.shape[1], dtype=np.int64)[None, :]
            flat[pos] = rows
        base = self._flat_len
        for i, rec in enumerate(seg):
            local, walk_id, vpn, _cands, _cwt, extra, fault = rec
            self._locals.append(local)
            self._walk_ids.append(walk_id)
            self._vpns.append(vpn)
            self._faults.append(fault)
            self._extras.append(extra)
            self._cwt_start.append(base + int(offs[i]))
            self._n_cwt.append(int(n_cwt[i]))
            self._probe_start.append(base + int(offs[i]) + int(n_cwt[i]))
            self._n_probe.append(int(width[i]))
        self._flat.append(flat)
        self._flat_len += int(flat.size)

    def _append_walk(self, local, walk_id, vpn, fault, extra, cwt_lines, probe_arr):
        base = self._flat_len
        n_cwt = len(cwt_lines)
        self._locals.append(local)
        self._walk_ids.append(walk_id)
        self._vpns.append(vpn)
        self._faults.append(fault)
        self._extras.append(extra)
        self._cwt_start.append(base)
        self._n_cwt.append(n_cwt)
        self._probe_start.append(base + n_cwt)
        self._n_probe.append(int(probe_arr.size))
        if n_cwt:
            self._flat.append(np.asarray(cwt_lines, dtype=np.int64))
        if probe_arr.size:
            self._flat.append(probe_arr)
        self._flat_len += n_cwt + int(probe_arr.size)

    def flush(self) -> Optional[WalkFlush]:
        """Probe all pending line streams; return per-walk results."""
        self.seal_segment()
        if not self._locals:
            return None
        walker = self.walker
        k = len(self._locals)
        if self._flat_len:
            flat = self._flat[0] if len(self._flat) == 1 else np.concatenate(self._flat)
            lat = self.caches.probe(flat)
        else:
            lat = np.empty(0, dtype=np.int64)
        lat_pad = np.concatenate([lat, np.zeros(1, dtype=np.int64)])
        bounds = np.empty(2 * k, dtype=np.int64)
        bounds[0::2] = self._cwt_start
        bounds[1::2] = self._probe_start
        reduced = np.maximum.reduceat(lat_pad, bounds)
        n_cwt = np.asarray(self._n_cwt, dtype=np.int64)
        n_probe = np.asarray(self._n_probe, dtype=np.int64)
        # reduceat yields the element at the boundary for empty slices
        # (and the pad sentinel for a trailing one); mask those to the
        # scalar walker's access_parallel([]) == 0.
        cwt_max = np.where(n_cwt > 0, reduced[0::2], 0)
        probe_max = np.where(n_probe > 0, reduced[1::2], 0)
        cycles = (
            np.int64(walker.cwc_cycles) + cwt_max + probe_max
            + np.asarray(self._extras, dtype=np.int64)
        )
        accesses = n_cwt + n_probe
        return self._finish(cycles, accesses)

    def _finish(self, cycles: np.ndarray, accesses: np.ndarray) -> WalkFlush:
        walker = self.walker
        walker.total_cycles += int(cycles.sum())
        walker.total_accesses += int(accesses.sum())
        if walker.obs is not None and walker.walk_latency is not None:
            bins: Dict[int, int] = {}
            for value in cycles.tolist():
                bins[value] = bins.get(value, 0) + 1
            walker.walk_latency.observe_bins(bins)
        result = WalkFlush(
            np.asarray(self._locals, dtype=np.int64),
            self._walk_ids, self._vpns, self._faults, cycles, accesses,
        )
        self._reset_pending()
        return result


class RadixWalkBatch(HptWalkBatch):
    """Batched walks for :class:`~repro.radix.walker.RadixWalker`.

    PWC lookups/fills happen at plan time on the real caches; node line
    addresses for non-faulting walks are gathered from per-(depth,
    prefix) memos of the tree (nodes are only ever created, so a
    resolved base address stays valid); faulting walks take the real
    ``table.walk`` since their path depth depends on live tree shape.
    Per-walk latency is ``pwc + sum(per-level lines)`` — the radix walk
    is sequential, unlike the HPT's parallel probes.
    """

    def __init__(self, walker: RadixWalker, caches: CacheBatch, sizes: List[str], org: str) -> None:
        self.walker = walker
        self.caches = caches
        self.sizes = sizes
        self.organization = org
        self.table = walker.table
        self.levels = self.table.levels
        self._page_shift = [PAGE_SIZE_BITS[s] for s in sizes]
        self._depth_for_code = [self.table._leaf_depth(s) for s in sizes]
        self._seen: List[set] = [set() for _ in sizes]
        self._memo: List[Dict[int, int]] = [dict() for _ in range(self.levels)]
        self._memo[0][0] = self.table.root.addr // CACHE_LINE
        self._segment: List[tuple] = []
        self._reset_pending()

    def _reset_pending(self) -> None:
        self._flat: List[np.ndarray] = []
        self._flat_len = 0
        self._locals: List[int] = []
        self._walk_ids: List[int] = []
        self._vpns: List[int] = []
        self._faults: List[bool] = []
        self._starts: List[int] = []
        self._lens: List[int] = []

    def plan(self, local: int, vpn: int, code: int) -> bool:
        """Phase A for one radix miss.

        Fault prediction: page tables start empty and pages are only
        ever mapped by the fault handler, so an access faults iff it is
        the first touch of its (page size, page number) — tracked in
        per-size seen-sets.  Every prior fault's mapped size was
        checked against the static prediction, so a predicted
        non-faulting walk's depth is exactly ``_leaf_depth(predicted
        size)``.
        """
        walker = self.walker
        walk_id = walker.walks
        walker.walks += 1
        key = vpn >> self._page_shift[code]
        seen = self._seen[code]
        fault = key not in seen
        fault_lines = None
        if fault:
            seen.add(key)
            leaf, fault_lines = self.table.walk(vpn)
            if leaf is not None:
                raise EngineDivergenceError(vpn, "fault", "mapped", self.organization)
            depth = len(fault_lines)
        else:
            depth = self._depth_for_code[code]
        start = walker.pwc.lookup(vpn, max_depth=depth - 1)
        walker.pwc.fill(vpn, depth - 1)
        self._segment.append((local, walk_id, vpn, depth, start, fault_lines))
        return fault

    def _resolve(self, depth: int, prefix: int) -> int:
        node = self.table.node_for_prefix(prefix, depth)
        if node is None:
            raise EngineDivergenceError(
                prefix << ((self.levels - depth) * LEVEL_BITS),
                f"depth-{depth} node", "none", self.organization,
            )
        base = node.addr // CACHE_LINE
        self._memo[depth][prefix] = base
        return base

    def _lines_for(self, vpn: int, depth: int, start: int) -> List[int]:
        out: List[int] = []
        for d in range(start, depth):
            memo = self._memo[d]
            prefix = vpn >> ((self.levels - d) * LEVEL_BITS)
            base = memo.get(prefix)
            if base is None:
                base = self._resolve(d, prefix)
            index = (vpn >> ((self.levels - 1 - d) * LEVEL_BITS)) & (FANOUT - 1)
            out.append(base + (index >> _LINE_SHIFT))
        return out

    def seal_segment(self) -> None:
        seg = self._segment
        if not seg:
            return
        self._segment = []
        k = len(seg)
        lens = [rec[3] - rec[4] for rec in seg]
        if k < MIN_SEAL_BATCH:
            for rec, length in zip(seg, lens):
                local, walk_id, vpn, depth, start, fault_lines = rec
                if fault_lines is not None:
                    lines = fault_lines[start:]
                else:
                    lines = self._lines_for(vpn, depth, start)
                self._register(local, walk_id, vpn, fault_lines is not None, length)
                self._flat.append(np.asarray(lines, dtype=np.int64))
                self._flat_len += length
            return
        offs = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.asarray(lens, dtype=np.int64), out=offs[1:])
        flat = np.empty(int(offs[-1]), dtype=np.int64)
        vpns = np.array([rec[2] for rec in seg], dtype=np.int64)
        depth_arr = np.array([rec[3] for rec in seg], dtype=np.int64)
        start_arr = np.array([rec[4] for rec in seg], dtype=np.int64)
        predicted = np.array([rec[5] is None for rec in seg], dtype=bool)
        for i, rec in enumerate(seg):
            if rec[5] is not None:
                flat[int(offs[i]): int(offs[i + 1])] = rec[5][rec[4]:]
        for d in range(int(depth_arr.max())):
            sel = np.flatnonzero(predicted & (start_arr <= d) & (d < depth_arr))
            if sel.size == 0:
                continue
            memo = self._memo[d]
            prefixes = vpns[sel] >> np.int64((self.levels - d) * LEVEL_BITS)
            uniq, inverse = np.unique(prefixes, return_inverse=True)
            bases = np.empty(uniq.size, dtype=np.int64)
            for u, prefix in enumerate(uniq.tolist()):
                base = memo.get(prefix)
                if base is None:
                    base = self._resolve(d, prefix)
                bases[u] = base
            index = (
                vpns[sel] >> np.int64((self.levels - 1 - d) * LEVEL_BITS)
            ) & np.int64(FANOUT - 1)
            flat[offs[sel] + (d - start_arr[sel])] = bases[inverse] + (
                index >> np.int64(_LINE_SHIFT)
            )
        for i, rec in enumerate(seg):
            self._register(
                rec[0], rec[1], rec[2], rec[5] is not None,
                int(lens[i]), self._flat_len + int(offs[i]),
            )
        self._flat.append(flat)
        self._flat_len += int(flat.size)

    def _register(
        self, local, walk_id, vpn, fault, length, start_abs=None
    ) -> None:
        self._locals.append(local)
        self._walk_ids.append(walk_id)
        self._vpns.append(vpn)
        self._faults.append(fault)
        self._starts.append(self._flat_len if start_abs is None else start_abs)
        self._lens.append(length)

    def flush(self) -> Optional[WalkFlush]:
        self.seal_segment()
        if not self._locals:
            return None
        flat = self._flat[0] if len(self._flat) == 1 else np.concatenate(self._flat)
        lat = self.caches.probe(flat)
        lat_pad = np.concatenate([lat, np.zeros(1, dtype=np.int64)])
        sums = np.add.reduceat(lat_pad, np.asarray(self._starts, dtype=np.int64))
        cycles = np.int64(self.walker.pwc_cycles) + sums
        accesses = np.asarray(self._lens, dtype=np.int64)
        return self._finish(cycles, accesses)


def make_walk_batch(system, sizes: List[str], caches: Optional[CacheBatch] = None):
    """Build the Plan/Seal/Flush batcher for ``system``'s walker.

    The vectorized engine's only walk path: every walker and cache
    hierarchy :meth:`~repro.sim.config.SimulationConfig.build` produces
    is batched, so there is no per-miss scalar fallback; a walker (or
    cache geometry) it cannot batch raises
    :class:`~repro.common.errors.ConfigurationError`.

    ``caches`` lets callers share one cache mirror across several
    batchers — the datacenter passes a single :class:`NumaCacheBatch`
    over the machine-wide hierarchy so the shared LLC state evolves in
    global quantum order."""
    walker = system.walker
    if isinstance(walker, EcptWalker):
        batch_cls = HptWalkBatch
    elif isinstance(walker, RadixWalker):
        batch_cls = RadixWalkBatch
    else:
        raise ConfigurationError(
            f"no batched walk implementation for {type(walker).__name__}",
            walker=type(walker).__name__,
        )
    if caches is None:
        caches = CacheBatch(walker.caches)
    return batch_cls(walker, caches, sizes, system.config.organization)
