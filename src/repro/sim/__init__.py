"""Trace-driven address-translation simulation.

* :mod:`repro.sim.config` — the Table III machine parameters and the
  factory that assembles a system (page tables + walker + TLBs + kernel)
  for any organization at any footprint scale.
* :mod:`repro.sim.simulator` — single-process trace replay and the
  footprint populator used by the memory experiments.  Its scalar
  engine drives :class:`repro.kernel.process.AccessLoop`, the one
  per-access reference loop.
* :mod:`repro.sim.quantum` — the vectorized batched engine core
  (bit-identical results, selected via ``SimulationConfig.engine``),
  driven per quantum by the datacenter simulator;
* :mod:`repro.sim.fastpath` — its single-process trace-replay driver.
* :mod:`repro.sim.datacenter` — the multi-tenant scheduler and NUMA
  machine model; one socket gives the Section V-C multi-process runs.
* :mod:`repro.sim.results` — result containers, the differential
  performance model (cycles per access), and speedup computation.
"""

from repro.sim.config import SimulationConfig, SimulatedSystem, table3_parameters
from repro.sim.results import MemoryFootprintResult, PerformanceResult
from repro.sim.simulator import TranslationSimulator, populate_tables

__all__ = [
    "SimulationConfig",
    "SimulatedSystem",
    "table3_parameters",
    "TranslationSimulator",
    "populate_tables",
    "MemoryFootprintResult",
    "PerformanceResult",
]
