"""Unit tests for the process model (repro.kernel.process)."""

import ast
import pathlib

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


# ---------------------------------------------------------------------------
# One scalar reference loop
# ---------------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The two calls every per-access scalar loop makes.
LOOP_CALLS = ("translate", "handle_fault")

LOOP_NODES = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _called(loop, aliases):
    """The :data:`LOOP_CALLS` names called anywhere inside ``loop``."""
    names = set()
    for node in ast.walk(loop):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in LOOP_CALLS:
            names.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in aliases:
            names.add(aliases[func.id])
    return names


def translate_fault_loops(source):
    """Line numbers of the innermost loops calling both a translate and
    ``handle_fault``, directly or through a local alias
    (``fault = aspace.handle_fault``)."""
    tree = ast.parse(source)
    aliases = {
        target.id: node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in LOOP_CALLS
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    both = [
        node for node in ast.walk(tree)
        if isinstance(node, LOOP_NODES)
        and _called(node, aliases) == set(LOOP_CALLS)
    ]
    return sorted(
        loop.lineno for loop in both
        if not any(
            inner is not loop and inner in both for inner in ast.walk(loop)
        )
    )


def test_detector_catches_every_form():
    source = "\n".join([
        "def direct(tlb, aspace, vpns):",         # 1
        "    for vpn in vpns:",                   # 2: found
        "        if tlb.translate(vpn).level:",
        "            aspace.handle_fault(vpn)",
        "def aliased(self, chunks):",             # 5
        "    translate_fn = self.tlb.translate",
        "    fault_fn = self.address_space.handle_fault",
        "    for chunk in chunks:",               # 8: not innermost
        "        i = 0",
        "        while i < len(chunk):",          # 10: found
        "            translate_fn(chunk[i])",
        "            fault_fn(chunk[i])",
        "            i += 1",
        "def faults_only(aspace, vpns):",         # 14
        "    for vpn in vpns:",                   # 15: no translate
        "        aspace.handle_fault(vpn)",
        "def comprehension(tlb, aspace, vpns):",  # 17
        "    return [aspace.handle_fault(v) for v in vpns if tlb.translate(v)]",
    ])
    assert translate_fault_loops(source) == [2, 10, 18]


def test_one_scalar_reference_loop():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in translate_fault_loops(path.read_text())
    ]
    assert len(found) == 1 and found[0].startswith("kernel/process.py:"), (
        "per-access translate/fault loops: " + ", ".join(found)
    )
