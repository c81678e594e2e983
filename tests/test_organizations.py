"""The organization interface: every page-table class answers for itself.

Radix, ECPT and ME-HPT tables all provide the methods the simulator,
the collectors, the kernel and the datacenter model call, so none of
them compares ``organization`` with a name.  These tests pin what each
organization contributes to the results, and keep the name comparisons
from coming back.
"""

import ast
import json
import pathlib

import pytest

from repro.common.errors import SimulationError
from repro.kernel.process import Process
from repro.obs import ObservabilityConfig
from repro.radix.table import RadixPageTable
from repro.sim.config import ORGANIZATIONS, SimulationConfig
from repro.sim.simulator import TranslationSimulator, memory_result
from repro.workloads import get_workload

#: A small cell where ME-HPT kicks, rehashes and changes chunk size with
#: and without THP.
APP, SCALE, TRACE = "BFS", 1024, 6_000


def simulate(organization, thp, **config):
    workload = get_workload(APP, scale=SCALE)
    cfg = SimulationConfig(
        organization=organization, thp_enabled=thp, scale=SCALE, **config
    )
    sim = TranslationSimulator(workload, cfg, trace_length=TRACE)
    return sim, sim.run()


@pytest.mark.parametrize("thp", [False, True])
@pytest.mark.parametrize("organization", ORGANIZATIONS)
class TestAccounting:
    def test_performance_terms(self, organization, thp):
        sim, perf = simulate(organization, thp)
        assert not perf.failed
        totals = sim.system.address_space.totals
        if organization == "radix":
            for term in (perf.reinsert_cycles, perf.l2p_exposed_cycles,
                         perf.rehash_move_cycles):
                assert type(term) is float and term == 0.0
            assert perf.pt_alloc_cycles == totals.pt_alloc_cycles * SCALE
            return
        assert perf.pt_alloc_cycles == sim.system.page_tables.allocation_cycles()
        assert perf.reinsert_cycles == totals.reinsert_cycles * SCALE
        assert perf.rehash_move_cycles > 0
        if organization == "ecpt":
            assert type(perf.l2p_exposed_cycles) is float
            assert perf.l2p_exposed_cycles == 0.0
        else:
            assert totals.kicks > 0
            assert perf.l2p_exposed_cycles == (
                totals.kicks * SCALE * sim.config.l2p_cycles
            )

    def test_memory_fields(self, organization, thp):
        workload = get_workload(APP, scale=SCALE)
        system = SimulationConfig(
            organization=organization, thp_enabled=thp, scale=SCALE
        ).build(workload)
        result = memory_result(system)
        tables = system.page_tables
        assert not result.failed
        assert result.total_pt_bytes == tables.total_bytes() * SCALE
        assert result.peak_pt_bytes >= result.total_pt_bytes
        if organization == "radix":
            assert result.peak_pt_bytes == result.total_pt_bytes
            assert result.upsizes_per_way_4k == []
            assert result.way_bytes_4k == []
            assert result.moved_fractions_4k == []
            assert result.kick_histogram == {}
        else:
            assert len(result.way_bytes_4k) == SimulationConfig().ways
            assert result.kick_histogram
        if organization == "mehpt":
            assert result.l2p_entries_used == tables.l2p.entries_used() > 0
            assert result.chunk_transitions == sum(tables.chunk_transitions.values())
            assert result.chunk_transitions > 0
        else:
            assert result.l2p_entries_used == 0
            assert result.chunk_transitions == 0

    def test_traced_term_types(self, organization, thp, tmp_path):
        path = tmp_path / "run.jsonl"
        _sim, perf = simulate(
            organization, thp, obs=ObservabilityConfig(trace_path=str(path))
        )
        # Parse the raw JSON: 0 and 0.0 are distinct there.
        events = {}
        for line in path.read_text().splitlines():
            event = json.loads(line)
            events.setdefault(event["kind"], event)
        at_start = events["run_start"]["pt_alloc_cycles_at_start"]
        assert type(at_start) is float
        if organization == "radix":
            assert at_start == 0.0
        relocated = events["run_end"]["relocated_entries"]
        assert type(relocated) is int
        assert (relocated == 0) == (organization == "radix")
        assert events["run_end"]["pt_alloc_cycles"] == perf.pt_alloc_cycles


@pytest.mark.parametrize("organization", ORGANIZATIONS)
def test_process_l2p_is_the_tables_l2p(organization):
    workload = get_workload(APP, scale=SCALE)
    system = SimulationConfig(organization=organization, scale=SCALE).build(workload)
    process = Process("p", system.address_space, system.tlb, workload.trace(10))
    assert process.l2p is system.page_tables.l2p
    assert (process.l2p is None) == (organization != "mehpt")


class TestRadixInvariantChecks:
    def test_run_checks_every_access(self, monkeypatch):
        calls = []
        check = RadixPageTable.check_invariants

        def counting(self):
            calls.append(self.node_count)
            check(self)

        monkeypatch.setattr(RadixPageTable, "check_invariants", counting)
        for engine in ("scalar", "vectorized"):
            calls.clear()
            simulate("radix", False, invariant_check_every=1, engine=engine)
            # Every access but the first, plus none at the end of a trace run.
            assert len(calls) == TRACE - 1, engine

    def test_violation_gains_run_context(self, monkeypatch):
        def corrupt(self):
            self.node_count += 1
            return check(self)

        check = RadixPageTable.check_invariants
        monkeypatch.setattr(RadixPageTable, "check_invariants", corrupt)
        with pytest.raises(SimulationError) as info:
            simulate("radix", False, invariant_check_every=100)
        assert info.value.context["organization"] == "radix"
        assert info.value.context["progress"] == 100


# -- no organization-name branches -----------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules that may compare organization names: the one place that maps
#: a name to classes, the experiment drivers and the fuzzer that choose which
#: organizations to run, and the report CLI, which rebuilds the cost
#: terms from the event stream on its own.
ALLOWED = ("sim/config.py", "experiments/", "fuzz/", "obs/report.py")


def _is_organization(node):
    return (isinstance(node, ast.Name) and node.id == "organization") or (
        isinstance(node, ast.Attribute) and node.attr == "organization"
    )


def _has_str_literal(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_has_str_literal(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def organization_name_comparisons(source):
    """Line numbers of comparisons between an organization and a string."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_organization, operands)) and any(
                map(_has_str_literal, operands)
            ):
                lines.append(node.lineno)
    return lines


def test_detector_catches_every_form():
    source = "\n".join([
        'a = config.organization == "radix"',
        'b = "mehpt" != self.config.organization',
        'c = organization in ("ecpt", "mehpt")',
        'd = config.organization not in ["radix"]',
        'e = config.organization in ORGANIZATIONS',
        'f = config.organization == other.organization',
        'g = config.policy == "radix"',
    ])
    assert organization_name_comparisons(source) == [1, 2, 3, 4]


def test_no_organization_name_comparisons_outside_allowed_modules():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(ALLOWED):
            continue
        found += [
            f"{rel}:{line}"
            for line in organization_name_comparisons(path.read_text())
        ]
    assert found == [], "ask the page tables instead: " + ", ".join(found)
