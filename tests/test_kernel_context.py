"""Unit tests for the context-switch model (repro.kernel.context)."""

import pytest

from repro.core.l2p import L2PTable
from repro.kernel.context import ContextSwitchModel
from repro.sim.config import SimulationConfig
from repro.sim.datacenter import DatacenterParams, DatacenterSimulator


class TestContextSwitchModel:
    def test_non_mehpt_pays_base_only(self):
        model = ContextSwitchModel(base_cycles=1000)
        assert model.switch_cost(None, None) == 1000

    def test_l2p_cost_scales_with_usage(self):
        model = ContextSwitchModel(base_cycles=1000, l2p_entry_cycles=4)
        out = L2PTable()
        out.subtable(0, "4K").reserve(50)
        incoming = L2PTable()
        incoming.subtable(1, "2M").reserve(10)
        cost = model.switch_cost(out, incoming)
        assert cost == 1000 + 50 * 4 + 10 * 4

    def test_virtualized_guest_skips_l2p(self):
        """Section V-C: no guest L2P tables; host table not switched."""
        model = ContextSwitchModel(base_cycles=1000, virtualized=True)
        l2p = L2PTable()
        l2p.subtable(0, "4K").reserve(64)
        assert model.switch_cost(l2p, l2p) == 1000

    def test_statistics(self):
        model = ContextSwitchModel(base_cycles=100)
        model.switch_cost(None, None)
        model.switch_cost(None, None)
        assert model.switches == 2
        assert model.mean_cost() == 100

    def test_paper_average_usage_is_cheap(self):
        # 53 entries on average (Section V-C) -> few hundred cycles.
        model = ContextSwitchModel(base_cycles=1500, l2p_entry_cycles=4)
        l2p = L2PTable()
        l2p.subtable(0, "4K").reserve(53)
        overhead = model.switch_cost(l2p, None) - 1500
        assert overhead == 53 * 4
        assert overhead < 500


def one_socket_run(model):
    """Two ME-HPT GUPS processes round-robin on one socket."""
    config = SimulationConfig(organization="mehpt", scale=512, seed=7)
    sim = DatacenterSimulator(
        ["GUPS", "GUPS"], config,
        DatacenterParams(sockets=1, processes=2, quantum=400),
        trace_length=1_200, switch_model=model,
    )
    return sim.run()


class RecordingSwitchModel(ContextSwitchModel):
    """Logs each switch: L2P entries saved (None: no table) and restored."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []

    def switch_cost(self, outgoing_l2p, incoming_l2p):
        self.log.append(tuple(
            None if l2p is None else l2p.entries_used()
            for l2p in (outgoing_l2p, incoming_l2p)
        ))
        return super().switch_cost(outgoing_l2p, incoming_l2p)


class TestSwitchAccountingInSchedulers:
    """The model's counters against the schedulers that drive it."""

    @pytest.mark.datacenter
    def test_multiprocess_charges_save_and_restore(self):
        model = ContextSwitchModel(base_cycles=1000, l2p_entry_cycles=4)
        result = one_socket_run(model)
        assert result.switches == model.switches > 0
        # Every switch between live ME-HPT processes saves the outgoing
        # L2P and restores the incoming one; the per-switch surcharge
        # over base_cycles is exactly what the result attributes to L2P.
        assert result.switch_cycles == (
            model.switches * 1000 + result.l2p_switch_cycles
        )
        assert result.l2p_switch_cycles > 0
        assert result.mean_l2p_entries > 0
        assert result.to_dict()["switches"] == result.switches

    @pytest.mark.datacenter
    def test_switch_after_exit_restores_incoming_only(self):
        # An exited process has nothing left to save: the switch into
        # the survivor after its sibling's last quantum restores the
        # incoming L2P and saves none.
        model = RecordingSwitchModel(base_cycles=1000, l2p_entry_cycles=4)
        result = one_socket_run(model)
        # GUPS#0 and GUPS#1 alternate 3 quanta each; GUPS#0 exits after
        # the 5th dispatch, so the 6th switch has nothing to save.
        saved = [out is not None for out, _ in model.log]
        assert saved == [False, True, True, True, True, False]
        assert result.l2p_switch_cycles == 4 * sum(
            (out or 0) + restored for out, restored in model.log
        )

    def test_datacenter_churn_deterministic_across_seeds(self):
        def run(seed):
            config = SimulationConfig(
                organization="mehpt", scale=512, seed=seed
            )
            params = DatacenterParams(
                sockets=2, processes=3, policy="migrate", quantum=400,
                churn_every=2, max_forks=4, rebalance_every=2, pool_mb=16,
            )
            return DatacenterSimulator(
                ["GUPS"], config, params=params, trace_length=1_200
            ).run()

        a, b, c = run(7), run(7), run(11)
        # Same seed: the whole fork/exec/exit schedule and every counter
        # replays identically.  A different seed runs to completion too
        # (determinism is per-seed, not a constant outcome).
        assert a.to_dict() == b.to_dict()
        assert a.forks > 0 and a.exits > a.forks - 1
        assert not c.failed
        assert c.to_dict() != a.to_dict()
