"""Unit tests for the L2P table (repro.core.l2p)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.l2p import ENTRIES_PER_SUBTABLE, L2PSubtable, L2PTable


class TestGeometry:
    def test_total_entries_and_bits(self):
        l2p = L2PTable(ways=3)
        assert l2p.total_entries() == 288
        assert l2p.table_bits() == 288 * 33  # 1.16KB, as in Section V-B

    def test_needs_at_least_one_way(self):
        with pytest.raises(ConfigurationError):
            L2PTable(ways=0)

    def test_unknown_page_size(self):
        with pytest.raises(ConfigurationError):
            L2PTable().subtable(0, "16K")


class TestReservation:
    def test_within_own_capacity(self):
        sub = L2PTable().subtable(0, "4K")
        assert sub.reserve(32)
        assert sub.in_use == 32
        assert not sub.stealing

    def test_stealing_doubles_capacity(self):
        sub = L2PTable().subtable(0, "4K")
        assert sub.reserve(64)  # 32 own + 32 stolen from the 1GB neighbour
        assert sub.stealing

    def test_cannot_exceed_double(self):
        sub = L2PTable().subtable(0, "4K")
        assert sub.reserve(64)
        assert not sub.reserve(1)

    def test_group_capacity_shared(self):
        l2p = L2PTable()
        assert l2p.subtable(0, "4K").reserve(64)
        assert l2p.subtable(0, "2M").reserve(32)
        # 64 + 32 = 96: the way-group is full; 1GB gets nothing.
        assert not l2p.subtable(0, "1G").reserve(1)

    def test_displaced_1g_takes_2m_entries(self):
        # Figure 6c: 4KB stole the whole 1GB subtable; a 1GB entry then
        # borrows from the 2MB side — allowed while the group has room.
        l2p = L2PTable()
        assert l2p.subtable(0, "4K").reserve(64)
        assert l2p.subtable(0, "1G").reserve(1)
        assert l2p.subtable(0, "2M").reserve(31)
        assert not l2p.subtable(0, "2M").reserve(1)

    def test_ways_are_independent(self):
        l2p = L2PTable()
        assert l2p.subtable(0, "4K").reserve(64)
        assert l2p.subtable(1, "4K").reserve(64)

    def test_release(self):
        sub = L2PTable().subtable(0, "4K")
        sub.reserve(10)
        sub.release(4)
        assert sub.in_use == 6

    def test_over_release_rejected(self):
        sub = L2PTable().subtable(0, "4K")
        sub.reserve(2)
        with pytest.raises(ConfigurationError):
            sub.release(3)

    def test_negative_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            L2PTable().subtable(0, "4K").reserve(-1)


class TestReporting:
    def test_entries_used(self):
        l2p = L2PTable()
        l2p.subtable(0, "4K").reserve(5)
        l2p.subtable(1, "2M").reserve(3)
        assert l2p.entries_used() == 8
        assert l2p.entries_used_for("4K") == 5

    def test_peak_tracking(self):
        l2p = L2PTable()
        sub = l2p.subtable(0, "4K")
        sub.reserve(10)
        sub.release(10)
        assert l2p.entries_used() == 0
        assert l2p.peak_entries_used() == 10

    def test_usage_by_subtable(self):
        l2p = L2PTable(ways=2)
        l2p.subtable(1, "1G").reserve(2)
        usage = dict(
            ((way, size), used) for way, size, used in l2p.usage_by_subtable()
        )
        assert usage[(1, "1G")] == 2
        assert usage[(0, "4K")] == 0
