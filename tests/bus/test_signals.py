"""Unit tests for snoop-reply aggregation."""

from repro.bus.signals import BusResponse, SnoopReply


class TestCombine:
    def test_all_miss(self):
        r = BusResponse.combine({1: SnoopReply.miss(), 2: SnoopReply.miss()})
        assert not r.shared_hit
        assert r.supplier is None
        assert not r.locked

    def test_hit_line(self):
        r = BusResponse.combine({1: SnoopReply(hit=True)})
        assert r.shared_hit
        assert r.supplier is None

    def test_direct_supplier_wins(self):
        r = BusResponse.combine({
            1: SnoopReply(hit=True, supplies=True, dirty=True, data=[1]),
            2: SnoopReply(hit=True),
        })
        assert r.supplier == 1
        assert r.supplier_dirty

    def test_arbitration_when_no_direct_supplier(self):
        """Illinois: read-privilege holders arbitrate; lowest id wins."""
        r = BusResponse.combine({
            3: SnoopReply(hit=True, arbitrates=True, data=[0]),
            1: SnoopReply(hit=True, arbitrates=True, data=[0]),
        })
        assert r.supplier == 1
        assert r.arbitration_candidates == 2

    def test_direct_supplier_preempts_arbitration(self):
        r = BusResponse.combine({
            1: SnoopReply(hit=True, arbitrates=True, data=[0]),
            2: SnoopReply(hit=True, supplies=True, data=[0]),
        })
        assert r.supplier == 2
        assert r.arbitration_candidates == 0

    def test_locked_reply(self):
        r = BusResponse.combine({1: SnoopReply(hit=True, locked=True)})
        assert r.locked
        assert r.shared_hit

    def test_repliers_listed(self):
        r = BusResponse.combine({
            1: SnoopReply(hit=True),
            2: SnoopReply.miss(),
            3: SnoopReply(hit=True, locked=True),
        })
        assert sorted(r.repliers) == [1, 3]
