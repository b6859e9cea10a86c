"""Bus arbitration as the fabric runs it: a dirty pass that revalidates
only the requests that changed, then a lazy round-robin walk.

Two things must be exactly as if every waiting request were revalidated
and ranked at every arbitration: the optimistic-RMW aborts that a
revalidation triggers (their cycle, count and order), and the candidate
lists a scheduler is offered.
"""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.bus.arbiter import Arbiter
from repro.common.config import RmwMethod, TopologyConfig
from repro.obs.core import Observability
from repro.processor import isa
from repro.processor.program import Program
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.schedule import ChoiceKind, Scheduler
from repro.workloads import lock_contention

#: Block 0 is contended; the bystander's blocks 8 and 16 share its bus
#: (and home bank) on the two-bus fabrics.
B, X, Y = 0, 8, 16

TOPOLOGIES = {
    "snoop": TopologyConfig(),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "directory": TopologyConfig(kind="directory", directory_banks=2),
}


class _RecordingObs(Observability):
    def __init__(self) -> None:
        super().__init__()
        self.aborts: list[tuple[int, int]] = []

    def record_request_aborted(self, cache: int, cycle: int) -> None:
        self.aborts.append((cache, cycle))
        super().record_request_aborted(cache, cycle)


def _steal_programs() -> list[Program]:
    """Caches 1 and 2 read block B, then queue optimistic RMW upgrades
    while the bystander's read of X holds the bus.  The thief (cache 0,
    first after the bystander in round-robin order) wins the next grant
    with a write miss on B, invalidating both copies; the arbitration
    after that aborts both RMWs while the bystander's read of Y waits."""
    return [
        Program([isa.compute(10), isa.write(B, value=7)], name="thief"),
        Program([isa.read(B), isa.rmw(B, isa.test_and_set(1))], name="rmw1"),
        Program([isa.read(B), isa.rmw(B, isa.test_and_set(1))], name="rmw2"),
        Program([isa.read(X), isa.read(Y)], name="bystander"),
    ]


def _steal_config(topology: TopologyConfig) -> SystemConfig:
    return SystemConfig(
        num_processors=4,
        protocol="illinois",
        cache=CacheConfig(words_per_block=4, num_blocks=16),
        topology=topology,
        rmw_method=RmwMethod.OPTIMISTIC,
    )


#: (abort cycle, cycles) per fabric, as recorded when every hinted request
#: was revalidated at every arbitration.
PINNED = {
    "snoop": (35, 59),
    "multibus-2": (35, 59),
    "directory": (71, 125),
}


class TestPinnedAbortOrder:
    @pytest.mark.parametrize("engine", ["run", "run_stepped"])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_stolen_block_aborts_both_rmws_in_port_order(self, name, engine):
        obs = _RecordingObs()
        sim = Simulator(_steal_config(TOPOLOGIES[name]), _steal_programs(),
                        obs=obs, trace=True)
        stats = getattr(sim, engine)()
        abort_cycle, cycles = PINNED[name]
        assert stats.rmw_aborts == 2
        assert obs.aborts == [(1, abort_cycle), (2, abort_cycle)]
        assert stats.cycles == cycles
        # The bystander was waiting through the aborting arbitration,
        # and won it.
        grants = [event.cycle for event in sim.trace.events()
                  if event.kind is EventKind.BUS_TXN
                  and "block=16" in event.detail["txn"]]
        assert grants == [abort_cycle]


class _ReferenceCheck(Scheduler):
    """Takes the default choice, after checking that the candidate list
    equals what the dict arbiter makes of a full scan of the arbitrating
    bus (the one the candidates' requests are routed to)."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        self.checked = 0

    def choose(self, kind, candidates, *, cycle):
        fabric = self.fabric
        bus = fabric.buses[fabric._ports[candidates[0]].request_bus]
        ports = fabric._port_list
        arbiter = Arbiter([port.id for port in ports])
        arbiter._last_winner_index = bus._last_winner
        # Every request was revalidated by the dirty pass already, so a
        # full scan here has no side effects.
        requests = {port.id: _Probe(port.bus_request_priority())
                    for port in ports
                    if port.request_bus == bus.index
                    and port.has_bus_request()}
        assert list(candidates) == arbiter.ordered_candidates(requests)
        high = any(probe.high_priority for probe in requests.values())
        assert kind is (ChoiceKind.WAITER_WAKE if high
                        else ChoiceKind.BUS_ARB)
        self.checked += 1
        return 0


class _Probe:
    def __init__(self, high_priority: bool) -> None:
        self.high_priority = high_priority


class TestCandidateLists:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_walk_offers_the_full_scan_order(self, name):
        """With a scheduler the walk collects every live request; the
        list is the priority class and round-robin order a full scan
        ranks, and the choice kinds follow the priority class."""
        config = SystemConfig(
            num_processors=6, protocol="bitar-despain",
            cache=CacheConfig(words_per_block=4, num_blocks=16),
            topology=TOPOLOGIES[name])

        def programs():
            return lock_contention(config, rounds=3, think_cycles=5)

        sim = Simulator(config, programs(), scheduler=Scheduler())
        check = _ReferenceCheck(sim.bus)
        sim.bus.scheduler = check
        stats = sim.run()
        assert check.checked > 0
        reference = Simulator(config, programs()).run()
        assert stats.to_payload() == reference.to_payload()
