"""Fabric conformance: the trivial geometries of every fabric must be
bit-identical to the single snooping bus, on all ten protocols.

``multibus`` with one bus is the very fabric ``snoop`` builds, reached
through the multibus topology; ``clustered`` with one cluster of one bus
is the same one-lane fabric under the cluster delivery rule, which
admits every snoop through the interest filter and pays no link hops.
Either reduction changing a single statistic would mean the delivery
rule or the lane wiring (not the topology) perturbs the simulation.
"""

import pytest

from repro import api
from repro.common.config import TopologyConfig
from repro.protocols import PROTOCOLS

TRIVIAL_TOPOLOGIES = {
    "multibus-1": TopologyConfig(kind="multibus", buses=1),
    "clustered-1x1": TopologyConfig(kind="clustered", clusters=1,
                                    buses_per_cluster=1),
}


def _run(protocol: str, topology: TopologyConfig | None = None) -> dict:
    kwargs = {} if topology is None else {"topology": topology}
    result = api.simulate(protocol, "sharing", processors=4, **kwargs)
    return result.stats.to_payload()


class TestTrivialFabricsAreBitIdentical:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("name", sorted(TRIVIAL_TOPOLOGIES))
    def test_matches_snoop(self, protocol, name):
        baseline = _run(protocol)
        reduced = _run(protocol, TRIVIAL_TOPOLOGIES[name])
        assert reduced == baseline, (
            f"{name} perturbed {protocol} relative to the snoop bus"
        )


class TestScaledFabricsStayCoherent:
    @pytest.mark.parametrize("protocol", ["bitar-despain", "illinois"])
    def test_clustered_verifies(self, protocol):
        result = api.simulate(
            protocol, "lock-contention", processors=6,
            topology=TopologyConfig(kind="clustered", clusters=2),
            check_interval=8,
        )
        assert result.stats.stale_reads == 0
        assert result.topology == "clustered"

    @pytest.mark.parametrize("protocol", ["bitar-despain", "illinois"])
    def test_directory_verifies(self, protocol):
        result = api.simulate(
            protocol, "lock-contention", processors=6,
            topology=TopologyConfig(kind="directory", directory_banks=2),
            check_interval=8,
        )
        assert result.stats.stale_reads == 0
        assert result.topology == "directory"

    def test_fast_forward_identity_on_new_fabrics(self):
        from repro.sim.engine import Simulator
        from repro.workloads.registry import build_workload

        for topo in (TopologyConfig(kind="clustered", clusters=2),
                     TopologyConfig(kind="directory", directory_banks=2)):
            config = api._build_config("bitar-despain", processors=6,
                                       topology=topo)
            programs = build_workload("lock-contention", config)
            stepped = Simulator(config, programs).run_stepped()
            fast = api.simulate("bitar-despain", "lock-contention",
                                processors=6, topology=topo)
            assert stepped.to_payload() == fast.stats.to_payload()

    def test_directory_prunes_traffic_relative_to_broadcast(self):
        from repro.directory_backend import DirectorySystem
        from repro.sim.engine import Simulator
        from repro.workloads.registry import build_workload

        config = api._build_config(
            "bitar-despain", processors=8,
            topology=TopologyConfig(kind="directory"))
        programs = build_workload("sharing", config)
        sim = Simulator(config, programs)
        sim.run()
        assert isinstance(sim.bus, DirectorySystem)
        tallies = sim.bus.message_tallies()
        txns = tallies["requests"]
        assert txns > 0
        # Broadcast would probe N-1 = 7 caches per transaction; the
        # directory's point-to-point fanout must beat that on a workload
        # where only a few caches share each block.
        probes_per_txn = (tallies["invalidations"]
                          + tallies["forwards"]) / txns
        assert probes_per_txn < 7

    def test_clustered_filters_remote_snoops(self):
        from repro.bus.hierarchy import ClusteredBusSystem
        from repro.sim.engine import Simulator
        from repro.workloads.registry import build_workload

        config = api._build_config(
            "bitar-despain", processors=8,
            topology=TopologyConfig(kind="clustered", clusters=4))
        programs = build_workload("migration", config)
        sim = Simulator(config, programs)
        sim.run()
        assert isinstance(sim.bus, ClusteredBusSystem)
        assert sim.bus.filtered_snoops > 0
