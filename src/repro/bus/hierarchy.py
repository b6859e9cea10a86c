"""Hierarchical multi-bus clusters (the scale-out snooping fabric).

Section A.2 limits broadcast coherence to one or two buses because every
cache must snoop every broadcast.  The clustered fabric keeps broadcast
*inside* a cluster of processors and filters it *between* clusters: each
cluster owns ``buses_per_cluster`` block-interleaved snooping buses, an
inter-cluster link joins them, and a per-block interest set -- which
clusters have ever issued a transaction on the block -- gates snoop
delivery so a cluster that never touched a block never hears about it.

The filter is sound because every way a cache can come to care about a
snoop (a tagged frame, a busy-wait register armed on the block, an RMW
hold) is established only by that cache's *own* prior bus transaction on
the same block, which enrolled its cluster in the interest set.  The set
only ever grows, so staleness errs toward extra (harmless) snoops, never
missing ones.  With one cluster the filter admits everything and the
fabric is cycle-identical to the flat multi-bus system.

Transactions whose requester lives outside the block's home cluster pay
a round trip on the inter-cluster link (``inter_cluster_hop_cycles``
each way) on top of the normal bus occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import MultiBusSystem
from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import CacheId

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats


class ClusteredBusSystem(MultiBusSystem):
    """``clusters`` snooping clusters of ``buses_per_cluster`` buses each,
    joined by an inter-cluster link with interest-filtered snooping."""

    def __init__(
        self,
        topology: TopologyConfig,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        trace: "TraceLog",
        obs: "Observability" = None,  # type: ignore[assignment]
    ) -> None:
        from repro.obs.core import NULL_OBS

        self.topology = topology
        self.clusters = topology.clusters
        self.buses_per_cluster = topology.buses_per_cluster
        #: block number -> clusters that ever issued a txn on the block.
        self._interested: dict[int, set[int]] = {}
        #: Snoop deliveries suppressed by the interest filter.
        self.filtered_snoops = 0
        #: Ports attached per cluster.
        self._cluster_ports = [0] * self.clusters
        #: Messages carried by the inter-cluster link (requests,
        #: responses, and remote snoop broadcasts).
        self.link_messages = 0
        super().__init__(
            self.clusters * self.buses_per_cluster, memory, timing, clock,
            stats, trace, obs if obs is not None else NULL_OBS,
        )

    def _make_bus(self, index: int) -> Bus:
        return ClusterBus(self, index)

    def _domains(self) -> int:
        return self.clusters

    def _domain_of(self, port: BusPort) -> int:
        return self.cluster_of_port(port.id)

    def attach(self, port: BusPort) -> None:
        self._cluster_ports[self.cluster_of_port(port.id)] += 1
        super().attach(port)

    def cluster_of_port(self, cache_id: CacheId) -> int:
        """Processor caches are distributed round-robin over clusters;
        ports without a processor identity (I/O, id < 0) live in
        cluster 0."""
        if cache_id < 0:
            return 0
        return cache_id % self.clusters

    def home_cluster(self, bus_index: int) -> int:
        return bus_index // self.buses_per_cluster


class ClusterBus(Bus):
    """One snooping bus inside a cluster; snoops are delivered only to
    clusters enrolled in the block's interest set (and, within them,
    only to the caches indexed under the block)."""

    def __init__(self, system: ClusteredBusSystem, index: int) -> None:
        super().__init__(system.memory, system.timing, system.clock,
                         system.stats, system.trace, obs=system.obs,
                         index=index)
        self._system = system

    def _snoop_all(
        self, requester: BusPort, txn: BusTransaction
    ) -> dict[CacheId, SnoopReply]:
        system = self._system
        block_number = txn.block // system.memory.words_per_block
        interested = system._interested.setdefault(block_number, set())
        interested.add(system.cluster_of_port(requester.id))
        home = system.home_cluster(self.index)
        system.link_messages += sum(1 for c in interested if c != home)
        # Every port outside the interested clusters is filtered (the
        # requester's cluster is always interested).
        ports = system._cluster_ports
        system.filtered_snoops += len(self._port_list) - sum(
            ports[c] for c in interested)
        return self._deliver(requester, txn, interested)

    def _duration(self, txn, response, replies, info) -> int:
        cycles = super()._duration(txn, response, replies, info)
        system = self._system
        src = system.cluster_of_port(txn.requester)
        home = system.home_cluster(self.index)
        if src != home:
            # Request out and response back over the link.
            cycles += 2 * system.topology.inter_cluster_hop_cycles
            system.link_messages += 2
            if self.obs.active:
                self.obs.record_cluster_hop(self.clock.cycle, txn.block,
                                            src, home)
        return cycles
