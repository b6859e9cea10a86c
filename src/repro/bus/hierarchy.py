"""Hierarchical multi-bus clusters (the scale-out snooping fabric).

Section A.2 limits broadcast coherence to one or two buses because every
cache must snoop every broadcast.  The clustered fabric keeps broadcast
*inside* a cluster of processors and filters it *between* clusters: the
fabric's ``clusters * buses_per_cluster`` lanes interleave blocks as in
:class:`~repro.bus.multibus.Fabric`, lane ``i`` belongs to cluster
``i // buses_per_cluster`` (the home cluster of its blocks), an
inter-cluster link joins the clusters, and a per-block interest set --
which clusters have ever issued a transaction on the block -- gates
snoop delivery so a cluster that never touched a block never hears about
it.  Within the clusters it reaches, a broadcast goes to the caches
indexed under its block, exactly as on the plain fabric: the cluster
filter is this kind's whole delivery rule.

The filter is sound because every way a cache can come to care about a
snoop (a tagged frame, a busy-wait register armed on the block) is
established only by that cache's *own* prior bus transaction on the same
block, which enrolled its cluster in the interest set.  The set only
ever grows, so staleness errs toward extra (harmless) snoops, never
missing ones.  With one cluster the filter admits everything and the
fabric is cycle-identical to the flat one.

Transactions whose requester lives outside the block's home cluster pay
a round trip on the inter-cluster link (``inter_cluster_hop_cycles``
each way) on top of the normal bus occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import Fabric
from repro.bus.signals import BusResponse, SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import CacheId

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats


class ClusteredBusSystem(Fabric):
    """``clusters`` snooping clusters of ``buses_per_cluster`` lanes each,
    joined by an inter-cluster link with interest-filtered snooping."""

    def __init__(
        self,
        topology: TopologyConfig,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        trace: "TraceLog",
        obs: "Observability",
    ) -> None:
        #: block number -> clusters that ever issued a txn on the block.
        self._interested: dict[int, set[int]] = {}
        #: Snoop deliveries suppressed by the interest filter.
        self.filtered_snoops = 0
        #: Messages carried by the inter-cluster link (requests,
        #: responses, and remote snoop broadcasts).
        self.link_messages = 0
        super().__init__(topology, memory, timing, clock, stats, trace, obs,
                         domains=topology.clusters)

    def home_cluster(self, bus_index: int) -> int:
        return bus_index // self.topology.buses_per_cluster

    def _enroll(self, interested: set[int], cluster: int) -> None:
        """Enter the requester's ``cluster`` in a block's interest set."""
        interested.add(cluster)

    def _deliver(self, lane: Bus, requester: BusPort,
                 txn: BusTransaction) -> dict[CacheId, SnoopReply]:
        """Snoop ``txn`` only in the clusters enrolled in its block's
        interest set (and, within them, only at the caches indexed under
        the block), after enrolling the requester's cluster."""
        block_number = txn.block // self.memory.words_per_block
        interested = self._interested.setdefault(block_number, set())
        self._enroll(interested, self.domain_of(requester.id))
        home = self.home_cluster(lane.index)
        self.link_messages += sum(1 for c in interested if c != home)
        # Every port outside the interested clusters is filtered (the
        # requester's cluster is always interested).
        ports = self._domain_ports
        self.filtered_snoops += len(self._port_list) - sum(
            ports[c] for c in interested)
        return self._broadcast(lane, requester, txn, interested)

    def _extra_cycles(self, lane: Bus, txn: BusTransaction,
                      response: BusResponse,
                      replies: dict[CacheId, SnoopReply]) -> int:
        """A requester outside the block's home cluster sends its request
        out and gets the response back over the link."""
        src = self.domain_of(txn.requester)
        home = self.home_cluster(lane.index)
        if src == home:
            return 0
        self.link_messages += 2
        if self.obs.active:
            self.obs.record_cluster_hop(self.clock.cycle, txn.block, src,
                                        home)
        return 2 * self.topology.inter_cluster_hop_cycles
