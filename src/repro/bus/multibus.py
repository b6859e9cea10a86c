"""The fabric: k broadcast lanes over block-interleaved partitions.

Section A.2: "broadcast is currently seen only in single or dual bus
systems, because this limits the number of simultaneous broadcasters to
one or two."  A :class:`Fabric` of k lanes is both: blocks interleave
across its lanes by block number, each lane arbitrates independently,
and every cache snoops every lane -- so up to k broadcasts proceed per
cycle on disjoint address partitions.  The ``snoop`` topology is the
fabric with one lane, ``multibus`` the fabric with ``buses`` lanes.

Coherence is unaffected: all transactions for one block serialize on
that block's lane, which is all the single-writer argument needs.

The fabric owns the one port table every lane reads, the wiring that
routes each port's posts and interest pushes to the lane owning the
block, and the :class:`~repro.bus.bus.SnoopLedger`.  What a granted
transaction reaches is the fabric kind's delivery rule: :meth:`_deliver`
here (the interest index), the cluster filter of
:class:`~repro.bus.hierarchy.ClusteredBusSystem`, or the home-bank probe
of :class:`~repro.directory_backend.system.DirectorySystem`, each with
its :meth:`_extra_cycles` on top of the lane's occupancy.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Collection, Iterable

from repro.bus.bus import Bus, BusPort, SnoopLedger
from repro.bus.signals import BusResponse, SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import BlockAddr, CacheId

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats

#: Delivery domains of a fabric without clusters: everything is domain 0.
WHOLE_FABRIC = (0,)

_NOBODY: frozenset[int] = frozenset()


def _interleave(block: BlockAddr, words_per_block: int, lanes: int) -> int:
    """The lane owning ``block``: blocks interleave by block number."""
    return (block // words_per_block) % lanes


def _post(sets: tuple[tuple[set[int], set[int]], ...], lanes: int,
          index: int, words_per_block: int, block: BlockAddr) -> int:
    """Route a port's post to the ready and dirty sets of the lane owning
    ``block`` (of ``lanes``); returns that lane's index."""
    # _interleave, inlined: every request head a cache posts comes here.
    lane = (block // words_per_block) % lanes
    ready, dirty = sets[lane]
    ready.add(index)
    dirty.add(index)
    return lane


def _index(indexes: tuple[dict[BlockAddr, set[int]], ...], lanes: int,
           index: int, words_per_block: int, block: BlockAddr,
           cares: bool) -> None:
    """Enter (``cares``) or remove position ``index`` under ``block`` in
    the interest index of the lane owning ``block`` (of ``lanes``) --
    the only lane that broadcasts transactions on it."""
    interest = indexes[(block // words_per_block) % lanes]
    positions = interest.get(block)
    if cares:
        if positions is None:
            interest[block] = {index}
        else:
            positions.add(index)
    elif positions is not None:
        positions.discard(index)
        if not positions:
            del interest[block]


class Fabric:
    """``topology.num_buses`` buses over block-interleaved partitions,
    delivering each broadcast to the caches indexed under its block."""

    #: Whether ports push interest to the lanes' indexes (the directory
    #: fabric delivers by sharer set instead).
    indexed = True

    def __init__(
        self,
        topology: TopologyConfig,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        trace: "TraceLog",
        obs: "Observability",
        *,
        domains: int = 1,
    ) -> None:
        self.topology = topology
        self.memory = memory
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.trace = trace
        self.obs = obs
        #: Optional :class:`~repro.sim.schedule.Scheduler` resolving
        #: arbitration and read-source ties; ``None`` keeps the built-in
        #: deterministic tie-breaks (round-robin, lowest id).
        self.scheduler = None
        #: Snoop delivery domains (clusters); a port's domain is its
        #: id modulo ``domains`` (cacheless ports live in domain 0).
        self.domains = domains
        self._ports: dict[CacheId, BusPort] = {}
        #: Snapshot of the port list for allocation-free scans; a
        #: port's index here is its position in every lane.
        self._port_list: tuple[BusPort, ...] = ()
        #: Port id -> attachment position (the arbitration order).
        self._position: dict[CacheId, int] = {}
        #: Position -> delivery domain of the port there.
        self._domain: list[int] = []
        #: Ports attached per delivery domain.
        self._domain_ports = [0] * domains
        #: Positions of ports that cannot post (the I/O processor),
        #: polled by lane 0.
        self._polled: list[int] = []
        #: Positions of ports that cannot push interest (the I/O
        #: processor): they snoop every broadcast on every lane.
        self._unindexed: list[int] = []
        #: Bulk accounting of skipped snoops: a grant on any lane is a
        #: snoop for every cache in its delivery domains.
        self.ledger = SnoopLedger(domains)
        self.buses = [Bus(self, index)
                      for index in range(topology.num_buses)]
        if len(self.buses) == 1:
            # One lane: the engine drives it directly, so the single bus
            # pays no per-event fan-out.
            self.step = self.buses[0].step
            self.next_event_cycle = self.buses[0].next_event_cycle

    # -- wiring -------------------------------------------------------------

    def bus_of(self, block: BlockAddr) -> int:
        """The lane owning ``block``."""
        return _interleave(block, self.memory.words_per_block,
                           len(self.buses))

    def domain_of(self, cache_id: CacheId) -> int:
        """Processor caches are distributed round-robin over the delivery
        domains; ports without a processor identity (I/O, id < 0) live
        in domain 0."""
        if cache_id < 0:
            return 0
        return cache_id % self.domains

    def attach(self, port: BusPort) -> None:
        """Enter ``port`` in the port table.  A port that posts
        (``connect_ready``) is wired to post into the ready set of the
        lane owning its request head's block, so routing is decided once
        per post, not on every scan; a port that pushes interest
        (``connect_interest``) likewise pushes into the index of the lane
        owning each block.  A port with neither is polled by lane 0 and
        snooped on every lane."""
        if port.id in self._ports:
            raise ValueError(f"port {port.id} already attached")
        connect = getattr(port, "connect_ready", None)
        interest = (getattr(port, "connect_interest", None)
                    if self.indexed else None)
        position = len(self._port_list)
        domain = self.domain_of(port.id)
        self._ports[port.id] = port
        self._port_list = tuple(self._ports.values())
        self._position[port.id] = position
        self._domain.append(domain)
        self._domain_ports[domain] += 1
        for lane in self.buses:
            # As if the newest port won last: the walk starts at 0.
            lane._last_winner = position
        lanes = len(self.buses)
        wpb = self.memory.words_per_block
        if connect is None:
            self._polled.append(position)
        else:
            connect(functools.partial(
                _post, tuple((lane._ready, lane._dirty)
                             for lane in self.buses), lanes, position, wpb))
        if interest is None:
            self._unindexed.append(position)
        else:
            interest(functools.partial(
                _index, tuple(lane._interest for lane in self.buses), lanes,
                position, wpb), self.ledger, domain)

    # -- driving --------------------------------------------------------------

    def step(self) -> bool:
        active = False
        for lane in self.buses:
            if lane.step():
                active = True
        return active

    def next_event_cycle(self) -> int:
        """Earliest cycle at which any lane does anything."""
        return min(lane.next_event_cycle() for lane in self.buses)

    @property
    def busy(self) -> bool:
        return any(lane.busy for lane in self.buses)

    @property
    def pending_release(self) -> bool:
        return any(lane.pending_release for lane in self.buses)

    # -- delivery -------------------------------------------------------------

    def _deliver(self, lane: Bus, requester: BusPort,
                 txn: BusTransaction) -> dict[CacheId, SnoopReply]:
        """Snoop ``txn``, granted on ``lane``, at every port that may
        react; returns the replies in port position order."""
        return self._broadcast(lane, requester, txn, WHOLE_FABRIC)

    def _broadcast(
        self, lane: Bus, requester: BusPort, txn: BusTransaction,
        domains: Collection[int],
    ) -> dict[CacheId, SnoopReply]:
        """Snoop ``txn`` at the ports indexed under its block on ``lane``
        and the unindexed ones, in position order (``combine`` keeps the
        last supplier it meets), skipping the requester and, unless
        ``domains`` is :data:`WHOLE_FABRIC`, ports outside ``domains``.
        Every other port would have answered a fast miss; the ledger
        accounts for their snoops."""
        rid = requester.id
        ports = self._port_list
        indexed = lane._interest.get(txn.block, _NOBODY)
        unindexed = self._unindexed
        dense = len(indexed) + len(unindexed) == len(ports)
        whole = domains is WHOLE_FABRIC
        replies: dict[CacheId, SnoopReply] = {}
        if dense and whole:
            # Every port may care (a lock every cache tags): no sort.
            for cid, port in self._ports.items():
                if cid != rid:
                    replies[cid] = port.snoop(txn)
        else:
            order: Iterable[int]
            if dense:
                order = range(len(ports))
            elif unindexed:
                order = sorted(indexed.union(unindexed))
            else:
                order = sorted(indexed)
            domain_of = self._domain
            for index in order:
                port = ports[index]
                cid = port.id
                if cid != rid and (whole or domain_of[index] in domains):
                    replies[cid] = port.snoop(txn)
        self.ledger.grant(self.clock.cycle, rid, domains, replies)
        return replies

    def _extra_cycles(self, lane: Bus, txn: BusTransaction,
                      response: BusResponse,
                      replies: dict[CacheId, SnoopReply]) -> int:
        """Cycles the delivery adds to ``lane``'s occupancy (none on a
        plain bus)."""
        return 0
