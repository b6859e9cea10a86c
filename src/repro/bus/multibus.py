"""Dual/multi-bus broadcast systems.

Section A.2: "broadcast is currently seen only in single or dual bus
systems, because this limits the number of simultaneous broadcasters to
one or two."  This module provides the dual (generally k-bus) variant:
blocks are interleaved across buses by block number, each bus arbitrates
independently, and every cache snoops every bus -- so up to k broadcasts
proceed per cycle on disjoint address partitions.

Coherence is unaffected: all transactions for one block serialize on that
block's bus, which is all the single-writer argument needs.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort, SnoopLedger, _index_to
from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig
from repro.common.types import BlockAddr, CacheId, Stamp
from repro.obs.core import NULL_OBS

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats


def _interleave(block: BlockAddr, words_per_block: int, n_buses: int) -> int:
    """The bus owning ``block``: blocks interleave by block number."""
    return (block // words_per_block) % n_buses


def _post_routed(sets: tuple[tuple[set[int], set[int]], ...], index: int,
                 words_per_block: int, block: BlockAddr) -> int:
    """Route a port's post to the ready and dirty sets of the bus owning
    ``block``; returns that bus's index."""
    bus = _interleave(block, words_per_block, len(sets))
    ready, dirty = sets[bus]
    ready.add(index)
    dirty.add(index)
    return bus


def _index_routed(indexes: tuple[dict[BlockAddr, set[int]], ...],
                  index: int, words_per_block: int, block: BlockAddr,
                  cares: bool) -> None:
    """Route a port's interest push to the index of the bus owning
    ``block`` -- the only bus that broadcasts transactions on it."""
    bus = _interleave(block, words_per_block, len(indexes))
    _index_to(indexes[bus], index, block, cares)


class _BusPortView:
    """One cache's face toward one of the buses: offers the cache's
    current request only when this bus owns the request's block."""

    def __init__(self, port: BusPort, bus_index: int) -> None:
        self._port = port
        self._bus_index = bus_index
        self.id: CacheId = port.id
        #: A posting port records the bus its request head was routed to
        #: when it posted (``request_bus``); ports that do not post (the
        #: I/O processor) use bus 0.
        self._posts = hasattr(port, "connect_ready")

    def _routed_here(self) -> bool:
        bus = self._port.request_bus if self._posts else 0
        return bus == self._bus_index

    def has_bus_request(self) -> bool:
        # Routing first: only the bus a request is routed to revalidates it.
        return self._routed_here() and self._port.has_bus_request()

    def has_request_hint(self) -> bool:
        return self._port.has_request_hint() and self._routed_here()

    def bus_request_priority(self) -> bool:
        return self._port.bus_request_priority()

    def take_bus_transaction(self) -> BusTransaction:
        return self._port.take_bus_transaction()

    def on_txn_granted(self, txn: BusTransaction, response,
                       data: list[Stamp] | None):
        return self._port.on_txn_granted(txn, response, data)

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        return self._port.snoop(txn)

    def finish_bus_release(self) -> None:
        self._port.finish_bus_release()

    # The single-bus Bus peeks at `protocol` for source-loss accounting.
    @property
    def protocol(self):
        return getattr(self._port, "protocol", None)


class MultiBusSystem:
    """k independent buses over block-interleaved address partitions."""

    def __init__(
        self,
        n_buses: int,
        memory: "MainMemory",
        timing: TimingConfig,
        clock: "Clock",
        stats: "SimStats",
        trace: "TraceLog",
        obs: "Observability" = NULL_OBS,
    ) -> None:
        if n_buses < 1:
            raise ValueError("need at least one bus")
        self.n_buses = n_buses
        self.memory = memory
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.trace = trace
        self.obs = obs
        self.buses = [self._make_bus(i) for i in range(n_buses)]
        #: One ledger for every bus: a grant on any bus is a snoop for
        #: every cache (in its delivery domain).
        self.ledger = SnoopLedger(self._domains())
        for bus in self.buses:
            bus.ledger = self.ledger

    def _domains(self) -> int:
        """Number of snoop delivery domains (clusters)."""
        return 1

    def _domain_of(self, port: BusPort) -> int:
        """The delivery domain ``port`` belongs to."""
        return 0

    def _make_bus(self, index: int) -> Bus:
        """Factory for one serialization domain; subclasses (clustered,
        directory) substitute their own Bus subclass here."""
        return Bus(self.memory, self.timing, self.clock, self.stats,
                   self.trace, obs=self.obs, index=index)

    @property
    def scheduler(self):
        return self.buses[0].scheduler

    @scheduler.setter
    def scheduler(self, value) -> None:
        for bus in self.buses:
            bus.scheduler = value

    def bus_of(self, block: BlockAddr) -> int:
        return _interleave(block, self.memory.words_per_block, self.n_buses)

    #: Whether ports push interest to the buses' indexes (the
    #: directory fabric delivers by sharer set instead).
    indexed = True

    def attach(self, port: BusPort) -> None:
        """Attach ``port`` to every bus through a routing view.  A port
        that posts (``connect_ready``) is wired to post into the ready
        set of the bus owning its request head's block, so routing is
        decided once per post, not on every scan; a port that pushes
        interest (``connect_interest``) likewise pushes into the index
        of the bus owning each block."""
        connect = getattr(port, "connect_ready", None)
        interest = (getattr(port, "connect_interest", None)
                    if self.indexed else None)
        domain = self._domain_of(port)
        for index, bus in enumerate(self.buses):
            position = bus._add_port(_BusPortView(port, index),
                                     polled=connect is None,
                                     indexed=interest is not None,
                                     domain=domain)
        wpb = self.memory.words_per_block
        if connect is not None:
            connect(functools.partial(
                _post_routed,
                tuple((bus._ready, bus._dirty) for bus in self.buses),
                position, wpb))
        if interest is not None:
            interest(functools.partial(
                _index_routed,
                tuple(bus._interest for bus in self.buses), position, wpb),
                self.ledger, domain)

    def step(self) -> bool:
        active = False
        for bus in self.buses:
            if bus.step():
                active = True
        return active

    def next_event_cycle(self) -> int:
        """Earliest cycle at which any constituent bus does anything."""
        return min(bus.next_event_cycle() for bus in self.buses)

    @property
    def busy(self) -> bool:
        return any(bus.busy for bus in self.buses)

    @property
    def pending_release(self) -> bool:
        return any(bus.pending_release for bus in self.buses)
