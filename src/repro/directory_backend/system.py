"""The directory fabric: home banks, sharer vectors, point-to-point
delivery.

The fabric's lanes are its ``directory_banks`` home banks: blocks
interleave across them exactly as they interleave across the buses of
:class:`~repro.bus.multibus.Fabric`, so every transaction on a block
serializes at its home bank -- the same single-writer argument, with the
bank in the bus's role.  Delivery is the only difference.  Instead of
broadcasting, the bank looks the request up in the home-bank
:class:`~repro.directory_backend.table.DirectoryTable` (through the
same ``TransitionTable.lookup`` every protocol uses) and executes the
matched row's actions: :meth:`DirectorySystem._deliver` runs its
enrollment and probe-set selection, and
:meth:`DirectorySystem._extra_cycles` its hop/lookup timing, message
tallies and membership refresh.

**Why pruning is sound.**  A cache reacts to a snoop only when
:meth:`~repro.cache.cache.Cache.cares_about` holds -- the block is
tagged in a frame, or the busy-wait register is armed on the block.
Both conditions are created exclusively by that cache's *own* bus
transaction on the same block, so a cache outside the sharer set would
have answered miss; pruning it changes no replies, only traffic.  The
obligations that keep the sharer set honest are lint rules over the
table rather than prose: every delivery row must ``enroll`` the
requester, probe, and ``refresh`` the caches the transaction could have
changed (``directory-sharer-drop``), and rows meeting an overflowed --
imprecise -- representation must broadcast
(``directory-overflow-policy``).  See
:mod:`repro.directory_backend.table`.

Timing: on top of the bus occupancy model, the matched row's ``pay-*``
atoms charge the home-bank ``directory_lookup_cycles``, a
request/response round trip (``2 * inter_cluster_hop_cycles``), the
third hop of a cache-to-cache forwarded supply, and an invalidate/ack
round trip when the probe fanout is nonzero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import Fabric
from repro.bus.signals import BusResponse, SnoopReply
from repro.bus.transaction import BusTransaction
from repro.common.config import TimingConfig, TopologyConfig
from repro.common.types import CacheId
from repro.directory_backend.representations import representation_factory
from repro.directory_backend.state import DirectoryEntry, DirectoryState
from repro.directory_backend.table import (
    DIR_EVENT_OF,
    HOME_BANK_TABLE,
    DirectoryTable,
    guard_context_of,
    home_state_of,
)
from repro.protocols.table import Rule

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats


class DirectorySystem(Fabric):
    """``directory_banks`` home banks over block-interleaved partitions;
    each bank executes the home-bank table's actions to deliver its
    blocks' transactions."""

    #: The home-bank policy.  A class attribute so the mc mutation
    #: harness can patch it exactly like a protocol table.
    table: DirectoryTable = HOME_BANK_TABLE

    #: Home banks deliver by sharer set, not by the interest index.
    indexed = False

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
        super().__init__(topology, memory, timing, clock, stats, trace, obs)
        #: Lane index -> its bank's directory state.
        self.banks = [DirectoryState(lane.index,
                                     representation_factory(topology))
                      for lane in self.buses]
        #: The bank executing the current transaction and the home-bank
        #: row it matched (lanes execute one at a time).
        self._bank = self.banks[0]
        self._active_row: Rule | None = None

    # -- delivery -----------------------------------------------------------

    def _entry_of(self, txn: BusTransaction) -> DirectoryEntry:
        """``txn``'s entry at the bank executing it (the block's home
        bank, except for an I/O request, which executes on lane 0)."""
        block_number = txn.block // self.memory.words_per_block
        return self._bank.entry(block_number)

    def _deliver(self, lane: Bus, requester: BusPort,
                 txn: BusTransaction) -> dict[CacheId, SnoopReply]:
        """Look the request up in the home-bank table and run the
        matched row's delivery actions: enroll the requester, count the
        request, and probe the listed sharers or every port."""
        self._bank = self.banks[lane.index]
        entry = self._entry_of(txn)
        sharers = entry.sharers
        rid = requester.id
        ports = self._ports
        position = self._position
        # ``listed`` holds exactly for the ids a sharer set iterates, so
        # the listed ports are the set's members that are attached: the
        # scans below cost the sharer count, not the machine size.
        peers = any(cid != rid and cid in position for cid in sharers)
        row = self.table.lookup(
            home_state_of(entry), DIR_EVENT_OF[txn.op],
            guard_context_of(entry, rid, peers))
        self._active_row = row
        replies: dict[CacheId, SnoopReply] = {}
        for action in row.actions:
            if action == "enroll":
                sharers.enroll(rid)
            elif action == "count-request":
                self._bank.requests += 1
            elif action == "probe-listed":
                # Port order (not sharer-set order) keeps reply
                # combination and read-source arbitration deterministic
                # and bus-identical.
                listed = sorted(
                    (cid for cid in sharers if cid != rid and cid in position),
                    key=position.__getitem__)
                for cid in listed:
                    replies[cid] = ports[cid].snoop(txn)
            elif action == "probe-all":
                for cid, port in ports.items():
                    if cid != rid:
                        replies[cid] = port.snoop(txn)
        return replies

    def _refresh(self, txn: BusTransaction, probed: set[CacheId]) -> None:
        """Re-derive directory membership for the caches this
        transaction could have changed (requester + probed set).

        A ``probe-all`` round covered every port, so the refresh is
        *complete* and a lossy representation may rebuild its tracking
        exactly (Dir-n-B collapsing out of broadcast mode)."""
        entry = self._entry_of(txn)
        keep: list[CacheId] = []
        drop: list[CacheId] = []
        for cid in probed:
            cache = self._ports.get(cid)
            if cache is None:
                continue
            if not hasattr(cache, "array"):
                # Cacheless ports (I/O) answer every snoop with a miss;
                # the directory never needs to list them.
                drop.append(cid)
                continue
            if cache.cares_about(txn.block):
                keep.append(cid)
                line = cache.line_for(txn.block)
                if line is not None and line.state.dirty:
                    entry.owner = cid
                elif entry.owner == cid:
                    entry.owner = None
            else:
                drop.append(cid)
                if entry.owner == cid:
                    entry.owner = None
        row = self._active_row
        complete = row is not None and "probe-all" in row.actions
        entry.sharers.refresh(keep, drop, complete=complete)

    # -- timing and traffic --------------------------------------------------

    def _extra_cycles(self, lane: Bus, txn: BusTransaction,
                      response: BusResponse,
                      replies: dict[CacheId, SnoopReply]) -> int:
        """Run the matched row's post-grant actions: charge its ``pay-*``
        timing, tally its messages, and ``refresh`` membership for the
        requester and the probed caches."""
        row = self._active_row
        topo = self.topology
        hop = topo.inter_cluster_hop_cycles
        directory = self._bank
        probes = len(replies)
        supplied = response.supplier is not None
        actions = row.actions
        cycles = 0
        if "pay-lookup" in actions:
            cycles += topo.directory_lookup_cycles
        if "pay-round-trip" in actions:
            cycles += 2 * hop
        if supplied and "pay-forward-hop" in actions:
            # Three-hop forwarded supply: home -> owner -> requester.
            cycles += hop
        if probes and "pay-inval-round-trip" in actions:
            # The slowest probe's invalidate/ack round trip.
            cycles += 2 * hop
        obs_active = self.obs.active
        if obs_active and "count-request" in actions:
            self.obs.record_directory_msgs(
                self.clock.cycle, "request", txn.block, lane.index)
        if "count-response" in actions:
            directory.responses += 1
            if obs_active:
                self.obs.record_directory_msgs(
                    self.clock.cycle, "response", txn.block, lane.index)
        if "tally-traffic" in actions:
            # Single source for the network message counts: the same
            # forward/invalidation/ack arithmetic feeds the bank's
            # tallies and the observability counters.
            forwards = 1 if supplied else 0
            invalidations = probes - forwards
            directory.forwards += forwards
            directory.invalidations += invalidations
            directory.acks += probes
            if obs_active:
                if supplied:
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "forward", txn.block, lane.index)
                if probes:
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "invalidation", txn.block,
                        lane.index, invalidations)
                    self.obs.record_directory_msgs(
                        self.clock.cycle, "ack", txn.block, lane.index,
                        probes)
        if "refresh" in actions:
            self._refresh(txn, {txn.requester} | set(replies))
        return cycles

    def message_tallies(self) -> dict[str, int]:
        """Point-to-point message counts summed over all home banks.

        Keys come from the banks themselves, so a bank growing a new
        tally kind shows up here instead of raising."""
        total: dict[str, int] = {}
        for bank in self.banks:
            for key, value in bank.tallies().items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def messages(self) -> int:
        return sum(bank.messages for bank in self.banks)
