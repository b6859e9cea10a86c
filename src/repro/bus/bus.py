"""The broadcast bus (Section A.2), as one serialization lane.

At most one transaction occupies a lane at a time.  A grant is atomic:
the winning requester's transaction is delivered, every port it reaches
snoops and changes state immediately, memory is consulted, and the
requester completes -- all at the grant cycle.  The transaction then
*occupies* the lane for a duration derived from
:class:`~repro.common.config.TimingConfig`, and the requesting processor
resumes when the lane frees.  A fabric (:mod:`repro.bus.multibus`) owns
one or more lanes over block-interleaved partitions and decides what a
transaction reaches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Protocol

from repro.bus.arbiter import round_robin
from repro.bus.signals import BusResponse, SnoopReply
from repro.bus.transaction import BusOp, BusTransaction
from repro.common.config import TimingConfig
from repro.common.types import NEVER, BlockAddr, CacheId, Stamp
from repro.protocols.features import ReadSourcePolicy
from repro.sim.events import EventKind

if TYPE_CHECKING:
    from repro.bus.multibus import Fabric
    from repro.cache.cache import SnoopingCache


class BusPort(Protocol):
    """What the bus requires of anything attached to it (caches, I/O).

    A port may also offer ``connect_ready(post)`` (see
    :meth:`repro.cache.cache.SnoopingCache.connect_ready`): it then posts
    itself when its request head becomes live or moves, or when the
    head's block is touched, and the bus revalidates only posted ports.
    A port without it is polled on every arbitration.

    Likewise ``connect_interest(push, ledger, domain)`` (see
    :meth:`repro.cache.cache.SnoopingCache.connect_interest`): the port
    then pushes every change of the blocks it ``cares_about``, and a
    broadcast is delivered only to the ports indexed under its block,
    with the ``ledger`` accounting for the snoops the others skip.  A
    port without it snoops every broadcast."""

    id: CacheId
    #: The lane the port's request head was routed to when it last
    #: posted; a port that cannot post requests on lane 0.
    request_bus: int

    def has_bus_request(self) -> bool: ...

    def has_request_hint(self) -> bool: ...

    def bus_request_priority(self) -> bool: ...

    def take_bus_transaction(self) -> BusTransaction: ...

    def on_txn_granted(self, txn: BusTransaction, response: BusResponse,
                       data: list[Stamp] | None): ...

    def snoop(self, txn: BusTransaction) -> SnoopReply: ...

    def finish_bus_release(self) -> None: ...


class SnoopLedger:
    """The snoops a fabric's indexed delivery skips, accounted in bulk.

    A broadcast reaches only the caches indexed under its block; every
    other cache would have answered a fast miss whose one side effect
    is :meth:`~repro.cache.directory.DirectoryModel.record_snoop`.  The
    ledger rebuilds that effect exactly without visiting them:

    * ``seen[d]`` counts the transactions broadcast into delivery domain
      ``d`` (a cluster; the whole fabric otherwise), so a directory
      model's snoop count is ``seen`` minus its cache's own grants;
    * it keeps this cycle's grants and the caches that wrote status
      this cycle, so a status write and a snoop on the same cycle charge
      an interference cycle in either order: a writer learns at its
      write that another cache's grant already reached its domain, and
      each later grant gives every enrolled writer it skipped one
      eager ``record_snoop``.

    One ledger serves every bus of a fabric: a grant on any bus is a
    snoop for every cache in its domains."""

    def __init__(self, domains: int = 1) -> None:
        self.seen = [0] * domains
        self._cycle = -1
        #: (requester id, domains reached) of this cycle's grants.
        self._grants: list[tuple[CacheId, Collection[int]]] = []
        #: Caches that wrote status this cycle (interfering kinds only).
        self._writers: list["SnoopingCache"] = []

    def _roll(self, now: int) -> None:
        """Start cycle ``now``: forget the previous cycle's grants and
        writers."""
        self._cycle = now
        self._grants.clear()
        self._writers.clear()

    def grant(self, now: int, requester: CacheId, domains: Collection[int],
              replies: dict[CacheId, SnoopReply]) -> None:
        """A transaction by ``requester`` was broadcast into ``domains``
        and delivered to the ports in ``replies``."""
        if now != self._cycle:
            self._roll(now)
        seen = self.seen
        for domain in domains:
            seen[domain] += 1
        self._grants.append((requester, domains))
        for cache in self._writers:
            if (cache.id != requester and cache.id not in replies
                    and cache.snoop_domain in domains):
                cache.directory.record_snoop(now)

    def status_write(self, cache: "SnoopingCache", now: int) -> None:
        """``cache`` is about to record a status write at ``now``."""
        if now != self._cycle:
            self._roll(now)
        me = cache.id
        domain = cache.snoop_domain
        for requester, domains in self._grants:
            if requester != me and domain in domains:
                cache.directory.note_snoop(now)
                break
        if cache not in self._writers:
            self._writers.append(cache)


class Bus:
    """One serialization lane of a fabric: a bus with snoop broadcast
    and a busy-cycle occupancy model.

    A lane owns what serializes its blocks -- its ready, dirty and
    high-priority sets, its interest index, its occupancy and its
    round-robin position -- and reads the ports themselves from its
    fabric's one port table.  What a granted transaction reaches, and
    what the reaching costs beyond the bus occupancy, is the fabric's
    delivery rule (:meth:`Fabric._deliver
    <repro.bus.multibus.Fabric._deliver>` and ``_extra_cycles``)."""

    def __init__(self, fabric: "Fabric", index: int) -> None:
        self.fabric = fabric
        self.memory = fabric.memory
        self.timing = fabric.timing
        self.clock = fabric.clock
        self.stats = fabric.stats
        self.trace = fabric.trace
        self.obs = fabric.obs
        #: Position in the fabric (labels this lane's metrics); a port
        #: whose ``request_bus`` is this index requests here.
        self.index = index
        #: Positions of ports that posted a request here.  May hold stale
        #: entries (dropped when a walk meets them), never misses a port
        #: whose request hint routes to this lane.
        self._ready: set[int] = set()
        #: Positions whose request must be revalidated at the next
        #: arbitration: every post lands here too, and a port re-posts
        #: when a snoop or its own grant touches its head's block.  Any
        #: other ready port would revalidate to its current request.
        self._dirty: set[int] = set()
        #: Positions last seen with a live high-priority request; a
        #: superset of the live ones (stale entries dropped when met).
        self._high: set[int] = set()
        #: Positions of ports that cannot post (the I/O processor),
        #: revalidated at every arbitration.  They request only on lane
        #: 0, so the other lanes never poll them.
        self._polled: list[int] = fabric._polled if index == 0 else []
        #: Interest index: block -> positions of the ports that care
        #: about it (pushed by the ports, see ``connect_interest``).
        #: Holds only the blocks this lane owns.
        self._interest: dict[BlockAddr, set[int]] = {}
        #: Position of the previous grant; the round-robin walk starts
        #: after it.
        self._last_winner = -1
        self._busy_until = 0
        self._active_port: BusPort | None = None

    @property
    def busy(self) -> bool:
        return self.clock.cycle < self._busy_until

    @property
    def pending_release(self) -> bool:
        """An expired occupancy whose requester has not been released yet."""
        return not self.busy and self._active_port is not None

    def next_event_cycle(self) -> int:
        """Earliest cycle at which :meth:`step` does anything.

        While occupied the lane is inert until ``_busy_until`` (the
        release and the following arbitration happen on that cycle).
        When free it acts immediately if a release is owed or any posted
        port has a grantable request routed here; otherwise it stays
        idle until a processor posts one -- which requires a processor
        event, so the caller takes the minimum with the processors' own
        next events.
        """
        now = self.clock.cycle
        if now < self._busy_until:
            return self._busy_until
        if self._active_port is not None:
            return now
        # The hint may be optimistic (a request revalidation would
        # clear), which only costs a stepped cycle in which arbitration
        # finds nothing -- exactly what the stepped engine would do.
        ports = self.fabric._port_list
        me = self.index
        ready = self._ready
        for index in ready:
            port = ports[index]
            if port.request_bus == me and port.has_request_hint():
                return now
        ready.clear()  # every post was stale
        for index in self._polled:
            if ports[index].has_request_hint():
                return now
        return NEVER

    # -- per-cycle driver ------------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; returns True if the lane did anything."""
        if self.busy:
            return True
        if self._active_port is not None:
            # The occupancy just expired: release the requester.
            self._active_port.finish_bus_release()
            self._active_port = None
        winner = self._arbitrate()
        if winner is None:
            return False
        port = self.fabric._port_list[winner]
        txn = port.take_bus_transaction()
        self._execute(port, txn)
        return True

    def _arbitrate(self) -> int | None:
        """The winning port's position, or ``None`` if nobody requests.

        Work tracks changes, not the waiting queue.  First the dirty
        pass revalidates the ports whose request may have changed, in
        attachment order: a port outside the dirty set would revalidate
        to the same request with no side effect, so the optimistic-RMW
        aborts happen on the same cycle and in the same order as a
        revalidation of every port.  Then the walk visits the high
        priority set, or failing that the ready set, in round-robin
        order and stops at the first live request -- or, with a
        scheduler, collects every live one as its choice.  Only a
        request routed to this lane is live here: routing is checked
        before the port revalidates, so no other lane revalidates it."""
        ports = self.fabric._port_list
        me = self.index
        ready = self._ready
        high = self._high
        dirty = self._dirty
        if self._polled:
            ready.update(self._polled)
            dirty.update(self._polled)
        if dirty:
            for index in sorted(dirty):
                port = ports[index]
                if port.request_bus != me or not port.has_bus_request():
                    ready.discard(index)
                    high.discard(index)
                elif port.bus_request_priority():
                    high.add(index)
            dirty.clear()
        candidates = self._walk(high, high_only=True) if high else None
        waiter_wake = bool(candidates)
        if not waiter_wake:
            candidates = self._walk(ready, high_only=False) if ready else None
            if not candidates:
                return None
        winner = candidates[0]
        if len(candidates) > 1:
            from repro.sim.schedule import ChoiceKind

            # A multi-way arbitration among high-priority requests is the
            # post-unlock waiter wakeup of Section E.4 -- its own named
            # choice point, since lock fairness lives there.
            kind = (ChoiceKind.WAITER_WAKE if waiter_wake
                    else ChoiceKind.BUS_ARB)
            ids = [ports[index].id for index in candidates]
            winner = candidates[self.fabric.scheduler.choose(
                kind, ids, cycle=self.clock.cycle)]
        self._last_winner = winner
        return winner

    def _walk(self, pool: set[int], *, high_only: bool) -> list[int]:
        """The live requests in ``pool`` (high-priority ones only, if
        ``high_only``) in round-robin order: just the first, unless a
        scheduler chooses among them all.  Stale entries met are dropped
        from the ready and high sets, live normal-priority ones from the
        high set."""
        ports = self.fabric._port_list
        me = self.index
        ready = self._ready
        high = self._high
        collect = self.fabric.scheduler is not None
        found: list[int] = []
        for index in round_robin(pool, self._last_winner):
            port = ports[index]
            if port.request_bus != me or not port.has_bus_request():
                ready.discard(index)
                high.discard(index)
            elif high_only and not port.bus_request_priority():
                high.discard(index)
            else:
                found.append(index)
                if not collect:
                    break
        return found

    # -- transaction execution --------------------------------------------------

    def _execute(self, port: BusPort, txn: BusTransaction) -> None:
        now = self.clock.cycle
        if self.trace.active:
            self.trace.emit(now, EventKind.BUS_TXN, txn=str(txn))
        if self.obs.active:
            # Open the transaction span before snooping so the snoop-time
            # hooks (invalidations, wakeups, aborts) attach to it as the
            # cause of whatever they force elsewhere.
            self.obs.record_txn_begin(now, txn.op.name, txn.block,
                                      txn.requester, bus=self.index)

        replies = self.fabric._deliver(self, port, txn)
        response = BusResponse.combine(replies, choose=self._choose_source)

        self._absorb_flushes(txn, replies)
        data = self._resolve_data(port, txn, response, replies)
        self._memory_side_effects(txn, response)

        info = port.on_txn_granted(txn, response, data)

        duration = self._duration(txn, response, replies, info)
        self.stats.record_txn(txn.op.name, duration)
        self._count_events(txn, response)
        if self.obs.active:
            self.obs.record_bus_txn(now, duration, txn.op.name, txn.block,
                                    txn.requester, bus=self.index,
                                    outcome=info.outcome.name)
        self._busy_until = now + duration
        self._active_port = port

    def _choose_source(self, candidates: list[CacheId]) -> CacheId:
        """Resolve a multi-candidate read-source arbitration (Illinois,
        Feature 8 ``ARB``); the default tie-break is the lowest id."""
        scheduler = self.fabric.scheduler
        if scheduler is None or len(candidates) < 2:
            return candidates[0]
        from repro.sim.schedule import ChoiceKind

        index = scheduler.choose(ChoiceKind.READ_SOURCE, candidates,
                                 cycle=self.clock.cycle)
        return candidates[index]

    def _absorb_flushes(
        self, txn: BusTransaction, replies: dict[CacheId, SnoopReply]
    ) -> None:
        for reply in replies.values():
            if reply.flush_words is not None:
                self.memory.write_block(txn.block, reply.flush_words)
                self.stats.flushes += 1

    def _resolve_data(
        self,
        port: BusPort,
        txn: BusTransaction,
        response: BusResponse,
        replies: dict[CacheId, SnoopReply],
    ) -> list[Stamp] | None:
        if not (txn.op.fetches_block or txn.op is BusOp.IO_OUTPUT_READ):
            return None
        if response.locked:
            return None

        # Purged-lock tags in memory (Section E.3 minor modification).
        tag = self.memory.lock_tag(txn.block)
        if tag is not None:
            if tag.owner == txn.requester:
                cleared = self.memory.clear_lock_tag(txn.block)
                assert cleared is not None
                response.memory_lock_owner = True
                response.memory_lock_waiter = cleared.waiter
            else:
                response.memory_locked = True
                self.memory.mark_lock_waiter(txn.block)
                return None

        if response.supplier is not None:
            reply = replies[response.supplier]
            assert reply.data is not None
            self.stats.cache_to_cache_transfers += 1
            if self.obs.active:
                self.obs.record_c2c(txn.block, response.supplier)
            if response.arbitration_candidates:
                self.stats.source_arbitrations += 1
            if self.trace.active:
                self.trace.emit(self.clock.cycle, EventKind.SUPPLY,
                                block=txn.block, by=f"cache{response.supplier}",
                                dirty=response.supplier_dirty)
            return list(reply.data)

        data = self.memory.read_block(txn.block)
        self.stats.memory_fetches += 1
        if response.shared_hit and self._tracks_source_loss(port):
            self.stats.source_losses += 1
            if self.obs.active:
                self.obs.record_source_loss(txn.block)
        if self.trace.active:
            self.trace.emit(self.clock.cycle, EventKind.SUPPLY,
                            block=txn.block, by="memory", dirty=False)
        return data

    def _tracks_source_loss(self, port: BusPort) -> bool:
        protocol = getattr(port, "protocol", None)
        if protocol is None:
            return False
        policy = protocol.features().read_source_policy
        return policy in (ReadSourcePolicy.MEMORY, ReadSourcePolicy.LRU)

    def _memory_side_effects(self, txn: BusTransaction, response: BusResponse) -> None:
        # Word writes to memory are applied by the requesting protocol in
        # after_txn (a write whose copy was invalidated while queued must
        # not blindly reach memory -- it retries as a miss instead).
        return None

    # -- timing -----------------------------------------------------------------

    def _duration(
        self,
        txn: BusTransaction,
        response: BusResponse,
        replies: dict[CacheId, SnoopReply],
        info,
    ) -> int:
        t = self.timing
        wpb = self.memory.words_per_block
        base = self._base_duration(txn, response, replies, t, wpb)
        if info.victim_flush_words:
            base += (
                t.bus_address_cycles
                + t.memory_latency
                + info.victim_flush_words * t.word_transfer_cycles
            )
        if info.lock_spilled:
            base += t.invalidate_cycles
        base += txn.extra_hold_cycles
        return max(1, base) + self.fabric._extra_cycles(self, txn, response,
                                                        replies)

    def _base_duration(self, txn, response, replies, t: TimingConfig, wpb: int) -> int:
        op = txn.op
        if op in (
            BusOp.UPGRADE,
            BusOp.WRITE_NO_FETCH,
            BusOp.MEMORY_LOCK_WRITE,
            BusOp.UNLOCK_BROADCAST,
            BusOp.IO_INPUT,
        ):
            return t.invalidate_cycles
        if op in (BusOp.WRITE_WORD, BusOp.UPDATE_WORD):
            cycles = t.word_write_cycles()
            if any(r.flush_words is not None for r in replies.values()):
                cycles += t.flush_cycles(wpb)
            return cycles
        if op is BusOp.MEMORY_RMW:
            return (
                t.bus_address_cycles
                + t.memory_latency
                + 2 * t.word_transfer_cycles
            )
        if op is BusOp.FLUSH_BLOCK:
            return t.flush_cycles(wpb)
        if op.fetches_block or op is BusOp.IO_OUTPUT_READ:
            if response.locked or response.memory_locked:
                # The refused request consumed only its address cycle.
                return t.invalidate_cycles
            if response.supplier is not None:
                reply = replies[response.supplier]
                words = reply.supply_words_moved or wpb
                cycles = (
                    t.bus_address_cycles
                    + t.cache_supply_latency
                    + words * t.word_transfer_cycles
                    + t.status_transfer_cycles
                )
                if response.arbitration_candidates:
                    cycles += t.source_arbitration_cycles
                if reply.flush_words is not None and not t.flush_concurrent:
                    cycles += t.flush_cycles(wpb)
                return cycles
            words = txn.words_moved or wpb
            cycles = t.bus_address_cycles + t.memory_latency
            cycles += words * t.word_transfer_cycles
            # A snooper that had to flush before memory could serve the
            # request (Synapse's read of a dirty-elsewhere block) costs a
            # full memory write first.
            if any(r.flush_words is not None for r in replies.values()):
                cycles += t.flush_cycles(wpb)
            return cycles
        raise ValueError(f"no duration rule for {op}")

    def _count_events(self, txn: BusTransaction, response: BusResponse) -> None:
        if txn.op is BusOp.UNLOCK_BROADCAST:
            self.stats.unlock_broadcasts += 1
            if not response.shared_hit:
                self.stats.spurious_unlock_broadcasts += 1
            if self.obs.active:
                self.obs.record_unlock_broadcast(
                    txn.block, spurious=not response.shared_hit)

