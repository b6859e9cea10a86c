"""The snooping cache.

One :class:`SnoopingCache` sits between each processor and the bus.  It
owns the tag/state array, the busy-wait register (Section E.4), and the
directory-interference model (Feature 3); the attached
:class:`~repro.protocols.base.CoherenceProtocol` makes every policy
decision.  The cache is *blocking*: it services one processor operation at
a time (the realistic choice for the mid-1980s designs reproduced here).
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.bus.signals import SnoopReply
from repro.bus.transaction import BusOp, BusTransaction
from repro.cache.busy_wait import BusyWaitRegister, WaitPhase
from repro.cache.directory import DirectoryModel
from repro.cache.line import CacheLine
from repro.cache.organization import CacheArray
from repro.cache.state import CacheState
from repro.common.config import CacheConfig, RmwMethod
from repro.common.errors import ProgramError, ProtocolError
from repro.common.types import BlockAddr, CacheId, Stamp, WordAddr, block_of
from repro.obs.core import NULL_OBS
from repro.processor.isa import Op, OpKind
from repro.protocols.base import Done, NeedBus, Outcome, TxnResult
from repro.sim.events import EventKind

if TYPE_CHECKING:
    from repro.bus.bus import SnoopLedger
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.processor.processor import Processor
    from repro.protocols.base import CoherenceProtocol
    from repro.sim.clock import Clock, StampClock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats
    from repro.verify.oracle import WriteOracle


#: Shared miss reply for the snoop fast path.  The bus treats replies as
#: read-only once returned, so one instance can serve every fast miss.
_SNOOP_MISS = SnoopReply()


def _no_post(block: BlockAddr) -> int:
    return 0


def _no_interest(block: BlockAddr, cares: bool) -> None:
    return None


def _nobody() -> None:
    return None


class AccessStatus(enum.Enum):
    DONE = "done"  # completed this cycle (hit); result in op.result
    PENDING = "pending"  # bus transaction(s) required; processor stalls
    WAIT_LOCK = "wait-lock"  # block locked elsewhere; busy-waiting
    ABORT = "abort"  # optimistic RMW lost the block (Feature 6, method 3)


@dataclass
class PendingAccess:
    """The in-flight processor operation and its current bus phase."""

    op: Op
    request: NeedBus | None
    posted_at: int
    phase: int = 0
    lock_wait: bool = False
    write_applied: bool = False
    #: The request that was refused because the block was locked; re-posted
    #: at high priority when the unlock broadcast arrives (Figure 9).
    retry_request: NeedBus | None = None
    #: The high-priority copy of ``retry_request`` that each wakeup of
    #: this wait re-posts (built at the first one).
    wake_request: NeedBus | None = None
    #: Logical effects applied at grant; the processor may collect the
    #: result once the bus occupancy expires (``completed``).
    ready: bool = False
    completed: bool = False


@dataclass
class CompletionInfo:
    """What completing a transaction implied, for bus timing/stats."""

    outcome: Outcome
    victim_flush_words: int = 0
    lock_spilled: bool = False
    installed: bool = False


@dataclass
class _InstallEffects:
    flush_words: int = 0
    lock_spilled: bool = False


class SnoopingCache:
    """A processor cache on the broadcast bus."""

    def __init__(
        self,
        cache_id: CacheId,
        config: CacheConfig,
        clock: "Clock",
        stamp_clock: "StampClock",
        stats: "SimStats",
        trace: "TraceLog",
        obs: "Observability" = NULL_OBS,
    ) -> None:
        self.id = cache_id
        self.config = config
        self.clock = clock
        self.stamp_clock = stamp_clock
        self.stats = stats
        self.trace = trace
        self.obs = obs
        self.array = CacheArray(config)
        self.busy_wait = BusyWaitRegister()
        self.directory = DirectoryModel(kind=config.directory)
        self.protocol: "CoherenceProtocol | None" = None  # set by the engine
        self.memory: "MainMemory | None" = None  # set by the engine
        self.oracle: "WriteOracle | None" = None  # set by the engine
        self._pending: PendingAccess | None = None
        self._detached: deque[tuple[NeedBus, BlockAddr]] = deque()
        self._install_effects = _InstallEffects()
        #: How atomic read-modify-writes are serialized (Feature 6).
        self.rmw_method = RmwMethod.CACHE_HOLD
        #: Modify-phase cycles for the bus-hold method.
        self.rmw_modify_cycles = 2
        #: Protocol scratch space (e.g. Rudolph-Segall write counters).
        self.scratch: dict = {}
        #: ``post(block)`` enters this cache into the ready set of the bus
        #: owning ``block`` and returns that bus's index (wired by the
        #: fabric, see :meth:`connect_ready`).
        self._post: Callable[[BlockAddr], int] = _no_post
        #: The bus the request head was routed to when last posted, and
        #: the head's block then (``None`` if there was no head): a snoop
        #: or grant on that block re-posts.
        self.request_bus = 0
        self.request_block: BlockAddr | None = None
        #: The request the last revalidation returned: while it is still
        #: the pending request, revalidating again would return it
        #: unchanged, so :meth:`has_bus_request` skips that.  Cleared on
        #: every post, which a snoop or grant touching the head's block
        #: also makes (the tags revalidation reads may have moved).
        self._revalidated: NeedBus | None = None
        #: The attached processor, held weakly, and its wake callback
        #: (wired by the engine, see :meth:`connect_processor`).
        self._processor: Callable[[], "Processor | None"] = _nobody
        self._wake: Callable[[], None] = _nobody
        #: ``interest(block, cares)`` enters this cache into, or removes
        #: it from, the interest index of the bus owning ``block``; the
        #: ledger accounts for the snoops it is then spared, and
        #: ``snoop_domain`` is its delivery domain there (wired by the
        #: fabric, see :meth:`connect_interest`).
        self._interest: Callable[[BlockAddr, bool], None] = _no_interest
        self._ledger: "SnoopLedger | None" = None
        self.snoop_domain = 0
        self.array.on_tags = self._tags_changed

    # -- small helpers -----------------------------------------------------

    def block_of(self, addr: WordAddr) -> BlockAddr:
        return block_of(addr, self.config.words_per_block)

    def offset(self, addr: WordAddr) -> int:
        return addr - self.block_of(addr)

    def line_for(self, block: BlockAddr) -> CacheLine | None:
        return self.array.lookup(block)

    def line_for_addr(self, addr: WordAddr) -> CacheLine | None:
        return self.array.lookup(self.block_of(addr))

    def now(self) -> int:
        return self.clock.cycle

    @property
    def pending(self) -> PendingAccess | None:
        return self._pending

    # -- push wiring -----------------------------------------------------------

    def connect_ready(self, post: Callable[[BlockAddr], int]) -> None:
        """Fabric wiring.  The cache calls ``post(block)`` whenever its
        request head becomes live or moves to another block -- from
        :meth:`access`, :meth:`queue_detached`, the unlock wake, and
        :meth:`take_bus_transaction` popping a detached entry -- and
        whenever a full-path snoop or its own grant touches the head's
        block, so a bus arbitrates only among the caches posted to it
        and revalidates only those posted since its last arbitration.
        The cache keeps the returned bus index as :attr:`request_bus`.
        A post may be stale by the time the bus looks (the bus drops
        it); a live head is never unposted."""
        self._post = post

    def connect_interest(self, interest: Callable[[BlockAddr, bool], None],
                         ledger: "SnoopLedger", domain: int) -> None:
        """Fabric wiring for interest-indexed snoop delivery.  The cache
        calls ``interest(block, True)`` whenever it may start to care
        about ``block`` (:meth:`cares_about`) -- a frame tagged with it
        in :meth:`CacheArray.install
        <repro.cache.organization.CacheArray.install>`, the busy-wait
        register armed -- and ``interest(block, False)`` once it has
        stopped: after the last frame is retagged or the register
        cleared, and :meth:`cares_about` is rechecked false.  The fabric
        then delivers a broadcast only to the caches indexed under its
        block, which are exactly those that could react; ``ledger``
        (delivery domain ``domain``) stands in for the directory snoops
        of the others."""
        self._interest = interest
        self._ledger = ledger
        self.snoop_domain = domain
        self.directory.count_from(ledger.seen, domain)

    def _tags_changed(self, block: BlockAddr, tagged: bool) -> None:
        if tagged:
            self._interest(block, True)
        else:
            self._uncare(block)

    def _uncare(self, block: BlockAddr) -> None:
        """Leave ``block``'s interest index unless still caring."""
        if not self.cares_about(block):
            self._interest(block, False)

    def connect_processor(self, processor: "Processor",
                          wake: Callable[[], None]) -> None:
        """Engine wiring.  ``wake()`` tells the event loop the processor
        can collect a completion this cycle.  The processor is held
        weakly: caches sit in a reference cycle with their protocol, and
        a strong edge would keep every finished processor (and its
        program) alive until the cyclic collector runs."""
        self._processor = weakref.ref(processor)
        self._wake = wake

    def _settle_processor(self) -> None:
        """Settle the processor's owed cycles before the wait category
        they are charged to (stall vs. lock wait) flips under it."""
        processor = self._processor()
        if processor is not None:
            processor.settle(self.clock.cycle)

    def _post_request(self) -> None:
        self._revalidated = None
        block = self.request_block = self.current_request_block()
        if block is not None:
            self.request_bus = self._post(block)

    # -- processor interface -------------------------------------------------

    def access(self, op: Op) -> AccessStatus:
        """Begin a processor operation.  Returns DONE for a hit (result in
        ``op.result``), PENDING when a bus transaction was posted, or
        WAIT_LOCK when the target is locked elsewhere."""
        if self._pending is not None:
            raise ProgramError(
                f"cache {self.id} is blocking: operation already in flight"
            )
        assert self.protocol is not None
        if op.kind is not OpKind.COMPUTE and op.addr is None:
            raise ProgramError(f"{op.kind} without address")
        block = self.block_of(op.addr)  # type: ignore[arg-type]
        line = self.array.lookup(block)
        if line is not None:
            line.last_used = self.clock.cycle

        action = self._dispatch(op, line)

        if isinstance(action, Done):
            self._count_hit(op, line)
            self._finish_local(op, line, action)
            return AccessStatus.DONE
        self._count_miss(op, line)
        self._pending = PendingAccess(op=op, request=action,
                                      posted_at=self.clock.cycle)
        self._post_request()
        if self.obs.active:
            self.obs.record_request_posted(self.id, op.kind.name, block,
                                           self.clock.cycle)
        return AccessStatus.PENDING

    def _dispatch(self, op: Op, line: CacheLine | None) -> Done | NeedBus:
        assert self.protocol is not None
        if op.kind is OpKind.READ:
            return self.protocol.processor_read(line, op.addr, op.private_hint)
        if op.kind in (OpKind.WRITE, OpKind.RELEASE):
            assert op.stamp is not None
            return self.protocol.processor_write(line, op.addr, op.stamp)
        if op.kind is OpKind.LOCK:
            return self.protocol.processor_lock(line, op.addr)
        if op.kind is OpKind.UNLOCK:
            assert op.stamp is not None
            return self.protocol.processor_unlock(line, op.addr, op.stamp)
        if op.kind is OpKind.SAVE_BLOCK:
            return self.protocol.processor_write_block(line, op.addr)
        if op.kind is OpKind.RMW:
            return self._dispatch_rmw(op, line)
        raise ProgramError(f"cache cannot execute {op.kind}")

    def _dispatch_rmw(self, op: Op, line: CacheLine | None) -> Done | NeedBus:
        """Route an atomic RMW per the configured Feature-6 method.  An RMW
        is atomic whenever it reads and writes with sole access in a single
        completion; with write privilege in hand that is a hit."""
        assert self.protocol is not None
        if self.rmw_method is RmwMethod.MEMORY_HOLD:
            return NeedBus(op=BusOp.MEMORY_RMW, word=op.addr)
        if self.rmw_method is RmwMethod.LOCK_STATE and self.protocol.supports_lock_state():
            if line is not None and line.state.writable:
                return Done()
            if line is not None and line.state.readable:
                # Figure 5: with a valid copy in hand, request lock
                # privilege only -- never refetch over one's own (possibly
                # dirty-source) data.
                return NeedBus(op=BusOp.UPGRADE, lock_intent=True)
            return NeedBus(op=BusOp.READ_LOCK, lock_intent=True)
        if line is not None and line.state.writable:
            return Done()
        if line is not None and line.state.readable:
            need = self.protocol.write_upgrade_request(op.addr)
        else:
            need = self.protocol.write_miss_request(op.addr)
        if self.rmw_method is RmwMethod.BUS_HOLD:
            need.extra_hold = self.rmw_modify_cycles
        return need

    def _count_hit(self, op: Op, line: CacheLine | None) -> None:
        if op.kind is OpKind.READ or op.kind is OpKind.LOCK:
            self.stats.read_hits += 1
        elif op.kind in (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE, OpKind.RMW):
            self.stats.write_hits += 1

    def _count_miss(self, op: Op, line: CacheLine | None) -> None:
        valid = line is not None and line.valid
        if op.kind is OpKind.READ or op.kind is OpKind.LOCK:
            if valid:
                self.stats.read_hits += 1  # e.g. upgrade path still had data
            else:
                self.stats.read_misses += 1
        elif op.kind in (
            OpKind.WRITE,
            OpKind.UNLOCK,
            OpKind.RELEASE,
            OpKind.RMW,
            OpKind.SAVE_BLOCK,
        ):
            if valid:
                self.stats.write_hits += 1  # write hit needing an upgrade
            else:
                self.stats.write_misses += 1

    def _finish_local(self, op: Op, line: CacheLine | None, action: Done) -> None:
        """Apply a locally-completed (hit) operation's effects."""
        if op.kind in (OpKind.READ, OpKind.LOCK):
            assert line is not None
            stamp = line.read_word(self.offset(op.addr))
            op.result = stamp
            self._check_read(op.addr, stamp)
            if op.kind is OpKind.LOCK:
                self.stats.lock_acquisitions += 1
        elif op.kind in (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE):
            if not action.write_applied:
                assert line is not None and op.stamp is not None
                self.apply_write(line, op.addr, op.stamp)
        elif op.kind is OpKind.RMW:
            assert line is not None
            self._apply_rmw(op, line)
        elif op.kind is OpKind.SAVE_BLOCK:
            assert line is not None
            self._apply_save_block(op, line)

    def _apply_rmw(self, op: Op, line: CacheLine) -> None:
        """Evaluate an atomic read-modify-write at its serialization point."""
        assert op.rmw is not None
        old_stamp = line.read_word(self.offset(op.addr))
        old_value = self.stamp_clock.value_of(old_stamp)
        new_value = op.rmw(old_value)
        if new_value is None:
            op.result = 0
            self.stats.failed_lock_attempts += 1
        else:
            stamp = self.stamp_clock.next_stamp(new_value)
            self.apply_write(line, op.addr, stamp)
            op.result = 1

    def _apply_save_block(self, op: Op, line: CacheLine) -> None:
        """Write every word of the block (Feature 9: save process state)."""
        for offset in range(self.config.words_per_block):
            stamp = self.stamp_clock.next_stamp(op.value)
            self.apply_write(line, line.block + offset, stamp)

    def take_completion(self) -> Op | None:
        """Collect the completed pending operation, if any."""
        if self._pending is not None and self._pending.completed:
            op = self._pending.op
            self._pending = None
            return op
        return None

    def cancel_wait(self) -> None:
        """Abandon a lock wait (the waiting process was switched out)."""
        if self._pending is None or not self._pending.lock_wait:
            raise ProgramError("no lock wait to cancel")
        self._settle_processor()
        block = self.busy_wait.block
        self.busy_wait.clear()
        self._pending = None
        self._uncare(block)
        if self.obs.active:
            self.obs.record_wait_cancelled(self.id, self.now())

    @property
    def waiting_for_lock(self) -> bool:
        return self._pending is not None and self._pending.lock_wait

    # -- bus interface: requesting -------------------------------------------

    def has_bus_request(self) -> bool:
        if self._detached:
            return True
        pending = self._pending
        if pending is None or pending.request is None:
            return False
        if pending.request is not self._revalidated:
            self._revalidate_pending(pending)
        return pending.request is not None

    def has_request_hint(self) -> bool:
        """Cheap over-approximation of :meth:`has_bus_request`: may say
        True for a request revalidation would clear (optimistic-RMW
        abort), never False for a grantable one.  Idle-scan paths (bus
        ``next_event_cycle``, the engine's ``done`` test) use this to
        avoid re-running revalidation; arbitration still goes through
        :meth:`has_bus_request`, which settles the truth before any
        grant.  Whenever it turns True, or the head's block changes, the
        cache posts itself to the head's bus (:meth:`connect_ready`)."""
        if self._detached:
            return True
        pending = self._pending
        return pending is not None and pending.request is not None

    def current_request_block(self) -> BlockAddr | None:
        """Block the cache's current bus request targets (the detached
        queue's head first) -- used by multi-bus systems to route the
        request to the bus owning that block."""
        if self._detached:
            return self._detached[0][1]
        pending = self._pending
        if pending is not None and pending.request is not None:
            return self.block_of(pending.op.addr)  # type: ignore[arg-type]
        return None

    def _revalidate_pending(self, pending: PendingAccess) -> None:
        """Re-check the queued request against our own tags (idempotent)."""
        assert self.protocol is not None and pending.request is not None
        need = pending.request
        if (
            need.op is BusOp.UPGRADE
            and pending.op.kind is OpKind.RMW
            and self.rmw_method is RmwMethod.OPTIMISTIC
            and self.line_for(self.block_of(pending.op.addr)) is None
        ):
            # The block was stolen between the read and the write: the
            # optimistic RMW aborts without touching the bus (Feature 6).
            self.stats.rmw_aborts += 1
            pending.op.aborted = True
            pending.request = None
            pending.ready = True
            pending.completed = True
            if self.obs.active:
                self.obs.record_request_aborted(self.id, self.now())
            self._wake()
            return
        block = self.block_of(pending.op.addr)  # type: ignore[arg-type]
        pending.request = self.protocol.revalidate_request(need, block)
        self._revalidated = pending.request

    def bus_request_priority(self) -> bool:
        if self._detached:
            return False
        assert self._pending is not None and self._pending.request is not None
        return self._pending.request.high_priority

    def take_bus_transaction(self) -> BusTransaction:
        """Convert the current request into a granted bus transaction."""
        if self._detached:
            need, block = self._detached.popleft()
            # The head moved: the next request may route to another bus.
            self._post_request()
            return self._build_txn(need, block)
        pending = self._pending
        assert pending is not None and pending.request is not None
        need = pending.request
        block = self.block_of(pending.op.addr)  # type: ignore[arg-type]
        self.stats.bus_wait_cycles += max(0, self.now() - pending.posted_at)
        self.stats.bus_waits += 1
        pending.posted_at = self.now()  # re-posted for multi-phase ops
        return self._build_txn(need, block)

    def _build_txn(self, need: NeedBus, block: BlockAddr) -> BusTransaction:
        words_moved = None
        if need.op.fetches_block and self.config.transfer_unit_words is not None:
            words_moved = self.config.transfer_unit_words
        return BusTransaction(
            op=need.op,
            block=block,
            requester=self.id,
            word=need.word,
            stamp=need.stamp,
            lock_intent=need.lock_intent,
            high_priority=need.high_priority,
            update_invalid=need.update_invalid,
            words_moved=words_moved,
            extra_hold_cycles=need.extra_hold,
        )

    def queue_detached(self, need: NeedBus, block: BlockAddr) -> None:
        """Post a bus request not tied to the pending processor op (the
        unlock broadcast of Section E.4)."""
        self._detached.append((need, block))
        self._post_request()

    # -- bus interface: completing a granted transaction ----------------------

    def on_txn_granted(
        self, txn: BusTransaction, response, data: list[Stamp] | None
    ) -> CompletionInfo:
        """Called by the bus at grant time, after snoop aggregation."""
        self.directory.own_transactions += 1
        info = self._complete_grant(txn, response, data)
        if txn.block == self.request_block:
            # The grant installed, replaced or consumed the head's
            # request: re-post it, so the bus revalidates or drops it.
            self._post_request()
        return info

    def _complete_grant(
        self, txn: BusTransaction, response, data: list[Stamp] | None
    ) -> CompletionInfo:
        assert self.protocol is not None
        self._install_effects = _InstallEffects()

        if txn.op in (BusOp.UNLOCK_BROADCAST, BusOp.FLUSH_BLOCK, BusOp.MEMORY_LOCK_WRITE):
            # Detached housekeeping transactions complete trivially.
            return CompletionInfo(outcome=Outcome.DONE)

        pending = self._pending
        if pending is None:
            raise ProtocolError(f"cache {self.id}: grant with no pending op: {txn}")

        if txn.op is BusOp.MEMORY_RMW:
            self._apply_memory_rmw(pending, txn)
            return CompletionInfo(outcome=Outcome.DONE)

        result = self.protocol.after_txn(pending, txn, response, data)

        if result.outcome is Outcome.WAIT_LOCK:
            self._enter_lock_wait(txn)
            return CompletionInfo(outcome=Outcome.WAIT_LOCK)

        if result.outcome is Outcome.REBUS:
            assert result.next_bus is not None
            if (
                pending.op.kind is OpKind.RMW
                and self.rmw_method is RmwMethod.OPTIMISTIC
                and txn.op is BusOp.UPGRADE
            ):
                # The block was stolen between the read and the write:
                # atomicity is violated, the instruction aborts (Feature 6,
                # third method).
                self.stats.rmw_aborts += 1
                pending.op.aborted = True
                pending.request = None
                pending.ready = True
                return CompletionInfo(outcome=Outcome.DONE)
            pending.request = result.next_bus
            pending.phase += 1
            return CompletionInfo(outcome=Outcome.REBUS)

        # DONE: apply the processor-visible effect of the operation.
        self._finish_pending(pending, txn, response)
        effects = self._install_effects
        return CompletionInfo(
            outcome=Outcome.DONE,
            victim_flush_words=effects.flush_words,
            lock_spilled=effects.lock_spilled,
            installed=True,
        )

    def _enter_lock_wait(self, txn: BusTransaction) -> None:
        pending = self._pending
        assert pending is not None
        self._settle_processor()
        if pending.request is not None:
            pending.retry_request = pending.request
            pending.wake_request = None
        pending.request = None
        pending.lock_wait = True
        if not self.busy_wait.active:
            self.busy_wait.arm(txn.block, self.now())
            self._interest(txn.block, True)
        else:
            # Re-arm after losing post-unlock arbitration to a new locker.
            self.busy_wait.lost_arbitration()
        self.stats.lock_waits_started += 1
        if self.obs.active:
            self.obs.record_wait_start(self.id, txn.block, self.now())
        if self.trace.active:
            self.trace.emit(self.now(), EventKind.WAIT, cache=self.id,
                            block=txn.block, action="armed")

    def _finish_pending(self, pending: PendingAccess, txn: BusTransaction,
                        response) -> None:
        pending.request = None  # consumed; do not re-arbitrate
        op = pending.op
        if self.busy_wait.active and self.busy_wait.block == txn.block:
            # Whatever op was waiting (lock, read, write, RMW) has now
            # completed: stop watching for unlock broadcasts.
            self.busy_wait.clear()
            self._uncare(txn.block)
        line = self.line_for(txn.block)
        if op.kind in (OpKind.READ, OpKind.LOCK):
            assert line is not None
            stamp = line.read_word(self.offset(op.addr))
            op.result = stamp
            self._check_read(op.addr, stamp)
            if op.kind is OpKind.LOCK:
                self.stats.lock_acquisitions += 1
        elif op.kind in (OpKind.WRITE, OpKind.UNLOCK, OpKind.RELEASE):
            if not pending.write_applied:
                assert line is not None and op.stamp is not None
                self.apply_write(line, op.addr, op.stamp)
        elif op.kind is OpKind.RMW:
            assert line is not None
            self._apply_rmw(op, line)
            if line.locked:
                # Lock-state RMW (Feature 6, fourth method): the lock taken
                # at the read is released at the write, in zero time.
                self._unlock_after_rmw(line)
        elif op.kind is OpKind.SAVE_BLOCK:
            assert line is not None
            self._apply_save_block(op, line)
            if txn.op is BusOp.WRITE_NO_FETCH:
                self.stats.fetches_avoided += 1
        pending.ready = True

    def _unlock_after_rmw(self, line: CacheLine) -> None:
        if line.state is CacheState.LOCK_WAITER:
            self.queue_detached(NeedBus(op=BusOp.UNLOCK_BROADCAST), line.block)
            if self.obs.active:
                self.obs.record_unlock_queued(self.id, line.block, self.now())
        line.state = CacheState.WRITE_DIRTY

    def _apply_memory_rmw(self, pending: PendingAccess, txn: BusTransaction) -> None:
        """Memory-hold RMW (Feature 6, first method): read-modify-write the
        word in main memory while holding bus and memory; the data is not
        cached, and any local copy is now stale."""
        assert self.memory is not None
        op = pending.op
        assert op.rmw is not None and op.addr is not None
        offset = self.offset(op.addr)
        old_stamp = self.memory.read_word(txn.block, offset)
        old_value = self.stamp_clock.value_of(old_stamp)
        new_value = op.rmw(old_value)
        if new_value is None:
            op.result = 0
            self.stats.failed_lock_attempts += 1
        else:
            stamp = self.stamp_clock.next_stamp(new_value)
            self.memory.write_word(txn.block, offset, stamp)
            if self.oracle is not None:
                self.oracle.record_write(op.addr, stamp)
            op.result = 1
        line = self.line_for(txn.block)
        if line is not None and line.valid:
            self.invalidate_line(line)
        pending.request = None
        pending.ready = True

    def finish_bus_release(self) -> None:
        """Called by the bus when this port's transaction occupancy ends."""
        pending = self._pending
        if pending is not None and pending.ready:
            pending.completed = True
            self._wake()

    # -- bus interface: snooping ----------------------------------------------

    def cares_about(self, block: int) -> bool:
        """Would this cache react to a transaction on ``block``?

        True when a frame is tagged with the block (valid or invalid,
        which also covers the update-invalid revalidation scan), or the
        busy-wait register watches the block.
        This is the fast-miss test of :meth:`snoop` (which additionally
        exempts unlock broadcasts, always taking the full path), the
        membership predicate the directory fabric uses to keep sharer
        sets honest, and what the cache pushes into its fabric's
        interest index (:meth:`connect_interest`) -- all must stay
        identical for pruning, filtering and indexed delivery to be
        sound.  Its inputs change only where the cache pushes: the tags
        in ``CacheArray.install``, and the busy-wait arm and clears.
        """
        if block in self.array._tagged:
            return True
        wait = self.busy_wait
        return wait.phase is not WaitPhase.IDLE and wait.block == block

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        """React to another cache's granted transaction."""
        assert self.protocol is not None
        self.directory.record_snoop(self.clock.cycle)

        # Fast miss: see cares_about.  Unlock broadcasts always take the
        # full path.  The shared reply is never mutated: the bus only
        # reads replies.
        if (txn.op is not BusOp.UNLOCK_BROADCAST
                and not self.cares_about(txn.block)):
            return _SNOOP_MISS

        if txn.op is BusOp.UNLOCK_BROADCAST:
            return self._snoop_unlock_broadcast(txn)

        if (
            txn.op is BusOp.READ_LOCK
            and self.busy_wait.phase is WaitPhase.FIRED
            and self.busy_wait.block == txn.block
        ):
            # Another waiter won the post-unlock arbitration (Figure 9):
            # stand down and keep waiting; no bus access.  The snoop still
            # proceeds below (a waiting cache holds no copy of the block,
            # so this is normally a miss -- but the tag array, not the
            # register, decides).
            self.busy_wait.lost_arbitration()
            if self._pending is not None and self._pending.lock_wait is False:
                self._settle_processor()
                self._pending.request = None
                self._pending.lock_wait = True
                if self.obs.active:
                    self.obs.record_wait_rearmed(self.id, self.now())

        pending = self._pending
        if (txn.block == self.request_block and pending is not None
                and pending.request is not None):
            # This snoop may take or restore the copy the queued request
            # was revalidated against.
            self._post_request()

        line = self.array.lookup(txn.block)
        if line is None:
            if txn.op is BusOp.UPDATE_WORD and txn.update_invalid:
                return self._update_invalid_copy(txn)
            return SnoopReply.miss()
        return self.protocol.snoop(line, txn)

    def _snoop_unlock_broadcast(self, txn: BusTransaction) -> SnoopReply:
        if self.busy_wait.notice_unlock(txn.block):
            pending = self._pending
            assert pending is not None and pending.retry_request is not None
            self._settle_processor()
            pending.lock_wait = False
            wake = pending.wake_request
            if wake is None:
                wake = pending.wake_request = replace(
                    pending.retry_request, high_priority=True)
            pending.request = wake
            pending.posted_at = self.now()  # bus-wait measured from the wakeup
            self._post_request()
            if self.obs.active:
                self.obs.record_wait_wakeup(self.id, txn.block, self.now())
            if self.trace.active:
                self.trace.emit(self.now(), EventKind.WAIT, cache=self.id,
                                block=txn.block, action="fired")
            return SnoopReply(hit=True)  # tells the bus the unlock was taken up
        return SnoopReply.miss()

    def _update_invalid_copy(self, txn: BusTransaction) -> SnoopReply:
        """Rudolph-Segall: a write-through updates invalid copies too,
        revalidating them (Section E.4)."""
        for line in self.array.set_of(txn.block):
            if not line.valid and line.block == txn.block and line.words:
                assert txn.word is not None and txn.stamp is not None
                line.write_word(self.offset(txn.word), txn.stamp)
                line.state = CacheState.READ
                self.stats.updates_received += 1
                return SnoopReply(hit=False)
        return SnoopReply.miss()

    # -- services used by protocols --------------------------------------------

    def install_block(
        self, block: BlockAddr, state: CacheState, words: list[Stamp]
    ) -> CacheLine:
        """Install a fetched block, purging (and flushing) a victim."""
        existing = self.array.lookup(block)
        if existing is not None:
            existing.state = state
            existing.fill(words)
            self.array.touch(existing, self.now())
            return existing
        victim = self.array.choose_victim(block)
        if victim.valid:
            self._purge(victim)
        line = self.array.install(victim, block, state, words, self.now())
        if self.trace.active:
            self.trace.emit(self.now(), EventKind.STATE_CHANGE, cache=self.id,
                            block=block, state=state.value)
        return line

    def _purge(self, victim: CacheLine) -> None:
        assert self.protocol is not None and self.memory is not None
        self.stats.purges += 1
        if self.trace.active:
            self.trace.emit(self.now(), EventKind.PURGE, cache=self.id,
                            block=victim.block, state=victim.state.value)
        if victim.locked:
            # Section E.3 "minor modification": spill the lock to memory.
            self.memory.write_lock_tag(victim.block, self.id)
            if victim.state is CacheState.LOCK_WAITER:
                self.memory.mark_lock_waiter(victim.block)
            self.memory.write_block(victim.block, victim.snapshot())
            self.stats.memory_lock_writes += 1
            self.stats.flushes += 1
            self._install_effects.lock_spilled = True
            self._install_effects.flush_words += self.config.words_per_block
            if self.obs.active:
                self.obs.record_lock_spill(self.id, victim.block, self.now())
        elif self.protocol.purge_needs_flush(victim):
            self.memory.write_block(victim.block, victim.snapshot())
            self.stats.flushes += 1
            self._install_effects.flush_words += self._flush_word_count(victim)
        victim.state = CacheState.INVALID

    def _flush_word_count(self, line: CacheLine) -> int:
        if self.config.transfer_unit_words is None or line.unit_dirty is None:
            return self.config.words_per_block
        dirty_units = sum(1 for d in line.unit_dirty if d)
        return max(1, dirty_units) * self.config.transfer_unit_words

    def invalidate_line(self, line: CacheLine) -> None:
        if line.locked:
            raise ProtocolError(
                f"cache {self.id}: attempt to invalidate locked block {line.block}"
            )
        line.state = CacheState.INVALID
        self.stats.invalidations_received += 1
        if self.obs.active:
            self.obs.record_invalidation(line.block, self.id)

    def apply_write(self, line: CacheLine, addr: WordAddr, stamp: Stamp) -> None:
        """Apply a stamped write to a line the processor may write, marking
        dirtiness and notifying the oracle (this is the serialization point
        for exclusive-privilege writes)."""
        offset = self.offset(addr)
        line.write_word(offset, stamp)
        self._mark_unit_dirty(line, offset)
        self._mark_dirty(line)
        if self.oracle is not None:
            self.oracle.record_write(addr, stamp)

    def apply_foreign_update(self, line: CacheLine, word: WordAddr, stamp: Stamp) -> None:
        """Apply a snooped word update (write-update protocols)."""
        line.write_word(self.offset(word), stamp)
        self.stats.updates_received += 1

    def _mark_unit_dirty(self, line: CacheLine, offset: int) -> None:
        tu = self.config.transfer_unit_words
        if tu is None:
            return
        n_units = self.config.words_per_block // tu
        if line.unit_dirty is None:
            line.unit_dirty = [False] * n_units
        line.unit_dirty[offset // tu] = True

    def _mark_dirty(self, line: CacheLine) -> None:
        state = line.state
        if state is CacheState.WRITE_CLEAN:
            line.state = CacheState.WRITE_DIRTY
            self.stats.write_hits_to_clean += 1
            now = self.clock.cycle
            if self._ledger is not None and self.directory.interferes:
                self._ledger.status_write(self, now)
            self.directory.record_status_write(now)
        elif state in (CacheState.WRITE_DIRTY, CacheState.LOCK, CacheState.LOCK_WAITER):
            pass  # already dirty
        elif state in (CacheState.READ, CacheState.READ_SOURCE_CLEAN,
                       CacheState.READ_SOURCE_DIRTY):
            raise ProtocolError(
                f"cache {self.id}: write applied without write privilege "
                f"(state {state})"
            )
        else:
            raise ProtocolError(f"cache {self.id}: write to invalid line")

    def _check_read(self, addr: WordAddr, stamp: Stamp) -> None:
        if self.oracle is not None:
            self.oracle.check_read(addr, stamp, cache_id=self.id, cycle=self.now())

    def supply_words_moved(self, line: CacheLine) -> int | None:
        """Words a cache-to-cache supply moves under sub-block transfer
        units: the requested unit plus every dirty unit (Section D.3)."""
        tu = self.config.transfer_unit_words
        if tu is None:
            return None
        dirty_units = sum(1 for d in (line.unit_dirty or []) if d)
        return max(1, dirty_units) * tu
