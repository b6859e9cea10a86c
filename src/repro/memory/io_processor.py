"""The I/O processor (Section E.2, Feature 11).

A bus port without a cache.  Three operations:

* **input** -- write a block to memory, invalidating every cached copy
  (one bus transaction per block);
* **page out** -- fetch a block for write privilege, invalidating all
  copies (the data leaves the coherence domain);
* **output** (non-paging) -- a special read that tells the source cache
  *not* to give up source status.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bus.transaction import BusOp, BusTransaction
from repro.common.types import IO_CACHE_ID, BlockAddr, Stamp

if TYPE_CHECKING:
    from repro.bus.signals import BusResponse, SnoopReply
    from repro.memory.main_memory import MainMemory
    from repro.sim.clock import StampClock
    from repro.sim.stats import SimStats


class IoOp(enum.Enum):
    INPUT = "input"
    PAGE_OUT = "page-out"
    OUTPUT = "output"


@dataclass
class IoRequest:
    op: IoOp
    block: BlockAddr
    #: Data read by OUTPUT / PAGE_OUT, filled at completion.
    data: list[Stamp] | None = None
    completed: bool = False


class IOProcessor:
    """A cacheless bus port performing I/O transfers."""

    #: It cannot post (no ``connect_ready``): it requests on lane 0.
    request_bus = 0

    def __init__(self, memory: "MainMemory", stamp_clock: "StampClock",
                 stats: "SimStats") -> None:
        self.id = IO_CACHE_ID
        self.memory = memory
        self.stamp_clock = stamp_clock
        self.stats = stats
        self._queue: deque[IoRequest] = deque()
        self._in_flight: IoRequest | None = None
        self.completed: list[IoRequest] = []
        #: Wired by the engine for write auditing.
        self.oracle = None

    # -- request submission ---------------------------------------------------

    def submit(self, op: IoOp, block: BlockAddr) -> IoRequest:
        request = IoRequest(op=op, block=block)
        self._queue.append(request)
        return request

    @property
    def idle(self) -> bool:
        return not self._queue and self._in_flight is None

    # -- bus port interface ------------------------------------------------------

    def has_bus_request(self) -> bool:
        return bool(self._queue) and self._in_flight is None

    def has_request_hint(self) -> bool:
        """I/O requests need no revalidation; the hint is exact."""
        return bool(self._queue) and self._in_flight is None

    def bus_request_priority(self) -> bool:
        return False

    def take_bus_transaction(self) -> BusTransaction:
        request = self._queue.popleft()
        self._in_flight = request
        if request.op is IoOp.INPUT:
            bus_op = BusOp.IO_INPUT
        elif request.op is IoOp.PAGE_OUT:
            bus_op = BusOp.READ_EXCL
        else:
            bus_op = BusOp.IO_OUTPUT_READ
        return BusTransaction(op=bus_op, block=request.block, requester=self.id)

    def on_txn_granted(self, txn: BusTransaction, response: "BusResponse",
                       data: list[Stamp] | None):
        from repro.cache.cache import CompletionInfo
        from repro.protocols.base import Outcome

        request = self._in_flight
        assert request is not None
        if response.locked or response.memory_locked:
            # The block is locked in a cache: retry the transfer later.
            self._queue.append(request)
            self._in_flight = None
            return CompletionInfo(outcome=Outcome.DONE)
        if request.op is IoOp.INPUT:
            # Device data arrives: stamp every word and write memory.
            words = [
                self.stamp_clock.next_stamp(1)
                for _ in range(self.memory.words_per_block)
            ]
            self.memory.write_block(txn.block, words)
            if self.oracle is not None:
                for offset, stamp in enumerate(words):
                    self.oracle.record_write(txn.block + offset, stamp)
        else:
            request.data = data
        request.completed = True
        return CompletionInfo(outcome=Outcome.DONE)

    def snoop(self, txn: BusTransaction) -> "SnoopReply":
        from repro.bus.signals import SnoopReply

        return SnoopReply.miss()

    def finish_bus_release(self) -> None:
        if self._in_flight is not None and self._in_flight.completed:
            self.completed.append(self._in_flight)
            self._in_flight = None
