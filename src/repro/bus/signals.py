"""Snoop-response signalling.

On every transaction each snooping cache drives a small set of lines; the
bus aggregates them into one :class:`BusResponse` visible to the requester
and to memory.  This is the open-collector ``hit`` line of the Dragon /
Firefly / Papamarcos-Patel schemes plus the source/dirty status and lock
refusal of the paper's proposal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import CacheId


@dataclass
class SnoopReply:
    """One cache's response to a snooped transaction."""

    #: The cache holds a valid copy (drives the ``hit`` line).
    hit: bool = False
    #: The cache is the source for the block and will supply it.
    supplies: bool = False
    #: Clean/dirty status transferred along with the block (Feature 7 ``S``).
    dirty: bool = False
    #: The block is locked here; the request is refused and the holder has
    #: recorded the waiter (Figure 7).
    locked: bool = False
    #: This cache is a potential read source and will join source
    #: arbitration (Illinois, Feature 8 ``ARB``).
    arbitrates: bool = False
    #: Block contents supplied with the reply (snapshot taken before any
    #: state change) when ``supplies`` or ``arbitrates`` is set.
    data: list[int] | None = None
    #: Block contents written back to memory as part of servicing the snoop
    #: (flush-on-transfer, Feature 7 ``F``; or Synapse's flush-then-memory
    #: service of a read request).
    flush_words: list[int] | None = None
    #: Words the supply moves under sub-block transfer units (D.3);
    #: ``None`` means whole-block.
    supply_words_moved: int | None = None

    @staticmethod
    def miss() -> "SnoopReply":
        return SnoopReply()


@dataclass
class BusResponse:
    """Aggregated snoop result delivered to the requester (and memory)."""

    #: Any cache raised the hit line.
    shared_hit: bool = False
    #: The cache that supplies the data, if any (otherwise memory supplies).
    supplier: CacheId | None = None
    #: Dirty status supplied with a cache-to-cache transfer.
    supplier_dirty: bool = False
    #: The block is locked in another cache; no data is transferred.
    locked: bool = False
    #: Lock tag found set in main memory (purged-lock fallback, E.3),
    #: owned by another cache: the request is refused.
    memory_locked: bool = False
    #: The requester owned the memory lock tag: the tag was cleared and
    #: the cache must re-establish its Lock state on the refetched block.
    memory_lock_owner: bool = False
    #: Whether a waiter had been noted while the lock was spilled.
    memory_lock_waiter: bool = False
    #: Number of caches that joined read-source arbitration.
    arbitration_candidates: int = 0
    #: Caches that replied at all (for tests/inspection).
    repliers: list[CacheId] = field(default_factory=list)

    @property
    def from_cache(self) -> bool:
        return self.supplier is not None

    @staticmethod
    def combine(replies: dict[CacheId, SnoopReply],
                choose=None) -> "BusResponse":
        """Fold individual snoop replies into the bus-visible aggregate.

        ``choose`` resolves a multi-candidate read-source arbitration
        (called with the candidate ids sorted ascending, so the default
        tie-break -- lowest id wins -- is the first entry; the paper only
        requires that *some* single cache win).
        """
        response = BusResponse()
        candidates: list[CacheId] = []
        for cache_id, reply in replies.items():
            if reply.hit or reply.supplies or reply.locked:
                response.repliers.append(cache_id)
            if reply.hit:
                response.shared_hit = True
            if reply.locked:
                response.locked = True
            if reply.supplies:
                response.supplier = cache_id
                response.supplier_dirty = reply.dirty
            if reply.arbitrates:
                candidates.append(cache_id)
        if response.supplier is None and candidates:
            candidates.sort()
            response.supplier = (
                candidates[0] if choose is None else choose(candidates)
            )
            response.arbitration_candidates = len(candidates)
            response.supplier_dirty = replies[response.supplier].dirty
        return response
