"""Cache organization: placement and replacement.

Supports fully-associative caches (the paper's Section E.3 assumption for
the lock scheme) and set-associative caches (where a locked block can be
forced out, exercising the memory lock-tag fallback).  Replacement is LRU
within a set; locked lines are skipped as victims when any alternative
exists.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.line import CacheLine
from repro.cache.state import CacheState
from repro.common.config import CacheConfig
from repro.common.types import BlockAddr


def _ignore_tags(block: BlockAddr, tagged: bool) -> None:
    return None


class CacheArray:
    """Tag/state array with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Empty frames carry an impossible tag so a never-used frame can
        # never tag-match a real block (update-invalid snoops check tags
        # of invalid lines).
        self._sets: list[list[CacheLine]] = [
            [CacheLine.empty(-1, config.words_per_block) for _ in range(config.ways)]
            for _ in range(config.num_sets)
        ]
        # Tag index: block -> frames currently *tagged* with it, valid or
        # not.  Tags change only in install(), so the index stays exact
        # while validity flips freely on the lines themselves; lookup()
        # filters by state.  Every snoop performs a lookup, making this
        # the simulator's hottest data structure -- the index turns the
        # per-snoop set scan into a dict probe.
        self._tagged: dict[BlockAddr, list[CacheLine]] = {}
        #: ``on_tags(block, tagged)`` is told when ``block`` gains its
        #: first tagged frame (``True``) or loses its last (``False``),
        #: after the index has changed (wired by the owning cache).
        self.on_tags: Callable[[BlockAddr, bool], None] = _ignore_tags

    def _set_index(self, block: BlockAddr) -> int:
        block_number = block // self.config.words_per_block
        return block_number % self.config.num_sets

    def lookup(self, block: BlockAddr) -> CacheLine | None:
        """Return the valid line holding ``block``, if present."""
        lines = self._tagged.get(block)
        if lines is None:
            return None
        for line in lines:
            if line.state is not CacheState.INVALID:
                return line
        return None

    def touch(self, line: CacheLine, cycle: int) -> None:
        line.last_used = cycle

    def choose_victim(self, block: BlockAddr) -> CacheLine:
        """Pick the frame that will hold ``block``: an invalid frame if one
        exists, otherwise the LRU line -- preferring unlocked victims."""
        candidates = self._sets[self._set_index(block)]
        for line in candidates:
            if not line.valid:
                return line
        unlocked = [line for line in candidates if not line.locked]
        pool = unlocked if unlocked else candidates
        return min(pool, key=lambda line: line.last_used)

    def install(self, victim: CacheLine, block: BlockAddr, state: CacheState,
                words: list[int], cycle: int) -> CacheLine:
        """Overwrite ``victim`` in place with a new resident block."""
        old_block = victim.block
        if old_block != block:
            tagged = self._tagged
            old = tagged.get(old_block)
            if old is not None:
                old.remove(victim)
                if not old:
                    del tagged[old_block]
                    self.on_tags(old_block, False)
            frames = tagged.get(block)
            if frames is None:
                tagged[block] = [victim]
                self.on_tags(block, True)
            else:
                frames.append(victim)
        victim.block = block
        victim.state = state
        victim.fill(words)
        victim.last_used = cycle
        return victim

    def lines(self) -> list[CacheLine]:
        """All valid lines (for invariant checks and purge sweeps)."""
        return [line for lines in self._sets for line in lines if line.valid]

    def set_of(self, block: BlockAddr) -> list[CacheLine]:
        return list(self._sets[self._set_index(block)])

    @property
    def capacity(self) -> int:
        return self.config.num_blocks
