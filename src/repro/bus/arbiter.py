"""Bus arbitration.

Round-robin among equal-priority requesters, with one most-significant
priority bit reserved for busy-wait registers (Section E.4): after an
unlock broadcast, waiting caches assert the bit so one of them wins the
very next arbitration; if no waiter asserts it, arbitration proceeds
normally "with no wasted time".
"""

from __future__ import annotations

from typing import Protocol

from repro.common.types import CacheId


class ArbitrationRequest(Protocol):
    """What the arbiter needs to know about a standing request."""

    @property
    def high_priority(self) -> bool: ...


class Arbiter:
    """Priority + round-robin arbiter over cache ids."""

    def __init__(self, ports: list[CacheId]) -> None:
        if not ports:
            raise ValueError("arbiter needs at least one port")
        self._ports = list(ports)
        self._order = {cid: i for i, cid in enumerate(self._ports)}
        self._last_winner_index = len(self._ports) - 1

    def arbitrate(
        self, requests: dict[CacheId, ArbitrationRequest]
    ) -> CacheId | None:
        """Pick the winning requester, or ``None`` if there are none.

        High-priority requests always beat normal ones; ties within a
        priority class are broken round-robin starting after the previous
        winner.
        """
        candidates = self.ordered_candidates(requests)
        if not candidates:
            return None
        return self.commit(candidates[0])

    def ordered_candidates(
        self, requests: dict[CacheId, ArbitrationRequest]
    ) -> list[CacheId]:
        """The grantable requesters in arbitration-preference order.

        The winning priority class only (high beats normal), rotated so
        the round-robin winner comes first.  Any entry is a legal grant a
        hardware arbiter could make; :meth:`commit` records the one taken.
        """
        if not requests:
            return []
        high = [cid for cid, req in requests.items() if req.high_priority]
        pool = high if high else list(requests)
        order = self._order
        unknown = [cid for cid in pool if cid not in order]
        if unknown:
            # Candidates must be registered ports.
            raise ValueError(f"unknown requesters: {sorted(unknown)}")
        # Distance after the last winner, walking the ports round-robin.
        n = len(self._ports)
        start = self._last_winner_index + 1
        return sorted(pool, key=lambda cid: (order[cid] - start) % n)

    def commit(self, winner: CacheId) -> CacheId:
        """Record ``winner`` as the grant for round-robin fairness."""
        self._last_winner_index = self._order[winner]
        return winner

    @property
    def ports(self) -> list[CacheId]:
        return list(self._ports)
