"""Bus arbitration.

Round-robin among equal-priority requesters, with one most-significant
priority bit reserved for busy-wait registers (Section E.4): after an
unlock broadcast, waiting caches assert the bit so one of them wins the
very next arbitration; if no waiter asserts it, arbitration proceeds
normally "with no wasted time".

The round-robin order itself is :func:`round_robin`, over port
positions: the bus walks it lazily (see :meth:`repro.bus.bus.Bus._arbitrate`),
and :class:`Arbiter` applies it to a dict of requests.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Protocol

from repro.common.types import CacheId


def round_robin(positions: Iterable[int], last_winner: int) -> list[int]:
    """``positions`` in round-robin order: the first position after
    ``last_winner`` leads, wrapping around."""
    order = sorted(positions)
    cut = bisect_right(order, last_winner)
    return order[cut:] + order[:cut]


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
        ports = self._ports
        return [ports[i] for i in round_robin(
            (order[cid] for cid in pool), self._last_winner_index)]

    def commit(self, winner: CacheId) -> CacheId:
        """Record ``winner`` as the grant for round-robin fairness."""
        self._last_winner_index = self._order[winner]
        return winner

    @property
    def ports(self) -> list[CacheId]:
        return list(self._ports)
