"""Directory-duality models (Feature 3 of Table 1).

The paper analyzes how updating a block's dirty status (a processor-side
directory *write*) interferes with the bus controller's snoops:

* **identical dual (ID)** -- both directories must be written, so a status
  write collides with a concurrent bus snoop;
* **dual-ported-read (DPR)** -- one directory, dual-ported for reads; a
  write still blocks the snoop port;
* **non-identical dual (NID)** -- dirty status lives only in the processor
  directory (and waiter status only in the bus directory), so status writes
  never touch the snoop port.

We account interference cycles: one per coincidence of a status write with
a snoop in the same cycle.  Bitar (1985) estimates the frequency of status
*changes* (write hits to clean blocks) at 0.2%-1.2% of references, which is
why NID "is probably not warranted"; the directory bench reproduces that
argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import DirectoryKind


@dataclass
class DirectoryModel:
    """Tracks processor-side status writes and charges interference.

    Coincidence detection is stamp-based: each record carries the cycle
    it happened in (``now``), and a collision is two records stamped
    with the same cycle.  This keeps the simulator's per-cycle cost at
    zero -- nothing needs resetting on quiet cycles.  Callers without a
    clock (unit tests, standalone use) omit ``now`` and drive the
    internal counter with :meth:`begin_cycle` instead.
    """

    kind: DirectoryKind
    status_writes: int = 0
    interference_cycles: int = 0
    #: Snoops recorded one by one (:meth:`record_snoop`).
    recorded_snoops: int = 0
    #: Transactions of the owning cache (which it does not snoop).
    own_transactions: int = 0
    #: Cycle stamps of the latest write/snoop (no real cycle is ever -1).
    _written_at: int = -1
    _snooped_at: int = -1
    #: Internal clock for stamp-less callers, advanced by begin_cycle().
    _cycle: int = 0
    #: Whether this directory kind charges interference (cached: the
    #: record paths run once per snoop, the hottest simulator rate).
    interferes: bool = False
    #: Broadcast counts per delivery domain, kept by the fabric's
    #: :class:`~repro.bus.bus.SnoopLedger`, and this directory's domain
    #: (see :meth:`count_from`).
    _seen: list[int] | None = None
    _domain: int = 0

    def __post_init__(self) -> None:
        self.interferes = self.kind in (
            DirectoryKind.IDENTICAL_DUAL,
            DirectoryKind.DUAL_PORTED_READ,
        )

    def count_from(self, seen: list[int], domain: int) -> None:
        """Derive :attr:`snoops` from a ledger's broadcast counts: the
        fabric then snoops this directory only when its cache cares, and
        every broadcast into ``domain`` but the cache's own is a snoop."""
        self._seen = seen
        self._domain = domain

    @property
    def snoops(self) -> int:
        """Snoops the bus controller made of this directory."""
        if self._seen is None:
            return self.recorded_snoops
        return self._seen[self._domain] - self.own_transactions

    def begin_cycle(self) -> None:
        self._cycle += 1

    def record_status_write(self, now: int | None = None) -> None:
        """A processor write changed clean->dirty (or set waiter status).
        Colliding with a same-cycle snoop costs an interference cycle
        (either side may arrive first within the cycle)."""
        if now is None:
            now = self._cycle
        self.status_writes += 1
        self._written_at = now
        if self._snooped_at == now and self.interferes:
            self.interference_cycles += 1

    def record_snoop(self, now: int | None = None) -> None:
        """The bus controller consulted the directory this cycle."""
        if now is None:
            now = self._cycle
        self.recorded_snoops += 1
        self._snooped_at = now
        if self._written_at == now and self.interferes:
            self.interference_cycles += 1

    def note_snoop(self, now: int) -> None:
        """A snoop the fabric did not deliver happened earlier in cycle
        ``now``: a status write later this cycle collides with it."""
        self._snooped_at = now

    @property
    def interference_rate(self) -> float:
        if self.snoops == 0:
            return 0.0
        return self.interference_cycles / self.snoops
