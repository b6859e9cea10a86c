"""Exhaustive cycle attribution: every simulated cycle of every
processor lands in exactly one bucket, and the buckets are asserted to
sum to the processor's total cycles.

The partition is derived from two independent, already bit-identical
sources -- the engine's :class:`~repro.sim.stats.ProcessorStats`
counters and the :class:`~repro.obs.tracing.SpanTracer` tallies (both
are event-cycle-driven) -- so the report is itself bit-identical
between the stepped reference loop and the event-skip engine.

Buckets (:data:`BUCKETS`):

``compute``
    Cycles doing program work: compute ops, collect cycles, and any
    useful work done while waiting (``WaitMode.WORK``).
``cache_hit``
    Issue cycles satisfied locally (one cycle each), outside lock
    waits.
``miss_wait``
    Bus occupancy (transfer) stalls plus memory-unit crossbar round
    trips, outside lock waits, not invalidation-forced.
``bus_arb_wait``
    Arbitration stalls (post to grant), outside lock waits, not
    invalidation-forced.
``inval_refetch``
    Arbitration + transfer of refetches forced by a remote
    invalidation.
``lock_spin``
    Lock-wait window cycles actively burned on the lock: spin-test
    issues and their bus stalls, post-wake retry stalls.
``lock_sleep``
    Lock-wait window cycles parked on the cache's wait register
    (``wait_idle_cycles``).
``barrier_idle``
    Cycles after the processor finished its program
    (``done_cycles``).

Accounting identities (checked by :meth:`AttributionReport.validate`):

* every episode's arbitration + transfer, plus crossbar stalls, sum
  exactly to ``stall_cycles``;
* window cycles split exactly into sleep + work + in-window stall +
  in-window compute;
* the eight buckets sum exactly to ``total_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.schema import stamp

if TYPE_CHECKING:
    from repro.obs.tracing import SpanTracer
    from repro.sim.stats import SimStats

#: The exhaustive cycle buckets, in render order.
BUCKETS = (
    "compute", "cache_hit", "miss_wait", "bus_arb_wait",
    "inval_refetch", "lock_spin", "lock_sleep", "barrier_idle",
)


class AttributionError(ValueError):
    """The per-processor accounting failed an exactness check."""


@dataclass
class AttributionReport:
    """Per-processor bucket accounting plus the causal lock summary."""

    cycles: int
    per_pid: list[dict]
    handoffs: dict = field(default_factory=dict)
    block_waits: dict = field(default_factory=dict)
    protocol: str | None = None

    @property
    def totals(self) -> dict:
        totals = {bucket: 0 for bucket in BUCKETS}
        for entry in self.per_pid:
            for bucket in BUCKETS:
                totals[bucket] += entry["buckets"][bucket]
        return totals

    @property
    def contended_block(self) -> int | None:
        """The block processors spent the most wait cycles on."""
        if not self.block_waits:
            return None
        return max(sorted(self.block_waits), key=self.block_waits.get)

    def handoff_chain(self, block: int | None = None) -> list[dict]:
        """Ordered acquisitions of ``block`` (default: the contended
        one): who got the lock when, and for how long."""
        if block is None:
            block = self.contended_block
        return list(self.handoffs.get(block, ()))

    def validate(self) -> None:
        """Raise :class:`AttributionError` unless every processor's
        buckets are non-negative and sum exactly to its cycles."""
        for entry in self.per_pid:
            buckets = entry["buckets"]
            for bucket in BUCKETS:
                if buckets[bucket] < 0:
                    raise AttributionError(
                        f"cpu{entry['pid']}: negative {bucket} bucket "
                        f"({buckets[bucket]})")
            total = sum(buckets.values())
            if total != entry["total"]:
                raise AttributionError(
                    f"cpu{entry['pid']}: buckets sum to {total}, "
                    f"expected {entry['total']} cycles")

    def to_dict(self) -> dict:
        return stamp({
            "kind": "attribution-report",
            "protocol": self.protocol,
            "cycles": self.cycles,
            "per_pid": self.per_pid,
            "totals": self.totals,
            "contended_block": self.contended_block,
            "handoffs": {str(block): chain
                         for block, chain in sorted(self.handoffs.items())},
            "block_waits": {str(block): cycles for block, cycles
                            in sorted(self.block_waits.items())},
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "AttributionReport":
        """Rebuild a report from its :meth:`to_dict` payload (block keys
        come back as strings from JSON; restore them to ints)."""
        return cls(
            cycles=payload["cycles"],
            per_pid=[dict(entry) for entry in payload["per_pid"]],
            handoffs={int(block): list(chain) for block, chain
                      in payload.get("handoffs", {}).items()},
            block_waits={int(block): int(cycles) for block, cycles
                         in payload.get("block_waits", {}).items()},
            protocol=payload.get("protocol"),
        )

    def render(self) -> str:
        """A fixed-width text table plus the lock contention story."""
        lines = []
        header = "cpu".ljust(6) + "".join(b.rjust(14) for b in BUCKETS)
        lines.append(header)
        lines.append("-" * len(header))
        for entry in self.per_pid:
            buckets = entry["buckets"]
            lines.append(
                f"cpu{entry['pid']}".ljust(6)
                + "".join(str(buckets[b]).rjust(14) for b in BUCKETS))
        totals = self.totals
        lines.append("all".ljust(6)
                     + "".join(str(totals[b]).rjust(14) for b in BUCKETS))
        block = self.contended_block
        if block is not None:
            lines.append("")
            lines.append(f"contended lock block: {block} "
                         f"({self.block_waits.get(block, 0)} wait cycles)")
            chain = self.handoff_chain(block)
            if chain:
                hops = " -> ".join(
                    f"cpu{hop['pid']}@{hop['acquired']}"
                    + (f"({hop['hold']}c)" if hop["hold"] is not None else "")
                    for hop in chain)
                lines.append(f"handoff chain: {hops}")
        return "\n".join(lines)


def compute_attribution(tracer: "SpanTracer", stats: "SimStats",
                        protocol: str | None = None,
                        strict: bool = True) -> AttributionReport:
    """Turn one traced run into an :class:`AttributionReport`.

    ``strict`` (the default) also checks the intermediate identities --
    episode stalls matching ``stall_cycles`` exactly and the window
    decomposition staying non-negative -- not just the final sum.
    """
    from repro.obs.tracing import _Tally

    per_pid = []
    for pid in sorted(stats.processors):
        pstats = stats.processors[pid]
        tally = tracer.tallies.get(pid) or _Tally()

        stall_accounted = (tally.out_arb + tally.out_transfer
                           + tally.inval_wait + tally.win_stall
                           + tally.crossbar_out + tally.crossbar_in)
        if strict and stall_accounted != pstats.stall_cycles:
            raise AttributionError(
                f"cpu{pid}: episodes account for {stall_accounted} stall "
                f"cycles, engine counted {pstats.stall_cycles}")

        win = tally.win_cycles
        win_stall = tally.win_stall + tally.crossbar_in
        win_compute = (win - pstats.wait_idle_cycles
                       - pstats.wait_work_cycles - win_stall)
        if strict and win_compute < 0:
            raise AttributionError(
                f"cpu{pid}: window decomposition negative "
                f"(win={win}, idle={pstats.wait_idle_cycles}, "
                f"work={pstats.wait_work_cycles}, stall={win_stall})")

        buckets = {
            "compute": (pstats.compute_cycles + pstats.wait_work_cycles
                        - tally.hits_out - win_compute),
            "cache_hit": tally.hits_out,
            "miss_wait": tally.out_transfer + tally.crossbar_out,
            "bus_arb_wait": tally.out_arb,
            "inval_refetch": tally.inval_wait,
            "lock_spin": (win - pstats.wait_idle_cycles
                          - pstats.wait_work_cycles),
            "lock_sleep": pstats.wait_idle_cycles,
            "barrier_idle": pstats.done_cycles,
        }
        per_pid.append({
            "pid": pid,
            "total": pstats.total_cycles,
            "buckets": buckets,
            "episodes": tally.episodes,
            "aborted": tally.aborted,
        })

    report = AttributionReport(
        cycles=stats.cycles,
        per_pid=per_pid,
        handoffs={block: list(chain)
                  for block, chain in sorted(tracer.handoffs.items())},
        block_waits=dict(sorted(tracer.block_waits.items())),
        protocol=protocol,
    )
    report.validate()
    return report


# -- critical path over the span DAG --------------------------------------

def critical_path(spans: list[dict]) -> dict:
    """The heaviest chain of causally linked spans.

    Links always point backward (``parent``/``cause`` ids are smaller
    than the span's own id), so a single forward pass computes, for
    every span, the maximum accumulated duration of any chain ending at
    it; the result is the chain with the largest total, root first.
    """
    if not spans:
        return {"cycles": 0, "spans": []}
    best = [0] * len(spans)
    prev: list[int | None] = [None] * len(spans)
    for span in spans:
        i = span["id"]
        base = 0
        link = None
        for key in ("parent", "cause"):
            j = span.get(key)
            if j is not None and best[j] > base:
                base = best[j]
                link = j
        best[i] = base + max(span["dur"], 0)
        prev[i] = link
    end = max(range(len(spans)), key=best.__getitem__)
    chain = []
    cursor: int | None = end
    while cursor is not None:
        chain.append(spans[cursor])
        cursor = prev[cursor]
    chain.reverse()
    return {
        "cycles": best[end],
        "spans": [
            {"id": s["id"], "kind": s["kind"], "name": s["name"],
             "track": s["track"], "start": s["start"], "dur": s["dur"]}
            for s in chain
        ],
    }


def render_critical_path(path: dict) -> str:
    lines = [f"critical path: {path['cycles']} cycles, "
             f"{len(path['spans'])} spans"]
    for s in path["spans"]:
        lines.append(f"  {s['track']:>6}  {s['start']:>8}  +{s['dur']:<6} "
                     f"{s['kind']}: {s['name']}")
    return "\n".join(lines)


# -- protocol comparison ---------------------------------------------------

def compare_attributions(reports: "dict[str, AttributionReport]") -> dict:
    """A protocol-comparison payload: per-bucket cycle totals and
    shares side by side, the causal complement to Table 1."""
    entries = {}
    for name in sorted(reports):
        report = reports[name]
        totals = report.totals
        grand = sum(totals.values()) or 1
        entries[name] = {
            "cycles": report.cycles,
            "totals": totals,
            "shares": {bucket: totals[bucket] / grand for bucket in BUCKETS},
            "contended_block": report.contended_block,
        }
    return stamp({"kind": "attribution-comparison", "protocols": entries})


def render_comparison(comparison: dict) -> str:
    protocols = comparison["protocols"]
    width = max((len(name) for name in protocols), default=8) + 2
    lines = [" " * width + "".join(b.rjust(14) for b in BUCKETS)
             + "cycles".rjust(12)]
    for name in sorted(protocols):
        entry = protocols[name]
        lines.append(
            name.ljust(width)
            + "".join(f"{entry['shares'][b]:.1%}".rjust(14) for b in BUCKETS)
            + str(entry["cycles"]).rjust(12))
    return "\n".join(lines)
