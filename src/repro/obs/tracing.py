"""Causal span tracing: every bus transaction, stall episode, lock
wait, lock hold, and crossbar round trip becomes a *span* with
parent/cause links, so an invalidation that forces another processor's
miss -- or a lock handoff chain -- is traceable end to end.

The :class:`SpanTracer` is owned by an
:class:`~repro.obs.core.Observability` constructed with
``tracing=True`` and is fed exclusively through the ``record_*``
publication hooks.  Every hook fires on an *event* cycle (a grant,
snoop, issue, wake, or retire), never from the per-cycle or quiet-span
accounting, so the collected spans are bit-identical between the
stepped and fast-forward engines.

Span model (plain dicts, JSON-able):

``id``
    Creation index; links always point at smaller ids.
``kind``
    One of :data:`SPAN_KINDS` -- ``txn`` (one bus transaction,
    grant to release), ``episode`` (one contiguous stall stretch of a
    processor: post/wake -> arbitration -> transfer -> collect),
    ``wait`` (a lock wait window, spin or sleep), ``hold`` (a lock
    hold), ``crossbar`` (a memory-unit RMW round trip), and ``mark``
    (instant annotations such as a locked-victim spill).
``track``
    ``bus{i}`` or ``cpu{pid}`` -- the same track names the timeline
    slices use, so the Perfetto export lines spans up with them.
``start`` / ``dur``
    Cycles.  An episode's duration is exactly its contribution to the
    processor's stall cycles (arbitration + transfer).
``parent``
    Containment/causality upward: a txn's parent is the episode that
    posted it; an unlock broadcast's parent is the releaser's hold; a
    hold's parent is the episode that completed the acquisition.
``cause``
    Cross-processor causality: the txn whose snoop invalidated the
    block (for the forced refetch) or the unlock broadcast that woke
    the waiter (for the post-wake retry).

The tracer also keeps the per-processor tallies
:mod:`repro.obs.attribution` turns into the exhaustive cycle buckets;
see there for the accounting contract.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.registry import MetricRegistry

#: Bus operations that complete detached from the issuing cache's
#: pending access (``take_bus_transaction`` pops them ahead of it); a
#: grant for one of these must not close the requester's open episode.
DETACHED_OPS = frozenset({
    "UNLOCK_BROADCAST", "FLUSH_BLOCK", "MEMORY_LOCK_WRITE",
})

#: Every span ``kind`` the tracer emits.
SPAN_KINDS = ("txn", "episode", "wait", "hold", "crossbar", "mark")


@dataclass(slots=True)
class _Tally:
    """Per-processor raw cycle tallies, accumulated at span close."""

    out_arb: int = 0          # arbitration, out-of-window, not inval-caused
    out_transfer: int = 0     # transfer, out-of-window, not inval-caused
    inval_wait: int = 0       # arb+transfer of inval-forced refetch episodes
    win_stall: int = 0        # arb+transfer of episodes posted in a window
    win_cycles: int = 0       # total lock-wait window cycles
    crossbar_out: int = 0     # crossbar stall outside any window
    crossbar_in: int = 0      # crossbar stall inside a window
    hits_out: int = 0         # local-hit issue cycles outside any window
    episodes: int = 0
    aborted: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SpanTracer:
    """Collects causal spans and attribution tallies for one run."""

    def __init__(self, registry: "MetricRegistry | None" = None) -> None:
        self.spans: list[dict] = []
        self.tallies: dict[int, _Tally] = {}
        #: block -> ordered acquisition chain [{pid, acquired, hold}].
        self.handoffs: dict[int, list[dict]] = {}
        #: block -> total cycles processors spent waiting on it.
        self.block_waits: dict[int, int] = {}
        self.end_cycle: int | None = None

        self._open_txn: dict | None = None
        self._episodes: dict[int, dict] = {}        # requester -> state
        self._windows: dict[int, dict] = {}         # pid -> open window
        self._last_collect: dict[int, int] = {}     # pid -> last collect cycle
        self._last_spin: dict[int, int] = {}        # pid -> last spin-step cycle
        self._last_episode: dict[int, int] = {}     # pid -> last closed span id
        self._pending_inval: dict[tuple, int] = {}  # (cache, block) -> txn id
        self._last_hold: dict[int, int] = {}        # block -> hold span id
        self._unlock_origin: dict[int, int] = {}    # block -> releasing cache
        self._acquires: dict[tuple, dict] = {}      # (pid, block) -> info

        self._span_hist = None
        self._bucket_hist = None
        if registry is not None:
            self._span_hist = registry.histogram(
                "span_cycles", "span duration by kind (cycles)",
                label_names=("kind",))
            self._bucket_hist = registry.histogram(
                "bucket_wait_cycles",
                "per-episode latency by attribution bucket (cycles)",
                label_names=("bucket",))

    # -- plumbing ----------------------------------------------------------

    def _tally(self, pid: int) -> _Tally:
        tally = self.tallies.get(pid)
        if tally is None:
            tally = self.tallies[pid] = _Tally()
        return tally

    def _span(self, kind: str, name: str, track: str, start: int,
              dur: int = 0, parent: int | None = None,
              cause: int | None = None, **args) -> dict:
        span = {
            "id": len(self.spans), "kind": kind, "name": name,
            "track": track, "start": start, "dur": dur,
            "parent": parent, "cause": cause, "args": args,
        }
        self.spans.append(span)
        return span

    def _observe(self, span: dict) -> None:
        if self._span_hist is not None:
            self._span_hist.observe(span["dur"], kind=span["kind"])

    def _observe_bucket(self, bucket: str, cycles: int) -> None:
        if self._bucket_hist is not None and cycles > 0:
            self._bucket_hist.observe(cycles, bucket=bucket)

    # -- bus transactions --------------------------------------------------

    def txn_begin(self, cycle: int, op: str, block: int, requester: int,
                  bus: int = 0) -> None:
        parent = None
        if op == "UNLOCK_BROADCAST":
            parent = self._last_hold.get(block)
        elif op not in DETACHED_OPS:
            episode = self._episodes.get(requester)
            if episode is not None:
                parent = episode["span"]["id"]
        span = self._span("txn", op, f"bus{bus}", cycle, parent=parent,
                          block=block, requester=requester)
        if op == "UNLOCK_BROADCAST":
            origin = self._unlock_origin.pop(block, None)
            if origin is not None:
                span["args"]["origin"] = origin
        self._open_txn = span

    def txn_end(self, cycle: int, duration: int, op: str, block: int,
                requester: int, bus: int = 0,
                outcome: str | None = None) -> None:
        span = self._open_txn
        self._open_txn = None
        if span is not None:
            span["dur"] = duration
            span["args"]["outcome"] = outcome
            self._observe(span)
        if op in DETACHED_OPS:
            return
        episode = self._episodes.get(requester)
        if episode is None:
            return
        if outcome == "REBUS":
            # Multi-phase transaction: the transfer so far is banked and
            # arbitration resumes once this phase's occupancy expires --
            # resuming from the *release*, not the grant, or the phase's
            # transfer would be double-counted.
            episode["arb"] += cycle - episode["arb_since"]
            episode["transfer"] += duration
            episode["arb_since"] = cycle + duration
            episode["phases"] += 1
            return
        episode["arb"] += cycle - episode["arb_since"]
        if outcome == "WAIT_LOCK":
            # The lock was held: the requester parks (arbitration only;
            # the wait window opened at this same grant).
            self._close_episode(requester, episode, cycle)
        else:  # DONE: occupancy runs [cycle, cycle+duration), collect after
            episode["transfer"] += duration
            self._close_episode(requester, episode, cycle + duration)
            self._last_collect[requester] = cycle + duration

    def _close_episode(self, pid: int, episode: dict, end: int,
                       aborted: bool = False, truncated: bool = False,
                       rearmed: bool = False) -> None:
        span = episode["span"]
        span["dur"] = max(0, end - span["start"])
        arb, transfer = episode["arb"], episode["transfer"]
        in_window, inval = episode["in_window"], episode["inval"]
        span["args"].update(arb=arb, transfer=transfer,
                            phases=episode["phases"])
        if aborted:
            span["args"]["aborted"] = True
        if truncated:
            span["args"]["truncated"] = True
        if rearmed:
            span["args"]["rearmed"] = True
        if in_window:
            span["args"]["in_window"] = True

        tally = self._tally(pid)
        tally.episodes += 1
        if aborted:
            tally.aborted += 1
        if in_window:
            tally.win_stall += arb + transfer
            self._observe_bucket("lock_spin", arb + transfer)
        elif inval:
            tally.inval_wait += arb + transfer
            self._observe_bucket("inval_refetch", arb + transfer)
        else:
            tally.out_arb += arb
            tally.out_transfer += transfer
            self._observe_bucket("bus_arb_wait", arb)
            self._observe_bucket("miss_wait", transfer)
        self._observe(span)
        self._last_episode[pid] = span["id"]
        self._episodes.pop(pid, None)

    # -- processor requests ------------------------------------------------

    def request_posted(self, cache: int, op_kind: str, block: int,
                       cycle: int) -> None:
        stale = self._episodes.get(cache)
        if stale is not None:  # defensive: never two open episodes per pid
            stale["arb"] += max(0, cycle - stale["arb_since"])
            self._close_episode(cache, stale, cycle, truncated=True)
        # An abort-retry posts on the aborted episode's collect cycle, and
        # a spin iteration posts on its deferred-result cycle: both are
        # compute cycles, so arbitration starts on the next one.
        posted_on_compute = (self._last_collect.get(cache) == cycle
                             or self._last_spin.get(cache) == cycle)
        arb_since = cycle + 1 if posted_on_compute else cycle
        cause = self._pending_inval.pop((cache, block), None)
        span = self._span("episode", f"{op_kind} {block}", f"cpu{cache}",
                          arb_since, cause=cause, block=block, op=op_kind)
        self._episodes[cache] = {
            "span": span, "arb_since": arb_since, "arb": 0, "transfer": 0,
            "phases": 1, "in_window": cache in self._windows,
            "inval": cause is not None,
        }

    def request_aborted(self, cache: int, cycle: int) -> None:
        episode = self._episodes.get(cache)
        if episode is None:
            return
        episode["arb"] += cycle - episode["arb_since"]
        span = episode["span"]
        if span["cause"] is None and self._open_txn is not None:
            span["cause"] = self._open_txn["id"]
        self._close_episode(cache, episode, cycle, aborted=True)
        self._last_collect[cache] = cycle

    def spin_step(self, pid: int, cycle: int) -> None:
        """A deferred spin result was processed this cycle (a compute
        cycle); any access it chains starts stalling next cycle."""
        self._last_spin[pid] = cycle

    def local_hit(self, pid: int, cycle: int) -> None:
        # In-window hits are spin iterations; they land in the window's
        # ``win_compute`` remainder (-> lock_spin), not the hit bucket.
        if pid not in self._windows:
            self._tally(pid).hits_out += 1

    def crossbar(self, pid: int, start: int, until: int) -> None:
        # The issue cycle always stalls, and collection happens on the
        # first tick at or after ``until`` -- so the stall contribution
        # is at least one cycle even for an instant round trip.
        stall = max(until - start, 1)
        span = self._span("crossbar", "crossbar rmw", f"cpu{pid}", start,
                          dur=stall)
        tally = self._tally(pid)
        if pid in self._windows:
            tally.crossbar_in += stall
        else:
            tally.crossbar_out += stall
        self._observe(span)
        self._observe_bucket("miss_wait" if pid not in self._windows
                             else "lock_spin", stall)

    # -- lock waits, wakes, holds ------------------------------------------

    def wait_start(self, pid: int, block: int, cycle: int) -> None:
        # Re-arms (lost post-unlock arbitration) keep the original start,
        # mirroring Observability._open_waits.
        if pid in self._windows:
            return
        span = self._span("wait", f"wait {block}", f"cpu{pid}", cycle,
                          block=block)
        self._windows[pid] = {"span": span, "block": block, "start": cycle}

    def wait_wakeup(self, cache: int, block: int, cycle: int) -> None:
        if cache in self._episodes:
            return
        cause = self._open_txn["id"] if self._open_txn is not None else None
        span = self._span("episode", f"retry {block}", f"cpu{cache}", cycle,
                          cause=cause, block=block, op="RETRY")
        self._episodes[cache] = {
            "span": span, "arb_since": cycle, "arb": 0, "transfer": 0,
            "phases": 1, "in_window": cache in self._windows, "inval": False,
        }

    def wait_rearmed(self, cache: int, cycle: int) -> None:
        episode = self._episodes.get(cache)
        if episode is None:
            return
        episode["arb"] += cycle - episode["arb_since"]
        self._close_episode(cache, episode, cycle, rearmed=True)

    def _close_window(self, pid: int, window: dict, cycle: int,
                      outcome: str) -> int:
        span = window["span"]
        span["dur"] = cycle - span["start"]
        span["args"]["outcome"] = outcome
        block = window["block"]
        self._tally(pid).win_cycles += span["dur"]
        self.block_waits[block] = (self.block_waits.get(block, 0)
                                   + span["dur"])
        self._observe(span)
        return span["id"]

    def lock_acquired(self, pid: int, block: int, cycle: int) -> None:
        window = self._windows.pop(pid, None)
        wait_id = None
        if window is not None:
            wait_id = self._close_window(pid, window, cycle, "acquired")
        chain = self.handoffs.setdefault(block, [])
        chain.append({"pid": pid, "acquired": cycle, "hold": None})
        self._acquires[(pid, block)] = {
            "episode": self._last_episode.get(pid), "wait": wait_id,
            "index": len(chain) - 1,
        }

    def lock_released(self, pid: int, block: int, since: int,
                      cycle: int) -> None:
        info = self._acquires.pop((pid, block), None)
        span = self._span("hold", f"hold {block}", f"cpu{pid}", since,
                          dur=cycle - since, block=block)
        if info is not None:
            span["parent"] = info["episode"]
            if info["wait"] is not None:
                span["cause"] = info["wait"]
            self.handoffs[block][info["index"]]["hold"] = cycle - since
        self._last_hold[block] = span["id"]
        self._observe(span)

    def wait_cancelled(self, pid: int, cycle: int) -> None:
        window = self._windows.pop(pid, None)
        if window is not None:
            self._close_window(pid, window, cycle, "cancelled")

    def unlock_queued(self, cache: int, block: int, cycle: int) -> None:
        self._unlock_origin[block] = cache

    def lock_spill(self, cache: int, block: int, cycle: int) -> None:
        self._span("mark", f"lock spill {block}", f"cpu{cache}", cycle,
                   block=block)

    # -- cross-processor causes --------------------------------------------

    def invalidation(self, block: int, cache: int) -> None:
        # Remember which transaction killed the copy; the victim's next
        # request for this block is an invalidation-forced refetch.
        if self._open_txn is not None:
            self._pending_inval[(cache, block)] = self._open_txn["id"]

    # -- end of run --------------------------------------------------------

    def finalize(self, end_cycle: int) -> None:
        """Close anything still open (marked truncated) at run end."""
        for pid in sorted(self._episodes):
            episode = self._episodes[pid]
            episode["arb"] += max(0, end_cycle - episode["arb_since"])
            self._close_episode(pid, episode, end_cycle, truncated=True)
        for pid in sorted(self._windows):
            window = self._windows.pop(pid)
            self._close_window(pid, window, end_cycle, "truncated")
        self._open_txn = None
        self.end_cycle = end_cycle

    def summary(self) -> dict:
        """Plain-data tallies for :mod:`repro.obs.attribution`."""
        return {
            "tallies": {pid: tally.to_dict()
                        for pid, tally in sorted(self.tallies.items())},
            "handoffs": {block: list(chain)
                         for block, chain in sorted(self.handoffs.items())},
            "block_waits": dict(sorted(self.block_waits.items())),
            "end_cycle": self.end_cycle,
        }
