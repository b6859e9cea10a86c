"""The simulator: wires processors, caches, bus, and memory, and runs.

Cycle order: bus first (grants/releases), then every processor (issue or
collect), then the cycle counter.  A processor therefore sees a bus
completion on the cycle the occupancy expires, and a request posted this
cycle arbitrates next cycle -- a one-cycle arbitration latency.

Two execution modes produce bit-identical statistics:

* **stepped** -- :meth:`Simulator.step` once per bus cycle (the reference
  semantics above);
* **fast-forward** -- the engine asks every component for its next
  *interesting* cycle (bus occupancy expiry, compute completion, crossbar
  return) and advances the clock and all per-cycle counters in bulk
  across the quiet span.  Skipped cycles are exactly those in which the
  stepped engine would only have incremented counters: the bus is inert
  until its occupancy expires, and a parked or computing processor cannot
  issue.  Arbitration order is therefore unaffected -- every cycle in
  which a grant, snoop, issue, retire, or wake could occur is still
  executed by the ordinary :meth:`step`.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bus.bus import Bus
from repro.cache.cache import SnoopingCache
from repro.common.config import RmwMethod, SystemConfig, WaitMode
from repro.common.errors import ConfigError, DeadlockError, WatchdogTimeout
from repro.memory.io_processor import IOProcessor
from repro.memory.main_memory import MainMemory
from repro.processor.processor import Processor, _State
from repro.processor.program import Program
from repro.obs.core import NULL_OBS, Observability
from repro.protocols import get_protocol
from repro.sim.clock import Clock, StampClock
from repro.sim.events import NULL_TRACE, TraceLog
from repro.sim.schedule import ChoiceKind, Scheduler
from repro.sim.stats import SimStats
from repro.verify.invariants import InvariantChecker
from repro.verify.oracle import WriteOracle

#: Process-wide default execution mode, used when neither the Simulator
#: nor the run() call specifies one.  The CLI's ``--fast-forward`` flag
#: and the benchmark harness's ``--fast-forward`` option set this.
FAST_FORWARD_DEFAULT = False


def set_fast_forward_default(value: bool) -> bool:
    """Set the process-wide default execution mode; returns the old one."""
    global FAST_FORWARD_DEFAULT
    old = FAST_FORWARD_DEFAULT
    FAST_FORWARD_DEFAULT = bool(value)
    return old


#: Stepped-loop iterations between wall-clock watchdog checks; keeps the
#: hot path at one integer compare per cycle when a watchdog is armed.
WATCHDOG_STRIDE = 1024


class Simulator:
    """A complete simulated system executing one program per processor."""

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[Program],
        *,
        trace: bool = False,
        check_interval: int = 0,
        fast_forward: bool | None = None,
        obs: Observability | None = None,
        scheduler: "Scheduler | None" = None,
    ) -> None:
        if len(programs) != config.num_processors:
            raise ConfigError(
                f"{config.num_processors} processors but {len(programs)} programs"
            )
        if config.protocol == "rudolph-segall" and config.cache.words_per_block != 1:
            raise ConfigError(
                "Rudolph-Segall requires one-word blocks (Section E.4); "
                "set cache.words_per_block=1"
            )
        self.config = config
        #: None defers to the module-level FAST_FORWARD_DEFAULT at run().
        self.fast_forward = fast_forward
        #: Resolves the engine's nondeterministic tie-breaks (bus
        #: arbitration, issue order, read source, waiter wake); ``None``
        #: keeps the built-in deterministic choices on the fast path.
        self.scheduler = scheduler
        self.clock = Clock()
        self.stamp_clock = StampClock()
        self.stats = SimStats()
        self.trace = TraceLog(enabled=True) if trace else NULL_TRACE
        #: Observability rides the trace listener hook, so enabling it
        #: promotes the shared null trace to a private (storage-disabled)
        #: log that forwards events to the sampler.
        self.obs = obs if obs is not None else NULL_OBS
        if self.obs.active and self.trace is NULL_TRACE:
            self.trace = TraceLog(enabled=False)
        self.memory = MainMemory(config.cache.words_per_block)
        from repro.bus.fabric import build_fabric

        assert config.topology is not None
        self.bus = build_fabric(config.topology, self.memory, config.timing,
                                self.clock, self.stats, self.trace, self.obs)
        self.bus.scheduler = scheduler
        self.oracle = WriteOracle(self.stats, strict=config.strict_verify)

        protocol_cls = get_protocol(config.protocol)
        effective_rmw = config.rmw_method
        if (
            config.rmw_method is RmwMethod.LOCK_STATE
            and not protocol_cls.supports_lock_state()
        ):
            # Sensible per-protocol defaults when the configured method is
            # unavailable: the classic scheme and Rudolph-Segall serialize
            # RMWs through the memory unit (Feature 6, first method);
            # everything else holds the block in the cache.
            if config.protocol in ("write-through", "rudolph-segall"):
                effective_rmw = RmwMethod.MEMORY_HOLD
            else:
                effective_rmw = RmwMethod.CACHE_HOLD
        self.caches: list[SnoopingCache] = []
        for i in range(config.num_processors):
            cache = SnoopingCache(
                cache_id=i,
                config=config.cache,
                clock=self.clock,
                stamp_clock=self.stamp_clock,
                stats=self.stats,
                trace=self.trace,
                obs=self.obs,
            )
            cache.protocol = protocol_cls(cache)
            cache.memory = self.memory
            cache.oracle = self.oracle
            cache.rmw_method = effective_rmw
            cache.rmw_modify_cycles = config.timing.rmw_modify_cycles
            self.caches.append(cache)
            self.bus.attach(cache)

        self.io: IOProcessor | None = None
        if config.with_io:
            self.io = IOProcessor(self.memory, self.stamp_clock, self.stats)
            self.io.oracle = self.oracle
            self.bus.attach(self.io)

        self.processors: list[Processor] = [
            Processor(
                pid=i,
                cache=self.caches[i],
                program=programs[i],
                stamp_clock=self.stamp_clock,
                stats=self.stats.processor(i),
                wait_mode=config.wait_mode,
                obs=self.obs,
            )
            for i in range(config.num_processors)
        ]
        if self.obs.active:
            self.obs.bind(self.trace, self.stats)

        self.checker = InvariantChecker.for_system(
            self.caches, self.memory, self.oracle,
            serialized=config.strict_verify,
        )
        self._check_interval = check_interval
        self._last_progress_sig: tuple = ()
        self._last_progress_cycle = 0
        self._directories = [cache.directory for cache in self.caches]
        self._watchdog_deadline: float | None = None
        self._watchdog_budget = 0.0
        self._watchdog_started = 0.0

    # -- running ----------------------------------------------------------

    @property
    def done(self) -> bool:
        for p in self.processors:
            if p._state is not _State.DONE:
                return False
        # The request hint is exact once every processor is done: a
        # pending op would keep its processor stalled, so only detached
        # requests (which the hint reports faithfully) can remain.
        if self.bus.busy or any(c.has_request_hint() for c in self.caches):
            return False
        if self.io is not None and not self.io.idle:
            return False
        return True

    def step(self) -> None:
        """Advance the whole system by one bus cycle."""
        self.bus.step()
        self._finish_cycle()

    def _finish_cycle(self) -> None:
        """The processor half of :meth:`step`.  The fast-forward loop
        calls this directly on cycles where the bus is provably inert
        (not busy, no release owed, no request hint posted), skipping the
        no-op arbitration scan."""
        cycle = self.clock.cycle
        if self.scheduler is None:
            # Inlined passive-processor accounting.  A processor that
            # cannot act this cycle (mid-compute, parked on the cache/
            # lock, or finished) only increments one counter; handling
            # that here skips the tick dispatch for the common case.
            # The branches mirror Processor.tick exactly, and anything
            # that might act falls through to the real tick().  tick()
            # stamps _now first, but _now is only read on acting paths,
            # which always go through tick() -- the same contract
            # advance_quiet() relies on.
            for p in self.processors:
                state = p._state
                if state is _State.STALLED:
                    if p._crossbar_op is None:
                        pend = p.cache.pending
                        if pend is None or not pend.completed:
                            if pend is not None and pend.lock_wait:
                                if (p.wait_mode is WaitMode.WORK
                                        and p._ready_work_left > 0):
                                    p._ready_work_left -= 1
                                    p.stats.wait_work_cycles += 1
                                else:
                                    p.stats.wait_idle_cycles += 1
                            else:
                                p.stats.stall_cycles += 1
                            continue
                    p.tick(cycle)
                elif state is _State.COMPUTING:
                    if p._compute_left > 1:
                        p._compute_left -= 1
                        p.stats.compute_cycles += 1
                    else:
                        p.tick(cycle)
                elif state is _State.DONE:
                    p.stats.done_cycles += 1
                else:
                    p.tick(cycle)
        else:
            self._tick_scheduled(cycle)
        self.stats.cycles += 1
        self.clock.cycle = cycle + 1
        obs = self.obs
        if obs.active and self.stats.cycles >= obs.next_advance:
            obs.on_advance(self.stats.cycles)
        if self._check_interval and self.stats.cycles % self._check_interval == 0:
            self.checker.check_all()

    def _tick_scheduled(self, cycle: int) -> None:
        """Tick the processors with the issue order as a choice point.

        Only processors that will *act* this cycle (issue, retire, or
        collect -- ``next_event_cycle() == cycle``) are permuted; the
        rest merely account idle/compute cycles, which commutes.  The
        default order (ascending pid) is candidate 0, so the base
        scheduler reproduces the unscheduled engine exactly.
        """
        scheduler = self.scheduler
        assert scheduler is not None
        active = [p for p in self.processors
                  if p.next_event_cycle(cycle) == cycle]
        passive = [p for p in self.processors if p not in active]
        while active:
            index = 0
            if len(active) > 1:
                index = scheduler.choose(
                    ChoiceKind.ISSUE_ORDER,
                    [p.pid for p in active], cycle=cycle,
                )
            active.pop(index).tick(cycle)
        for processor in passive:
            processor.tick(cycle)

    def run(self, max_cycles: int | None = None,
            fast_forward: bool | None = None,
            max_wall_seconds: float | None = None) -> SimStats:
        """Run to completion (or ``max_cycles``); returns the statistics.

        ``fast_forward`` overrides the Simulator's mode for this run; both
        modes produce identical statistics (see the module docstring).

        ``max_wall_seconds`` arms the engine watchdog: a run that is
        still going after that much wall-clock time is aborted with a
        :class:`~repro.common.errors.WatchdogTimeout` carrying a
        :meth:`diagnostics` snapshot (bus, cache, and lock-queue state)
        so a wedged simulation is debuggable post mortem.  The check
        runs every :data:`WATCHDOG_STRIDE` cycles, so the overshoot is
        bounded by the wall time of one stride.
        """
        self.arm_watchdog(max_wall_seconds)
        if fast_forward is None:
            fast_forward = self.fast_forward
        if fast_forward is None:
            fast_forward = FAST_FORWARD_DEFAULT
        if fast_forward:
            return self._run_fast(max_cycles)
        horizon = self.config.deadlock_horizon
        step = self.step
        watch = self._watch_progress
        stats = self.stats
        deadline = self._watchdog_deadline
        countdown = 0
        while not self.done:
            if max_cycles is not None and stats.cycles >= max_cycles:
                break
            if deadline is not None:
                if countdown == 0:
                    countdown = WATCHDOG_STRIDE
                    self.check_watchdog()
                countdown -= 1
            step()
            watch(horizon)
        return self._finish()

    # -- the wall-clock watchdog ------------------------------------------

    def arm_watchdog(self, max_wall_seconds: float | None) -> None:
        if max_wall_seconds is None:
            self._watchdog_deadline = None
            self._watchdog_budget = 0.0
            self._watchdog_started = 0.0
        else:
            self._watchdog_started = time.monotonic()
            self._watchdog_budget = float(max_wall_seconds)
            self._watchdog_deadline = (self._watchdog_started
                                       + self._watchdog_budget)

    def check_watchdog(self) -> None:
        now = time.monotonic()
        if now < self._watchdog_deadline:
            return
        elapsed = now - self._watchdog_started
        diagnostics = self.diagnostics()
        raise WatchdogTimeout(
            f"simulation exceeded its {self._watchdog_budget:.3g}s "
            f"wall-clock budget at cycle {self.stats.cycles} "
            f"({elapsed:.3g}s elapsed); diagnostics: {diagnostics}",
            diagnostics=diagnostics,
            elapsed_seconds=elapsed,
            budget_seconds=self._watchdog_budget,
        )

    def diagnostics(self) -> dict:
        """A plain-data snapshot of where every component stands --
        what the watchdog dumps when it aborts a wedged run."""
        bus: dict = {
            "busy": bool(self.bus.busy),
            "next_event_cycle": self.bus.next_event_cycle(),
        }
        pending_requests = [c.id for c in self.caches
                            if c.has_bus_request()]
        caches = []
        for cache in self.caches:
            pending = cache.pending
            register = getattr(cache, "busy_wait", None)
            caches.append({
                "cache": cache.id,
                "pending_op": (str(pending.op) if pending is not None
                               else None),
                "busy_wait": (
                    {"block": register.block,
                     "phase": register.phase.value,
                     "armed_at": register.armed_at}
                    if register is not None and register.active else None
                ),
            })
        processors = [
            {"pid": p.pid, "done": p.done, "pc": p.pc,
             "state": p._state.name.lower(),
             "ops_completed": p.stats.ops_completed}
            for p in self.processors
        ]
        return {
            "cycle": self.stats.cycles,
            "done": self.done,
            "bus": bus,
            "bus_requests_pending": pending_requests,
            "caches": caches,
            "processors": processors,
            "lock_queue": [
                {"cache": c.id, "block": c.busy_wait.block,
                 "phase": c.busy_wait.phase.value}
                for c in self.caches if c.busy_wait.active
            ],
        }

    def _run_fast(self, max_cycles: int | None) -> SimStats:
        """The event-skip loop: equivalent to the stepped loop, but quiet
        spans are applied in bulk instead of cycle-by-cycle."""
        horizon = self.config.deadlock_horizon
        check = self._check_interval
        stats = self.stats
        clock = self.clock
        bus = self.bus
        processors = self.processors
        step = self.step
        watch = self._watch_progress
        while not self.done:
            now = stats.cycles
            if max_cycles is not None and now >= max_cycles:
                break
            # One wall-clock check per event (each iteration may cover an
            # arbitrarily long quiet span, so stride batching is wrong
            # here -- a single iteration is already "many cycles").
            if self._watchdog_deadline is not None:
                self.check_watchdog()
            bus_next = bus.next_event_cycle()
            target = bus_next
            if target > now:
                # Inlined Processor.next_event_cycle over all processors
                # (the scan runs once per event and dominates the loop's
                # bookkeeping; branch-for-branch identical to the method).
                for p in processors:
                    state = p._state
                    if state is _State.DONE:
                        continue  # NEVER
                    if state is _State.COMPUTING:
                        t = now + p._compute_left - 1
                    elif state is _State.STALLED:
                        if p._crossbar_op is not None:
                            u = p._crossbar_until
                            t = u if u > now else now
                        else:
                            pend = p.cache.pending
                            if pend is None or not pend.completed:
                                continue  # NEVER
                            t = now
                    else:
                        t = now
                    if t < target:
                        target = t
            # Never jump past a cycle where the stepped engine would act:
            # the deadlock horizon fires on simulated cycles regardless of
            # how they were advanced, the invariant checker observes every
            # check_interval boundary, and max_cycles is a hard stop.
            limit = self._last_progress_cycle + horizon + 1
            if target > limit:
                target = limit
            if check:
                boundary = now + check - now % check
                if target > boundary:
                    target = boundary
            if max_cycles is not None and target > max_cycles:
                target = max_cycles
            if target > now:
                skip = target - now
                stats.cycles = target
                clock.cycle = target
                for processor in processors:
                    processor.advance_quiet(skip)
                # Quiet-span fill: every interval boundary inside the
                # span is sampled here with the (unchanged) counters the
                # stepped engine would have seen on that cycle.
                if self.obs.active and target >= self.obs.next_advance:
                    self.obs.on_advance(target)
                if check and target % check == 0:
                    self.checker.check_all()
                # Every signature component is monotonic, so comparing
                # endpoints sees exactly the changes the stepped engine
                # would have seen cycle-by-cycle.  A mid-span check can
                # therefore only matter on the one cycle the stepped
                # engine could raise at -- the horizon limit.
                at_max = max_cycles is not None and target >= max_cycles
                if target == limit or at_max:
                    watch(horizon)
                if at_max:
                    break
                # ``done`` can flip inside a quiet span purely by time
                # passing (the final occupancy expiring with every
                # processor finished); neither engine executes that
                # release cycle.
                if self.done:
                    break
            # Execute the event cycle (or the capped boundary) normally.
            # When the bus's own next event lies beyond this cycle it is
            # provably inert here (processors acting now post requests
            # that arbitrate next cycle, exactly as in the stepped
            # engine), so its step can be skipped outright.
            if bus_next > stats.cycles:
                self._finish_cycle()
            else:
                step()
            watch(horizon)
        return self._finish()

    def _finish(self) -> SimStats:
        if self._check_interval:
            self.checker.check_all()
        self.stats.directory_interference_cycles = sum(
            c.directory.interference_cycles for c in self.caches
        )
        if self.obs.active:
            self.obs.on_run_end(self.stats.cycles)
        return self.stats

    def _watch_progress(self, horizon: int) -> None:
        ops = compute = 0
        for p in self.processors:
            stats = p.stats
            ops += stats.ops_completed
            compute += stats.compute_cycles
        # bus_busy_cycles moves exactly when a transaction is recorded
        # (every duration is >= 1), so it is interchangeable with the
        # transaction count as a progress signal -- and O(1) to read.
        signature = (
            ops,
            compute,
            self.stats.bus_busy_cycles,
            self.stats.read_hits + self.stats.write_hits,
        )
        if signature != self._last_progress_sig:
            self._last_progress_sig = signature
            self._last_progress_cycle = self.stats.cycles
        elif self.stats.cycles - self._last_progress_cycle > horizon:
            waiting = [p.pid for p in self.processors if not p.done]
            raise DeadlockError(
                f"no progress for {horizon} cycles at cycle "
                f"{self.stats.cycles}; processors not done: {waiting}"
            )


def run_workload(
    config: SystemConfig,
    programs: Sequence[Program],
    *,
    max_cycles: int | None = None,
    check_interval: int = 0,
    trace: bool = False,
    fast_forward: bool | None = None,
    obs: Observability | None = None,
    max_wall_seconds: float | None = None,
) -> SimStats:
    """Build a simulator, run it to completion, and return its stats.

    ``max_wall_seconds`` arms the engine watchdog (see
    :meth:`Simulator.run`)."""
    sim = Simulator(config, programs, trace=trace,
                    check_interval=check_interval, fast_forward=fast_forward,
                    obs=obs)
    return sim.run(max_cycles=max_cycles, max_wall_seconds=max_wall_seconds)
