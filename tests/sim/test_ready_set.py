"""The event loop's ready sets, checked directly.

The event loop acts only on what was pushed to it: bus ready sets hold
the ports that posted a request, dirty sets the ports whose request must
be revalidated at the next arbitration, high-priority sets the ports
with a live priority request, and the due set plus the wake heap hold
the processors that can act.  All may over-approximate but must never
miss an entry; the equivalence tests only see a miss when it changes a
statistic, so these tests compare the pushed state against a full scan
after every bus step.  They also pin the point of the design -- work per
event flat in the machine size -- and that the push wiring keeps
finished processors out of reference cycles.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref

import pytest

from repro import CacheConfig, SystemConfig
from repro.bus.bus import Bus
from repro.cache.cache import SnoopingCache
from repro.common.config import TopologyConfig
from repro.common.errors import DeadlockError
from repro.processor.processor import Processor, _State
from repro.processor.program import Program
from repro.sim.engine import Simulator
from repro.sim.schedule import RandomScheduler
from repro.workloads import lock_contention, scale_probe

TOPOLOGIES = {
    "snoop": TopologyConfig(),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "clustered-2": TopologyConfig(kind="clustered", clusters=2),
    "directory-full": TopologyConfig(kind="directory", directory_banks=2),
    "directory-pointer": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="limited-pointer", directory_pointers=1),
    "directory-coarse": TopologyConfig(
        kind="directory", directory_banks=2,
        directory_entry="coarse-vector", directory_region_size=2),
}


def _config(topology: TopologyConfig, n: int,
            protocol: str = "bitar-despain", **kwargs) -> SystemConfig:
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        cache=CacheConfig(words_per_block=4, num_blocks=16),
        topology=topology,
        **kwargs,
    )


def _programs(config: SystemConfig) -> list:
    """Lock passages (unlock broadcasts, waiter wakes, priority
    arbitration) followed by a sharing stream (misses on every bank)."""
    locks = lock_contention(config, rounds=3, think_cycles=5)
    stream = scale_probe(config, total_references=48 * len(locks))
    return [dataclasses.replace(lock, ops=lock.ops + more.ops)
            for lock, more in zip(locks, stream)]


def _stream_programs(config: SystemConfig) -> list:
    """The sharing stream alone (for protocols without lock states)."""
    return scale_probe(config, total_references=48 * config.num_processors)


def _acts_now(p: Processor, now: int) -> bool:
    """``next_event_cycle(now) == now`` for a processor whose passive
    cycles may still be owed: a computing processor's countdown stands
    at its last settlement."""
    if p._state is _State.COMPUTING and p._owed_from is not None:
        return p._owed_from + p._compute_left - 1 == now
    return p.next_event_cycle(now) == now


def _routes_to(sim: Simulator, port, bus_index: int) -> bool:
    """Whether ``port`` has a request for bus ``bus_index``, with the
    routing worked out afresh from the request head's block rather than
    read from what the port recorded when it posted."""
    if not port.has_request_hint():
        return False
    block = getattr(port, "current_request_block", lambda: None)()
    if block is None:
        return bus_index == 0
    return sim.bus.bus_of(block) == bus_index


def _routed_here(port, bus) -> bool:
    """Whether ``bus`` sees a request of ``port``: one whose hint is up
    and that the port routed to ``bus`` when it posted."""
    return port.has_request_hint() and port.request_bus == bus.index


def _presence(cache) -> bool:
    """Whether ``cache`` holds a valid line for its pending op's block --
    the tag fact a revalidation reads."""
    return cache.line_for(cache.block_of(cache.pending.op.addr)) is not None


def _record_revalidations(sim: Simulator) -> dict:
    """Wrap every cache's revalidation to record, per cache id, the
    request it settled on and the tag presence it read."""
    seen: dict = {}
    for cache in sim.caches:
        revalidate = cache._revalidate_pending

        def recording(pending, cache=cache, revalidate=revalidate):
            revalidate(pending)
            seen[cache.id] = (pending.request, _presence(cache))

        cache._revalidate_pending = recording
    return seen


def _needs_revalidation(cache, seen: dict) -> bool:
    """The cache's queued request, or the tags it was revalidated
    against, changed since its last revalidation."""
    request, presence = seen.get(cache.id, (None, None))
    return (request is not cache.pending.request
            or presence != _presence(cache))


def _check_complete(sim: Simulator, seen: dict) -> int:
    """Full scan: nothing live is missing from a ready set, no request
    whose request or head-block tags changed since its last revalidation
    is missing from its bus's dirty set, and no live high-priority
    request is missing from the high set.  Returns the number of facts
    checked."""
    checked = 0
    for bus in sim.bus.buses:
        for position, port in enumerate(sim.bus._port_list):
            routed = _routed_here(port, bus)
            assert routed == _routes_to(sim, port, bus.index)
            if not routed:
                continue
            checked += 1
            assert position in bus._ready or position in bus._polled, (
                f"bus {bus.index}: port {port.id} has a request routed "
                f"here but is not in the ready set")
            if position in bus._dirty or position in bus._polled:
                continue
            assert port.request_block == port.current_request_block()
            if not port._detached:
                checked += 1
                assert not _needs_revalidation(port, seen), (
                    f"bus {bus.index}: port {port.id}'s request or tags "
                    f"changed since its last revalidation, but it is not "
                    f"in the dirty set")
            if port.bus_request_priority():
                checked += 1
                assert position in bus._high, (
                    f"bus {bus.index}: port {port.id} has a live priority "
                    f"request but is not in the high set")
    now = sim.clock.cycle
    due_on_heap = {pid for cycle, pid in sim._wakes if cycle <= now}
    for p in sim.processors:
        if _acts_now(p, now):
            checked += 1
            assert p.pid in sim._due or p.pid in due_on_heap, (
                f"processor {p.pid} acts at cycle {now} but is neither "
                f"due nor on the wake heap")
    return checked


def _run_checked(config: SystemConfig, scheduler=None, programs=_programs):
    sim = Simulator(config, programs(config), scheduler=scheduler)
    seen = _record_revalidations(sim)
    bus_step = sim.bus.step
    checked = []

    def step():
        active = bus_step()
        checked.append(_check_complete(sim, seen))
        return active

    sim.bus.step = step
    stats = sim.run()
    return sim, stats, sum(checked)


class TestReadySetCompleteness:
    @pytest.mark.parametrize("seeded", [False, True],
                             ids=["default", "random-schedule"])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_no_live_entry_missing(self, name, seeded):
        config = _config(TOPOLOGIES[name], n=6)
        scheduler = RandomScheduler(5) if seeded else None
        sim, stats, checked = _run_checked(config, scheduler)
        assert sim.done
        assert checked > 0, "the scan must have seen live requests"
        assert stats.unlock_broadcasts > 0
        # The watched run is still exact: it matches the stepped loop.
        reference = Simulator(
            config, _programs(config),
            scheduler=RandomScheduler(5) if seeded else None).run_stepped()
        assert stats.to_payload() == reference.to_payload()

    @pytest.mark.parametrize("protocol", ["goodman", "dragon"])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_multi_phase_request_is_revalidated(self, name, protocol):
        """Goodman's write-once miss and Dragon's write miss take a
        second bus phase: the grant that replaces the queued request
        must leave it in the dirty set."""
        config = _config(TOPOLOGIES[name], n=6, protocol=protocol)
        sim, stats, checked = _run_checked(config, programs=_stream_programs)
        assert sim.done and checked > 0
        reference = Simulator(config, _stream_programs(config)).run_stepped()
        assert stats.to_payload() == reference.to_payload()

    def test_stepping_then_running_rebuilds_the_due_set(self):
        config = _config(TOPOLOGIES["multibus-2"], n=4)
        sim = Simulator(config, _programs(config))
        for _ in range(37):
            sim.step()
        stats = sim.run()
        reference = Simulator(config, _programs(config)).run_stepped()
        assert stats.to_payload() == reference.to_payload()


class TestLazySettlement:
    def test_cancelled_wait_is_settled_first(self):
        """A lock wait abandoned mid-run flips the waiter's owed cycles
        from lock wait to stall under it; the cancel settles them first,
        so both loops split the waiter's cycles identically (the run then
        deadlocks on the orphaned waiter, at the same cycle)."""
        config = _config(TOPOLOGIES["snoop"], n=3, deadlock_horizon=300)
        outcomes = []
        for stepped in (True, False):
            sim = Simulator(config, lock_contention(config, rounds=2,
                                                    think_cycles=5))
            bus_step = sim.bus.step
            cancelled = []

            def step():
                granted = sim.stats.total_transactions
                active = bus_step()
                granted = sim.stats.total_transactions > granted
                # Cancel on a grant (a cycle both loops execute) a wait
                # armed on an earlier cycle, so cycles are owed to it.
                now = sim.clock.cycle
                waiting = [c for c in sim.caches if c.waiting_for_lock
                           and c.busy_wait.armed_at < now]
                if granted and waiting and not cancelled:
                    waiting[0].cancel_wait()
                    cancelled.append(sim.clock.cycle)
                return active

            sim.bus.step = step
            with pytest.raises(DeadlockError):
                sim.run_stepped() if stepped else sim.run()
            outcomes.append((cancelled, sim.stats.cycles, [
                dataclasses.asdict(sim.stats.processor(i))
                for i in range(3)]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0], "the run must have had a lock wait to cancel"


class _Counts:
    """Calls made to the methods the loop spends its per-event work on:
    port polls by the buses (split by whether the port had a request
    routed to the polling bus), request revalidations, and processor
    bookkeeping.  A bus polls a cache by first reading its
    ``request_bus`` (the routing check), so the polls are counted at
    the cache, as the reads of that attribute made by a bus."""

    BOOKKEEPING = ("tick", "settle", "next_event_cycle")

    def __init__(self, patch) -> None:
        self.live_polls = self.idle_polls = self.bookkeeping = 0
        self.revalidations = 0
        self.events = 0
        counts = self
        revalidate = SnoopingCache._revalidate_pending

        def read_route(cache) -> int:
            route = cache.__dict__["request_bus"]
            bus = sys._getframe(1).f_locals.get("self")
            if isinstance(bus, Bus):
                if cache.has_request_hint() and route == bus.index:
                    counts.live_polls += 1
                else:
                    counts.idle_polls += 1
            return route

        def write_route(cache, route: int) -> None:
            cache.__dict__["request_bus"] = route

        def revalidate_pending(cache, pending):
            counts.revalidations += 1
            return revalidate(cache, pending)

        patch.setattr(SnoopingCache, "request_bus",
                      property(read_route, write_route), raising=False)
        patch.setattr(SnoopingCache, "_revalidate_pending", revalidate_pending)
        for name in self.BOOKKEEPING:
            original = getattr(Processor, name)
            patch.setattr(Processor, name, self._counted(original))

    def _counted(self, original):
        counts = self

        def counted(processor, *args):
            counts.bookkeeping += 1
            return original(processor, *args)

        return counted

    def per_event(self) -> dict[str, float]:
        return {"live_polls": self.live_polls / self.events,
                "idle_polls": self.idle_polls / self.events,
                "revalidations": self.revalidations / self.events,
                "bookkeeping": self.bookkeeping / self.events}


def _directory(n: int) -> SystemConfig:
    """Scale-probe's machine (4 home banks, full bit vector)."""
    return SystemConfig(
        num_processors=n,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=4, num_blocks=64),
        topology=TopologyConfig(kind="directory", directory_banks=4),
    )


def _stream(config: SystemConfig) -> list:
    return scale_probe(config, total_references=1024)


def _per_event(monkeypatch, config: SystemConfig, programs) -> dict:
    """Work per event of one run (events as the loop counts them: one
    fabric ``next_event_cycle`` call per iteration)."""
    sim = Simulator(config, programs)
    with monkeypatch.context() as patch:
        counts = _Counts(patch)
        fabric_next = sim.bus.next_event_cycle

        def next_event_cycle():
            counts.events += 1
            return fabric_next()

        sim.bus.next_event_cycle = next_event_cycle
        sim.run()
    return counts.per_event()


class TestWorkPerEventIsFlat:
    """4x the processors.  A loop that polled every port or accounted
    every processor on every event would grow ~4x per event here."""

    def test_directory_scale_probe_32_vs_128(self, monkeypatch):
        small = _per_event(monkeypatch, _directory(32),
                           _stream(_directory(32)))
        large = _per_event(monkeypatch, _directory(128),
                           _stream(_directory(128)))
        assert large["bookkeeping"] < 1.5 * small["bookkeeping"], (small, large)
        # Polls of ports with nothing routed to the polling bus: the
        # O(N) scan the ready sets replace.
        assert large["idle_polls"] < 1.5 * small["idle_polls"], (small, large)
        # Polls of live requesters and revalidations are the arbitration
        # itself.  Scale-probe saturates the banks, so the waiting queue
        # grows with N; arbitration revalidates only the requests that
        # changed and stops at the round-robin winner, so neither count
        # follows the queue.
        assert large["live_polls"] < 1.5 * small["live_polls"], (small, large)
        assert large["revalidations"] < 1.5 * small["revalidations"], (
            small, large)

    def test_idle_ports_cost_nothing(self, monkeypatch):
        """The same 32 active processors on a 32- and a 128-port
        directory: every per-event count, live polls included, stays
        put when the extra ports never request."""
        small = _per_event(monkeypatch, _directory(32),
                           _stream(_directory(32)))
        idle = [Program([], name="idle") for _ in range(96)]
        large = _per_event(monkeypatch, _directory(128),
                           _stream(_directory(32)) + idle)
        for name in small:
            assert large[name] < 1.5 * small[name], (name, small, large)


class TestNoReferenceCycle:
    @pytest.mark.parametrize("name", ["snoop", "directory-full"])
    def test_finished_simulator_frees_its_processors(self, name):
        config = _config(TOPOLOGIES[name], n=4)
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulator(config, _programs(config))
            sim.run()
            processor = weakref.ref(sim.processors[0])
            del sim
            assert processor() is None, (
                "a processor outlived its simulator: something holds it "
                "in a reference cycle")
        finally:
            if enabled:
                gc.enable()
