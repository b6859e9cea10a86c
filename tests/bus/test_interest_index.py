"""Interest-indexed snoop delivery, checked directly.

A broadcast reaches only the caches indexed under its block on the bus
owning that block (plus ports that cannot report interest); every other
cache would have answered a fast miss.  The index must never miss a
cache that ``cares_about`` the block -- a missed cache skips a snoop
that would have changed its state -- so these tests compare it with a
full scan after every bus step.  The skipped caches' directory snoops
are accounted in bulk by the fabric's ledger; the accounting tests pin
the interference and snoop counts of same-cycle status writes and
grants, in both orders, to the values the visit-every-cache delivery
produced.
"""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.bus.fabric import build_fabric
from repro.common.config import RmwMethod, TimingConfig, TopologyConfig
from repro.obs.core import NULL_OBS
from repro.processor import isa
from repro.processor.program import Program
from repro.sim.engine import Simulator
from repro.sim.harness import ManualSystem
from repro.sim.schedule import RandomScheduler
from repro.workloads import (interleaved_sharing, lock_contention, migration,
                             scale_probe)

TOPOLOGIES = {
    "snoop": TopologyConfig(),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "clustered-2": TopologyConfig(kind="clustered", clusters=2),
}

WORDS = 4


def _config(topology: TopologyConfig, n: int = 6, **kwargs) -> SystemConfig:
    return SystemConfig(
        num_processors=n,
        protocol="bitar-despain",
        cache=CacheConfig(words_per_block=WORDS, num_blocks=8),
        topology=topology,
        **kwargs,
    )


def _owning_bus(sim, block: int):
    return sim.bus.buses[sim.bus.bus_of(block)]


def _check_indexed(sim, blocks: set[int]) -> int:
    """Full scan: for every cache and every block it could touch,
    ``cares_about`` holds exactly when the cache is indexed under the
    block on the bus owning it, and no bus indexes a block it does not
    own.  Returns the number of caring (cache, block) pairs seen."""
    caring = 0
    for cache in sim.caches:
        for block in blocks:
            bus = _owning_bus(sim, block)
            position = sim.bus._position[cache.id]
            indexed = position in bus._interest.get(block, ())
            cares = cache.cares_about(block)
            assert indexed == cares, (
                f"cycle {sim.clock.cycle}: cache {cache.id} "
                f"{'cares about' if cares else 'is indexed under'} block "
                f"{block} but {'is not indexed' if cares else 'does not care'}"
                f" on bus {bus.index}")
            caring += cares
    for bus in sim.bus.buses:
        for block in bus._interest:
            assert _owning_bus(sim, block) is bus
    return caring


def _blocks_of(programs: list, extra=()) -> set[int]:
    blocks = set(extra)
    for program in programs:
        for op in program.ops:
            if op.addr is not None:
                blocks.add(op.addr - op.addr % WORDS)
    return blocks


def _rmw_programs(config: SystemConfig) -> list[Program]:
    """Fetch-and-adds on two shared blocks, with reads of a third."""
    ops = []
    for k in range(4):
        ops += [isa.rmw(0, isa.fetch_and_add(1)),
                isa.read(8 + k % 2),
                isa.rmw(4, isa.fetch_and_add(1)),
                isa.compute(2)]
    return [Program(list(ops), name=f"p{i}")
            for i in range(config.num_processors)]


WORKLOADS = {
    "lock-contention": (lambda c: lock_contention(c, rounds=3,
                                                  think_cycles=5), {}),
    "sharing": (lambda c: interleaved_sharing(c, references=60), {}),
    "cache-hold-rmw": (_rmw_programs,
                       {"rmw_method": RmwMethod.CACHE_HOLD}),
}

#: Blocks checked beyond the programs' own: one nobody touches.
UNTOUCHED = (32,)


def _run_checked(config: SystemConfig, make_programs, scheduler=None):
    programs = make_programs(config)
    sim = Simulator(config, programs, scheduler=scheduler)
    blocks = _blocks_of(programs, UNTOUCHED)
    bus_step = sim.bus.step
    steps = []

    def step():
        active = bus_step()
        steps.append(_check_indexed(sim, blocks))
        return active

    sim.bus.step = step
    stats = sim.run()
    _check_indexed(sim, blocks)
    return sim, stats, sum(steps)


class TestIndexCompleteness:
    @pytest.mark.parametrize("seeded", [False, True],
                             ids=["default", "random-schedule"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_cares_exactly_when_indexed(self, name, workload, seeded):
        make_programs, options = WORKLOADS[workload]
        config = _config(TOPOLOGIES[name], **options)
        scheduler = RandomScheduler(11) if seeded else None
        sim, stats, caring = _run_checked(config, make_programs, scheduler)
        assert sim.done
        assert caring > 0
        if workload == "lock-contention":
            assert stats.unlock_broadcasts > 0
            assert stats.lock_waits_started > 0
        assert stats.stale_reads == 0

    def test_delivery_skips_caches_that_do_not_care(self):
        """The point of the index: on a sharing stream most broadcasts
        reach a few caches, while the modelled bus still broadcasts."""
        config = _config(TopologyConfig(), n=16)
        sim = Simulator(config, scale_probe(config, total_references=640))
        delivered = []
        granted = {cache.id: 0 for cache in sim.caches}
        for cache in sim.caches:
            snoop = cache.snoop
            take = cache.take_bus_transaction

            def counting(txn, snoop=snoop):
                delivered.append(txn)
                return snoop(txn)

            def taking(cache_id=cache.id, take=take):
                granted[cache_id] += 1
                return take()

            cache.snoop = counting
            cache.take_bus_transaction = taking
        stats = sim.run()
        assert len(delivered) < 0.5 * stats.total_transactions * 15
        # Every cache still counts every other cache's transaction.
        for cache in sim.caches:
            assert cache.directory.snoops == (
                stats.total_transactions - granted[cache.id])


class TestPushSites:
    """Each way a cache comes to care, or stops caring, reaches the
    index at once (ManualSystem: one snoop bus, no processors)."""

    def _indexed(self, sys: ManualSystem, cache: int, block: int) -> bool:
        return cache in sys.bus.buses[0]._interest.get(block, ())

    def test_install_tags_and_retags(self):
        sys = ManualSystem(n_caches=2, cache_config=CacheConfig(
            words_per_block=WORDS, num_blocks=1))
        sys.run_op(0, isa.read(0))
        assert self._indexed(sys, 0, 0)
        sys.run_op(0, isa.read(4))  # the only frame is retagged
        assert self._indexed(sys, 0, 4)
        assert not self._indexed(sys, 0, 0)

    def test_invalid_tagged_frame_stays_indexed(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(0, isa.read(0))
        sys.run_op(1, isa.write(0, 5))  # invalidates cache 0's copy
        assert sys.caches[0].line_for(0) is None
        assert sys.caches[0].cares_about(0)
        assert self._indexed(sys, 0, 0)

    def test_wait_is_indexed_until_cancelled(self):
        sys = ManualSystem(n_caches=2)
        sys.run_op(0, isa.lock(0))
        sys.submit(1, isa.lock(0))
        sys.drain()
        waiter = sys.caches[1]
        assert waiter.waiting_for_lock
        assert not waiter.array._tagged.get(0)
        assert self._indexed(sys, 1, 0)
        waiter.cancel_wait()
        assert not self._indexed(sys, 1, 0)

    def test_armed_waiter_wakes_on_unlock(self):
        sys = ManualSystem(n_caches=3)
        sys.run_op(0, isa.lock(0))
        sys.submit(1, isa.lock(0))
        sys.drain()
        assert self._indexed(sys, 1, 0)
        assert not self._indexed(sys, 2, 0)
        sys.run_op(0, isa.unlock(0, 9))
        sys.drain()
        for _ in range(50):
            if sys.caches[1].take_completion() is not None:
                break
            sys.step()
        else:
            pytest.fail("the armed waiter never took the lock")
        assert sys.stats.unlock_broadcasts == 1


# -- bulk accounting -------------------------------------------------------

#: Block on bus 0 and block on bus 1 of a two-bus fabric.
X, Y = 0, 4


def _manual(fabric: str, protocol: str) -> ManualSystem:
    sys = ManualSystem(protocol, n_caches=3, cache_config=CacheConfig(
        words_per_block=WORDS, num_blocks=8))
    if fabric == "multibus-2":
        bus = build_fabric(TopologyConfig(kind="multibus", buses=2),
                           sys.memory, TimingConfig(), sys.clock, sys.stats,
                           sys.trace, NULL_OBS)
        for cache in sys.caches:
            bus.attach(cache)
        sys.bus = bus
    return sys


def _counters(caches) -> list[tuple[int, int, int]]:
    return [(c.directory.status_writes, c.directory.snoops,
             c.directory.interference_cycles) for c in caches]


#: Recorded with the delivery that snooped every cache: cache 0's status
#: write collides with cache 1's read; cache 2 never cares about either
#: block and snoops both transactions.
PINNED = [(1, 1, 1), (0, 1, 0), (0, 2, 0)]

ORDERS = ("write-before-grant", "grant-before-write")


class TestBulkAccounting:
    @pytest.mark.parametrize("protocol", ["illinois", "bitar-despain"])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("fabric", ["snoop", "multibus-2"])
    def test_write_hit_and_grant_same_cycle(self, fabric, order, protocol):
        """Cache 0 holds Y clean-exclusive and write-hits it (a status
        write) on the cycle cache 1's read of X -- a block cache 0 never
        cares about -- is granted."""
        sys = _manual(fabric, protocol)
        sys.run_op(0, isa.read(Y))
        assert sys.line_state(0, Y).name == "WRITE_CLEAN"
        sys.drain()
        sys.submit(1, isa.read(X))
        if order == "write-before-grant":
            sys.submit(0, isa.write(Y, 7))
            sys.step()
        else:
            sys.bus.step()
            sys.submit(0, isa.write(Y, 7))
            sys.stats.cycles += 1
            sys.clock.tick()
        sys.drain()
        assert not sys.caches[0].cares_about(X)
        assert _counters(sys.caches) == PINNED

    @pytest.mark.parametrize("protocol", ["illinois", "bitar-despain"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_two_grants_one_cycle(self, order, protocol):
        """Two buses grant in one step: cache 0's write miss (its status
        write happens at its own grant) and cache 1's read of the block
        on the other bus; bus 0 grants first."""
        sys = _manual("multibus-2", protocol)
        mine, theirs = (X, Y) if order == "write-before-grant" else (Y, X)
        sys.submit(0, isa.write(mine, 7))
        sys.submit(1, isa.read(theirs))
        sys.step()
        sys.drain()
        assert _counters(sys.caches) == PINNED

    @pytest.mark.parametrize("case", [
        # (fabric, protocol, workload, seed, n,
        #  directory_interference_cycles, per cache, per-cache snoops)
        ("snoop", "goodman", "migration", 1, 4,
         11, [2, 3, 3, 3], [136, 138, 140, 141]),
        ("multibus-2", "illinois", "scale-probe", 0, 6,
         8, [0, 5, 0, 2, 1, 0], [207, 215, 207, 208, 207, 196]),
    ], ids=["snoop-goodman", "multibus-2-illinois"])
    def test_whole_runs(self, case):
        (fabric, protocol, workload, seed, n,
         total, per_cache, snoops) = case
        config = SystemConfig(
            num_processors=n, protocol=protocol, seed=seed,
            topology=(TopologyConfig() if fabric == "snoop"
                      else TopologyConfig(kind="multibus", buses=2)),
            cache=CacheConfig(words_per_block=WORDS, num_blocks=16))
        programs = (migration(config) if workload == "migration"
                    else scale_probe(config, total_references=96 * n))
        sim = Simulator(config, programs)
        stats = sim.run()
        assert stats.directory_interference_cycles == total
        assert [c.directory.interference_cycles
                for c in sim.caches] == per_cache
        assert [c.directory.snoops for c in sim.caches] == snoops
