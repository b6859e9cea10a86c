"""The dual/multi-bus broadcast system (Section A.2)."""

import pytest

from repro import CacheConfig, Program, Simulator, SystemConfig, run_workload
from repro.bus.multibus import Fabric
from repro.common.config import TopologyConfig
from repro.common.errors import ConfigError
from repro.processor import isa
from repro.workloads import interleaved_sharing, lock_contention


def dual(n=4, **kwargs) -> SystemConfig:
    return SystemConfig(num_processors=n,
                        topology=TopologyConfig(kind="multibus", buses=2),
                        **kwargs)


class TestConstruction:
    def test_engine_builds_multibus(self):
        sim = Simulator(dual(n=1), [Program([])])
        assert isinstance(sim.bus, Fabric)
        assert len(sim.bus.buses) == 2

    def test_zero_buses_rejected(self):
        with pytest.raises(ConfigError):
            TopologyConfig(kind="multibus", buses=0)

    def test_block_interleaving(self):
        sim = Simulator(dual(n=1), [Program([])])
        wpb = sim.memory.words_per_block
        assert sim.bus.bus_of(0) == 0
        assert sim.bus.bus_of(wpb) == 1
        assert sim.bus.bus_of(2 * wpb) == 0


class TestParallelism:
    def test_disjoint_blocks_transfer_concurrently(self):
        """Two fetches on different partitions overlap: the run is
        shorter than the serialized single-bus version."""
        def programs():
            return [Program([isa.read(0)]), Program([isa.read(4)])]

        single = run_workload(SystemConfig(num_processors=2),
                              programs()).cycles
        dual_cycles = run_workload(dual(n=2), programs()).cycles
        assert dual_cycles < single

    def test_same_partition_still_serializes(self):
        """Blocks 0 and 8 share bus 0 (even block numbers): no overlap."""
        def programs():
            return [Program([isa.read(0)]), Program([isa.read(8 * 4)])]

        single = run_workload(SystemConfig(num_processors=2),
                              programs()).cycles
        dual_cycles = run_workload(dual(n=2), programs()).cycles
        assert dual_cycles == single

    def test_throughput_gain_on_sharing(self):
        config1 = SystemConfig(num_processors=8)
        config2 = dual(n=8)
        cycles1 = run_workload(
            config1, interleaved_sharing(config1, references=150)).cycles
        cycles2 = run_workload(
            config2, interleaved_sharing(config2, references=150)).cycles
        assert cycles2 < cycles1 * 0.8


class TestCoherenceOnTwoBuses:
    def test_locks_work_across_partitions(self):
        config = dual(n=4)
        stats = run_workload(config, lock_contention(config, rounds=4),
                             check_interval=1)
        assert stats.failed_lock_attempts == 0
        assert stats.stale_reads == 0
        assert stats.total_lock_acquisitions == 16

    def test_sharing_stays_coherent_with_per_cycle_checks(self):
        config = dual(n=4, cache=CacheConfig(words_per_block=4, num_blocks=8))
        stats = run_workload(
            config, interleaved_sharing(config, references=120),
            check_interval=1,
        )
        assert stats.stale_reads == 0
        assert stats.lost_updates == 0

    def test_unlock_broadcast_routes_to_owning_bus(self):
        """The waiter must see the broadcast even though only the lock
        block's bus carries it."""
        config = dual(n=2)
        programs = [
            Program([isa.lock(0), isa.compute(5), isa.unlock(0)]),
            Program([isa.compute(2), isa.lock(0), isa.unlock(0)]),
        ]
        stats = run_workload(config, programs, check_interval=1)
        assert stats.total_lock_acquisitions == 2
        assert stats.unlock_broadcasts >= 1
