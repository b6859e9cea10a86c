"""Event-skip execution: exact equivalence with the stepped reference.

The contract is strong: for every protocol and workload, the event-skip
loop (:meth:`Simulator.run`) must produce *bit-identical* statistics to
the cycle-stepped reference (:meth:`Simulator.run_stepped`) -- same cycle
count, same per-transaction accounting, same per-processor counter
splits, same scheduler choices -- and raise deadlocks at the same cycle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CacheConfig, SystemConfig, run_workload
from repro.aquarius import AquariusSimulator, aquarius_workload
from repro.common.errors import ConfigError, DeadlockError
from repro.obs import Observability
from repro.processor import isa
from repro.processor.program import LockStyle, Program
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.sim.events import NULL_TRACE, EventKind, TraceLog
from repro.sim.schedule import RandomScheduler, RecordingScheduler
from repro.workloads import lock_contention, producer_consumer
from repro.workloads.false_sharing import dubois_briggs_sharing

WORKLOADS = {
    "lock_contention": lambda cfg, style: lock_contention(
        cfg, rounds=5, think_cycles=9, lock_style=style),
    "producer_consumer": lambda cfg, style: producer_consumer(
        cfg, items=5, think_cycles=7, lock_style=style),
    "false_sharing": lambda cfg, style: dubois_briggs_sharing(
        cfg, rounds=3, lock_style=style),
    "aquarius": lambda cfg, style: aquarius_workload(
        cfg, tasks_per_processor=3),
}

#: Workloads that need a Simulator subclass (the rest use Simulator).
SIMULATORS = {"aquarius": AquariusSimulator}

#: Every protocol on every workload, plus the Aquarius crossbar system
#: (its queue uses the proposal's lock instruction).
MATRIX = [(protocol, workload) for protocol in sorted(PROTOCOLS)
          for workload in sorted(WORKLOADS) if workload != "aquarius"]
MATRIX.append(("bitar-despain", "aquarius"))


def _config(protocol: str, n: int = 4, **kwargs) -> SystemConfig:
    wpb = 1 if protocol == "rudolph-segall" else 4
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=protocol != "write-through",
        cache=CacheConfig(words_per_block=wpb, num_blocks=64),
        **kwargs,
    )


def _style(protocol: str) -> LockStyle:
    return (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
            else LockStyle.TTAS)


def _snapshot(stats, n: int) -> dict:
    """Every statistic the simulator reports, field for field."""
    d = dict(stats.to_dict())
    d["txn_counts"] = dict(stats.txn_counts)
    d["txn_cycles"] = dict(stats.txn_cycles)
    d["procs"] = [dataclasses.asdict(stats.processor(i)) for i in range(n)]
    return d


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("protocol,workload", MATRIX)
    def test_identical_stats(self, protocol, workload):
        """Stats AND the observability layer's outputs -- the interval
        sample series, metric snapshot, and timeline slices -- must be
        bit-identical across the two engines."""
        config = _config(protocol)
        programs = WORKLOADS[workload](config, _style(protocol))
        simulator = SIMULATORS.get(workload, Simulator)
        stepped_obs = Observability(interval=64)
        fast_obs = Observability(interval=64)
        stepped = simulator(config, programs, obs=stepped_obs).run_stepped()
        fast = simulator(config, programs, obs=fast_obs).run()
        assert _snapshot(stepped, 4) == _snapshot(fast, 4)
        assert stepped_obs.result() == fast_obs.result()
        assert len(stepped_obs.result().samples) > 0

    def test_checker_interval_equivalent(self):
        config = _config("bitar-despain")
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        stepped = Simulator(config, programs, check_interval=7).run_stepped()
        fast = Simulator(config, programs, check_interval=7).run()
        assert _snapshot(stepped, 4) == _snapshot(fast, 4)

    def test_max_cycles_and_resume_equivalent(self):
        config = _config("bitar-despain", n=2)
        programs = [Program([isa.compute(400), isa.read(0), isa.write(0)]),
                    Program([isa.read(64), isa.compute(600), isa.write(64)])]
        stepped = Simulator(config, programs)
        fast = Simulator(config, programs)
        stepped.run_stepped(max_cycles=250)
        fast.run(max_cycles=250)
        assert _snapshot(stepped.stats, 2) == _snapshot(fast.stats, 2)
        assert not fast.done
        stepped.run_stepped()
        fast.run()
        assert stepped.done and fast.done
        assert _snapshot(stepped.stats, 2) == _snapshot(fast.stats, 2)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_random_schedule_identical(self, protocol):
        """A scheduler sees the same choice points, in the same order and
        at the same cycles, on both loops -- so a seeded random schedule
        takes the same choices and ends in the same statistics."""
        config = _config(protocol)
        programs = WORKLOADS["lock_contention"](config, _style(protocol))
        runs = []
        for stepped in (True, False):
            recorder = RecordingScheduler(RandomScheduler(3))
            sim = Simulator(config, programs, check_interval=1,
                            scheduler=recorder)
            stats = sim.run_stepped() if stepped else sim.run()
            runs.append((_snapshot(stats, 4), recorder.choices))
        assert runs[0] == runs[1]
        assert runs[0][1], "contended run must hit choice points"


class TestRemovedKnob:
    def test_fast_forward_true_still_accepted(self):
        config = _config("bitar-despain", n=2)
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        stats = Simulator(config, programs, fast_forward=True).run()
        ref = Simulator(config, programs).run_stepped()
        assert _snapshot(stats, 2) == _snapshot(ref, 2)

    def test_fast_forward_false_names_the_reference_loop(self):
        config = _config("bitar-despain", n=2)
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        with pytest.raises(ConfigError, match="run_stepped"):
            Simulator(config, programs, fast_forward=False)

    def test_negative_check_interval_rejected(self):
        config = _config("bitar-despain", n=2)
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        with pytest.raises(ConfigError, match="check_interval"):
            Simulator(config, programs, check_interval=-5)


class TestDeadlockEquivalence:
    def _abba(self):
        config = SystemConfig(num_processors=2, deadlock_horizon=500)
        a, b = 0, 64
        return config, [
            Program([isa.lock(a), isa.compute(30), isa.lock(b),
                     isa.unlock(b), isa.unlock(a)]),
            Program([isa.lock(b), isa.compute(30), isa.lock(a),
                     isa.unlock(a), isa.unlock(b)]),
        ]

    def test_lock_deadlock_raises_at_same_cycle(self):
        config, programs = self._abba()
        cycles = []
        for stepped in (True, False):
            sim = Simulator(config, programs)
            run = sim.run_stepped if stepped else sim.run
            with pytest.raises(DeadlockError):
                run(max_cycles=200000)
            cycles.append(sim.stats.cycles)
        assert cycles[0] == cycles[1]

    def test_horizon_measured_in_simulated_cycles(self):
        """A bulk jump across the horizon must still trip the watchdog --
        the event-skip loop may not sail past it in one skip."""
        config, programs = self._abba()
        sim = Simulator(config, programs)
        with pytest.raises(DeadlockError):
            sim.run(max_cycles=200000)
        # horizon + the two lock grants' aftermath, nowhere near max_cycles
        assert sim.stats.cycles < 2 * config.deadlock_horizon + 200

    def test_long_compute_is_not_deadlock(self):
        config = SystemConfig(num_processors=1, deadlock_horizon=100)
        stats = run_workload(config, [Program([isa.compute(5000)])])
        assert stats.processor(0).compute_cycles == 5000


class TestTraceEquivalence:
    def test_event_streams_identical(self):
        config = _config("bitar-despain")
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        stepped = Simulator(config, programs, trace=True)
        stepped.run_stepped()
        fast = Simulator(config, programs, trace=True)
        fast.run()
        assert stepped.trace.events() == fast.trace.events()
        assert len(fast.trace.events(EventKind.BUS_TXN)) > 0


class TestNullTrace:
    def test_disabled_simulator_uses_shared_null_object(self):
        config = _config("bitar-despain", n=2)
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        sim = Simulator(config, programs)
        assert sim.trace is NULL_TRACE
        assert not NULL_TRACE.active

    def test_null_trace_records_nothing(self):
        NULL_TRACE.emit(0, EventKind.BUS_TXN, txn="x")
        assert len(NULL_TRACE) == 0

    def test_null_trace_refuses_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_TRACE.subscribe(lambda event: None)

    def test_enabled_trace_is_private_and_active(self):
        config = _config("bitar-despain", n=2)
        programs = WORKLOADS["lock_contention"](config, LockStyle.CACHE_LOCK)
        sim = Simulator(config, programs, trace=True)
        assert isinstance(sim.trace, TraceLog)
        assert sim.trace is not NULL_TRACE
        assert sim.trace.active
