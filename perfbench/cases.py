"""The benchmark's workloads, built only from the simulator's public API.

Each workload is a machine (``SystemConfig``/``TopologyConfig``) plus the
programs a ``repro.workloads`` generator makes for it.  The seed reaches
the simulator only through ``SystemConfig.seed`` and the generated
programs.  Every simulation runs on the fast-forward engine.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

from repro import CacheConfig, Simulator, SystemConfig
from repro.analysis.sweeps import Sweep
from repro.common.config import TopologyConfig
from repro.workloads import lock_contention, scale_probe

LOCKS = "locks-16"
DIRECTORY = "directory-256"
SWEEP = "snoop-sweep"
WORKLOADS = (LOCKS, DIRECTORY, SWEEP)

PROTOCOL = "bitar-despain"
#: The paper's lock under contention: short think time, so waiters queue
#: and every passage goes through the lock-waiter state, the unlock
#: broadcast and priority arbitration.  Critical sections are the
#: generator's default one read and two writes.
LOCK_THINK_CYCLES = 40
#: The directory fabric at the size ``BENCH_engine.json`` records in its
#: topology section (4 home banks, full bit vector).
DIRECTORY_BANKS = 4
#: The largest broadcast sweep stays at most this wide; more workers
#: than the machine has cores would only measure the host scheduler.
SWEEP_MAX_JOBS = 2


@dataclass(frozen=True)
class Size:
    """How much work one operation of a workload does."""

    #: Machine size of a single-system workload.
    processors: int
    #: Lock passages per processor (``locks-16`` only).
    rounds: int = 0
    #: Machine sizes of the sweep's points (``snoop-sweep`` only).
    sweep: tuple[int, ...] = ()


FULL = {
    LOCKS: Size(processors=16, rounds=200),
    DIRECTORY: Size(processors=256),
    SWEEP: Size(processors=0, sweep=tuple(range(8, 65, 8))),
}
#: Tiny sizes for the benchmark's own tests.
TINY = {
    LOCKS: Size(processors=4, rounds=3),
    DIRECTORY: Size(processors=8),
    SWEEP: Size(processors=0, sweep=(2, 4)),
}
SIZES = {"full": FULL, "tiny": TINY}


def make_config(workload: str, seed: int, processors: int) -> SystemConfig:
    """The machine one simulation of ``workload`` runs on.  Sweep points
    use the ``snoop-sweep`` machine at their own processor count."""
    if workload == DIRECTORY:
        topology = TopologyConfig(kind="directory",
                                  directory_banks=DIRECTORY_BANKS)
    else:
        topology = TopologyConfig()
    return SystemConfig(
        num_processors=processors,
        protocol=PROTOCOL,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
        topology=topology,
        seed=seed,
    )


def make_programs(workload: str, config: SystemConfig, rounds: int = 0) -> list:
    if workload == LOCKS:
        return lock_contention(config, rounds=rounds,
                               think_cycles=LOCK_THINK_CYCLES)
    return scale_probe(config)


def make_simulator(config: SystemConfig, programs: list) -> Simulator:
    return Simulator(config, programs, fast_forward=True)


def sweep_point(n, *, seed: int) -> "object":
    """One ``snoop-sweep`` point: module-level so the sweep executor can
    pickle it into its worker processes.  Returns the run's SimStats."""
    config = make_config(SWEEP, seed, int(n))
    programs = make_programs(SWEEP, config)
    return make_simulator(config, programs).run()


def _cycles(stats) -> int:
    return stats.cycles


def make_sweep(seed: int, size: Size) -> Sweep:
    """The ``snoop-sweep`` plan: one point per machine size."""
    return Sweep(xs=list(size.sweep),
                 run=functools.partial(sweep_point, seed=seed),
                 metrics={"cycles": _cycles})


def messages(workload: str, stats, processors: int, simulator=None) -> int:
    """Interconnect messages a run sent.  A snoop-bus transaction is
    delivered to every other cache; the directory counts its own
    point-to-point messages."""
    if workload == DIRECTORY:
        return sum(simulator.bus.message_tallies().values())
    return stats.total_transactions * (processors - 1)


def operations(workload: str, stats) -> int:
    """Units of workload progress: lock passages on ``locks-16``,
    memory references on the scale-probe workloads."""
    if workload == LOCKS:
        return stats.total_lock_acquisitions
    return stats.total_reads + stats.total_writes


def check(workload: str, stats, processors: int, rounds: int) -> list[str]:
    """Why a finished run's output is wrong; empty when it is right.

    ``lost_updates`` is checked on the lock workload only: scale-probe
    writes race by design, and the write oracle counts the losers of
    those races as lost updates legitimately."""
    problems = []
    if stats.stale_reads:
        problems.append(f"{stats.stale_reads} stale reads")
    if stats.coherence_violations:
        problems.append(f"{stats.coherence_violations} coherence violations")
    if workload == LOCKS:
        if stats.lost_updates:
            problems.append(f"{stats.lost_updates} lost updates")
        expected = processors * rounds
        if stats.total_lock_acquisitions != expected:
            problems.append(f"{stats.total_lock_acquisitions} lock "
                            f"acquisitions, expected {expected}")
    return problems


def digest(stats) -> str:
    """A fingerprint of everything a run's statistics say."""
    payload = stats.to_payload()
    payload["coherence_violations"] = stats.coherence_violations
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
