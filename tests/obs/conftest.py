"""Shared fixtures: one observed simulation run, reused per module."""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.obs import Observability
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention


def _observed_run(protocol: str = "bitar-despain", *, n: int = 4,
                  interval: int = 50, stepped: bool = False,
                  **workload_kwargs):
    """Run a contended-lock workload with observability attached
    (``stepped`` runs the cycle-stepped reference loop)."""
    config = SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=True,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    style = (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
             else LockStyle.TTAS)
    workload_kwargs.setdefault("rounds", 5)
    workload_kwargs.setdefault("think_cycles", 9)
    programs = lock_contention(config, lock_style=style, **workload_kwargs)
    obs = Observability(interval=interval)
    sim = Simulator(config, programs, obs=obs)
    stats = sim.run_stepped() if stepped else sim.run()
    return obs, stats


@pytest.fixture(scope="session")
def observed_run():
    """The run helper itself, for tests that need custom parameters."""
    return _observed_run


@pytest.fixture(scope="session")
def observed():
    """A contended bitar-despain run: (Observability, SimStats)."""
    return _observed_run("bitar-despain")
