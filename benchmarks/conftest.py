"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it prints the
rows/series the paper reports (run with ``pytest benchmarks/
--benchmark-only -s`` to see them) and asserts the *shape* of the result
-- who wins, by roughly what factor -- since absolute numbers depend on
the timing model, not the authors' testbed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro import CacheConfig, LockStyle, SystemConfig

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

_wall_times: dict[str, float] = defaultdict(float)


def pytest_runtest_logreport(report):
    if report.when == "call":
        module = Path(report.nodeid.split("::", 1)[0]).stem
        _wall_times[module] += report.duration


def pytest_sessionfinish(session, exitstatus):
    """Record wall-time per bench module alongside the engine numbers.

    Merges into ``BENCH_engine.json`` the same way the benches do, so a
    partial run (``pytest benchmarks/bench_engine.py``) never clobbers
    the other entries.
    """
    if not _wall_times:
        return
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    wall = data.setdefault("wall_time", {})
    wall.update({k: round(v, 3) for k, v in sorted(_wall_times.items())})
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def config_for(protocol: str, *, n: int = 4, wpb: int = 4,
               blocks: int = 128, **kwargs) -> SystemConfig:
    if protocol == "rudolph-segall":
        wpb = 1
    strict = kwargs.pop("strict_verify", protocol != "write-through")
    return SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=strict,
        cache=CacheConfig(words_per_block=wpb, num_blocks=blocks,
                          **kwargs.pop("cache_kwargs", {})),
        **kwargs,
    )


def style_for(protocol: str) -> LockStyle:
    return LockStyle.CACHE_LOCK if protocol == "bitar-despain" else LockStyle.TTAS


def bench_run(benchmark, fn):
    """Run ``fn`` under pytest-benchmark with bounded repetitions and
    return its (deterministic) result."""
    return benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=0)
