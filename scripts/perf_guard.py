#!/usr/bin/env python
"""Guard against engine performance regressions.

Reads the measurements ``pytest benchmarks/bench_engine.py`` just wrote
to ``BENCH_engine.json`` and enforces five machine-honest checks.
Absolute wall-clock varies with the host, so every guard is a *ratio*
measured on the same host in the same run:

1. **Fast-forward speedup** (``engine.speedup``, the event-skip engine
   vs the cycle-stepped reference) must stay within ``RATIO_FLOOR`` of
   the recorded baseline (``benchmarks/BENCH_engine.baseline.json``).
2. **Sweep scaling** (``sweep.scaling`` at ``sweep.jobs`` workers) must
   beat ``SCALING_FLOOR`` -- but only when ``sweep.available_cpus``
   says the machine can actually parallelize.  With fewer cpus the
   check prints an explicit ``SKIPPED (N cpus)`` line: it neither
   passes vacuously nor fails on hardware the code cannot control.
3. **Observability overhead** (``obs.overhead_disabled``, a hooked-but-
   tracing-disabled run vs the null observer on the same workload) must
   stay under ``OBS_OVERHEAD_CEILING`` -- instrumenting the engine,
   bus, cache, and sync layers must be free when nobody is watching.
4. **Directory fabric throughput** (``topology.guard.ratio``): the
   simulator driving the 256-processor directory machine must keep at
   least ``DIRECTORY_FLOOR`` of the 16-processor snoop machine's
   cycles/sec -- the point-to-point backend must not make large
   machines unaffordable to simulate.  The same section's crossover
   numbers must show the directory moving fewer messages per
   transaction than broadcast at that scale.
5. **Limited-pointer traffic** (``topology.representations.guard``):
   at the 256-processor guard scale the Dir-N-B limited-pointer entry
   must move at most ``REPRESENTATION_CEILING`` times the full bit
   vector's messages per transaction.  The probe provisions the
   pointer count for its workload's sharer degree, so overflow
   broadcasts happen but stay rare; a regression here means the
   overflow policy started broadcasting where precise probes suffice
   (or the entry stopped collapsing back out of overflow).

Usage::

    python scripts/perf_guard.py [--update]

``--update`` rewrites the baseline from the current measurement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULT = REPO / "BENCH_engine.json"
BASELINE = REPO / "benchmarks" / "BENCH_engine.baseline.json"

if str(REPO / "src") not in sys.path:  # runnable without an install
    sys.path.insert(0, str(REPO / "src"))

from repro.common.schema import SchemaError  # noqa: E402
from repro.common.schema import check as check_schema  # noqa: E402
from repro.common.schema import stamp  # noqa: E402

#: Current fast-forward speedup may drop to this fraction of the
#: baseline before the guard fails.
RATIO_FLOOR = 0.8
#: Required sweep scaling at 4 jobs -- enforced only at >= 4 cpus.
SCALING_FLOOR = 1.5
#: Weaker scaling bar applied between 2 and 3 cpus.
SCALING_FLOOR_2CPU = 1.0
#: With tracing disabled, the hooked observability layer may cost at
#: most this fraction of the null-observer wall clock.
OBS_OVERHEAD_CEILING = 0.03
#: The directory fabric at 256 processors must keep at least this
#: fraction of the snoop fabric's 16-processor simulator throughput
#: (same host, same run; measured ~0.15 with wide margin for load).
DIRECTORY_FLOOR = 0.03
#: Limited-pointer directory traffic at the 256-processor guard scale
#: may cost at most this factor of the full bit vector's msgs/txn
#: (measured ~1.15 in the pointer budget's design regime).
REPRESENTATION_CEILING = 1.25


def _fail_missing(what: str) -> int:
    print(f"perf_guard: {RESULT.name} has no {what}; run "
          f"'pytest benchmarks/bench_engine.py' first", file=sys.stderr)
    return 2


def _check_engine_baseline(engine: dict, update: bool) -> int:
    current = engine.get("speedup")
    if current is None:
        return _fail_missing("engine.speedup entry")

    if update or not BASELINE.exists():
        BASELINE.write_text(
            json.dumps(stamp({"speedup": current}), indent=2) + "\n")
        print(f"perf_guard: baseline recorded (speedup {current:.1f}x)")
        return 0

    baseline_data = json.loads(BASELINE.read_text())
    try:
        check_schema(baseline_data, where=BASELINE.name)
    except SchemaError as exc:
        print(f"perf_guard: {exc}; rerun with --update to re-record it",
              file=sys.stderr)
        return 2
    baseline = baseline_data.get("speedup")
    if baseline is None:
        print(f"perf_guard: {BASELINE.name} has no speedup entry; "
              f"rerun with --update to record one", file=sys.stderr)
        return 2
    floor = RATIO_FLOOR * baseline
    ok = current >= floor
    print(f"perf_guard: fast-forward speedup {current:.1f}x vs baseline "
          f"{baseline:.1f}x (floor {floor:.1f}x) -- "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _check_scaling(data: dict) -> int:
    sweep = data.get("sweep", {})
    scaling = sweep.get("scaling")
    cpus = sweep.get("available_cpus")
    if scaling is None or cpus is None:
        return _fail_missing("sweep.scaling / sweep.available_cpus entries")
    if cpus >= 4:
        floor = SCALING_FLOOR
    elif cpus >= 2:
        floor = SCALING_FLOOR_2CPU
    else:
        print(f"perf_guard: sweep scaling {scaling:.2f}x at "
              f"{sweep.get('jobs')} jobs -- SKIPPED ({cpus} cpu"
              f"{'s' if cpus != 1 else ''} available, need >= 2 to "
              f"measure parallelism)")
        return 0
    ok = scaling >= floor
    print(f"perf_guard: sweep scaling {scaling:.2f}x at "
          f"{sweep.get('jobs')} jobs on {cpus} cpus "
          f"(floor {floor:.1f}x) -- {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _check_obs_overhead(data: dict) -> int:
    obs = data.get("obs", {})
    overhead = obs.get("overhead_disabled")
    if overhead is None:
        return _fail_missing("obs.overhead_disabled entry")
    ok = overhead < OBS_OVERHEAD_CEILING
    print(f"perf_guard: obs hooks, tracing disabled: {overhead:+.1%} vs "
          f"null observer (ceiling {OBS_OVERHEAD_CEILING:.0%}) -- "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _check_topology(data: dict) -> int:
    topo = data.get("topology", {})
    guard = topo.get("guard", {})
    ratio = guard.get("ratio")
    if ratio is None:
        return _fail_missing("topology.guard entries")
    crossover = topo.get("crossover", {})
    snoop_mpt = crossover.get("snoop_msgs_per_txn")
    directory_mpt = crossover.get("directory_msgs_per_txn")
    if snoop_mpt is None or directory_mpt is None:
        return _fail_missing("topology.crossover entries")
    ok_ratio = ratio >= DIRECTORY_FLOOR
    print(f"perf_guard: directory@256 "
          f"{guard.get('directory256_cycles_per_sec', 0):,.0f} cyc/s vs "
          f"snoop@16 {guard.get('snoop16_cycles_per_sec', 0):,.0f} cyc/s "
          f"(ratio {ratio:.3f}, floor {DIRECTORY_FLOOR:.2f}) -- "
          f"{'OK' if ok_ratio else 'FAIL'}")
    ok_crossover = directory_mpt < snoop_mpt
    print(f"perf_guard: msgs/txn at {crossover.get('at_processors')} "
          f"processors: directory {directory_mpt:.1f} vs broadcast "
          f"{snoop_mpt:.1f} -- {'OK' if ok_crossover else 'FAIL'}")
    return 0 if (ok_ratio and ok_crossover) else 1


def _check_representation(data: dict) -> int:
    reps = data.get("topology", {}).get("representations", {})
    guard = reps.get("guard", {})
    ratio = guard.get("ratio")
    if ratio is None:
        return _fail_missing("topology.representations.guard entries")
    ok = ratio <= REPRESENTATION_CEILING
    print(f"perf_guard: limited-pointer msgs/txn at "
          f"{guard.get('at_processors')} processors: "
          f"{guard.get('limited_pointer_msgs_per_txn', 0):.1f} vs full "
          f"vector {guard.get('full_vector_msgs_per_txn', 0):.1f} "
          f"(ratio {ratio:.2f}x, ceiling {REPRESENTATION_CEILING:.2f}x) "
          f"-- {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="record the current measurement as baseline")
    args = parser.parse_args(argv)

    if not RESULT.exists():
        print(f"perf_guard: no {RESULT.name}; run "
              f"'pytest benchmarks/bench_engine.py' first", file=sys.stderr)
        return 2
    result_data = json.loads(RESULT.read_text())
    try:
        check_schema(result_data, where=RESULT.name)
    except SchemaError as exc:
        print(f"perf_guard: {exc}; re-run "
              f"'pytest benchmarks/bench_engine.py'", file=sys.stderr)
        return 2
    # A result produced under a degraded (keep-going) run carries
    # per-point statuses.  Retried/timed-out points measured recovery
    # machinery, not the engine -- refuse to guard on them.
    statuses = result_data.get("point_status", [])
    degraded = [p for p in statuses if p.get("status") != "ok"
                or p.get("attempts", 1) > 1]
    if degraded:
        print(f"perf_guard: {RESULT.name} came from a degraded run "
              f"({len(degraded)} of {len(statuses)} points retried or "
              f"failed); re-measure on a clean run", file=sys.stderr)
        return 2

    engine = result_data.get("engine", {})
    codes = [
        _check_engine_baseline(engine, args.update),
        _check_scaling(result_data),
        _check_obs_overhead(result_data),
        _check_topology(result_data),
        _check_representation(result_data),
    ]
    # A hard failure (1) outranks a missing-data complaint (2): both fail
    # CI, but "regressed" is the more actionable verdict.
    if 1 in codes:
        return 1
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
