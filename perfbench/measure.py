"""One benchmark invocation's measurements.

:func:`end_to_end` repeats a workload's operation (one simulation, or one
whole sweep) untraced until the time budget is spent.
:func:`per_layer` makes one traced run (plus the untraced runs its ratios
need) and reports the per-layer metrics.  Every operation's output is
checked; a failure is counted, never raised.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field

from repro.analysis.resilient import ExecutionPolicy
from repro.cache.cache import SnoopingCache
from repro.protocols import get_protocol

from perfbench import cases
from perfbench.tracing import LayerProfile, label, useful_snoops

#: Layers whose code polls the ports and grants the bus.
_FABRIC = ("bus", "directory_backend")
_POLLS = ("has_request_hint", "has_bus_request")


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


@dataclass
class Sample:
    """What one successful operation did and how long it took."""

    seconds: float
    cycles: int
    txns: int
    msgs: int
    ops: int
    hits: int
    refs: int


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _sample(workload, stats, processors, seconds, simulator=None) -> Sample:
    return Sample(seconds=seconds, cycles=stats.cycles,
                  txns=stats.total_transactions,
                  msgs=cases.messages(workload, stats, processors, simulator),
                  ops=cases.operations(workload, stats),
                  hits=stats.read_hits + stats.write_hits,
                  refs=stats.total_reads + stats.total_writes)


def _total(samples: list[Sample], seconds: float) -> Sample:
    return Sample(seconds=seconds,
                  cycles=sum(s.cycles for s in samples),
                  txns=sum(s.txns for s in samples),
                  msgs=sum(s.msgs for s in samples),
                  ops=sum(s.ops for s in samples),
                  hits=sum(s.hits for s in samples),
                  refs=sum(s.refs for s in samples))


# -- single-system workloads (locks-16, directory-256) ------------------------


def _build(workload, seed, size, spans):
    with spans.span("workloads.build"):
        config = cases.make_config(workload, seed, size.processors)
        programs = cases.make_programs(workload, config, size.rounds)
    with spans.span("sim.construct"):
        simulator = cases.make_simulator(config, programs)
    return simulator


def _simulate(workload, seed, size, spans, tally, digests, run=None):
    """One checked simulation; ``run`` wraps ``simulator.run`` (the
    profiler).  Returns the sample, the stats and the simulator, or
    ``None`` when the run raised."""
    try:
        simulator = _build(workload, seed, size, spans)
        with spans.span("sim.run"):
            start = time.perf_counter()
            stats = run(simulator.run) if run else simulator.run()
            seconds = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a failed operation is data
        tally.add(1, 1, [f"{type(exc).__name__}: {exc}"])
        return None
    problems = cases.check(workload, stats, size.processors, size.rounds)
    digest = cases.digest(stats)
    if digests.setdefault("run", digest) != digest:
        problems.append("SimStats differ from the first run of this seed")
    tally.add(1, 1 if problems else 0, problems)
    sample = _sample(workload, stats, size.processors, seconds, simulator)
    return sample, stats, simulator


# -- the sweep workload (snoop-sweep) ------------------------------------------


def sweep_jobs() -> int:
    return max(1, min(cases.SWEEP_MAX_JOBS, len(os.sched_getaffinity(0))))


def run_sweep(seed, size, jobs, spans, tally, digests, *, faults=None,
              run=None):
    """One checked sweep through the resilient executor.  Every point
    attempt is an operation: an attempt that raised, hung or returned
    garbage is a failure even when a retry then succeeded.  Returns the
    total sample, the plan, and the seconds to the first finished
    point."""
    plan = cases.make_sweep(seed, size)
    policy = ExecutionPolicy(keep_going=True, faults=faults)
    first: list[float] = []

    def progress(done, total, statuses):
        if not first:
            first.append(time.perf_counter())

    execute = functools.partial(plan.execute, jobs=jobs, policy=policy,
                                progress=progress)
    with spans.span("analysis.execute", jobs=jobs):
        start = time.perf_counter()
        try:
            run(execute) if run else execute()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            tally.add(len(size.sweep), len(size.sweep),
                      [f"{type(exc).__name__}: {exc}"])
            return None
        seconds = time.perf_counter() - start
    samples = []
    for index, outcome in enumerate(plan.outcomes):
        failed = outcome.attempts - 1 if outcome.ok else outcome.attempts
        problems = ([] if outcome.ok else
                    [f"point {outcome.x}: {outcome.status} ({outcome.error})"])
        stats = plan.results[index]
        if stats is not None:
            n = int(outcome.x)
            problems += [f"point {n}: {p}" for p in
                         cases.check(cases.SWEEP, stats, n, 0)]
            digest = cases.digest(stats)
            if digests.setdefault(index, digest) != digest:
                problems.append(f"point {n}: SimStats differ from the "
                                f"first sweep of this seed")
            samples.append(_sample(cases.SWEEP, stats, n, 0.0))
        if outcome.ok and problems:
            failed += 1
        tally.add(outcome.attempts, failed, problems)
    first_s = first[0] - start if first else seconds
    return _total(samples, seconds), plan, first_s


# -- end-to-end ---------------------------------------------------------------


def end_to_end(workload, seed, seconds, size, spans, tally, probe) -> dict:
    """Repeat for ``seconds`` (at least once): one fresh-interpreter
    set-up sample from ``probe()``, then the workload's operation.

    Host times are reported at the slowest repeat.  On a shared host the
    simulator's speed comes in phases that last longer than a run (one
    repeat can be 1.5x faster than the next when a neighbour goes idle);
    the median moves with the share of a run spent in a fast phase,
    while the slow, loaded phase recurs in every run."""
    deadline = time.perf_counter() + seconds
    digests: dict = {}
    samples: list[Sample] = []
    setups: list[float] = []
    jobs = sweep_jobs()
    while True:
        with spans.span("setup.probe"):
            try:
                setups.append(probe())
            except (subprocess.SubprocessError, ValueError, KeyError) as exc:
                tally.add(1, 1, [f"set-up probe: {type(exc).__name__}: "
                                 f"{exc}"])
        with spans.span("operation", workload=workload):
            if workload == cases.SWEEP:
                result = run_sweep(seed, size, jobs, spans, tally, digests)
            else:
                result = _simulate(workload, seed, size, spans, tally,
                                   digests)
        if result is not None:
            samples.append(result[0])
        if time.perf_counter() >= deadline:
            break
    if not samples or not setups:
        return {}
    last = samples[-1]
    return {
        "setup_s": max(setups),
        "run_s": max(s.seconds for s in samples),
        "sim_cycles_per_s": min(s.cycles / s.seconds for s in samples),
        "sim_cycles": last.cycles,
        "msgs_per_txn": _ratio(last.msgs, last.txns),
        "txns_per_op": _ratio(last.txns, last.ops),
        "_setup_s_samples": setups,
        "_run_s_samples": [s.seconds for s in samples],
        "_jobs": jobs if workload == cases.SWEEP else 1,
    }


# -- per-layer ----------------------------------------------------------------


def _hook_labels() -> set:
    """``cProfile`` labels of the protocol's public hooks (the surface
    caches and buses call)."""
    labels = set()
    for klass in get_protocol(cases.PROTOCOL).__mro__:
        for name, attr in vars(klass).items():
            if not name.startswith("_") and inspect.isfunction(attr):
                labels.add(label(attr))
    return labels


def _build_seconds(workload, seed, size) -> float:
    """Host seconds the workload generator takes for one operation's
    programs (median of three for a single system; summed over the
    points of a sweep)."""
    if workload == cases.SWEEP:
        total = 0.0
        for n in size.sweep:
            config = cases.make_config(workload, seed, n)
            start = time.perf_counter()
            cases.make_programs(workload, config)
            total += time.perf_counter() - start
        return total
    config = cases.make_config(workload, seed, size.processors)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        cases.make_programs(workload, config, size.rounds)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _sweep_serial(seed, size, spans):
    """Each sweep point once, in this process, untraced: the serial
    point seconds (set-up included, as a worker pays it) and the
    simulation-only seconds."""
    total = run_only = 0.0
    for n in size.sweep:
        with spans.span("operation", workload=cases.SWEEP, point=n):
            start = time.perf_counter()
            config = cases.make_config(cases.SWEEP, seed, n)
            simulator = cases.make_simulator(
                config, cases.make_programs(cases.SWEEP, config))
            with spans.span("sim.run"):
                run_start = time.perf_counter()
                simulator.run()
                run_only += time.perf_counter() - run_start
            total += time.perf_counter() - start
    return total, run_only


def per_layer(workload, seed, size, spans, tally, repro_dir) -> dict:
    """One traced run and the untraced runs its ratios are taken over."""
    digests: dict = {}
    metrics = {"workloads.build_s": _build_seconds(workload, seed, size),
               "analysis.first_result_s": 0.0,
               "analysis.parallel_efficiency": 0.0,
               "analysis.retries": 0.0}
    if workload == cases.SWEEP:
        jobs = sweep_jobs()
        result = run_sweep(seed, size, jobs, spans, tally, digests)
        if result is None:
            return {}
        parallel, plan, first_s = result
        serial_s, untraced_run_s = _sweep_serial(seed, size, spans)
        untraced_s = serial_s
        metrics["analysis.first_result_s"] = first_s
        metrics["analysis.parallel_efficiency"] = _ratio(
            serial_s, jobs * parallel.seconds)
        metrics["analysis.retries"] = float(
            sum(plan.resilience.get("retries", {}).values()))
    else:
        result = _simulate(workload, seed, size, spans, tally, digests)
        if result is None:
            return {}
        untraced_s = untraced_run_s = result[0].seconds

    with useful_snoops(SnoopingCache) as (snoop_counter, wrapper):
        profile = LayerProfile(repro_dir, charge={wrapper: "cache"})
        with spans.span("traced"):
            if workload == cases.SWEEP:
                result = run_sweep(seed, size, 1, spans, tally, digests,
                                   run=profile.run)
                simulator = None
            else:
                result = _simulate(workload, seed, size, spans, tally,
                                   digests, run=profile.run)
                simulator = result[2] if result else None
    if result is None:
        return {}
    traced = result[0]

    def is_(layer, *names):
        return lambda lay, name: lay == layer and name in names

    def outside(layer):
        return lambda lay, name: lay != layer

    events = profile.calls(
        lambda lay, name: name == "next_event_cycle", is_("sim", "_run_fast"))
    polls = profile.calls(
        lambda lay, name: name in _POLLS,
        lambda lay, name: lay in _FABRIC and name not in _POLLS)
    grants = profile.calls(
        lambda lay, name: name == "take_bus_transaction",
        lambda lay, name: lay in _FABRIC and name != "take_bus_transaction")
    hooks = profile.calls_to(_hook_labels(), outside("protocols"))
    revalidations = profile.calls(is_("protocols", "revalidate_request"),
                                  outside("protocols"))
    snoops = profile.calls(is_("cache", "snoop"), outside("cache"))
    tallies = (simulator.bus.message_tallies()
               if workload == cases.DIRECTORY else {})
    probes = tallies.get("forwards", 0) + tallies.get("invalidations", 0)

    metrics.update({
        "sim.events": float(events),
        "sim.cycles_per_event": _ratio(traced.cycles, events),
        "sim.us_per_event": _ratio(untraced_run_s * 1e6, events),
        "bus.polls_per_event": _ratio(polls, events),
        "bus.grant_ratio": _ratio(grants, polls),
        "processor.quiet_advances_per_event": _ratio(
            profile.calls(is_("processor", "advance_quiet")), events),
        "processor.ticks_per_event": _ratio(
            profile.calls(is_("processor", "tick")), events),
        "protocols.calls_per_txn": _ratio(hooks, traced.txns),
        "protocols.revalidations_per_event": _ratio(revalidations, events),
        "cache.snoops_per_txn": _ratio(snoops, traced.txns),
        "cache.snoop_useful_ratio": _ratio(snoop_counter.useful, snoops),
        "cache.hit_ratio": _ratio(traced.hits, traced.refs),
        "directory_backend.msgs_per_txn": _ratio(sum(tallies.values()),
                                                 traced.txns),
        "directory_backend.probes_per_txn": _ratio(probes, traced.txns),
        "trace.total_s": profile.total(),
        "trace.overhead": _ratio(profile.seconds, untraced_s),
    })
    for layer, seconds in profile.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics

