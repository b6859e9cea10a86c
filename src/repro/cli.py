"""Command-line interface: ``python -m repro``.

Every data-producing subcommand is a thin wrapper over the
:mod:`repro.api` facade -- ``run`` over :func:`repro.api.simulate`,
``sweep`` over :func:`repro.api.sweep`, ``conformance`` over
:func:`repro.api.conform`, and ``check`` over :func:`repro.api.check`
(the schedule-space model checker).  The CLI owns only argument parsing
and rendering.

Examples::

    python -m repro run --protocol bitar-despain --workload lock-contention
    python -m repro run --protocol illinois --workload sharing -n 8
    python -m repro check --protocol bitar-despain --mutate
    python -m repro table1
    python -m repro figure10
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import LockStyle
from repro.analysis import (
    build_table1,
    lock_metrics,
    render_figure10,
    render_table,
    render_table2,
    traffic_metrics,
)
from repro.bus.fabric import FABRIC_KINDS, TOPOLOGY_ENV, default_topology
from repro.common.errors import ConfigError
from repro.protocols import PROTOCOLS
from repro.workloads.registry import (WORKLOADS, canonical_workload_name,
                                      default_lock_style,
                                      default_words_per_block)

#: Removed flags: old spelling -> what to do instead, named in the
#: exit-2 error.
REMOVED_FLAGS = {
    "--verify-every": "use --check-interval",
    "--cache-blocks": "use --num-blocks",
    "--dispatch": "there is now a single protocol core",
    "--fast-forward": "the event-skip engine is now the only engine",
}


class _RemovedFlag(argparse.Action):
    """A flag that no longer exists: fail fast, naming the replacement.

    Still registered (with ``nargs=1`` so ``--old 32`` parses as a unit,
    or ``nargs=0`` for a removed switch) so users get the precise
    replacement instead of argparse's generic ``unrecognized arguments``
    -- but any use is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"repro: error: {option_string} was removed; "
              f"{REMOVED_FLAGS[option_string]}", file=sys.stderr)
        raise SystemExit(2)


def _number(kind: type, *, positive: bool):
    """An argparse ``type`` for a ``kind`` number that must be > 0
    (``positive``) or >= 0; a bad value exits 2 naming its flag."""

    def parse(value: str):
        try:
            number = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {value!r}") from None
        if not (number > 0 if positive else number >= 0):
            raise argparse.ArgumentTypeError(
                f"must be {'positive' if positive else 'non-negative'}, "
                f"got {value}")
        return number

    return parse


_POSITIVE_INT = _number(int, positive=True)
_NON_NEGATIVE_INT = _number(int, positive=False)
_POSITIVE_FLOAT = _number(float, positive=True)


def _add_fabric_flags(parser: argparse.ArgumentParser) -> None:
    """The directory-fabric knobs shared by ``run`` and ``sweep``."""
    from repro.directory_backend import DIRECTORY_ENTRY_KINDS

    parser.add_argument("--directory-banks", type=int, default=None,
                        metavar="K",
                        help="home banks of the directory fabric "
                             "(replaces overloading --clusters)")
    parser.add_argument("--directory-entry", choices=DIRECTORY_ENTRY_KINDS,
                        default=None,
                        help="sharer-set representation of the directory "
                             "fabric (default full-bit-vector)")
    parser.add_argument("--directory-pointers", type=int, default=None,
                        metavar="N",
                        help="pointers per entry of the limited-pointer "
                             "representation (default 2)")
    parser.add_argument("--directory-region-size", type=int, default=None,
                        metavar="K",
                        help="caches per region bit of the coarse-vector "
                             "representation (default 4)")
    parser.add_argument("--hop-cycles", type=int, default=None,
                        metavar="N",
                        help="inter-cluster / network hop latency in "
                             "cycles")
    parser.add_argument("--lookup-cycles", type=int, default=None,
                        metavar="N",
                        help="directory home-bank lookup latency in "
                             "cycles")


def _reject_fabric_conflicts(args: argparse.Namespace) -> None:
    """``--clusters`` still names the clustered fabric's clusters (and,
    for compatibility, directory banks), but giving it alongside the
    explicit ``--directory-banks`` is ambiguous: exit 2 naming both.
    Without ``--topology``, a bad ``REPRO_TOPOLOGY`` raises
    :class:`ConfigError` (exit 2 from :func:`main`)."""
    if args.clusters is not None and args.directory_banks is not None:
        print("repro: error: --clusters and --directory-banks cannot be "
              "combined; use --directory-banks for the directory fabric "
              "and --clusters for the clustered fabric", file=sys.stderr)
        raise SystemExit(2)
    if args.topology is None:
        default_topology()


def _workload_name(value: str) -> str:
    """``--workload`` validator: accepts hyphenated or underscore
    spellings; an unknown name exits 2 listing the valid names (the
    CLI's flag-error convention)."""
    try:
        return canonical_workload_name(value)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r}; valid names: "
            f"{', '.join(sorted(WORKLOADS))}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Simulate the cache-synchronization protocols of Bitar & "
            "Despain (ISCA 1986)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a workload and print statistics")
    run.add_argument("--protocol", choices=sorted(PROTOCOLS),
                     default="bitar-despain")
    run.add_argument("--workload", type=_workload_name,
                     default="lock-contention", metavar="NAME",
                     help="registered workload name (see 'repro "
                          "protocols' docs; underscore spellings accepted)")
    run.add_argument("-n", "--processors", type=int, default=4)
    run.add_argument("--buses", type=int, default=1,
                     help="broadcast buses (1 or 2; blocks interleave)")
    run.add_argument("--topology", choices=FABRIC_KINDS, default=None,
                     help="interconnect fabric (default: snoop, or the "
                          f"{TOPOLOGY_ENV} environment variable)")
    run.add_argument("--clusters", type=int, default=None, metavar="K",
                     help="clusters of the clustered fabric")
    _add_fabric_flags(run)
    run.add_argument("--words-per-block", type=int, default=None,
                     help="block size in words (default 4; 1 for rudolph-segall)")
    run.add_argument("--num-blocks", type=int, default=64,
                     help="block frames per cache (default 64)")
    run.add_argument("--cache-blocks", action=_RemovedFlag, nargs=1,
                     help=argparse.SUPPRESS)
    run.add_argument("--lock-style",
                     choices=[s.value for s in LockStyle], default=None,
                     help="defaults to cache-lock on the proposal, ttas elsewhere")
    run.add_argument("--work-while-waiting", action="store_true",
                     help="execute ready sections while busy-waiting (E.4)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--check-interval", type=_NON_NEGATIVE_INT, default=0,
                     metavar="N",
                     help="run the invariant checker every N cycles")
    run.add_argument("--verify-every", action=_RemovedFlag, nargs=1,
                     help=argparse.SUPPRESS)
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="drive the simulator from a trace file instead "
                          "of a named workload")
    run.add_argument("--dump-trace", metavar="FILE", default=None,
                     help="write the generated workload to a trace file")
    run.add_argument("--json", action="store_true",
                     help="emit the full statistics as JSON")
    run.add_argument("--dispatch", action=_RemovedFlag, nargs=1,
                     help=argparse.SUPPRESS)
    run.add_argument("--fast-forward", action=_RemovedFlag, nargs=0,
                     help=argparse.SUPPRESS)
    run.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="write the interval sample series and metric "
                          "registry (.jsonl lines, .csv, or .json full dump)")
    run.add_argument("--timeline", metavar="FILE", default=None,
                     help="write a Chrome trace-event timeline (load in "
                          "ui.perfetto.dev): bus occupancy and lock "
                          "hold/wait slices")
    run.add_argument("--heatmap", nargs="?", const="-", default=None,
                     metavar="FILE",
                     help="print the per-block heatmap (invalidations, "
                          "c2c transfers, lock handoffs); with FILE, also "
                          "write it as JSON")
    run.add_argument("--sample-interval", type=_POSITIVE_INT, default=100,
                     metavar="N",
                     help="observability sampling interval in cycles "
                          "(default 100)")
    run.add_argument("--attribution", nargs="?", const="-", default=None,
                     metavar="FILE",
                     help="trace the run causally and print the cycle-"
                          "attribution report (every cycle in exactly one "
                          "bucket) plus the critical path; with FILE, also "
                          "write the stamped report as JSON")
    run.add_argument("--spans-out", metavar="FILE", default=None,
                     help="trace the run causally and write the span "
                          "trace (kind span-trace JSON); spans also show "
                          "up in the --timeline export with flow arrows")
    run.add_argument("--max-wall-seconds", type=float, default=None,
                     metavar="SECONDS",
                     help="abort a wedged run after this much wall-clock "
                          "time, printing bus/cache/lock diagnostics")

    sweep = sub.add_parser(
        "sweep", help="sweep processor count and print cycles/utilization"
    )
    sweep.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="bitar-despain")
    sweep.add_argument("--workload", type=_workload_name,
                       default="lock-contention", metavar="NAME")
    sweep.add_argument("--processors", nargs="+", type=_POSITIVE_INT,
                       default=[2, 4, 8])
    sweep.add_argument("--topology", choices=FABRIC_KINDS, default=None,
                       help="interconnect fabric for every sweep point "
                            f"(default: snoop, or {TOPOLOGY_ENV})")
    sweep.add_argument("--clusters", type=int, default=None, metavar="K",
                       help="clusters of the clustered fabric")
    _add_fabric_flags(sweep)
    sweep.add_argument("--dispatch", action=_RemovedFlag, nargs=1,
                       help=argparse.SUPPRESS)
    sweep.add_argument("--fast-forward", action=_RemovedFlag, nargs=0,
                       help=argparse.SUPPRESS)
    sweep.add_argument("-j", "--jobs", type=_POSITIVE_INT, default=1,
                       help="worker processes for the sweep points")
    sweep.add_argument("--metrics-out", metavar="DIR", default=None,
                       help="collect per-point observability and write one "
                            "sample-series JSONL per sweep point into DIR")
    sweep.add_argument("--sample-interval", type=_POSITIVE_INT, default=100,
                       metavar="N",
                       help="observability sampling interval in cycles "
                            "(default 100)")
    sweep.add_argument("--timeout", type=_POSITIVE_FLOAT, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock budget; a point that "
                            "exceeds it is retried, then marked timeout")
    sweep.add_argument("--retries", type=int, default=1, metavar="N",
                       help="retries per point after the first attempt "
                            "(default 1)")
    sweep.add_argument("--keep-going", action="store_true",
                       help="finish the sweep past bad points and report "
                            "per-point statuses instead of aborting")
    sweep.add_argument("--inject-faults", metavar="SPEC", default=None,
                       help="chaos mode: seeded fault plan, e.g. "
                            "'kill@1,hang@2' or 'raise@*%%25' "
                            "(see docs/resilience.md)")
    sweep.add_argument("--fault-seed", type=int, default=0, metavar="N",
                       help="seed for fault-plan draws and retry jitter "
                            "(default 0)")
    sweep.add_argument("--progress", action="store_true",
                       help="live progress line on stderr (points "
                            "ok/failed/quarantined, ETA); only when stderr "
                            "is a TTY")

    compare = sub.add_parser(
        "compare", help="run one workload across the whole protocol field"
    )
    compare.add_argument("--workload", type=_workload_name,
                         default="lock-contention", metavar="NAME")
    compare.add_argument("-n", "--processors", type=int, default=4)
    compare.add_argument("--protocols", nargs="+", default=None,
                         choices=sorted(PROTOCOLS),
                         help="defaults to the six Table-1 protocols")

    conform = sub.add_parser(
        "conformance", help="run the protocol conformance battery"
    )
    conform.add_argument("--protocol", choices=sorted(PROTOCOLS),
                         required=True)

    check = sub.add_parser(
        "check",
        help="model-check schedule space: exhaustive interleaving "
             "exploration, fuzzing, and seeded-bug mutation testing",
    )
    check.add_argument("--protocol", choices=[*sorted(PROTOCOLS), "all"],
                       default="all",
                       help="protocol to check (default: all ten)")
    check.add_argument("--scenario", nargs="+", default=None,
                       metavar="NAME",
                       help="restrict to named scenarios (default: the "
                            "whole battery; see docs/model_checking.md)")
    check.add_argument("--fuzz-seeds", type=int, default=32, metavar="N",
                       help="random schedules per fuzzed scenario "
                            "(default 32)")
    check.add_argument("--fuzz-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock cap shared by all fuzzing")
    check.add_argument("--max-schedules", type=int, default=20_000,
                       metavar="N",
                       help="exploration budget per (scenario, protocol)")
    check.add_argument("--mutate", nargs="*", default=None, metavar="NAME",
                       help="run the mutation-testing harness (no names = "
                            "all seeded bugs)")
    check.add_argument("--replay", metavar="FILE", default=None,
                       help="replay a saved counterexample trace instead "
                            "of checking")
    check.add_argument("--out", metavar="DIR", default=None,
                       help="write shrunk counterexample traces into DIR")
    check.add_argument("--json", action="store_true",
                       help="emit the full check report as JSON")

    lint = sub.add_parser(
        "lint",
        help="statically lint protocol transition tables (completeness, "
             "determinism, reachability, write-serialization, lock-state)",
    )
    lint_target = lint.add_mutually_exclusive_group(required=True)
    lint_target.add_argument("--protocol", choices=sorted(PROTOCOLS),
                             help="lint one protocol's table")
    lint_target.add_argument("--all", action="store_true",
                             help="lint every registered protocol")
    lint.add_argument("--json", action="store_true",
                      help="emit the schema-stamped lint report as JSON")

    diagram = sub.add_parser(
        "diagram",
        help="emit a protocol's state diagram generated from its "
             "transition table",
    )
    diagram.add_argument("protocol", choices=sorted(PROTOCOLS))
    diagram.add_argument("--format", choices=("dot", "mermaid"),
                         default="dot",
                         help="Graphviz DOT (default) or Mermaid "
                              "stateDiagram-v2")

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario tools: list, export, run, fuzz, "
             "replay (see docs/scenarios.md)",
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command",
                                       required=True)

    scen_sub.add_parser("list", help="list the named scenario library")

    s_export = scen_sub.add_parser(
        "export", help="write a named scenario as schema-stamped JSON")
    s_export.add_argument("name", help="library scenario name")
    s_export.add_argument("--out", metavar="FILE", default=None,
                          help="output path (default: stdout)")

    s_run = scen_sub.add_parser(
        "run", help="compile a scenario (library name or saved JSON "
                    "file) and simulate it")
    s_run.add_argument("scenario",
                       help="library name or path to a scenarios/*.json file")
    s_run.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="bitar-despain")
    s_run.add_argument("-n", "--processors", type=int, default=4)
    s_run.add_argument("--lock-style",
                       choices=[s.value for s in LockStyle], default=None,
                       help="defaults to cache-lock on the proposal, "
                            "ttas elsewhere")
    s_run.add_argument("--fast-forward", action=_RemovedFlag, nargs=0,
                       help=argparse.SUPPRESS)
    s_run.add_argument("--json", action="store_true",
                       help="emit the full statistics as JSON")

    s_fuzz = scen_sub.add_parser(
        "fuzz", help="fuzz scenarios through the model-checker battery "
                     "(seeded alterations; shrunk failures are saved)")
    s_fuzz.add_argument("--scenario", nargs="+", default=None,
                        metavar="NAME",
                        help="library scenario(s) to fuzz (default: all)")
    s_fuzz.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="bitar-despain")
    s_fuzz.add_argument("-n", "--processors", type=int, default=3)
    s_fuzz.add_argument("--seed", type=int, default=0)
    s_fuzz.add_argument("--probes", type=int, default=24, metavar="N",
                        help="altered-scenario probes per scenario "
                             "(default 24)")
    s_fuzz.add_argument("--schedules", type=int, default=3, metavar="N",
                        help="random schedules per probe (default 3)")
    s_fuzz.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock cap shared by all scenarios")
    s_fuzz.add_argument("--mutate", metavar="NAME", default=None,
                        help="fuzz against a seeded protocol mutation; "
                             "the session then *expects* to catch it")
    s_fuzz.add_argument("--out", metavar="DIR", default=None,
                        help="write shrunk scenario-failure fixtures "
                             "into DIR")
    s_fuzz.add_argument("--json", action="store_true",
                        help="emit the session results as JSON")

    s_replay = scen_sub.add_parser(
        "replay", help="replay a saved scenario-failure fixture")
    s_replay.add_argument("file", help="scenario-failure JSON file")
    s_replay.add_argument("--json", action="store_true")

    table1 = sub.add_parser("table1", help="print the regenerated Table 1")
    table1.add_argument("--format", choices=("text", "md", "csv"),
                        default="text",
                        help="plain text (default), Markdown, or CSV")
    sub.add_parser("table2", help="print the regenerated Table 2")
    sub.add_parser("figure10", help="print the state-transition enumeration")
    sub.add_parser("protocols", help="list the implemented protocols")
    return parser


# Deprecated aliases kept for callers of the old helper names.
_default_wpb = default_words_per_block
_default_style = default_lock_style


def command_run(args: argparse.Namespace) -> int:
    from repro import api

    _reject_fabric_conflicts(args)
    fabric = dict(
        clusters=args.clusters,
        directory_banks=args.directory_banks,
        directory_entry=args.directory_entry,
        directory_pointers=args.directory_pointers,
        directory_region_size=args.directory_region_size,
        hop_cycles=args.hop_cycles,
        lookup_cycles=args.lookup_cycles,
    )
    programs = None
    if args.trace:
        from repro.workloads.trace import load_trace

        programs = load_trace(args.trace, num_processors=args.processors)
    style = LockStyle(args.lock_style) if args.lock_style else None
    if args.dump_trace:
        from repro.workloads.trace import dump_trace

        if programs is None:
            config = api._build_config(
                args.protocol, processors=args.processors, buses=args.buses,
                topology=args.topology, **fabric,
                words_per_block=args.words_per_block,
                num_blocks=args.num_blocks,
                work_while_waiting=args.work_while_waiting, seed=args.seed,
            )
            programs = api.build_workload(args.workload, config, style)
        with open(args.dump_trace, "w", encoding="utf-8") as handle:
            handle.write(dump_trace(programs))
    tracing = bool(args.attribution or args.spans_out)
    observe = bool(args.metrics_out or args.timeline or args.heatmap
                   or tracing)
    from repro.common.errors import WatchdogTimeout

    try:
        result = api.simulate(
            args.protocol,
            args.workload,
            processors=args.processors,
            programs=programs,
            lock_style=style,
            buses=args.buses,
            topology=args.topology,
            **fabric,
            words_per_block=args.words_per_block,
            num_blocks=args.num_blocks,
            work_while_waiting=args.work_while_waiting,
            seed=args.seed,
            check_interval=args.check_interval,
            sample_interval=args.sample_interval if observe else 0,
            tracing=tracing,
            max_wall_seconds=args.max_wall_seconds,
        )
    except WatchdogTimeout as exc:
        _print_watchdog(exc)
        return 1
    stats = result.stats
    if result.obs is not None:
        _write_observability(result.obs, args)

    if args.json:
        print(stats.to_json())
        return 0
    rows = [[k, v] for k, v in stats.to_dict().items()]
    print(render_table(["metric", "value"], rows,
                       title=f"{args.workload} on {args.protocol} "
                             f"({args.processors} processors)"))
    locks = lock_metrics(stats)
    if locks.acquisitions:
        print(f"\nlock acquisitions       : {locks.acquisitions}")
        print(f"bus cycles/acquisition  : {locks.bus_cycles_per_acquisition:.1f}")
        print(f"failed attempts/acq     : {locks.failed_attempts_per_acquisition:.2f}")
    traffic = traffic_metrics(stats)
    print(f"bus cycles/reference    : {traffic.cycles_per_reference:.2f}")
    return 0


def _print_watchdog(exc) -> None:
    """Render a watchdog abort: the budget, then where the machine was
    stuck (bus, per-cache busy-waits, lock queue)."""
    print(f"repro: error: {exc}", file=sys.stderr)
    diag = exc.diagnostics or {}
    if not diag:
        return
    bus = diag.get("bus", {})
    print(f"  cycle {diag.get('cycle')}  bus busy={bus.get('busy')} "
          f"next_event={bus.get('next_event_cycle')} "
          f"requests_pending={diag.get('bus_requests_pending')}",
          file=sys.stderr)
    for entry in diag.get("lock_queue", ()):
        print(f"  lock-queue: cache {entry.get('cache')} block "
              f"{entry.get('block')} phase {entry.get('phase')}",
              file=sys.stderr)
    for proc in diag.get("processors", ()):
        if not proc.get("done"):
            print(f"  P{proc.get('pid')}: state={proc.get('state')} "
                  f"pc={proc.get('pc')} ops={proc.get('ops_completed')}",
                  file=sys.stderr)


def _write_observability(obs, args: argparse.Namespace) -> None:
    from repro.obs import build_heatmap, write_chrome_trace, write_samples

    if args.metrics_out:
        write_samples(obs, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.timeline:
        write_chrome_trace(obs, args.timeline)
        print(f"timeline written to {args.timeline} "
              f"(load in ui.perfetto.dev)")
    if args.spans_out:
        from repro.obs import write_spans

        write_spans(obs, args.spans_out)
        print(f"span trace written to {args.spans_out}")
    if args.attribution and obs.attribution is not None:
        from repro.obs.attribution import (AttributionReport, critical_path,
                                           render_critical_path)

        report = AttributionReport.from_dict(obs.attribution)
        print()
        print(report.render())
        print()
        print(render_critical_path(critical_path(obs.spans)))
        if args.attribution != "-":
            import json as _json

            with open(args.attribution, "w", encoding="utf-8") as handle:
                _json.dump(obs.attribution, handle, indent=2)
                handle.write("\n")
            print(f"attribution report written to {args.attribution}")
    if args.heatmap:
        heatmap = build_heatmap(obs)
        print()
        print(heatmap.render())
        if args.heatmap != "-":
            import json as _json

            with open(args.heatmap, "w", encoding="utf-8") as handle:
                _json.dump(heatmap.to_dict(), handle, indent=2)
            print(f"heatmap written to {args.heatmap}")


def _sweep_progress_printer():
    """A ``progress(done, total, statuses)`` callback rendering a live
    ``\\r`` status line on stderr, fed by the resilient executor's own
    point counters."""
    import time as _time

    start = _time.monotonic()

    def render(done: int, total: int, statuses: dict) -> None:
        elapsed = _time.monotonic() - start
        eta = elapsed / done * (total - done) if done else 0.0
        failed = statuses.get("failed", 0) + statuses.get("timeout", 0)
        sys.stderr.write(
            f"\rsweep {done}/{total}  ok={statuses.get('ok', 0)} "
            f"failed={failed} "
            f"quarantined={statuses.get('quarantined', 0)}  "
            f"eta {eta:4.0f}s")
        if done >= total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return render


def command_sweep(args: argparse.Namespace) -> int:
    from repro import api
    from repro.common.errors import SweepPointError

    _reject_fabric_conflicts(args)
    progress = None
    if args.progress and sys.stderr.isatty():
        progress = _sweep_progress_printer()
    try:
        result = api.sweep(
            args.protocol,
            args.workload,
            processors=args.processors,
            topology=args.topology,
            clusters=args.clusters,
            directory_banks=args.directory_banks,
            directory_entry=args.directory_entry,
            directory_pointers=args.directory_pointers,
            directory_region_size=args.directory_region_size,
            hop_cycles=args.hop_cycles,
            lookup_cycles=args.lookup_cycles,
            jobs=args.jobs,
            sample_interval=args.sample_interval if args.metrics_out else 0,
            timeout=args.timeout,
            max_attempts=1 + max(0, args.retries),
            keep_going=args.keep_going,
            faults=args.inject_faults,
            fault_seed=args.fault_seed,
            progress=progress,
        )
    except SweepPointError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        print("repro: (use --keep-going for partial results)",
              file=sys.stderr)
        return 1
    if args.metrics_out:
        import os

        from repro.obs import samples_jsonl

        os.makedirs(args.metrics_out, exist_ok=True)
        for n, point in zip(result.xs, result.observations or []):
            path = os.path.join(args.metrics_out, f"point_n{n}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(samples_jsonl(point))
        print(f"per-point sample series written to {args.metrics_out}/")
    degraded = not result.ok
    statuses = {p["index"]: p for p in result.point_status}
    rows = []
    for i, n in enumerate(result.xs):
        point = statuses.get(i, {})
        if result.stats and i < len(result.stats) and result.stats[i] is None:
            row = [n, "-", "-", "-"]
        else:
            row = [n,
                   int(result.series["cycles"][i]),
                   f"{result.series['bus utilization'][i]:.0%}",
                   int(result.series["failed lock attempts"][i])]
        if degraded:
            row.append(point.get("status", "ok"))
        rows.append(row)
    headers = ["processors", "cycles", "bus utilization", "failed attempts"]
    if degraded:
        headers.append("status")
    print(render_table(
        headers,
        rows,
        title=f"{args.workload} on {args.protocol}",
        align_left_first=False,
    ))
    if degraded:
        for p in result.point_status:
            if p["status"] != "ok":
                print(f"point x={p['x']}: {p['status']} after "
                      f"{p['attempts']} attempt(s): {p['error']}")
    retries = result.resilience.get("retries", {})
    restarts = result.resilience.get("pool_restarts", {})
    if retries or restarts:
        parts = []
        if retries:
            parts.append("retries " + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(retries.items())))
        if restarts:
            parts.append("pool restarts " + ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(restarts.items())))
        print("resilience: " + "; ".join(parts))
    return 0 if result.ok else 1


def command_compare(args: argparse.Namespace) -> int:
    from repro import TABLE1_PROTOCOLS
    from repro.analysis.comparison import compare_protocols, render_comparison

    protocols = args.protocols or list(TABLE1_PROTOCOLS)
    rows = compare_protocols(
        protocols,
        lambda cfg, style: WORKLOADS[args.workload](cfg, style),
        num_processors=args.processors,
    )
    print(render_comparison(
        rows, title=f"{args.workload} ({args.processors} processors)"
    ))
    return 0


def command_conformance(args: argparse.Namespace) -> int:
    from repro import api

    report = api.conform(args.protocol)
    if not report.ok:
        for finding in report.findings:
            print(f"FAIL {finding}")
        return 1
    print(f"{args.protocol}: conformant "
          f"(all applicable checks passed)")
    return 0


def _command_replay(path: str, as_json: bool) -> int:
    from repro.mc import Counterexample

    ce = Counterexample.load(path)
    outcome = ce.replay()
    reproduced = (outcome.failure is not None
                  and outcome.failure.kind == ce.failure.kind)
    if as_json:
        import json as _json

        print(_json.dumps({
            **ce.to_dict(),
            "replayed_failure": (outcome.failure.to_dict()
                                 if outcome.failure else None),
            "reproduced": reproduced,
        }, indent=2))
    else:
        where = f"{ce.scenario} on {ce.protocol}"
        if ce.mutation:
            where += f" (mutation {ce.mutation})"
        print(f"replaying {where}: schedule {ce.schedule}")
        if outcome.failure is None:
            print("no failure reproduced "
                  "(was the bug fixed since the trace was saved?)")
        else:
            print(f"{outcome.failure.kind}: {outcome.failure.message}")
        print("reproduced" if reproduced else "NOT reproduced")
    return 0 if reproduced else 1


def command_check(args: argparse.Namespace) -> int:
    from repro import api

    if args.replay:
        return _command_replay(args.replay, args.json)
    protocols = None if args.protocol == "all" else [args.protocol]
    mutations: bool | list[str] = False
    if args.mutate is not None:
        mutations = args.mutate if args.mutate else True
    report = api.check(
        protocols,
        scenarios=args.scenario,
        max_schedules=args.max_schedules,
        fuzz_seeds=args.fuzz_seeds,
        fuzz_budget=args.fuzz_budget,
        mutations=mutations,
        counterexample_dir=args.out,
    )
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    for r in report.explorations:
        status = "ok" if r.ok else f"FAIL ({r.failure.kind})"
        bound = "" if r.complete else " [budget hit]"
        print(f"explore {r.protocol:16s} {r.scenario:16s} "
              f"{r.schedules:5d} schedules, {r.states:5d} states: "
              f"{status}{bound}")
    for r in report.fuzz_sessions:
        status = "ok" if r.ok else f"FAIL (seed {r.failing_seed})"
        print(f"fuzz    {r.protocol:16s} {r.scenario:16s} "
              f"{r.runs:5d} runs: {status}")
    for r in report.mutation_results:
        verdict = "caught" if r.caught else "MISSED"
        detail = ""
        if r.counterexample is not None:
            detail = (f" (schedule {r.counterexample.schedule}, "
                      f"{r.counterexample.failure.kind})")
        print(f"mutate  {r.mutation:28s} {verdict}{detail}")
    for path in report.saved_paths:
        print(f"counterexample written to {path}")
    print(f"{'OK' if report.ok else 'FAIL'}: "
          f"{report.schedules_explored} schedules in "
          f"{report.elapsed_seconds:.1f}s")
    return 0 if report.ok else 1


def _load_scenario_spec(name_or_path: str):
    """A library scenario by name, or a saved spec from a JSON file."""
    from pathlib import Path

    from repro.scenario import SCENARIOS, ScenarioSpec, build_scenario

    if name_or_path in SCENARIOS:
        return build_scenario(name_or_path)
    if name_or_path.endswith(".json") or Path(name_or_path).exists():
        return ScenarioSpec.load(name_or_path)
    print(f"repro: error: unknown scenario {name_or_path!r}; known: "
          f"{', '.join(sorted(SCENARIOS))} (or a path to a saved "
          f"scenario JSON)", file=sys.stderr)
    raise SystemExit(2)


def command_scenario(args: argparse.Namespace) -> int:
    import json as _json

    from repro.scenario import SCENARIOS, build_scenario, compile_scenario

    if args.scenario_command == "list":
        rows = []
        for name in sorted(SCENARIOS):
            spec = build_scenario(name)
            rows.append([name, len(spec.roles), len(spec.steps),
                         spec.description])
        print(render_table(["name", "roles", "steps", "description"], rows))
        return 0

    if args.scenario_command == "export":
        spec = _load_scenario_spec(args.name)
        payload = _json.dumps(spec.to_dict(), indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"scenario written to {args.out}")
        else:
            print(payload, end="")
        return 0

    if args.scenario_command == "run":
        from repro import api

        spec = _load_scenario_spec(args.scenario)
        style = LockStyle(args.lock_style) if args.lock_style \
            else default_lock_style(args.protocol)
        config = api._build_config(args.protocol,
                                   processors=args.processors)
        programs = compile_scenario(spec, config, lock_style=style)
        result = api.simulate(args.protocol, workload=spec.name,
                              config=config, programs=programs,
                              lock_style=style)
        if args.json:
            print(result.stats.to_json())
            return 0
        rows = [[k, v] for k, v in result.stats.to_dict().items()]
        print(render_table(["metric", "value"], rows,
                           title=f"scenario {spec.name} on {args.protocol} "
                                 f"({args.processors} processors)"))
        return 0

    if args.scenario_command == "fuzz":
        return _command_scenario_fuzz(args)

    if args.scenario_command == "replay":
        from repro.scenario.fuzz import ScenarioFailure

        fixture = ScenarioFailure.load(args.file)
        outcome = fixture.replay()
        reproduced = (outcome.failure is not None
                      and outcome.failure.kind == fixture.failure.kind)
        if args.json:
            print(_json.dumps({
                **fixture.to_dict(),
                "replayed_failure": (outcome.failure.to_dict()
                                     if outcome.failure else None),
                "reproduced": reproduced,
            }, indent=2))
        else:
            where = f"{fixture.spec.name} on {fixture.protocol}"
            if fixture.mutation:
                where += f" (mutation {fixture.mutation})"
            print(f"replaying {where}: {len(fixture.schedule)}-choice "
                  f"schedule")
            if outcome.failure is None:
                print("no failure reproduced "
                      "(was the bug fixed since the fixture was saved?)")
            else:
                print(f"{outcome.failure.kind}: {outcome.failure.message}")
            print("reproduced" if reproduced else "NOT reproduced")
        return 0 if reproduced else 1

    return 1  # pragma: no cover


def _command_scenario_fuzz(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.scenario import SCENARIOS, build_scenario
    from repro.scenario.fuzz import fuzz_scenario

    mutation = None
    if args.mutate:
        from repro.mc.mutations import get_mutation

        mutation = get_mutation(args.mutate)
    names = args.scenario or sorted(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            print(f"repro: error: unknown scenario {name!r}; known: "
                  f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 2
    started = _time.monotonic()
    results = []
    saved: list[str] = []
    for name in names:
        budget = None
        if args.budget is not None:
            budget = args.budget - (_time.monotonic() - started)
            if budget <= 0:
                break
        result = fuzz_scenario(
            build_scenario(name), args.protocol,
            seed=args.seed, probes=args.probes,
            schedules_per_probe=args.schedules,
            mutation=mutation, processors=args.processors,
            time_budget=budget, base_name=name,
        )
        results.append(result)
        if result.failure is not None and args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            suffix = f"-{result.mutation}" if result.mutation else ""
            path = os.path.join(args.out,
                                f"scenario-failure-{name}{suffix}.json")
            result.failure.save(path)
            saved.append(path)
    found = [r for r in results if r.failure is not None]
    # Without a mutation, a failure is a real bug (session fails);
    # with one, the session *must* catch the seeded bug.
    ok = (not found) if mutation is None else bool(found)
    if args.json:
        print(_json.dumps({
            "results": [r.to_dict() for r in results],
            "saved": saved,
            "ok": ok,
        }, indent=2))
        return 0 if ok else 1
    for r in results:
        status = "ok" if r.failure is None \
            else f"FAIL ({r.failure.failure.kind})"
        extra = " [budget hit]" if r.budget_exhausted else ""
        print(f"fuzz {r.scenario:20s} {r.probes:3d} probes "
              f"{r.runs:4d} runs {r.rejected:3d} rejected: "
              f"{status}{extra}")
        if r.lint_findings:
            print(f"     linter flags the mutated table "
                  f"({len(r.lint_findings)} finding(s))")
    for path in saved:
        print(f"scenario failure written to {path}")
    if mutation is not None:
        print(f"mutation {mutation.name}: "
              f"{'caught' if found else 'MISSED'}")
    return 0 if ok else 1


def command_protocols(args: argparse.Namespace) -> int:
    rows = [
        [name, cls.features().citation, len(cls.states())]
        for name, cls in sorted(PROTOCOLS.items())
    ]
    print(render_table(["name", "citation", "states"], rows))
    return 0


def command_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import build_report, lint_all, lint_protocol

    if args.all:
        findings = lint_all()
    else:
        findings = {args.protocol: lint_protocol(args.protocol)}
    report = build_report(findings)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for name in sorted(findings):
            complaints = findings[name]
            status = "ok" if not complaints else f"{len(complaints)} finding(s)"
            print(f"{name}: {status}")
            for finding in complaints:
                print(f"  {finding}")
    return 0 if report["ok"] else 1


def command_diagram(args: argparse.Namespace) -> int:
    from repro.analysis.diagram import render_diagram
    from repro.protocols import get_protocol
    from repro.protocols.table import TableProtocol

    cls = get_protocol(args.protocol)
    if not issubclass(cls, TableProtocol):
        print(f"repro: error: {args.protocol} is not table-driven",
              file=sys.stderr)
        return 2
    print(render_diagram(cls.table, args.format), end="")
    return 0


def command_table1(args: argparse.Namespace) -> int:
    table = build_table1()
    if args.format == "md":
        print(table.render_markdown(), end="")
    elif args.format == "csv":
        print(table.render_csv(), end="")
    else:
        print(table.render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # A bad configuration is a usage error, reported like argparse's.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return command_run(args)
    if args.command == "sweep":
        return command_sweep(args)
    if args.command == "compare":
        return command_compare(args)
    if args.command == "conformance":
        return command_conformance(args)
    if args.command == "check":
        return command_check(args)
    if args.command == "scenario":
        return command_scenario(args)
    if args.command == "lint":
        return command_lint(args)
    if args.command == "diagram":
        return command_diagram(args)
    if args.command == "table1":
        return command_table1(args)
    if args.command == "table2":
        print(render_table2())
        return 0
    if args.command == "figure10":
        print(render_figure10())
        return 0
    if args.command == "protocols":
        return command_protocols(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
