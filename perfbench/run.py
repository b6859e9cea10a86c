"""Benchmark entry point.

    python3 perfbench/run.py --workload <locks-16|directory-256|snoop-sweep>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  It measures the simulator in ``src/`` of
the same checkout and prints readable lines, then, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones of a separate traced run.
The full report -- host and seed stamp, samples, spans, per-layer
self times, failures -- is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: The seed the committed ``BENCH_engine.json`` figures were taken at.
DEFAULT_SEED = 0
#: A seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
#: ``perfbench.cases.WORKLOADS``, repeated so that a bad argument is
#: reported before the simulator is imported.
WORKLOADS = ("locks-16", "directory-256", "snoop-sweep")

UNITS = {
    "setup_s": "s", "run_s": "s", "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB", "sim_cycles": "cycles", "msgs_per_txn": "msgs/txn",
    "txns_per_op": "txns/op",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "sim.us_per_event":
        return "us"
    if name in ("sim.events", "analysis.retries"):
        return "count"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> str:
    """Put this checkout's ``src`` first on the path and import the
    simulator from it; returns the package directory.  Exits 2 when the
    checkout holds no simulator, so an installed copy is never measured
    in its place."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no simulator at {package}; run from the root "
              f"of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{package}", file=sys.stderr)
        raise SystemExit(2)
    return str(package)


def commit() -> str:
    """The checked-out commit, read from ``.git`` in the checkout (there
    is none in an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_stamp(seed: int) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def setup_probe(workload: str, seed: int, size_name: str) -> float:
    """One ``setup_s`` sample, timed inside a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.setup_probe", workload, str(seed),
         size_name],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def wait_for_workers(timeout: float = 60.0) -> None:
    """Wait until the sweep's worker processes have ended: the sweep
    executor terminates its pool without joining it."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb(workers: bool) -> float:
    """Peak resident memory of this process in MiB; with ``workers``,
    plus the peak of the largest child it waited for (a sweep worker)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size_name: str = "full"):
    """Run one invocation.  Returns the result line (a dict) and the
    full report."""
    repro_dir = load_program()
    from perfbench import cases, measure
    from perfbench.tracing import Spans

    size = cases.SIZES[size_name][workload]
    spans = Spans()
    tally = measure.Tally()
    extra: dict = {}
    if trace:
        metrics = measure.per_layer(workload, seed, size, spans, tally,
                                    repro_dir)
        wait_for_workers()
    else:
        probe = functools.partial(setup_probe, workload, seed, size_name)
        probe()  # untimed: leaves the bytecode caches filled
        found = measure.end_to_end(workload, seed, seconds, size, spans,
                                   tally, probe)
        wait_for_workers()
        metrics = {}
        if found:
            metrics = {k: v for k, v in found.items()
                       if not k.startswith("_")}
            metrics["peak_rss_mb"] = peak_rss_mb(workload == cases.SWEEP)
            extra = {k[1:]: v for k, v in found.items() if k.startswith("_")}
    if not metrics:
        return None, {"problems": tally.problems}
    unit = per_layer_unit if trace else UNITS.__getitem__
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in sorted(metrics.items())},
    }
    report = {
        "workload": workload,
        "trace": int(trace),
        "size": size_name,
        "host": host_stamp(seed),
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "result": result,
        "details": extra,
        "span_self_s": spans.self_times(),
        "spans": spans.records,
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    result, report = benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    if result is None:
        print("perfbench: no operation succeeded: "
              + "; ".join(report["problems"][:5]), file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  operations {result['attempted']} failed {result['failed']} "
          f"error_rate {report['error_rate']:.4g}")
    for problem in report["problems"][:10]:
        print(f"  FAILED: {problem}")
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
