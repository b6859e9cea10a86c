"""Versioning of every JSON artifact the library emits.

All exported payloads -- run statistics, observability metrics and
heatmaps, Chrome traces, sweep outputs, benchmark results, and model-
checker counterexamples -- carry a top-level ``schema_version`` key so
downstream tooling (``scripts/validate_trace.py``, ``scripts/
perf_guard.py``, CI artifact consumers) can refuse payloads it does not
understand instead of mis-parsing them.

The version is a single integer bumped on any backwards-incompatible
change to any exported payload shape.

Version history
---------------

1. Initial stamped payloads (run/sweep/check results, observability
   exports, benchmark files).
2. Resilient sweep execution: ``sweep-result`` payloads gain
   ``point_status`` (one ``{index, x, status, attempts, error}`` entry
   per point, ``status`` one of ``ok`` / ``failed`` / ``timeout`` /
   ``quarantined``) and ``resilience`` (retry/timeout/pool-restart
   counters); entries of ``points`` may be ``null`` for points that
   failed under a ``--keep-going`` sweep.  Migration: v1 readers that
   indexed ``points`` positionally keep working on fully-healthy
   sweeps; consumers of partial sweeps must skip ``null`` points (the
   per-point status says why each one is missing).
3. Compiled dispatch core: ``run-result`` and ``sweep-result`` payloads
   gain a top-level ``dispatch`` key (``"compiled"`` or
   ``"interpreted"``, the execution core that drove the protocol).
   ``BENCH_engine.json`` gains ``engine.dispatch`` (per-core
   stepped/fast-forward timings), a ``lookup`` section (the
   interpreted-vs-compiled table-lookup microbenchmark), and the
   ``sweep`` section's ``available_cpus`` is authoritative for whether
   the scaling assertion ran (see ``scripts/perf_guard.py``).
   Migration: v2 readers that ignore unknown keys keep working; the
   pre-existing ``engine.*`` timing keys still describe the default
   (compiled) core.
4. Causal tracing and cycle attribution: observability results gain
   ``spans`` (the causal span list) and ``attribution`` (the reduced
   per-processor cycle-attribution report); two new stamped artifact
   kinds, ``span-trace`` (``repro run --spans-out``) and
   ``attribution-report`` (``repro run --attribution FILE``), plus the
   derived ``attribution-comparison``.  Chrome traces may now carry
   flow events (``ph`` of ``s``/``t``/``f``) linking span slices.
   Registry snapshots are unchanged in shape, but histograms now merge
   across the sweep process boundary like counters (they were silently
   dropped before).  ``BENCH_engine.json`` gains an ``obs`` section
   (null-observer vs tracing-off vs tracing-on timings, the input to
   ``perf_guard``'s obs-overhead ceiling).  Migration: v3 readers that
   ignore unknown keys keep working; none of the pre-existing payload
   keys changed meaning.
5. Topology-aware fabrics: ``run-result`` and ``sweep-result`` payloads
   gain a top-level ``topology`` key (one of ``snoop`` / ``multibus`` /
   ``clustered`` / ``directory``, the interconnect fabric that carried
   the run).  ``SystemConfig`` serializations replace the bare
   ``num_buses`` integer with a nested ``topology`` object
   (``TopologyConfig.to_dict()``); legacy payloads carrying
   ``num_buses`` still load, mapping to a snoop/multibus topology with
   a deprecation warning.  ``BENCH_engine.json`` gains a ``topology``
   section (per-fabric bus/network messages per transaction at several
   processor counts, the snoop-vs-directory traffic crossover, and the
   directory@256 / snoop@16 throughput ratio guarded by
   ``perf_guard``).  Migration: v4 readers that ignore unknown keys
   keep working; readers of ``config.num_buses`` must switch to
   ``config.topology``.
6. Declarative scenarios: two new stamped artifact kinds, ``scenario``
   (a saved scenario spec, the ``scenarios/*.json`` corpus) and
   ``scenario-failure`` (a shrunk scenario-fuzzer counterexample:
   the failing spec, its alterations, system shape, schedule seed, and
   failure).  ``run-result`` payloads gain a top-level ``lock_style``
   key (the lock style the run's programs actually used, ``null`` for
   style-blind reference streams) -- previously an explicitly requested
   style could be silently discarded with no record in the artifact.
   Migration: v5 readers that ignore unknown keys keep working.
7. Directory-entry representations: ``run-result`` and ``sweep-result``
   payloads gain a top-level ``directory_entry`` key (the sharer-set
   representation of the directory fabric -- ``full-bit-vector`` /
   ``limited-pointer`` / ``coarse-vector`` -- or ``null`` on
   non-directory topologies).  ``TopologyConfig`` serializations gain
   ``directory_entry`` / ``directory_pointers`` /
   ``directory_region_size``; older payloads without them load with the
   full-bit-vector defaults.  ``BENCH_engine.json``'s ``topology``
   section gains ``representations`` (per-representation msgs/txn and
   directory bits/block at each processor scale, the input to
   ``perf_guard``'s limited-pointer traffic ceiling).  Migration: v6
   readers that ignore unknown keys keep working; none of the
   pre-existing keys changed meaning.
8. One protocol execution core: the compiled dispatch core is gone, so
   ``run-result`` and ``sweep-result`` payloads drop the top-level
   ``dispatch`` key, and ``BENCH_engine.json`` drops ``engine.dispatch``
   and the ``lookup`` microbenchmark section.  Migration: readers that
   ignore unknown keys still read v7 payloads; readers of ``dispatch``
   must stop expecting it.
"""

from __future__ import annotations

from repro.common.errors import ReproError

#: Current version of all exported JSON payload shapes.
SCHEMA_VERSION = 8

#: Key under which the version is stamped.
SCHEMA_KEY = "schema_version"


class SchemaError(ReproError):
    """A JSON payload is missing or carries an unusable schema version."""


def stamp(payload: dict) -> dict:
    """Stamp ``payload`` (in place) with the current schema version."""
    payload[SCHEMA_KEY] = SCHEMA_VERSION
    return payload


def check(payload: dict, *, where: str = "payload") -> int:
    """Validate ``payload``'s schema version; returns the version found.

    Raises :class:`SchemaError` when the key is missing, non-integer, or
    newer than this library understands.  Older (smaller) versions are
    accepted -- readers stay backwards compatible.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: expected a JSON object, got "
                          f"{type(payload).__name__}")
    version = payload.get(SCHEMA_KEY)
    if version is None:
        raise SchemaError(f"{where}: missing {SCHEMA_KEY!r} "
                          f"(expected {SCHEMA_VERSION})")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaError(f"{where}: {SCHEMA_KEY!r} must be an integer, "
                          f"got {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"{where}: {SCHEMA_KEY} {version} is newer than this library "
            f"understands (max {SCHEMA_VERSION}); upgrade the tooling"
        )
    return version
