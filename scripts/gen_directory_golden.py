#!/usr/bin/env python
"""Regenerate the directory-fabric conformance golden.

The golden pins the directory backend's observable behavior -- the full
SimStats payload plus the fabric's message tallies -- across all ten
protocols x {stepped, fast-forward} on the ``sharing`` workload.  Each
run fills two cells, keyed by the two protocol execution cores
(compiled, interpreted) the golden was first recorded under.  ``tests/bus/test_directory_conformance.py``
replays the same matrix and diffs against this file, so any refactor of
``repro.directory_backend`` (table-driven dispatch, sharer-set
representations) must reproduce the pre-refactor full-bit-vector
behavior bit for bit.

Usage::

    PYTHONPATH=src python scripts/gen_directory_golden.py

Rewrites ``tests/bus/fixtures/directory_golden.json`` in place.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    from repro import api
except ModuleNotFoundError:  # running from a checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import api

from repro.common.config import TopologyConfig
from repro.common.schema import stamp
from repro.directory_backend import DirectorySystem
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads.registry import build_workload

OUT = Path(__file__).resolve().parent.parent / "tests" / "bus" / \
    "fixtures" / "directory_golden.json"

PROCESSORS = 4
WORKLOAD = "sharing"


def matrix_cell(protocol: str, fast_forward: bool) -> dict:
    """One golden cell: SimStats payload + directory message tallies."""
    config = api._build_config(
        protocol, processors=PROCESSORS,
        topology=TopologyConfig(kind="directory", directory_banks=2))
    programs = build_workload(WORKLOAD, config)
    sim = Simulator(config, programs)
    sim.run(fast_forward=fast_forward)
    assert isinstance(sim.bus, DirectorySystem)
    return {
        "stats": sim.stats.to_payload(),
        "message_tallies": sim.bus.message_tallies(),
    }


def build_golden() -> dict:
    cells = {}
    for protocol in sorted(PROTOCOLS):
        for mode in ("stepped", "fast-forward"):
            cell = matrix_cell(protocol, mode == "fast-forward")
            for core in ("compiled", "interpreted"):
                cells[f"{protocol}/{mode}/{core}"] = cell
    return stamp({
        "kind": "directory-conformance-golden",
        "workload": WORKLOAD,
        "processors": PROCESSORS,
        "directory_banks": 2,
        "cells": cells,
    })


def main() -> int:
    golden = build_golden()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {len(golden['cells'])} cells to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
