#!/usr/bin/env python
"""Regenerate the protocol-port golden fixture.

Runs every protocol across the standard workload registry on the
cycle-stepped reference loop (``Simulator.run_stepped``, the ``stepped``
cells) and on the event-skip engine (``Simulator.run``, the ``ff``
cells), and records the full ``SimStats.to_json()`` payload of each
run.  The committed fixture (``tests/golden/simstats_golden.json``)
was generated from the imperative pre-table protocol implementations;
``tests/protocols/test_table_golden.py`` asserts the table-driven port
reproduces it bit-for-bit.

Usage::

    PYTHONPATH=src python scripts/gen_protocol_golden.py [OUT.json]

Only regenerate the fixture for an *intentional* behavioral change --
a diff here is exactly what the golden test exists to catch.
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

from repro.common.errors import ProgramError
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.workloads.registry import WORKLOADS, build_workload

#: The standard golden matrix: every protocol x every registered
#: workload x stepped and event-skip execution, at four processors.
PROCESSORS = 4


def run_case(protocol: str, workload: str, stepped: bool) -> dict:
    """One golden payload, built exactly as ``api.simulate`` builds it."""
    config = api._build_config(protocol, processors=PROCESSORS)
    sim = Simulator(config, build_workload(workload, config))
    stats = sim.run_stepped() if stepped else sim.run()
    return json.loads(stats.to_json())


def build_golden() -> dict:
    cases = {}
    skipped = {}
    for protocol in sorted(PROTOCOLS):
        for workload in sorted(WORKLOADS):
            for mode in ("stepped", "ff"):
                key = f"{protocol}/{workload}/{mode}"
                try:
                    cases[key] = run_case(protocol, workload,
                                          mode == "stepped")
                except ProgramError as exc:
                    # Some pairings are legitimately unsupported (e.g.
                    # classic write-through has no block-write op).
                    skipped[key] = str(exc)
    return {
        "kind": "simstats-golden",
        "processors": PROCESSORS,
        "cases": cases,
        "skipped": skipped,
    }


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent
        / "tests" / "golden" / "simstats_golden.json"
    )
    golden = build_golden()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{len(golden['cases'])} cases written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
