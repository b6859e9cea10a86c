"""Golden regression for the table-driven protocol port.

``tests/golden/simstats_golden.json`` records the full
``SimStats.to_json()`` payload of every protocol x standard workload x
(stepped, fast-forward) run, generated from the imperative pre-table
implementations (``scripts/gen_protocol_golden.py``).  The table port
must reproduce every payload bit-for-bit: any diff is a behavioral
change, not a refactor.  The two execution modes are recorded as
separate cells but hold equal payloads, so each (protocol, workload)
runs once on the event-skip engine and both cells are asserted against
that run.  Only the ``schema_version`` stamp is set aside:
it versions the artifact format, which moves independently of the
simulated behavior, so the golden keeps the stamp it was recorded
under (one the reader still accepts).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro import api
from repro.common.errors import ProgramError
from repro.common.schema import SCHEMA_KEY, check
from repro.protocols import PROTOCOLS
from repro.workloads.registry import WORKLOADS

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "simstats_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CASES = [
    (protocol, workload, mode)
    for protocol in sorted(PROTOCOLS)
    for workload in sorted(WORKLOADS)
    for mode in ("stepped", "ff")
]


def _key(protocol: str, workload: str, mode: str) -> str:
    return f"{protocol}/{workload}/{mode}"


@functools.lru_cache(maxsize=None)
def _run(protocol: str, workload: str) -> str | None:
    """The stats JSON of one run, shared by both mode cells; ``None``
    when the pairing raises :class:`ProgramError`."""
    try:
        result = api.simulate(protocol, workload,
                              processors=GOLDEN["processors"])
    except ProgramError:
        return None
    return result.stats.to_json()


def test_golden_covers_current_matrix():
    recorded = set(GOLDEN["cases"]) | set(GOLDEN["skipped"])
    assert {_key(*case) for case in CASES} == recorded


@pytest.mark.parametrize(
    "protocol,workload,mode",
    CASES,
    ids=[_key(*case) for case in CASES],
)
def test_stats_bit_identical(protocol, workload, mode):
    key = _key(protocol, workload, mode)
    payload = _run(protocol, workload)
    if key in GOLDEN["skipped"]:
        assert payload is None, f"{key}: expected ProgramError"
        return
    assert payload is not None, f"{key}: raised ProgramError"
    want = dict(GOLDEN["cases"][key])
    check(want, where=key)
    del want[SCHEMA_KEY]
    got = json.loads(payload)
    del got[SCHEMA_KEY]
    assert got == want, (
        f"{key}: table-driven stats diverge from the imperative golden"
    )
