"""The three ported scenarios are bit-identical to their originals.

Identity is asserted at two levels: the generated operation streams
(kind/addr/value/cycles/ready_work/private_hint, per program, per pid)
and the end-to-end :class:`SimStats` under both the event-skip engine
and the stepped reference loop (``fast_forward`` False selects the
latter). There is a single protocol core; a ``REPRO_DISPATCH``
value left in the environment from when there were two must not change
any run, so the stats check repeats under each of its former values.
"""

import pytest

from repro.api import _build_config, simulate
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads.registry import WORKLOADS, build_workload
from tests.conftest import config_for

PORTS = ["lock-contention", "producer-consumer", "request-queue"]


def _op_key(op):
    return (op.kind, op.addr, op.value, op.cycles, op.ready_work,
            op.private_hint)


def _fingerprint(programs):
    return [(p.name, [_op_key(op) for op in p.ops]) for p in programs]


def _stats(workload: str, fast_forward: bool) -> dict:
    if fast_forward:
        return simulate(workload=workload, protocol="bitar-despain",
                        processors=4).stats.to_dict()
    config = _build_config("bitar-despain", processors=4)
    programs = build_workload(workload, config)
    return Simulator(config, programs).run_stepped().to_dict()


class TestOpIdentity:
    @pytest.mark.parametrize("name", PORTS)
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("style", list(LockStyle))
    def test_ported_streams_identical(self, name, n, style):
        config = config_for("bitar-despain", n=n)
        imperative = build_workload(name, config, style)
        declarative = build_workload(f"scenario:{name}", config, style)
        assert _fingerprint(declarative) == _fingerprint(imperative)

    @pytest.mark.parametrize("name", PORTS)
    def test_one_program_per_processor(self, name):
        config = config_for("bitar-despain", n=5)
        programs = build_workload(f"scenario:{name}", config,
                                  LockStyle.CACHE_LOCK)
        assert len(programs) == 5


class TestStatsIdentity:
    @pytest.mark.parametrize("name", PORTS)
    @pytest.mark.parametrize("fast_forward", [False, True])
    @pytest.mark.parametrize("dispatch", ["compiled", "interpreted"])
    def test_simstats_bit_identical(self, name, fast_forward, dispatch,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", dispatch)
        imperative = _stats(name, fast_forward)
        declarative = _stats(f"scenario:{name}", fast_forward)
        assert declarative == imperative

    @pytest.mark.parametrize("name", PORTS)
    def test_scenario_entries_registered(self, name):
        assert f"scenario:{name}" in WORKLOADS

    def test_run_result_stamps_lock_style(self):
        result = simulate(workload="scenario:lock-contention",
                          processors=2)
        assert result.lock_style == "cache-lock"
        assert result.to_dict()["lock_style"] == "cache-lock"
