"""The engine wall-clock watchdog."""

import pytest

from repro import api
from repro.common.errors import WatchdogTimeout
from repro.sim.engine import Simulator
from repro.workloads.registry import build_workload


class TestWatchdog:
    def test_generous_budget_does_not_change_results(self):
        plain = api.simulate(processors=2)
        watched = api.simulate(processors=2, max_wall_seconds=300.0)
        assert watched.stats.to_payload() == plain.stats.to_payload()

    def test_zero_budget_aborts_immediately(self):
        with pytest.raises(WatchdogTimeout):
            api.simulate(processors=2, max_wall_seconds=0.0)

    def test_fast_forward_path_is_watched(self):
        config = api._build_config("bitar-despain", processors=2)
        sim = Simulator(config, build_workload("lock-contention", config))
        with pytest.raises(WatchdogTimeout):
            sim.run(max_wall_seconds=0.0)

    def test_diagnostics_describe_the_machine(self):
        with pytest.raises(WatchdogTimeout) as info:
            api.simulate(processors=3, max_wall_seconds=0.0)
        exc = info.value
        assert exc.budget_seconds == 0.0
        assert exc.elapsed_seconds >= 0.0
        diag = exc.diagnostics
        assert diag["cycle"] >= 0
        assert "busy" in diag["bus"]
        assert "bus_requests_pending" in diag
        assert len(diag["processors"]) == 3
        for proc in diag["processors"]:
            assert {"pid", "done", "pc", "state"} <= set(proc)
        assert isinstance(diag["caches"], list)
        assert isinstance(diag["lock_queue"], list)

    def test_message_names_the_budget(self):
        with pytest.raises(WatchdogTimeout, match="wall-clock"):
            api.simulate(processors=2, max_wall_seconds=0.0)

    def test_unarmed_run_has_no_watchdog(self):
        result = api.simulate(processors=2)
        assert result.stats.cycles > 0
