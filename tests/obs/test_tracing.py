"""The causal span tracer: span DAG shape, lock handoff chains, and
engine independence of the trace itself."""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.obs import SPAN_KINDS, Observability
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention


def _traced_run(protocol: str = "bitar-despain", *, n: int = 4,
                fast_forward: bool = False,
                style: LockStyle | None = None):
    config = SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=True,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    if style is None:
        style = (LockStyle.CACHE_LOCK if protocol == "bitar-despain"
                 else LockStyle.TTAS)
    programs = lock_contention(config, lock_style=style,
                               rounds=5, think_cycles=9)
    obs = Observability(interval=50, tracing=True)
    sim = Simulator(config, programs, obs=obs, fast_forward=fast_forward)
    stats = sim.run()
    return obs, stats


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestSpanDag:
    def test_ids_are_dense_and_positional(self, traced):
        obs, _stats = traced
        spans = obs.result().spans
        assert spans, "a contended run must produce spans"
        assert [s["id"] for s in spans] == list(range(len(spans)))

    def test_links_point_strictly_backward(self, traced):
        obs, _stats = traced
        for span in obs.result().spans:
            for key in ("parent", "cause"):
                link = span.get(key)
                if link is not None:
                    assert 0 <= link < span["id"]

    def test_kinds_and_durations(self, traced):
        obs, _stats = traced
        for span in obs.result().spans:
            assert span["kind"] in SPAN_KINDS
            assert span["dur"] >= 0
            assert span["start"] >= 0

    def test_lifecycle_kinds_present(self, traced):
        obs, _stats = traced
        kinds = {s["kind"] for s in obs.result().spans}
        # A contended-lock run exercises the full lifecycle: bus
        # transactions, request episodes, lock waits, and lock holds.
        assert {"txn", "episode", "wait", "hold"} <= kinds


class TestLockCausality:
    def test_handoff_chain_orders_every_acquisition(self, traced):
        obs, stats = traced
        tracer = obs.tracer
        assert tracer is not None
        chains = tracer.handoffs
        assert chains, "contended run must record lock handoffs"
        acquired = sum(len(chain) for chain in chains.values())
        assert acquired == stats.lock_acquisitions
        for chain in chains.values():
            cycles = [hop["acquired"] for hop in chain]
            assert cycles == sorted(cycles)

    def test_block_wait_cycles_accumulate(self, traced):
        obs, _stats = traced
        tracer = obs.tracer
        assert tracer.block_waits
        assert all(cycles > 0 for cycles in tracer.block_waits.values())

    def test_hold_spans_link_back_through_the_wait(self, traced):
        obs, _stats = traced
        spans = obs.result().spans
        holds = [s for s in spans if s["kind"] == "hold"]
        waits = [s for s in spans if s["kind"] == "wait"]
        assert holds and waits
        # The handoff chain is traceable end to end: a contended
        # acquisition's hold names the wait it ended (cause) and the
        # episode that completed the acquisition (parent).
        wait_ids = {s["id"] for s in waits}
        linked = [s for s in holds if s.get("cause") in wait_ids]
        assert linked, "no hold span is linked to a lock wait"
        assert any(s.get("parent") is not None for s in holds)


class TestEngineIndependence:
    @pytest.mark.parametrize("protocol,style", [
        ("bitar-despain", LockStyle.CACHE_LOCK),
        ("illinois", LockStyle.TTAS),
    ])
    def test_spans_identical_across_engines(self, protocol, style):
        def spans(fast_forward: bool) -> list:
            obs, _stats = _traced_run(protocol, style=style,
                                      fast_forward=fast_forward)
            return obs.result().spans

        assert spans(True) == spans(False), (
            f"{protocol}: spans diverge under fast-forward")
