"""Cycle attribution: the exhaustive eight-bucket partition, its
engine bit-identity, the critical path, and the protocol comparison."""

from __future__ import annotations

import pytest

from repro import CacheConfig, SystemConfig
from repro.obs import (
    BUCKETS,
    AttributionError,
    AttributionReport,
    Observability,
    compare_attributions,
    compute_attribution,
    critical_path,
    render_comparison,
    render_critical_path,
)
from repro.processor.program import LockStyle
from repro.sim.engine import Simulator
from repro.workloads import lock_contention

#: The acceptance matrix: one proposal protocol (cache-lock waiting),
#: one invalidating snooper (test-and-test-and-set spinning), and the
#: write-through baseline (test-and-set).
MATRIX = [
    ("bitar-despain", LockStyle.CACHE_LOCK),
    ("illinois", LockStyle.TTAS),
    ("write-through", LockStyle.TAS),
]


def _attributed(protocol: str, style: LockStyle, *,
                stepped: bool = False, n: int = 4):
    config = SystemConfig(
        num_processors=n,
        protocol=protocol,
        strict_verify=True,
        cache=CacheConfig(words_per_block=4, num_blocks=64),
    )
    programs = lock_contention(config, lock_style=style,
                               rounds=5, think_cycles=9)
    obs = Observability(interval=50, tracing=True)
    sim = Simulator(config, programs, obs=obs)
    stats = sim.run_stepped() if stepped else sim.run()
    return obs, stats


@pytest.fixture(scope="module", params=MATRIX,
                ids=[protocol for protocol, _ in MATRIX])
def attributed(request):
    protocol, style = request.param
    obs, stats = _attributed(protocol, style)
    report = compute_attribution(obs.tracer, stats, protocol=protocol)
    return report, stats


class TestExhaustivePartition:
    def test_buckets_sum_exactly_to_total_cycles(self, attributed):
        report, stats = attributed
        assert len(report.per_pid) == len(stats.processors)
        for entry in report.per_pid:
            assert sum(entry["buckets"].values()) == entry["total"]
            assert entry["total"] == stats.cycles

    def test_all_eight_buckets_non_negative(self, attributed):
        report, _stats = attributed
        for entry in report.per_pid:
            assert set(entry["buckets"]) == set(BUCKETS)
            for bucket in BUCKETS:
                assert entry["buckets"][bucket] >= 0

    def test_contention_shows_up_in_lock_buckets(self, attributed):
        report, _stats = attributed
        totals = report.totals
        assert totals["lock_spin"] + totals["lock_sleep"] > 0

    def test_validate_rejects_a_tampered_report(self, attributed):
        report, _stats = attributed
        payload = report.to_dict()
        payload["per_pid"][0]["buckets"]["compute"] += 1
        broken = AttributionReport.from_dict(payload)
        with pytest.raises(AttributionError):
            broken.validate()

    def test_round_trips_through_to_dict(self, attributed):
        report, _stats = attributed
        clone = AttributionReport.from_dict(report.to_dict())
        assert clone.per_pid == report.per_pid
        assert clone.handoffs == report.handoffs
        assert clone.block_waits == report.block_waits
        assert clone.contended_block == report.contended_block


class TestBitIdentity:
    @pytest.mark.parametrize("protocol,style", MATRIX,
                             ids=[protocol for protocol, _ in MATRIX])
    def test_identical_across_engines(self, protocol, style):
        def attribution(stepped: bool) -> dict:
            obs, stats = _attributed(protocol, style, stepped=stepped)
            return compute_attribution(obs.tracer, stats,
                                       protocol=protocol).to_dict()

        assert attribution(False) == attribution(True), (
            f"{protocol}: attribution diverges from the stepped reference")


class TestCausalStory:
    def test_contended_block_is_the_lock_block(self, attributed):
        report, _stats = attributed
        # lock_contention hammers a single lock; it must dominate.
        assert report.contended_block is not None
        assert report.block_waits[report.contended_block] > 0

    def test_handoff_chain_names_every_owner(self, attributed):
        report, _stats = attributed
        chain = report.handoff_chain()
        assert chain, "contended lock must have a handoff chain"
        pids = {hop["pid"] for hop in chain}
        assert len(pids) > 1, "the lock must change hands"

    def test_render_tells_the_story(self, attributed):
        report, _stats = attributed
        text = report.render()
        assert "contended lock block:" in text
        assert "handoff chain:" in text
        for bucket in BUCKETS:
            assert bucket in text


class TestCriticalPath:
    def test_path_is_heavy_and_causally_ordered(self):
        obs, stats = _attributed("bitar-despain", LockStyle.CACHE_LOCK)
        spans = obs.result().spans
        path = critical_path(spans)
        assert path["cycles"] > 0
        assert path["spans"]
        starts = [s["start"] for s in path["spans"]]
        assert starts == sorted(starts)
        assert path["cycles"] <= stats.cycles * len(stats.processors)
        rendered = render_critical_path(path)
        assert "critical path:" in rendered

    def test_empty_spans_yield_empty_path(self):
        assert critical_path([]) == {"cycles": 0, "spans": []}


class TestComparison:
    def test_proposal_sleeps_where_snoopers_spin(self):
        reports = {}
        for protocol, style in MATRIX:
            obs, stats = _attributed(protocol, style)
            reports[protocol] = compute_attribution(
                obs.tracer, stats, protocol=protocol)
        comparison = compare_attributions(reports)
        assert comparison["kind"] == "attribution-comparison"
        entries = comparison["protocols"]
        assert set(entries) == {protocol for protocol, _ in MATRIX}
        for entry in entries.values():
            assert abs(sum(entry["shares"].values()) - 1.0) < 1e-9
        # The paper's causal story: the cache-lock proposal parks
        # waiters (sleep), TTAS snoopers burn the window spinning.
        bd = entries["bitar-despain"]["shares"]
        il = entries["illinois"]["shares"]
        assert bd["lock_sleep"] > bd["lock_spin"]
        assert il["lock_spin"] > il["lock_sleep"]
        assert "bitar-despain" in render_comparison(comparison)
