"""Exporters: JSON-lines / CSV sample series and Chrome trace-event JSON."""

from __future__ import annotations

import csv
import io
import json

from repro.common.schema import SCHEMA_VERSION

import pytest

from repro.obs import (
    assert_valid_chrome_trace,
    chrome_trace,
    metrics_json,
    samples_csv,
    samples_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_samples,
)


class TestSampleExport:
    def test_jsonl_header_plus_one_line_per_sample(self, observed):
        obs, stats = observed
        lines = samples_jsonl(obs).splitlines()
        header = json.loads(lines[0])
        assert header == {"kind": "header", "interval": obs.sampler.interval,
                          "cycles": stats.cycles,
                          "schema_version": SCHEMA_VERSION}
        rows = [json.loads(line) for line in lines[1:]]
        assert len(rows) == len(obs.sampler.samples) > 0
        assert all(row["kind"] == "sample" for row in rows)
        assert rows[-1]["cycle"] == stats.cycles

    def test_csv_round_trips_nested_fields(self, observed):
        obs, _stats = observed
        reader = csv.DictReader(io.StringIO(samples_csv(obs)))
        rows = list(reader)
        assert len(rows) == len(obs.sampler.samples)
        first = rows[0]
        assert json.loads(first["txn_mix"]) == obs.sampler.samples[0]["txn_mix"]
        assert int(first["cycle"]) == obs.sampler.samples[0]["cycle"]

    def test_metrics_json_is_full_result_document(self, observed):
        obs, stats = observed
        doc = json.loads(metrics_json(obs))
        assert doc["cycles"] == stats.cycles
        assert set(doc) == {"interval", "cycles", "samples", "metrics",
                            "slices", "spans", "attribution",
                            "schema_version"}
        assert "lock_acquisitions_total" in doc["metrics"]

    def test_write_samples_dispatches_on_extension(self, observed, tmp_path):
        obs, _stats = observed
        jsonl = tmp_path / "s.jsonl"
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        write_samples(obs, str(jsonl))
        write_samples(obs, str(csv_path))
        write_samples(obs, str(json_path))
        assert jsonl.read_text() == samples_jsonl(obs)
        assert csv_path.read_text() == samples_csv(obs)
        # JSON stringifies the int block keys in lock_queue_depth, so
        # compare against the samples' own JSON round-trip.
        assert json.loads(json_path.read_text())["samples"] == (
            json.loads(json.dumps(obs.sampler.samples))
        )

    def test_result_and_live_layer_export_identically(self, observed):
        obs, _stats = observed
        assert samples_jsonl(obs.result()) == samples_jsonl(obs)


class TestChromeTrace:
    def test_trace_validates_against_schema(self, observed):
        obs, _stats = observed
        payload = chrome_trace(obs)
        assert validate_chrome_trace(payload) == []
        assert_valid_chrome_trace(payload)  # must not raise

    def test_one_track_per_bus_and_processor(self, observed):
        obs, _stats = observed
        payload = chrome_trace(obs)
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "bus0" in names
        assert {f"cpu{i}" for i in range(4)} <= names
        # Bus tracks sort above processor tracks.
        tids = {e["args"]["name"]: e["tid"] for e in payload["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert tids["bus0"] < min(tids[f"cpu{i}"] for i in range(4))

    def test_lock_hold_and_wait_slices_on_processor_tracks(self, observed):
        obs, _stats = observed
        payload = chrome_trace(obs)
        cpu_slices = [e for e in payload["traceEvents"]
                      if e["ph"] == "X" and e["cat"].startswith("cpu")]
        assert any(e["name"].startswith("hold ") for e in cpu_slices)
        assert any(e["name"].startswith("wait ") for e in cpu_slices)
        bus_slices = [e for e in payload["traceEvents"]
                      if e["ph"] == "X" and e["cat"].startswith("bus")]
        assert bus_slices, "bus occupancy slices missing"

    def test_write_round_trips(self, observed, tmp_path):
        obs, _stats = observed
        path = tmp_path / "trace.json"
        write_chrome_trace(obs, str(path))
        assert json.loads(path.read_text()) == chrome_trace(obs)

    def test_fast_forward_trace_identical(self, observed_run):
        stepped_obs, _ = observed_run("bitar-despain", stepped=True)
        fast_obs, _ = observed_run("bitar-despain")
        assert chrome_trace(stepped_obs) == chrome_trace(fast_obs)


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": {}}) != []

    def test_flags_bad_events(self):
        payload = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1, "dur": 2},
            {"ph": "M", "name": "x", "pid": 0, "tid": 0},
            {"ph": "X", "name": 3, "pid": 0, "tid": 0, "ts": 0, "dur": 0},
            "not an event",
        ]}
        problems = validate_chrome_trace(payload)
        assert len(problems) >= 5
        with pytest.raises(ValueError):
            assert_valid_chrome_trace(payload)
