"""The command-line interface."""

import pytest

from repro.cli import WORKLOADS, build_parser, main
from repro.protocols import PROTOCOLS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "bitar-despain"
        assert args.workload == "lock-contention"
        assert args.processors == 4

    def test_all_protocols_accepted(self):
        for protocol in PROTOCOLS:
            args = build_parser().parse_args(["run", "--protocol", protocol])
            assert args.protocol == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "mesi"])


class TestCommands:
    def test_run_prints_stats(self, capsys):
        assert main(["run", "-n", "2", "--workload", "lock-contention"]) == 0
        out = capsys.readouterr().out
        assert "lock acquisitions" in out
        assert "cycles" in out

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_runs(self, workload, capsys):
        assert main(["run", "-n", "2", "--workload", workload,
                     "--check-interval", "32"]) == 0

    def test_run_write_through(self, capsys):
        assert main(["run", "--protocol", "write-through", "-n", "2"]) == 0

    def test_run_rudolph_segall_defaults_block_size(self, capsys):
        assert main(["run", "--protocol", "rudolph-segall", "-n", "2"]) == 0

    def test_work_while_waiting_flag(self, capsys):
        assert main(["run", "-n", "2", "--work-while-waiting"]) == 0

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "RWLDS" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Innovation Summary" in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["figure10"]) == 0
        assert "bus-induced" in capsys.readouterr().out

    def test_trace_roundtrip_via_cli(self, tmp_path, capsys):
        trace = tmp_path / "w.trace"
        assert main(["run", "-n", "2", "--workload", "producer-consumer",
                     "--dump-trace", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["run", "-n", "2", "--trace", str(trace)]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_protocols(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for protocol in PROTOCOLS:
            assert protocol in out

    def test_json_output(self, capsys):
        import json

        assert main(["run", "-n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "txn_counts" in payload
        assert "processors" in payload and "0" in payload["processors"]

    def test_dual_bus_flag(self, capsys):
        assert main(["run", "-n", "4", "--buses", "2",
                     "--workload", "sharing"]) == 0

    def test_sweep(self, capsys):
        assert main(["sweep", "--processors", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "processors" in out and "failed attempts" in out

    def test_sweep_other_protocol(self, capsys):
        assert main(["sweep", "--protocol", "illinois",
                     "--processors", "2"]) == 0

    def test_compare(self, capsys):
        assert main(["compare", "-n", "2",
                     "--protocols", "illinois", "bitar-despain"]) == 0
        out = capsys.readouterr().out
        assert "illinois" in out and "bitar-despain" in out

    def test_compare_defaults_to_table1_field(self, capsys):
        assert main(["compare", "-n", "2"]) == 0
        out = capsys.readouterr().out
        for protocol in ("goodman", "synapse", "yen", "berkeley"):
            assert protocol in out

    def test_conformance_pass(self, capsys):
        assert main(["conformance", "--protocol", "bitar-despain"]) == 0
        assert "conformant" in capsys.readouterr().out

    def test_conformance_write_through(self, capsys):
        assert main(["conformance", "--protocol", "write-through"]) == 0


class TestRemovedFlags:
    # Removed flags exit with code 2 and a one-line error naming the
    # replacement (or, for --dispatch, why there is none).
    def test_verify_every_is_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "-n", "2", "--verify-every", "16"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--verify-every was removed" in err
        assert "--check-interval" in err

    def test_cache_blocks_is_removed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "-n", "2", "--cache-blocks", "32"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-blocks was removed" in err
        assert "--num-blocks" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_dispatch_is_removed(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--dispatch", "compiled"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--dispatch was removed" in err
        assert "single protocol core" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["run"], ["sweep"],
                                         ["scenario", "run",
                                          "lock-contention"]],
                             ids=["run", "sweep", "scenario-run"])
    def test_fast_forward_is_removed(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--fast-forward"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--fast-forward was removed" in err
        assert "the event-skip engine is now the only engine" in err
        assert len(err.splitlines()) == 1

    def test_new_spellings_work(self, capsys):
        assert main(["run", "-n", "2", "--check-interval", "16",
                     "--num-blocks", "32"]) == 0
        err = capsys.readouterr().err
        assert "removed" not in err and "deprecated" not in err


class TestUsageErrors:
    # A bad configuration exits 2 with a one-line error, never a
    # traceback.
    @pytest.mark.parametrize("argv,message", [
        (["run", "-n", "0"], "num_processors"),
        (["run", "--num-blocks", "0"], "num_blocks"),
        (["run", "--words-per-block", "0"], "words_per_block"),
        (["scenario", "run", "lock-contention", "-n", "0"],
         "num_processors"),
    ], ids=["run-processors", "run-num-blocks", "run-words-per-block",
            "scenario-run-processors"])
    def test_config_error_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and message in err
        assert "Traceback" not in err

    # Numeric flags are range-checked at parse time, naming the flag.
    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--jobs", "0"], "--jobs"),
        (["sweep", "--jobs", "-1"], "--jobs"),
        (["sweep", "--timeout", "-1"], "--timeout"),
        (["sweep", "--processors", "0", "2"], "--processors"),
        (["sweep", "--sample-interval", "0"], "--sample-interval"),
        (["run", "--check-interval", "-5"], "--check-interval"),
        (["run", "--metrics-out", "m.json", "--sample-interval", "-1"],
         "--sample-interval"),
    ], ids=["jobs-0", "jobs-negative", "timeout-negative", "processors-0",
            "sweep-sample-interval-0", "check-interval-negative",
            "run-sample-interval-negative"])
    def test_out_of_range_flag_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err or f"/{flag}" in err

    def test_check_interval_zero_still_allowed(self, capsys):
        assert main(["run", "-n", "2", "--check-interval", "0"]) == 0


class TestTopologyFlags:
    def test_clustered_run(self, capsys):
        assert main(["run", "-n", "4", "--topology", "clustered",
                     "--clusters", "2", "--workload", "sharing"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_directory_run(self, capsys):
        assert main(["run", "-n", "4", "--topology", "directory",
                     "--clusters", "2", "--workload", "sharing"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--topology", "mesh"])

    def test_sweep_with_topology(self, capsys):
        assert main(["sweep", "--processors", "2", "4",
                     "--topology", "directory"]) == 0
        assert "processors" in capsys.readouterr().out

    def test_env_override_selects_fabric(self, monkeypatch, capsys):
        from repro.bus.fabric import TOPOLOGY_ENV, default_topology

        monkeypatch.setenv(TOPOLOGY_ENV, "clustered")
        assert default_topology() == "clustered"
        monkeypatch.setenv(TOPOLOGY_ENV, "not-a-fabric")
        for command in (["run", "-n", "2"], ["sweep", "--processors", "2"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert TOPOLOGY_ENV in err and "not-a-fabric" in err
            assert "directory" in err
            assert "Traceback" not in err

    def test_explicit_topology_ignores_env(self, monkeypatch, capsys):
        from repro.bus.fabric import TOPOLOGY_ENV

        monkeypatch.setenv(TOPOLOGY_ENV, "not-a-fabric")
        assert main(["run", "-n", "2", "--topology", "snoop"]) == 0


class TestFabricFlags:
    def test_directory_banks_and_entry(self, capsys):
        assert main(["run", "-n", "4", "--topology", "directory",
                     "--directory-banks", "2",
                     "--directory-entry", "limited-pointer",
                     "--directory-pointers", "1",
                     "--workload", "sharing"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_coarse_vector_with_latency_knobs(self, capsys):
        assert main(["run", "-n", "4", "--topology", "directory",
                     "--directory-entry", "coarse-vector",
                     "--directory-region-size", "2",
                     "--hop-cycles", "3", "--lookup-cycles", "1",
                     "--workload", "sharing"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_rejects_clusters_with_directory_banks(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "-n", "4", "--clusters", "2",
                  "--directory-banks", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--clusters" in err and "--directory-banks" in err

    def test_sweep_rejects_clusters_with_directory_banks(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--processors", "2", "--clusters", "2",
                  "--directory-banks", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--clusters" in err and "--directory-banks" in err

    def test_sweep_entry_flags(self, capsys):
        assert main(["sweep", "--processors", "2", "4",
                     "--topology", "directory",
                     "--directory-banks", "2",
                     "--directory-entry", "coarse-vector"]) == 0
        assert "processors" in capsys.readouterr().out

    def test_entry_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--directory-entry", "sparse"])


class TestResilienceFlags:
    def test_chaos_sweep_recovers(self, capsys):
        assert main(["sweep", "--processors", "2", "3",
                     "--inject-faults", "raise@1", "--keep-going"]) == 0
        out = capsys.readouterr().out
        assert "resilience: retries raise=1" in out

    def test_exhausted_point_fails_the_sweep(self, capsys):
        assert main(["sweep", "--processors", "2", "3",
                     "--inject-faults", "raise@1:*", "--retries", "1"]) == 1
        err = capsys.readouterr().err
        assert "--keep-going" in err

    def test_keep_going_prints_statuses(self, capsys):
        assert main(["sweep", "--processors", "2", "3", "4",
                     "--inject-faults", "raise@1:*", "--retries", "1",
                     "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "status" in out
        assert "failed" in out
        # The healthy points still report their metrics.
        assert out.count("66%") == 2

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(["sweep", "--processors", "2",
                     "--inject-faults", "explode@1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "explode" in err

    def test_run_watchdog_flag(self, capsys):
        assert main(["run", "-n", "2", "--max-wall-seconds", "300"]) == 0

    def test_run_watchdog_abort_prints_diagnostics(self, capsys):
        assert main(["run", "-n", "2", "--max-wall-seconds", "0"]) == 1
        err = capsys.readouterr().err
        assert "wall-clock" in err
        assert "bus busy=" in err


class TestCheckCommand:
    def test_check_single_protocol(self, capsys):
        assert main(["check", "--protocol", "bitar-despain",
                     "--scenario", "lock-handoff", "--fuzz-seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "explore" in out and "OK" in out

    def test_check_json_report(self, capsys):
        import json

        assert main(["check", "--protocol", "illinois",
                     "--scenario", "tas-race", "--fuzz-seeds", "2",
                     "--json"]) == 0
        from repro.common.schema import SCHEMA_VERSION

        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_check_mutation_harness(self, capsys, tmp_path):
        assert main(["check", "--protocol", "bitar-despain",
                     "--scenario", "lock-handoff", "--fuzz-seeds", "2",
                     "--mutate", "drop-unlock-broadcast",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "caught" in out
        assert list(tmp_path.glob("*.json")), "counterexample not saved"

    def test_check_replay_fixture(self, capsys):
        from pathlib import Path

        fixture = (Path(__file__).parent / "mc" / "fixtures"
                   / "lost-dirty-purge.json")
        assert main(["check", "--replay", str(fixture)]) == 0
        assert "reproduced" in capsys.readouterr().out


class TestCausalTracing:
    def test_attribution_to_stdout(self, capsys):
        assert main(["run", "-n", "2", "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "contended lock block:" in out
        assert "handoff chain:" in out
        assert "critical path:" in out

    def test_attribution_and_spans_written_to_files(self, tmp_path, capsys):
        import json

        attr = tmp_path / "attr.json"
        spans = tmp_path / "spans.json"
        assert main(["run", "-n", "2",
                     "--attribution", str(attr),
                     "--spans-out", str(spans)]) == 0
        attribution = json.loads(attr.read_text())
        assert attribution["kind"] == "attribution-report"
        assert attribution["schema_version"] >= 4
        for entry in attribution["per_pid"]:
            assert sum(entry["buckets"].values()) == entry["total"]
        trace = json.loads(spans.read_text())
        assert trace["kind"] == "span-trace"
        assert trace["spans"]

    def test_spans_out_alone_enables_tracing(self, tmp_path, capsys):
        import json

        spans = tmp_path / "spans.json"
        assert main(["run", "-n", "2", "--spans-out", str(spans)]) == 0
        assert json.loads(spans.read_text())["spans"]

    def test_sweep_progress_flag_parses(self):
        args = build_parser().parse_args(["sweep", "--progress"])
        assert args.progress
        assert not build_parser().parse_args(["sweep"]).progress

    def test_sweep_progress_silent_when_not_a_tty(self, capsys):
        assert main(["sweep", "--processors", "2", "3", "--progress"]) == 0
        assert "eta" not in capsys.readouterr().err


class TestWorkloadNameValidation:
    def test_unknown_workload_exits_2_listing_names(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "-n", "2", "--workload", "totally-bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "totally-bogus" in err
        for name in sorted(WORKLOADS):
            assert name in err

    def test_underscore_spelling_accepted(self, capsys):
        assert main(["run", "-n", "2", "--workload", "scale_probe"]) == 0

    def test_sweep_and_compare_validate_too(self, capsys):
        for argv in (["sweep", "--workload", "nope"],
                     ["compare", "--workload", "nope"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "valid names" in capsys.readouterr().err


class TestScenarioCommands:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("lock-contention", "producer-consumer",
                     "request-queue"):
            assert name in out

    def test_export_and_run_from_file(self, tmp_path, capsys):
        out = tmp_path / "lc.json"
        assert main(["scenario", "export", "lock-contention",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", str(out), "-n", "2"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_by_library_name(self, capsys):
        assert main(["scenario", "run", "producer-consumer", "-n", "2"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scenario", "run", "no-such-scenario"])
        assert info.value.code == 2

    def test_fuzz_clean_exits_0(self, capsys):
        assert main(["scenario", "fuzz", "--scenario", "lock-contention",
                     "--probes", "2", "--schedules", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fuzz_mutation_caught_and_replayable(self, tmp_path, capsys):
        assert main(["scenario", "fuzz", "--scenario", "lock-contention",
                     "--probes", "4", "--schedules", "2",
                     "--mutate", "drop-unlock-broadcast",
                     "--out", str(tmp_path)]) == 0
        assert "caught" in capsys.readouterr().out
        fixtures = list(tmp_path.glob("*.json"))
        assert fixtures, "shrunk counterexample not saved"
        assert main(["scenario", "replay", str(fixtures[0])]) == 0
        assert "reproduced" in capsys.readouterr().out
