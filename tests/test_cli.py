"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import PERF_CONFIGS, SCHEMES, build_parser, main
from test_service_http import SERVE_POLL_S


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reliability_defaults(self):
        args = build_parser().parse_args(["reliability"])
        assert args.scheme == "citadel"
        assert args.trials == 20000
        assert args.tsv_fit == 0.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reliability", "--scheme", "nope"])

    @pytest.mark.parametrize("command", ["reliability", "submit"])
    def test_batch_flag_is_gone(self, command):
        # The batch kernel is picked automatically; the old opt-in flag
        # is a usage error.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--batch"])
        assert excinfo.value.code == 2

    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.benchmark == "mcf"
        assert set(args.configs) == set(PERF_CONFIGS)


class TestCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "14.062%" in out
        assert "35874" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "BIOBENCH" in out
        assert out.count("\n") >= 39  # header + 38 benchmarks

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in SCHEMES:
            assert name in out

    def test_reliability_small_run(self, capsys):
        rc = main([
            "reliability", "--scheme", "secded", "--trials", "300",
            "--seed", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(fail)" in out

    def test_reliability_citadel_wires_mitigations(self, capsys):
        rc = main([
            "reliability", "--scheme", "citadel", "--trials", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TSV-Swap" in out and "DDS" in out

    def test_reliability_modes_flag(self, capsys):
        rc = main([
            "reliability", "--scheme", "symbol-same-bank",
            "--trials", "1500", "--modes", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failure modes" in out

    def test_perf_small_run(self, capsys):
        rc = main([
            "perf", "--benchmark", "povray", "--requests", "200",
            "--configs", "same-bank", "3dp",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "same-bank" in out and "3dp" in out
        # Same-Bank is the normalization baseline: 1.000x.
        assert "1.000x" in out

    @pytest.mark.parametrize("command", ["reliability", "replay", "profile"])
    def test_zero_trials_rejected_by_the_spec(self, command, capsys):
        # The same CampaignSpec validation `repro submit` applies.
        assert main([command, "--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert "trials must be a positive int" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tsv_fit_rejected_by_the_spec(self, value, capsys):
        """A NaN FIT used to run as FIT 0 under another address."""
        assert main([
            "reliability", "--scheme", "3dp", "--tsv-fit", value,
            "--trials", "200", "--shard-size", "100",
        ]) == 1
        captured = capsys.readouterr()
        assert "tsv_fit must be a finite number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_error_exits_1_at_any_worker_count(self, workers, capsys):
        """An error the campaign raises inside a shard is not a worker
        crash: it ends the run, in the pool as in-process."""
        rc = main([
            "reliability", "--scheme", "3dp", "--tsv-fit", "1e12",
            "--trials", "20", "--shard-size", "10",
            "--workers", str(workers),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "too large" in captured.err
        assert captured.out == ""


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        from repro import __version__
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"
        # Metadata fallback: an uninstalled tree reports the source
        # version, an installed one reports the distribution's.
        assert package_version() == __version__ or package_version()


class TestJsonOutput:
    def test_overhead_json(self, capsys):
        import json

        assert main(["overhead", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sram_bytes"] == 35874
        assert document["dram_fraction"] == pytest.approx(0.140625)

    def test_workloads_json(self, capsys):
        import json

        assert main(["workloads", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "mcf" in document
        assert document["mcf"]["suite"]
        assert len(document) >= 38

    def test_schemes_json(self, capsys):
        import json

        assert main(["schemes", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == set(SCHEMES)
        assert document["citadel"]["implies_mitigations"] is True
        assert document["secded"]["implies_mitigations"] is False


class TestObservabilityCommands:
    """e2e for the ISSUE 8 CLI surface: `repro profile`, `repro top`
    (against a live in-process service), and `repro stats --export`."""

    @pytest.fixture
    def live_service(self, tmp_path):
        import threading

        from repro.reliability.parallel import CampaignReport
        from repro.reliability.results import ReliabilityResult
        from repro.service.http import make_server
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore

        def stub_executor(spec, workers, cancel_event):
            result = ReliabilityResult(
                scheme_name=spec.scheme,
                trials=spec.effective_trials,
                failures=1,
                lifetime_hours=61320.0,
            )
            return result, CampaignReport(planned_shards=1, merged_shards=1)

        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(
            store, slots=1, retry_backoff_s=0.0, executor=stub_executor
        ).start()
        server = make_server(scheduler, quiet=True)
        thread = threading.Thread(
            target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True
        )
        thread.start()
        yield f"http://127.0.0.1:{server.port}"
        server.shutdown()
        server.server_close()
        scheduler.shutdown()
        thread.join(timeout=10.0)

    def test_profile_reports_span_hotspots(self, capsys, tmp_path):
        import json

        spans = tmp_path / "spans.folded"
        chrome = tmp_path / "trace.json"
        rc = main([
            "profile", "--scheme", "secded", "--trials", "60",
            "--seed", "3", "--shard-size", "30", "--no-sampler",
            "--spans-out", str(spans),
            "--chrome-out", str(chrome), "--json",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["trials"] == 60
        stacks = {h["stack"]: h["count"] for h in document["span_hotspots"]}
        assert stacks["campaign;shard;trial"] == 60
        assert "p_fail" in captured.err
        assert "campaign;shard;trial 60" in spans.read_text()
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_top_once_renders_dashboard(self, capsys, live_service):
        rc = main(["top", "--url", live_service, "--once"])
        assert rc == 0
        err_text = capsys.readouterr().err
        assert "repro top — service ok" in err_text
        assert "jobs      queued:0" in err_text

    def test_stats_export_collapsed_and_chrome(self, capsys, tmp_path):
        import json

        from repro.telemetry.tracing import TraceWriter

        trace_path = tmp_path / "trace.jsonl"
        writer = TraceWriter(trace_path, sample_every=1)
        with writer.span("campaign"):
            with writer.span("shard-0"):
                pass
        writer.close()
        assert main([
            "stats", "--trace", str(trace_path), "--export", "collapsed",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign;shard 1" in out
        assert main([
            "stats", "--trace", str(trace_path), "--export", "chrome",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"

    def test_stats_export_requires_trace(self, capsys):
        assert main(["stats", "--export", "chrome"]) == 2
        assert "--trace" in capsys.readouterr().err
