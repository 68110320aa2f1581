"""End-to-end telemetry guarantees.

Three contracts, tested against real campaigns rather than mocks:

1. *Metrics never change the numbers.*  A campaign with
   ``collect_metrics=True`` produces byte-identical sample data to one
   without, and the worker count changes neither the samples nor the
   merged metrics.
2. *Disabled means free.*  With telemetry off the trial loop must not
   pay for the instrumentation (guarded by a min-of-repeats timing
   comparison with a generous 5% margin).
3. *The artifacts compose.*  ``--metrics-out``/``--trace-out`` files
   feed ``repro stats`` and ``tools/bench_report.py`` and come back out
   as the per-dimension correction counts and parity-cache hit rate the
   paper figures are built from.
"""

import json
import time

import pytest

from repro.cli import main
from repro.errors import TelemetryError
from repro.faults.rates import FailureRates
from repro.core.parity3dp import make_3dp
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import ParallelLifetimeRunner, ReliabilityWork
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats import derived_stats, load_metrics_file
from tools.bench_report import build_report


def run_parallel(geometry, workers, trials=600, **cfg):
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry,
            FailureRates.paper_baseline(tsv_device_fit=100.0),
            make_3dp(geometry),
            EngineConfig(tsv_swap_standby=4, use_dds=True, **cfg),
        ),
        root_seed=42,
        workers=workers,
        shard_size=200,
    )
    return runner.run(trials=trials)


class TestMetricsNeverChangeResults:
    @pytest.mark.parametrize("sampling", ["naive", "stratified", "importance"])
    def test_telemetry_on_equals_telemetry_off(self, geometry, sampling):
        off = run_parallel(geometry, workers=1, sampling=sampling)
        on = run_parallel(
            geometry, workers=1, collect_metrics=True, sampling=sampling
        )
        assert off == on  # dataclass equality excludes the metrics sidecar
        assert off.metrics is None
        assert on.metrics is not None
        off_doc, on_doc = off.to_dict(), on.to_dict()
        on_doc.pop("metrics")
        assert off_doc == on_doc

    def test_workers_1_vs_4_identical_merged_metrics(self, geometry):
        a = run_parallel(geometry, workers=1, collect_metrics=True)
        b = run_parallel(geometry, workers=4, collect_metrics=True)
        assert a == b
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_metrics_account_for_every_trial(self, geometry):
        result = run_parallel(geometry, workers=2, collect_metrics=True)
        assert result.metrics.counter("engine/trials") == result.trials
        assert result.metrics.counter("engine/failures") == result.failures
        hist = result.metrics.histogram("engine/faults_per_trial")
        assert hist is not None
        assert hist.count == result.trials

    def test_campaign_wallclock_metrics_stay_out_of_results(self, geometry):
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geometry,
                FailureRates.paper_baseline(tsv_device_fit=100.0),
                make_3dp(geometry),
                EngineConfig(collect_metrics=True),
            ),
            root_seed=7,
            workers=2,
            shard_size=100,
        )
        result = runner.run(trials=300)
        campaign = runner.last_campaign_metrics
        assert campaign.counter("campaign/shards_completed") == 3
        # Shard wall-clock lives only runner-side; the merged result
        # carries nothing volatile, so checkpoints stay deterministic.
        assert "campaign/shard_time" not in result.metrics.names()
        assert all(not n.startswith("campaign/") for n in result.metrics)


class TestDisabledOverhead:
    def test_disabled_telemetry_is_near_free(self, geometry):
        """min-of-repeats timing: the metrics=None fast path must stay
        within 5% of the instrumented-but-disabled loop's budget."""
        def best_of(repeats, **cfg):
            best = float("inf")
            for _ in range(repeats):
                started = time.monotonic()
                run_parallel(geometry, workers=1, trials=300, **cfg)
                best = min(best, time.monotonic() - started)
            return best

        best_of(1)  # warm caches before timing either variant
        disabled = best_of(3)
        enabled = best_of(3, collect_metrics=True)
        assert disabled <= enabled * 1.05, (
            f"telemetry-disabled campaign ran at {disabled:.3f}s vs "
            f"{enabled:.3f}s enabled; the disabled path must not pay "
            "for instrumentation"
        )


class TestStatsHelpers:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.inc("parity/corrected/dim1", 40)
        registry.inc("parity/corrected/dim2", 2)
        registry.inc("perf/parity_lookups", 100)
        registry.inc("perf/parity_hits", 85)
        registry.inc("engine/trials", 10)
        registry.inc("engine/failures", 1)
        registry.inc("engine/faults_sampled", 25)
        return registry

    def test_derived_stats_headlines(self):
        derived = derived_stats(self.make_registry())
        assert derived["parity_corrections_by_dimension"] == {
            "dim1": 40, "dim2": 2,
        }
        assert derived["parity_cache_hit_rate"] == pytest.approx(0.85)
        assert derived["trials"] == 10
        assert derived["failures"] == 1

    def test_load_metrics_file_accepts_all_embeddings(self, tmp_path):
        registry = self.make_registry()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(registry.to_dict()))
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"metrics": registry.to_dict()}))
        result_doc = tmp_path / "result.json"
        result_doc.write_text(
            json.dumps({"result": {"metrics": registry.to_dict()}})
        )
        for path in (bare, nested, result_doc):
            assert load_metrics_file(path).to_dict() == registry.to_dict()

    def test_load_metrics_file_rejects_junk(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(TelemetryError):
            load_metrics_file(bad)
        bad.write_text('{"unrelated": 1}')
        with pytest.raises(TelemetryError):
            load_metrics_file(bad)


class TestCliStatsEndToEnd:
    def test_campaign_artifacts_feed_stats(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = main([
            "reliability", "--scheme", "citadel", "--trials", "400",
            "--tsv-fit", "100", "--workers", "2",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--trace-sample-every", "50",
        ])
        assert rc == 0
        capsys.readouterr()

        perf_path = tmp_path / "perf.json"
        rc = main([
            "perf", "--benchmark", "mcf", "--requests", "400",
            "--configs", "3dp", "--metrics-out", str(perf_path),
        ])
        assert rc == 0
        capsys.readouterr()

        rc = main([
            "stats", "--metrics", str(metrics_path), str(perf_path),
            "--trace", str(trace_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3DP corrections by dimension:" in out
        assert "dim1" in out
        assert "parity cache hit rate:" in out
        assert "trials: 400" in out
        assert "trace spans:" in out

    def test_stats_json_document(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "reliability", "--scheme", "3dp", "--trials", "200",
            "--tsv-fit", "100", "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics_path),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["derived"]["trials"] == 200
        assert document["metrics"]["counters"]["engine/trials"] == 200

    def test_stats_without_inputs_is_usage_error(self, capsys):
        assert main(["stats"]) == 2
        capsys.readouterr()


class TestBenchReport:
    def test_build_report_is_deterministic(self, tmp_path):
        metrics_dir = tmp_path / "metrics"
        metrics_dir.mkdir()
        registry = MetricsRegistry()
        registry.inc("engine/trials", 100)
        registry.inc("engine/failures", 3)
        registry.inc("engine/faults_sampled", 40)
        (metrics_dir / "fig14.json").write_text(
            json.dumps(registry.to_dict())
        )
        other = MetricsRegistry()
        other.inc("perf/parity_lookups", 10)
        other.inc("perf/parity_hits", 9)
        (metrics_dir / "fig13.json").write_text(json.dumps(other.to_dict()))

        first = build_report(metrics_dir)
        second = build_report(metrics_dir)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert sorted(first["sources"]) == ["fig13", "fig14"]
        merged = first["merged"]["derived"]
        assert merged["trials"] == 100
        assert merged["parity_cache_hit_rate"] == pytest.approx(0.9)


class TestSamplingSidecar:
    """tools/bench_report.py re-checks the importance-sampling
    trial-reduction sidecar dropped by bench_sampling_speedup."""

    def _sidecar(self, tmp_path, **overrides):
        from tools.bench_report import SIDECARS, check_sidecar

        payload = {
            "bench": "sampling_speedup",
            "trials": 2000,
            "threshold": 5.0,
            "trial_reduction": 2500.0,
            "estimates_consistent": True,
        }
        payload.update(overrides)
        (tmp_path / "bench_sampling_speedup.json").write_text(
            json.dumps(payload)
        )
        return check_sidecar(tmp_path, SIDECARS["sampling"])

    def test_absent_sidecar_passes(self, tmp_path):
        from tools.bench_report import SIDECARS, check_sidecar

        assert check_sidecar(tmp_path, SIDECARS["sampling"]) == 0

    def test_healthy_sidecar_passes(self, tmp_path, capsys):
        assert self._sidecar(tmp_path) == 0
        capsys.readouterr()

    def test_reduction_below_threshold_fails(self, tmp_path, capsys):
        assert self._sidecar(tmp_path, trial_reduction=4.9) == 1
        assert "trial reduction" in capsys.readouterr().err

    def test_inconsistent_estimates_fail(self, tmp_path, capsys):
        assert self._sidecar(tmp_path, estimates_consistent=False) == 1
        assert "disagree" in capsys.readouterr().err

    def test_mangled_sidecar_fails(self, tmp_path, capsys):
        assert self._sidecar(tmp_path, trial_reduction="not-a-number") == 1
        assert "unreadable" in capsys.readouterr().err
