"""Golden-value regression tests for the paper-figure experiments.

``tests/golden/*.json`` pins the exact sharded Monte-Carlo outputs of
the Figure 14 and Figure 18 experiments at reduced trial counts, under
fixed root seeds and a fixed shard plan, and the whole result documents
of the stratified, importance and naive sampling plans with engine
metrics on.  A refactor of the trial loop, fault sampling, striping, or
shard/merge machinery that shifts any number — failure counts, failure
times, stratum weights, per-stratum failure weights, metrics — fails
these tests, so paper figures cannot drift silently.

Legitimately intended changes are re-pinned with::

    PYTHONPATH=src python tools/regen_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.reliability.experiments import fig14_experiment, fig18_experiment
from repro.reliability.results import ReliabilityResult
from tools.regen_goldens import sampling_documents

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load(name):
    return json.loads((GOLDEN_DIR / name).read_text())


def assert_matches_golden(results, golden_results):
    assert sorted(results) == sorted(golden_results)
    for key, result in results.items():
        expected = ReliabilityResult.from_dict(golden_results[key])
        assert result == expected, (
            f"{key}: Monte-Carlo output drifted from the golden fixture "
            f"(got {result.failures}/{result.trials} failures, expected "
            f"{expected.failures}/{expected.trials}); if this change is "
            f"intended, regenerate with tools/regen_goldens.py"
        )


class TestBenchArtifactSchema:
    """The BENCH perf-trend artifact contract (schema 2): histogram
    metrics are folded into ``derived.histograms`` with deterministic
    quantile summaries, alongside the existing counter-derived stats."""

    def build(self, tmp_path):
        from repro.telemetry.registry import MetricsRegistry
        from tools.bench_report import ARTIFACT_SCHEMA, build_report

        metrics_dir = tmp_path / "metrics"
        metrics_dir.mkdir()
        registry = MetricsRegistry()
        registry.inc("engine/trials", 50)
        for value in (0.002, 0.004, 0.02):
            registry.observe(
                "engine/shard_seconds", value, edges=(0.001, 0.01, 0.1)
            )
        (metrics_dir / "fig14.json").write_text(
            json.dumps(registry.to_dict())
        )
        return ARTIFACT_SCHEMA, build_report(metrics_dir)

    def test_schema_version_is_2(self, tmp_path):
        schema, report = self.build(tmp_path)
        assert schema == 2
        assert report["schema"] == 2
        assert report["artifact"] == "BENCH"

    def test_histograms_folded_into_derived_sections(self, tmp_path):
        _, report = self.build(tmp_path)
        for section in (report["sources"]["fig14"], report["merged"]):
            summary = section["derived"]["histograms"][
                "engine/shard_seconds"
            ]
            assert summary["count"] == 3
            assert summary["max"] == 0.02
            assert set(summary) == {
                "count", "total", "mean", "min", "max", "p50", "p90", "p99"
            }

    def test_artifact_is_json_round_trip_stable(self, tmp_path):
        _, report = self.build(tmp_path)
        encoded = json.dumps(report, sort_keys=True)
        assert json.dumps(json.loads(encoded), sort_keys=True) == encoded


class TestGoldenFigures:
    def test_fig14_small_matches_golden(self, geometry):
        golden = load("fig14_small.json")
        results = fig14_experiment(
            geometry, golden["trials"], shard_size=golden["shard_size"]
        )
        assert_matches_golden(results, golden["results"])

    def test_fig18_small_matches_golden(self, geometry):
        golden = load("fig18_small.json")
        results = fig18_experiment(
            geometry,
            golden["symbol_trials"],
            golden["citadel_trials"],
            shard_size=golden["shard_size"],
        )
        assert_matches_golden(results, golden["results"])

    def test_sampling_small_matches_golden(self, geometry):
        """Whole documents, not ``ReliabilityResult ==`` (which ignores
        metrics): strata, failure weights and the ``sampling/*`` and
        ``engine/*`` counters are pinned too."""
        golden = load("sampling_small.json")
        documents = sampling_documents(
            geometry, golden["trials"], golden["shard_size"], golden["seed"]
        )
        assert sorted(documents) == sorted(golden["results"])
        for key, document in documents.items():
            assert document == golden["results"][key], (
                f"{key}: sampled result document drifted from the golden "
                f"fixture; if this change is intended, regenerate with "
                f"tools/regen_goldens.py"
            )

    def test_goldens_have_resolving_power(self):
        """A fixture with zero failures everywhere could not detect a
        biased refactor; require every pinned experiment to have at
        least one failing scheme and sane counts."""
        for name in (
            "fig14_small.json", "fig18_small.json", "sampling_small.json"
        ):
            golden = load(name)
            total_failures = 0
            for key, payload in golden["results"].items():
                result = ReliabilityResult.from_dict(payload)
                assert result.trials > 0
                assert 0 <= result.failures <= result.trials
                assert len(result.failure_times_hours) == result.failures
                total_failures += result.failures
            assert total_failures > 0, name
