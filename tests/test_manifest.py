"""Tests for run-provenance manifests.

Covers the dataclass contract (serialization round-trip, schema guard),
the determinism boundary (runner-attached manifests identical for any
worker count, no spec hash, no volatile fields), the merge rule
(manifests survive only when both operands agree), and the store-side
spec-hash stamping.
"""

import json

import pytest

from repro.errors import TelemetryError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.results import ReliabilityResult
from repro.schemes import SCHEMES
from repro.service.jobs import CampaignSpec
from repro.service.store import ResultStore
from repro.stack.geometry import StackGeometry
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    schemes_registry_hash,
    volatile_provenance,
)


def make_manifest(**overrides):
    fields = dict(
        scheme="SECDED (ECC-DIMM like)",
        seed=5,
        trials=300,
        shard_size=100,
        sampling="naive",
        target_ci_width=None,
        schemes_hash=schemes_registry_hash(),
        package_version="1.0.0",
    )
    fields.update(overrides)
    return RunManifest(**fields)


def run_campaign(workers, seed=7, trials=120):
    geometry = StackGeometry()
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry,
            FailureRates.paper_baseline(tsv_device_fit=0.0),
            SCHEMES["secded"](geometry),
            EngineConfig(),
        ),
        root_seed=seed,
        workers=workers,
        shard_size=40,
    )
    return runner.run(trials=trials)


class TestRunManifestContract:
    def test_round_trip(self):
        manifest = make_manifest()
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_round_trip_with_spec_hash(self):
        manifest = make_manifest().with_spec_hash("abc123")
        data = manifest.to_dict()
        assert data["spec_hash"] == "abc123"
        assert RunManifest.from_dict(data) == manifest

    def test_spec_hash_omitted_when_unset(self):
        assert "spec_hash" not in make_manifest().to_dict()

    def test_schema_field(self):
        assert make_manifest().to_dict()["schema"] == MANIFEST_SCHEMA

    def test_from_dict_rejects_wrong_schema(self):
        data = make_manifest().to_dict()
        data["schema"] = 99
        with pytest.raises(TelemetryError, match="unsupported manifest"):
            RunManifest.from_dict(data)

    def test_from_dict_ignores_retired_checkpoint_version(self):
        """Store entries written while manifests carried a checkpoint
        version still load."""
        data = {**make_manifest().to_dict(), "checkpoint_version": 8}
        assert RunManifest.from_dict(data) == make_manifest()

    def test_from_dict_rejects_missing_keys(self):
        data = make_manifest().to_dict()
        del data["schemes_hash"]
        with pytest.raises(TelemetryError, match="schemes_hash"):
            RunManifest.from_dict(data)

    def test_describe_lines(self):
        lines = make_manifest().describe()
        text = "\n".join(lines)
        assert "SECDED" in text
        assert "schemes hash" in text
        assert "spec hash" not in text
        stamped = make_manifest().with_spec_hash("deadbeef").describe()
        assert any("deadbeef" in line for line in stamped)

    def test_schemes_hash_is_stable_and_short(self):
        assert schemes_registry_hash() == schemes_registry_hash()
        assert len(schemes_registry_hash()) == 16

    def test_serialized_core_has_no_volatile_fields(self):
        data = make_manifest().to_dict()
        for banned in ("hostname", "unix_time", "pid", "platform"):
            assert banned not in data

    def test_volatile_provenance_is_display_only_side(self):
        context = volatile_provenance()
        assert set(context) == {
            "hostname", "platform", "python", "pid", "unix_time"
        }


class TestRunnerAttachment:
    def test_runner_attaches_manifest(self):
        result = run_campaign(workers=1)
        manifest = result.manifest
        assert manifest is not None
        assert manifest.seed == 7
        assert manifest.trials == 120
        assert manifest.shard_size == 40
        assert manifest.schemes_hash == schemes_registry_hash()
        assert manifest.spec_hash is None

    def test_workers_1_vs_4_byte_identical_including_manifest(self):
        a = run_campaign(workers=1)
        b = run_campaign(workers=4)
        assert a.manifest == b.manifest
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_manifest_survives_result_round_trip(self):
        result = run_campaign(workers=1)
        rebuilt = ReliabilityResult.from_dict(result.to_dict())
        assert rebuilt.manifest == result.manifest
        assert rebuilt.to_dict() == result.to_dict()


class TestMergeRule:
    def make_result(self, manifest, trials=50, failures=3):
        return ReliabilityResult(
            scheme_name="s",
            trials=trials,
            failures=failures,
            lifetime_hours=61320.0,
            manifest=manifest,
        )

    def test_agreeing_manifests_survive_merge(self):
        manifest = make_manifest()
        merged = self.make_result(manifest).merge(self.make_result(manifest))
        assert merged.manifest == manifest

    def test_disagreeing_manifests_drop_to_none(self):
        merged = self.make_result(make_manifest(seed=1)).merge(
            self.make_result(make_manifest(seed=2))
        )
        assert merged.manifest is None

    def test_identity_merge_preserves_manifest(self):
        manifest = make_manifest()
        result = self.make_result(manifest)
        assert ReliabilityResult.identity().merge(result).manifest == manifest
        assert result.merge(ReliabilityResult.identity()).manifest == manifest

    def test_manifest_excluded_from_equality(self):
        with_manifest = self.make_result(make_manifest())
        without = self.make_result(None)
        assert with_manifest == without


class TestStoreStamping:
    def test_store_entry_carries_spec_hash_result_does_not(self, tmp_path):
        spec = CampaignSpec(scheme="secded", trials=120, seed=7,
                            shard_size=40)
        result = run_campaign(workers=1)
        store = ResultStore(tmp_path / "store")
        key = store.put(spec, result)
        entry = store.entry(spec)
        # Entry-level manifest: stamped with the content address.
        assert entry["manifest"]["spec_hash"] == key
        # Result-level manifest: deliberately address-free, so a service
        # run stays byte-identical to the equivalent direct run.
        assert "spec_hash" not in entry["result"]["manifest"]
        fetched = store.get(spec)
        assert fetched.manifest is not None
        assert fetched.manifest.spec_hash is None
        assert fetched.to_dict() == result.to_dict()
