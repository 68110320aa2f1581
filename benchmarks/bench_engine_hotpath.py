"""Engine hot-path bench: incremental correctability must beat from-scratch.

Runs the Citadel configuration (3DP + TSV-Swap + DDS) on a
fault-dense stress workload — Table I rates with the bit/word FITs
scaled up so trials accumulate dozens of concurrently-live faults
(large-granularity FITs stay at paper values: scaling those would just
make every trial fail on the second arrival and keep live sets tiny).
A quarter-lifetime scrub interval forces several ``rebuild()`` calls
per trial, so the timed loop covers the whole incremental protocol:
``begin_trial``/``observe``/scrub rebuilds with DDS re-exposure.

Asserted here (and re-checked by ``tools/bench_report.py`` from the
``results/hotpath_speedup.json`` it reads):

* serial wall-clock speedup of the incremental kernels over the
  from-scratch oracle (``FromScratch(make_3dp(g))``) is >= 3x;
* the :class:`ReliabilityResult` — failure counts, failure times,
  stratum weight and the deterministic metrics snapshot — is identical
  across {incremental, from-scratch} x {1 worker, 4 workers}.
"""

import time

import pytest

from conftest import RESULTS_DIR, emit, scaled
from repro.analysis.report import ExperimentReport
from repro.core.parity3dp import make_3dp
from repro.ecc.base import FromScratch
from repro.faults.rates import TSV_FIT_HIGH, TABLE_I_8GB_FIT, FailureRates
from repro.faults.types import FaultKind
from repro.reliability.experiments import run_campaign
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.telemetry.files import write_json_atomic

TRIALS = scaled(400, floor=120)
SHARD_SIZE = 100
SEED = 302
SPEEDUP_TARGET = 3.0

#: Bit/word FIT multiplier of the stress workload (~100 live faults per
#: trial at peak; still overwhelmingly correctable by 3DP, which is what
#: keeps the live set growing).
SMALL_FAULT_SCALE = 1000

#: Four scrub passes over the 7-year lifetime: transients are dropped
#: and DDS spares/re-exposes faults mid-trial, exercising ``rebuild``.
SCRUB_INTERVAL_HOURS = 15330.0


def stress_rates() -> FailureRates:
    die_fit = {}
    for kind, (transient, permanent) in TABLE_I_8GB_FIT.items():
        if kind in (FaultKind.BIT, FaultKind.WORD):
            die_fit[kind] = (
                transient * SMALL_FAULT_SCALE,
                permanent * SMALL_FAULT_SCALE,
            )
        else:
            die_fit[kind] = (transient, permanent)
    return FailureRates(die_fit=die_fit, tsv_device_fit=TSV_FIT_HIGH)


def citadel_config() -> EngineConfig:
    return EngineConfig(
        tsv_swap_standby=4,
        use_dds=True,
        scrub_interval_hours=SCRUB_INTERVAL_HOURS,
        collect_metrics=True,
    )


@pytest.mark.benchmark(group="engine")
def test_incremental_hotpath_speedup(benchmark, geometry):
    rates = stress_rates()

    def campaign(incremental, workers):
        model = make_3dp(geometry)
        return run_campaign(
            geometry, rates, model if incremental else FromScratch(model),
            TRIALS, SEED,
            min_faults=2, workers=workers, shard_size=SHARD_SIZE,
            tsv_swap_standby=4, use_dds=True,
            scrub_interval_hours=SCRUB_INTERVAL_HOURS,
            collect_metrics=True,
        )

    def experiment():
        t0 = time.perf_counter()
        fast = campaign(incremental=True, workers=1)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = campaign(incremental=False, workers=1)
        t_reference = time.perf_counter() - t0
        return fast, reference, t_fast, t_reference

    fast, reference, t_fast, t_reference = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = t_reference / t_fast

    # The fast path must be invisible in the results: counts, failure
    # times, stratum weight and the metrics snapshot, at 1 and 4 workers.
    assert fast == reference
    assert fast.metrics == reference.metrics
    for incremental in (True, False):
        pooled = campaign(incremental=incremental, workers=4)
        assert pooled == reference
        assert pooled.metrics == reference.metrics

    # Sample the volatile kernel counters (stripped from result
    # snapshots) with a short serial run, for the report only.
    probe = LifetimeSimulator(
        geometry, rates, make_3dp(geometry), citadel_config(), seed=SEED
    )
    probe.run(trials=20, min_faults=2)
    probe_metrics = probe.last_run_metrics
    assert probe_metrics is not None
    hits = probe_metrics.counter("engine/incremental_hits")
    reuse = probe_metrics.counter("parity/peel_reuse")

    report = ExperimentReport(
        "Engine hot-path speedup",
        f"Citadel stress campaign, {TRIALS} trials, "
        f"bit/word FITs x{SMALL_FAULT_SCALE}",
    )
    report.add("from-scratch wall-clock", None, t_reference, unit="s")
    report.add("incremental wall-clock", None, t_fast, unit="s")
    report.add("speedup", SPEEDUP_TARGET, speedup, unit="x",
               note="serial, identical results at 1 and 4 workers")
    report.add("incremental observes (20-trial probe)", None, float(hits))
    report.add("components untouched by arrivals (20-trial probe)", None,
               float(reuse))
    emit(report, "engine_hotpath", fast.metrics)

    # Timing sidecar for tools/bench_report.py; lives next to (not in)
    # results/metrics/ so wall-clock numbers never enter the
    # deterministic BENCH artifact.
    write_json_atomic(
        RESULTS_DIR / "hotpath_speedup.json",
        {
            "bench": "engine_hotpath",
            "trials": TRIALS,
            "threshold": SPEEDUP_TARGET,
            "speedup": speedup,
            "incremental_seconds": t_fast,
            "from_scratch_seconds": t_reference,
            "results_identical": True,
            "workers_checked": [1, 4],
        },
    )

    assert speedup >= SPEEDUP_TARGET, (
        f"incremental hot path only {speedup:.2f}x over from-scratch "
        f"(target {SPEEDUP_TARGET}x)"
    )


# -------------------------------------------------------------------- #
# Batch trial kernel vs the incremental scalar loop
# -------------------------------------------------------------------- #
BATCH_TRIALS = scaled(12000, floor=3000)
BATCH_SPEEDUP_TARGET = 3.0


@pytest.mark.benchmark(group="engine")
def test_batch_kernel_speedup(benchmark, geometry):
    """The default engine, which runs this campaign through the
    vectorized batch path, must beat the incremental *scalar* reference
    loop (``LifetimeSimulator._run_scalar``) by >= 3x on the paper's
    Citadel configuration, with byte-identical results.

    Paper-rate workload (not the stress rates above): the batch kernel's
    fast path is a survival proof, so its win is largest exactly where
    campaigns spend their time — overwhelmingly-correctable trials.
    Metrics are off on both legs because the batch path only engages for
    observability-free runs (``make_batch_runner`` falls back otherwise).
    """
    import json

    rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)

    def serial(batch: bool):
        config = EngineConfig(tsv_swap_standby=4, use_dds=True)
        sim = LifetimeSimulator(
            geometry, rates, make_3dp(geometry), config, seed=SEED
        )
        if batch:
            return sim.run(trials=BATCH_TRIALS)
        return sim._run_scalar(BATCH_TRIALS, sim.default_min_faults(), None)

    def experiment():
        t0 = time.perf_counter()
        batched = serial(batch=True)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        scalar = serial(batch=False)
        t_scalar = time.perf_counter() - t0
        return batched, scalar, t_batch, t_scalar

    batched, scalar, t_batch, t_scalar = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = t_scalar / t_batch

    identical = json.dumps(batched.to_dict(), sort_keys=False) == json.dumps(
        scalar.to_dict(), sort_keys=False
    )
    assert identical, "batch path diverged from the scalar engine"

    report = ExperimentReport(
        "Batch trial kernel speedup",
        f"Citadel paper-rate campaign, {BATCH_TRIALS} trials, serial",
    )
    report.add("scalar wall-clock", None, t_scalar, unit="s")
    report.add("batch wall-clock", None, t_batch, unit="s")
    report.add("speedup", BATCH_SPEEDUP_TARGET, speedup, unit="x",
               note="byte-identical ReliabilityResult documents")
    emit(report, "engine_batch")

    # Timing sidecar re-checked by tools/bench_report.py, mirroring the
    # hotpath sidecar: wall-clock stays out of the BENCH artifact.
    write_json_atomic(
        RESULTS_DIR / "batch_speedup.json",
        {
            "bench": "engine_batch",
            "trials": BATCH_TRIALS,
            "threshold": BATCH_SPEEDUP_TARGET,
            "speedup": speedup,
            "batch_seconds": t_batch,
            "scalar_seconds": t_scalar,
            "results_identical": identical,
        },
    )

    assert speedup >= BATCH_SPEEDUP_TARGET, (
        f"batch trial kernel only {speedup:.2f}x over the scalar loop "
        f"(target {BATCH_SPEEDUP_TARGET}x)"
    )
