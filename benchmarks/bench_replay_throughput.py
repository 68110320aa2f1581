"""Replay co-simulation throughput smoke + worker byte-identity.

Runs a small Citadel replay campaign (zipfian workload), measures
end-to-end replayed-request throughput, and asserts that the serial and
4-worker runs serialize byte-identically.  A ``results/
bench_replay_throughput.json`` sidecar records the measured requests/sec
against a floor; ``tools/bench_report.py`` re-checks it post-hoc, so a
throughput regression in the replay engine fails CI even when the bench
assertion itself is filtered out.

The floor is deliberately conservative (CI machines are slow and
shared); the trend signal lives in the sidecar's absolute number.
"""

import json
import time

import pytest

from conftest import BENCH_WORKERS, RESULTS_DIR, emit, scaled
from repro.analysis.report import ExperimentReport
from repro.core.parity3dp import make_3dp
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import ParallelLifetimeRunner
from repro.replay import ReplayConfig, ReplayWork
from repro.telemetry.files import write_json_atomic

TRIALS = scaled(64, floor=8)
REQUESTS_PER_CORE = 256
CORES = 4

#: Replayed demand requests per wall-clock second, across all trials.
#: A debug-build Python on a loaded CI box still clears this easily.
THROUGHPUT_FLOOR = 2000.0


def make_runner(geometry, workers):
    work = ReplayWork(
        geometry,
        FailureRates.paper_baseline(tsv_device_fit=500.0),
        make_3dp(geometry),
        EngineConfig(tsv_swap_standby=4, use_dds=True),
        ReplayConfig(
            workload="zipfian", cores=CORES,
            requests_per_core=REQUESTS_PER_CORE,
        ),
    )
    return ParallelLifetimeRunner(
        work=work,
        root_seed=42,
        workers=workers,
        shard_size=4,
    )


@pytest.mark.benchmark(group="replay")
def test_replay_throughput_and_worker_identity(benchmark, geometry):
    def experiment():
        t0 = time.perf_counter()
        serial = make_runner(geometry, workers=1).run(trials=TRIALS)
        t_serial = time.perf_counter() - t0
        pooled = make_runner(geometry, workers=BENCH_WORKERS or 4).run(
            trials=TRIALS
        )
        return serial, pooled, t_serial

    serial, pooled, t_serial = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    identical = json.dumps(serial.to_dict()) == json.dumps(pooled.to_dict())
    replayed = serial.trials * serial.requests_per_trial
    throughput = replayed / t_serial if t_serial > 0 else 0.0

    report = ExperimentReport(
        "Replay throughput",
        f"Citadel replay, {TRIALS} trials x "
        f"{CORES * REQUESTS_PER_CORE} requests",
    )
    report.add("replayed requests", None, float(replayed), unit="req")
    report.add("serial wall-clock", None, t_serial, unit="s")
    report.add("throughput", THROUGHPUT_FLOOR, throughput, unit="req/s")
    report.add("mean slowdown", None, serial.mean_slowdown, unit="x")
    report.add("mean energy overhead", None, serial.mean_energy_overhead,
               unit="x")
    emit(report, "replay_throughput", metrics=serial.metrics)

    # Sidecar for tools/bench_report.py: re-checked post-hoc so a
    # regression fails CI even if this assertion is filtered out.
    write_json_atomic(
        RESULTS_DIR / "bench_replay_throughput.json",
        {
            "bench": "replay_throughput",
            "trials": TRIALS,
            "requests_per_trial": serial.requests_per_trial,
            "threshold": THROUGHPUT_FLOOR,
            "requests_per_sec": throughput,
            "results_identical": identical,
        },
    )

    assert identical, "serial and pooled replay results differ"
    assert throughput >= THROUGHPUT_FLOOR, (
        f"replay throughput {throughput:.0f} req/s below the "
        f"{THROUGHPUT_FLOOR:.0f} req/s floor"
    )
