"""The replay co-simulation engine: one shard of joint trials.

A replay trial couples the two simulators:

1. the reliability engine samples a lifetime fault history (with the
   same ``min_faults`` conditioning and stratum weight as ``repro
   reliability``) and exports its mitigation-event timeline;
2. the performance simulator replays the shared workload trace with a
   :class:`~repro.replay.perturb.ReplayPerturbation` hook, so remaps,
   swaps, scrubbing and degraded-bank correction perturb per-request
   latency and inject protection traffic;
3. the power model prices the perturbed run's event counters, and —
   with the thermal switch on — baseline bank activity feeds per-bank
   FIT multipliers back into the fault injector
   (:mod:`repro.replay.thermal`).

Every trial replays against the *same* traces (seeded from the campaign
root), so shard results share bitwise-identical baselines and merge via
the :class:`~repro.replay.results.ReplayResult` monoid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.rates import FailureRates
from repro.ecc.base import CorrectionModel
from repro.perf.power import PowerModel
from repro.perf.system import PerfConfig, SystemSimulator
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.replay.perturb import ReplayPerturbation
from repro.replay.results import ReplayResult
from repro.replay.thermal import thermal_bank_multipliers
from repro.replay.timeline import build_timeline
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.generator import rate_mode_traces
from repro.workloads.profiles import WORKLOADS
from repro.workloads.trace import Trace

#: Bucket edges of the ``replay/slowdown`` histogram (perturbed over
#: baseline execution time; protection overheads are small multipliers).
SLOWDOWN_EDGES = (1.0, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0)


@dataclass(frozen=True)
class ReplayConfig:
    """The workload/feedback half of a replay campaign."""

    workload: str = "zipfian"
    cores: int = 4
    requests_per_core: int = 512
    stacks: int = 2
    #: Feed baseline bank activity back into per-bank FIT multipliers.
    thermal: bool = False
    thermal_max_rise_c: float = 10.0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigurationError(f"unknown workload: {self.workload}")
        contracts.require(self.cores >= 1, "cores must be >= 1")
        contracts.require(
            self.requests_per_core >= 1, "requests_per_core must be >= 1"
        )
        contracts.require(self.stacks >= 1, "stacks must be >= 1")
        contracts.require(
            self.thermal_max_rise_c > 0,
            "thermal_max_rise_c must be positive",
        )


def default_perf_config(replay: ReplayConfig) -> PerfConfig:
    """The paper's Citadel organization: Same-Bank + cached 3DP parity."""
    return PerfConfig(
        parity_protection=True,
        parity_caching=True,
        stacks=replay.stacks,
    )


class ReplayEngine:
    """Runs replay trials for one (scheme, workload, mitigation) tuple."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        engine_config: EngineConfig,
        replay_config: ReplayConfig,
        perf_config: Optional[PerfConfig] = None,
    ) -> None:
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.engine_config = engine_config
        self.replay_config = replay_config
        self.perf_config = (
            perf_config
            if perf_config is not None
            else default_perf_config(replay_config)
        )
        self.power = PowerModel(geometry, stacks=replay_config.stacks)

    # ------------------------------------------------------------------ #
    def build_traces(self, trace_seed: int) -> List[Trace]:
        """The shared workload: a pure function of the campaign root seed,
        identical for every shard and worker count."""
        return rate_mode_traces(
            self.replay_config.workload,
            self.geometry,
            cores=self.replay_config.cores,
            requests_per_core=self.replay_config.requests_per_core,
            seed=trace_seed,
            stacks=self.replay_config.stacks,
        )

    def min_faults(self) -> int:
        """The ``min_faults`` stratum shared with ``repro reliability``."""
        probe = LifetimeSimulator(
            self.geometry, self.rates, self.model, self.engine_config, seed=0
        )
        return probe.default_min_faults()

    def scheme_label(self) -> str:
        probe = LifetimeSimulator(
            self.geometry, self.rates, self.model, self.engine_config, seed=0
        )
        return probe.scheme_label() + " replay"

    # ------------------------------------------------------------------ #
    def run_shard(
        self,
        shard_seed: int,
        trials: int,
        trace_seed: int,
        label: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ReplayResult:
        """Run ``trials`` co-simulation trials from one shard seed."""
        replay = self.replay_config
        traces = self.build_traces(trace_seed)
        total_requests = sum(len(trace) for trace in traces)
        # One simulator per shard: the baseline and every trial replay the
        # same traces, so they share one compiled plan.
        simulator = SystemSimulator(self.geometry, self.perf_config)
        baseline = simulator.run(traces)
        baseline_energy = self.power.active_energy_nj(baseline.counters)

        engine_config = self.engine_config
        thermal_mean = None
        if replay.thermal:
            multipliers = thermal_bank_multipliers(
                baseline.bank_activations,
                self.geometry,
                max_rise_c=replay.thermal_max_rise_c,
            )
            engine_config = replace(
                engine_config, thermal_bank_fit=multipliers
            )
            thermal_mean = math.fsum(multipliers) / len(multipliers)

        min_faults = self.min_faults()
        expected_weight = None
        result = ReplayResult(
            label=label if label is not None else self.scheme_label(),
            workload=replay.workload,
            trials=0,
            lifetime_hours=engine_config.lifetime_hours,
            min_faults=min_faults,
            requests_per_trial=total_requests,
            baseline_exec_cycles=baseline.exec_cycles,
            baseline_energy_nj=baseline_energy,
        )
        for trial in range(trials):
            sim = LifetimeSimulator(
                self.geometry,
                self.rates,
                self.model,
                engine_config,
                seed=derive_seed(shard_seed, "trial", trial),
            )
            if expected_weight is None:
                # The weight contract of the reliability engine, carried
                # over: every trial's sampled stratum weight must agree
                # bitwise with the injector's tail probability.
                expected_weight = (
                    sim.injector.prob_at_least(
                        min_faults, engine_config.lifetime_hours
                    )
                    if min_faults > 0
                    else 1.0
                )
            timeline = build_timeline(sim, min_faults)
            contracts.require(
                timeline.weight == expected_weight,  # reprolint: disable=REPRO003
                "timeline stratum weight %r disagrees bitwise with the "
                "injector tail probability %r",
                timeline.weight,
                expected_weight,
            )
            hook = ReplayPerturbation(timeline, self.geometry, total_requests)
            perf = simulator.run(traces, hook=hook)
            energy = self.power.active_energy_nj(perf.counters)

            result.trials += 1
            result.stratum_weight = timeline.weight
            result.exec_cycles.append(perf.exec_cycles)
            result.energy_nj.append(energy)
            result.extra_requests += perf.extra_reads + perf.extra_writes
            result.delay_cycles += perf.perturb_delay_cycles
            for event in timeline.events:
                result.event_counts[event.kind] += 1
            if timeline.failed:
                result.failures += 1
                result.failure_times_hours.append(
                    timeline.failure_time_hours
                )
            if thermal_mean is not None:
                result.thermal_multipliers.append(thermal_mean)
            if metrics is not None:
                self._record_trial_metrics(
                    metrics, timeline, perf, baseline.exec_cycles
                )
        canonical = result.canonical()
        if metrics is not None:
            metrics.inc("replay/trials", trials)
            metrics.inc("replay/failures", canonical.failures)
            canonical.metrics = metrics.deterministic_snapshot()
        return canonical

    @staticmethod
    def _record_trial_metrics(
        metrics: MetricsRegistry, timeline, perf, baseline_cycles: int
    ) -> None:
        metrics.inc("replay/requests", perf.demand_reads + perf.demand_writes)
        metrics.inc("replay/extra_reads", perf.extra_reads)
        metrics.inc("replay/extra_writes", perf.extra_writes)
        metrics.inc("replay/delay_cycles", perf.perturb_delay_cycles)
        for event in timeline.events:
            metrics.inc(f"replay/events/{event.kind}")
        if baseline_cycles > 0:
            metrics.observe(
                "replay/slowdown",
                perf.exec_cycles / baseline_cycles,
                edges=SLOWDOWN_EDGES,
            )
