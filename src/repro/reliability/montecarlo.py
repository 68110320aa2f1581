"""FaultSim-like Monte-Carlo lifetime reliability engine (§III-B).

Each trial simulates one stack over a 7-year lifetime:

1. fault arrivals are sampled from the Poisson process defined by the FIT
   tables (:class:`~repro.faults.injector.FaultInjector`);
2. TSV faults are filtered through TSV-Swap (if enabled), which absorbs up
   to ``standby_tsvs`` per channel without data loss;
3. faults are applied in arrival order; after every arrival the correction
   model is asked whether the live fault set is uncorrectable — if so the
   trial records a system failure (uncorrectable fault within lifetime,
   the paper's failure criterion);
4. every 12 hours a scrub pass removes all (correctable) transient faults
   and, when DDS is enabled, spares permanent faults at row or bank
   granularity, removing them from the live set.

Rare-failure acceleration: when the scheme cannot fail with fewer than
``k`` simultaneous faults, trials are sampled conditioned on at least
``k`` faults per lifetime and weighted by ``P(N >= k)``
(:meth:`FaultInjector.sample_lifetime`), keeping the estimator unbiased
while spending no time on empty lifetimes.

Every run draws its trials from a sampling plan of
:mod:`repro.reliability.sampling`; naive sampling is the plan with that
one ``N >= k`` stratum.  :meth:`LifetimeSimulator._run_scalar` is the
one trial loop for every plan.  Naive runs whose model has an array
kernel go through :mod:`repro.reliability.batch` instead, with
byte-identical results.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import contracts
from repro.core.dds import DDSController
from repro.core.tsv_swap import apply_tsv_swap
from repro.ecc.base import CorrectionModel
from repro.faults.injector import FaultInjector, ThermalFaultInjector
from repro.faults.rates import FailureRates
from repro.faults.types import Fault
from repro.reliability.batch import make_batch_runner
from repro.reliability.results import (
    ReliabilityResult,
    SparingStats,
    StratumStats,
)
from repro.reliability.sampling import (
    SAMPLING_METHODS,
    StratumDef,
    make_sampler,
)
from repro.rng import make_rng
from repro.stack.geometry import (
    LIFETIME_HOURS,
    SCRUB_INTERVAL_HOURS,
    StackGeometry,
)
from repro.stack.tsv import standby_dtsv_indices
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: Bucket edges of the ``engine/faults_per_trial`` histogram.  Chosen to
#: resolve the stratified regime (min_faults conditioning makes 2-4 the
#: common case) while keeping the bucket vector mergeable across shards.
FAULTS_PER_TRIAL_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0)


@dataclass
class EngineConfig:
    """Mitigations layered around the correction model."""

    tsv_swap_standby: Optional[int] = None  # None disables TSV-Swap
    use_dds: bool = False
    spare_rows_per_bank: int = 4
    spare_banks: int = 2
    scrub_interval_hours: float = SCRUB_INTERVAL_HOURS
    lifetime_hours: float = LIFETIME_HOURS
    collect_sparing_stats: bool = False
    #: Record, for each failing trial, the combination of live fault
    #: kinds at the moment of failure (e.g. "column+subarray").
    collect_failure_modes: bool = False
    #: Attach a deterministic :class:`MetricsRegistry` snapshot to the
    #: result: ``engine/`` trial counters, ``parity/`` per-dimension
    #: correction counts, ``tsvswap/`` and ``dds/`` decision mixes.  All
    #: recording is driven by simulated events only (no clock, no extra
    #: RNG draws), so sample statistics are bit-identical with telemetry
    #: on or off and shard metrics merge deterministically.
    collect_metrics: bool = False
    #: Sampling plan over the fault-arrival process: ``"naive"`` is the
    #: one-stratum plan (its results keep the naive format, byte-identical
    #: to prior releases, and run on the batch kernel when the model has
    #: one), ``"stratified"`` partitions by exact fault count,
    #: ``"importance"`` adds the epoch-clustered time proposal with exact
    #: likelihood-ratio reweighting.  One scalar loop runs them all (see
    #: :mod:`repro.reliability.sampling`).
    sampling: str = "naive"
    #: When set, campaigns stop once the anytime-valid confidence
    #: sequence over the failure probability is narrower than this
    #: (consulted by ``ParallelLifetimeRunner`` at shard merge points).
    target_ci_width: Optional[float] = None
    #: Per-bank-position thermal FIT multipliers from the replay engine's
    #: activity-weighted thermal proxy (one per bank of a die, applied to
    #: every die).  ``None`` — the default — keeps the uniform
    #: :class:`FaultInjector` and byte-identical results; a tuple routes
    #: injection through :class:`ThermalFaultInjector`.
    thermal_bank_fit: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.tsv_swap_standby, "tsv_swap_standby")
        contracts.check_non_negative(self.spare_rows_per_bank, "spare_rows_per_bank")
        contracts.check_non_negative(self.spare_banks, "spare_banks")
        contracts.require(
            self.scrub_interval_hours > 0,
            "scrub_interval_hours must be positive, got %r",
            self.scrub_interval_hours,
        )
        contracts.require(
            self.lifetime_hours > 0,
            "lifetime_hours must be positive, got %r",
            self.lifetime_hours,
        )
        contracts.require(
            self.sampling in SAMPLING_METHODS,
            "sampling must be one of %r, got %r",
            SAMPLING_METHODS,
            self.sampling,
        )
        contracts.require(
            self.target_ci_width is None or self.target_ci_width > 0,
            "target_ci_width must be positive or None, got %r",
            self.target_ci_width,
        )
        if self.thermal_bank_fit is not None:
            self.thermal_bank_fit = tuple(
                float(m) for m in self.thermal_bank_fit
            )
            contracts.require(
                len(self.thermal_bank_fit) > 0
                and all(m > 0.0 for m in self.thermal_bank_fit),
                "thermal_bank_fit must be a non-empty tuple of positive "
                "multipliers, got %r",
                self.thermal_bank_fit,
            )


class LifetimeSimulator:
    """Monte-Carlo simulator for one (scheme, mitigation, rates) tuple."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        model: CorrectionModel,
        config: Optional[EngineConfig] = None,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        tracer: Optional[TraceWriter] = None,
    ) -> None:
        self.geometry = geometry
        self.rates = rates
        self.model = model
        self.config = config if config is not None else EngineConfig()
        if self.config.tsv_swap_standby is not None:
            # The controller's own rule, checked here once: the batch
            # kernel builds a controller only for the trials it re-runs,
            # so a count it would refuse must not depend on the draws.
            standby_dtsv_indices(geometry, self.config.tsv_swap_standby)
        self.rng = make_rng(rng, seed)
        if self.config.thermal_bank_fit is not None:
            self.injector: FaultInjector = ThermalFaultInjector(
                geometry, rates, self.rng,
                multipliers=self.config.thermal_bank_fit,
            )
        else:
            self.injector = FaultInjector(geometry, rates, self.rng)
        #: Optional structured-trace sink: sampled trials become ``trial``
        #: spans with one ``correction`` event per fault arrival.  Tracing
        #: never feeds back into the simulation.
        self.tracer = tracer
        #: Full registry of the most recent :meth:`run` with telemetry on,
        #: volatile counters included (``engine/incremental_hits``,
        #: ``parity/peel_reuse``).  Observability aid for benches and
        #: debugging; results carry only the deterministic snapshot.
        self.last_run_metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------ #
    def default_min_faults(self) -> int:
        """Smallest fault count that can defeat the configured scheme."""
        tsv_possible = (
            self.rates.tsv_device_fit > 0 and self.config.tsv_swap_standby is None
        )
        return self.model.min_faults_to_fail(tsv_possible)

    # ------------------------------------------------------------------ #
    def run(
        self,
        trials: int,
        min_faults: Optional[int] = None,
        label: Optional[str] = None,
    ) -> ReliabilityResult:
        """Run ``trials`` lifetimes and aggregate the failure statistics.

        Runs go through the batch trial kernel whenever
        :func:`~repro.reliability.batch.make_batch_runner` accepts this
        simulator (naive sampling only), and through :meth:`_run_scalar`
        otherwise; both give byte-identical results.
        """
        strata_min = self.default_min_faults() if min_faults is None else min_faults
        batch_runner = make_batch_runner(self)
        if batch_runner is not None:
            return batch_runner.run(trials, strata_min, label)
        return self._run_scalar(trials, strata_min, label)

    def _run_scalar(
        self,
        trials: int,
        strata_min: int,
        label: Optional[str],
    ) -> ReliabilityResult:
        """The one scalar trial loop, for every sampling plan: one
        ``sampler.sample`` + ``_simulate`` per trial.  The reference the
        batch path is tested against, and the path for stratified and
        importance plans, kernel-less models and observability runs.

        The naive plan (:attr:`TrialSampler.naive`) keeps the naive
        result format: ``stratum_weight`` is its one stratum's tail mass
        and no ``strata`` are reported.  Every other plan's result
        carries ``stratum_weight = 1.0`` plus per-stratum
        :class:`StratumStats`; the strata-aware estimators on
        :class:`ReliabilityResult` reweight each failure by its exact
        likelihood ratio, keeping the failure probability unbiased.
        """
        config = self.config
        sampler = make_sampler(
            config.sampling,
            self.injector,
            lifetime_hours=config.lifetime_hours,
            scrub_interval_hours=config.scrub_interval_hours,
            min_faults=strata_min,
        )
        naive = sampler.naive
        for stratum in sampler.strata:
            expected = self._expected_stratum_weight(stratum)
            contracts.require(
                math.isclose(
                    stratum.weight, expected, rel_tol=0.0, abs_tol=0.0
                ),
                "stratum %s: plan weight %r disagrees bitwise with the "
                "engine's tail probability %r",
                stratum.key,
                stratum.weight,
                expected,
            )
        counts = sampler.allocate(trials)
        stats = SparingStats() if config.collect_sparing_stats else None
        metrics = MetricsRegistry() if config.collect_metrics else None
        failures = 0
        failure_times: List[float] = []
        modes: Counter[str] = Counter()
        tallies: List[StratumStats] = []
        previous_model_metrics = self.model.metrics
        if metrics is not None:
            self.model.metrics = metrics
        index = 0
        try:
            for stratum, quota in zip(sampler.strata, counts):
                span = {} if naive else {"stratum": stratum.key}
                stratum_failures = 0
                ratios: List[float] = []
                for _ in range(quota):
                    tracer = self.tracer
                    if tracer is not None and tracer.should_sample(index):
                        with tracer.span("trial", index=index, **span):
                            faults, ratio = sampler.sample(stratum)
                            outcome = self._simulate(
                                faults, stats, metrics, tracer
                            )
                    else:
                        faults, ratio = sampler.sample(stratum)
                        outcome = self._simulate(faults, stats, metrics, None)
                    contracts.require(
                        0.0 < ratio <= stratum.bound,
                        "stratum %s: likelihood ratio %r outside (0, %r]",
                        stratum.key,
                        ratio,
                        stratum.bound,
                    )
                    index += 1
                    if outcome is not None:
                        failed_at, mode = outcome
                        failures += 1
                        stratum_failures += 1
                        ratios.append(ratio)
                        failure_times.append(failed_at)
                        if mode is not None:
                            modes[mode] += 1
                if naive:
                    continue
                tallies.append(
                    StratumStats(
                        key=stratum.key,
                        weight=stratum.weight,
                        bound=stratum.bound,
                        trials=quota,
                        failures=stratum_failures,
                        failure_weights=sorted(ratios),
                    )
                )
                if metrics is not None:
                    metrics.inc(f"sampling/trials/{stratum.key}", quota)
                    metrics.inc(
                        f"sampling/failures/{stratum.key}", stratum_failures
                    )
        finally:
            self.model.metrics = previous_model_metrics
        if metrics is not None:
            metrics.inc("engine/trials", trials)
            metrics.inc("engine/failures", failures)
            self.last_run_metrics = metrics
            metrics = metrics.deterministic_snapshot()
        return ReliabilityResult(
            scheme_name=label if label is not None else self._label(),
            trials=trials,
            failures=failures,
            stratum_weight=sampler.strata[0].weight if naive else 1.0,
            lifetime_hours=config.lifetime_hours,
            min_faults=strata_min,
            sparing=stats,
            failure_times_hours=failure_times,
            failure_modes=modes,
            metrics=metrics,
            strata=tallies,
        )

    def scheme_label(self) -> str:
        """Default result label for this (model, mitigations) combination."""
        return self._label()

    def _label(self) -> str:
        parts = [self.model.name]
        if self.config.tsv_swap_standby is not None:
            parts.append("TSV-Swap")
        if self.config.use_dds:
            parts.append("DDS")
        return " + ".join(parts)

    # ------------------------------------------------------------------ #
    def simulate_history(self, faults: List[Fault], recorder=None):
        """Run one sampled fault history through the mitigation stack.

        Public entry point for the replay co-simulation engine
        (:mod:`repro.replay`): ``recorder`` — duck-typed to
        ``repro.replay.timeline.TimelineRecorder`` — observes fault
        arrivals, TSV-Swap absorptions, scrub passes, DDS remaps and the
        failure, without feeding back into the simulation.  Returns
        ``(failure time, failure mode) or None`` exactly like the
        internal trial path.
        """
        return self._simulate(faults, None, None, None, recorder)

    def _simulate(
        self,
        faults: List[Fault],
        stats: Optional[SparingStats],
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceWriter] = None,
        recorder=None,
    ) -> Optional[Tuple[float, Optional[str]]]:
        """Simulate one sampled fault history through the mitigation stack;
        returns (failure time, failure mode) or None.  Shared by every
        :mod:`repro.reliability.sampling` plan and the batch kernel's
        fallback trials — samplers only change *which* histories are fed
        in, never the simulation."""
        config = self.config
        if metrics is not None:
            metrics.inc("engine/faults_sampled", len(faults))
            metrics.observe(
                "engine/faults_per_trial",
                float(len(faults)),
                edges=FAULTS_PER_TRIAL_EDGES,
            )
        if config.tsv_swap_standby is not None:
            arrivals = faults
            faults, _ = apply_tsv_swap(
                faults, self.geometry, config.tsv_swap_standby, metrics=metrics
            )
            if recorder is not None:
                visible = {f.uid for f in faults}
                for fault in arrivals:
                    if fault.kind.is_tsv and fault.uid not in visible:
                        recorder.tsv_swap(fault)
        dds = (
            DDSController(
                self.geometry,
                spare_rows_per_bank=config.spare_rows_per_bank,
                spare_banks=config.spare_banks,
                metrics=metrics,
            )
            if config.use_dds
            else None
        )
        model = self.model
        model.begin_trial()
        live: List[Fault] = []
        outcome: Optional[Tuple[float, Optional[str]]] = None
        interval = config.scrub_interval_hours
        # Scrub boundary k is the instant k * interval; ``scrub_epoch`` is
        # the index of the last boundary already applied.  Integer epochs
        # make boundary arrivals unambiguous — the float formula
        # ``(t // interval + 1) * interval`` could re-run or skip a scrub
        # when an arrival lands exactly on a boundary.
        scrub_epoch = 0
        for fault in faults:
            due_epoch = self._scrub_epoch_at(
                fault.time_hours, scrub_epoch, interval
            )
            if due_epoch > scrub_epoch:
                # Scrubbing with no intervening fault is idempotent, so the
                # scrub passes between two events collapse into one.  The
                # collapsed pass acts at the first pending boundary —
                # where the drops and remaps actually occur.
                live = self._scrub(
                    live, dds,
                    at_hours=(scrub_epoch + 1) * interval,
                    recorder=recorder,
                )
                model.rebuild(live)
                if metrics is not None:
                    metrics.inc("engine/scrub_passes")
                scrub_epoch = due_epoch
            if recorder is not None:
                recorder.fault(fault)
            live.append(fault)
            uncorrectable = model.observe(fault)
            if metrics is not None and model.incremental_kernel:
                metrics.inc("engine/incremental_hits", volatile=True)
            if tracer is not None:
                tracer.event(
                    "correction",
                    kind=fault.kind.value,
                    time_hours=fault.time_hours,
                    live=len(live),
                    uncorrectable=uncorrectable,
                )
            if uncorrectable:
                mode = (
                    self._failure_mode(live)
                    if config.collect_failure_modes
                    else None
                )
                outcome = (fault.time_hours, mode)
                if recorder is not None:
                    recorder.failure(fault.time_hours)
                break
        if stats is not None:
            self._collect_sparing_stats(faults, stats)
        return outcome

    # ------------------------------------------------------------------ #
    def _expected_stratum_weight(self, stratum: StratumDef) -> float:
        """Engine-side recomputation of a stratum's probability mass.

        The weight contract of every plan: the sampler's declared masses
        must agree *bitwise* with the engine's own Poisson-tail
        arithmetic, so a drive-by change to either side cannot silently
        bias the estimator.
        """
        lifetime = self.config.lifetime_hours
        if stratum.exact_count is not None:
            return self.injector.prob_at_least(
                stratum.exact_count, lifetime
            ) - self.injector.prob_at_least(stratum.exact_count + 1, lifetime)
        return self.injector.prob_at_least(stratum.min_count, lifetime)

    @staticmethod
    def _scrub_epoch_at(
        time_hours: float, current_epoch: int, interval: float
    ) -> int:
        """Index of the last scrub boundary at or before ``time_hours``.

        Seeds the search two epochs below the float-floor quotient (which
        can over-round near a boundary) and advances with the *same*
        ``(k + 1) * interval <= time_hours`` product comparison for every
        step, so every boundary is applied exactly once regardless of how
        ``time_hours // interval`` rounds.
        """
        epoch = max(current_epoch, int(time_hours // interval) - 2)
        while (epoch + 1) * interval <= time_hours:
            epoch += 1
        return epoch

    @staticmethod
    def _failure_mode(live: Sequence[Fault]) -> str:
        """Canonical label for the live fault combination at failure."""
        return "+".join(sorted(f.kind.value for f in live))

    def _scrub(
        self,
        live: Sequence[Fault],
        dds: Optional[DDSController],
        at_hours: float = 0.0,
        recorder=None,
    ) -> List[Fault]:
        """Scrub pass: drop transients, spare permanents via DDS."""
        permanent = [f for f in live if f.is_permanent]
        if recorder is not None:
            recorder.scrub(at_hours, len(live) - len(permanent))
        if dds is None:
            return permanent
        still_live, report = dds.process_scrub(permanent)
        if recorder is not None:
            for fault in report.row_spared:
                recorder.dds_remap(at_hours, fault, "row")
            for fault in report.bank_spared:
                recorder.dds_remap(at_hours, fault, "bank")
        return still_live

    # ------------------------------------------------------------------ #
    def _collect_sparing_stats(
        self, faults: Sequence[Fault], stats: SparingStats
    ) -> None:
        """Per-bank sparing demand of the trial's permanent faults
        (feeds the Figure 17 histogram and Table III)."""
        from repro.core.dds import rows_required

        per_bank: Dict[Tuple[int, int], int] = {}
        for fault in faults:
            if not fault.is_permanent or fault.kind.is_tsv:
                continue
            fp = fault.footprint
            if all(self.geometry.is_metadata_die(d) for d in fp.dies):
                continue
            for die in fp.dies:
                for bank in fp.banks:
                    key = (die, bank)
                    per_bank[key] = per_bank.get(key, 0) + rows_required(
                        self.geometry, fault
                    )
        if not per_bank:
            return
        stats.rows_per_faulty_bank.extend(per_bank.values())
        failed = sum(
            1
            for rows in per_bank.values()
            if rows > self.config.spare_rows_per_bank
        )
        if failed:
            stats.failed_banks_per_trial.append(failed)
