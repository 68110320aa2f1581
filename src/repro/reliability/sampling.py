"""Sampling plans over the fault-arrival process: naive, stratified and
importance.

Every plan is a :class:`TrialSampler`, a list of strata each sampled
with a likelihood ratio, and ``LifetimeSimulator._run_scalar`` is the one
trial loop that runs them all.  The naive plan (``method="naive"``,
:class:`NaiveSampler`) is one stratum: it conditions every trial on
``N >= min_faults`` through ``FaultInjector.sample_lifetime`` and
weights the whole campaign by the single stratum mass ``P(N >= m)``.
Its results keep the naive format (see :attr:`TrialSampler.naive`).
That removes empty lifetimes but nothing else: for Citadel-class schemes
(3DP + DDS + TSV-Swap) almost every conditioned trial still survives,
because the dominant failure mode needs two faults *colliding within one
scrub interval* — an event with probability ~1/E per fault pair, where
``E = lifetime / scrub_interval`` is several thousand.  This module adds
two exact variance-reduction plans on top of the same arrival process:

**Stratified** (``method="stratified"``) partitions the fault count into
exact strata ``N = m, m+1, ...`` plus a tail stratum ``N >= K``.  Each
stratum is sampled from the true conditional distribution (iid fault
kinds, iid uniform arrival times — the Poisson-process conditioning
property), so every per-trial likelihood ratio is exactly 1 and the
estimator is the weighted sum of per-stratum failure frequencies.

**Importance** (``method="importance"``) keeps the count conditioning
``N >= m`` (same weight, same bitwise ``prob_at_least`` contract as the
naive plan) but replaces the *time* proposal with an epoch-clustered
mixture: with probability ``rho`` a uniformly random full scrub epoch
``e`` receives two of the ``n`` arrival times (uniform within that
epoch) while the rest stay uniform over the lifetime; with probability
``1 - rho`` all times are uniform.  Because arrival times are an
exchangeable set independent of the fault kinds, the likelihood ratio of
a sampled time set ``t`` against the uniform target is exact and closed
form::

    q(t) / u(t) = (1 - rho) + rho * F^2 * P2(t) / (E * C(n, 2))
    LR(t)       = u(t) / q(t)          with  LR(t) <= 1 / (1 - rho)

where ``F = lifetime / epoch``, ``E = floor(F)`` is the number of full
epochs and ``P2(t)`` counts the fault pairs sharing one full epoch.  The
mixture's uniform component keeps *every* failure mode (TSV-Swap
overflow, spare exhaustion, cross-epoch permanents) inside the proposal
support, so ``E[LR * f] = E[f]`` holds for any correction model — the
estimator is unbiased, not merely unbiased for the clustered mode.

Both plans draw a trial's fault records through
``FaultInjector.sample_specs``, the call the batch kernel makes, and
build its faults with ``FaultInjector.place_at``, so a traced run counts
their faults in the sampling layer.  Both report per-stratum tallies as
:class:`~repro.reliability.results.StratumStats`, whose sorted-list
merge keeps the shard monoid exactly associative (no running float
sums), preserving worker-count independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.types import Fault

#: Engine-level sampling plans (``EngineConfig.sampling``).
SAMPLING_METHODS: Tuple[str, ...] = ("naive", "stratified", "importance")

#: Stratified plan: exact fault-count strata ``m .. m+2`` plus the
#: ``N >= m+3`` tail (4 strata total).
DEFAULT_COUNT_STRATA = 4

#: Importance plan: probability that a trial's time proposal clusters a
#: fault pair into one scrub epoch.  The 1-rho uniform component bounds
#: every likelihood ratio by ``1 / (1 - rho)`` and keeps non-clustered
#: failure modes inside the proposal support.
DEFAULT_MIXTURE_WEIGHT = 0.5


def count_stratum_mass(
    injector: FaultInjector, count: int, lifetime_hours: float
) -> float:
    """``P(N == count)`` as a difference of the injector's Poisson tails.

    Deliberately *not* an independent pmf formula: both the sampler and
    the engine's contract check derive stratum masses from
    :meth:`FaultInjector.prob_at_least`, so the two sides agree bitwise
    and the tails telescope exactly to the total conditioned mass.
    """
    return injector.prob_at_least(count, lifetime_hours) - injector.prob_at_least(
        count + 1, lifetime_hours
    )


def full_epochs(lifetime_hours: float, epoch_hours: float) -> int:
    """Number of complete scrub epochs inside one lifetime."""
    return int(lifetime_hours // epoch_hours)


def clustered_likelihood_ratio(
    times: List[float],
    lifetime_hours: float,
    epoch_hours: float,
    mixture_weight: float,
) -> float:
    """Exact likelihood ratio of the epoch-clustered time mixture.

    Pure function of the *final* time set, so a verifier can recompute
    it from a sampled trial without access to the sampler's RNG state.
    Returns 1.0 whenever the proposal degenerates to uniform (fewer than
    two faults, no full epoch, or a zero mixture weight).
    """
    n = len(times)
    epochs = full_epochs(lifetime_hours, epoch_hours)
    if n < 2 or epochs < 1 or mixture_weight <= 0.0:
        return 1.0
    per_epoch: Dict[int, int] = {}
    for t in times:
        e = int(t // epoch_hours)
        if 0 <= e < epochs:
            per_epoch[e] = per_epoch.get(e, 0) + 1
    pairs = sum(c * (c - 1) // 2 for c in per_epoch.values())
    scale = lifetime_hours / epoch_hours
    pair_total = n * (n - 1) / 2.0
    density = (1.0 - mixture_weight) + (
        mixture_weight * scale * scale * pairs / (epochs * pair_total)
    )
    return 1.0 / density


@dataclass(frozen=True)
class StratumDef:
    """One stratum of a sampling plan.

    ``exact_count`` fixes the fault count of the stratum; when ``None``
    the stratum is a tail conditioned on ``N >= min_count``.  ``weight``
    is the stratum's probability mass under the target process and
    ``bound`` the a-priori supremum of the per-trial likelihood ratio
    (1.0 for exact conditional sampling).
    """

    key: str
    weight: float
    bound: float
    min_count: int
    exact_count: Optional[int] = None


class TrialSampler:
    """Base class: a stratified plan over the fault-arrival process."""

    #: ``True`` for the one-stratum naive plan, whose results keep the
    #: naive format: ``stratum_weight`` is the stratum's weight, no
    #: ``strata`` tallies, no ``sampling/*`` counters, and ``trial``
    #: spans carry only their ``index``.  Every other plan reports
    #: ``stratum_weight = 1.0`` plus per-stratum tallies.
    naive = False

    def __init__(
        self,
        injector: FaultInjector,
        lifetime_hours: float,
        min_faults: int,
    ) -> None:
        contracts.require(
            lifetime_hours > 0,
            "lifetime_hours must be positive, got %r",
            lifetime_hours,
        )
        self.injector = injector
        self.lifetime_hours = lifetime_hours
        # N = 0 lifetimes cannot fail (no arrivals), so every plan may
        # condition on at least one fault without biasing the estimator;
        # schemes that need k faults to fail raise the floor further.
        # The naive plan keeps 0 as an unconditioned draw.
        self.min_faults = min_faults if self.naive else max(1, min_faults)
        self.strata: List[StratumDef] = self._build_strata()

    # ------------------------------------------------------------------ #
    def _build_strata(self) -> List[StratumDef]:
        raise NotImplementedError

    def sample(self, stratum: StratumDef) -> Tuple[List[Fault], float]:
        """One trial from ``stratum``: ``(faults, likelihood ratio)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def allocate(self, trials: int) -> List[int]:
        """Deterministic per-shard split of ``trials`` across strata.

        Square-root-proportional to the stratum masses (a compromise
        between proportional and uniform allocation that keeps the rare
        high-count strata populated), rounded by largest remainder, then
        rebalanced so every stratum gets at least one trial whenever the
        shard is large enough.  A pure function of ``trials``, so two
        shards of equal size allocate identically on any worker count.
        """
        contracts.require(trials >= 0, "trials must be >= 0, got %r", trials)
        shares = [math.sqrt(s.weight) for s in self.strata]
        total = math.fsum(shares)
        if total <= 0.0:
            # Degenerate masses (extreme rates): spread evenly.
            shares = [1.0] * len(self.strata)
            total = float(len(self.strata))
        quotas = [trials * share / total for share in shares]
        counts = [int(q) for q in quotas]
        leftover = trials - sum(counts)
        by_remainder = sorted(
            range(len(counts)), key=lambda i: (counts[i] - quotas[i], i)
        )
        for i in by_remainder[:leftover]:
            counts[i] += 1
        if trials >= len(counts):
            while 0 in counts:
                donor = max(range(len(counts)), key=lambda i: (counts[i], -i))
                counts[donor] -= 1
                counts[counts.index(0)] += 1
        return counts

    # ------------------------------------------------------------------ #
    def _uniform_times(self, count: int) -> List[float]:
        return [
            self.injector.rng.uniform(0.0, self.lifetime_hours)
            for _ in range(count)
        ]


class NaiveSampler(TrialSampler):
    """The naive plan: one stratum ``N >= m`` drawn by
    ``FaultInjector.sample_lifetime``, every likelihood ratio 1."""

    naive = True

    def _build_strata(self) -> List[StratumDef]:
        return [
            StratumDef(
                key=f"n>={self.min_faults}",
                weight=self.injector.prob_at_least(
                    self.min_faults, self.lifetime_hours
                ),
                bound=1.0,
                min_count=self.min_faults,
            )
        ]

    def sample(self, stratum: StratumDef) -> Tuple[List[Fault], float]:
        # Looked up per call: tests substitute the injector's method.
        faults, weight = self.injector.sample_lifetime(
            self.lifetime_hours, min_faults=stratum.min_count
        )
        contracts.require(
            math.isclose(weight, stratum.weight, rel_tol=0.0, abs_tol=0.0),
            "stratum weight sampled by the injector (%r) disagrees "
            "with the engine's tail probability (%r)",
            weight,
            stratum.weight,
        )
        return faults, 1.0


class StratifiedSampler(TrialSampler):
    """Exact fault-count strata ``N = m .. K-1`` plus the ``N >= K`` tail."""

    def __init__(
        self,
        injector: FaultInjector,
        lifetime_hours: float,
        min_faults: int,
        count_strata: int = DEFAULT_COUNT_STRATA,
    ) -> None:
        contracts.require(
            count_strata >= 2,
            "count_strata must be >= 2 (one exact + tail), got %r",
            count_strata,
        )
        self.count_strata = count_strata
        super().__init__(injector, lifetime_hours, min_faults)

    def _build_strata(self) -> List[StratumDef]:
        first = self.min_faults
        tail_min = first + self.count_strata - 1
        strata = [
            StratumDef(
                key=f"n={k}",
                weight=count_stratum_mass(self.injector, k, self.lifetime_hours),
                bound=1.0,
                min_count=k,
                exact_count=k,
            )
            for k in range(first, tail_min)
        ]
        strata.append(
            StratumDef(
                key=f"n>={tail_min}",
                weight=self.injector.prob_at_least(tail_min, self.lifetime_hours),
                bound=1.0,
                min_count=tail_min,
            )
        )
        return strata

    def sample(self, stratum: StratumDef) -> Tuple[List[Fault], float]:
        injector = self.injector
        if stratum.exact_count is not None:
            count = stratum.exact_count
        else:
            count, weight = injector.sample_count(
                self.lifetime_hours, min_faults=stratum.min_count
            )
            contracts.require(
                math.isclose(weight, stratum.weight, rel_tol=0.0, abs_tol=0.0),
                "tail stratum %s: injector weight %r disagrees bitwise with "
                "the plan weight %r",
                stratum.key,
                weight,
                stratum.weight,
            )
        records = injector.sample_specs(count)
        times = self._uniform_times(count)
        # Exact conditional sampling: the likelihood ratio is identically 1.
        return injector.place_at(records, times), 1.0


class ImportanceSampler(TrialSampler):
    """Count conditioning ``N >= m`` plus the epoch-clustered time mixture."""

    def __init__(
        self,
        injector: FaultInjector,
        lifetime_hours: float,
        min_faults: int,
        epoch_hours: float,
        mixture_weight: float = DEFAULT_MIXTURE_WEIGHT,
    ) -> None:
        contracts.require(
            epoch_hours > 0,
            "epoch_hours must be positive, got %r",
            epoch_hours,
        )
        contracts.require(
            0.0 <= mixture_weight < 1.0,
            "mixture_weight must be in [0, 1), got %r",
            mixture_weight,
        )
        self.epoch_hours = epoch_hours
        self.mixture_weight = mixture_weight
        self.epochs = full_epochs(lifetime_hours, epoch_hours)
        super().__init__(injector, lifetime_hours, min_faults)

    def _build_strata(self) -> List[StratumDef]:
        bound = (
            1.0 / (1.0 - self.mixture_weight)
            if self.mixture_weight > 0.0 and self.epochs >= 1
            else 1.0
        )
        return [
            StratumDef(
                key=f"is:n>={self.min_faults}",
                weight=self.injector.prob_at_least(
                    self.min_faults, self.lifetime_hours
                ),
                bound=bound,
                min_count=self.min_faults,
            )
        ]

    def sample(self, stratum: StratumDef) -> Tuple[List[Fault], float]:
        injector = self.injector
        rng = injector.rng
        count, weight = injector.sample_count(
            self.lifetime_hours, min_faults=stratum.min_count
        )
        contracts.require(
            math.isclose(weight, stratum.weight, rel_tol=0.0, abs_tol=0.0),
            "importance stratum %s: injector weight %r disagrees bitwise "
            "with the plan weight %r",
            stratum.key,
            weight,
            stratum.weight,
        )
        records = injector.sample_specs(count)
        if count < 2 or self.epochs < 1 or self.mixture_weight <= 0.0:
            # Degenerate proposal is exactly uniform; no mixture draw, so
            # the branch is a deterministic function of the count.
            return injector.place_at(records, self._uniform_times(count)), 1.0
        if rng.random() < self.mixture_weight:
            epoch = rng.randrange(self.epochs)
            lo = epoch * self.epoch_hours
            hi = lo + self.epoch_hours
            times = [rng.uniform(lo, hi), rng.uniform(lo, hi)]
            times.extend(self._uniform_times(count - 2))
        else:
            times = self._uniform_times(count)
        ratio = clustered_likelihood_ratio(
            times, self.lifetime_hours, self.epoch_hours, self.mixture_weight
        )
        return injector.place_at(records, times), ratio


def make_sampler(
    method: str,
    injector: FaultInjector,
    *,
    lifetime_hours: float,
    scrub_interval_hours: float,
    min_faults: int,
) -> TrialSampler:
    """The sampling plan for ``method``."""
    if method == "naive":
        return NaiveSampler(injector, lifetime_hours, min_faults)
    if method == "stratified":
        return StratifiedSampler(injector, lifetime_hours, min_faults)
    if method == "importance":
        return ImportanceSampler(
            injector, lifetime_hours, min_faults, epoch_hours=scrub_interval_hours
        )
    raise ConfigurationError(
        f"unknown sampling method {method!r}; "
        f"expected one of {list(SAMPLING_METHODS)}"
    )
