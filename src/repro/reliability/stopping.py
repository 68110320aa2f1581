"""Anytime-valid stopping for Monte-Carlo reliability campaigns.

A fixed-n confidence interval is only valid if the sample size was
chosen *before* looking at the data; a campaign that peeks at its CI
after every shard and stops "once it looks tight" inflates the error
rate without bound.  This module provides *confidence sequences* —
interval families valid simultaneously over all sample sizes — so the
runner may consult the rule at every shard merge point and stop the
moment the width target is met, with the coverage guarantee intact.

The boundaries are the stitched time-uniform bounds of Howard,
Ramdas, McAuliffe and Sekhon ("Time-uniform, nonparametric,
nonasymptotic confidence sequences", Ann. Statist. 2021)::

    l(n)                = log log(2n) + 0.72 * log(5.2 / alpha)
    hoeffding radius    = 1.7 * scale * sqrt(l(n) / n)
    bernstein radius    = 1.7 * sqrt(v * l(n) / n) + 5.2 * scale * l(n) / n

with ``scale`` the per-trial observation range and ``v`` the empirical
variance.  The empirical-Bernstein variant is the default: rare-event
campaigns have tiny variance, so its radius collapses at rate
``scale/n`` instead of ``scale/sqrt(n)``.

Stratified/importance results are handled by a union bound: each
stratum's weighted failure mean gets its own confidence sequence at
level ``alpha / S`` (observations in stratum ``s`` are iid in
``[0, weight_s * bound_s]``), and the interval for the total failure
probability is the sum of the per-stratum intervals.  Everything is a
pure function of the merged prefix result, so the stopping decision is
identical for any worker count and survives checkpoint/resume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro import contracts
from repro.reliability.results import ReliabilityResult, StratumStats

#: Confidence-sequence boundary families.
CS_METHODS: Tuple[str, ...] = ("hoeffding", "bernstein")

# Stitched-boundary constants (Howard et al. 2021, eq. 10 with the
# default eta = 2 geometric spacing).
_STITCH_SCALE = 1.7
_STITCH_LOG_NUM = 5.2
_STITCH_LOG_COEFF = 0.72
_BERNSTEIN_TAIL = 5.2


def stitched_log(n: int, alpha: float) -> float:
    """The iterated-logarithm term ``l(n)`` of the stitched boundary."""
    return math.log(max(1.0, math.log(max(2.0 * n, math.e)))) + (
        _STITCH_LOG_COEFF * math.log(_STITCH_LOG_NUM / alpha)
    )


def hoeffding_radius(n: int, scale: float, alpha: float) -> float:
    """Time-uniform Hoeffding radius for iid observations in [0, scale]."""
    if n <= 0:
        return float("inf")
    return _STITCH_SCALE * scale * math.sqrt(stitched_log(n, alpha) / n)


def bernstein_radius(
    n: int, scale: float, variance: float, alpha: float
) -> float:
    """Time-uniform empirical-Bernstein radius (variance-adaptive)."""
    if n <= 0:
        return float("inf")
    ell = stitched_log(n, alpha)
    variance = max(0.0, variance)
    return _STITCH_SCALE * math.sqrt(variance * ell / n) + (
        _BERNSTEIN_TAIL * scale * ell / n
    )


@dataclass(frozen=True)
class _StratumMoments:
    """Per-stratum sufficient statistics of the weighted failure mean."""

    key: str
    trials: int
    #: Supremum of one observation: ``weight * bound``.
    scale: float
    #: Supremum of the stratum's true mean: ``weight`` (since E[LR] = 1).
    mean_cap: float
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return max(0.0, self.second_moment - self.mean * self.mean)


def _moments(result: ReliabilityResult) -> List[_StratumMoments]:
    """Sufficient statistics per stratum, in deterministic key order."""
    if result.strata:
        out = []
        for s in sorted(result.strata, key=lambda s: s.key):
            out.append(_stratum_moments(s))
        return out
    n = result.trials
    weight = result.stratum_weight
    p_cond = result.failures / n if n else 0.0
    return [
        _StratumMoments(
            key="all",
            trials=n,
            scale=weight,
            mean_cap=weight,
            mean=weight * p_cond,
            second_moment=weight * weight * p_cond,
        )
    ]


def _stratum_moments(s: StratumStats) -> _StratumMoments:
    n = s.trials
    total = s.weighted_failures() if n else 0.0
    second = s.second_moment() if n else 0.0
    return _StratumMoments(
        key=s.key,
        trials=n,
        scale=s.weight * s.bound,
        mean_cap=s.weight,
        mean=s.weight * total / n if n else 0.0,
        second_moment=s.weight * s.weight * second / n if n else 0.0,
    )


@dataclass(frozen=True)
class ConfidenceSequence:
    """Anytime-valid interval for the campaign failure probability."""

    alpha: float = 0.05
    method: str = "bernstein"

    def __post_init__(self) -> None:
        contracts.require(
            0.0 < self.alpha < 1.0,
            "alpha must be in (0, 1), got %r",
            self.alpha,
        )
        contracts.require(
            self.method in CS_METHODS,
            "method must be one of %r, got %r",
            CS_METHODS,
            self.method,
        )

    def interval(self, result: ReliabilityResult) -> Tuple[float, float]:
        """``(lo, hi)`` valid simultaneously over all merge prefixes.

        Strata with no trials yet contribute their full mass to the
        upper bound (their mean is only known to lie in ``[0, weight]``),
        so a barely-started stratified campaign reports a wide, honest
        interval instead of a spuriously tight one.
        """
        moments = _moments(result)
        alpha_each = self.alpha / max(1, len(moments))
        lo = 0.0
        hi = 0.0
        for m in moments:
            if m.trials == 0:
                hi += m.mean_cap
                continue
            if self.method == "hoeffding":
                radius = hoeffding_radius(m.trials, m.scale, alpha_each)
            else:
                radius = bernstein_radius(
                    m.trials, m.scale, m.variance, alpha_each
                )
            lo += max(0.0, m.mean - radius)
            hi += min(m.mean_cap, m.mean + radius)
        return lo, hi

    def width(self, result: ReliabilityResult) -> float:
        lo, hi = self.interval(result)
        return hi - lo


#: The confidence sequence campaigns stop on: empirical Bernstein at
#: ``alpha = 0.05``.
STOPPING_SEQUENCE = ConfidenceSequence()


@dataclass(frozen=True)
class StoppingRule:
    """Stop once the anytime-valid CI width drops to ``target_ci_width``.

    Evaluated by :class:`~repro.reliability.parallel.ParallelLifetimeRunner`
    on the contiguous completed shard prefix at every merge point, over
    :data:`STOPPING_SEQUENCE`.  The decision is a pure function of the
    merged prefix, which is itself a pure function of the shard plan — so
    stopping is deterministic across worker counts and across
    checkpoint/resume boundaries.  An empty prefix never satisfies it.
    """

    target_ci_width: float

    def __post_init__(self) -> None:
        contracts.require(
            self.target_ci_width > 0,
            "target_ci_width must be positive, got %r",
            self.target_ci_width,
        )

    def interval(self, prefix: ReliabilityResult) -> Tuple[float, float]:
        return STOPPING_SEQUENCE.interval(prefix)

    def satisfied(self, prefix: ReliabilityResult) -> bool:
        return (
            prefix.trials > 0
            and STOPPING_SEQUENCE.width(prefix) <= self.target_ci_width
        )
