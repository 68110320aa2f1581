"""Batch trial engine: evaluate a shard's trials as numpy arrays.

``LifetimeSimulator.run`` routes every naive-sampling campaign that
:func:`make_batch_runner` accepts through :class:`BatchTrialKernel`.
Per trial the runner only draws — the fault count, the fault records
and the arrival times, consuming the injector's RNG stream draw-for-draw
like the scalar loop, so results stay bitwise-identical.  Each fault is
a record of five ints (:data:`~repro.faults.injector.FaultRecord`), and
the trials collect in a *block*: flat lists of records and arrival
times plus one fault count per trial.  A block closes at
:data:`CHUNK_TRIALS` trials or before a trial would push it past
:data:`CHUNK_FAULTS` faults, and becomes the scheme kernel's
:class:`repro.ecc.batch_kernels.TrialBatch` columns through a few numpy
operations (:meth:`FaultInjector.record_columns`, the scrub epochs, the
TSV-Swap live mask, and the DDS rule
:func:`repro.core.dds.outlives_scrub`), no per-trial Python list.  That
rule tells the kernel which permanent faults DDS is certain to spare at
the scrub after their arrival, so on Citadel a fault spared before the
next arrival pairs only with its own scrub epoch, like a transient.
Trials the kernel *proves* survive are done — no ``Fault`` objects, no
model machinery.
That holds for fault-dense trials too: the 3DP kernel indexes only the
pairs whose column blocks can meet and peels to a fixed point in
arrays, so a bit/word-FIT×1000 stress trial of about 150 live faults is
screened like a paper-rate one.  The rest (a small
minority on Citadel-class configs: genuine failures, TSV-Swap
overflows, peels the kernel cannot finish, trials whose indexed pairs
alone exceed the chunk budget) are visited in trial order, their
records built into ``Fault`` objects by ``FaultInjector.place_at`` and
re-run through ``LifetimeSimulator._simulate``, the exact scalar path.

Compatibility rules this module must uphold (and the batch differential
tests enforce):

* **RNG**: a trial consumes ``sample_count`` -> ``sample_specs`` (the
  per-fault placement draws) -> per-fault arrival times, in that order —
  exactly the scalar ``sample_lifetime`` sequence.  Each call is made
  once per trial, so a traced run counts the same sampling calls and
  faults on either path.  Blocking never reorders or skips draws,
  and evaluating a block draws nothing, so block boundaries are free.
* **Weights**: every trial's sampled stratum weight is checked bitwise
  against the engine-side tail probability, mirroring the naive plan's
  contract in the scalar loop.
* **Results**: ``ReliabilityResult`` fields (failure counts, times in
  trial order, weights) are byte-identical to the scalar path's.

The kernel boundary is array-shaped on purpose: a native (Rust/maturin)
backend can replace ``BatchCorrectionKernel.survives`` without touching
the sampling or fallback logic here.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import contracts
from repro.core.dds import outlives_scrub
from repro.ecc.batch_kernels import (
    BatchCorrectionKernel,
    TrialBatch,
    candidate_pair_count,
)
from repro.faults.injector import FaultRecord
from repro.reliability.results import ReliabilityResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.montecarlo import LifetimeSimulator

#: Trials per block.  Large enough to amortise the numpy call overhead.
CHUNK_TRIALS = 4096

#: Candidate fault pairs per kernel call, at about 80 bytes of numpy
#: temporaries per pair.  A trial is charged the pairs its kernel's
#: ``TrialBatch.pairs`` indexes: the all-pairs bound k(k-1)/2 for k live
#: faults while that fits the budget, else the exact count at the
#: kernel's column-block width (every pair for the pairwise kernels;
#: about 57 block pairs instead of about 11,700 for a 3DP stress trial
#: of about 150 live faults).  A block whose trials are charged more is
#: split greedily, in trial order, into chunks within the budget, and a
#: trial whose own pairs exceed it runs on the scalar path.  Paper-rate
#: trials carry two or three faults (under 3000 pairs per full block),
#: so there the trial cap binds first.
CHUNK_PAIRS = 1 << 13

#: Faults per block (twice :data:`CHUNK_PAIRS`): a block closes before
#: a trial would push it past this, so its arrays stay bounded at
#: bit/word-FIT×1000 stress rates too (about 109 trials of about 150
#: faults) whatever the shard size.
CHUNK_FAULTS = 1 << 14

#: Scrub epochs the batch path holds as int64.  A run whose
#: ``lifetime // interval`` reaches this (a scrub interval under about
#: 1.3e-14 h at the default lifetime) stays on the scalar loop, whose
#: epochs are exact Python ints; half of int64's range leaves the
#: kernel's epoch slack room.
MAX_EPOCH = 1 << 62

#: A failing trial's (failure time, failure mode or None), as
#: ``LifetimeSimulator._simulate`` returns it.
Outcome = Tuple[float, Optional[str]]


def make_batch_runner(
    sim: "LifetimeSimulator",
) -> Optional["BatchTrialKernel"]:
    """The batch runner for ``sim``, or ``None`` to use the scalar loop.

    ``None`` — the results are identical either way — when the model has
    no array-shaped kernel (the from-scratch oracle
    :class:`~repro.ecc.base.FromScratch` never has one), the run needs
    per-trial observability (metrics, sparing stats, tracing), it asks
    for a non-naive sampling plan, or its scrub epochs could pass
    :data:`MAX_EPOCH`.  Failure modes need no refusal:
    the kernel only proves survival, and every failing trial re-runs on
    the scalar path, which names its mode.  Nor do scrub intervals or
    DDS: the screen pairs faults by scrub epoch, and
    :func:`repro.core.dds.outlives_scrub` says which permanent faults DDS
    retires at the next scrub; any other permanent fault pairs with every
    later arrival.
    """
    config = sim.config
    if (
        config.sampling != "naive"
        or config.collect_metrics
        or config.collect_sparing_stats
        or sim.tracer is not None
        or not config.lifetime_hours // config.scrub_interval_hours < MAX_EPOCH
    ):
        return None
    kernel = sim.model.batch_kernel()
    if kernel is None:
        return None
    return BatchTrialKernel(sim, kernel)


def scrub_epochs(times: np.ndarray, interval: float) -> np.ndarray:
    """Each arrival's scrub epoch, ``int(t // interval)``.

    ``np.floor_divide`` on floats computes Python's ``//`` (both take
    the fmod-based floor division), so the epochs are exact at multiples
    of the interval and 0 for an infinite one.  :func:`make_batch_runner`
    keeps them below :data:`MAX_EPOCH`.
    """
    return np.floor_divide(times, interval).astype(np.int64)


class BatchTrialKernel:
    """Block-wise array evaluation of one shard's trials."""

    def __init__(
        self, sim: "LifetimeSimulator", kernel: BatchCorrectionKernel
    ) -> None:
        self.sim = sim
        self.kernel = kernel
        #: Trials proven survivable by the array kernel (no scalar work).
        self.fast_trials = 0
        #: Trials re-run through the exact scalar simulator.
        self.fallback_trials = 0
        #: Failure modes of the failing trials, in trial order; named only
        #: when the run collects them (every failure is a fallback trial).
        self.failure_modes: Counter[str] = Counter()

    # ------------------------------------------------------------------ #
    def run(
        self, trials: int, strata_min: int, label: Optional[str]
    ) -> ReliabilityResult:
        sim = self.sim
        config = sim.config
        injector = sim.injector
        lifetime = config.lifetime_hours
        sample_count = injector.sample_count
        sample_specs = injector.sample_specs
        random_float = injector.rng.random
        expected_weight = injector.prob_at_least(strata_min, lifetime)
        trial_budget, fault_budget = CHUNK_TRIALS, CHUNK_FAULTS
        failure_times: List[float] = []
        # The open block: every fault's record and arrival time, flat,
        # and each trial's fault count.  Screening a block draws nothing,
        # so a block can close between two draws of a trial.
        records: List[FaultRecord] = []
        times: List[float] = []
        counts: List[int] = []
        add_records, add_times, add_count = (
            records.extend, times.extend, counts.append
        )
        faults = 0
        for _ in range(trials):
            count, sampled_weight = sample_count(
                lifetime, min_faults=strata_min
            )
            if sampled_weight != expected_weight:  # reprolint: disable=REPRO003
                # Same contract (and message) as the naive plan's; the
                # equality fast path keeps the check off the hot path.
                contracts.require(
                    math.isclose(
                        sampled_weight, expected_weight,
                        rel_tol=0.0, abs_tol=0.0,
                    ),
                    "stratum weight sampled by the injector (%r) disagrees "
                    "with the engine's tail probability (%r)",
                    sampled_weight,
                    expected_weight,
                )
            if faults + count > fault_budget or len(counts) == trial_budget:
                if counts:
                    self._screen(records, times, counts, failure_times)
                    records.clear()
                    times.clear()
                    counts.clear()
                faults = 0
            add_records(sample_specs(count))
            # Bitwise ``uniform(0.0, lifetime)``, as in
            # ``FaultInjector.sample_lifetime``, and sorted: a trial's
            # ``i``-th record pairs with its ``i``-th smallest arrival
            # time, as in ``FaultInjector.place_at``.
            arrivals = [lifetime * random_float() for _ in range(count)]
            arrivals.sort()
            add_times(arrivals)
            add_count(count)
            faults += count
        if counts:
            self._screen(records, times, counts, failure_times)
        return ReliabilityResult(
            scheme_name=label if label is not None else sim.scheme_label(),
            trials=trials,
            failures=len(failure_times),
            stratum_weight=expected_weight,
            lifetime_hours=lifetime,
            min_faults=strata_min,
            sparing=None,
            failure_times_hours=failure_times,
            failure_modes=Counter(self.failure_modes),
            metrics=None,
        )

    # ------------------------------------------------------------------ #
    def _screen(
        self,
        records: List[FaultRecord],
        times: List[float],
        counts: List[int],
        failure_times: List[float],
    ) -> None:
        """Screen one block with the kernel, re-run every trial it does
        not prove survivable on the scalar path, and record the block's
        failure times and modes in trial order."""
        sim = self.sim
        config = sim.config
        injector = sim.injector
        standby = config.tsv_swap_standby
        pair_budget = CHUNK_PAIRS
        n_trials = len(counts)
        count = np.array(counts, dtype=np.int64)
        # Trial ``i``'s faults are ``ends[i]:ends[i + 1]`` of the block.
        ends = np.concatenate(([0], np.cumsum(count))).tolist()
        trial = np.repeat(np.arange(n_trials), count)
        footprints = injector.record_columns(records)
        _, is_tsv, *_, col_base, col_mask = footprints
        scalar = np.zeros(n_trials, dtype=bool)
        if standby is None:
            keep = np.ones(len(records), dtype=bool)
            live = count
        else:
            # TSV-Swap absorbs every TSV fault unless a channel's pool
            # overflows; then partial swaps and post-swap DDS behaviour
            # need the scalar controller.  A channel never holds more
            # distinct faulty TSVs than the trial has TSV faults, so only
            # a trial with more than ``standby`` of them can overflow.
            keep = ~is_tsv
            tsv = np.bincount(trial[is_tsv], minlength=n_trials)
            live = count - tsv
            for index in np.flatnonzero(tsv > standby).tolist():
                scalar[index] = self._tsv_overflows(
                    injector.faulty_tsvs(records[ends[index]:ends[index + 1]]),
                    standby,
                )
        # k(k-1)/2 bounds the pairs the kernel indexes; count them exactly
        # only where that bound exceeds the budget.
        charge = live * (live - 1) // 2
        block_bits = self.kernel.col_block_bits
        for index in np.flatnonzero((charge > pair_budget) & ~scalar).tolist():
            own = slice(ends[index], ends[index + 1])
            alive = keep[own]
            charge[index] = candidate_pair_count(
                col_base[own][alive], col_mask[own][alive], block_bits
            )
            scalar[index] = charge[index] > pair_budget
        charge[scalar] = 0
        keep &= ~scalar[trial]
        # The kernel's columns hold the faults that reach the engine's
        # trial loop; trial ``i``'s are ``kept[ends[i]]:kept[ends[i + 1]]``.
        # DDS narrows the permanent flag to the faults that may outlive
        # the scrub after their arrival.
        kept = np.concatenate(([0], np.cumsum(keep)))
        columns = [
            column[keep]
            for column in (
                *footprints,
                scrub_epochs(np.array(times), config.scrub_interval_hours),
            )
        ]
        permanent, is_tsv, _, die, bank, *_ = columns
        columns[0] = outlives_scrub(
            sim.geometry, config.use_dds, config.spare_banks,
            trial[keep], permanent, is_tsv, die, bank,
        )
        # Chunks: one for the whole block unless its pairs exceed the
        # budget; then close a chunk before a trial would push it past.
        bounds = [0]
        if int(charge.sum()) > pair_budget:
            used = 0
            for index, pairs in enumerate(charge.tolist()):
                if used + pairs > pair_budget:
                    bounds.append(index)
                    used = 0
                used += pairs
        bounds.append(n_trials)
        verdicts = []
        for lo, hi in zip(bounds, bounds[1:]):
            own = slice(kept[ends[lo]], kept[ends[hi]])
            screened = ~scalar[lo:hi]
            verdicts.append(self._evaluate(
                TrialBatch(
                    sim.geometry,
                    live[lo:hi][screened],
                    *(column[own] for column in columns),
                ),
                screened,
            ))
        survives = np.concatenate(verdicts)
        self.fast_trials += int(np.count_nonzero(survives))
        for index in np.flatnonzero(~survives).tolist():
            own = slice(ends[index], ends[index + 1])
            outcome = self._simulate(records[own], times[own])
            if outcome is not None:
                failed_at, mode = outcome
                failure_times.append(failed_at)
                if mode is not None:
                    self.failure_modes[mode] += 1

    def _evaluate(self, batch: TrialBatch, screened: np.ndarray) -> np.ndarray:
        """The kernel's verdict on each trial of one chunk: ``screened``
        marks, in trial order, the trials ``batch`` holds; the others go
        to the scalar path and read False."""
        verdict = np.zeros(screened.size, dtype=bool)
        if batch.n_trials:
            verdict[screened] = self.kernel.survives(batch)
        return verdict

    def _simulate(
        self, records: Sequence[FaultRecord], times: List[float]
    ) -> Optional[Outcome]:
        """(failure time, failure mode) of one trial, from its records
        and arrival times, on the exact scalar path, or None."""
        self.fallback_trials += 1
        sim = self.sim
        return sim._simulate(
            sim.injector.place_at(records, times), None, None, None
        )

    @staticmethod
    def _tsv_overflows(
        tsvs: Iterable[Tuple[int, Hashable]], standby: int
    ) -> bool:
        """Does some channel's stand-by pool overflow?

        ``tsvs`` holds a trial's faulty TSVs as ``(channel, tsv)``
        (:meth:`FaultInjector.faulty_tsvs`).  TSV-Swap absorbs each
        *distinct* faulty TSV of a channel at the cost of one stand-by
        slot (duplicates are free; a faulty stand-by still costs exactly
        its own slot), so a trial's TSV faults vanish entirely iff every
        channel's distinct count fits its pool.  On overflow the repair
        order matters — scalar fallback.
        """
        per_channel: Dict[int, set] = {}
        for channel, tsv in tsvs:
            per_channel.setdefault(channel, set()).add(tsv)
        return any(len(ids) > standby for ids in per_channel.values())
