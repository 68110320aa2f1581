"""Batch trial engine: evaluate a shard's trials as numpy arrays.

``LifetimeSimulator.run`` routes every naive-sampling campaign that
:func:`make_batch_runner` accepts through :class:`BatchTrialKernel`:
trials are sampled in chunks (consuming the injector's RNG stream
draw-for-draw like the scalar loop, so results stay bitwise-identical),
and each fault's sampled record already carries its
:class:`repro.ecc.batch_kernels.TrialBatch` row, which the chunk copies
as it is before the scheme's array-shaped kernel screens it.  Trials the
kernel *proves* survive are done — no ``FaultSpec`` or ``Fault``
objects, no model machinery.  That holds for fault-dense trials too: the
3DP kernel indexes only the pairs whose column blocks can meet and peels
to a fixed point in arrays, so a bit/word-FIT×1000 stress trial of about
150 live faults is screened like a paper-rate one.  The rest (a small
minority on Citadel-class configs: genuine failures, TSV-Swap overflows,
peels the kernel cannot finish, trials whose indexed pairs alone exceed
the chunk budget) are materialised into ``Fault`` objects from their
records' spec fields by ``FaultInjector.place_at`` and re-run through
``LifetimeSimulator._simulate``, the exact scalar path.

Compatibility rules this module must uphold (and the batch differential
tests enforce):

* **RNG**: a trial consumes ``sample_count`` -> ``sample_specs`` (the
  per-fault placement draws) -> per-fault arrival times, in that order —
  exactly the scalar ``sample_lifetime`` sequence.  Each call is made
  once per trial, so a traced run counts the same sampling calls and
  faults on either path.  Chunking never reorders or skips draws,
  and evaluating a chunk draws nothing, so chunk boundaries are free.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import contracts
from repro.ecc.batch_kernels import (
    BatchCorrectionKernel,
    TrialBatch,
    candidate_pair_count,
)
from repro.faults.injector import FaultRecord
from repro.reliability.results import ReliabilityResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.montecarlo import LifetimeSimulator

#: Trials evaluated per array pass.  Large enough to amortise the numpy
#: call overhead, small enough to keep the per-chunk Python lists cheap.
CHUNK_TRIALS = 4096

#: Candidate fault pairs per array pass, at about 80 bytes of numpy
#: temporaries per pair.  A trial is charged the pairs its kernel's
#: ``TrialBatch.pairs`` indexes: the all-pairs bound k(k-1)/2 for k live
#: faults while that fits the chunk, else the exact count at the
#: kernel's column-block width (every pair for the pairwise kernels;
#: about 57 block pairs instead of about 11,700 for a 3DP stress trial
#: of about 150 live faults).  A chunk closes before a trial would push
#: it past this budget, and a trial whose own pairs exceed it runs on
#: the scalar path.  Paper-rate trials carry two or three faults (under
#: 3000 pairs per full chunk), so there the trial cap binds first.
CHUNK_PAIRS = 1 << 13

#: Columns of one fault row, in ``TrialBatch`` argument order: a sampled
#: record's row (:data:`~repro.faults.injector.FaultRecord`), then the
#: scrub epoch.
_N_COLUMNS = 10

#: Positions of ``is_tsv``, ``col_base`` and ``col_mask`` in a row.
_IS_TSV = 1
_COL_BASE = 7
_COL_MASK = 8

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
    per-trial observability (metrics, sparing stats, tracing), or it
    asks for a non-naive sampling plan.  Failure modes need no refusal:
    the kernel only proves survival, and every failing trial re-runs on
    the scalar path, which names its mode.
    """
    config = sim.config
    if (
        config.sampling != "naive"
        or config.collect_metrics
        or config.collect_sparing_stats
        or sim.tracer is not None
    ):
        return None
    kernel = sim.model.batch_kernel()
    if kernel is None:
        return None
    return BatchTrialKernel(sim, kernel)


class BatchTrialKernel:
    """Chunked array evaluation of one shard's trials."""

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
        interval = config.scrub_interval_hours
        standby = config.tsv_swap_standby
        sample_count = injector.sample_count
        sample_specs = injector.sample_specs
        random_float = injector.rng.random
        block_bits = self.kernel.col_block_bits
        expected_weight = injector.prob_at_least(strata_min, lifetime)
        failure_times: List[float] = []
        # The open chunk.  ``sampled`` holds, per trial, (the records'
        # spec fields in draw order, times sorted ascending) for the
        # kernel to screen — spec ``i`` pairs with the ``i``-th smallest
        # time, matching ``FaultInjector.place_at`` — or ``None`` for a
        # trial already simulated, whose outcome (``None``: survived) is
        # in ``decided``.  ``counts`` holds live faults per trial and
        # ``rows`` the ``TrialBatch`` columns of every live fault, flat,
        # ``_N_COLUMNS`` values per fault.  Holding spec fields, not
        # whole records, keeps a chunk no larger than its ``FaultSpec``
        # objects were.
        sampled: List[Optional[Tuple[List[tuple], List[float]]]] = []
        decided: Dict[int, Optional[Outcome]] = {}
        counts: List[int] = []
        rows: List[int] = []
        chunk_pairs = 0
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
            records = sample_specs(count)
            # Bitwise ``uniform(0.0, lifetime)``, as in
            # ``FaultInjector.sample_lifetime``.
            times = [lifetime * random_float() for _ in range(count)]
            times.sort()
            # TSV-Swap absorbs every TSV fault unless a channel's pool
            # overflows; then partial swaps and post-swap DDS behaviour
            # need the scalar controller.  A channel never holds more
            # distinct faulty TSVs than the trial has TSV faults, so only
            # a trial with more than ``standby`` of them can overflow.
            live = [
                (row, time_hours)
                for (row, _), time_hours in zip(records, times)
                if standby is None or not row[_IS_TSV]
            ]
            scalar = (
                standby is not None
                and count - len(live) > standby
                and self._tsv_overflows(records, standby)
            )
            pairs = 0
            if not scalar:
                # k(k-1)/2 bounds the pairs the kernel indexes; count them
                # exactly only when that bound would not fit the chunk.
                pairs = len(live) * (len(live) - 1) // 2
                if chunk_pairs + pairs > CHUNK_PAIRS:
                    pairs = candidate_pair_count(
                        [row[_COL_BASE] for row, _ in live],
                        [row[_COL_MASK] for row, _ in live],
                        block_bits,
                    )
                    if pairs > CHUNK_PAIRS:
                        scalar = True
                        pairs = 0
            if (
                len(counts) == CHUNK_TRIALS
                or chunk_pairs + pairs > CHUNK_PAIRS
            ):
                self._evaluate(sampled, decided, counts, rows, failure_times)
                sampled, decided, counts, rows = [], {}, [], []
                chunk_pairs = 0
            specs = [spec for _, spec in records]
            if scalar:
                # Simulating draws nothing, so the trial can run now
                # instead of holding its faults until the chunk closes.
                decided[len(counts)] = self._simulate(specs, times)
                sampled.append(None)
                counts.append(0)
                continue
            sampled.append((specs, times))
            counts.append(len(live))
            chunk_pairs += pairs
            for row, time_hours in live:
                rows.extend(row)
                rows.append(int(time_hours // interval))
        self._evaluate(sampled, decided, counts, rows, failure_times)
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
    def _evaluate(
        self,
        sampled: List[Optional[Tuple[List[tuple], List[float]]]],
        decided: Dict[int, Optional[Outcome]],
        counts: List[int],
        rows: List[int],
        failure_times: List[float],
    ) -> None:
        """Screen one chunk with the kernel, re-run every trial it does
        not prove survivable on the scalar path, and record the chunk's
        failure times and modes in trial order."""
        if len(decided) < len(sampled):
            columns = np.array(rows, dtype=np.int64).reshape(-1, _N_COLUMNS).T
            survives = self.kernel.survives(
                TrialBatch(self.sim.geometry, counts, *columns)
            ).tolist()
        for index, trial in enumerate(sampled):
            if trial is None:
                outcome = decided[index]
            elif survives[index]:
                self.fast_trials += 1
                continue
            else:
                outcome = self._simulate(*trial)
            if outcome is not None:
                failed_at, mode = outcome
                failure_times.append(failed_at)
                if mode is not None:
                    self.failure_modes[mode] += 1

    def _simulate(
        self, specs: List[tuple], times: List[float]
    ) -> Optional[Outcome]:
        """(failure time, failure mode) of one trial, from its faults'
        spec fields, on the exact scalar path, or None."""
        self.fallback_trials += 1
        sim = self.sim
        return sim._simulate(
            sim.injector.place_at(specs, times), None, None, None
        )

    @staticmethod
    def _tsv_overflows(records: List[FaultRecord], standby: int) -> bool:
        """Does some channel's stand-by pool overflow?

        TSV-Swap absorbs each *distinct* faulty TSV of a channel at the
        cost of one stand-by slot (duplicates are free; a faulty stand-by
        still costs exactly its own slot), so a trial's TSV faults vanish
        entirely iff every channel's distinct count fits its pool.  On
        overflow the repair order matters — scalar fallback.
        """
        per_channel: Dict[int, set] = {}
        for _, (kind, _, channel, _, index, _) in records:
            if kind.is_tsv:
                per_channel.setdefault(channel, set()).add((kind, index))
        return any(len(ids) > standby for ids in per_channel.values())
