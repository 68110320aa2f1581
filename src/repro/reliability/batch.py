"""Batch trial engine: evaluate a shard's trials as numpy arrays.

``LifetimeSimulator.run`` routes every naive-sampling campaign that
:func:`make_batch_runner` accepts through :class:`BatchTrialKernel`:
trials are sampled in chunks (consuming the injector's RNG stream
draw-for-draw like the scalar loop, so results stay bitwise-identical),
flattened into :class:`repro.ecc.batch_kernels.TrialBatch` columns, and
screened by the scheme's array-shaped kernel.  Trials the kernel *proves*
survive are done — no Python fault objects, no model machinery.  That
holds for fault-dense trials too: the 3DP kernel indexes only the pairs
whose column blocks can meet and peels to a fixed point in arrays, so a
bit/word-FIT×1000 stress trial of about 150 live faults is screened like
a paper-rate one.  The rest (a small minority on Citadel-class configs:
genuine failures, TSV-Swap overflows, peels the kernel cannot finish,
trials whose indexed pairs alone exceed the chunk budget) are
materialised into ``Fault`` objects and re-run through
``LifetimeSimulator._simulate``, the exact scalar path.

Compatibility rules this module must uphold (and the batch differential
tests enforce):

* **RNG**: a trial consumes ``sample_count`` -> per-fault spec draws ->
  per-fault ``uniform`` times, in that order — exactly the scalar
  ``sample_lifetime`` sequence.  Chunking never reorders or skips draws,
  and evaluating a chunk draws nothing, so chunk boundaries are free.
* **Weights**: every trial's sampled stratum weight is checked bitwise
  against the engine-side tail probability, mirroring the naive loop's
  contract.
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

from repro import contracts
from repro.ecc.batch_kernels import (
    BatchCorrectionKernel,
    TrialBatch,
    candidate_pair_count,
    np,
)
from repro.faults.injector import FaultSpec
from repro.faults.types import FaultKind, Permanence
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

#: Columns of one fault row, in ``TrialBatch`` argument order.
_N_COLUMNS = 10


def make_batch_runner(
    sim: "LifetimeSimulator",
) -> Optional["BatchTrialKernel"]:
    """The batch runner for ``sim``, or ``None`` to use the scalar loop.

    ``None`` — the results are identical either way — when numpy is
    missing, the model has no array-shaped kernel (the from-scratch
    oracle :class:`~repro.ecc.base.FromScratch` never has one), the run
    needs per-trial observability (metrics, sparing stats, failure modes,
    tracing), or it asks for a non-naive sampling plan.
    """
    config = sim.config
    if (
        np is None
        or config.sampling != "naive"
        or config.collect_metrics
        or config.collect_sparing_stats
        or config.collect_failure_modes
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

    # ------------------------------------------------------------------ #
    def run(
        self, trials: int, strata_min: int, label: Optional[str]
    ) -> ReliabilityResult:
        sim = self.sim
        config = sim.config
        injector = sim.injector
        geometry = sim.geometry
        lifetime = config.lifetime_hours
        interval = config.scrub_interval_hours
        standby = config.tsv_swap_standby
        rng_uniform = injector.rng.uniform
        permanent_enum = Permanence.PERMANENT
        bank_kind = FaultKind.BANK
        block_bits = self.kernel.col_block_bits
        expected_weight = (
            injector.prob_at_least(strata_min, lifetime)
            if strata_min > 0
            else 1.0
        )
        failure_times: List[float] = []
        # The open chunk.  ``sampled`` holds, per trial, (specs in draw
        # order, times sorted ascending) for the kernel to screen — spec
        # ``i`` pairs with the ``i``-th smallest time, matching
        # ``FaultInjector.place_at`` — or ``None`` for a trial already
        # simulated, whose failure time (``None``: survived) is in
        # ``decided``.  ``counts`` holds live faults per trial and
        # ``rows`` the ``TrialBatch`` columns of every live fault, flat,
        # ``_N_COLUMNS`` values per fault.
        sampled: List[Optional[Tuple[List[FaultSpec], List[float]]]] = []
        decided: Dict[int, Optional[float]] = {}
        counts: List[int] = []
        rows: List[int] = []
        chunk_pairs = 0
        for _ in range(trials):
            count, sampled_weight = injector.sample_count(
                lifetime, min_faults=strata_min
            )
            if sampled_weight != expected_weight:  # reprolint: disable=REPRO003
                # Same contract (and message) as the naive loop; the
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
            specs = injector.sample_specs(count)
            times = [rng_uniform(0.0, lifetime) for _ in range(count)]
            times.sort()
            spec_is_tsv = [spec.kind.is_tsv for spec in specs]
            # TSV-Swap absorbs every TSV fault unless a channel's pool
            # overflows; then partial swaps and post-swap DDS behaviour
            # need the scalar controller.
            drop_tsv = standby is not None and True in spec_is_tsv
            scalar = drop_tsv and self._tsv_overflows(
                specs, spec_is_tsv, standby
            )
            pairs = 0
            if not scalar:
                live = [
                    (spec, time_hours, tsv)
                    for spec, time_hours, tsv in zip(specs, times, spec_is_tsv)
                    if not (drop_tsv and tsv)
                ]
                masks = [spec.footprint_masks(geometry) for spec, _, _ in live]
                # k(k-1)/2 bounds the pairs the kernel indexes; count them
                # exactly only when that bound would not fit the chunk.
                pairs = len(live) * (len(live) - 1) // 2
                if chunk_pairs + pairs > CHUNK_PAIRS:
                    pairs = candidate_pair_count(
                        [col_base for _, _, col_base, _ in masks],
                        [col_mask for _, _, _, col_mask in masks],
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
            for (spec, time_hours, tsv), (
                row_base, row_mask, col_base, col_mask
            ) in zip(live, masks):
                rows.extend((
                    spec.permanence is permanent_enum,
                    tsv,
                    spec.kind is bank_kind,
                    spec.die,
                    spec.bank,
                    row_base,
                    row_mask,
                    col_base,
                    col_mask,
                    int(time_hours // interval),
                ))
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
            failure_modes=Counter(),
            metrics=None,
        )

    # ------------------------------------------------------------------ #
    def _evaluate(
        self,
        sampled: List[Optional[Tuple[List[FaultSpec], List[float]]]],
        decided: Dict[int, Optional[float]],
        counts: List[int],
        rows: List[int],
        failure_times: List[float],
    ) -> None:
        """Screen one chunk with the kernel, re-run every trial it does
        not prove survivable on the scalar path, and record the chunk's
        failure times in trial order."""
        if len(decided) < len(sampled):
            columns = np.array(rows, dtype=np.int64).reshape(-1, _N_COLUMNS).T
            survives = self.kernel.survives(
                TrialBatch(self.sim.geometry, counts, *columns)
            ).tolist()
        for index, trial in enumerate(sampled):
            if trial is None:
                failed_at = decided[index]
            elif survives[index]:
                self.fast_trials += 1
                continue
            else:
                failed_at = self._simulate(*trial)
            if failed_at is not None:
                failure_times.append(failed_at)

    def _simulate(
        self, specs: List[FaultSpec], times: List[float]
    ) -> Optional[float]:
        """Failure time of one trial on the exact scalar path, or None."""
        self.fallback_trials += 1
        geometry = self.sim.geometry
        faults = [
            spec.build(geometry, time_hours)
            for spec, time_hours in zip(specs, times)
        ]
        outcome = self.sim._simulate(faults, None, None, None)
        return None if outcome is None else outcome[0]

    @staticmethod
    def _tsv_overflows(
        specs: List[FaultSpec], spec_is_tsv: List[bool], standby: int
    ) -> bool:
        """Does some channel's stand-by pool overflow?

        TSV-Swap absorbs each *distinct* faulty TSV of a channel at the
        cost of one stand-by slot (duplicates are free; a faulty stand-by
        still costs exactly its own slot), so a trial's TSV faults vanish
        entirely iff every channel's distinct count fits its pool.  On
        overflow the repair order matters — scalar fallback.
        """
        per_channel: dict = {}
        for spec, tsv in zip(specs, spec_is_tsv):
            if tsv:
                per_channel.setdefault(spec.die, set()).add(
                    (spec.kind, spec.a)
                )
        return any(len(ids) > standby for ids in per_channel.values())
