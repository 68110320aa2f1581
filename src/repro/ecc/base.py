"""Correction-model interface used by the reliability engine.

A :class:`CorrectionModel` answers one question for the Monte-Carlo
lifetime simulator: *given the set of live (uncorrected) faults, has the
stack lost data?*  Detection is assumed (CRC-32's escape probability is
negligible — paper footnote 2 — and is studied separately by the
functional datapath).

Models also report ``min_faults_to_fail``, the smallest number of
simultaneous faults that can possibly defeat them, which the engine uses
for stratified sampling of rare failures.

Incremental protocol: calling ``is_uncorrectable`` on the whole live set
after *every* arrival makes a trial quadratic-to-cubic in its fault
count, so models may additionally maintain incremental state across one
trial via ``begin_trial`` / ``observe`` / ``rebuild``.  The base class
provides a from-scratch fallback with identical verdicts; models that
implement a real kernel set ``incremental_kernel = True`` so the engine
can count fast-path arrivals.  ``ParityND`` keeps peeled components and
the pairwise models test an arrival against the live list
(``repro.ecc.incremental``); BCH answers through the fallback.
:class:`FromScratch` wraps any model in that fallback: the oracle the
fast paths are tested against.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.ecc.batch_kernels import BatchCorrectionKernel

from repro.faults.footprint import RangeMask
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry


class CorrectionModel(abc.ABC):
    """Decides correctability of a set of concurrent faults."""

    #: Optional observability hook: when the lifetime simulator runs with
    #: telemetry enabled it points this at the shard's registry, and the
    #: model records correction-path counters (e.g. which 3DP dimension
    #: peeled a fault).  Recording must be a pure function of the fault
    #: set — no RNG, no clock — so metrics merge deterministically.
    metrics: Optional[MetricsRegistry] = None

    #: True for models whose ``observe`` is a real incremental kernel
    #: (amortised cost below a from-scratch ``is_uncorrectable`` pass).
    #: The engine counts arrivals handled by such kernels under the
    #: volatile ``engine/incremental_hits`` counter.
    incremental_kernel: bool = False

    def __init__(self, geometry: StackGeometry) -> None:
        self.geometry = geometry
        #: Live faults folded in since the last ``begin_trial``/``rebuild``
        #: (the fallback state; ``ParityND`` keeps components beside it).
        self._inc_live: List[Fault] = []

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable scheme name used in reports."""

    @abc.abstractmethod
    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        """True iff the fault set causes data loss."""

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        """Lower bound on simultaneous faults needed for data loss;
        ``tsv_possible`` is False when no TSV fault can reach the model
        (no TSV FIT, or TSV-Swap absorbs them).

        Conservative default: a single fault may be fatal.
        """
        return 1

    # ------------------------------------------------------------------ #
    # Incremental correctability protocol
    # ------------------------------------------------------------------ #
    # Contract (the engine and the differential tests rely on it):
    #
    # * ``begin_trial`` resets all incremental state;
    # * ``observe(fault)`` folds one arrival in and returns exactly what
    #   ``is_uncorrectable`` would return for the set of faults observed
    #   since the last ``begin_trial``/``rebuild`` — the verdict, not an
    #   approximation;
    # * ``rebuild(live)`` resynchronises the state after a scrub/sparing
    #   pass changed the live set out from under the model.  ``live`` may
    #   be any sub- or superset of the current state as long as every
    #   fault in it was ``observe``-d earlier in the trial (DDS can
    #   re-expose previously spared faults).  ``rebuild`` returns no
    #   verdict: from-scratch engine semantics only consult the model at
    #   arrivals, so a live set left uncorrectable by sparing is reported
    #   at the next ``observe``.
    def begin_trial(self) -> None:
        """Reset incremental state at the start of a lifetime trial."""
        self._inc_live = []

    def observe(self, fault: Fault) -> bool:
        """Fold one fault arrival in; return the post-arrival verdict.

        Fallback implementation: append and re-run ``is_uncorrectable``
        from scratch (identical verdicts, no speedup).
        """
        self._inc_live.append(fault)
        return self.is_uncorrectable(self._inc_live)

    def rebuild(self, live: Sequence[Fault]) -> None:
        """Resynchronise incremental state with an externally-edited
        live set (post-scrub transient removal, DDS sparing/re-exposure)."""
        self._inc_live = list(live)

    def batch_kernel(self) -> Optional["BatchCorrectionKernel"]:
        """An array-shaped correctability kernel for the batch trial path.

        ``None`` (the default) means the scheme has no vectorized form and
        its naive-sampling campaigns run on the scalar loop.
        Implementations return a fresh
        :class:`repro.ecc.batch_kernels.BatchCorrectionKernel` whose
        ``survives`` verdicts are *sound*: ``True`` only for trials the
        scalar engine would also report as non-failing.
        """
        return None

    def storage_overhead_fraction(self) -> float:
        """Extra storage (check bits, parity, spares) / data storage."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}: {self.name}>"


class FromScratch(CorrectionModel):
    """The from-scratch oracle for ``model``: the same scheme, computed
    the slow way.

    It keeps the base-class fallback protocol, so every arrival re-runs
    the wrapped model's ``is_uncorrectable`` over the whole live set, and
    it has no batch kernel, so its campaigns stay on the scalar loop.
    ``name``, verdicts, ``min_faults_to_fail`` and metrics are the wrapped
    model's, so a campaign is the same campaign (same checkpoint identity,
    same result) with or without the wrapper — the reference the
    differential tests and ``bench_engine_hotpath`` compare against.
    """

    def __init__(self, model: CorrectionModel) -> None:
        super().__init__(model.geometry)
        self.model = model

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.model.metrics

    @metrics.setter
    def metrics(self, registry: Optional[MetricsRegistry]) -> None:
        self.model.metrics = registry

    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        return self.model.is_uncorrectable(faults)

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return self.model.min_faults_to_fail(tsv_possible)


# ---------------------------------------------------------------------- #
# Shared footprint helpers
# ---------------------------------------------------------------------- #
def slot_projection(geometry: StackGeometry, cols: RangeMask) -> Tuple[int, int]:
    """Project a column-bit mask onto line-slot address bits.

    Returns (base, mask) over the full column width but with the low
    (within-line) bits forced to don't-care, so two projections intersect
    iff the faults can touch the same cache-line slot.
    """
    line_low_bits = geometry.line_bits - 1
    return (cols.base & ~line_low_bits, cols.mask | line_low_bits)


def share_line_slot(
    geometry: StackGeometry, a: RangeMask, b: RangeMask
) -> bool:
    """True iff column masks ``a`` and ``b`` can fall in the same line slot."""
    base_a, mask_a = slot_projection(geometry, a)
    base_b, mask_b = slot_projection(geometry, b)
    return (base_a ^ base_b) & ~(mask_a | mask_b) == 0


def bits_in_one_line(geometry: StackGeometry, cols: RangeMask) -> int:
    """Maximum faulty bits the column mask places within a single line."""
    line_low_bits = geometry.line_bits - 1
    within_line_mask = cols.mask & line_low_bits
    return 1 << bin(within_line_mask).count("1")
