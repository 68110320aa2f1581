"""Tri-Dimensional Parity (3DP) — the correction engine of Citadel (§VI).

3DP maintains XOR parity over three orthogonal partitions of the stack:

* **Dimension 1** (Figure 10): for every row index, parity across all banks
  of all dies, accumulated into a parity bank carved out of the data banks
  (1/64 of capacity = 1.6%).  Group of a bit = ``(row, col)``.
* **Dimension 2** (Figure 11): parity across all rows of all banks within a
  die, one parity row per die, kept at the memory controller.  Group of a
  bit = ``(die, col)``.
* **Dimension 3** (Figure 11): parity across all rows of one bank index
  across dies, one parity row per bank index, kept at the memory
  controller.  Group of a bit = ``(bank, col)``.

Correction is modeled as *iterative peeling* (erasure decoding of the
product code): a fault is recoverable through dimension ``d`` when its
footprint places at most one faulty bit in each ``d``-group — i.e. it does
not **self-alias** in ``d`` — and no other live fault intersects any of its
``d``-groups.  Peeled faults are corrected and removed; if peeling empties
the live set, the fault combination is correctable.  This reproduces the
paper's behavior: dimensions 2/3 isolate small faults, after which
dimension 1 corrects a concurrent column or bank failure; faults that
alias in every dimension (e.g. unswapped TSV faults, or two overlapping
bank failures) are data loss.

Self-aliasing rules per dimension:

* dim 1: any multi-bank fault repeats a ``(row, col)`` coordinate across
  banks (TSV faults);
* dim 2: any fault covering more than one row, or more than one bank of a
  die, puts >= 2 bits in a ``(die, col)`` group (column/bank/TSV faults);
* dim 3: any fault covering more than one row or more than one die does
  the same for ``(bank, col)`` groups.

``ParityND`` generalizes to the 1DP/2DP ablations of Figure 14.

Incremental peeling
-------------------

Each peeling round evaluates every live fault against the round's
*starting* set (survivors are collected separately), so peeling is
order-independent and decomposes exactly over the connected components
of the "aliases in some enabled dimension" graph: a component peels the
same way alone as inside the full set.  The incremental kernel
(``begin_trial``/``observe``/``rebuild``) therefore keeps the live set
as peeled components — members, survivors, peel events — and an arrival
only merges and re-peels the components it aliases with; untouched
components keep their cached outcome.  A post-scrub ``rebuild`` has one
rule: a component that lost no member is kept as it is, and every other
live fault is absorbed like an arrival.  Both paths report identical
verdicts and identical ``parity/*`` counters; the components an arrival
leaves untouched are counted by the volatile ``parity/peel_reuse``
counter.  To re-emit the standing peel events on every arrival without
walking every component, the kernel keeps a running per-name total of
the live components' events, updated as components are added and
dropped.

An arrival finds the components it aliases with through a column-block
index rather than by testing every live fault.  Every dimension's group
is keyed by column — ``(row, col)``, ``(die, col)``, ``(bank, col)`` —
so two faults alias only if their column sets intersect.  A fault whose
column mask stays inside one aligned ``COL_BLOCK_BITS``-bit block (bit,
word and column faults) is listed under that block; every other fault
(row, subarray, bank, TSV) goes in one side list.  A narrow arrival is
tested against its block-mates and the side list only; a wide one
against every live fault.  A uid -> component map turns each aliasing
candidate into the component to merge, and the verdict is a count of
components with survivors, kept current on merge and rebuild.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import contracts
from repro.ecc import batch_kernels
from repro.ecc.base import CorrectionModel
from repro.errors import ConfigurationError
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry

#: log2 of the column-block width the incremental kernel indexes live
#: faults by.  Any width is sound; 64 bits is at least ``WORD_BITS``, so
#: an aligned word — like a bit or a column — lies in one block.
_COL_BLOCK_SHIFT = 6
COL_BLOCK_BITS = 1 << _COL_BLOCK_SHIFT


def _col_block(fault: Fault) -> Optional[int]:
    """The aligned column block holding all of ``fault``'s columns, or
    None when its column mask spans more than one block."""
    cols = fault.footprint.cols
    if cols.mask >> _COL_BLOCK_SHIFT:
        return None
    return cols.base >> _COL_BLOCK_SHIFT


@dataclass(eq=False)
class _PeeledComponent:
    """A connected component of the alias graph with its peel outcome.

    Compared and hashed by identity: the kernel keeps its live
    components as the keys of an insertion-ordered dict.
    """

    members: Tuple[Fault, ...]
    survivors: Tuple[Fault, ...]
    #: metric name -> peel-event count for this component's decode.
    events: Dict[str, int]


class ParityND(CorrectionModel):
    """N-dimensional parity with peeling correction (1DP/2DP/3DP)."""

    incremental_kernel = True

    def __init__(
        self,
        geometry: StackGeometry,
        dimensions: FrozenSet[int] = frozenset({1, 2, 3}),
    ) -> None:
        super().__init__(geometry)
        dims = frozenset(dimensions)
        if not dims or not dims <= {1, 2, 3}:
            raise ConfigurationError(
                f"dimensions must be a non-empty subset of {{1,2,3}}, got {dims}"
            )
        self.dimensions = dims
        self._sorted_dims = sorted(dims)
        self.parity_bank = (geometry.data_dies - 1, geometry.banks_per_die - 1)
        self.begin_trial()

    @property
    def name(self) -> str:
        return f"{len(self.dimensions)}DP" + (
            "" if self.dimensions == frozenset(range(1, len(self.dimensions) + 1))
            else f" dims={sorted(self.dimensions)}"
        )

    def storage_overhead_fraction(self) -> float:
        """DRAM overhead of the enabled dimensions.

        Dimension 1 costs one bank out of all data banks; dimensions 2/3
        live in controller SRAM (17 rows = 34 KB) and cost no DRAM.
        """
        return (1.0 / self.geometry.data_banks) if 1 in self.dimensions else 0.0

    def sram_overhead_bytes(self) -> int:
        """Controller SRAM for dims 2 and 3 (§VI-C)."""
        total = 0
        if 2 in self.dimensions:
            total += self.geometry.total_dies * self.geometry.row_bytes
        if 3 in self.dimensions:
            total += self.geometry.banks_per_die * self.geometry.row_bytes
        return total

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        # Unswapped TSV faults self-alias in every dimension and are fatal
        # alone; otherwise at least two faults must collide.
        return 1 if tsv_possible else 2

    def batch_kernel(self) -> "ParityPeelBatchKernel":
        return ParityPeelBatchKernel(self.geometry, self._sorted_dims)

    # ------------------------------------------------------------------ #
    # Peeling
    # ------------------------------------------------------------------ #
    def _is_peeling_fault(self, fault: Fault) -> bool:
        """Faults 3DP decodes: anything touching at least one data die.

        Metadata-die-only faults degrade CRC/sparing resources and are
        accounted for by the DDS model, not by peeling.
        """
        return any(
            not self.geometry.is_metadata_die(d) for d in fault.footprint.dies
        )

    def is_uncorrectable(self, faults: Sequence[Fault]) -> bool:
        return bool(self.unpeelable(faults))

    def unpeelable(self, faults: Sequence[Fault]) -> List[Fault]:
        """The subset of faults that peeling cannot correct.

        Faults in the metadata die are ignored: 3DP's dimensions span the
        data dies (including the parity bank); metadata-die faults degrade
        CRC/sparing resources and are accounted for by the DDS model.
        """
        live = [f for f in faults if self._is_peeling_fault(f)]
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("parity/checks")
        survivors, events = self._peel(live)
        if metrics is not None:
            # Correction-path mix (Fig. 13/14 attribution): one count per
            # peel event, keyed by the dimension that recovered the fault
            # and by the fault kind.
            for event_name, count in sorted(events.items()):
                metrics.inc(event_name, count)
            if survivors:
                metrics.inc("parity/uncorrectable")
                cause = "+".join(sorted(f.kind.value for f in survivors))
                metrics.inc(f"parity/uncorrectable_cause/{cause}")
        if contracts.enabled():
            original = {f.uid for f in faults}
            contracts.ensure(
                all(f.uid in original for f in survivors),
                "peeling produced survivors absent from the input set",
            )
        return survivors

    def _peel(
        self, live: List[Fault]
    ) -> Tuple[List[Fault], Dict[str, int]]:
        """Iterative peeling of ``live``; returns (survivors, events).

        Every round evaluates each fault against the round's starting
        set, so the outcome is independent of fault order and decomposes
        over alias-graph components (the incremental kernel's invariant).
        """
        events: Dict[str, int] = {}
        changed = True
        while changed and live:
            changed = False
            survivors: List[Fault] = []
            for fault in live:
                others = [g for g in live if g.uid != fault.uid]
                dim = self._peel_dimension(fault, others)
                if dim is not None:
                    changed = True
                    for event_name in (
                        f"parity/corrected/dim{dim}",
                        f"parity/corrected_kind/{fault.kind.value}",
                    ):
                        events[event_name] = events.get(event_name, 0) + 1
                else:
                    survivors.append(fault)
            live = survivors
        return live, events

    def _peel_dimension(
        self, fault: Fault, others: Sequence[Fault]
    ) -> Optional[int]:
        """Lowest dimension able to peel ``fault``, or None.

        Dimensions are tried in ascending order, mirroring the paper's
        decode order (dim-1 parity bank first), so the telemetry's
        per-dimension correction counts attribute each recovery to the
        cheapest dimension that could have performed it.
        """
        for dim in self._sorted_dims:
            if not self._self_alias(fault, dim) and not any(
                self._alias(fault, other, dim) for other in others
            ):
                return dim
        return None

    # ------------------------------------------------------------------ #
    def _self_alias(self, fault: Fault, dim: int) -> bool:
        fp = fault.footprint
        if dim == 1:
            return fp.spans_multiple_banks()
        if dim == 2:
            return fp.spans_multiple_rows() or len(fp.banks) > 1
        return fp.spans_multiple_rows() or len(fp.dies) > 1

    def _alias(self, a: Fault, b: Fault, dim: int) -> bool:
        """Do ``a`` and ``b`` place two *distinct* bad bits in one group?

        Parity groups count physical bits, so two faults corrupting the
        same bit (e.g. a bit fault nested inside a failed subarray) do not
        alias — there is still only one bad bit in the group.
        """
        fa, fb = a.footprint, b.footprint
        if dim == 1:
            # Group (row, col); one bit per (die, bank) instance.
            if not (fa.rows.intersects(fb.rows) and fa.cols.intersects(fb.cols)):
                return False
            same_single_instance = (
                fa.dies == fb.dies
                and fa.banks == fb.banks
                and fa.num_bank_instances == 1
            )
            return not same_single_instance
        if dim == 2:
            # Group (die, col); one bit per (bank, row).
            if not (fa.dies & fb.dies and fa.cols.intersects(fb.cols)):
                return False
            same_single_bit = (
                fa.banks == fb.banks
                and len(fa.banks) == 1
                and fa.rows == fb.rows
                and fa.rows.is_singleton()
            )
            return not same_single_bit
        # Group (bank, col); one bit per (die, row).
        if not (fa.banks & fb.banks and fa.cols.intersects(fb.cols)):
            return False
        same_single_bit = (
            fa.dies == fb.dies
            and len(fa.dies) == 1
            and fa.rows == fb.rows
            and fa.rows.is_singleton()
        )
        return not same_single_bit

    def _alias_any(self, a: Fault, b: Fault) -> bool:
        """Edge predicate of the component graph: alias in any enabled dim."""
        return any(self._alias(a, b, dim) for dim in self._sorted_dims)

    # ------------------------------------------------------------------ #
    # Incremental peeling kernel
    # ------------------------------------------------------------------ #
    def begin_trial(self) -> None:
        #: Live components, in insertion order (keys of an ordered dict).
        self._inc_components: Dict[_PeeledComponent, None] = {}
        #: Components that have survivors: the verdict is ``> 0``.
        self._inc_failing = 0
        #: fault uid -> the live component it belongs to.
        self._component_of: Dict[int, _PeeledComponent] = {}
        #: Column block -> live faults whose columns lie in that block.
        self._col_blocks: Dict[int, List[Fault]] = {}
        #: Live faults whose columns span several blocks.
        self._wide: List[Fault] = []
        #: Metric name -> peel events summed over the live components;
        #: a name no live component holds is absent, never zero.
        self._event_totals: Dict[str, int] = {}

    def observe(self, fault: Fault) -> bool:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("parity/checks")
        if self._is_peeling_fault(fault):
            reused = self._absorb(fault)
        else:
            # Metadata-only fault: the peeled structure is untouched.
            reused = len(self._inc_components)
        if metrics is not None:
            if reused:
                metrics.inc("parity/peel_reuse", reused, volatile=True)
            self._emit_counters(metrics)
        return self._inc_failing > 0

    def rebuild(self, live: Sequence[Fault]) -> None:
        """Resynchronise the component structure after scrub/DDS edits.

        A component that lost none of its members keeps its members,
        survivors and peel events.  Every other live peeling fault (the
        rest of a component that lost a member, or a fault DDS
        re-exposed) is absorbed exactly like an arrival.  Components are
        maximal connected sets of the alias graph, so faults of two old
        components never alias: the re-absorbed faults merge only among
        themselves and with the partners of re-exposed faults.
        """
        data = [f for f in live if self._is_peeling_fault(f)]
        kept = {f.uid for f in data}
        previous = self._inc_components
        self.begin_trial()
        for comp in previous:
            if all(m.uid in kept for m in comp.members):
                self._add_component(comp)
                for member in comp.members:
                    self._index(member)
        for fault in data:
            if fault.uid not in self._component_of:
                self._absorb(fault)

    # ------------------------------------------------------------------ #
    def _absorb(self, fault: Fault) -> int:
        """Merge ``fault`` into the component structure; re-peels only the
        merged component.  Returns the number of untouched components."""
        # Aliasing needs intersecting columns in every dimension, and a
        # narrow fault's columns lie in its block, so a narrow arrival
        # can only alias its block-mates and the wide faults.
        block = _col_block(fault)
        if block is None:
            candidates: Iterable[Fault] = itertools.chain(
                self._wide, *self._col_blocks.values()
            )
        else:
            candidates = itertools.chain(
                self._col_blocks.get(block, ()), self._wide
            )
        touched: Dict[_PeeledComponent, None] = {}
        for other in candidates:
            comp = self._component_of[other.uid]
            if comp not in touched and self._alias_any(fault, other):
                touched[comp] = None
        members = [fault]
        for comp in touched:
            self._drop_component(comp)
            members.extend(comp.members)
        self._add_component(self._component_from(members))
        self._index(fault)
        return len(self._inc_components) - 1

    def _add_component(self, comp: _PeeledComponent) -> None:
        self._inc_components[comp] = None
        if comp.survivors:
            self._inc_failing += 1
        for member in comp.members:
            self._component_of[member.uid] = comp
        totals = self._event_totals
        for event_name, count in comp.events.items():
            totals[event_name] = totals.get(event_name, 0) + count

    def _drop_component(self, comp: _PeeledComponent) -> None:
        """Remove a live component merged away by an arrival (its members
        are re-pointed when the merged component is added)."""
        del self._inc_components[comp]
        if comp.survivors:
            self._inc_failing -= 1
        totals = self._event_totals
        for event_name, count in comp.events.items():
            left = totals[event_name] - count
            if left:
                totals[event_name] = left
            else:
                del totals[event_name]

    def _index(self, fault: Fault) -> None:
        block = _col_block(fault)
        if block is None:
            self._wide.append(fault)
        else:
            self._col_blocks.setdefault(block, []).append(fault)

    def _component_from(self, members: Sequence[Fault]) -> _PeeledComponent:
        """Peel ``members`` into a component, ordered by uid."""
        ordered = sorted(members, key=lambda f: f.uid)
        survivors, events = self._peel(list(ordered))
        return _PeeledComponent(
            members=tuple(ordered), survivors=tuple(survivors), events=events
        )

    def _emit_counters(self, metrics: MetricsRegistry) -> None:
        """Re-emit the standing ``parity/*`` counters.

        The from-scratch path re-counts every peel event of the current
        live set on each ``is_uncorrectable`` call; emitting the live
        components' event totals here, one increment per name, keeps the
        two paths' ``parity/*`` counters identical call-for-call.
        """
        for event_name, total in self._event_totals.items():
            metrics.inc(event_name, total)
        if self._inc_failing:
            metrics.inc("parity/uncorrectable")
            cause = "+".join(sorted(
                f.kind.value
                for comp in self._inc_components
                for f in comp.survivors
            ))
            metrics.inc(f"parity/uncorrectable_cause/{cause}")


class ParityPeelBatchKernel(batch_kernels.BatchCorrectionKernel):
    """Array-shaped peel of :class:`ParityND` over possibly-co-live faults.

    The kernel peels every trial of a chunk to a fixed point, in arrays,
    following the paper's decode order (dimensions 2 and 3 clear the
    small faults, then dimension 1 a concurrent column or bank failure).
    Each round, a still-unpeeled peeling fault peels when some enabled
    dimension has no self-alias and no alias with any still-unpeeled
    possibly-co-live peeling fault; the rounds stop when one peels
    nothing.  A trial is proven correctable when every peeling fault has
    peeled.

    Soundness is by induction on rounds.  Say fault ``g`` peeled through
    dimension ``d`` in array round ``r``, and take any real live set
    holding ``g``.  Every alias partner of ``g`` in ``d`` there is
    co-live with ``g``, so it peeled in an earlier array round and, by
    induction, the scalar peel of that live set removes it by round
    ``r - 1``; the scalar peel then removes ``g`` by round ``r``.  A
    trial holding a fault the array peel never clears (an unswapped TSV
    fault self-aliases everywhere) comes back ``False`` and re-runs on
    the exact scalar peeler.

    Only pairs of :meth:`TrialBatch.pairs` at ``COL_BLOCK_BITS`` are
    seen: every dimension's group contains the column, so faults whose
    column sets cannot meet never alias.  Metadata-die faults are
    excluded exactly like ``unpeelable`` excludes them (they are DDS
    bookkeeping, not peeling work).
    """

    col_block_bits = COL_BLOCK_BITS

    def __init__(self, geometry: StackGeometry, dims: Sequence[int]) -> None:
        self.geometry = geometry
        self.dims = tuple(dims)

    def survives(self, batch: "batch_kernels.TrialBatch") -> "np.ndarray":
        geometry = self.geometry
        multi_bank = geometry.banks_per_die > 1
        n_faults = batch.n_faults
        # All sampled faults touch a single die; ``die`` is the channel
        # (== die) for TSV faults, so the metadata-die filter is uniform.
        peeling = batch.die < geometry.data_dies
        first, second, colive = batch.pairs(self.col_block_bits)
        consider = colive & peeling[first] & peeling[second]
        first, second = first[consider], second[consider]
        # Per enabled dimension: the faults that do not self-alias, and
        # the pairs that alias.
        dims = [
            (
                ~self._self_alias(batch, dim, multi_bank),
                self._alias_pairs(batch, dim, first, second),
            )
            for dim in self.dims
        ]
        pending = peeling
        while pending.any():
            open_pairs = pending[first] & pending[second]
            peels = np.zeros(n_faults, dtype=bool)
            for free, alias in dims:
                hit = alias & open_pairs
                blocked = np.zeros(n_faults, dtype=bool)
                blocked[first[hit]] = True
                blocked[second[hit]] = True
                peels |= free & ~blocked
            peels &= pending
            if not peels.any():
                break
            pending = pending & ~peels
        return batch.trials_where_none(pending)

    # -------------------------------------------------------------- #
    def _self_alias(
        self, batch: "batch_kernels.TrialBatch", dim: int, multi_bank: bool
    ) -> "np.ndarray":
        spans_banks = batch.is_tsv & multi_bank
        spans_rows = batch.row_mask != 0
        if dim == 1:
            return spans_banks
        if dim == 2:
            return spans_rows | spans_banks
        return spans_rows  # dim 3: every sampled fault is single-die

    def _alias_pairs(
        self,
        batch: "batch_kernels.TrialBatch",
        dim: int,
        first: "np.ndarray",
        second: "np.ndarray",
    ) -> "np.ndarray":
        """Vector mirror of ``ParityND._alias`` for single-die faults."""
        die_eq = batch.die[first] == batch.die[second]
        single_instance = ~batch.is_tsv[first] | (
            self.geometry.banks_per_die == 1
        )
        if dim == 1:
            overlap = batch_kernels.rows_intersect(
                batch, first, second
            ) & batch_kernels.cols_intersect(batch, first, second)
            same_single_instance = (
                die_eq
                & batch_kernels.banks_equal(batch, first, second)
                & single_instance
            )
            return overlap & ~same_single_instance
        rows_same_singleton = (
            (batch.row_mask[first] == 0)
            & (batch.row_mask[second] == 0)
            & (batch.row_base[first] == batch.row_base[second])
        )
        if dim == 2:
            overlap = die_eq & batch_kernels.cols_intersect(
                batch, first, second
            )
            same_single_bit = (
                batch_kernels.banks_equal(batch, first, second)
                & single_instance
                & rows_same_singleton
            )
            return overlap & ~same_single_bit
        # dim 3: group (bank, col), one bit per (die, row).
        overlap = batch_kernels.banks_intersect(
            batch, first, second
        ) & batch_kernels.cols_intersect(batch, first, second)
        same_single_bit = die_eq & rows_same_singleton
        return overlap & ~same_single_bit


def make_1dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1}))


def make_2dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1, 2}))


def make_3dp(geometry: StackGeometry) -> ParityND:
    return ParityND(geometry, frozenset({1, 2, 3}))
