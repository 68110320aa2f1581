"""Dynamic Dual-granularity Sparing (DDS) — §VII.

After 3DP corrects a permanent fault, DDS relocates the faulty region so
that correction is not invoked again (and faults do not accumulate).  The
key observation (Figure 17) is that faulty banks are *bimodal*: they have
either a handful (<4) of faulty rows or thousands (a subarray or the whole
bank), so DDS spares at exactly two granularities:

* **Row sparing** — up to 4 spare rows per bank, tracked by the Row Remap
  Table (RRT: valid bit + 16b source + 16b destination per entry, ~1 KB of
  SRAM for 64 banks), with spare rows allocated from the fine-granularity
  spare bank.
* **Bank sparing** — a bank that accumulates more than 4 faulty rows is
  declared failed and remapped by the 2-entry Bank Remap Table (BRT) onto
  one of two coarse-granularity spare banks.

The spare area is carved from the metadata die: banks 0-4 hold CRC-32 /
TSV-swap metadata, banks 5 and 6 are the coarse spare banks, bank 7 is the
fine (row) spare bank (§VII-C1).

Faults *in the spare area itself* degrade DDS: a coarse spare bank fault
kills that BRT slot (re-exposing a bank spared onto it); a fine spare bank
failure disables row sparing and re-exposes row-spared faults.  Faults in
metadata banks 0-4 degrade detection latency only and are not modeled as
data loss.

:func:`outlives_scrub` is the array form of the controller's decision
that the batch trial kernel screens with: which permanent faults DDS is
certain to retire at the first scrub after they arrive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.types import Fault
from repro.stack.geometry import BITS_PER_BYTE, StackGeometry
from repro.telemetry.registry import MetricsRegistry

#: RRT provisioning: spare rows per bank (§VII-B).
DEFAULT_SPARE_ROWS_PER_BANK = 4
#: BRT provisioning: spare banks (§VII-B, Table III).
DEFAULT_SPARE_BANKS = 2


class SparingDecision(enum.Enum):
    ROW_SPARED = "row_spared"
    BANK_SPARED = "bank_spared"
    NOT_SPARED = "not_spared"


@dataclass
class BankSparingState:
    """Cumulative sparing state of one (die, bank)."""

    faulty_rows_seen: int = 0
    rrt_entries_used: int = 0
    bank_spared: bool = False
    spare_bank_slot: Optional[int] = None

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.faulty_rows_seen, "faulty_rows_seen")
        contracts.check_non_negative(self.rrt_entries_used, "rrt_entries_used")
        contracts.check_non_negative(self.spare_bank_slot, "spare_bank_slot")


@dataclass
class SparingReport:
    """What one scrub pass did (used by the Figure 17/Table III benches)."""

    row_spared: List[Fault] = field(default_factory=list)
    bank_spared: List[Fault] = field(default_factory=list)
    not_spared: List[Fault] = field(default_factory=list)
    re_exposed: List[Fault] = field(default_factory=list)


def rows_required(geometry: StackGeometry, fault: Fault) -> int:
    """Rows a row-sparing architecture would burn on this fault (§VII-A).

    Any fault smaller than or equal to a row consumes one entry; larger
    faults consume their full row span (a column fault burns its whole
    subarray, a bank fault all 64K rows).
    """
    return max(1, fault.footprint.num_rows)


def outlives_scrub(
    geometry: StackGeometry,
    use_dds: bool,
    spare_banks: int,
    trial: np.ndarray,
    permanent: np.ndarray,
    is_tsv: np.ndarray,
    die: np.ndarray,
    bank: np.ndarray,
) -> np.ndarray:
    """Per fault: may it still be live after the next scrub?

    The arguments are columns of the faults that reach the engine's
    trial loop (after TSV-Swap), one row per fault, ``trial`` naming
    each fault's trial; ``die`` and ``bank`` follow
    :data:`repro.faults.injector.FaultRecord`.  Scrubbing drops
    every transient fault, so only permanent faults may outlive it.
    Without DDS they all may.  With DDS, a trial's permanent faults are
    all retired by the scrub after their arrival, for good, when

    * none lies on a metadata die: only such a fault degrades the spare
      area (:meth:`DDSController._degrade_spare_area`), and only that
      re-exposes a spared fault or kills a BRT slot or row sparing
      (a transient is dropped before DDS sees it);
    * none is a TSV fault: a multi-bank fault is never spared;
    * they occupy at most ``spare_banks`` distinct ``(die, bank)``
      positions, so :meth:`DDSController._spare_bank` always finds a
      free slot (each position takes at most one, and keeps it).

    Then each of them is row- or bank-spared at the first scrub after
    its arrival and never comes back.  In every other trial each
    permanent fault may outlive any scrub.
    """
    if not use_dds:
        return permanent
    n_trials = int(trial.max()) + 1 if trial.size else 0
    # Trials with a permanent fault on a metadata die, or a TSV fault.
    blocked = np.zeros(n_trials, dtype=bool)
    blocked[trial[permanent & ((die >= geometry.data_dies) | is_tsv)]] = True
    # The other trials' distinct positions, by sorting trial-major keys.
    per_trial = geometry.data_dies * geometry.banks_per_die
    keys = ((trial * geometry.data_dies + die) * geometry.banks_per_die + bank)[
        permanent & ~blocked[trial]
    ]
    keys.sort()
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    positions = np.bincount(keys[new] // per_trial, minlength=n_trials)
    retired = (positions <= spare_banks) & ~blocked
    return permanent & ~retired[trial]


class DDSController:
    """Stateful sparing engine for one stack."""

    def __init__(
        self,
        geometry: StackGeometry,
        spare_rows_per_bank: int = DEFAULT_SPARE_ROWS_PER_BANK,
        spare_banks: int = DEFAULT_SPARE_BANKS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if spare_rows_per_bank < 0:
            raise ConfigurationError("spare_rows_per_bank must be >= 0")
        if spare_banks < 0:
            raise ConfigurationError("spare_banks must be >= 0")
        self.geometry = geometry
        #: Observability hook: sparing decisions are counted under
        #: ``dds/`` when set.  Recording depends only on the fault stream,
        #: keeping shard metrics merge-deterministic.
        self.metrics = metrics
        self.spare_rows_per_bank = spare_rows_per_bank
        self.spare_banks = spare_banks
        self._banks: Dict[Tuple[int, int], BankSparingState] = {}
        #: BRT slots: slot index -> (die, bank) it covers, or None if free.
        self._brt: List[Optional[Tuple[int, int]]] = [None] * spare_banks
        self._dead_brt_slots: Set[int] = set()
        self._row_sparing_alive = True
        #: spared fault uid -> fault, for re-exposure bookkeeping.
        self._row_spared: Dict[int, Fault] = {}
        self._bank_spared: Dict[int, Tuple[Fault, int]] = {}
        if geometry.metadata_dies:
            meta_banks = list(range(geometry.banks_per_die))
            self.coarse_spare_banks = meta_banks[-(spare_banks + 1):-1]
            self.fine_spare_bank = meta_banks[-1]
        else:
            self.coarse_spare_banks = []
            self.fine_spare_bank = None

    # ------------------------------------------------------------------ #
    def bank_state(self, die: int, bank: int) -> BankSparingState:
        return self._banks.setdefault((die, bank), BankSparingState())

    @property
    def brt_slots_free(self) -> int:
        return sum(
            1
            for slot, owner in enumerate(self._brt)
            if owner is None and slot not in self._dead_brt_slots
        )

    @property
    def rrt_overhead_bytes(self) -> int:
        """RRT SRAM: 33 bits/entry, 4 entries per data bank (~1 KB)."""
        entry_bits = 1 + 16 + 16
        entries = self.spare_rows_per_bank * self.geometry.data_banks
        return (entry_bits * entries + BITS_PER_BYTE - 1) // BITS_PER_BYTE

    # ------------------------------------------------------------------ #
    def process_scrub(
        self, live_permanent: Sequence[Fault]
    ) -> Tuple[List[Fault], SparingReport]:
        """Spare what fits; return (still-live faults, report).

        ``live_permanent`` is the set of permanent faults currently
        uncorrected but correctable (the engine fails the trial *before*
        scrubbing if the set is uncorrectable).  Metadata-die faults are
        consumed here to degrade spare resources.
        """
        report = SparingReport()
        still_live: List[Fault] = []
        for fault in live_permanent:
            if self._is_spare_area_fault(fault):
                self._degrade_spare_area(fault, report)
                continue
            if self._is_metadata_only(fault):
                continue  # CRC/TSV metadata banks: no data loss, no sparing
            decision = self._spare(fault)
            if decision is SparingDecision.ROW_SPARED:
                report.row_spared.append(fault)
            elif decision is SparingDecision.BANK_SPARED:
                report.bank_spared.append(fault)
            else:
                report.not_spared.append(fault)
                still_live.append(fault)
        still_live.extend(report.re_exposed)
        if self.metrics is not None:
            self.metrics.inc("dds/row_spared", len(report.row_spared))
            self.metrics.inc("dds/bank_spared", len(report.bank_spared))
            self.metrics.inc("dds/not_spared", len(report.not_spared))
            self.metrics.inc("dds/re_exposed", len(report.re_exposed))
        return still_live, report

    # ------------------------------------------------------------------ #
    def _is_metadata_only(self, fault: Fault) -> bool:
        return all(self.geometry.is_metadata_die(d) for d in fault.footprint.dies)

    def _is_spare_area_fault(self, fault: Fault) -> bool:
        if not self._is_metadata_only(fault):
            return False
        spare = set(self.coarse_spare_banks)
        if self.fine_spare_bank is not None:
            spare.add(self.fine_spare_bank)
        return bool(fault.footprint.banks & spare)

    def _degrade_spare_area(self, fault: Fault, report: SparingReport) -> None:
        if self.metrics is not None:
            self.metrics.inc("dds/spare_area_degraded")
        banks = fault.footprint.banks
        for slot, spare_bank in enumerate(self.coarse_spare_banks):
            if spare_bank in banks and slot not in self._dead_brt_slots:
                self._dead_brt_slots.add(slot)
                owner = self._brt[slot]
                self._brt[slot] = None
                if owner is not None:
                    report.re_exposed.extend(self._re_expose_bank(owner))
        if self.fine_spare_bank in banks and self._row_sparing_alive:
            self._row_sparing_alive = False
            report.re_exposed.extend(self._row_spared.values())
            self._row_spared.clear()

    def _re_expose_bank(self, owner: Tuple[int, int]) -> List[Fault]:
        re_exposed = []
        for uid, (fault, slot_bank) in list(self._bank_spared.items()):
            if slot_bank == owner[0] * self.geometry.banks_per_die + owner[1]:
                re_exposed.append(fault)
                del self._bank_spared[uid]
        state = self.bank_state(*owner)
        state.bank_spared = False
        state.spare_bank_slot = None
        return re_exposed

    # ------------------------------------------------------------------ #
    def _spare(self, fault: Fault) -> SparingDecision:
        fp = fault.footprint
        if fp.num_bank_instances > 1:
            # Multi-bank faults (unswapped TSVs) exceed any spare budget.
            return SparingDecision.NOT_SPARED
        die = next(iter(fp.dies))
        bank = next(iter(fp.banks))
        state = self.bank_state(die, bank)
        if state.bank_spared:
            # The faulty region already lives in a spare bank; the new
            # fault address maps there and is absorbed.
            self._bank_spared[fault.uid] = (
                fault,
                die * self.geometry.banks_per_die + bank,
            )
            return SparingDecision.BANK_SPARED
        demand = rows_required(self.geometry, fault)
        state.faulty_rows_seen += demand
        if (
            demand <= self.spare_rows_per_bank
            and state.faulty_rows_seen <= self.spare_rows_per_bank
            and self._row_sparing_alive
        ):
            state.rrt_entries_used += demand
            self._row_spared[fault.uid] = fault
            contracts.invariant(
                state.rrt_entries_used <= self.spare_rows_per_bank,
                "RRT budget exceeded: %d entries used for (die %d, bank %d) "
                "with %d spare rows per bank",
                state.rrt_entries_used,
                die,
                bank,
                self.spare_rows_per_bank,
            )
            return SparingDecision.ROW_SPARED
        return self._spare_bank(fault, die, bank, state)

    def _spare_bank(
        self, fault: Fault, die: int, bank: int, state: BankSparingState
    ) -> SparingDecision:
        slot = next(
            (
                s
                for s, owner in enumerate(self._brt)
                if owner is None and s not in self._dead_brt_slots
            ),
            None,
        )
        if slot is None:
            return SparingDecision.NOT_SPARED
        self._brt[slot] = (die, bank)
        state.bank_spared = True
        state.spare_bank_slot = slot
        contracts.invariant(
            sum(1 for owner in self._brt if owner is not None) <= self.spare_banks,
            "BRT overcommitted: more owners than %d spare banks",
            self.spare_banks,
        )
        contracts.invariant(
            len(self._brt) == self.spare_banks,
            "BRT size drifted from the provisioned %d slots",
            self.spare_banks,
        )
        self._bank_spared[fault.uid] = (
            fault,
            die * self.geometry.banks_per_die + bank,
        )
        # Bank sparing also absorbs previously row-spared faults there.
        for uid, spared in list(self._row_spared.items()):
            fp = spared.footprint
            if die in fp.dies and bank in fp.banks:
                del self._row_spared[uid]
                self._bank_spared[uid] = (
                    spared,
                    die * self.geometry.banks_per_die + bank,
                )
        return SparingDecision.BANK_SPARED
