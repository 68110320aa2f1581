"""Monte-Carlo fault injection (the arrival half of a FaultSim-like engine).

Fault arrivals form a Poisson process whose intensity is the total FIT of
the device: the sum of the per-die DRAM rates (Table I) over all dies plus
the TSV device FIT.  Each arrival is attributed to a (kind, permanence,
location) by sampling proportionally to the individual rates, and placed
uniformly at random inside the structure it affects — exactly the procedure
described for FaultSim [10].

For very reliable schemes (Citadel's failure probability is ~1e-6 per
lifetime) naive sampling wastes almost every trial on empty lifetimes, so
:meth:`FaultInjector.sample_lifetime` supports *stratified* sampling: the
number of faults ``N`` is drawn conditioned on ``N >= min_faults`` and the
trial carries the importance weight ``P(N >= min_faults)``.  Failure
probability estimates then remain unbiased provided failures require at
least ``min_faults`` faults (e.g. two for any single-fault-correcting
scheme).

The injector compiles itself once, at construction.  Its code table
holds one record code per DRAM rate entry plus one each for ``DATA_TSV``
and ``ADDR_TSV``: per code the final kind and permanence, the three
``TrialBatch`` flags, the footprint rule with every geometry constant
resolved, and the builder that makes the code's :class:`Fault`.  One
compiled loop, a closure over the generator and the tables, draws each
fault as a record of five ints, ``(code, die, bank, a, b)``
(:data:`FaultRecord`), the only description of a sampled fault before
its ``Fault``.  So the batch path builds no object for a trial its
kernel proves survivable: :meth:`FaultInjector.record_columns` maps a
block of records to ``TrialBatch`` columns and
:meth:`FaultInjector.faulty_tsvs` names the TSVs of TSV records; callers
read records only through these, so the record layout lives in this
module.  :meth:`FaultInjector.place_at` is the one place a sampled
trial's faults are built, each once, from its record at its sorted
arrival time, through the code's builder and so through the ``make_*``
constructors, which check every coordinate: for
:meth:`FaultInjector.sample_lifetime`, the stratified and importance
samplers and the batch kernel's fallback trials.  The ``Poisson`` set-up
of :meth:`FaultInjector.sample_count` is kept per ``(lifetime,
min_faults)`` in a count table.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect, bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.rates import FailureRates
from repro.faults.types import (
    WORD_BITS,
    Fault,
    FaultKind,
    Permanence,
    make_addr_tsv_fault,
    make_bank_fault,
    make_bit_fault,
    make_column_fault,
    make_data_tsv_fault,
    make_row_fault,
    make_subarray_fault,
    make_word_fault,
)
from repro.rng import make_rng
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry

_FIT_TO_PER_HOUR = 1e-9

#: Log-domain terms more than this far below the running maximum are
#: beyond double precision and can be dropped from a log-sum-exp.
_LOG_NEGLIGIBLE = 60.0


def _poisson_log_pmf(lam: float, log_lam: float, j: int) -> float:
    return -lam + j * log_lam - math.lgamma(j + 1)


def _poisson_tail_log_space(lam: float, min_faults: int) -> float:
    """P(N >= min_faults) for Poisson(lam) when ``exp(-lam)`` underflows.

    For ``lam >~ 745`` every term of the direct CDF summation derives from
    ``exp(-lam) == 0.0`` and the survival collapses to 1.0 regardless of
    ``min_faults``.  Work in log space instead: log-sum-exp whichever side
    of the distribution is the *small* one (the CDF prefix below the mean,
    the tail above it) and recover the survival through ``expm1``/``exp``.
    """
    log_lam = math.log(lam)
    if min_faults <= lam:
        # The prefix CDF is the small quantity.  Its terms increase
        # monotonically for j < lam, so sum downward from the largest and
        # stop once further terms cannot move a double.
        peak = _poisson_log_pmf(lam, log_lam, min_faults - 1)
        total = 0.0
        for j in range(min_faults - 1, -1, -1):
            log_term = _poisson_log_pmf(lam, log_lam, j)
            if log_term < peak - _LOG_NEGLIGIBLE:
                break
            total += math.exp(log_term - peak)
        log_cdf = peak + math.log(total)
        if log_cdf >= 0.0:  # pure rounding: CDF cannot exceed 1
            return 0.0
        return min(1.0, -math.expm1(log_cdf))
    # The tail is the small quantity; its terms decrease monotonically
    # once j > lam, so sum forward until negligible.
    peak = _poisson_log_pmf(lam, log_lam, min_faults)
    total = 0.0
    j = min_faults
    while True:
        log_term = _poisson_log_pmf(lam, log_lam, j)
        if log_term < peak - _LOG_NEGLIGIBLE:
            break
        total += math.exp(log_term - peak)
        j += 1
    log_survival = peak + math.log(total)
    if log_survival >= 0.0:
        return 1.0
    return math.exp(log_survival)


# ---------------------------------------------------------------------- #
# The compiled, draw-exact sampler
# ---------------------------------------------------------------------- #
# The sampler makes exactly the RNG calls that ``random.Random``'s
# ``choices(weights=...)``, ``randrange(n)`` and ``uniform(0.0, L)`` make,
# with their per-call set-up moved to construction, so the RNG stream (and
# every sampled fault and result) is the one those calls give:
#
# * a weighted pick (the rate entry; the thermal bank) is one ``random()``
#   draw scaled by the weights' total and bisected over their cumulative
#   sums (:func:`_cumulative`);
# * a bounded coordinate ``randrange(n)`` is ``getrandbits(n.bit_length())``
#   redrawn while the value is ``>= n`` (:func:`_bounded`), so a
#   power-of-two ``n`` rejects about half of its draws, as ``randrange``
#   does;
# * an arrival time is ``lifetime * random()`` (see
#   :meth:`FaultInjector.sample_lifetime`).
#
# ``tests/test_injector.py`` checks the sampler against a reference built
# on the stdlib calls.
def _cumulative(weights: Sequence[float]) -> Tuple[List[float], float, int]:
    """``rng.choices(range(n), weights)``'s table, built once: the
    cumulative weights, their total and the last index.  A draw is
    ``bisect(cum_weights, random() * total, 0, last)``, the bisection
    ``choices`` makes after rebuilding this table on every call."""
    cum_weights = list(itertools.accumulate(weights))
    total = cum_weights[-1] + 0.0
    if not (total > 0.0 and math.isfinite(total)):
        raise ConfigurationError(
            f"sampling weights must have a positive finite total, "
            f"got {total!r}"
        )
    return cum_weights, total, len(cum_weights) - 1


def _bounded(n: int) -> Tuple[int, int]:
    """The ``(bound, bits)`` of a ``randrange(n)`` draw."""
    return n, n.bit_length()


#: Bounds of a placement coordinate the fault kind does not draw.
_NO_DRAW = (0, 0)

#: One sampled fault: ``(code, die, bank, a, b)``, five ints.  ``code``
#: indexes the injector's code table (:attr:`FaultInjector.codes`): one
#: code per DRAM rate entry, then one for ``DATA_TSV`` and one for
#: ``ADDR_TSV``.  ``die`` holds the channel and ``bank`` is -1 for the
#: two TSV codes (a TSV fault spans every bank of its die).  ``a``/``b``
#: are the kind-specific placement draws:
#:
#: ========== ======================= =================
#: kind        a                       b
#: ========== ======================= =================
#: BIT         row                     column bit
#: WORD        row                     word index
#: COLUMN      column bit              (unused)
#: ROW         row                     (unused)
#: SUBARRAY    subarray                (unused)
#: BANK        (unused)                (unused)
#: DATA_TSV    tsv index               (unused)
#: ADDR_TSV    tsv index               stuck value
#: ========== ======================= =================
FaultRecord = Tuple[int, int, int, int, int]

#: A code's builder: ``(die, bank, a, b, time_hours)`` -> its ``Fault``.
_Builder = Callable[[int, int, int, int, float], Fault]


@dataclass(frozen=True)
class _RateEntry:
    kind: FaultKind
    permanence: Permanence
    rate_per_hour: float


class FaultInjector:
    """Samples the fault history of one stack over a lifetime."""

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.rates = rates
        self.rng = make_rng(rng, seed)
        self._entries = self._build_entries()
        self._total_rate = sum(e.rate_per_hour for e in self._entries)
        self._compile()
        #: ``(lifetime_hours, min_faults)`` -> ``(mean, exp(-mean), tail
        #: mass, partial sums of the tail pmf, stratum weight)``; see
        #: :meth:`sample_count`.
        self._count_table: Dict[
            Tuple[float, int], Tuple[float, float, float, List[float], float]
        ] = {}

    # ------------------------------------------------------------------ #
    def _build_entries(self) -> List[_RateEntry]:
        """The rate entries, DRAM ones first; the TSV entry, if any, is
        the last (record codes rely on it)."""
        geometry, rates = self.geometry, self.rates
        num_dies = (
            geometry.total_dies
            if rates.include_metadata_die
            else geometry.data_dies
        )
        entries: List[_RateEntry] = []
        for kind, (transient, permanent) in rates.die_fit.items():
            for permanence, fit in (
                (Permanence.TRANSIENT, transient),
                (Permanence.PERMANENT, permanent),
            ):
                if fit > 0:
                    entries.append(
                        _RateEntry(kind, permanence, fit * num_dies * _FIT_TO_PER_HOUR)
                    )
        if rates.tsv_device_fit > 0:
            entries.append(
                _RateEntry(
                    FaultKind.DATA_TSV,  # refined into DTSV/ATSV when placed
                    Permanence.PERMANENT,
                    rates.tsv_device_fit * _FIT_TO_PER_HOUR,
                )
            )
        if not entries:
            raise ConfigurationError("all failure rates are zero")
        return entries

    def _bank_weights(self) -> Optional[Sequence[float]]:
        """Per-bank placement weights of die-local faults; ``None`` places
        them uniformly.  :class:`ThermalFaultInjector` weights banks by
        their thermal multipliers."""
        return None

    def _compile(self) -> None:
        """Build the code table and the draw loop, once.

        A DRAM rate entry's record code is its index; the ``DATA_TSV``
        and ``ADDR_TSV`` codes follow.  Per code the table keeps the
        fault's final kind and permanence (:attr:`codes`), its builder
        (:meth:`place_at`) and, as one ``numpy`` column each, its three
        ``TrialBatch`` flags and its footprint rule: the canonical
        address+mask footprint the ``make_*`` constructors build, as
        ``RangeMask`` base/mask pairs, is ``row_base = a * row_scale``
        and ``col_base = (a * col_scale_a + b * col_scale_b) & col_keep``
        under the code's fixed masks.  An ``ADDR_TSV`` fault's rows hang
        on its address bit, so :meth:`record_columns` places them by
        their own formula.
        """
        geometry = self.geometry
        row_universe = (1 << geometry.row_address_bits) - 1
        col_universe = (1 << geometry.col_address_bits) - 1
        # Per code: kind, permanence, (row_scale, row_mask, col_scale_a,
        # col_scale_b, col_mask, col_keep) and builder; per rate entry
        # the bounds of its ``a``/``b`` placement draws, or ``None`` for
        # the TSV entry.
        table: List[
            Tuple[FaultKind, Permanence, Tuple[int, ...], _Builder]
        ] = []
        draws: List[Optional[Tuple[int, int, int, int]]] = []
        for entry in self._entries:
            if entry.kind.is_tsv:
                draws.append(None)
                continue
            kind, entry_draws, footprint, build = self._dram_rule(
                entry.kind, entry.permanence, row_universe, col_universe
            )
            table.append((kind, entry.permanence, (*footprint, -1), build))
            draws.append(entry_draws)
        # TSV faults land on a uniformly random TSV of a random channel;
        # the DTSV/ATSV split is proportional to the TSV populations
        # (256:24 per channel in the baseline geometry).  A DTSV's
        # columns are its burst bits in every line of the row (see
        # ``make_data_tsv_fault``); a stuck ATSV's rows are placed by
        # ``record_columns``.
        num_dtsv = geometry.data_tsvs_per_channel
        burst = geometry.line_bits // num_dtsv
        dtsv_col_mask = ((burst - 1) * num_dtsv if burst > 1 else 0) | (
            col_universe & ~(geometry.line_bits - 1)
        )
        dtsv_code = len(table)
        permanent = Permanence.PERMANENT
        table.append((
            FaultKind.DATA_TSV, permanent,
            (0, row_universe, 1, 0, dtsv_col_mask, ~dtsv_col_mask),
            lambda channel, bank, tsv, b, t: make_data_tsv_fault(
                geometry, channel, tsv, permanent, t
            ),
        ))
        table.append((
            FaultKind.ADDR_TSV, permanent,
            (0, row_universe, 0, 0, col_universe, -1),
            lambda channel, bank, tsv, stuck, t: make_addr_tsv_fault(
                geometry, channel, tsv, stuck, permanent, t
            ),
        ))
        #: Per record code, the fault's final kind and permanence.
        self.codes: List[Tuple[FaultKind, Permanence]] = [
            (kind, permanence) for kind, permanence, _, _ in table
        ]
        #: Per record code, the builder :meth:`place_at` calls.
        self._builders = [build for _, _, _, build in table]
        #: ``record_columns``' tables: the three flags, then the
        #: footprint rule, one entry per code.
        self._columns = (
            np.array(
                [permanence is permanent for _, permanence in self.codes],
                dtype=bool,
            ),
            np.array([kind.is_tsv for kind, _ in self.codes], dtype=bool),
            np.array(
                [kind is FaultKind.BANK for kind, _ in self.codes],
                dtype=bool,
            ),
            *np.array(
                [footprint for _, _, footprint, _ in table], dtype=np.int64
            ).T.copy(),
        )
        self._atsv_code = dtsv_code + 1
        self._row_universe = row_universe
        self._draw = self._draw_loop(draws, dtsv_code, num_dtsv)

    def _dram_rule(
        self,
        kind: FaultKind,
        permanence: Permanence,
        row_universe: int,
        col_universe: int,
    ) -> Tuple[
        FaultKind, Tuple[int, int, int, int], Tuple[int, ...], _Builder
    ]:
        """A DRAM rate entry's final kind, the bounds of its ``a``/``b``
        placement draws (see :data:`FaultRecord`; a zero bound draws
        nothing), drawn after its die and bank, its footprint rule
        ``(row_scale, row_mask, col_scale_a, col_scale_b, col_mask)`` and
        its builder, which calls the kind's ``make_*`` constructor."""
        geometry = self.geometry
        rows = _bounded(geometry.rows_per_bank)
        subarrays = _bounded(geometry.subarrays_per_bank)
        columns = _bounded(geometry.row_bits)
        rows_per_subarray = geometry.rows_per_subarray
        granularity = self.rates.bank_fault_granularity
        if kind is FaultKind.BANK and granularity == "subarray":
            # Table I's "single bank" rate: transposed to subarray failures
            # unless the 'full' ablation is selected (§II-B, Figure 17).
            kind = FaultKind.SUBARRAY
        build: _Builder
        if kind is FaultKind.BIT:
            draws = (rows, columns)
            footprint = (1, 0, 0, 1, 0)
            build = lambda die, bank, a, b, t: make_bit_fault(
                geometry, die, bank, a, b, permanence, t
            )
        elif kind is FaultKind.WORD:
            word_bits = min(WORD_BITS, geometry.row_bits)
            words_per_row = max(1, geometry.row_bits // WORD_BITS)
            draws = (rows, _bounded(words_per_row))
            footprint = (1, 0, 0, word_bits, word_bits - 1)
            build = lambda die, bank, a, b, t: make_word_fault(
                geometry, die, bank, a, b, permanence, t
            )
        elif kind is FaultKind.COLUMN:
            draws = (columns, _NO_DRAW)
            footprint = (0, row_universe, 1, 0, 0)
            build = lambda die, bank, a, b, t: make_column_fault(
                geometry, die, bank, a, permanence, t
            )
        elif kind is FaultKind.ROW:
            draws = (rows, _NO_DRAW)
            footprint = (1, 0, 0, 0, col_universe)
            build = lambda die, bank, a, b, t: make_row_fault(
                geometry, die, bank, a, permanence, t
            )
        elif kind is FaultKind.SUBARRAY:
            draws = (subarrays, _NO_DRAW)
            footprint = (
                rows_per_subarray, rows_per_subarray - 1, 0, 0, col_universe
            )
            build = lambda die, bank, a, b, t: make_subarray_fault(
                geometry, die, bank, a, permanence, t
            )
        elif kind is FaultKind.BANK:
            draws = (_NO_DRAW, _NO_DRAW)
            footprint = (0, row_universe, 0, 0, col_universe)
            build = lambda die, bank, a, b, t: make_bank_fault(
                geometry, die, bank, permanence, t
            )
        else:
            raise ConfigurationError(f"unsupported DRAM fault kind: {kind}")
        return kind, (*draws[0], *draws[1]), footprint, build

    def _draw_loop(
        self,
        draws: List[Optional[Tuple[int, int, int, int]]],
        dtsv_code: int,
        num_dtsv: int,
    ) -> Callable[[int], List[FaultRecord]]:
        """The one sampling loop, compiled into a closure over the
        injector's generator and tables: ``draw(count)`` returns
        ``count`` records.  The bounds keep every coordinate in range, so
        no draw is checked again."""
        geometry = self.geometry
        random_float = self.rng.random
        getrandbits = self.rng.getrandbits
        entry_weights, entry_total, entry_last = _cumulative(
            [e.rate_per_hour for e in self._entries]
        )
        die_bound, die_bits = _bounded(
            geometry.total_dies
            if self.rates.include_metadata_die
            else geometry.data_dies
        )
        bank_bound, bank_bits = _bounded(geometry.banks_per_die)
        # Weighted bank pick, or uniform bank placement.
        bank_weights = self._bank_weights()
        weighted = bank_weights is not None
        bank_cum, bank_total, bank_last = (
            _cumulative(bank_weights) if bank_weights is not None
            else ([], 0.0, 0)
        )
        channel_bound, channel_bits = _bounded(geometry.channels)
        tsv_bound, tsv_bits = _bounded(
            num_dtsv + geometry.addr_tsvs_per_channel
        )
        atsv_code = dtsv_code + 1

        def draw(count: int) -> List[FaultRecord]:
            records: List[FaultRecord] = []
            append = records.append
            for _ in range(count):
                code = bisect(
                    entry_weights, random_float() * entry_total, 0, entry_last
                )
                rule = draws[code]
                if rule is None:
                    channel = getrandbits(channel_bits)
                    while channel >= channel_bound:
                        channel = getrandbits(channel_bits)
                    pick = getrandbits(tsv_bits)
                    while pick >= tsv_bound:
                        pick = getrandbits(tsv_bits)
                    if pick < num_dtsv:
                        append((dtsv_code, channel, -1, pick, 0))
                        continue
                    stuck = getrandbits(2)  # randrange(2)
                    while stuck >= 2:
                        stuck = getrandbits(2)
                    append((atsv_code, channel, -1, pick - num_dtsv, stuck))
                    continue
                a_bound, a_bits, b_bound, b_bits = rule
                die = getrandbits(die_bits)
                while die >= die_bound:
                    die = getrandbits(die_bits)
                if weighted:
                    bank = bisect(
                        bank_cum, random_float() * bank_total, 0, bank_last
                    )
                else:
                    bank = getrandbits(bank_bits)
                    while bank >= bank_bound:
                        bank = getrandbits(bank_bits)
                a = b = 0
                if a_bound:
                    a = getrandbits(a_bits)
                    while a >= a_bound:
                        a = getrandbits(a_bits)
                    if b_bound:
                        b = getrandbits(b_bits)
                        while b >= b_bound:
                            b = getrandbits(b_bits)
                append((code, die, bank, a, b))
            return records

        return draw

    # ------------------------------------------------------------------ #
    @property
    def total_rate_per_hour(self) -> float:
        return self._total_rate

    def expected_faults(self, lifetime_hours: float = LIFETIME_HOURS) -> float:
        return self._total_rate * lifetime_hours

    def prob_at_least(
        self, min_faults: int, lifetime_hours: float = LIFETIME_HOURS
    ) -> float:
        """P(N >= min_faults) for the Poisson fault count.

        Small means use the direct CDF summation — bitwise-identical to
        the historical weights that golden fixtures and checkpoints embed.
        Once ``exp(-lam)`` underflows (lam >~ 745, e.g. Cerberus-style
        cross-layer stress sweeps) the direct sum degenerates to 1.0 for
        every ``min_faults``; those means switch to a log-space
        evaluation (:func:`_poisson_tail_log_space`).
        """
        lam = self.expected_faults(lifetime_hours)
        if min_faults <= 0:
            return 1.0
        term = math.exp(-lam)
        if term > 0.0:
            cdf = 0.0
            for k in range(min_faults):
                cdf += term
                term *= lam / (k + 1)
            return max(0.0, 1.0 - cdf)
        return _poisson_tail_log_space(lam, min_faults)

    # ------------------------------------------------------------------ #
    def sample_count(
        self,
        lifetime_hours: float = LIFETIME_HOURS,
        min_faults: int = 0,
    ) -> Tuple[int, float]:
        """Sample the lifetime fault count ``N`` (optionally conditioned
        on ``N >= min_faults``); returns ``(count, stratum weight)``.

        An unconditioned count is Knuth's product of uniforms; a
        conditioned one is the first ``k`` whose partial sum
        ``pmf(min_faults) + ... + pmf(k)`` covers one uniform scaled by
        the tail mass (inverse CDF over the tail), found by bisection.
        Everything but the draws is read from the count table, built on
        the first call for each ``(lifetime_hours, min_faults)``.
        """
        entry = self._count_table.get((lifetime_hours, min_faults))
        if entry is None:
            entry = self._count_entry(lifetime_hours, min_faults)
        lam, threshold, tail_mass, sums, weight = entry
        random_float = self.rng.random
        if min_faults <= 0:
            count, product = 0, random_float()
            while product > threshold:
                count += 1
                product *= random_float()
            return count, weight
        index = bisect_left(sums, random_float() * tail_mass)
        if index == len(sums):
            raise ConfigurationError(
                f"truncated-Poisson tail mass underflowed at mean "
                f"{lam:g}, minimum {min_faults}: the conditioned sampler "
                "cannot place the draw without biasing the stratum"
            )
        return min_faults + index, weight

    def _count_entry(
        self, lifetime_hours: float, min_faults: int
    ) -> Tuple[float, float, float, List[float], float]:
        """Build the count-table entry of one ``(lifetime_hours,
        min_faults)``.  A configuration no draw can be placed in raises
        here, on every call, draws nothing and is never stored.  The
        partial sums of the tail pmf run up to and including the first
        term below ``1e-300``: a draw past the last sum cannot be
        placed."""
        lam = self.expected_faults(lifetime_hours)
        threshold = math.exp(-lam)
        if threshold == 0.0:
            raise ConfigurationError(
                f"Poisson mean {lam:g} is too large to sample: exp(-mean) "
                "underflows, so every unconditioned count would saturate "
                "near 745 and every conditioned one would silently return "
                "the minimum, biasing the estimator"
            )
        entry: Tuple[float, float, float, List[float], float]
        if min_faults <= 0:
            entry = (lam, threshold, 0.0, [], 1.0)
        else:
            if lam <= 0:
                raise ConfigurationError(
                    "cannot condition on faults with a zero total rate"
                )
            term, cdf = threshold, 0.0
            for k in range(min_faults):
                cdf += term
                term *= lam / (k + 1)
            sums: List[float] = []
            acc, k = 0.0, min_faults
            while True:
                acc += term
                sums.append(acc)
                if term < 1e-300:
                    break
                k += 1
                term *= lam / k
            entry = (
                lam,
                threshold,
                max(1e-300, 1.0 - cdf),
                sums,
                self.prob_at_least(min_faults, lifetime_hours),
            )
        self._count_table[(lifetime_hours, min_faults)] = entry
        return entry

    def place_at(
        self, records: Sequence[FaultRecord], times: List[float]
    ) -> List[Fault]:
        """Build sampled faults, each once, at their sorted arrival times.

        Kinds are exchangeable and independent of times, so zipping the
        records onto the *sorted* times in order preserves the joint
        arrival distribution — and lets alternative time proposals
        (``repro.reliability.sampling``) reuse the record sampler as-is.
        Each fault is built by its code's builder through the ``make_*``
        constructors, which reject any out-of-range coordinate, and takes
        one uid, in record order.  Every sampled trial's faults are built
        here: ``sample_lifetime``, the samplers and the batch kernel's
        fallback trials.
        """
        contracts.require(
            len(records) == len(times),
            "place_at needs one arrival time per fault: "
            "%d faults vs %d times",
            len(records),
            len(times),
        )
        builders = self._builders
        return [
            builders[code](die, bank, a, b, t)
            for (code, die, bank, a, b), t in zip(records, sorted(times))
        ]

    def sample_lifetime(
        self,
        lifetime_hours: float = LIFETIME_HOURS,
        min_faults: int = 0,
    ) -> Tuple[List[Fault], float]:
        """Sample one lifetime's fault history.

        Returns ``(faults, weight)`` where ``faults`` are sorted by arrival
        time and ``weight`` is the probability mass of the stratum the
        sample was drawn from (1.0 for unconditioned sampling).  Draws
        its records through the compiled loop, not the public
        :meth:`sample_specs`, so a traced trial counts its faults once.
        """
        count, weight = self.sample_count(lifetime_hours, min_faults)
        records = self._draw(count)
        random_float = self.rng.random
        # ``uniform(0.0, L)`` computes ``0.0 + (L - 0.0) * random()``,
        # which is bitwise ``L * random()``: a count above zero needs a
        # positive mean, hence ``L > 0``, so the product is never -0.0.
        # ``BatchTrialKernel.run`` draws its times the same way.
        times = [lifetime_hours * random_float() for _ in range(count)]
        return self.place_at(records, times), weight

    # ------------------------------------------------------------------ #
    def sample_specs(self, count: int) -> List[FaultRecord]:
        """``count`` fault records (:data:`FaultRecord`): kind,
        permanence and placement but no arrival time yet (the
        time-independent half of the arrival process), without
        constructing any ``Fault``; :meth:`place_at` builds them.  The
        batch trial kernel and the stratified and importance samplers
        draw through this, so a traced run counts their faults here."""
        return self._draw(count)

    def faulty_tsvs(
        self, records: Sequence[FaultRecord]
    ) -> List[Tuple[int, Tuple[int, int]]]:
        """The faulty TSV of each TSV record, as ``(channel, tsv)``:
        ``tsv`` names it within its channel by its code (data or
        address) and its index."""
        return [
            (die, (code, a)) for code, die, bank, a, _ in records if bank < 0
        ]

    def record_columns(
        self, records: Sequence[FaultRecord]
    ) -> Tuple[np.ndarray, ...]:
        """The ``TrialBatch`` columns but the epoch of a block of
        records, in argument order: ``(permanent, is_tsv, is_bank_kind,
        die, bank, row_base, row_mask, col_base, col_mask)``."""
        code, die, bank, a, b = np.fromiter(
            chain.from_iterable(records), np.int64, 5 * len(records)
        ).reshape(-1, 5).T
        (
            permanent, is_tsv, is_bank_kind,
            row_scale, row_mask, col_scale_a, col_scale_b, col_mask,
            col_keep,
        ) = self._columns
        row_base = a * row_scale[code]
        rows = row_mask[code]
        col_base = a * col_scale_a[code] + b * col_scale_b[code]
        col_base &= col_keep[code]
        atsv = np.flatnonzero(code == self._atsv_code)
        if atsv.size:
            # A stuck ATSV makes the rows whose address bit differs from
            # the stuck value unreachable (``make_addr_tsv_fault``).
            bit = a[atsv] % self.geometry.row_address_bits
            row_base[atsv] = (1 - b[atsv]) << bit
            rows[atsv] = self._row_universe & ~(1 << bit)
        return (
            permanent[code], is_tsv[code], is_bank_kind[code], die, bank,
            row_base, rows, col_base, col_mask[code],
        )


class ThermalFaultInjector(FaultInjector):
    """Fault injection with per-bank thermal FIT multipliers.

    The replay engine's thermal proxy maps bank activity to a temperature
    rise and hence a FIT multiplier per bank *position* (applied to every
    die — the thermal column above a hot bank spans the stack).  Die-local
    DRAM rates scale by the mean multiplier; bank placement becomes
    multiplier-weighted; TSV rates are geometry-wide and stay untouched.

    ``prob_at_least`` reads the scaled total rate, so the importance
    weight the engine recomputes from this injector is bitwise-identical
    to the weight attached at sampling time — the engine's weight
    contract survives the subclassing.
    """

    def __init__(
        self,
        geometry: StackGeometry,
        rates: FailureRates,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        multipliers: Tuple[float, ...] = (),
    ) -> None:
        plan = tuple(float(m) for m in multipliers)
        if len(plan) != geometry.banks_per_die:
            raise ConfigurationError(
                f"need one multiplier per bank position "
                f"({geometry.banks_per_die}), got {len(plan)}"
            )
        if any(m <= 0.0 for m in plan):
            raise ConfigurationError("thermal multipliers must be positive")
        self.multipliers = plan
        self._mean_multiplier = math.fsum(plan) / len(plan)
        super().__init__(geometry, rates, rng, seed)

    def _build_entries(self) -> List[_RateEntry]:
        entries = []
        for entry in super()._build_entries():
            if entry.kind.is_tsv:
                entries.append(entry)
            else:
                entries.append(
                    _RateEntry(
                        entry.kind,
                        entry.permanence,
                        entry.rate_per_hour * self._mean_multiplier,
                    )
                )
        return entries

    def _bank_weights(self) -> Optional[Sequence[float]]:
        return self.multipliers
