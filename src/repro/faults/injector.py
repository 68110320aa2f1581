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
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
# Draw-exact sampling primitives
# ---------------------------------------------------------------------- #
# The spec sampler makes exactly the RNG calls that ``random.Random``'s
# ``choices(weights=...)`` and ``randrange(n)`` make, with their per-call
# set-up moved to construction, so the RNG stream (and every sampled
# fault and result) is the one those calls give.  ``tests/test_injector.py``
# checks the sampler against a reference built on the stdlib calls.
class _WeightedPick:
    """``rng.choices(range(n), weights)[0]``, cumulative weights built once.

    ``choices`` accumulates the weights on every call, then bisects one
    ``random()`` draw scaled by their total; this does the bisection only.
    """

    __slots__ = ("cum_weights", "total", "last")

    def __init__(self, weights: Sequence[float]) -> None:
        self.cum_weights = list(itertools.accumulate(weights))
        self.total = self.cum_weights[-1] + 0.0
        if not (self.total > 0.0 and math.isfinite(self.total)):
            raise ConfigurationError(
                f"sampling weights must have a positive finite total, "
                f"got {self.total!r}"
            )
        self.last = len(self.cum_weights) - 1

    def draw(self, random_float: Callable[[], float]) -> int:
        return bisect(
            self.cum_weights, random_float() * self.total, 0, self.last
        )


def _bounded(n: int) -> Tuple[int, int]:
    """The ``(bound, bits)`` that :func:`_draw_below` takes for
    ``randrange(n)``."""
    return n, n.bit_length()


#: Bounds of an address TSV's stuck-value draw, ``randrange(2)``.
_STUCK_VALUE_BOUND = _bounded(2)


def _draw_below(
    getrandbits: Callable[[int], int], bound: int, bits: int
) -> int:
    """``rng.randrange(bound)``: ``bound.bit_length()`` random bits,
    redrawn until the value is below ``bound``."""
    value = getrandbits(bits)
    while value >= bound:
        value = getrandbits(bits)
    return value


@dataclass(frozen=True)
class _RateEntry:
    kind: FaultKind
    permanence: Permanence
    rate_per_hour: float


@dataclass(frozen=True)
class FaultSpec:
    """The sampled identity of one fault, before ``Fault`` construction.

    A spec captures exactly the information the injector's random draws
    decide — final kind (after the BANK->SUBARRAY transposition and the
    DTSV/ATSV split), permanence, location coordinates — in a flat,
    array-friendly record.  ``build`` turns it into a full :class:`Fault`
    through the ``make_*`` constructors, so the scalar path and the batch
    trial kernel share one source of truth for both the draw sequence and
    the footprint shapes.

    Coordinate conventions: ``die`` holds the channel for TSV kinds and
    ``bank`` is -1 (a TSV fault spans every bank of its die).  ``a``/``b``
    are the kind-specific placement draws:

    ========== ======================= =================
    kind        a                       b
    ========== ======================= =================
    BIT         row                     column bit
    WORD        row                     word index
    COLUMN      column bit              (unused)
    ROW         row                     (unused)
    SUBARRAY    subarray                (unused)
    BANK        (unused)                (unused)
    DATA_TSV    tsv index               (unused)
    ADDR_TSV    tsv index               stuck value
    ========== ======================= =================
    """

    kind: FaultKind
    permanence: Permanence
    die: int
    bank: int
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        # Hot path (one spec per sampled fault): short-circuit so the
        # common all-in-range case costs two comparisons.
        if self.die < 0 or self.bank < -1 or (
            self.bank < 0 and not self.kind.is_tsv
        ):
            contracts.require(
                False,
                "FaultSpec coordinates out of range: die=%d bank=%d kind=%s",
                self.die,
                self.bank,
                self.kind.value,
            )

    def footprint_masks(self, geometry: StackGeometry) -> Tuple[int, int, int, int]:
        """``(row_base, row_mask, col_base, col_mask)`` of the built fault.

        The canonicalized address+mask pairs :meth:`build`'s footprint
        would carry, as plain ints — the array-shaped view the batch trial
        kernels consume without constructing ``Fault`` objects.  Mirrors
        the ``make_*`` constructors bit-for-bit; the batch-vs-scalar
        differential tests hold the two in lock-step.
        """
        kind = self.kind
        row_universe = (1 << geometry.row_address_bits) - 1
        col_universe = (1 << geometry.col_address_bits) - 1
        if kind is FaultKind.BIT:
            return self.a, 0, self.b, 0
        if kind is FaultKind.WORD:
            word_bits = min(WORD_BITS, geometry.row_bits)
            return self.a, 0, self.b * word_bits, word_bits - 1
        if kind is FaultKind.COLUMN:
            return 0, row_universe, self.a, 0
        if kind is FaultKind.ROW:
            return self.a, 0, 0, col_universe
        if kind is FaultKind.SUBARRAY:
            return (
                self.a * geometry.rows_per_subarray,
                geometry.rows_per_subarray - 1,
                0,
                col_universe,
            )
        if kind is FaultKind.BANK:
            return 0, row_universe, 0, col_universe
        if kind is FaultKind.DATA_TSV:
            num_dtsv = geometry.data_tsvs_per_channel
            burst = geometry.line_bits // num_dtsv
            burst_mask = (burst - 1) * num_dtsv if burst > 1 else 0
            line_select_mask = col_universe & ~(geometry.line_bits - 1)
            col_mask = burst_mask | line_select_mask
            return 0, row_universe, self.a & ~col_mask, col_mask
        if kind is FaultKind.ADDR_TSV:
            bit = self.a % geometry.row_address_bits
            return (
                (1 - self.b) << bit,
                row_universe & ~(1 << bit),
                0,
                col_universe,
            )
        raise ConfigurationError(f"unsupported fault kind: {kind}")

    def build(self, geometry: StackGeometry, time_hours: float = 0.0) -> Fault:
        kind = self.kind
        if kind is FaultKind.BIT:
            return make_bit_fault(
                geometry, self.die, self.bank, self.a, self.b,
                self.permanence, time_hours,
            )
        if kind is FaultKind.WORD:
            return make_word_fault(
                geometry, self.die, self.bank, self.a, self.b,
                self.permanence, time_hours,
            )
        if kind is FaultKind.COLUMN:
            return make_column_fault(
                geometry, self.die, self.bank, self.a,
                self.permanence, time_hours,
            )
        if kind is FaultKind.ROW:
            return make_row_fault(
                geometry, self.die, self.bank, self.a,
                self.permanence, time_hours,
            )
        if kind is FaultKind.SUBARRAY:
            return make_subarray_fault(
                geometry, self.die, self.bank, self.a,
                self.permanence, time_hours,
            )
        if kind is FaultKind.BANK:
            return make_bank_fault(
                geometry, self.die, self.bank, self.permanence, time_hours
            )
        if kind is FaultKind.DATA_TSV:
            return make_data_tsv_fault(
                geometry, self.die, self.a, self.permanence, time_hours
            )
        if kind is FaultKind.ADDR_TSV:
            return make_addr_tsv_fault(
                geometry,
                self.die,
                self.a,
                stuck_value=self.b,
                permanence=self.permanence,
                time_hours=time_hours,
            )
        raise ConfigurationError(f"unsupported fault kind: {kind}")


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
        # The spec sampler's tables: which entry a fault comes from, what
        # it becomes, and the bounds of its placement draws.
        self._entry_pick = _WeightedPick(
            [e.rate_per_hour for e in self._entries]
        )
        self._placements = [self._placement(e) for e in self._entries]
        self._die_bound = _bounded(
            geometry.total_dies
            if rates.include_metadata_die
            else geometry.data_dies
        )
        self._bank_bound = _bounded(geometry.banks_per_die)
        self._channel_bound = _bounded(geometry.channels)
        self._tsv_bound = _bounded(
            geometry.data_tsvs_per_channel + geometry.addr_tsvs_per_channel
        )

    # ------------------------------------------------------------------ #
    def _build_entries(self) -> List[_RateEntry]:
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
        on ``N >= min_faults``); returns ``(count, stratum weight)``."""
        lam = self.expected_faults(lifetime_hours)
        if min_faults <= 0:
            return self._sample_poisson(lam), 1.0
        return (
            self._sample_truncated_poisson(lam, min_faults),
            self.prob_at_least(min_faults, lifetime_hours),
        )

    def sample_kinds(self, count: int) -> List[Fault]:
        """``count`` faults with kind/permanence/placement but no arrival
        time yet (the time-independent half of the arrival process)."""
        return [self._sample_fault() for _ in range(count)]

    @staticmethod
    def place_at(faults: List[Fault], times: List[float]) -> List[Fault]:
        """Attach arrival times (sorted) to sampled faults.

        Kinds are exchangeable and independent of times, so zipping the
        kind draws onto the *sorted* times in order preserves the joint
        arrival distribution — and lets alternative time proposals
        (``repro.reliability.sampling``) reuse the kind sampler as-is.
        """
        contracts.require(
            len(faults) == len(times),
            "place_at needs one arrival time per fault: "
            "%d faults vs %d times",
            len(faults),
            len(times),
        )
        ordered = sorted(times)
        return [fault.at_time(t) for fault, t in zip(faults, ordered)]

    def sample_lifetime(
        self,
        lifetime_hours: float = LIFETIME_HOURS,
        min_faults: int = 0,
    ) -> Tuple[List[Fault], float]:
        """Sample one lifetime's fault history.

        Returns ``(faults, weight)`` where ``faults`` are sorted by arrival
        time and ``weight`` is the probability mass of the stratum the
        sample was drawn from (1.0 for unconditioned sampling).
        """
        count, weight = self.sample_count(lifetime_hours, min_faults)
        faults = self.sample_kinds(count)
        times = [self.rng.uniform(0.0, lifetime_hours) for _ in range(count)]
        return self.place_at(faults, times), weight

    # ------------------------------------------------------------------ #
    def _sample_poisson(self, lam: float) -> int:
        """Knuth's algorithm; lam is a handful of faults at most."""
        threshold = math.exp(-lam)
        count, product = 0, self.rng.random()
        while product > threshold:
            count += 1
            product *= self.rng.random()
        return count

    def _sample_truncated_poisson(self, lam: float, minimum: int) -> int:
        """Sample N ~ Poisson(lam) conditioned on N >= minimum."""
        if lam <= 0:
            raise ConfigurationError(
                "cannot condition on faults with a zero total rate"
            )
        term = math.exp(-lam)
        if term == 0.0:
            raise ConfigurationError(
                f"Poisson mean {lam:g} is too large for inverse-CDF "
                "conditioning: exp(-mean) underflows, so every "
                "conditioned draw would silently return the minimum and "
                "bias the stratified estimator"
            )
        cdf = 0.0
        for k in range(minimum):
            cdf += term
            term *= lam / (k + 1)
        tail_mass = max(1e-300, 1.0 - cdf)
        u = self.rng.random() * tail_mass
        k = minimum
        # ``term`` is now pmf(minimum).
        acc = 0.0
        while True:
            acc += term
            if u <= acc:
                return k
            if term < 1e-300:
                raise ConfigurationError(
                    f"truncated-Poisson tail mass underflowed at mean "
                    f"{lam:g}, minimum {minimum}: the conditioned sampler "
                    "cannot place the draw without biasing the stratum"
                )
            k += 1
            term *= lam / k

    # ------------------------------------------------------------------ #
    def sample_specs(self, count: int) -> List[FaultSpec]:
        """``count`` fault specs — the same draws :meth:`sample_kinds`
        consumes, without constructing ``Fault`` objects.  The batch trial
        kernel samples through this so its RNG stream stays bitwise-
        compatible with the scalar path."""
        return [self._sample_spec() for _ in range(count)]

    def _sample_spec(self) -> FaultSpec:
        rng = self.rng
        placement = self._placements[self._entry_pick.draw(rng.random)]
        if placement is None:
            return self._sample_tsv_spec()
        kind, permanence, coordinates = placement
        getrandbits = rng.getrandbits
        die = _draw_below(getrandbits, *self._die_bound)
        bank = self._sample_bank()
        return FaultSpec(
            kind,
            permanence,
            die,
            bank,
            *[_draw_below(getrandbits, *bound) for bound in coordinates],
        )

    def _sample_fault(self) -> Fault:
        return self._sample_spec().build(self.geometry)

    def _sample_bank(self) -> int:
        """Bank placement for a die-local fault.

        Uniform here; :class:`ThermalFaultInjector` reweights it by the
        per-bank thermal multipliers.
        """
        return _draw_below(self.rng.getrandbits, *self._bank_bound)

    def _placement(
        self, entry: _RateEntry
    ) -> Optional[Tuple[FaultKind, Permanence, Tuple[Tuple[int, int], ...]]]:
        """What a fault drawn from ``entry`` becomes: its kind, permanence
        and the bounds of its ``a``/``b`` placement draws (see
        :class:`FaultSpec`), drawn after its die and bank.  ``None`` for a
        TSV entry, whose faults :meth:`_sample_tsv_spec` places."""
        geometry, kind = self.geometry, entry.kind
        if kind.is_tsv:
            return None
        rows = _bounded(geometry.rows_per_bank)
        subarrays = _bounded(geometry.subarrays_per_bank)
        if kind is FaultKind.BIT:
            coordinates: Tuple[Tuple[int, int], ...] = (
                rows, _bounded(geometry.row_bits)
            )
        elif kind is FaultKind.WORD:
            words_per_row = max(1, geometry.row_bits // WORD_BITS)
            coordinates = (rows, _bounded(words_per_row))
        elif kind is FaultKind.COLUMN:
            coordinates = (_bounded(geometry.row_bits),)
        elif kind is FaultKind.ROW:
            coordinates = (rows,)
        elif kind is FaultKind.SUBARRAY:
            coordinates = (subarrays,)
        elif kind is FaultKind.BANK:
            # Table I's "single bank" rate: transposed to subarray failures
            # unless the 'full' ablation is selected (§II-B, Figure 17).
            if self.rates.bank_fault_granularity == "subarray":
                return FaultKind.SUBARRAY, entry.permanence, (subarrays,)
            coordinates = ()
        else:
            raise ConfigurationError(f"unsupported DRAM fault kind: {kind}")
        return kind, entry.permanence, coordinates

    def _sample_tsv_spec(self) -> FaultSpec:
        """TSV faults land on a uniformly random TSV of a random channel.

        The DTSV/ATSV split is proportional to the TSV populations
        (256:24 per channel in the baseline geometry).
        """
        getrandbits = self.rng.getrandbits
        channel = _draw_below(getrandbits, *self._channel_bound)
        num_dtsv = self.geometry.data_tsvs_per_channel
        pick = _draw_below(getrandbits, *self._tsv_bound)
        if pick < num_dtsv:
            return FaultSpec(
                FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, pick
            )
        return FaultSpec(
            FaultKind.ADDR_TSV,
            Permanence.PERMANENT,
            channel,
            -1,
            pick - num_dtsv,
            _draw_below(getrandbits, *_STUCK_VALUE_BOUND),
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
        self._bank_pick = _WeightedPick(plan)
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

    def _sample_bank(self) -> int:
        return self._bank_pick.draw(self.rng.random)
