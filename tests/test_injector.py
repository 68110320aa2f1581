"""Tests for the Poisson fault injector: arrival statistics, stratified
sampling weights, the count table, fault placement, and the compiled
sampler's draws and kernel rows against stdlib and footprint
references."""

import itertools
import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext

import pytest

from repro.errors import ConfigurationError, ContractViolation, ReproError
from repro.faults.injector import FaultInjector, ThermalFaultInjector
from repro.faults.rates import FailureRates
from repro.faults.types import (
    WORD_BITS,
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
from repro.reliability.analytic import AnalyticModel
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry


@pytest.fixture
def geom():
    return StackGeometry()


def make_injector(geom, seed=1, **rate_kwargs):
    rates = FailureRates.paper_baseline(**rate_kwargs)
    return FaultInjector(geom, rates, random.Random(seed))


class TestArrivalProcess:
    def test_expected_faults_matches_fit_arithmetic(self, geom):
        inj = make_injector(geom)
        # 409.11 FIT/die * 9 dies * 61320 h * 1e-9
        expected = 409.11 * 9 * LIFETIME_HOURS * 1e-9
        assert inj.expected_faults() == pytest.approx(expected, rel=1e-3)

    def test_tsv_fit_adds_to_total(self, geom):
        base = make_injector(geom).total_rate_per_hour
        with_tsv = make_injector(geom, tsv_device_fit=1430.0).total_rate_per_hour
        assert with_tsv - base == pytest.approx(1430.0e-9)

    def test_mean_fault_count_converges(self, geom):
        inj = make_injector(geom, seed=42)
        lam = inj.expected_faults()
        counts = [len(inj.sample_lifetime()[0]) for _ in range(3000)]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(lam, rel=0.1)

    def test_times_sorted_and_within_lifetime(self, geom):
        inj = make_injector(geom, seed=3)
        for _ in range(200):
            faults, _ = inj.sample_lifetime(min_faults=2)
            times = [f.time_hours for f in faults]
            assert times == sorted(times)
            assert all(0 <= t <= LIFETIME_HOURS for t in times)

    def test_zero_rates_rejected(self, geom):
        rates = FailureRates(
            die_fit={FaultKind.BIT: (0.0, 0.0)}, tsv_device_fit=0.0
        )
        with pytest.raises(ConfigurationError):
            FaultInjector(geom, rates)


class TestStratifiedSampling:
    def test_prob_at_least_matches_poisson(self, geom):
        inj = make_injector(geom)
        lam = inj.expected_faults()
        assert inj.prob_at_least(0) == 1.0
        assert inj.prob_at_least(1) == pytest.approx(1 - math.exp(-lam))
        p2 = 1 - math.exp(-lam) * (1 + lam)
        assert inj.prob_at_least(2) == pytest.approx(p2)

    def test_conditioned_sampling_respects_minimum(self, geom):
        inj = make_injector(geom, seed=5)
        for m in (1, 2, 3):
            for _ in range(100):
                faults, weight = inj.sample_lifetime(min_faults=m)
                assert len(faults) >= m
                assert weight == pytest.approx(inj.prob_at_least(m))

    def test_unconditioned_weight_is_one(self, geom):
        inj = make_injector(geom, seed=6)
        _, weight = inj.sample_lifetime()
        assert weight == 1.0

    def test_conditioned_distribution_is_truncated_poisson(self, geom):
        inj = make_injector(geom, seed=7)
        lam = inj.expected_faults()
        counts = [len(inj.sample_lifetime(min_faults=2)[0]) for _ in range(4000)]
        # E[N | N>=2] = (lam - lam*exp(-lam)) / P(N>=2) ... compute directly:
        p2 = 1 - math.exp(-lam) * (1 + lam)
        expected_mean = (lam - lam * math.exp(-lam)) / p2
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(expected_mean, rel=0.05)


class TestPlacement:
    def _sample_many(self, geom, n=4000, **kw):
        inj = make_injector(geom, seed=11, **kw)
        faults = []
        while len(faults) < n:
            fs, _ = inj.sample_lifetime(min_faults=1)
            faults.extend(fs)
        return faults[:n]

    def test_kind_mix_tracks_rates(self, geom):
        faults = self._sample_many(geom)
        frac_bit = sum(f.kind is FaultKind.BIT for f in faults) / len(faults)
        # (113.6 + 148.8) / 409.11 = 0.641
        assert frac_bit == pytest.approx(0.641, abs=0.04)

    def test_bank_rate_becomes_subarray_faults(self, geom):
        faults = self._sample_many(geom)
        kinds = {f.kind for f in faults}
        assert FaultKind.SUBARRAY in kinds
        assert FaultKind.BANK not in kinds  # transposed per §II-B

    def test_full_bank_mode(self, geom):
        faults = self._sample_many(geom, bank_fault_granularity="full")
        kinds = {f.kind for f in faults}
        assert FaultKind.BANK in kinds
        assert FaultKind.SUBARRAY not in kinds

    def test_dies_cover_metadata_die(self, geom):
        faults = self._sample_many(geom)
        dies = {d for f in faults for d in f.footprint.dies}
        assert dies == set(range(9))

    def test_metadata_die_can_be_excluded(self, geom):
        rates = FailureRates(include_metadata_die=False)
        inj = FaultInjector(geom, rates, random.Random(2))
        faults = []
        while len(faults) < 1000:
            fs, _ = inj.sample_lifetime(min_faults=1)
            faults.extend(fs)
        dies = {d for f in faults for d in f.footprint.dies}
        assert 8 not in dies

    def test_tsv_faults_present_when_rate_set(self, geom):
        faults = self._sample_many(geom, tsv_device_fit=100000.0)
        tsv = [f for f in faults if f.kind.is_tsv]
        assert tsv
        # DTSV:ATSV should be roughly 256:24.
        dtsv = sum(f.kind is FaultKind.DATA_TSV for f in tsv)
        assert dtsv / len(tsv) == pytest.approx(256 / 280, abs=0.05)

    def test_transient_permanent_mix(self, geom):
        faults = self._sample_many(geom)
        transient = sum(f.is_transient for f in faults) / len(faults)
        # 134.66 transient / 409.11 total
        assert transient == pytest.approx(134.66 / 409.11, abs=0.04)


# ---------------------------------------------------------------------- #
# Large-mean Poisson tails (log-space regression)
# ---------------------------------------------------------------------- #
def poisson_tail_reference(lam: float, k: int) -> float:
    """P(N >= k) in arbitrary-precision Decimal (scipy-free ground truth).

    Sums the tail forward from pmf(k); Decimal's huge exponent range means
    nothing underflows, and summing the tail directly (instead of
    ``1 - cdf``) avoids catastrophic cancellation for k >> lam.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        lam_d = Decimal(repr(lam))
        term = (-lam_d).exp()
        for j in range(1, k + 1):
            term = term * lam_d / j
        tail = Decimal(0)
        j = k
        while True:
            tail += term
            j += 1
            term = term * lam_d / j
            if j > lam and term < tail * Decimal("1e-40"):
                break
        return float(tail)


class TestLargeMeanTails:
    """``prob_at_least`` must stay finite-precision-correct for means far
    past the ``exp(-lam) == 0`` underflow point (lam >~ 745)."""

    def _lifetime_for(self, inj, lam):
        """The lifetime at which the injector's Poisson mean equals lam."""
        return lam / inj.total_rate_per_hour

    @pytest.mark.parametrize("lam", [10.0, 700.0, 800.0, 5000.0])
    def test_matches_decimal_reference(self, geom, lam):
        inj = make_injector(geom)
        hours = self._lifetime_for(inj, lam)
        for k in (1, 2, int(lam), 2 * int(lam)):
            got = inj.prob_at_least(k, hours)
            want = poisson_tail_reference(lam, k)
            assert got == pytest.approx(want, rel=1e-9), (lam, k)

    @pytest.mark.parametrize("lam", [10.0, 700.0, 800.0, 5000.0])
    def test_analytic_layer_agrees(self, geom, lam):
        """AnalyticModel shares the tail arithmetic with the injector at
        every mean, not just small ones.  (The two layers accumulate the
        Poisson mean in different orders, so agreement is to rounding,
        not bitwise.)"""
        inj = make_injector(geom)
        hours = self._lifetime_for(inj, lam)
        rates = FailureRates.paper_baseline()
        model = AnalyticModel(geom, rates, lifetime_hours=hours)
        for k in (1, 2, int(lam), 2 * int(lam)):
            assert model.prob_at_least(k) == pytest.approx(
                inj.prob_at_least(k, hours), rel=1e-6
            ), (lam, k)

    def test_underflow_regression_at_800(self, geom):
        """The pre-log-space code returned 1.0 for *every* k once
        exp(-lam) underflowed: the CDF summation never accumulated any
        mass.  P(N >= 2*lam) is astronomically small, and P(N >= lam) is
        about one half — both are distinguishable from 1.0."""
        inj = make_injector(geom)
        hours = self._lifetime_for(inj, 800.0)
        assert math.exp(-800.0) == 0.0  # the underflow that broke it
        near_median = inj.prob_at_least(800, hours)
        assert 0.4 < near_median < 0.6
        far_tail = inj.prob_at_least(1600, hours)
        assert 0.0 < far_tail < 1e-50

    def test_monotone_in_k_across_the_switch(self, geom):
        """Tails decrease in k, including across the prefix/tail branch
        switch at k == lam."""
        inj = make_injector(geom)
        hours = self._lifetime_for(inj, 800.0)
        values = [inj.prob_at_least(k, hours)
                  for k in (1, 400, 790, 800, 810, 1200, 1600)]
        assert values == sorted(values, reverse=True)
        assert all(0.0 < v <= 1.0 for v in values)


class TestTruncatedSamplerGuards:
    def test_conditioned_sampling_refuses_underflowed_mean(self, geom):
        """Inverse-CDF conditioning is meaningless once exp(-lam)
        underflows; the sampler must raise instead of silently returning
        ``minimum`` for every draw (which biased the estimator)."""
        inj = make_injector(geom, seed=13)
        hours = 800.0 / inj.total_rate_per_hour
        with pytest.raises(ConfigurationError):
            inj.sample_count(hours, min_faults=2)

    def test_conditioned_sampling_still_works_below_underflow(self, geom):
        inj = make_injector(geom, seed=13)
        hours = 700.0 / inj.total_rate_per_hour
        count, weight = inj.sample_count(hours, min_faults=2)
        assert count >= 2
        assert weight == inj.prob_at_least(2, hours)


def reference_count(rng, lam, min_faults):
    """``sample_count``'s count draw with its set-up redone on every call:
    Knuth's product of uniforms when unconditioned, else the inverse CDF
    over the tail of a Poisson conditioned on ``N >= min_faults``, walked
    term by term and refused once a term below ``1e-300`` cannot cover
    the draw."""
    if min_faults <= 0:
        threshold = math.exp(-lam)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    term = math.exp(-lam)
    cdf = 0.0
    for k in range(min_faults):
        cdf += term
        term *= lam / (k + 1)
    tail_mass = max(1e-300, 1.0 - cdf)
    u = rng.random() * tail_mass
    k = min_faults
    acc = 0.0
    while True:
        acc += term
        if u <= acc:
            return k
        if term < 1e-300:
            raise ConfigurationError("truncated-Poisson tail mass underflowed")
        k += 1
        term *= lam / k


def reference_weight(lam, min_faults):
    """``P(N >= min_faults)`` by the direct CDF sum (means below ~745)."""
    if min_faults <= 0:
        return 1.0
    term = math.exp(-lam)
    cdf = 0.0
    for k in range(min_faults):
        cdf += term
        term *= lam / (k + 1)
    return max(0.0, 1.0 - cdf)


class TestCountTable:
    """``sample_count`` keeps its Poisson set-up per ``(lifetime,
    min_faults)``; the draws, weights and RNG stream are those of the
    set-up rebuilt on every call."""

    #: ``(lifetime_hours, min_faults)`` keys, one unconditioned.
    KEYS = (
        (LIFETIME_HOURS, 0),
        (LIFETIME_HOURS, 2),
        (1000.0, 1),
        (20 * LIFETIME_HOURS, 3),
        (LIFETIME_HOURS, 1),
    )

    def test_interleaved_keys_match_uncached_reference(self, geom):
        for seed in range(5):
            inj = make_injector(geom, seed=seed, tsv_device_fit=1430.0)
            reference_rng = random.Random(seed)
            order = random.Random(100 + seed)
            for _ in range(2000):
                hours, min_faults = order.choice(self.KEYS)
                lam = inj.total_rate_per_hour * hours
                expected = (
                    reference_count(reference_rng, lam, min_faults),
                    reference_weight(lam, min_faults),
                )
                assert inj.sample_count(hours, min_faults) == expected
            assert inj.rng.getstate() == reference_rng.getstate(), seed

    #: ``(Poisson mean, min_faults)``: the hot-path stress rate, and a
    #: mean near ``exp(-mean)`` underflow where ``pmf(1)`` is already
    #: below ``1e-300`` (so ``min_faults=1`` refuses almost every draw),
    #: also unconditioned.
    DENSE_KEYS = ((150.0, 2), (700.0, 2), (700.0, 1), (700.0, 0))

    def test_dense_and_near_underflow_means_match_reference(self, geom):
        outcomes = {"count": 0, "raise": 0}
        for seed in range(3):
            inj = make_injector(geom, seed=seed, tsv_device_fit=1430.0)
            reference_rng = random.Random(seed)
            order = random.Random(200 + seed)
            for _ in range(300):
                mean, min_faults = order.choice(self.DENSE_KEYS)
                hours = mean / inj.total_rate_per_hour
                lam = inj.total_rate_per_hour * hours
                try:
                    expected = reference_count(reference_rng, lam, min_faults)
                except ConfigurationError:
                    outcomes["raise"] += 1
                    with pytest.raises(ConfigurationError, match="underflow"):
                        inj.sample_count(hours, min_faults)
                    continue
                outcomes["count"] += 1
                assert inj.sample_count(hours, min_faults) == (
                    expected, reference_weight(lam, min_faults)
                )
            assert inj.rng.getstate() == reference_rng.getstate(), seed
        assert outcomes["count"] > 0 and outcomes["raise"] > 0

    def test_failing_configurations_raise_on_every_call(self, geom):
        """Unconditioned too: once ``exp(-mean)`` underflows, Knuth's
        product stops only when it underflows itself, so counts would
        saturate near 745 whatever the mean."""
        inj = make_injector(geom, seed=13)
        underflow_hours = 800.0 / inj.total_rate_per_hour
        for _ in range(2):
            for min_faults in (2, 0):
                with pytest.raises(ConfigurationError, match="too large"):
                    inj.sample_count(underflow_hours, min_faults)
            with pytest.raises(ConfigurationError, match="zero total rate"):
                inj.sample_count(0.0, min_faults=2)
        # Neither configuration drew anything.
        assert inj.rng.getstate() == random.Random(13).getstate()
        assert inj.sample_count(LIFETIME_HOURS, min_faults=2)[0] >= 2


class TestPlaceAtGuard:
    def test_mismatched_lengths_rejected(self, geom):
        inj = make_injector(geom, seed=17)
        records = inj.sample_specs(3)
        with pytest.raises(ContractViolation):
            inj.place_at(records, [1.0, 2.0])

    def test_matched_lengths_accepted(self, geom):
        inj = make_injector(geom, seed=17)
        records = inj.sample_specs(2)
        placed = inj.place_at(records, [5.0, 1.0])
        assert [f.time_hours for f in placed] == [1.0, 5.0]
        # Record ``i`` arrives at the ``i``-th smallest time, and each
        # fault takes one uid, in record order.
        built = [
            build_fault(geom, describe(inj, record), t)
            for record, t in zip(records, [1.0, 5.0])
        ]
        assert [replace(f, uid=0) for f in placed] == [
            replace(f, uid=0) for f in built
        ]
        assert placed[1].uid == placed[0].uid + 1


# ---------------------------------------------------------------------- #
# Draw-exact record sampling
# ---------------------------------------------------------------------- #
def describe(inj, record):
    """A record's description ``(kind, permanence, die, bank, a, b)``:
    its code's final kind and permanence, then its coordinates."""
    code, die, bank, a, b = record
    return (*inj.codes[code], die, bank, a, b)


def build_fault(geometry, description, time_hours=0.0):
    """The fault a description names, built by its kind's ``make_*``
    constructor: the reference the injector's builders must match."""
    kind, permanence, die, bank, a, b = description
    if kind is FaultKind.BIT:
        return make_bit_fault(
            geometry, die, bank, a, b, permanence, time_hours
        )
    if kind is FaultKind.WORD:
        return make_word_fault(
            geometry, die, bank, a, b, permanence, time_hours
        )
    if kind is FaultKind.COLUMN:
        return make_column_fault(
            geometry, die, bank, a, permanence, time_hours
        )
    if kind is FaultKind.ROW:
        return make_row_fault(geometry, die, bank, a, permanence, time_hours)
    if kind is FaultKind.SUBARRAY:
        return make_subarray_fault(
            geometry, die, bank, a, permanence, time_hours
        )
    if kind is FaultKind.BANK:
        return make_bank_fault(geometry, die, bank, permanence, time_hours)
    if kind is FaultKind.DATA_TSV:
        return make_data_tsv_fault(geometry, die, a, permanence, time_hours)
    assert kind is FaultKind.ADDR_TSV
    return make_addr_tsv_fault(
        geometry, die, a, stuck_value=b, permanence=permanence,
        time_hours=time_hours,
    )


def reference_spec(inj, rng):
    """One description drawn the way the sampler was first written: one
    ``rng.choices`` over the rate entries, then one ``rng.randrange`` per
    placement coordinate.  The injector must reproduce these draws
    exactly, since every pinned result depends on the RNG stream."""
    geom = inj.geometry
    weights = [entry.rate_per_hour for entry in inj._entries]
    entry = rng.choices(inj._entries, weights=weights, k=1)[0]
    if entry.kind.is_tsv:
        channel = rng.randrange(geom.channels)
        num_dtsv = geom.data_tsvs_per_channel
        pick = rng.randrange(num_dtsv + geom.addr_tsvs_per_channel)
        if pick < num_dtsv:
            return (
                FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, pick, 0
            )
        return (
            FaultKind.ADDR_TSV, Permanence.PERMANENT, channel, -1,
            pick - num_dtsv, rng.randrange(2),
        )
    die = rng.randrange(
        geom.total_dies if inj.rates.include_metadata_die else geom.data_dies
    )
    if isinstance(inj, ThermalFaultInjector):
        banks = range(geom.banks_per_die)
        bank = rng.choices(banks, weights=inj.multipliers, k=1)[0]
    else:
        bank = rng.randrange(geom.banks_per_die)
    kind, perm = entry.kind, entry.permanence
    if kind is FaultKind.BIT:
        coordinates = (
            rng.randrange(geom.rows_per_bank), rng.randrange(geom.row_bits)
        )
    elif kind is FaultKind.WORD:
        coordinates = (
            rng.randrange(geom.rows_per_bank),
            rng.randrange(max(1, geom.row_bits // WORD_BITS)),
        )
    elif kind is FaultKind.COLUMN:
        coordinates = (rng.randrange(geom.row_bits), 0)
    elif kind is FaultKind.ROW:
        coordinates = (rng.randrange(geom.rows_per_bank), 0)
    elif kind is FaultKind.SUBARRAY:
        coordinates = (rng.randrange(geom.subarrays_per_bank), 0)
    elif inj.rates.bank_fault_granularity == "subarray":
        kind = FaultKind.SUBARRAY
        coordinates = (rng.randrange(geom.subarrays_per_bank), 0)
    else:
        coordinates = (0, 0)
    return (kind, perm, die, bank, *coordinates)


def reference_masks(description, geometry):
    """``(row_base, row_mask, col_base, col_mask)`` of the footprint of
    the fault a description names: the canonical address+mask pairs of
    the ``make_*`` constructors, as plain ints.  The sampler's compiled
    footprint rules must give these masks for every record, and the
    batch kernel tests build their ``TrialBatch`` rows from them."""
    kind, _, _, _, a, b = description
    row_universe = (1 << geometry.row_address_bits) - 1
    col_universe = (1 << geometry.col_address_bits) - 1
    if kind is FaultKind.BIT:
        return a, 0, b, 0
    if kind is FaultKind.WORD:
        word_bits = min(WORD_BITS, geometry.row_bits)
        return a, 0, b * word_bits, word_bits - 1
    if kind is FaultKind.COLUMN:
        return 0, row_universe, a, 0
    if kind is FaultKind.ROW:
        return a, 0, 0, col_universe
    if kind is FaultKind.SUBARRAY:
        return (
            a * geometry.rows_per_subarray,
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
        return 0, row_universe, a & ~col_mask, col_mask
    assert kind is FaultKind.ADDR_TSV
    bit = a % geometry.row_address_bits
    return (
        (1 - b) << bit,
        row_universe & ~(1 << bit),
        0,
        col_universe,
    )


def reference_row(description, geometry):
    """The ``TrialBatch`` columns of a description but the epoch."""
    kind, permanence, die, bank, _, _ = description
    return (
        permanence is Permanence.PERMANENT,
        kind.is_tsv,
        kind is FaultKind.BANK,
        die,
        bank,
        *reference_masks(description, geometry),
    )


#: Name -> injector factory ``(geometry, rng) -> FaultInjector``.
SAMPLER_CONFIGS = {
    "paper": lambda g, rng: FaultInjector(
        g, FailureRates.paper_baseline(), rng
    ),
    "paper+tsv": lambda g, rng: FaultInjector(
        g, FailureRates.paper_baseline(tsv_device_fit=1430.0), rng
    ),
    "no-metadata-die": lambda g, rng: FaultInjector(
        g, FailureRates(include_metadata_die=False, tsv_device_fit=1430.0),
        rng,
    ),
    "full-bank": lambda g, rng: FaultInjector(
        g, FailureRates.paper_baseline(
            tsv_device_fit=1430.0, bank_fault_granularity="full"
        ), rng,
    ),
    "thermal": lambda g, rng: ThermalFaultInjector(
        g, FailureRates.paper_baseline(tsv_device_fit=1430.0), rng,
        multipliers=tuple(
            1.0 + 0.5 * (bank % 3) for bank in range(g.banks_per_die)
        ),
    ),
}


#: Geometries for the compiled footprint rules: the baseline, the small
#: functional one, and one whose DTSVs carry one bit per line
#: (``line_bits // data_tsvs_per_channel == 1``: no burst mask).
ROW_GEOMETRIES = {
    "default": StackGeometry(),
    "small": StackGeometry.small(),
    "one-bit-burst": StackGeometry.small(data_tsvs_per_channel=512),
}


def sampleable_kinds(inj):
    """Every kind the injector's rates can produce.  Table I has no
    subarray rate: subarray faults are transposed bank faults, which the
    'full' ablation keeps whole."""
    full = inj.rates.bank_fault_granularity == "full"
    kinds = {
        FaultKind.BIT, FaultKind.WORD, FaultKind.COLUMN, FaultKind.ROW,
        FaultKind.BANK if full else FaultKind.SUBARRAY,
    }
    if inj.rates.tsv_device_fit > 0:
        kinds |= {FaultKind.DATA_TSV, FaultKind.ADDR_TSV}
    return kinds


class TestDrawExactSampling:
    """``sample_specs`` is a faster form of :func:`reference_spec`, never
    a different one."""

    @pytest.mark.parametrize("config", sorted(SAMPLER_CONFIGS))
    def test_matches_reference_sampler(self, geom, config):
        kinds = set()
        for seed in range(20):
            inj = SAMPLER_CONFIGS[config](geom, random.Random(seed))
            reference_rng = random.Random(seed)
            descriptions = [
                describe(inj, record) for record in inj.sample_specs(300)
            ]
            expected = [reference_spec(inj, reference_rng) for _ in range(300)]
            assert descriptions == expected, (config, seed)
            assert inj.rng.getstate() == reference_rng.getstate(), (
                config, seed
            )
            kinds.update(kind for kind, *_ in descriptions)
        # Every kind the rates can produce was compared, rare ones too.
        assert kinds == sampleable_kinds(inj)

    @pytest.mark.parametrize("geometry_name", sorted(ROW_GEOMETRIES))
    @pytest.mark.parametrize("config", sorted(SAMPLER_CONFIGS))
    def test_rows_match_reference_footprints(self, config, geometry_name):
        """Each record's row is its description's flags and reference
        masks, and those are the canonical footprint of the fault the
        description names."""
        geometry = ROW_GEOMETRIES[geometry_name]
        kinds = set()
        for seed in range(20):
            inj = SAMPLER_CONFIGS[config](geometry, random.Random(seed))
            reference_rng = random.Random(seed)
            records = inj.sample_specs(300)
            columns = inj.record_columns(records)
            rows = zip(*(column.tolist() for column in columns))
            for row, record in zip(rows, records):
                description = describe(inj, record)
                where = (config, geometry_name, seed, description)
                assert description == reference_spec(inj, reference_rng), where
                assert row == reference_row(description, geometry), where
                footprint = build_fault(geometry, description).footprint
                assert row[5:] == (
                    footprint.rows.base, footprint.rows.mask,
                    footprint.cols.base, footprint.cols.mask,
                ), where
                kinds.add(description[0])
            assert inj.rng.getstate() == reference_rng.getstate(), (
                config, geometry_name, seed
            )
        assert kinds == sampleable_kinds(inj)

    @pytest.mark.parametrize("config", sorted(SAMPLER_CONFIGS))
    def test_one_record_per_fault(self, geom, config):
        """The bench counts ``len(sample_specs(n))`` as faults sampled."""
        inj = SAMPLER_CONFIGS[config](geom, random.Random(3))
        for count in (0, 1, 2, 7, 300):
            records = inj.sample_specs(count)
            assert len(records) == count
            assert all(len(record) == 5 for record in records)

    @pytest.mark.parametrize("config", sorted(SAMPLER_CONFIGS))
    def test_lifetimes_place_the_same_records(self, geom, config):
        """``sample_lifetime`` builds exactly the faults ``place_at``
        builds from ``sample_specs``' records of the same draws."""
        keys = ((LIFETIME_HOURS, 0), (LIFETIME_HOURS, 2),
                (20 * LIFETIME_HOURS, 1))
        for seed in range(5):
            inj = SAMPLER_CONFIGS[config](geom, random.Random(seed))
            twin = SAMPLER_CONFIGS[config](geom, random.Random(seed))
            for hours, min_faults in keys * 4:
                faults, weight = inj.sample_lifetime(hours, min_faults)
                count, twin_weight = twin.sample_count(hours, min_faults)
                records = twin.sample_specs(count)
                times = [twin.rng.uniform(0.0, hours) for _ in range(count)]
                placed = twin.place_at(records, times)
                assert weight == twin_weight
                assert [replace(f, uid=0) for f in faults] == [
                    replace(f, uid=0) for f in placed
                ], (config, seed, hours, min_faults)
            assert inj.rng.getstate() == twin.rng.getstate()

    def test_nonfinite_rates_rejected(self, geom):
        rates = FailureRates.paper_baseline(tsv_device_fit=math.inf)
        with pytest.raises(ConfigurationError):
            FaultInjector(geom, rates)


def coordinate_bounds(geometry, kind):
    """The exclusive upper bound of each coordinate ``(die, bank, a, b)``
    of a record of ``kind``, or ``None`` where its builder ignores it."""
    rows, columns = geometry.rows_per_bank, geometry.row_bits
    if kind is FaultKind.DATA_TSV:
        return geometry.channels, None, geometry.data_tsvs_per_channel, None
    if kind is FaultKind.ADDR_TSV:
        return geometry.channels, None, geometry.addr_tsvs_per_channel, 2
    a, b = {
        FaultKind.BIT: (rows, columns),
        FaultKind.WORD: (rows, max(1, columns // WORD_BITS)),
        FaultKind.COLUMN: (columns, None),
        FaultKind.ROW: (rows, None),
        FaultKind.SUBARRAY: (geometry.subarrays_per_bank, None),
        FaultKind.BANK: (None, None),
    }[kind]
    return geometry.total_dies, geometry.banks_per_die, a, b


@pytest.mark.parametrize("geometry_name", sorted(ROW_GEOMETRIES))
@pytest.mark.parametrize("config", sorted(SAMPLER_CONFIGS))
class TestPlaceAtBuilders:
    """``place_at`` builds each code's fault through the code's builder:
    the fault its description names, and nothing out of range."""

    @staticmethod
    def neutral(kind):
        """A record's ``(die, bank, a, b)`` at their lowest values (a
        TSV record's bank is -1)."""
        return [0, -1 if kind.is_tsv else 0, 0, 0]

    def test_every_code_builds_its_reference_fault(
        self, config, geometry_name
    ):
        geometry = ROW_GEOMETRIES[geometry_name]
        inj = SAMPLER_CONFIGS[config](geometry, random.Random(0))
        for code, (kind, _) in enumerate(inj.codes):
            choices = [
                (value,) if bound is None else (0, bound - 1)
                for value, bound in zip(
                    self.neutral(kind), coordinate_bounds(geometry, kind)
                )
            ]
            for coordinates in itertools.product(*choices):
                record = (code, *coordinates)
                placed = inj.place_at([record], [1234.5])
                expected = build_fault(
                    geometry, describe(inj, record), 1234.5
                )
                assert [replace(f, uid=0) for f in placed] == [
                    replace(expected, uid=0)
                ], (config, geometry_name, record)

    def test_out_of_range_records_raise(self, config, geometry_name):
        geometry = ROW_GEOMETRIES[geometry_name]
        inj = SAMPLER_CONFIGS[config](geometry, random.Random(0))
        for code, (kind, _) in enumerate(inj.codes):
            bounds = coordinate_bounds(geometry, kind)
            for index, bound in enumerate(bounds):
                if bound is None:
                    continue
                for value in (-1, bound):
                    coordinates = self.neutral(kind)
                    coordinates[index] = value
                    record = (code, *coordinates)
                    with pytest.raises(ReproError):
                        inj.place_at([record], [0.0])
