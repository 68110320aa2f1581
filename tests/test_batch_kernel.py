"""Differential tests for the vectorized batch trial kernel.

``LifetimeSimulator.run`` sends every naive-sampling campaign it can
through the batch path, a *survival filter*: the array kernels may only
claim a trial survives when the exact scalar simulator would agree, and
every other trial is re-run through the scalar path.  These tests pin
both halves of that claim against the scalar reference loop
(``LifetimeSimulator._run_scalar``):

* byte-identity of ``ReliabilityResult`` documents between the scalar and
  batch engines for every registered scheme, with thermal FIT feedback,
  with failure modes, under a tiny chunk pair budget, across worker
  counts, and through checkpoint/resume;
* hypothesis soundness at the kernel boundary — crowded random fault
  sets, and for 3DP dense sets around column-block edges, where a
  ``survives`` verdict must match a from-scratch scalar simulation of
  the same trial — plus the paper's two-round peel by hand;
* the pair index against a brute-force reference, and its per-trial
  count against the engine's;
* a fault-dense stress campaign that the kernel must settle;
* the TSV-Swap stand-by pool boundary of the overflow check;
* the dispatch contract — silent scalar fallback for observability runs,
  the from-scratch oracle, non-naive sampling and kernel-less models —
  and the share of a Fig. 18 symbol-code campaign the kernel settles.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reliability.batch as batch_mod
from repro.core.dds import outlives_scrub
from repro.core.parity3dp import COL_BLOCK_BITS, ParityND, make_3dp
from repro.core.tsv_swap import apply_tsv_swap
from repro.ecc.base import FromScratch
from repro.ecc.batch_kernels import (
    COLIVE_EPOCH_SLACK,
    TrialBatch,
    candidate_pair_count,
)
from repro.faults.injector import FaultInjector
from repro.faults.rates import TABLE_I_8GB_FIT, FailureRates
from repro.faults.types import FaultKind, Permanence
from repro.reliability import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.batch import BatchTrialKernel, make_batch_runner
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.schemes import SCHEMES
from repro.stack.geometry import (
    LIFETIME_HOURS,
    SCRUB_INTERVAL_HOURS,
    StackGeometry,
)
from repro.stack.tsv import standby_dtsv_indices
from test_injector import build_fault, reference_masks

GEOM = StackGeometry()
#: TSV faults on so TSV-Swap absorption and the TSV kernel rows are hit.
RATES = FailureRates.paper_baseline(tsv_device_fit=1430.0)
#: TSV faults in most trials, several per trial.
HIGH_TSV_RATES = FailureRates.paper_baseline(tsv_device_fit=20000.0)
#: A hot/cold bank-position profile for the thermal FIT feedback.
THERMAL = tuple(1.0 + 0.5 * (bank % 3) for bank in range(GEOM.banks_per_die))

np = pytest.importorskip("numpy")

#: The bench's ``hotpath-stress`` set-up: bit and word FIT x1000 and a
#: scrub every quarter lifetime give about 150 live faults per trial.
STRESS_SCALE = 1000
STRESS_SCRUB_HOURS = 15330.0


def scaled_rates(kinds):
    """Table I with the bit and word FITs x1000, keeping only ``kinds``."""
    die_fit = {}
    for kind, (transient, permanent) in TABLE_I_8GB_FIT.items():
        if kind not in kinds:
            continue
        if kind in (FaultKind.BIT, FaultKind.WORD):
            transient, permanent = (
                transient * STRESS_SCALE, permanent * STRESS_SCALE
            )
        die_fit[kind] = (transient, permanent)
    return FailureRates(die_fit=die_fit, tsv_device_fit=1430.0)


def stress_sim(rates, seed):
    """3DP + TSV-Swap 4 + DDS with quarter-lifetime scrubs."""
    return LifetimeSimulator(
        GEOM, rates, make_3dp(GEOM),
        EngineConfig(
            tsv_swap_standby=4, use_dds=True,
            scrub_interval_hours=STRESS_SCRUB_HOURS,
        ),
        seed=seed,
    )


def run_once(scheme, seed, batch, trials=300, rates=RATES, **config_kwargs):
    """``batch``: the default ``run``; otherwise the scalar reference."""
    config = EngineConfig(**config_kwargs)
    sim = LifetimeSimulator(GEOM, rates, SCHEMES[scheme](GEOM), config, seed=seed)
    if batch:
        return sim.run(trials)
    return sim._run_scalar(trials, sim.default_min_faults(), None)


def doc(result):
    return json.dumps(result.to_dict(), sort_keys=False)


# ---------------------------------------------------------------------- #
# End-to-end byte identity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestBatchMatchesScalar:
    def test_result_documents_identical(self, scheme):
        for seed in (7, 99):
            scalar = run_once(scheme, seed, batch=False)
            batch = run_once(scheme, seed, batch=True)
            assert doc(scalar) == doc(batch), (scheme, seed)

    def test_identical_with_mitigations(self, scheme):
        # At TSV FIT 20000 and one stand-by TSV per channel many trials
        # overflow a pool, so the overflow check and the gate in front
        # of it decide trials too.
        for rates, standby in ((RATES, 4), (HIGH_TSV_RATES, 1)):
            scalar = run_once(
                scheme, 31, batch=False, rates=rates,
                tsv_swap_standby=standby, use_dds=True,
            )
            batch = run_once(
                scheme, 31, batch=True, rates=rates,
                tsv_swap_standby=standby, use_dds=True,
            )
            assert doc(scalar) == doc(batch), (scheme, standby)

    def test_identical_with_thermal_bank_fit(self, scheme):
        """``ThermalFaultInjector`` overrides bank placement; the batch
        path samples specs through the same override."""
        kwargs = dict(
            tsv_swap_standby=4, use_dds=True, thermal_bank_fit=THERMAL
        )
        scalar = run_once(scheme, 17, batch=False, **kwargs)
        batch = run_once(scheme, 17, batch=True, **kwargs)
        assert doc(scalar) == doc(batch), scheme

    def test_identical_with_failure_modes(self, scheme):
        """Failure modes run on the kernel: it only proves survival, and
        every failing trial re-runs on the scalar path, which names its
        mode."""
        kwargs = dict(collect_failure_modes=True)
        scalar = run_once(scheme, 7, batch=False, **kwargs)
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), EngineConfig(**kwargs), seed=7
        )
        if sim.model.batch_kernel() is None:  # bch
            batch = sim.run(300)
        else:
            runner = make_batch_runner(sim)
            assert isinstance(runner, BatchTrialKernel)
            batch = runner.run(300, sim.default_min_faults(), None)
            assert runner.fast_trials > 0
        assert scalar.failure_modes
        assert doc(scalar) == doc(batch), scheme
        # Tallied in trial order, so ties among the top modes list alike.
        assert list(batch.failure_modes) == list(scalar.failure_modes)

    def test_identical_under_tiny_pair_budget(self, scheme, monkeypatch):
        """A one-pair budget admits a trial to a chunk only while the
        chunk's indexed pairs stay within one, and sends a trial whose
        own indexed pairs exceed one to the scalar path at once; neither
        may change a byte."""
        monkeypatch.setattr(batch_mod, "CHUNK_PAIRS", 1)
        for seed in (7, 99):
            scalar = run_once(scheme, seed, batch=False)
            batch = run_once(scheme, seed, batch=True)
            assert doc(scalar) == doc(batch), (scheme, seed)


def spy_chunks(monkeypatch):
    """Record each chunk the engine evaluates as ``(indexed, decided,
    screened)``: the pairs ``TrialBatch.pairs`` returned for it, the
    trials of its span sent to the scalar path without screening, and
    the live-fault count of each trial it sent to the kernel."""
    chunks = []
    indexed = []
    evaluate = BatchTrialKernel._evaluate
    pairs = TrialBatch.pairs

    def pairs_spy(self, col_block_bits):
        result = pairs(self, col_block_bits)
        indexed.append(result[0].size)
        return result

    def evaluate_spy(self, batch, screened):
        indexed.clear()
        outcome = evaluate(self, batch, screened)
        chunks.append((
            sum(indexed),
            int(np.count_nonzero(~screened)),
            batch.counts.tolist(),
        ))
        return outcome

    monkeypatch.setattr(TrialBatch, "pairs", pairs_spy)
    monkeypatch.setattr(BatchTrialKernel, "_evaluate", evaluate_spy)
    return chunks


class TestPairBudget:
    def test_chunks_stay_within_budget(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "CHUNK_PAIRS", 1)
        chunks = spy_chunks(monkeypatch)

        def make_sim():
            return LifetimeSimulator(
                GEOM, RATES, make_3dp(GEOM),
                EngineConfig(tsv_swap_standby=4, use_dds=True), seed=302,
            )

        runner = make_batch_runner(make_sim())
        result = runner.run(2000, 2, None)
        assert doc(result) == doc(make_sim()._run_scalar(2000, 2, None))
        assert max(indexed for indexed, _, _ in chunks) <= 1
        assert len(chunks) > 1
        # Some trial was over budget and went straight to the scalar path.
        assert sum(decided for _, decided, _ in chunks) > 0
        assert runner.fast_trials > 0
        assert runner.fast_trials + runner.fallback_trials == 2000

    def test_dense_narrow_trials_join_a_chunk(self, monkeypatch):
        """Over 128 live faults is over the budget in all pairs, but bit,
        word and column faults pair only with their block-mates, so such
        a trial is screened by the kernel instead of simulated at once."""
        chunks = spy_chunks(monkeypatch)
        rates = scaled_rates(
            {FaultKind.BIT, FaultKind.WORD, FaultKind.COLUMN}
        )
        runner = make_batch_runner(stress_sim(rates, seed=5))
        result = runner.run(12, 2, None)
        assert doc(result) == doc(
            stress_sim(rates, seed=5)._run_scalar(12, 2, None)
        )
        screened = [count for _, _, trials in chunks for count in trials]
        assert max(screened) > 128
        budget = batch_mod.CHUNK_PAIRS
        assert max(indexed for indexed, _, _ in chunks) <= budget
        assert runner.fast_trials > 0


class TestStressRates:
    def test_stress_campaign_settles_on_the_fast_path(self):
        """The bench's stress rates (about 150 live faults per trial):
        the batch run equals the scalar reference byte for byte, and the
        kernel proves nearly every trial instead of re-simulating it."""
        rates = scaled_rates(set(TABLE_I_8GB_FIT))
        trials = 30
        sim = stress_sim(rates, seed=8)
        runner = make_batch_runner(sim)
        assert isinstance(runner, BatchTrialKernel)
        result = runner.run(trials, 2, None)
        assert runner.fast_trials >= 0.95 * trials
        scalar = stress_sim(rates, seed=8)._run_scalar(trials, 2, None)
        assert doc(result) == doc(scalar)
        assert doc(stress_sim(rates, seed=8).run(trials, 2)) == doc(scalar)


def spy_blocks(monkeypatch):
    """Record each block the engine screens as ``(faults, trials)``."""
    blocks = []
    screen = BatchTrialKernel._screen

    def screen_spy(self, records, times, counts, failure_times):
        blocks.append((len(records), len(counts)))
        return screen(self, records, times, counts, failure_times)

    monkeypatch.setattr(BatchTrialKernel, "_screen", screen_spy)
    return blocks


class TestBlocks:
    def test_fault_budget_bounds_every_block(self, monkeypatch):
        """A block closes before a trial would push it past
        ``CHUNK_FAULTS``: at the bench's stress rates (about 150 faults
        per trial) a 400-fault budget holds two trials per block, and
        the result stays byte-identical to the scalar loop."""
        budget = 400
        monkeypatch.setattr(batch_mod, "CHUNK_FAULTS", budget)
        blocks = spy_blocks(monkeypatch)
        rates = scaled_rates(set(TABLE_I_8GB_FIT))
        result = stress_sim(rates, seed=8).run(12, 2)
        scalar = stress_sim(rates, seed=8)._run_scalar(12, 2, None)
        assert doc(result) == doc(scalar)
        assert sum(trials for _, trials in blocks) == 12
        assert len(blocks) >= 6
        assert max(faults for faults, _ in blocks) <= budget

    def test_trial_cap_closes_blocks(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "CHUNK_TRIALS", 7)
        blocks = spy_blocks(monkeypatch)
        kwargs = dict(tsv_swap_standby=4, use_dds=True)
        batch = run_once("citadel", 7, batch=True, **kwargs)
        scalar = run_once("citadel", 7, batch=False, **kwargs)
        assert doc(batch) == doc(scalar)
        assert [trials for _, trials in blocks] == [7] * 42 + [6]


class TestScrubEpochs:
    """A block's epochs are ``np.floor_divide`` of its arrival times,
    which must equal ``int(t // interval)``, in arrival order within
    each trial, and fit in int64."""

    @pytest.mark.parametrize("interval", [SCRUB_INTERVAL_HOURS, 1e-12])
    def test_kernel_sees_each_trials_epochs_in_arrival_order(
        self, interval, monkeypatch
    ):
        """A trial's ``i``-th row carries the epoch of its ``i``-th
        smallest arrival time, at the default interval and at 1e-12 h,
        where epochs reach about 6e16.  Without TSV-Swap and at paper
        rates every fault of the block reaches the kernel in one
        chunk."""
        seen = []
        screen = BatchTrialKernel._screen
        evaluate = BatchTrialKernel._evaluate

        def screen_spy(self, records, times, counts, failure_times):
            expected, start = [], 0
            for count in counts:
                arrivals = sorted(times[start:start + count])
                expected += [int(t // interval) for t in arrivals]
                start += count
            seen.append((expected, []))
            return screen(self, records, times, counts, failure_times)

        def evaluate_spy(self, batch, screened):
            seen[-1][1].extend(batch.epoch.tolist())
            return evaluate(self, batch, screened)

        monkeypatch.setattr(BatchTrialKernel, "_screen", screen_spy)
        monkeypatch.setattr(BatchTrialKernel, "_evaluate", evaluate_spy)
        run_once("3dp", 7, batch=True, scrub_interval_hours=interval)
        assert len(seen) == 1
        expected, epochs = seen[0]
        assert epochs == expected
        assert len(set(epochs)) > 100

    @pytest.mark.parametrize(
        "interval",
        [SCRUB_INTERVAL_HOURS, STRESS_SCRUB_HOURS, 0.1, 1.0, 3.7, math.inf],
    )
    def test_epochs_equal_float_floor_division(self, interval):
        rng = random.Random(11)
        times = [LIFETIME_HOURS * rng.random() for _ in range(20000)]
        if math.isfinite(interval):
            # Exact multiples of the interval, and their float
            # neighbours, where a quotient is most likely to round.
            boundaries = [
                k * interval
                for k in range(0, int(LIFETIME_HOURS // interval) + 1,
                               max(1, int(LIFETIME_HOURS // interval) // 500))
            ]
            times += boundaries
            times += [math.nextafter(t, math.inf) for t in boundaries]
            times += [math.nextafter(t, 0.0) for t in boundaries]
        epochs = batch_mod.scrub_epochs(np.array(times), interval)
        assert epochs.dtype == np.int64
        assert epochs.tolist() == [int(t // interval) for t in times]

    def test_epochs_past_int64_stay_on_the_scalar_loop(self):
        """At 1e-16 h, ``lifetime // interval`` (about 6e20) is past
        int64: the run keeps exact Python-int epochs on the scalar loop
        instead of wrapping them in the batch path."""
        interval = 1e-16
        assert LIFETIME_HOURS // interval >= 1 << 63
        sim = LifetimeSimulator(
            GEOM, RATES, make_3dp(GEOM),
            EngineConfig(scrub_interval_hours=interval), seed=7,
        )
        assert make_batch_runner(sim) is None
        kwargs = dict(trials=100, scrub_interval_hours=interval)
        batch = run_once("3dp", 7, batch=True, **kwargs)
        scalar = run_once("3dp", 7, batch=False, **kwargs)
        assert doc(batch) == doc(scalar)


#: Reads the faulty TSVs of the records ``tsv_record`` builds.
TSV_INJECTOR = FaultInjector(GEOM, RATES)
ATSV_CODE = TSV_INJECTOR.codes.index((FaultKind.ADDR_TSV, Permanence.PERMANENT))


def tsv_record(kind, channel, index, stuck=0):
    """A sampled record of the TSV fault ``(kind, channel, index)``;
    ``stuck`` is an address TSV's stuck value."""
    code = TSV_INJECTOR.codes.index((kind, Permanence.PERMANENT))
    return code, channel, -1, index, stuck


#: Every stand-by count ``standby_dtsv_indices`` accepts on ``GEOM``.
STANDBY_COUNTS = [
    count
    for count in range(1, GEOM.data_tsvs_per_channel + 1)
    if GEOM.data_tsvs_per_channel % count == 0
]


@st.composite
def clustered_tsv_trials(draw):
    """A stand-by count and one trial's TSV records clustered around
    that pool's boundary: in one or two channels, about ``standby``
    distinct faulty TSVs at adjacent indices (the data run often starts
    at a stand-by DTSV, which a faulty one takes out of the pool), data
    and address TSVs mixed, plus repeats of faulty TSVs (an address
    TSV's at either stuck value), in any order."""
    standby = draw(st.sampled_from(STANDBY_COUNTS))
    standby_dtsvs = st.sampled_from(standby_dtsv_indices(GEOM, standby))
    records = []
    channels = draw(
        st.lists(
            st.integers(0, GEOM.channels - 1),
            min_size=1, max_size=2, unique=True,
        )
    )
    for channel in channels:
        distinct = draw(st.integers(max(0, standby - 2), standby + 2))
        addr = draw(st.integers(0, min(distinct, GEOM.addr_tsvs_per_channel)))
        start = draw(
            standby_dtsvs | st.integers(0, GEOM.data_tsvs_per_channel - 1)
        )
        records += [
            tsv_record(
                FaultKind.DATA_TSV, channel,
                (start + offset) % GEOM.data_tsvs_per_channel,
            )
            for offset in range(distinct - addr)
        ]
        start = draw(st.integers(0, GEOM.addr_tsvs_per_channel - 1))
        records += [
            tsv_record(
                FaultKind.ADDR_TSV, channel,
                (start + offset) % GEOM.addr_tsvs_per_channel,
                draw(st.integers(0, 1)),
            )
            for offset in range(addr)
        ]
    if records:
        for code, channel, bank, index, stuck in draw(
            st.lists(st.sampled_from(records), max_size=4)
        ):
            if code == ATSV_CODE:
                stuck = draw(st.integers(0, 1))
            records.append((code, channel, bank, index, stuck))
    return standby, draw(st.permutations(records))


class TestTsvOverflow:
    """The stand-by pool boundary of ``BatchTrialKernel._tsv_overflows``.
    The engine asks only when a trial has more than ``standby`` TSV
    faults, since no channel can hold more distinct faulty TSVs than
    that."""

    STANDBY = 4

    def overflows(self, records):
        return BatchTrialKernel._tsv_overflows(
            TSV_INJECTOR.faulty_tsvs(records), self.STANDBY
        )

    def dtsvs(self, channel, count):
        return [
            tsv_record(FaultKind.DATA_TSV, channel, index)
            for index in range(count)
        ]

    def test_standby_distinct_tsvs_fit(self):
        assert not self.overflows(self.dtsvs(3, self.STANDBY))

    def test_one_more_overflows(self):
        assert self.overflows(self.dtsvs(3, self.STANDBY + 1))

    def test_repeats_of_one_tsv_cost_nothing(self):
        records = self.dtsvs(3, self.STANDBY) + self.dtsvs(3, 1) * 3
        assert not self.overflows(records)

    def test_data_and_address_tsvs_with_one_index_are_distinct(self):
        records = self.dtsvs(3, self.STANDBY)
        records.append(tsv_record(FaultKind.ADDR_TSV, 3, 0))
        assert self.overflows(records)

    def test_other_channels_do_not_count(self):
        records = self.dtsvs(3, self.STANDBY) + self.dtsvs(5, self.STANDBY)
        records.append(tsv_record(FaultKind.ADDR_TSV, 6, 0))
        assert not self.overflows(records)

    @settings(max_examples=150, deadline=None)
    @given(case=clustered_tsv_trials())
    def test_gate_agrees_with_the_engine(self, case):
        """The overflow gate is true exactly when the engine's
        ``apply_tsv_swap`` leaves a TSV fault of the trial visible, and
        only a trial with more than ``standby`` TSV faults can overflow,
        so the engine's count pre-check hides no overflow."""
        standby, records = case
        faults = TSV_INJECTOR.place_at(
            records, [float(index) for index in range(len(records))]
        )
        visible, _ = apply_tsv_swap(faults, GEOM, standby)
        leaked = any(fault.kind.is_tsv for fault in visible)
        assert BatchTrialKernel._tsv_overflows(
            TSV_INJECTOR.faulty_tsvs(records), standby
        ) == leaked, (standby, records)
        assert len(records) > standby or not leaked


class TestWorkerByteIdentity:
    def make_runner(self, batch, workers, **kwargs):
        """``batch=False`` runs the from-scratch oracle, which
        ``make_batch_runner`` always leaves on the scalar loop."""
        model = make_3dp(GEOM)
        return ParallelLifetimeRunner(
            ReliabilityWork(
                GEOM,
                RATES,
                model if batch else FromScratch(model),
                EngineConfig(tsv_swap_standby=4, use_dds=True),
            ),
            root_seed=42,
            workers=workers,
            shard_size=200,
            **kwargs,
        )

    def test_workers_1_vs_4_with_batch(self):
        a = self.make_runner(batch=True, workers=1).run(trials=800)
        b = self.make_runner(batch=True, workers=4).run(trials=800)
        assert doc(a) == doc(b)

    def test_batch_runner_equals_scalar_runner(self):
        scalar = self.make_runner(batch=False, workers=2).run(trials=800)
        batch = self.make_runner(batch=True, workers=2).run(trials=800)
        assert doc(scalar) == doc(batch)

    def test_resume_with_batch(self, tmp_path):
        cp = tmp_path / "cp.json"
        reference = self.make_runner(batch=True, workers=1).run(trials=800)
        self.make_runner(
            batch=True, workers=1, checkpoint_path=cp
        ).run(trials=800)
        runner = self.make_runner(
            batch=True, workers=1, checkpoint_path=cp, resume=True
        )
        resumed = runner.run(trials=800)
        assert doc(resumed) == doc(reference)
        assert runner.last_report.resumed_shards == 4


# ---------------------------------------------------------------------- #
# Kernel-boundary soundness (hypothesis)
# ---------------------------------------------------------------------- #
#: Small coordinate pools force aliasing — the same trick as the
#: incremental-correction differential.  The last die is the metadata
#: die, whose faults only the metadata-die rules judge.
META_DIE = GEOM.total_dies - 1
DIES = st.sampled_from(
    sorted({*range(min(4, GEOM.total_dies)), META_DIE})
)
BANKS = st.integers(0, min(2, GEOM.banks_per_die - 1))
#: Metadata-die banks: CRC banks, and the DDS spare area (banks 5 and 6
#: coarse, bank 7 fine at two spare banks; 6 and 7 at one, 7 at none),
#: whose faults kill BRT slots or row sparing and re-expose faults.
META_BANKS = st.sampled_from([0, 1, 2, 5, 6, 7])
ROWS = st.integers(0, 7)
COLS = st.integers(0, min(127, GEOM.row_bits - 1))
PERM = st.sampled_from([Permanence.TRANSIENT, Permanence.PERMANENT])


@st.composite
def crowded_specs(draw):
    kind = draw(
        st.sampled_from(
            ["bit", "word", "row", "column", "subarray", "bank", "dtsv", "atsv"]
        )
    )
    perm = draw(PERM)
    die = draw(DIES)
    bank = draw(META_BANKS if die == META_DIE else BANKS)
    if kind == "bit":
        return (FaultKind.BIT, perm, die, bank, draw(ROWS), draw(COLS))
    if kind == "word":
        word = draw(st.integers(0, min(3, GEOM.row_bits // 32 - 1)))
        return (FaultKind.WORD, perm, die, bank, draw(ROWS), word)
    if kind == "row":
        return (FaultKind.ROW, perm, die, bank, draw(ROWS), 0)
    if kind == "column":
        return (FaultKind.COLUMN, perm, die, bank, draw(COLS), 0)
    if kind == "subarray":
        sub = draw(st.integers(0, min(1, GEOM.subarrays_per_bank - 1)))
        return (FaultKind.SUBARRAY, perm, die, bank, sub, 0)
    if kind == "bank":
        return (FaultKind.BANK, perm, die, bank, 0, 0)
    channel = draw(st.integers(0, min(3, GEOM.channels - 1)))
    if kind == "dtsv":
        idx = draw(st.integers(0, min(7, GEOM.data_tsvs_per_channel - 1)))
        return (
            FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, idx, 0
        )
    idx = draw(st.integers(0, min(3, GEOM.addr_tsvs_per_channel - 1)))
    return (
        FaultKind.ADDR_TSV, Permanence.PERMANENT, channel, -1, idx,
        draw(st.integers(0, 1)),
    )


TRIAL_STRATEGY = st.lists(crowded_specs(), min_size=0, max_size=6)
#: Arrivals anywhere in the lifetime, or within the first ten scrub
#: epochs, where faults share epochs, fall within the co-live slack of
#: each other or just outside it, and meet DDS scrubs in between.
TIME_STRATEGY = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=LIFETIME_HOURS - 1.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=10 * SCRUB_INTERVAL_HOURS,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=6, max_size=6,
)

#: Columns on both sides of three column-block edges.
EDGE_COLS = st.sampled_from([
    edge * COL_BLOCK_BITS + offset
    for edge in (1, 2, 3)
    for offset in (-2, -1, 0, 1)
])
#: The 32-bit words around the same edges (word ``w`` holds columns
#: ``32w`` to ``32w + 31``).
EDGE_WORDS = st.integers(1, 6)
#: Wider pools than the crowded ones, so that dense trials still peel,
#: often over two or three rounds.
DENSE_DIES = st.sampled_from([*range(GEOM.data_dies), GEOM.total_dies - 1])
DENSE_BANKS = st.integers(0, GEOM.banks_per_die - 1)
DENSE_ROWS = st.integers(0, 255)


@st.composite
def dense_cross_block_specs(draw):
    """Narrow faults that meet or just miss their block-mates, and the
    row and subarray faults that meet every one of them."""
    kind = draw(
        st.sampled_from(
            ["bit"] * 4 + ["word"] * 2 + ["column"] * 2 + ["row", "subarray"]
        )
    )
    perm = draw(PERM)
    die = draw(DENSE_DIES)
    bank = draw(DENSE_BANKS)
    if kind == "bit":
        return (
            FaultKind.BIT, perm, die, bank, draw(DENSE_ROWS), draw(EDGE_COLS)
        )
    if kind == "word":
        return (
            FaultKind.WORD, perm, die, bank, draw(DENSE_ROWS),
            draw(EDGE_WORDS),
        )
    if kind == "column":
        return (FaultKind.COLUMN, perm, die, bank, draw(EDGE_COLS), 0)
    if kind == "row":
        return (FaultKind.ROW, perm, die, bank, draw(DENSE_ROWS), 0)
    sub = draw(st.integers(0, min(1, GEOM.subarrays_per_bank - 1)))
    return (FaultKind.SUBARRAY, perm, die, bank, sub, 0)


DENSE_TRIAL_STRATEGY = st.lists(
    dense_cross_block_specs(), min_size=8, max_size=40
)
DENSE_TIME_STRATEGY = st.lists(
    st.floats(min_value=0.0, max_value=LIFETIME_HOURS - 1.0,
              allow_nan=False, allow_infinity=False),
    min_size=40, max_size=40,
)

#: Schemes whose models expose an array-shaped kernel.
KERNEL_SCHEMES = sorted(
    name for name in SCHEMES if SCHEMES[name](GEOM).batch_kernel() is not None
)
#: The ``ParityND`` schemes, whose kernel peels in arrays.
PEEL_SCHEMES = sorted(
    name
    for name in KERNEL_SCHEMES
    if isinstance(SCHEMES[name](GEOM), ParityND)
)


def build_trial_batch(trials, config):
    """Mirror ``BatchTrialKernel._screen``'s column assembly for trials of
    ``(specs, times)`` under ``config`` with no TSV-Swap absorption; each
    spec is a fault description ``(kind, permanence, die, bank, a, b)``.
    The co-live column comes from the engine's DDS rule."""
    columns = {
        "is_tsv": [], "is_bank_kind": [], "die": [],
        "bank": [], "row_base": [], "row_mask": [], "col_base": [],
        "col_mask": [], "epoch": [],
    }
    permanent, trial = [], []
    interval = config.scrub_interval_hours
    for index, (specs, times) in enumerate(trials):
        for spec, t in zip(specs, times):
            kind, permanence, die, bank, _, _ = spec
            rb, rm, cb, cm = reference_masks(spec, GEOM)
            permanent.append(permanence is Permanence.PERMANENT)
            trial.append(index)
            columns["is_tsv"].append(kind.is_tsv)
            columns["is_bank_kind"].append(kind is FaultKind.BANK)
            columns["die"].append(die)
            columns["bank"].append(bank)
            columns["row_base"].append(rb)
            columns["row_mask"].append(rm)
            columns["col_base"].append(cb)
            columns["col_mask"].append(cm)
            columns["epoch"].append(int(t // interval))
    outlives = outlives_scrub(
        GEOM, config.use_dds, config.spare_banks,
        np.array(trial, dtype=np.int64),
        np.array(permanent, dtype=bool),
        np.array(columns["is_tsv"], dtype=bool),
        np.array(columns["die"], dtype=np.int64),
        np.array(columns["bank"], dtype=np.int64),
    )
    return TrialBatch(
        GEOM, [len(specs) for specs, _ in trials], outlives, **columns
    )


def build_single_trial_batch(specs, times, config):
    return build_trial_batch([(specs, times)], config)


#: Without DDS, and with DDS at every BRT size from none to the paper's
#: two spare banks, with and without row sparing.
SOUND_CONFIGS = [EngineConfig()] + [
    EngineConfig(use_dds=True, spare_banks=banks, spare_rows_per_bank=rows)
    for banks in (0, 1, 2)
    for rows in (0, 4)
]


def assert_sound(scheme, specs, raw_times):
    """A kernel that proves the trial must see the scalar engine agree,
    without DDS and under every DDS provisioning of ``SOUND_CONFIGS``."""
    times = sorted(raw_times[: len(specs)])
    for config in SOUND_CONFIGS:
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
        )
        batch = build_single_trial_batch(specs, times, config)
        kernel = sim.model.batch_kernel()
        verdict = kernel.survives(batch)
        assert verdict.shape == (1,)
        if bool(verdict[0]):
            faults = [
                build_fault(GEOM, spec, t) for spec, t in zip(specs, times)
            ]
            assert sim._simulate(faults, None, None, None) is None, (
                scheme, config, specs, times
            )


class TestKernelSoundness:
    """A ``survives`` verdict must never contradict the scalar engine."""

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    @settings(max_examples=40, deadline=None)
    @given(specs=TRIAL_STRATEGY, raw_times=TIME_STRATEGY)
    def test_survives_implies_scalar_survival(self, scheme, specs, raw_times):
        assert_sound(scheme, specs, raw_times)

    @pytest.mark.parametrize("scheme", PEEL_SCHEMES)
    @settings(max_examples=40, deadline=None)
    @given(specs=DENSE_TRIAL_STRATEGY, raw_times=DENSE_TIME_STRATEGY)
    def test_dense_cross_block_survival_is_sound(
        self, scheme, specs, raw_times
    ):
        """Up to 40 faults around column-block edges: many peel rounds,
        and pairs the block index must keep or may drop."""
        assert_sound(scheme, specs, raw_times)

    @pytest.mark.parametrize(
        "scheme,proven",
        [("1dp", False), ("2dp", True), ("3dp", True), ("citadel", True)],
    )
    def test_two_round_peel(self, scheme, proven):
        """The paper's decode order (§VI): a column fault at (d0, b0,
        col c) and a bit fault at (d1, b1, row r, col c) alias in
        dimension 1.  The bit peels through dimension 2 in round one,
        then the column through dimension 1 in round two; 1DP has no
        second dimension and loses both."""
        col, row = 77, 1234
        specs = [
            (FaultKind.COLUMN, Permanence.PERMANENT, 0, 0, col, 0),
            (FaultKind.BIT, Permanence.PERMANENT, 1, 1, row, col),
        ]
        times = [1000.0, 50000.0]
        config = EngineConfig()
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
        )
        faults = [build_fault(GEOM, spec, t) for spec, t in zip(specs, times)]
        assert (sim._simulate(faults, None, None, None) is None) is proven
        batch = build_single_trial_batch(specs, times, config)
        assert bool(sim.model.batch_kernel().survives(batch)[0]) is proven
        if proven:
            survivors, events = sim.model._peel(faults)
            assert survivors == []
            assert events["parity/corrected/dim1"] == 1
            assert events["parity/corrected/dim2"] == 1

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_empty_trial_survives(self, scheme):
        batch = build_single_trial_batch([], [], EngineConfig())
        kernel = SCHEMES[scheme](GEOM).batch_kernel()
        assert bool(kernel.survives(batch)[0])


PERMANENT = Permanence.PERMANENT


class TestDDSRuleClauses:
    """One failing trial per clause of ``repro.core.dds.outlives_scrub``.
    In each, the fault the failure needs arrived more than
    ``COLIVE_EPOCH_SLACK`` scrub epochs before the fault that meets it,
    and every other clause holds, so a rule without that clause would
    retire the first fault and the kernel would prove the trial."""

    CASES = {
        # Without DDS a permanent fault stays live: a column fault, then
        # a subarray fault that aliases it in dimension 1 (the only one
        # either can peel through).
        "dds_off": ("3dp", EngineConfig(), [
            ((FaultKind.COLUMN, PERMANENT, 0, 0, 77, 0), 1.0),
            ((FaultKind.SUBARRAY, PERMANENT, 1, 0, 0, 0), 100.0),
        ]),
        # The column is bank-spared onto coarse spare bank 5 at the scrub
        # of epoch 1; a fault in bank 5 of the metadata die kills that
        # BRT slot at the next scrub and re-exposes the column, which the
        # subarray fault then meets.
        "metadata_die": ("3dp", EngineConfig(use_dds=True), [
            ((FaultKind.COLUMN, PERMANENT, 0, 0, 77, 0), 1.0),
            ((FaultKind.BIT, PERMANENT, META_DIE, 5, 0, 0), 20.0),
            ((FaultKind.SUBARRAY, PERMANENT, 1, 0, 0, 0), 100.0),
        ]),
        # Two spare banks take the first two columns; the third stays
        # live (NOT_SPARED) and meets the subarray fault.  That fault is
        # transient and takes no position, so the trial holds exactly one
        # position more than the BRT has slots.
        "spare_banks": ("3dp", EngineConfig(use_dds=True, spare_banks=2), [
            ((FaultKind.COLUMN, PERMANENT, 0, 0, 10, 0), 1.0),
            ((FaultKind.COLUMN, PERMANENT, 0, 1, 20, 0), 30.0),
            ((FaultKind.COLUMN, PERMANENT, 1, 2, 30, 0), 60.0),
            ((FaultKind.SUBARRAY, Permanence.TRANSIENT, 2, 2, 0, 0), 100.0),
        ]),
        # Without TSV-Swap a TSV fault is multi-bank and never spared; a
        # row fault on another die meets it in the across-channels code.
        "tsv": ("symbol-across-channels", EngineConfig(use_dds=True), [
            ((FaultKind.DATA_TSV, PERMANENT, 0, -1, 3, 0), 1.0),
            ((FaultKind.ROW, PERMANENT, 1, 0, 5, 0), 100.0),
        ]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clause_keeps_the_fault_co_live(self, case):
        scheme, config, trial = self.CASES[case]
        specs = [spec for spec, _ in trial]
        times = [t for _, t in trial]
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
        )
        faults = [build_fault(GEOM, spec, t) for spec, t in trial]
        assert sim._simulate(faults, None, None, None) is not None
        kernel = sim.model.batch_kernel()
        batch = build_single_trial_batch(specs, times, config)
        permanent = [spec[1] is PERMANENT for spec in specs]
        assert batch.outlives_scrub.tolist() == permanent
        assert not kernel.survives(batch)[0]
        # What a rule without the clause would hand the kernel.
        batch.outlives_scrub[:] = False
        assert kernel.survives(batch)[0]


# ---------------------------------------------------------------------- #
# The pair index
# ---------------------------------------------------------------------- #
#: Pair-index widths: one column, half a word, the 3DP kernel's block,
#: a wider block, and the whole row (the pairwise kernels' one block).
PAIR_WIDTHS = [1, 16, COL_BLOCK_BITS, 1024, GEOM.row_bits]
#: Block edges near the start, middle and end of a row.
PAIR_EDGES = st.sampled_from(
    [edge * COL_BLOCK_BITS for edge in (1, 2, 16, 17)]
    + [GEOM.row_bits - COL_BLOCK_BITS]
)


@st.composite
def edge_narrow_specs(draw):
    """A bit, word or column fault just before or just after a block edge."""
    kind = draw(st.sampled_from(["bit", "word", "column"]))
    perm = draw(PERM)
    die = draw(DIES)
    bank = draw(BANKS)
    edge = draw(PAIR_EDGES)
    if kind == "word":
        word = edge // 32 + draw(st.integers(-1, 0))
        return (FaultKind.WORD, perm, die, bank, draw(ROWS), word)
    col = edge + draw(st.integers(-2, 1))
    if kind == "bit":
        return (FaultKind.BIT, perm, die, bank, draw(ROWS), col)
    return (FaultKind.COLUMN, perm, die, bank, col, 0)


#: Crowded specs bring the wide row, subarray, bank and TSV rows.
PAIR_TRIAL = st.lists(
    st.one_of(crowded_specs(), edge_narrow_specs()), min_size=0, max_size=10
)


@st.composite
def pair_batches(draw):
    """Over 256 trials, mostly empty, with runs of filled neighbours
    anywhere in the batch: a ``(trial, block)`` grouping that mixes up
    trials pairs faults across them."""
    n_trials = draw(st.integers(257, 600))
    trials = [([], []) for _ in range(n_trials)]
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, n_trials - 1))
        stop = min(start + draw(st.integers(1, 4)), n_trials)
        for index in range(start, stop):
            specs = draw(PAIR_TRIAL)
            times = sorted(
                draw(
                    st.lists(
                        st.floats(0.0, LIFETIME_HOURS - 1.0),
                        min_size=len(specs), max_size=len(specs),
                    )
                )
            )
            trials[index] = (specs, times)
    return trials


class TestPairIndex:
    """``TrialBatch.pairs`` against a brute-force reference."""

    @settings(max_examples=60, deadline=None)
    @given(trials=pair_batches())
    def test_pairs_match_the_block_rule(self, trials):
        batch = build_trial_batch(trials, EngineConfig())
        masks = [
            reference_masks(spec, GEOM) for specs, _ in trials for spec in specs
        ]
        for width in PAIR_WIDTHS:
            shift = width.bit_length() - 1
            first, second, colive = batch.pairs(width)
            got = list(zip(first.tolist(), second.tolist()))
            assert len(got) == len(set(got)), width
            expected = set()
            offset = 0
            for specs, _ in trials:
                for i in range(offset, offset + len(specs)):
                    for j in range(i + 1, offset + len(specs)):
                        _, _, base_i, mask_i = masks[i]
                        _, _, base_j, mask_j = masks[j]
                        if (
                            mask_i >> shift
                            or mask_j >> shift
                            or base_i >> shift == base_j >> shift
                        ):
                            expected.add((i, j))
                        else:
                            # A pair left out has disjoint column sets.
                            assert (base_i ^ base_j) & ~(mask_i | mask_j)
                offset += len(specs)
            assert set(got) == expected, width
            if width >= GEOM.row_bits:
                assert len(got) == sum(
                    len(specs) * (len(specs) - 1) // 2 for specs, _ in trials
                )
            outlives = batch.outlives_scrub.tolist()
            epoch = batch.epoch.tolist()
            for (i, j), co in zip(got, colive.tolist()):
                assert co == (
                    outlives[i]
                    or epoch[j] <= epoch[i] + COLIVE_EPOCH_SLACK
                )
            per_trial = np.bincount(
                batch.trial[first], minlength=batch.n_trials
            ).tolist()
            offset = 0
            for index, (specs, _) in enumerate(trials):
                trial_masks = masks[offset:offset + len(specs)]
                assert candidate_pair_count(
                    [cb for _, _, cb, _ in trial_masks],
                    [cm for _, _, _, cm in trial_masks],
                    width,
                ) == per_trial[index], (width, index)
                offset += len(specs)


class TestSameBankCheckRow:
    """``ROWS`` reaches a data line's Same Bank check row only for bank 0
    (the bank fills the check row's top bits), so pin a bank above 0 by
    hand: a metadata fault on the check row is fatal, one row off is
    not, and the kernel must agree with the scalar engine both ways."""

    @pytest.mark.parametrize("offset,fatal", [(0, True), (1, False)])
    def test_metadata_fault_on_check_row(self, offset, fatal):
        die, bank, row = 1, 5, 42
        # The checks of 8 data rows share one metadata row, and the check
        # row's top 3 bits are the data bank.
        check_row = (bank << (GEOM.row_address_bits - 3)) | (row >> 3)
        specs = [
            (FaultKind.BIT, Permanence.PERMANENT, die, bank, row, 7),
            (
                FaultKind.BIT, Permanence.PERMANENT, GEOM.total_dies - 1,
                die, check_row + offset, 300,
            ),
        ]
        times = [100.0, 200.0]
        config = EngineConfig()
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES["symbol-same-bank"](GEOM), config, seed=0
        )
        faults = [build_fault(GEOM, spec, t) for spec, t in zip(specs, times)]
        assert (sim._simulate(faults, None, None, None) is not None) is fatal
        batch = build_single_trial_batch(specs, times, config)
        assert bool(sim.model.batch_kernel().survives(batch)[0]) is not fatal


# ---------------------------------------------------------------------- #
# Dispatch contract
# ---------------------------------------------------------------------- #
class TestDispatch:
    def make_sim(self, model=None, **config_kwargs):
        config = EngineConfig(
            tsv_swap_standby=4, use_dds=True, **config_kwargs
        )
        return LifetimeSimulator(
            GEOM, RATES, model or make_3dp(GEOM), config, seed=302
        )

    def test_runner_used_and_counts_trials(self):
        sim = self.make_sim()
        runner = make_batch_runner(sim)
        assert isinstance(runner, BatchTrialKernel)
        result = runner.run(400, 2, None)
        assert result.trials == 400
        assert runner.fast_trials > 0
        assert runner.fast_trials + runner.fallback_trials == 400

    def test_from_scratch_oracle_runs_scalar(self):
        sim = self.make_sim(FromScratch(make_3dp(GEOM)))
        assert make_batch_runner(sim) is None
        assert doc(sim.run(200)) == doc(self.make_sim().run(200))

    def test_observability_forces_scalar_fallback(self):
        sim = self.make_sim(collect_metrics=True)
        assert make_batch_runner(sim) is None
        # ... and the telemetry run, metrics dropped, matches the default.
        observed = sim.run(200).to_dict()
        assert observed.pop("metrics") is not None
        assert json.dumps(observed) == doc(self.make_sim().run(200))

    @pytest.mark.parametrize(
        "scheme",
        ["symbol-same-bank", "symbol-across-banks", "symbol-across-channels"],
    )
    def test_symbol_codes_run_on_the_batch_kernel(self, scheme):
        sim = self.make_sim(SCHEMES[scheme](GEOM))
        assert isinstance(make_batch_runner(sim), BatchTrialKernel)

    def test_fig18_symbol_campaign_settles_on_the_fast_path(self):
        """The Fig. 18 symbol-code point (TSV-Swap 4, TSV FIT 1430):
        nearly every trial is proven by the kernel, not re-simulated."""

        def make_sim():
            return LifetimeSimulator(
                GEOM, RATES, SCHEMES["symbol-across-channels"](GEOM),
                EngineConfig(tsv_swap_standby=4), seed=18,
            )

        sim = make_sim()
        runner = make_batch_runner(sim)
        result = runner.run(4000, sim.default_min_faults(), None)
        assert runner.fast_trials + runner.fallback_trials == 4000
        assert runner.fast_trials >= 0.95 * 4000
        reference = make_sim()
        assert doc(result) == doc(
            reference._run_scalar(4000, reference.default_min_faults(), None)
        )

    def test_citadel_sparing_keeps_fallbacks_rare(self):
        """Citadel at TSV FIT 1430: DDS spares nearly every permanent
        fault before the next arrival, and the kernel proves those
        trials instead of re-running them.  Here 5 of 4000 trials fall
        back; 35 did when every permanent fault stayed co-live with
        every later arrival."""
        sim = self.make_sim()
        runner = make_batch_runner(sim)
        runner.run(4000, sim.default_min_faults(), None)
        assert runner.fallback_trials <= 15

    def test_kernelless_model_falls_back(self):
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES["bch"](GEOM), EngineConfig(), seed=1
        )
        assert sim.model.batch_kernel() is None
        assert make_batch_runner(sim) is None

    def test_batch_requires_naive_sampling(self):
        assert make_batch_runner(self.make_sim(sampling="stratified")) is None
