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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reliability.batch as batch_mod
from repro.core.parity3dp import COL_BLOCK_BITS, ParityND, make_3dp
from repro.ecc.base import FromScratch
from repro.ecc.batch_kernels import (
    COLIVE_EPOCH_SLACK,
    TrialBatch,
    candidate_pair_count,
)
from repro.faults.injector import FaultSpec
from repro.faults.rates import TABLE_I_8GB_FIT, FailureRates
from repro.faults.types import FaultKind, Permanence
from repro.reliability import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.batch import BatchTrialKernel, make_batch_runner
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.schemes import SCHEMES
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry
from test_injector import reference_masks, reference_row

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
    trials simulated before it closed, and the live-fault count of each
    trial it sent to the kernel."""
    chunks = []
    indexed = []
    evaluate = BatchTrialKernel._evaluate
    pairs = TrialBatch.pairs

    def pairs_spy(self, col_block_bits):
        result = pairs(self, col_block_bits)
        indexed.append(result[0].size)
        return result

    def evaluate_spy(self, sampled, decided, counts, rows, failure_times):
        indexed.clear()
        screened = [c for i, c in enumerate(counts) if i not in decided]
        outcome = evaluate(self, sampled, decided, counts, rows, failure_times)
        chunks.append((sum(indexed), len(decided), screened))
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


def tsv_record(kind, channel, index):
    """A sampled record of the TSV fault ``(kind, channel, index)``."""
    spec = FaultSpec(kind, Permanence.PERMANENT, channel, -1, index, 0)
    fields = (spec.kind, spec.permanence, spec.die, spec.bank, spec.a, spec.b)
    return reference_row(spec, GEOM), fields


class TestTsvOverflow:
    """The stand-by pool boundary of ``BatchTrialKernel._tsv_overflows``.
    The engine asks only when a trial has more than ``standby`` TSV
    faults, since no channel can hold more distinct faulty TSVs than
    that."""

    STANDBY = 4

    def overflows(self, records):
        return BatchTrialKernel._tsv_overflows(records, self.STANDBY)

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
DIES = st.sampled_from(
    sorted({*range(min(4, GEOM.total_dies)), GEOM.total_dies - 1})
)
BANKS = st.integers(0, min(2, GEOM.banks_per_die - 1))
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
    bank = draw(BANKS)
    if kind == "bit":
        return FaultSpec(FaultKind.BIT, perm, die, bank, draw(ROWS), draw(COLS))
    if kind == "word":
        word = draw(st.integers(0, min(3, GEOM.row_bits // 32 - 1)))
        return FaultSpec(FaultKind.WORD, perm, die, bank, draw(ROWS), word)
    if kind == "row":
        return FaultSpec(FaultKind.ROW, perm, die, bank, draw(ROWS), 0)
    if kind == "column":
        return FaultSpec(FaultKind.COLUMN, perm, die, bank, draw(COLS), 0)
    if kind == "subarray":
        sub = draw(st.integers(0, min(1, GEOM.subarrays_per_bank - 1)))
        return FaultSpec(FaultKind.SUBARRAY, perm, die, bank, sub, 0)
    if kind == "bank":
        return FaultSpec(FaultKind.BANK, perm, die, bank, 0, 0)
    channel = draw(st.integers(0, min(3, GEOM.channels - 1)))
    if kind == "dtsv":
        idx = draw(st.integers(0, min(7, GEOM.data_tsvs_per_channel - 1)))
        return FaultSpec(
            FaultKind.DATA_TSV, Permanence.PERMANENT, channel, -1, idx, 0
        )
    idx = draw(st.integers(0, min(3, GEOM.addr_tsvs_per_channel - 1)))
    return FaultSpec(
        FaultKind.ADDR_TSV, Permanence.PERMANENT, channel, -1, idx,
        draw(st.integers(0, 1)),
    )


TRIAL_STRATEGY = st.lists(crowded_specs(), min_size=0, max_size=6)
TIME_STRATEGY = st.lists(
    st.floats(min_value=0.0, max_value=LIFETIME_HOURS - 1.0,
              allow_nan=False, allow_infinity=False),
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
        return FaultSpec(
            FaultKind.BIT, perm, die, bank, draw(DENSE_ROWS), draw(EDGE_COLS)
        )
    if kind == "word":
        return FaultSpec(
            FaultKind.WORD, perm, die, bank, draw(DENSE_ROWS),
            draw(EDGE_WORDS),
        )
    if kind == "column":
        return FaultSpec(
            FaultKind.COLUMN, perm, die, bank, draw(EDGE_COLS), 0
        )
    if kind == "row":
        return FaultSpec(FaultKind.ROW, perm, die, bank, draw(DENSE_ROWS), 0)
    sub = draw(st.integers(0, min(1, GEOM.subarrays_per_bank - 1)))
    return FaultSpec(FaultKind.SUBARRAY, perm, die, bank, sub, 0)


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


def build_trial_batch(trials, interval):
    """Mirror ``BatchTrialKernel.run``'s column assembly for trials of
    ``(specs, times)`` with no TSV-Swap absorption."""
    columns = {
        "permanent": [], "is_tsv": [], "is_bank_kind": [], "die": [],
        "bank": [], "row_base": [], "row_mask": [], "col_base": [],
        "col_mask": [], "epoch": [],
    }
    for specs, times in trials:
        for spec, t in zip(specs, times):
            rb, rm, cb, cm = reference_masks(spec, GEOM)
            columns["permanent"].append(
                spec.permanence is Permanence.PERMANENT
            )
            columns["is_tsv"].append(spec.kind.is_tsv)
            columns["is_bank_kind"].append(spec.kind is FaultKind.BANK)
            columns["die"].append(spec.die)
            columns["bank"].append(spec.bank)
            columns["row_base"].append(rb)
            columns["row_mask"].append(rm)
            columns["col_base"].append(cb)
            columns["col_mask"].append(cm)
            columns["epoch"].append(int(t // interval))
    return TrialBatch(
        GEOM, [len(specs) for specs, _ in trials], **columns
    )


def build_single_trial_batch(specs, times, interval):
    return build_trial_batch([(specs, times)], interval)


def assert_sound(scheme, specs, raw_times):
    """A kernel that proves the trial must see the scalar engine agree,
    with and without DDS."""
    for use_dds in (False, True):
        config = EngineConfig(use_dds=use_dds)
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
        )
        times = sorted(raw_times[: len(specs)])
        batch = build_single_trial_batch(
            specs, times, config.scrub_interval_hours
        )
        kernel = sim.model.batch_kernel()
        verdict = kernel.survives(batch)
        assert verdict.shape == (1,)
        if bool(verdict[0]):
            faults = [spec.build(GEOM, t) for spec, t in zip(specs, times)]
            assert sim._simulate(faults, None, None, None) is None, (
                scheme, use_dds, specs, times
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
            FaultSpec(FaultKind.COLUMN, Permanence.PERMANENT, 0, 0, col, 0),
            FaultSpec(FaultKind.BIT, Permanence.PERMANENT, 1, 1, row, col),
        ]
        times = [1000.0, 50000.0]
        config = EngineConfig()
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=0
        )
        faults = [spec.build(GEOM, t) for spec, t in zip(specs, times)]
        assert (sim._simulate(faults, None, None, None) is None) is proven
        batch = build_single_trial_batch(
            specs, times, config.scrub_interval_hours
        )
        assert bool(sim.model.batch_kernel().survives(batch)[0]) is proven
        if proven:
            survivors, events = sim.model._peel(faults)
            assert survivors == []
            assert events["parity/corrected/dim1"] == 1
            assert events["parity/corrected/dim2"] == 1

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_empty_trial_survives(self, scheme):
        config = EngineConfig()
        batch = build_single_trial_batch([], [], config.scrub_interval_hours)
        kernel = SCHEMES[scheme](GEOM).batch_kernel()
        assert bool(kernel.survives(batch)[0])


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
        return FaultSpec(FaultKind.WORD, perm, die, bank, draw(ROWS), word)
    col = edge + draw(st.integers(-2, 1))
    if kind == "bit":
        return FaultSpec(FaultKind.BIT, perm, die, bank, draw(ROWS), col)
    return FaultSpec(FaultKind.COLUMN, perm, die, bank, col, 0)


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
        interval = EngineConfig().scrub_interval_hours
        batch = build_trial_batch(trials, interval)
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
            permanent = batch.permanent.tolist()
            epoch = batch.epoch.tolist()
            for (i, j), co in zip(got, colive.tolist()):
                assert co == (
                    permanent[i]
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
            FaultSpec(FaultKind.BIT, Permanence.PERMANENT, die, bank, row, 7),
            FaultSpec(
                FaultKind.BIT, Permanence.PERMANENT, GEOM.total_dies - 1,
                die, check_row + offset, 300,
            ),
        ]
        times = [100.0, 200.0]
        config = EngineConfig()
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES["symbol-same-bank"](GEOM), config, seed=0
        )
        faults = [spec.build(GEOM, t) for spec, t in zip(specs, times)]
        assert (sim._simulate(faults, None, None, None) is not None) is fatal
        batch = build_single_trial_batch(
            specs, times, config.scrub_interval_hours
        )
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

    def test_kernelless_model_falls_back(self):
        sim = LifetimeSimulator(
            GEOM, RATES, SCHEMES["bch"](GEOM), EngineConfig(), seed=1
        )
        assert sim.model.batch_kernel() is None
        assert make_batch_runner(sim) is None

    def test_batch_requires_naive_sampling(self):
        assert make_batch_runner(self.make_sim(sampling="stratified")) is None
