"""Differential tests for the vectorized batch trial kernel.

``LifetimeSimulator.run`` sends every naive-sampling campaign it can
through the batch path, a *survival filter*: the array kernels may only
claim a trial survives when the exact scalar simulator would agree, and
every other trial is re-run through the scalar path.  These tests pin
both halves of that claim against the scalar reference loop
(``LifetimeSimulator._run_scalar``):

* byte-identity of ``ReliabilityResult`` documents between the scalar and
  batch engines for every registered scheme, with thermal FIT feedback,
  under a tiny chunk pair budget, across worker counts, and through
  checkpoint/resume;
* hypothesis soundness at the kernel boundary — crowded random fault
  sets where a ``survives`` verdict must match a from-scratch scalar
  simulation of the same trial;
* the dispatch contract — silent scalar fallback for observability runs,
  the from-scratch oracle, non-naive sampling, kernel-less models and a
  missing numpy — and the share of a Fig. 18 symbol-code campaign the
  kernel settles.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reliability.batch as batch_mod
from repro.core.parity3dp import make_3dp
from repro.ecc.base import FromScratch
from repro.faults.injector import FaultSpec
from repro.faults.rates import FailureRates
from repro.faults.types import FaultKind, Permanence
from repro.reliability import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.batch import BatchTrialKernel, make_batch_runner
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.schemes import SCHEMES
from repro.stack.geometry import LIFETIME_HOURS, StackGeometry

GEOM = StackGeometry()
#: TSV faults on so TSV-Swap absorption and the TSV kernel rows are hit.
RATES = FailureRates.paper_baseline(tsv_device_fit=1430.0)
#: A hot/cold bank-position profile for the thermal FIT feedback.
THERMAL = tuple(1.0 + 0.5 * (bank % 3) for bank in range(GEOM.banks_per_die))

np = pytest.importorskip("numpy")


def run_once(scheme, seed, batch, trials=300, **config_kwargs):
    """``batch``: the default ``run``; otherwise the scalar reference."""
    config = EngineConfig(**config_kwargs)
    sim = LifetimeSimulator(GEOM, RATES, SCHEMES[scheme](GEOM), config, seed=seed)
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
        scalar = run_once(
            scheme, 31, batch=False, tsv_swap_standby=4, use_dds=True
        )
        batch = run_once(
            scheme, 31, batch=True, tsv_swap_standby=4, use_dds=True
        )
        assert doc(scalar) == doc(batch), scheme

    def test_identical_with_thermal_bank_fit(self, scheme):
        """``ThermalFaultInjector`` overrides bank placement; the batch
        path samples specs through the same override."""
        kwargs = dict(
            tsv_swap_standby=4, use_dds=True, thermal_bank_fit=THERMAL
        )
        scalar = run_once(scheme, 17, batch=False, **kwargs)
        batch = run_once(scheme, 17, batch=True, **kwargs)
        assert doc(scalar) == doc(batch), scheme

    def test_identical_under_tiny_pair_budget(self, scheme, monkeypatch):
        """A one-pair budget holds at most one two-fault trial per chunk
        and routes every trial of three or more live faults to the scalar
        path; neither may change a byte."""
        monkeypatch.setattr(batch_mod, "CHUNK_PAIRS", 1)
        for seed in (7, 99):
            scalar = run_once(scheme, seed, batch=False)
            batch = run_once(scheme, seed, batch=True)
            assert doc(scalar) == doc(batch), (scheme, seed)


class TestPairBudget:
    def test_chunks_stay_within_budget(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "CHUNK_PAIRS", 1)
        chunks = []
        evaluate = BatchTrialKernel._evaluate

        def spy(self, sampled, decided, counts, rows, failure_times):
            pairs = sum(c * (c - 1) // 2 for c in counts)
            chunks.append((pairs, len(decided)))
            return evaluate(self, sampled, decided, counts, rows, failure_times)

        monkeypatch.setattr(BatchTrialKernel, "_evaluate", spy)

        def make_sim():
            return LifetimeSimulator(
                GEOM, RATES, make_3dp(GEOM),
                EngineConfig(tsv_swap_standby=4, use_dds=True), seed=302,
            )

        runner = make_batch_runner(make_sim())
        result = runner.run(2000, 2, None)
        assert doc(result) == doc(make_sim()._run_scalar(2000, 2, None))
        assert max(pairs for pairs, _ in chunks) <= 1
        assert len(chunks) > 1
        # Some trial was over budget and went straight to the scalar path.
        assert sum(decided for _, decided in chunks) > 0
        assert runner.fast_trials > 0
        assert runner.fast_trials + runner.fallback_trials == 2000


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

#: Schemes whose models expose an array-shaped kernel.
KERNEL_SCHEMES = sorted(
    name for name in SCHEMES if SCHEMES[name](GEOM).batch_kernel() is not None
)


def build_single_trial_batch(specs, times, interval):
    """Mirror ``BatchTrialKernel._run_chunk``'s column assembly for one
    trial with no TSV-Swap absorption."""
    from repro.ecc.batch_kernels import TrialBatch

    columns = {
        "permanent": [], "is_tsv": [], "is_bank_kind": [], "die": [],
        "bank": [], "row_base": [], "row_mask": [], "col_base": [],
        "col_mask": [], "epoch": [],
    }
    for spec, t in zip(specs, times):
        rb, rm, cb, cm = spec.footprint_masks(GEOM)
        columns["permanent"].append(spec.permanence is Permanence.PERMANENT)
        columns["is_tsv"].append(spec.kind.is_tsv)
        columns["is_bank_kind"].append(spec.kind is FaultKind.BANK)
        columns["die"].append(spec.die)
        columns["bank"].append(spec.bank)
        columns["row_base"].append(rb)
        columns["row_mask"].append(rm)
        columns["col_base"].append(cb)
        columns["col_mask"].append(cm)
        columns["epoch"].append(int(t // interval))
    return TrialBatch(GEOM, [len(specs)], **columns)


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
class TestKernelSoundness:
    """A ``survives`` verdict must never contradict the scalar engine."""

    @settings(max_examples=40, deadline=None)
    @given(specs=TRIAL_STRATEGY, raw_times=TIME_STRATEGY)
    def test_survives_implies_scalar_survival(self, scheme, specs, raw_times):
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
                faults = [
                    spec.build(GEOM, t) for spec, t in zip(specs, times)
                ]
                assert sim._simulate(faults, None, None, None) is None, (
                    scheme, use_dds, specs, times
                )

    def test_empty_trial_survives(self, scheme):
        config = EngineConfig()
        batch = build_single_trial_batch([], [], config.scrub_interval_hours)
        kernel = SCHEMES[scheme](GEOM).batch_kernel()
        assert bool(kernel.survives(batch)[0])


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

    def test_missing_numpy_runs_scalar(self, monkeypatch):
        batched = self.make_sim().run(200)
        monkeypatch.setattr(batch_mod, "np", None)
        sim = self.make_sim()
        assert make_batch_runner(sim) is None
        assert doc(sim.run(200)) == doc(batched)
