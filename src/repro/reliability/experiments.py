"""Canonical figure-experiment definitions shared across drivers.

The per-figure pytest benches (``benchmarks/bench_fig*.py``), the
publication-scale study (``scripts/full_reliability_study.py``) and the
golden-value regression tests (``tests/test_golden_bench.py``) must all
run *the same* experiment — same schemes, same mitigations, same root
seeds — or the numbers they produce stop being comparable.  This module
is that single source of truth: each ``figNN_experiment`` function maps
a trial budget to the scheme set of one paper figure and runs it through
:class:`~repro.reliability.parallel.ParallelLifetimeRunner`.

All campaigns here are sharded (``workers=1`` runs the same shards
in-process), so a figure regenerated on a 32-core box is byte-identical
to the laptop run that produced the golden fixture.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.parity3dp import make_1dp, make_2dp, make_3dp
from repro.ecc import SymbolCode
from repro.ecc.base import CorrectionModel
from repro.faults.rates import TSV_FIT_HIGH, FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import (
    DEFAULT_SHARD_SIZE,
    ParallelLifetimeRunner,
    ReliabilityWork,
)
from repro.reliability.results import ReliabilityResult
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy

#: Root seeds, one per (figure, scheme) — these are part of the
#: experiment definition: golden fixtures pin their exact outputs.
FIG14_SEEDS = {"symbol": 201, "1dp": 202, "2dp": 203, "3dp": 204}
FIG18_SEEDS = {"symbol": 301, "citadel": 302, "3dp_only": 303}


def run_campaign(
    geometry: StackGeometry,
    rates: FailureRates,
    model: CorrectionModel,
    trials: int,
    root_seed: int,
    *,
    label: Optional[str] = None,
    min_faults: Optional[int] = None,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    time_budget_s: Optional[float] = None,
    **engine_cfg: Any,
) -> ReliabilityResult:
    """One sharded Monte-Carlo reliability measurement.

    The ``**engine_cfg`` kwargs feed :class:`EngineConfig`
    (``tsv_swap_standby``, ``use_dds``, ``scrub_interval_hours``, ...),
    mirroring the old serial ``run_reliability`` helper signature.
    """
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry, rates, model, EngineConfig(**engine_cfg),
            min_faults=min_faults, label=label or "",
        ),
        root_seed=root_seed,
        workers=workers,
        shard_size=shard_size,
        checkpoint_path=checkpoint_path,
        resume=resume,
        time_budget_s=time_budget_s,
    )
    return runner.run(trials=trials)


def fig14_experiment(
    geometry: StackGeometry,
    trials: int,
    *,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    **engine_cfg: Any,
) -> Dict[str, ReliabilityResult]:
    """Figure 14: 1DP/2DP/3DP vs the striped 8-bit symbol code
    (TSV-Swap everywhere, TSV FIT at the high end).

    Extra kwargs (e.g. ``collect_metrics=True``) feed
    :class:`EngineConfig`; the sample data is unaffected."""
    rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)
    models: Dict[str, CorrectionModel] = {
        "symbol": SymbolCode(geometry, StripingPolicy.ACROSS_CHANNELS),
        "1dp": make_1dp(geometry),
        "2dp": make_2dp(geometry),
        "3dp": make_3dp(geometry),
    }
    return {
        key: run_campaign(
            geometry, rates, model, trials, FIG14_SEEDS[key],
            workers=workers, shard_size=shard_size, tsv_swap_standby=4,
            **engine_cfg,
        )
        for key, model in models.items()
    }


def fig18_experiment(
    geometry: StackGeometry,
    symbol_trials: int,
    citadel_trials: int,
    *,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    **engine_cfg: Any,
) -> Dict[str, ReliabilityResult]:
    """Figure 18: Citadel (3DP + DDS + TSV-Swap) vs the striped symbol
    code, plus the 3DP-without-DDS ablation point.

    Extra kwargs (e.g. ``collect_metrics=True``) feed
    :class:`EngineConfig`; the sample data is unaffected."""
    rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)
    return {
        "symbol": run_campaign(
            geometry, rates,
            SymbolCode(geometry, StripingPolicy.ACROSS_CHANNELS),
            symbol_trials, FIG18_SEEDS["symbol"],
            workers=workers, shard_size=shard_size, tsv_swap_standby=4,
            **engine_cfg,
        ),
        "citadel": run_campaign(
            geometry, rates, make_3dp(geometry),
            citadel_trials, FIG18_SEEDS["citadel"],
            workers=workers, shard_size=shard_size,
            tsv_swap_standby=4, use_dds=True, **engine_cfg,
        ),
        "3dp_only": run_campaign(
            geometry, rates, make_3dp(geometry),
            symbol_trials, FIG18_SEEDS["3dp_only"],
            workers=workers, shard_size=shard_size, tsv_swap_standby=4,
            **engine_cfg,
        ),
    }
