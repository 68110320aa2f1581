#!/usr/bin/env python
"""Regenerate the golden Monte-Carlo fixtures under tests/golden/.

Usage: PYTHONPATH=src python tools/regen_goldens.py

The fixtures pin the exact sharded-campaign outputs of the Figure 14 and
Figure 18 experiments at reduced trial counts, and the whole result
documents (strata, failure weights and engine metrics included) of the
stratified, importance and naive sampling plans on the scalar trial
loop (see ``tests/test_golden_bench.py``).  Regenerate them ONLY when a
change to the trial loop, fault sampling, or shard plan is *intended* to
shift paper numbers — and say so in the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.core.parity3dp import make_3dp
from repro.faults.rates import TSV_FIT_HIGH, FailureRates
from repro.reliability.experiments import (
    fig14_experiment,
    fig18_experiment,
    run_campaign,
)
from repro.reliability.results import ReliabilityResult
from repro.stack.geometry import StackGeometry

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: Small-but-not-trivial budgets: a couple of seconds total, while still
#: producing nonzero failure counts for every scheme.
FIG14_TRIALS = 2000
FIG18_SYMBOL_TRIALS = 2000
FIG18_CITADEL_TRIALS = 6000
SHARD_SIZE = 500

#: The sampling golden: one root seed and trial budget for every leg.
SAMPLING_TRIALS = 2000
SAMPLING_SEED = 7

#: Sampling-golden legs: key -> (sampling plan, DDS on).  Every leg is
#: 3DP + TSV-Swap (4 stand-bys) at the high TSV FIT; with DDS it is
#: Citadel.  Engine metrics are on, so the naive leg runs on the scalar
#: loop too.
SAMPLING_LEGS = {
    "3dp_stratified": ("stratified", False),
    "3dp_importance": ("importance", False),
    "citadel_importance": ("importance", True),
    "3dp_naive": ("naive", False),
}


def document(result: ReliabilityResult) -> Dict[str, Any]:
    """A result's document without its run manifest, which records how
    the campaign was described, not what it computed."""
    data = result.to_dict()
    data.pop("manifest", None)
    return data


def sampling_documents(
    geometry: StackGeometry, trials: int, shard_size: int, seed: int
) -> Dict[str, Dict[str, Any]]:
    """Each sampling leg's result document."""
    rates = FailureRates.paper_baseline(tsv_device_fit=TSV_FIT_HIGH)
    return {
        key: document(
            run_campaign(
                geometry, rates, make_3dp(geometry), trials, seed,
                shard_size=shard_size, tsv_swap_standby=4, use_dds=dds,
                sampling=sampling, collect_metrics=True,
            )
        )
        for key, (sampling, dds) in SAMPLING_LEGS.items()
    }


def main() -> int:
    geometry = StackGeometry()
    fixtures = {
        "fig14_small.json": {
            "trials": FIG14_TRIALS,
            "shard_size": SHARD_SIZE,
            "results": {
                key: document(result)
                for key, result in fig14_experiment(
                    geometry, FIG14_TRIALS, shard_size=SHARD_SIZE
                ).items()
            },
        },
        "fig18_small.json": {
            "symbol_trials": FIG18_SYMBOL_TRIALS,
            "citadel_trials": FIG18_CITADEL_TRIALS,
            "shard_size": SHARD_SIZE,
            "results": {
                key: document(result)
                for key, result in fig18_experiment(
                    geometry,
                    FIG18_SYMBOL_TRIALS,
                    FIG18_CITADEL_TRIALS,
                    shard_size=SHARD_SIZE,
                ).items()
            },
        },
        "sampling_small.json": {
            "trials": SAMPLING_TRIALS,
            "shard_size": SHARD_SIZE,
            "seed": SAMPLING_SEED,
            "results": sampling_documents(
                geometry, SAMPLING_TRIALS, SHARD_SIZE, SAMPLING_SEED
            ),
        },
    }
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in fixtures.items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
