#!/usr/bin/env python
"""Regenerate the golden Monte-Carlo fixtures under tests/golden/.

Usage: PYTHONPATH=src python tools/regen_goldens.py

The fixtures pin the exact sharded-campaign outputs of the Figure 14 and
Figure 18 experiments at reduced trial counts, and the whole result
documents (strata, failure weights and engine metrics included) of the
stratified, importance and naive sampling plans on the scalar trial
loop (see ``tests/test_golden_bench.py``).  ``perf_small.json`` pins the
performance side: a digest of every registered profile's rate-mode
traces, the ``PerfResult`` of those traces under each ``repro perf``
organization, and whole ``repro replay --json`` documents (see
``tests/test_golden_perf.py``).  Regenerate them ONLY when a change to
the trial loop, fault sampling, shard plan, trace generator or perf
simulator is *intended* to shift paper numbers — and say so in the
commit message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Sequence

from repro.cli import PERF_CONFIGS
from repro.cli import main as repro_main
from repro.core.parity3dp import make_3dp
from repro.faults.rates import TSV_FIT_HIGH, FailureRates
from repro.perf.system import SystemSimulator
from repro.reliability.experiments import (
    fig14_experiment,
    fig18_experiment,
    run_campaign,
)
from repro.reliability.results import ReliabilityResult
from repro.stack.geometry import StackGeometry
from repro.workloads.generator import rate_mode_traces
from repro.workloads.profiles import WORKLOADS
from repro.workloads.trace import Trace

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

#: The perf golden: every registered profile's rate-mode traces at this
#: size, under every ``repro perf`` organization.
PERF_CORES = 2
PERF_REQUESTS_PER_CORE = 256
PERF_SEED = 7

#: Replay-golden legs: key -> the ``repro replay`` flags of the leg.
#: Every leg shares ``REPLAY_FLAGS``.
REPLAY_LEGS = {
    "citadel_zipfian": ("--scheme", "citadel", "--workload", "zipfian"),
    "citadel_bursty_thermal": (
        "--scheme", "citadel", "--workload", "bursty", "--thermal",
    ),
    "3dp_tsvswap_dds_mcf": (
        "--scheme", "3dp", "--tsv-swap", "4", "--dds", "--workload", "mcf",
    ),
}
REPLAY_FLAGS = (
    "--trials", "8", "--requests", "64", "--cores", "2", "--shard-size", "2",
    "--seed", "0", "--json",
)


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


def trace_digest(traces: Sequence[Trace]) -> str:
    """sha256 over the ``(gap_cycles, is_write, line address)`` triples
    of ``traces``, core by core."""
    digest = hashlib.sha256()
    for trace in traces:
        for request in trace.requests:
            digest.update(b"%d,%d,%d;" % (
                request.gap_cycles, request.is_write, request.address
            ))
        digest.update(b"\n")
    return digest.hexdigest()


def perf_documents(geometry: StackGeometry) -> Dict[str, Dict[str, Any]]:
    """Per registered profile: its trace digest, and the ``PerfResult``
    of its traces under each ``repro perf`` organization."""
    documents = {}
    for name in sorted(WORKLOADS):
        traces = rate_mode_traces(
            name, geometry, cores=PERF_CORES,
            requests_per_core=PERF_REQUESTS_PER_CORE, seed=PERF_SEED,
        )
        documents[name] = {
            "trace_sha256": trace_digest(traces),
            "perf": {
                config: asdict(SystemSimulator(geometry, PERF_CONFIGS[config])
                               .run(traces))
                for config in sorted(PERF_CONFIGS)
            },
        }
    return documents


def replay_document(flags: Sequence[str]) -> Dict[str, Any]:
    """The ``repro replay --json`` document of one invocation."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        status = repro_main(["replay", *flags])
    if status != 0:
        raise RuntimeError(f"repro replay {' '.join(flags)} exited {status}")
    return json.loads(stdout.getvalue())


def replay_documents() -> Dict[str, Dict[str, Any]]:
    """Each replay leg's ``--json`` document."""
    return {
        key: replay_document((*flags, *REPLAY_FLAGS))
        for key, flags in REPLAY_LEGS.items()
    }


#: Nesting depth of one PerfResult in ``perf_small.json``
#: (payload -> "profiles" -> profile -> "perf" -> organization).
PERF_INLINE_DEPTH = 4


def dumps_to_depth(value: Any, inline_depth: int, depth: int = 0) -> str:
    """Sorted JSON with objects indented one space per level down to
    ``inline_depth``; anything deeper, and every list, on one line."""
    if depth >= inline_depth or not isinstance(value, dict) or not value:
        return json.dumps(value, sort_keys=True)
    pad = " " * (depth + 1)
    items = ",\n".join(
        f"{pad}{json.dumps(key)}: "
        f"{dumps_to_depth(value[key], inline_depth, depth + 1)}"
        for key in sorted(value)
    )
    return "{\n" + items + "\n" + " " * depth + "}"


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
        "perf_small.json": {
            "cores": PERF_CORES,
            "requests_per_core": PERF_REQUESTS_PER_CORE,
            "seed": PERF_SEED,
            "profiles": perf_documents(geometry),
            "replay_flags": list(REPLAY_FLAGS),
            "replay": replay_documents(),
        },
    }
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in fixtures.items():
        path = GOLDEN_DIR / name
        if name == "perf_small.json":
            # One line per PerfResult: 200 results of 128 bank counters
            # each would take 40k lines fully indented.
            text = dumps_to_depth(payload, PERF_INLINE_DEPTH)
        else:
            text = json.dumps(payload, indent=1, sort_keys=True)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
