"""Trace-replay co-simulation: reliability, performance and power from
one sharded run (see DESIGN.md §15).

A replay campaign couples the Monte-Carlo reliability engine with the
performance simulator: each trial samples a lifetime fault timeline,
replays the shared workload trace while that timeline unfolds (DDS
remaps, TSV-Swap activations, scrubbing and degraded-bank correction
perturb per-request latency and inject protection traffic), prices the
perturbed run with the activity-weighted power model, and — optionally —
feeds baseline bank activity back into per-bank FIT multipliers via a
thermal proxy.
"""

from repro.replay.engine import ReplayConfig, ReplayEngine, default_perf_config
from repro.replay.perturb import ReplayPerturbation
from repro.replay.results import ReplayResult
from repro.replay.runner import DEFAULT_REPLAY_SHARD_SIZE, ReplayWork
from repro.replay.thermal import thermal_bank_multipliers
from repro.replay.timeline import (
    FaultTimeline,
    TimelineEvent,
    TimelineRecorder,
    build_timeline,
)

__all__ = [
    "ReplayConfig",
    "ReplayEngine",
    "default_perf_config",
    "ReplayPerturbation",
    "ReplayResult",
    "DEFAULT_REPLAY_SHARD_SIZE",
    "ReplayWork",
    "thermal_bank_multipliers",
    "FaultTimeline",
    "TimelineEvent",
    "TimelineRecorder",
    "build_timeline",
]
