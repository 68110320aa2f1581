"""Replay campaigns as a :class:`~repro.reliability.parallel.ShardWork`.

A replay campaign runs on the one sharded runner,
:class:`~repro.reliability.parallel.ParallelLifetimeRunner`, by passing
a :class:`ReplayWork` as ``work=``.  The runner supplies the shard plan,
the process pool, crash containment, cancellation, the time budget,
progress output and atomic checkpoints; the work replays one shard.
Every shard replays the same workload trace, seeded from the campaign
root, so the merged :class:`ReplayResult` is byte-identical for any
worker count and across checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional

from repro.ecc.base import CorrectionModel
from repro.faults.rates import FailureRates
from repro.perf.system import PerfConfig
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import ShardSpec, ShardWork
from repro.replay.engine import ReplayConfig, ReplayEngine, default_perf_config
from repro.replay.results import ReplayResult
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: Replay trials are orders of magnitude heavier than reliability trials
#: (each replays the full trace), so shards stay small.
DEFAULT_REPLAY_SHARD_SIZE = 8


@dataclass(frozen=True)
class ReplayWork(ShardWork):
    """Replay shards for one (scheme, workload, mitigation) tuple."""

    result_type: ClassVar[Any] = ReplayResult

    geometry: StackGeometry
    rates: FailureRates
    model: CorrectionModel
    engine_config: EngineConfig
    replay_config: ReplayConfig
    perf_config: Optional[PerfConfig] = None
    collect_metrics: bool = False
    #: Defaults to the engine's scheme label plus `` replay``.
    label: str = ""

    def __post_init__(self) -> None:
        if self.perf_config is None:
            object.__setattr__(
                self, "perf_config", default_perf_config(self.replay_config)
            )
        if not self.label:
            object.__setattr__(self, "label", self._engine().scheme_label())

    def _engine(self) -> ReplayEngine:
        return ReplayEngine(
            self.geometry,
            self.rates,
            self.model,
            self.engine_config,
            self.replay_config,
            self.perf_config,
        )

    def run_shard(
        self,
        spec: ShardSpec,
        root_seed: int,
        tracer: Optional[TraceWriter] = None,
    ) -> Dict[str, Any]:
        result = self._engine().run_shard(
            spec.seed,
            spec.trials,
            derive_seed(root_seed, "trace"),
            label=self.label,
            metrics=MetricsRegistry() if self.collect_metrics else None,
        )
        return result.to_dict()

    def empty(self) -> ReplayResult:
        return ReplayResult.identity()
