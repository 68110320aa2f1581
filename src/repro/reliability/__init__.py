"""Monte-Carlo lifetime reliability engine (FaultSim-like)."""

from repro.reliability.analytic import AnalyticModel
from repro.reliability.availability import AvailabilityModel
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.parallel import (
    CampaignReport,
    CrashInjection,
    ParallelLifetimeRunner,
    ReliabilityWork,
    ShardSpec,
    ShardWork,
    shard_plan,
)
from repro.reliability.results import ReliabilityResult, SparingStats, StratumStats
from repro.reliability.sampling import (
    SAMPLING_METHODS,
    ImportanceSampler,
    StratifiedSampler,
    StratumDef,
    clustered_likelihood_ratio,
    make_sampler,
)
from repro.reliability.stopping import ConfidenceSequence, StoppingRule

__all__ = [
    "LifetimeSimulator",
    "EngineConfig",
    "AnalyticModel",
    "AvailabilityModel",
    "ReliabilityResult",
    "SparingStats",
    "StratumStats",
    "ParallelLifetimeRunner",
    "ShardWork",
    "ReliabilityWork",
    "StoppingRule",
    "ConfidenceSequence",
    "CampaignReport",
    "CrashInjection",
    "ShardSpec",
    "shard_plan",
    "SAMPLING_METHODS",
    "StratumDef",
    "StratifiedSampler",
    "ImportanceSampler",
    "clustered_likelihood_ratio",
    "make_sampler",
]
