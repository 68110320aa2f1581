"""repro — a reproduction of "Citadel: Efficiently Protecting Stacked
Memory from Large Granularity Failures" (Nair, Roberts, Qureshi, MICRO
2014).

Public API overview
-------------------

* :mod:`repro.stack` — stacked-memory geometry, addressing, striping, TSVs.
* :mod:`repro.faults` — fault taxonomy, footprints, FIT rates, injection.
* :mod:`repro.ecc` — CRC-32 and the baseline correction models.
* :mod:`repro.core` — Citadel: TSV-Swap, 3DP, DDS, metadata, datapath.
* :mod:`repro.reliability` — Monte-Carlo lifetime reliability engine.
* :mod:`repro.perf` — DRAM timing/power simulator for the striping studies.
* :mod:`repro.workloads` — synthetic SPEC/PARSEC/BioBench-like traces.

Quickstart::

    from repro import CitadelConfig, FailureRates, LifetimeSimulator

    config = CitadelConfig()
    sim = LifetimeSimulator(
        config.geometry,
        FailureRates.paper_baseline(tsv_device_fit=1430.0),
        config.correction_model(),
    )
    print(sim.run(trials=1000).summary())
"""

from repro.core.citadel import CitadelConfig, StorageOverhead
from repro.core.parity3dp import ParityND, make_1dp, make_2dp, make_3dp
from repro.faults.rates import FailureRates, TABLE_I_8GB_FIT
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.parallel import ParallelLifetimeRunner
from repro.reliability.results import ReliabilityResult
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy

__version__ = "1.0.0"

__all__ = [
    "CitadelConfig",
    "StorageOverhead",
    "ParityND",
    "make_1dp",
    "make_2dp",
    "make_3dp",
    "FailureRates",
    "TABLE_I_8GB_FIT",
    "EngineConfig",
    "LifetimeSimulator",
    "ParallelLifetimeRunner",
    "ReliabilityResult",
    "StackGeometry",
    "StripingPolicy",
    "__version__",
]
