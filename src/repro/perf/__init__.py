"""Performance and power substrate: DRAM timing simulation, LLC parity
caching, Micron-style power accounting."""

from repro.perf.llc import LRUCache
from repro.perf.power import EnergyCounters, PowerModel, PowerParams
from repro.perf.system import PerfConfig, PerfResult, SystemSimulator
from repro.perf.timing import (
    CPU_CYCLES_PER_MEM_CYCLE,
    REFRESH_INTERVAL_CYCLES,
    DRAMTimings,
)

__all__ = [
    "LRUCache",
    "EnergyCounters",
    "PowerModel",
    "PowerParams",
    "PerfConfig",
    "PerfResult",
    "SystemSimulator",
    "DRAMTimings",
    "CPU_CYCLES_PER_MEM_CYCLE",
    "REFRESH_INTERVAL_CYCLES",
]
