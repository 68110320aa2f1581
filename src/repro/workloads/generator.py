"""Synthetic trace generation from workload profiles.

The generator produces an LLC-miss stream with three controlled
statistics: memory intensity (inter-miss gap from MPKI at IPC~1),
read/write mix, and DRAM-row spatial locality (a miss either continues
streaming through the current row — next line slot — or jumps to a random
row of a random bank).  Requests carry the linear line addresses the
generator walks; the simulator decodes each into its Same-Bank home once
and the striping policy expands that home at simulation time, so a
generated request costs its draws and nothing more.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.perf.timing import CPU_CYCLES_PER_MEM_CYCLE
from repro.rng import make_rng
from repro.stack.address import AddressMapper
from repro.stack.geometry import StackGeometry
from repro.workloads.profiles import WORKLOADS, WorkloadProfile
from repro.workloads.trace import MemoryRequest, Trace

#: Writeback runs start a bounded distance behind the miss stream: the
#: eviction window, in cache lines (a model parameter, not geometry).
_WRITEBACK_WINDOW_LINES = 256

#: Knuth multiplicative-hash constant, used to scatter Zipf ranks over
#: the line space so hot lines land on distinct rows/banks instead of
#: one sequential run (odd, hence coprime to the power-of-two line
#: count).
_ZIPF_SPREAD = 2654435761

#: Cores in the baseline system (Table II), used by rate mode.
DEFAULT_CORES = 8


class TraceGenerator:
    """Generates per-core request streams for one benchmark profile.

    Spatial locality operates on *linear* line addresses: a local miss is
    the next consecutive cache line.  Under the channel-interleaved
    address map (``AddressMapper``), a streaming run round-robins the
    channels and banks while staying in the same (row, slot) group — this
    is what keeps all 64 banks busy for sequential code, keeps DRAM rows
    open, and makes 63 consecutive writebacks share one dim-1 parity line
    (§VI-C's "very high temporal locality" for parity accesses).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        geometry: StackGeometry,
        seed: int = 0,
        stacks: int = 2,
    ) -> None:
        self.profile = profile
        self.geometry = geometry
        self.rng = make_rng(seed=seed)
        self.mapper = AddressMapper(geometry, stacks=stacks)
        self._num_lines = self.mapper.num_lines
        #: The mean gap and the Zipf hot-set size, fixed by the profile.
        self._mean_gap = max(self.mean_gap_cycles, 1e-9)
        self._hot_lines = max(1, int(self._num_lines * profile.hot_fraction))
        self._address: Optional[int] = None
        self._burst_left = 0

    # ------------------------------------------------------------------ #
    @property
    def mean_gap_cycles(self) -> float:
        """Mean memory-clock cycles between misses.

        1000/MPKI instructions at ~1 IPC on a 3.2 GHz core, converted to
        800 MHz memory cycles.
        """
        return (1000.0 / self.profile.mpki) / CPU_CYCLES_PER_MEM_CYCLE

    def _next_gap(self) -> int:
        mean = self._mean_gap
        if self.profile.arrival_model == "bursty":
            # On/off modulation: the gap opening a burst stretches by the
            # idle factor, intra-burst gaps shrink by it.  The default
            # ("poisson") path draws exactly what it always did, so the
            # 38 paper profiles generate byte-identical traces.
            if self._burst_left <= 0:
                self._burst_left = self._burst_run_length()
                mean *= self.profile.burst_idle_factor
            else:
                mean /= self.profile.burst_idle_factor
            self._burst_left -= 1
        gap = self.rng.expovariate(1.0 / mean)
        return max(0, int(round(gap)))

    def _burst_run_length(self) -> int:
        """Geometric burst size with the profile's mean length."""
        mean = self.profile.burst_length
        if mean <= 1.0:
            return 1
        length = 1
        while self.rng.random() < 1.0 - 1.0 / mean:
            length += 1
        return length

    def _zipf_line(self) -> int:
        """A line address drawn Zipf(alpha) over the hot subset.

        The rank comes from inverting the harmonic-sum approximation of
        the Zipf CDF (closed form, no tables), then ranks are scattered
        over the full line space with a multiplicative hash so the hot
        set spans many rows and banks.
        """
        hot = self._hot_lines
        u = self.rng.random()
        alpha = self.profile.zipf_alpha
        if abs(alpha - 1.0) < 1e-9:
            rank = int(math.exp(u * math.log(hot)))
        else:
            span = hot ** (1.0 - alpha) - 1.0
            rank = int((span * u + 1.0) ** (1.0 / (1.0 - alpha)))
        rank = min(max(rank - 1, 0), hot - 1)
        return (rank * _ZIPF_SPREAD) % self._num_lines

    def _next_address(self) -> int:
        if self._address is not None and self.rng.random() < self.profile.locality:
            self._address = (self._address + 1) % self._num_lines
        elif self.profile.address_model == "zipfian":
            self._address = self._zipf_line()
        else:
            self._address = self.rng.randrange(self._num_lines)
        return self._address

    def _writeback_run_length(self) -> int:
        """LLC evictions drain dirty data in bursts of sequential lines."""
        mean = self.profile.write_run
        if mean <= 1.0:
            return 1
        # Geometric with the requested mean.
        length = 1
        while self.rng.random() < 1.0 - 1.0 / mean:
            length += 1
        return length

    # ------------------------------------------------------------------ #
    def generate(self, num_requests: int) -> Trace:
        if num_requests < 0:
            raise ConfigurationError("num_requests must be non-negative")
        profile = self.profile
        # Writebacks arrive in runs; start a run with the probability that
        # keeps the overall write fraction at the profile's value:
        # wf = p*r / (p*r + 1 - p)  =>  p = wf / (r*(1-wf) + wf).
        wf, r = profile.write_fraction, max(profile.write_run, 1.0)
        run_start_prob = min(1.0, wf / (r * (1.0 - wf) + wf)) if wf < 1 else 1.0
        requests: List[MemoryRequest] = []
        wb_address: int = 0
        run_left = 0
        while len(requests) < num_requests:
            if run_left > 0:
                run_left -= 1
                wb_address = (wb_address + 1) % self._num_lines
                requests.append(
                    MemoryRequest(
                        gap_cycles=self._next_gap(),
                        is_write=True,
                        address=wb_address,
                    )
                )
                continue
            if self.rng.random() < run_start_prob:
                run_left = self._writeback_run_length() - 1
                # Evictions trail the miss stream: start the run at a
                # random earlier line of the current region.
                base = self._address if self._address is not None else 0
                wb_address = max(0, base - self.rng.randrange(_WRITEBACK_WINDOW_LINES))
                requests.append(
                    MemoryRequest(
                        gap_cycles=self._next_gap(),
                        is_write=True,
                        address=wb_address,
                    )
                )
                continue
            requests.append(
                MemoryRequest(
                    gap_cycles=self._next_gap(),
                    is_write=False,
                    address=self._next_address(),
                )
            )
        return Trace(
            name=profile.name,
            requests=tuple(requests[:num_requests]),
            mlp=profile.mlp,
        )


def rate_mode_traces(
    name: str,
    geometry: StackGeometry,
    cores: int = DEFAULT_CORES,
    requests_per_core: int = 2000,
    seed: int = 0,
    stacks: int = 2,
) -> List[Trace]:
    """Rate mode (§III-B): all cores run copies of the same benchmark.

    Accepts any registered workload — the 38 paper benchmarks plus the
    synthetic replay profiles (``zipfian``, ``bursty``).
    """
    if name not in WORKLOADS:
        raise ConfigurationError(f"unknown benchmark: {name}")
    profile = WORKLOADS[name]
    return [
        TraceGenerator(
            profile, geometry, seed=seed * 1000 + core, stacks=stacks
        ).generate(requests_per_core)
        for core in range(cores)
    ]
