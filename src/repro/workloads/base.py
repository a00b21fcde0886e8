"""Workload descriptors and the common launch scaffolding."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Tuple

from repro.gpu.arch import GPUConfig, GiB
from repro.gpu.device import Device


#: The simulated evaluation GPU.  Capacity matches the paper's Titan RTX;
#: the warp width is reduced to 8 so that pure-Python execution of tens of
#: thousands of dynamic instructions per workload stays fast while still
#: exercising multi-warp blocks, divergence, and reconvergence.
SIM_GPU = GPUConfig(
    name="Simulated Titan RTX",
    num_sms=72,
    warp_size=8,
    max_threads_per_block=1024,
    lanes_per_sm=64,
    memory_bytes=24 * GiB,
    supports_its=True,
)


@dataclass(frozen=True)
class Workload:
    """One evaluation workload.

    Attributes:
        name: the Table 4/5 application name.
        suite: the Table 4/5 suite name.
        run: host driver — ``run(device, seed)`` allocates, launches the
            kernels, and optionally verifies outputs.
        expected_races: unique racy sites iGUARD should report (Table 4
            count; 0 for the Table 5 workloads).
        expected_types: the Table 4 race-type tags, e.g. {"AS", "BR"}.
        cg_race: the race stems from Cooperative Groups misuse (Table 4
            prints these as "CG (DR)").
        complex_binary: real-world multi-file library — Barracuda cannot
            embed a single PTX file for it and fails to run (Gunrock,
            LonestarGPU, SlabHash, cuML).
        seeds: scheduler seeds the harness unions race reports over; pinned
            for reproducibility.
        description: one-line description for reports.
        contention_heavy: appears in the Figure 12 contention study.
    """

    name: str
    suite: str
    run: Callable[[Device, int], None]
    expected_races: int = 0
    expected_types: FrozenSet[str] = frozenset()
    cg_race: bool = False
    complex_binary: bool = False
    seeds: Tuple[int, ...] = (1, 2, 3)
    description: str = ""
    contention_heavy: bool = False

    @property
    def has_races(self) -> bool:
        return self.expected_races > 0

    def type_tags(self) -> str:
        """Table 4 style type list, e.g. ``"AS, BR"`` or ``"CG (DR)"``."""
        tags = ", ".join(sorted(self.expected_types))
        return f"CG ({tags})" if self.cg_race else tags


@dataclass
class WorkloadResult:
    """Outcome of running one workload under one detector (or none)."""

    workload: str
    detector: str
    status: str  # "ok" | "unsupported" | "timeout" | "oom"
    races: int = 0
    race_types: FrozenSet[str] = frozenset()
    race_sites: Tuple = ()
    overhead: float = 1.0
    native_time: float = 0.0
    total_time: float = 0.0
    breakdown: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def ran(self) -> bool:
        return self.status == "ok"
