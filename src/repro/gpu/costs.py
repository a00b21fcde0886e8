"""The cycle-cost model.

The reproduction cannot measure real GPU wall-clock, so every performance
figure (Figures 11-14) is produced by this model instead.  It has two
parts:

1. **Per-instruction costs** (:class:`CostParams`): how many cycles each
   DSL instruction consumes.  The only paper-calibrated ratio is the scoped
   fence: "the block-scope threadfence ... is 21x faster than the device
   scope fence" (section 1), so ``fence_device = 21 * fence_block``.

2. **A wall-time model** (the parallel/serial split of
   :class:`~repro.instrument.timing.TimingBreakdown`): total *work* executed in
   parallel regions is divided by the machine's effective parallelism
   (bounded by launched threads and available lanes), while *serialized*
   work — metadata-lock contention inside iGUARD, or Barracuda's CPU-side
   race-detection pass — is charged at full cost.  This is the mechanism
   behind the paper's headline: in-GPU parallel detection is ~15x faster
   than CPU-serialized detection.

Calibration notes: the absolute constants below are tuned so the *shape*
of the paper's results holds (iGUARD ~5x average overhead, Barracuda
10-1000x, contention-heavy kernels improving ~7x with the section 6.5
optimizations).  They are not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.instructions import (
    Atomic,
    Compute,
    Fence,
    Instruction,
    Load,
    Scope,
    Store,
    Syncthreads,
    Syncwarp,
)


@dataclass(frozen=True)
class CostParams:
    """Cycle costs for each instruction category."""

    load: int = 4
    store: int = 4
    atomic_block: int = 8
    atomic_device: int = 24
    fence_block: int = 10
    fence_device: int = 210  # 21x the block fence, per the paper's motivation
    syncthreads: int = 40
    syncwarp: int = 4
    compute_unit: int = 1

    def cost_of(self, instr: Instruction) -> int:
        """Base cycle cost of one dynamic instruction."""
        if isinstance(instr, Load):
            return self.load
        if isinstance(instr, Store):
            return self.store
        if isinstance(instr, Atomic):
            if instr.scope.effective is Scope.BLOCK:
                return self.atomic_block
            return self.atomic_device
        if isinstance(instr, Fence):
            if instr.scope.effective is Scope.BLOCK:
                return self.fence_block
            return self.fence_device
        if isinstance(instr, Syncthreads):
            return self.syncthreads
        if isinstance(instr, Syncwarp):
            return self.syncwarp
        if isinstance(instr, Compute):
            return self.compute_unit * instr.cycles
        return 1


DEFAULT_COSTS = CostParams()


def effective_parallelism(num_threads: int, max_lanes: int) -> int:
    """Lanes actually usable by a launch of ``num_threads`` threads."""
    return max(1, min(num_threads, max_lanes))
