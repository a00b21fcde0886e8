"""Section 1 motivation: the cost of scopes.

"On a recent NVIDIA Titan RTX GPU, the block-scope threadfence ... is 21x
faster than the device scope fence" — the whole reason scoped
synchronization exists, and the reason insufficient scopes are such a
tempting bug.  The microbenchmark times a fence-heavy kernel under both
scopes in the cost model and reports the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import render_table, title
from repro.gpu.arch import TEST_GPU
from repro.gpu.device import Device
from repro.gpu.instructions import Scope, fence, load, store
from repro.obs.log import configure_or_exit, output


def _fence_kernel(ctx, data, scope, iterations):
    # A fence-bound kernel, like the microbenchmarks GPU vendors use to
    # quote fence latencies: one producer store, then back-to-back fences.
    v = yield load(data, ctx.tid)
    yield store(data, ctx.tid, v + 1)
    for _ in range(iterations):
        yield fence(scope)


@dataclass
class Result:
    """Fence microbenchmark outcome."""

    block_time: float
    device_time: float

    @property
    def ratio(self) -> float:
        return self.device_time / self.block_time


def run(iterations: int = 16) -> Result:
    """Time the same kernel with block- vs device-scope fences."""
    times = {}
    for scope in (Scope.BLOCK, Scope.DEVICE):
        device = Device(TEST_GPU)
        data = device.alloc("data", 64, init=0)
        run_ = device.launch(
            _fence_kernel, grid_dim=2, block_dim=16,
            args=(data, scope, iterations), seed=1,
        )
        times[scope] = run_.timing.native_time
    return Result(block_time=times[Scope.BLOCK], device_time=times[Scope.DEVICE])


def render(result: Result) -> str:
    table = render_table(
        ["Fence scope", "Kernel time (model cycles)"],
        [
            ["block (__threadfence_block)", f"{result.block_time:.0f}"],
            ["device (__threadfence)", f"{result.device_time:.0f}"],
        ],
    )
    return "\n".join(
        [
            title("Motivation: scoped fence cost"),
            table,
            "",
            f"Device-scope fence kernel is {result.ratio:.1f}x slower "
            "(paper: the block-scope fence is 21x faster).",
        ]
    )


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
