"""Figure 12: the metadata-contention optimizations ablation.

For the workloads that hammer shared variables, compare iGUARD's overhead
with and without the section 6.5 optimizations (opportunistic coalescing
of same-warp metadata accesses + dynamically-adjusted exponential
backoff).  The paper reports a 7x average improvement for this subset,
with conjugGMB dropping from 706x to 6x.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import geometric_mean
from typing import List

from repro.core import IGuard
from repro.core.config import DEFAULT_CONFIG
from repro.experiments.reporting import fmt_overhead, render_table, title
from repro.obs.log import configure_or_exit, output
from repro.workloads import REGISTRY, run_workload


@dataclass
class Row:
    """One workload's pair of bars."""

    name: str
    baseline: float  # no coalescing, no dynamic backoff
    optimized: float

    @property
    def improvement(self) -> float:
        return self.baseline / self.optimized


def contention_workloads():
    """The Figure 12 subset (marked in the registry)."""
    return [w for w in REGISTRY if w.contention_heavy]


def run() -> List[Row]:
    """Measure both configurations for every contention-heavy workload."""
    base_config = DEFAULT_CONFIG.without_optimizations()
    rows = []
    for workload in contention_workloads():
        optimized = run_workload(workload, lambda: IGuard(), seeds=(1,))
        baseline = run_workload(
            workload, lambda: IGuard(base_config), seeds=(1,)
        )
        rows.append(
            Row(
                name=workload.name,
                baseline=baseline.overhead,
                optimized=optimized.overhead,
            )
        )
    return rows


def mean_improvement(rows: List[Row]) -> float:
    """Geometric-mean speedup from the optimizations (paper: ~7x)."""
    return geometric_mean(r.improvement for r in rows)


def render(rows: List[Row]) -> str:
    table = render_table(
        ["Application", "Baseline", "With optimizations", "Improvement"],
        [
            [r.name, fmt_overhead(r.baseline), fmt_overhead(r.optimized),
             f"{r.improvement:.1f}x"]
            for r in rows
        ],
    )
    return "\n".join(
        [
            title("Figure 12: overhead with and without contention optimizations"),
            table,
            "",
            f"Geometric-mean improvement: {mean_improvement(rows):.1f}x "
            "(paper: ~7x average for this subset; conjugGMB 706x -> 6x)",
        ]
    )


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
