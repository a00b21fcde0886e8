"""Figure 11: performance overheads of iGUARD vs Barracuda (log scale).

Two panels, exactly as in the paper:

- **(a)** the applications *with* races (Table 4): Barracuda is
  "Unsupported" on most suites (scoped atomics, CG, multi-file
  libraries) and times out on interac;
- **(b)** the race-free applications (Table 5): here Barracuda runs on
  everything and the paper's averages live (Barracuda ~61x vs iGUARD
  ~4.2x; 15x gap headline).

The experiment prints each bar (slowdown over no detection) plus the
aggregate statistics the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import geometric_mean, mean
from typing import Dict, List, Optional

from repro.baselines import Barracuda
from repro.core import IGuard
from repro.experiments.reporting import fmt_overhead, render_table, title
from repro.obs.log import configure_or_exit, output
from repro.workloads import racefree_workloads, racy_workloads, run_suite


@dataclass
class Bar:
    """One pair of bars for one application."""

    suite: str
    name: str
    iguard: float
    barracuda: Optional[float]  # None = Unsupported / Timeout / OOM
    barracuda_status: str = "ok"


@dataclass
class Panel:
    """One sub-figure."""

    label: str
    bars: List[Bar] = field(default_factory=list)

    def iguard_mean(self) -> float:
        return mean(b.iguard for b in self.bars)

    def barracuda_mean(self) -> Optional[float]:
        ran = [b.barracuda for b in self.bars if b.barracuda is not None]
        return mean(ran) if ran else None

    def speedup_over_barracuda(self) -> Optional[float]:
        pairs = [(b.iguard, b.barracuda) for b in self.bars if b.barracuda]
        if not pairs:
            return None
        return geometric_mean(bar / ig for ig, bar in pairs)


def _measure(workloads) -> List[Bar]:
    requests = []
    for workload in workloads:
        requests.append((workload, IGuard, (1,)))
        requests.append((workload, Barracuda, (1,)))
    results = run_suite(requests)
    bars = []
    for index, workload in enumerate(workloads):
        ig = results[2 * index]
        bar = results[2 * index + 1]
        bars.append(
            Bar(
                suite=workload.suite,
                name=workload.name,
                iguard=ig.overhead,
                barracuda=bar.overhead if bar.ran else None,
                barracuda_status=bar.status,
            )
        )
    return bars


def run() -> Dict[str, Panel]:
    """Measure both panels."""
    return {
        "a": Panel(
            label="(a) applications with races",
            bars=_measure(racy_workloads()),
        ),
        "b": Panel(
            label="(b) applications without races",
            bars=_measure(racefree_workloads()),
        ),
    }


def render(panels: Dict[str, Panel]) -> str:
    sections = [title("Figure 11: performance overhead (slowdown over no detection)")]
    for panel in panels.values():
        rows = []
        for b in panel.bars:
            bar_cell = (
                fmt_overhead(b.barracuda)
                if b.barracuda is not None
                else b.barracuda_status.capitalize()
            )
            rows.append([b.suite, b.name, fmt_overhead(b.iguard), bar_cell])
        sections.append(panel.label)
        sections.append(
            render_table(["Suite", "Application", "iGUARD", "Barracuda"], rows)
        )
        stats = [f"iGUARD average: {fmt_overhead(panel.iguard_mean())}"]
        if panel.barracuda_mean() is not None:
            stats.append(
                f"Barracuda average (where it ran): "
                f"{fmt_overhead(panel.barracuda_mean())}"
            )
            stats.append(
                f"iGUARD speedup over Barracuda (geomean): "
                f"{panel.speedup_over_barracuda():.1f}x"
            )
        sections.append("; ".join(stats))
        sections.append("")
    return "\n".join(sections)


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
