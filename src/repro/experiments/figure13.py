"""Figure 13: breakdown of application runtime under detection.

Per benchmark suite (averaged over its workloads), the share of total
runtime contributed by: Native execution, NVBit binary analysis, Setup
(metadata allocation/pre-faulting), Instrumentation (injected-call
trampolines), Detection (race checks + metadata traffic), and Misc.
The paper's observations to reproduce: NVBit itself is often a key
contributor; the CG suite is dominated by Detection (lots of
synchronization, little compute); short-running CUB workloads are
dominated by Instrumentation-side costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core import IGuard
from repro.experiments.reporting import render_table, title
from repro.instrument.timing import Category
from repro.obs.log import configure_or_exit, output
from repro.workloads import REGISTRY, run_workload

CATEGORIES = [c.value for c in Category]


@dataclass
class SuiteBreakdown:
    """Average runtime fractions for one suite."""

    suite: str
    fractions: Dict[str, float]


def run() -> List[SuiteBreakdown]:
    """Average the per-category runtime fractions per suite."""
    by_suite: Dict[str, List[Dict[str, float]]] = {}
    for workload in REGISTRY:
        result = run_workload(workload, IGuard, seeds=(1,))
        if not result.ran or not result.breakdown:
            continue
        total = sum(result.breakdown.values())
        if total <= 0:
            continue
        fractions = {k: v / total for k, v in result.breakdown.items()}
        by_suite.setdefault(workload.suite, []).append(fractions)
    rows = []
    for suite, entries in by_suite.items():
        averaged = {
            cat: sum(e.get(cat, 0.0) for e in entries) / len(entries)
            for cat in CATEGORIES
        }
        rows.append(SuiteBreakdown(suite=suite, fractions=averaged))
    return rows


def render(rows: List[SuiteBreakdown]) -> str:
    table = render_table(
        ["Suite"] + [c.capitalize() for c in CATEGORIES],
        [
            [r.suite] + [f"{100 * r.fractions.get(c, 0.0):.0f}%" for c in CATEGORIES]
            for r in rows
        ],
    )
    return "\n".join(
        [title("Figure 13: runtime breakdown with detection (per suite)"), table]
    )


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
