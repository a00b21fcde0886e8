"""Table 4: races detected by Barracuda and iGUARD per application.

Reproduces the paper's central result: iGUARD detects 57 unique races
across the racy workloads, classified as IL (improper locking), AS
(insufficient atomic scope), ITS, BR (intra-block) and DR (inter-block /
device); Barracuda runs only a few suites, misses ITS races, and "does
not terminate" on Kilo-TM's interac.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines import Barracuda
from repro.core import IGuard
from repro.experiments.reporting import render_table, title
from repro.obs.log import configure_or_exit, output
from repro.workloads import racy_workloads, run_suite


@dataclass
class Row:
    """One Table 4 line."""

    suite: str
    name: str
    barracuda: str
    iguard: int
    types: str


def run() -> List[Row]:
    """Execute every racy workload under both detectors."""
    workloads = racy_workloads()
    requests = []
    for workload in workloads:
        requests.append((workload, IGuard, None))
        requests.append((workload, Barracuda, (1,)))
    results = run_suite(requests)

    rows: List[Row] = []
    for index, workload in enumerate(workloads):
        ig = results[2 * index]
        bar = results[2 * index + 1]
        if bar.status == "unsupported":
            bar_cell = "Unsupported"
        elif bar.status == "timeout":
            bar_cell = f"{bar.races}*"  # * = did not terminate
        else:
            bar_cell = str(bar.races)
        types = ", ".join(sorted(ig.race_types))
        if workload.cg_race:
            types = f"CG ({types})"
        rows.append(
            Row(
                suite=workload.suite,
                name=workload.name,
                barracuda=bar_cell,
                iguard=ig.races,
                types=types,
            )
        )
    return rows


def total_races(rows: List[Row]) -> int:
    """The headline count (paper: 57)."""
    return sum(r.iguard for r in rows)


def render(rows: List[Row]) -> str:
    table = render_table(
        ["Suite", "Application", "Barracuda", "iGUARD", "Types"],
        [[r.suite, r.name, r.barracuda, r.iguard, r.types] for r in rows],
    )
    legend = (
        "IL: improper locking, AS: insufficient atomic scope, ITS: ITS-induced,\n"
        "BR: intra-block, DR: inter-block/device.  * did not terminate."
    )
    summary = (
        f"Total races detected by iGUARD: {total_races(rows)} "
        f"across {len(rows)} applications (paper: 57)."
    )
    return "\n".join([title("Table 4: races detected"), legend, "", table, "", summary])


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
