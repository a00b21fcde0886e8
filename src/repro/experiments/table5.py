"""Table 5: applications without any reported races.

The false-positive check: iGUARD must stay silent on every race-free
workload ("iGUARD correctly reported 57 races ... without any false
positives").  The experiment runs each Table 5 application under iGUARD
over multiple scheduler seeds and reports any race found — the expected
output is an empty misreport list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core import IGuard
from repro.experiments.reporting import render_table, title
from repro.obs.log import configure_or_exit, output
from repro.workloads import racefree_workloads, run_suite


@dataclass
class Row:
    """One Table 5 line."""

    suite: str
    name: str
    races: int
    status: str


def run(extra_seeds=(7, 11)) -> List[Row]:
    """Run every race-free workload; extra seeds widen schedule coverage."""
    workloads = racefree_workloads()
    requests = [
        (workload, IGuard, tuple(workload.seeds) + tuple(extra_seeds))
        for workload in workloads
    ]
    results = run_suite(requests)
    return [
        Row(
            suite=workload.suite,
            name=workload.name,
            races=result.races,
            status=result.status,
        )
        for workload, result in zip(workloads, results)
    ]


def false_positives(rows: List[Row]) -> List[Row]:
    """Rows where iGUARD reported anything (should be empty)."""
    return [r for r in rows if r.races > 0]


def render(rows: List[Row]) -> str:
    table = render_table(
        ["Suite", "Application", "iGUARD races", "Status"],
        [[r.suite, r.name, r.races, r.status] for r in rows],
    )
    bad = false_positives(rows)
    verdict = (
        "No false positives." if not bad
        else f"FALSE POSITIVES in: {', '.join(r.name for r in bad)}"
    )
    return "\n".join(
        [title("Table 5: race-free applications"), table, "", verdict]
    )


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
