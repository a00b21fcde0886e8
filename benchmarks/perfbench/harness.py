"""Timing rule, summary statistics, correctness gate and environment guard.

Timing rule: each cell runs once untimed as a warm-up; then all cells run
in interleaved rounds and each keeps its fastest time.  On a shared host
slowdowns only ever make a run slower, so a cell's minimum over rounds
spaced seconds apart is its time on an unloaded machine; percentiles are
then taken across cells.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Environment variables that change what the program computes or how it
#: schedules work; a run with any of them set measures something else.
BEHAVIOUR_VARS = (
    "IGUARD_SHARDS",
    "IGUARD_MEM_BUDGET",
    "IGUARD_QUEUE_CAP",
    "IGUARD_QUARANTINE",
    "IGUARD_CHAOS",
)

#: Relative tolerance on pinned simulated cycles: the columnar drain sums
#: per-launch charges in a different order than the live bus.
CYCLE_RTOL = 1e-9


def environment_problems(environ: Mapping[str, str]) -> List[str]:
    """Names of behaviour-changing variables that are set (non-empty)."""
    return [name for name in BEHAVIOUR_VARS if environ.get(name, "").strip()]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = fraction * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def best_of_rounds(
    cells: Sequence,
    seconds: float,
    on_result: Callable[[int, object, float], None],
    min_rounds: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[float], int]:
    """Run every cell in ``cells`` order, round after round; keep each fastest.

    Rounds continue while another round of the last round's length still
    fits in ``seconds`` (at least ``min_rounds``).  ``on_result(index,
    raw, seconds)`` receives each execution's output and time outside the
    timed region.  A cell with ``enter``/``leave`` methods has them called
    around its execution, outside the timed region.  Returns the per-cell
    best seconds and the number of rounds run.
    """
    best = [math.inf] * len(cells)
    rounds = 0
    started = clock()
    while True:
        round_start = clock()
        for index, cell in enumerate(cells):
            enter = getattr(cell, "enter", None)
            if enter is not None:
                enter()
            try:
                begin = clock()
                raw = cell.drive()
                elapsed = clock() - begin
            finally:
                if enter is not None:
                    cell.leave()
            if elapsed < best[index]:
                best[index] = elapsed
            on_result(index, raw, elapsed)
        rounds += 1
        now = clock()
        if rounds >= min_rounds and (now - started) + (now - round_start) > seconds:
            break
    return best, rounds


def check_outcome(outcome, pin: Optional[dict], generated: bool) -> List[str]:
    """Mismatches between one cell's report and its pin.

    Generated workloads must be race-free for any seed; where a pin exists
    (registry cells, and generated cells at the default seed) the race
    sites with types, the event count and the simulated cycles must match.
    """
    problems = []
    if generated and outcome.sites:
        problems.append(f"{len(outcome.sites)} race(s) on a race-free kernel")
    if pin is None:
        return problems
    if outcome.sites != pin["sites"]:
        problems.append(f"race sites {outcome.sites} != pinned {pin['sites']}")
    if outcome.events != pin["events"]:
        problems.append(f"events {outcome.events} != pinned {pin['events']}")
    for field in ("total_cycles", "native_cycles"):
        got, want = getattr(outcome, field), pin[field]
        if not math.isclose(got, want, rel_tol=CYCLE_RTOL):
            problems.append(f"{field} {got!r} != pinned {want!r}")
    return problems


def union_races(
    outcomes: Mapping[str, object], registry: Sequence
) -> Tuple[int, List[str]]:
    """Table 4/5 over the per-app union of seeds: (total races, mismatches).

    ``outcomes`` maps cell keys ``"<app>/s<seed>"`` to outcomes.  Seeds
    are folded in order with later seeds overwriting a site's type, like
    the runner's merge.  Each app must match its Table 4 count and types;
    Table 5 apps must report none.
    """
    problems = []
    total = 0
    for workload in registry:
        sites: Dict[str, str] = {}
        for seed in workload.seeds:
            sites.update(outcomes[f"{workload.name}/s{seed}"].sites)
        total += len(sites)
        types = set(sites.values())
        if len(sites) != workload.expected_races or (
            sites and types != set(workload.expected_types)
        ):
            problems.append(
                f"{workload.name}: {len(sites)} race(s) {sorted(types)}, "
                f"Table 4/5 says {workload.expected_races} "
                f"{sorted(workload.expected_types)}"
            )
    expected_total = sum(w.expected_races for w in registry)
    if total != expected_total:
        problems.append(f"{total} races in the union, Table 4 says {expected_total}")
    return total, problems


def git_sha(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None
