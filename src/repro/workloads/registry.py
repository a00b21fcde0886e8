"""The workload registry: every Table 4 and Table 5 application.

Suites appear in the paper's Table 4 order.  The registry is the single
source of truth for the experiment harness and the test suite: per
workload it records the expected unique-race count and type tags (Table
4), whether the race is CG-induced, and whether Barracuda can ingest the
binary at all.

Note on totals: the paper's text says "57 races in 21 GPU programs", while
its Table 4 lists 22 application rows whose counts sum to 57; we implement
all 22 rows.  With the 21 race-free workloads of Table 5 (12 CUB, 8
Rodinia, plus warpAA) the registry holds 43 workloads.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Tuple

from repro.workloads import (
    cg_suite,
    cub,
    cuml,
    gunrock,
    kilotm,
    lonestar,
    nvlib,
    rodinia,
    scor,
    shoc,
    slabhash,
)
from repro.workloads.base import Workload

#: All workloads, grouped in Table 4 suite order then Table 5 extras.
REGISTRY: List[Workload] = (
    list(scor.WORKLOADS)
    + list(cg_suite.WORKLOADS)
    + list(nvlib.WORKLOADS)
    + list(gunrock.WORKLOADS)
    + list(lonestar.WORKLOADS)
    + list(slabhash.WORKLOADS)
    + list(cuml.WORKLOADS)
    + list(kilotm.WORKLOADS)
    + list(shoc.WORKLOADS)
    + list(cub.WORKLOADS)
    + list(rodinia.WORKLOADS)
)

_BY_NAME: Dict[str, Workload] = {w.name: w for w in REGISTRY}
if len(_BY_NAME) != len(REGISTRY):  # pragma: no cover - authoring guard
    raise RuntimeError("duplicate workload names in the registry")


def get_workload(name: str) -> Workload:
    """Look a workload up by its Table 4/5 name."""
    return _BY_NAME[name]


def workload_name(name: str) -> str:
    """An argparse ``type=``: ``name`` if the registry holds it."""
    if name not in _BY_NAME:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}")
    return name


def seed_list(text: str) -> Tuple[int, ...]:
    """An argparse ``type=`` for ``--seeds S1,S2``: the seeds as ints."""
    return tuple(int(seed) for seed in text.split(","))


def racy_workloads() -> List[Workload]:
    """The Table 4 applications (with seeded races)."""
    return [w for w in REGISTRY if w.has_races]


def racefree_workloads() -> List[Workload]:
    """The Table 5 applications (the false-positive check)."""
    return [w for w in REGISTRY if not w.has_races]


def total_expected_races() -> int:
    """The paper's headline count: 57."""
    return sum(w.expected_races for w in REGISTRY)
