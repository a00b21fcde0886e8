"""Table 1: feature and requirement matrix of GPU race detectors.

The paper's qualitative comparison.  Rather than hard-coding the matrix,
the rows for the detectors implemented in this repository (Barracuda,
CURD, ScoRD mode, iGUARD) are *probed*: tiny kernels exercising each
feature run under each detector, and the cell records whether the feature
was handled.  The rows for detectors that exist only as literature
(HaccRG, Simulee) are quoted from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines import CURD, Barracuda, ScoRD
from repro.core import IGuard
from repro.errors import ReproError, UnsupportedFeatureError
from repro.experiments.reporting import render_table, title
from repro.gpu.arch import TEST_GPU
from repro.gpu.device import Device
from repro.gpu.instructions import (
    Scope,
    atomic_add,
    fence,
    load,
    store,
    syncwarp,
)
from repro.obs.log import configure_or_exit, output
from repro.workloads.patterns import signal, wait_for

FEATURES = ["Sc. fence", "Sc. atomic", "ITS", "CG"]

#: Literature-only rows, quoted from the paper's Table 1.
LITERATURE_ROWS = {
    "Simulee": {
        "Sc. fence": "No", "Sc. atomic": "No", "ITS": "No", "CG": "No",
        "Perf. overhead": "Med", "Needs recompile": "Yes", "Extra H/W": "No",
    },
    "HaccRG": {
        "Sc. fence": "No", "Sc. atomic": "No", "ITS": "No", "CG": "No",
        "Perf. overhead": "Low", "Needs recompile": "No", "Extra H/W": "Yes",
    },
}

STATIC_ATTRIBUTES = {
    "Barracuda": {"Perf. overhead": "High", "Needs recompile": "Yes", "Extra H/W": "No"},
    "CURD": {"Perf. overhead": "Med*", "Needs recompile": "Yes", "Extra H/W": "No"},
    "ScoRD": {"Perf. overhead": "Low", "Needs recompile": "No", "Extra H/W": "Yes"},
    "iGUARD": {"Perf. overhead": "Med", "Needs recompile": "No", "Extra H/W": "No"},
}


def _scoped_fence_kernel(ctx, data, flags, sink):
    # Producer stores and publishes with a *block*-scope fence; consumer
    # is in another block: a scoped-fence race a capable detector reports.
    if ctx.block_id == 0 and ctx.tid_in_block == 0:
        yield store(data, 0, 1)
        yield fence(Scope.BLOCK)
        yield atomic_add(flags, 0, 1)
    if ctx.block_id == 1 and ctx.tid_in_block == 0:
        yield from wait_for(flags, 0)
        v = yield load(data, 0)
        yield store(sink, 0, v)


def _scoped_atomic_kernel(ctx, data, flags, sink):
    # data[0] doubles as the insufficiently-scoped counter.
    if ctx.block_id == 0 and ctx.tid_in_block == 0:
        yield atomic_add(data, 0, 1, scope=Scope.BLOCK)
        yield from signal(flags, 0)
    if ctx.block_id == 1 and ctx.tid_in_block == 0:
        yield from wait_for(flags, 0)
        v = yield load(data, 0)
        yield store(sink, 0, v)


def _its_kernel(ctx, data, flags, sink):
    # Missing __syncwarp between lanes of one warp (Figure 2's shape).
    if ctx.warp_id == 0 and ctx.lane == 1:
        yield store(data, 0, 7)
        yield from signal(flags, 0)
    if ctx.warp_id == 0 and ctx.lane == 0:
        yield from wait_for(flags, 0)
        v = yield load(data, 0)
        yield store(sink, 0, v)
    yield syncwarp()


def _cg_kernel(ctx, data, flags, sink):
    # Cooperative Groups composes everything: intra-block phases use
    # block-scope atomics, tiles hand data across lanes under ITS, and a
    # grid-level sync crosses blocks.  Full CG support means catching BOTH
    # seeded races below (the paper: "none detect races due to CG, since
    # one needs to fully support atomics, fences, and ITS").
    if ctx.block_id == 0 and ctx.tid_in_block == 0:
        yield atomic_add(flags, 1, 0, scope=Scope.BLOCK)  # intra-block phase
    # Race 1 (ITS): a tile handoff with no tile.sync().
    if ctx.warp_id == 0 and ctx.lane == 1:
        yield store(data, 1, 5)
        yield from signal(flags, 0)
    if ctx.warp_id == 0 and ctx.lane == 0:
        yield from wait_for(flags, 0)
        v = yield load(data, 1)
        yield store(sink, 0, v)
    # Race 2 (DR): a non-leader write crossing the grid "sync" where only
    # the leader fenced (the Figure 10 pattern).
    if ctx.block_id == 0 and ctx.tid_in_block == 1:
        yield store(data, 0, 9)
        yield from signal(flags, 0)
    if ctx.block_id == 0 and ctx.tid_in_block == 2:
        yield fence(Scope.DEVICE)
        yield atomic_add(flags, 1, 1)
    if ctx.block_id == 1 and ctx.tid_in_block == 0:
        yield from wait_for(flags, 0)
        v = yield load(data, 0)
        yield store(sink, 1, v)


_PROBES = {
    "Sc. fence": (_scoped_fence_kernel, 1),
    "Sc. atomic": (_scoped_atomic_kernel, 1),
    "ITS": (_its_kernel, 1),
    "CG": (_cg_kernel, 2),
}


def _probe(tool_factory, kernel, needed_sites: int) -> str:
    """Run one feature probe; 'Yes' if all seeded races are reported."""
    device = Device(TEST_GPU)
    tool = device.add_tool(tool_factory())
    data = device.alloc("data", 2, init=0)
    flags = device.alloc("flags", 2, init=0)
    sink = device.alloc("sink", 2, init=0)
    try:
        for seed in (1, 2, 3, 4):
            device.launch(
                kernel, grid_dim=2, block_dim=8, args=(data, flags, sink), seed=seed
            )
    except UnsupportedFeatureError:
        return "No"
    except ReproError:
        return "No"
    return "Yes" if tool.races.num_sites >= needed_sites else "No"


def run() -> Dict[str, Dict[str, str]]:
    """Build the full matrix (probed + literature rows)."""
    matrix: Dict[str, Dict[str, str]] = {}
    for name, factory in (
        ("Barracuda", Barracuda),
        ("CURD", CURD),
        ("Simulee", None),
        ("HaccRG", None),
        ("ScoRD", ScoRD),
        ("iGUARD", IGuard),
    ):
        if factory is None:
            matrix[name] = dict(LITERATURE_ROWS[name])
            continue
        row = {
            feat: _probe(factory, kern, needed)
            for feat, (kern, needed) in _PROBES.items()
        }
        row.update(STATIC_ATTRIBUTES[name])
        matrix[name] = row
    return matrix


def render(matrix: Dict[str, Dict[str, str]]) -> str:
    attributes = FEATURES + ["Perf. overhead", "Needs recompile", "Extra H/W"]
    headers = ["Features / requirements"] + list(matrix.keys())
    rows = [[attr] + [matrix[d].get(attr, "-") for d in matrix] for attr in attributes]
    note = "*CURD's perf. is Med only for syncthreads-only kernels."
    return "\n".join(
        [title("Table 1: detector feature matrix"), render_table(headers, rows), note]
    )


def main() -> None:
    output(render(run()))


if __name__ == "__main__":
    configure_or_exit()
    main()
