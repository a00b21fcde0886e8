"""Golden digests of the simulator's event streams.

``tests/golden/sim_streams.json`` pins, for every registry workload at
each of its pinned seeds, a sha256 over every memory and sync record the
device publishes — kind, address, warp, lane, ip, sorted active mask,
batch, scope, atomic op, and the loaded, stored and compare values —
plus each launch's ``KernelRun`` native time (``float.hex``), batch
count and instruction count.  Two more entries cover the scheduler and
thread paths the registry does not reach: one workload under the
lockstep (pre-Volta) policy, and every recall mutant, whose stateful
stream mutator rewrites instructions as threads fetch them.

The simulator must reproduce every digest exactly: any change to the
scheduler's RNG stream, the order threads execute and advance in, the
values memory returns or the cycle accounting shows up here.

Regenerate (only when simulated behaviour is meant to change)::

    PYTHONPATH=src python -m tests.test_sim_streams --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

from repro.errors import DeadlockError
from repro.faults.mutators import install
from repro.faults.workloads import FAULT_PATTERNS
from repro.gpu.device import Device
from repro.instrument.nvbit import Tool
from repro.workloads.base import SIM_GPU
from repro.workloads.registry import REGISTRY, get_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sim_streams.json")

#: The registry workload also run under the lockstep scheduler.
LOCKSTEP_WORKLOAD = "reduction"
LOCKSTEP_GPU = replace(SIM_GPU, supports_its=False)


def _name(value):
    return None if value is None else value.name


class _Digest(Tool):
    """Hashes every published record; keeps each launch's run counters."""

    name = "sim-digest"

    def __init__(self):
        self.sha = hashlib.sha256()
        self.records = 0
        self.runs = []

    def on_memory(self, event, launch):
        where = event.where
        self.sha.update(repr((
            event.kind.value, event.address, where.warp_id, where.lane,
            event.ip, sorted(event.active_mask), event.batch,
            event.scope.name, _name(event.atomic_op), event.value_loaded,
            event.value_stored, event.compare,
        )).encode())
        self.records += 1

    def on_sync(self, event, launch):
        where = event.where
        self.sha.update(repr((
            event.kind.value, where.warp_id, where.lane, event.ip,
            sorted(event.active_mask), event.batch, event.scope.name,
        )).encode())
        self.records += 1

    def on_kernel_end(self, run, launch):
        self.runs.append([run.native_time.hex(), run.batches, run.instructions])


def _digest(drive, config=SIM_GPU) -> dict:
    """Run ``drive(device)`` on a fresh device and digest its stream."""
    device = Device(config)
    tool = device.add_tool(_Digest())
    status = "ok"
    try:
        drive(device)
    except DeadlockError:
        status = "deadlock"
    return {
        "status": status,
        "records": tool.records,
        "sha256": tool.sha.hexdigest(),
        "runs": tool.runs,
    }


def _mutant(pattern, spec, seed):
    def drive(device):
        install(spec, device)
        pattern.workload.run(device, seed)

    return drive


def streams() -> dict:
    """Every pinned digest, keyed ``kind:name:seed``."""
    out = {}
    for workload in REGISTRY:
        for seed in workload.seeds:
            out[f"registry:{workload.name}:{seed}"] = _digest(
                lambda device: workload.run(device, seed)
            )
    lockstep = get_workload(LOCKSTEP_WORKLOAD)
    seed = lockstep.seeds[0]
    out[f"lockstep:{lockstep.name}:{seed}"] = _digest(
        lambda device: lockstep.run(device, seed), LOCKSTEP_GPU
    )
    for pattern in FAULT_PATTERNS:
        seed = pattern.workload.seeds[0]
        for spec in pattern.mutations:
            out[f"mutant:{pattern.name}/{spec.name}:{seed}"] = _digest(
                _mutant(pattern, spec, seed)
            )
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_streams_match_golden(golden):
    got = streams()
    assert list(got) == list(golden)
    for key, entry in got.items():
        assert entry == golden[key], key


def test_golden_covers_every_path(golden):
    kinds = {key.split(":")[0] for key in golden}
    assert kinds == {"registry", "lockstep", "mutant"}
    assert all(entry["records"] > 0 for entry in golden.values())


def _write() -> None:
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(streams(), handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_sim_streams --write")
    _write()
