"""Per-layer wall-clock ledger: timing spans around each layer's entry points.

The traced pass installs a wrapper around every public callable listed in
:data:`LAYERS` (class methods and module functions, looked up by the
program at call time), so no code under ``src/`` changes.  Each wrapper
opens a span on one shared stack; when it closes, its duration is added
to the parent's child time, and its *self time* — duration minus the
time its child spans cover — is added to its entry point's account.  A
cell's root span (``run_workload`` or ``replay_columnar_sharded``) has no
parent inside the cell, so the self times of all spans in a cell sum to
the root's duration exactly; what the root fails to cover of the cell's
measured wall is the ledger's unattributed share.

Spans live in memory: per-event entry points run hundreds of thousands
of times a pass, so each cell keeps one ``[calls, self_ns, total_ns]``
account per entry point rather than one record per call.  The accounts
are written out as JSON when the benchmark ends.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Tuple

_clock = time.perf_counter_ns


def _layers():
    """(layer, owner, attribute names) for every timed entry point.

    Imported lazily: the ledger module itself must import nothing of the
    program, so the benchmark's set-up timer covers every program import.
    """
    from repro.core import sharding
    from repro.core.contention import ContentionModel
    from repro.core.detector import IGuard
    from repro.core.engine import IGuardCore
    from repro.core.report import RaceLog
    from repro.core.uvm import ManagedMetadataSpace
    from repro.engine import coltrace, replay
    from repro.engine.bus import EventBus
    from repro.engine.trace import Trace
    from repro.gpu.device import Device
    from repro.workloads import runner

    return [
        ("runner", runner, ("run_workload",)),
        ("gpu", Device, ("launch", "alloc")),
        ("bus", EventBus, (
            "publish_alloc", "publish_launch_begin", "publish_memory",
            "publish_sync", "publish_launch_end", "publish_timeout",
            "publish_kernel_end",
        )),
        ("detector", IGuard, (
            "on_memory", "on_sync", "on_launch_begin", "on_launch_end",
            "on_timeout",
        )),
        ("contention", ContentionModel, ("on_metadata_access",)),
        ("uvm", ManagedMetadataSpace, ("access",)),
        ("engine", IGuardCore, (
            "handle", "check_run", "drain_batch", "apply_sync",
            "infer_locks", "begin_launch", "finish_launch",
        )),
        ("sharding", sharding, ("replay_columnar_sharded",)),
        ("coltrace", coltrace, ("iter_chunks",)),
        ("coltrace", coltrace.Chunk, ("events", "mem_routes")),
        ("coltrace", Trace, ("save",)),
        ("replay", replay, ("capture_workload",)),
        ("report", RaceLog, ("report", "flush")),
    ]


#: Every layer the ledger reports, in event-path order.  ``workloads`` is
#: the host drivers (``Workload.run``), wrapped per cell by
#: :meth:`Ledger.wrap_workload` because it is a dataclass field.
LAYER_NAMES = (
    "runner", "workloads", "gpu", "bus", "detector", "contention", "uvm",
    "engine", "sharding", "coltrace", "replay", "report",
)

#: Generator functions: each ``next()`` is a span, not the call.
_GENERATORS = {"iter_chunks"}

Account = List[int]  # [calls, self_ns, total_ns]


class Ledger:
    """Span stack plus one account per ``layer:Owner.name`` entry point."""

    def __init__(self):
        #: Child-time accumulators of the open spans; the bottom frame
        #: collects spans that close outside any root.
        self._stack: List[List[int]] = [[0]]
        self.accounts: Dict[str, Account] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def timed(self, entry: str, fn):
        """``fn`` wrapped in a span charged to ``entry``."""
        account = self.accounts.setdefault(entry, [0, 0, 0])
        stack = self._stack
        clock = _clock

        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                account[0] += 1
                account[1] += duration - frame[0]
                account[2] += duration

        return span

    def timed_iter(self, entry: str, fn):
        """A generator function whose every ``next()`` is a span."""
        timed = self.timed

        def spans(*args, **kwargs):
            step = timed(entry, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return spans

    def wrap_workload(self, workload):
        """A copy of ``workload`` whose host driver runs in a span."""
        return replace(
            workload, run=self.timed("workloads:Workload.run", workload.run)
        )

    # -- accounts ----------------------------------------------------------

    def take(self) -> Dict[str, Account]:
        """The accounts since the last take (zeroed afterwards)."""
        taken = {k: list(v) for k, v in self.accounts.items() if v[0]}
        for account in self.accounts.values():
            account[:] = [0, 0, 0]
        return taken

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, owner, names in _layers():
            for name in names:
                own = name in vars(owner)
                original = vars(owner)[name] if own else getattr(owner, name)
                wrap = self.timed_iter if name in _GENERATORS else self.timed
                label = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
                setattr(
                    owner, name,
                    wrap(f"{layer}:{label}.{name}", getattr(owner, name)),
                )
                self._patches.append((owner, name, original, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_of(entry: str) -> str:
    return entry.split(":", 1)[0]


def by_layer(accounts: Dict[str, Account]) -> Dict[str, Account]:
    """Fold entry-point accounts into per-layer accounts."""
    layers: Dict[str, Account] = {name: [0, 0, 0] for name in LAYER_NAMES}
    for entry, (calls, self_ns, total_ns) in accounts.items():
        account = layers[layer_of(entry)]
        account[0] += calls
        account[1] += self_ns
        account[2] += total_ns
    return layers


def merge(into: Dict[str, Account], accounts: Dict[str, Account]) -> None:
    for entry, values in accounts.items():
        account = into.setdefault(entry, [0, 0, 0])
        for i, value in enumerate(values):
            account[i] += value
