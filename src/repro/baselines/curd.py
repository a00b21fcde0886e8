"""CURD: Barracuda's compiler-directed fast path (PLDI'18).

CURD observes that traditional bulk-synchronous kernels synchronize with
*threadblock barriers only*.  For those, compiler-inserted source
instrumentation aggregates race checks per barrier interval, cutting the
overhead to ~3x.  The moment a kernel uses an atomic or a fence, CURD
"falls back to Barracuda for everything else" — the full serialized
CPU-side pass, with all of Barracuda's costs and limitations.

We model this adaptively: events are charged at the cheap fast-path rate
until the first atomic or fence appears, after which the launch is
permanently in fallback mode (and the events seen so far are recharged at
Barracuda rates, as the real tool would have run them under Barracuda all
along).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.barracuda import Barracuda, BarracudaCosts
from repro.gpu.events import MemoryEvent, AccessKind, SyncEvent, SyncKind
from repro.instrument.nvbit import LaunchInfo
from repro.instrument.timing import Category


@dataclass(frozen=True)
class CURDCosts(BarracudaCosts):
    """Fast-path cost constants on top of the Barracuda base costs."""

    #: Serial CPU cycles per event on the barrier-only fast path: checks
    #: are aggregated per barrier interval instead of per access.
    fast_cpu_per_event: float = 0.08


class CURD(Barracuda):
    """CURD = cheap barrier-only detection + Barracuda fallback."""

    name = "CURD"

    def __init__(
        self,
        costs: CURDCosts = CURDCosts(),
        event_budget: int = 12_000,
    ):
        super().__init__(costs=costs, event_budget=event_budget)
        self.fallback = False
        self._fast_path_events = 0

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        super().on_launch_begin(launch)
        self.fallback = False
        self._fast_path_events = 0

    def _enter_fallback(self, launch: LaunchInfo) -> None:
        """First atomic/fence: this kernel runs under Barracuda proper."""
        if not self.fallback:
            self.fallback = True
            # Recharge the fast-path events at the Barracuda rate.
            delta = self.costs.cpu_per_event - self.costs.fast_cpu_per_event
            launch.timing.charge(
                Category.DETECTION, delta * self._fast_path_events, serial=True
            )

    def _charge_event(self, launch: LaunchInfo) -> None:
        if self.fallback:
            super()._charge_event(launch)
            return
        launch.timing.charge(
            Category.INSTRUMENTATION, self.costs.instrument_per_event
        )
        launch.timing.charge(
            Category.DETECTION,
            self.costs.ship_per_event + self.costs.fast_cpu_per_event,
            serial=True,
        )
        self.events_processed += 1
        self._fast_path_events += 1

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        if event.kind is AccessKind.ATOMIC:
            self._enter_fallback(launch)
        super().on_memory(event, launch)

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        if event.kind is SyncKind.FENCE:
            self._enter_fallback(launch)
        super().on_sync(event, launch)
