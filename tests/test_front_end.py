"""iGUARD's one front-end loop, pinned from every way it is fed.

Live runs, sliced replays (:func:`repro.engine.replay.replay`) and
columnar replays all run :meth:`repro.core.detector.IGuard.feed`.  Three contracts:

- **golden reports** — ``tests/golden/front_end_reports.json`` pins, for
  ``IGuard`` and ``ScoRD`` (whose per-access costs are fractional) on
  every registry workload at its first seed, each launch's newly
  reported race sites and types, its ``LaunchStats`` fields, and the
  parallel and serial cycles of every Figure 13 category as
  ``float.hex``.  The file was recorded from an implementation that
  checked and charged each access the moment it arrived; the live
  runner, sliced replay and columnar replay must each reproduce it
  exactly;
- **truncated streams** — a stream that ends mid-launch (a torn trace,
  or a deadlock that cut the capture) still has every check of that
  launch run and reported;
- **metrics** — the front end's ``detector.*`` counters come out equal
  whether the stream is replayed in slices or from columnar chunks.

Regenerate the golden file (only when detection or cost semantics are
meant to change)::

    PYTHONPATH=src python -m tests.test_front_end --write
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import fields

import pytest

from repro.baselines.scord import ScoRD
from repro.core import IGuard
from repro.core.sharding import replay_columnar_sharded
from repro.engine.coltrace import save_columnar
from repro.engine.replay import capture_workload, replay
from repro.gpu.events import KernelEndEvent
from repro.obs import metrics
from repro.workloads.registry import REGISTRY, get_workload
from repro.workloads.runner import run_workload

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "front_end_reports.json"
)
DETECTORS = {"IGuard": IGuard, "ScoRD": ScoRD}


def _recorder(base):
    """``base`` that snapshots its race sites at every launch end."""

    class Recorder(base):
        def __init__(self):
            super().__init__()
            self.sites_at_end = []

        def on_launch_end(self, launch):
            super().on_launch_end(launch)
            self.sites_at_end.append(self.core.races.sites())

        def on_timeout(self, launch):
            super().on_timeout(launch)
            self.sites_at_end.append(self.core.races.sites())

    Recorder.name = base.name
    return Recorder


def _value(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    return value


def _report(tool) -> dict:
    """Per launch: new sites, stats and timing accounts, in launch order."""
    stats = tool.stats
    runs = tool.device.runs
    ends = tool.sites_at_end + [tool.races.sites()]
    launches = []
    seen = set()
    for index, launch_stats in enumerate(stats):
        sites = ends[min(index, len(ends) - 1)]
        new = [[ip, str(t)] for ip, t in sites if ip not in seen]
        seen.update(ip for ip, _ in sites)
        entry = {
            "new_sites": new,
            "stats": {
                f.name: _value(getattr(launch_stats, f.name))
                for f in fields(launch_stats)
            },
        }
        if index < len(runs):
            entry["timing"] = {
                category.value: [account.parallel.hex(), account.serial.hex()]
                for category, account in runs[index].timing.accounts.items()
            }
        launches.append(entry)
    return {
        "sites": [[ip, str(t)] for ip, t in tool.races.sites()],
        "launches": launches,
    }


def _live(workload, detector):
    built = []
    recorder = _recorder(detector)

    def factory():
        built.append(recorder())
        return built[-1]

    factory.name = detector.name
    run_workload(workload, factory, seeds=workload.seeds[:1])
    return _report(built[-1])


def _events(workload):
    return list(capture_workload(workload, seeds=workload.seeds[:1]))


def _bus(events, detector):
    tool = _recorder(detector)()
    replay(events, tool)
    return _report(tool)


def _columnar(events, detector, path):
    save_columnar(events, path, chunk_rows=256)
    return _report(replay_columnar_sharded(str(path), _recorder(detector)).tool)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def captured():
    return {w.name: _events(w) for w in REGISTRY}


class TestGoldenReports:
    def test_covers_registry(self, golden):
        names = [w.name for w in REGISTRY]
        for detector in DETECTORS:
            assert list(golden[detector]) == names

    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    def test_live_runner(self, golden, detector):
        for workload in REGISTRY:
            got = _live(workload, DETECTORS[detector])
            assert got == golden[detector][workload.name], workload.name

    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    def test_bus_replay(self, golden, captured, detector):
        for workload in REGISTRY:
            got = _bus(captured[workload.name], DETECTORS[detector])
            assert got == golden[detector][workload.name], workload.name

    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    def test_columnar_replay(self, golden, captured, detector, tmp_path):
        for workload in REGISTRY:
            got = _columnar(
                captured[workload.name], DETECTORS[detector],
                tmp_path / f"{workload.name}.ctr",
            )
            assert got == golden[detector][workload.name], workload.name


#: (race sites, dynamic race records) at the first seed with the final
#: ``KernelEndEvent`` dropped — the counts checking every access on
#: arrival gives.
TRUNCATED = {"reduction": (7, 18), "graph-color": (6, 6), "hashtable": (2, 2)}


class TestTruncatedStream:
    @pytest.mark.parametrize("feed", ["bus", "ctr"])
    @pytest.mark.parametrize("name", sorted(TRUNCATED))
    def test_last_launch_checks_survive(self, name, feed, tmp_path):
        events = _events(get_workload(name))
        last_end = max(
            i for i, e in enumerate(events) if isinstance(e, KernelEndEvent)
        )
        del events[last_end]
        if feed == "bus":
            tool = IGuard()
            replay(events, tool)
        else:
            path = tmp_path / "torn.ctr"
            save_columnar(events, path, chunk_rows=256)
            tool = replay_columnar_sharded(str(path)).tool
        races = tool.races
        assert (races.num_sites, len(races.records())) == TRUNCATED[name]


FRONT_END_COUNTERS = (
    "detector.accesses_coalesced",
    "detector.uvm.faults",
    "detector.contention.stalled_accesses",
    "detector.contention.serialized_cycles",
)


class TestMetricFold:
    @pytest.fixture
    def registry(self):
        metrics.set_enabled(True)
        metrics.get_registry().reset()
        yield metrics.get_registry()
        metrics.set_enabled(False)
        metrics.get_registry().reset()

    def test_bus_and_columnar_counters_equal(self, registry, tmp_path):
        events = _events(get_workload("matrix-mult"))
        path = tmp_path / "mm.ctr"
        save_columnar(events, path, chunk_rows=256)

        def counters(run):
            registry.reset()
            run()
            snapshot = registry.snapshot()
            return tuple(snapshot[n]["value"] for n in FRONT_END_COUNTERS)

        bus = counters(lambda: replay(events, IGuard()))
        columnar = counters(lambda: replay_columnar_sharded(str(path)))
        assert bus == columnar
        # 298 metadata-lock stalls, as counted access by access.
        assert bus[2] == 298


def _write():
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{")
        for d, (label, detector) in enumerate(sorted(DETECTORS.items())):
            handle.write(f"{',' if d else ''}\n{json.dumps(label)}: {{")
            for w, workload in enumerate(REGISTRY):
                # One launch per line keeps the file diffable.
                report = _live(workload, detector)
                launches = ",\n".join(
                    json.dumps(entry, sort_keys=True)
                    for entry in report["launches"]
                )
                handle.write(
                    f"{',' if w else ''}\n{json.dumps(workload.name)}: "
                    f'{{"sites": {json.dumps(report["sites"])}, '
                    f'"launches": [\n{launches}\n]}}'
                )
            handle.write("\n}")
        handle.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_front_end --write")
    _write()
