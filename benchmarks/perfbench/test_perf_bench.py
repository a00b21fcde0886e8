"""Tests of the benchmark's own machinery, at reduced sizes.

Run from the repository root::

    python -m pytest benchmarks/perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cells  # noqa: E402
import harness  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import run as bench_run  # noqa: E402
from benchmarks.validate_schema import validate  # noqa: E402
from repro.workloads import runner  # noqa: E402
from repro.workloads.registry import REGISTRY, get_workload  # noqa: E402


def _small_stream(seed):
    return cells.stream_workloads(seed, cells=1, region=64, grid=2, block=16)


def _small_lock(seed):
    return cells.lock_workloads(seed, cells=2, launches=1, rounds=1)


def _outcome(cell):
    return cell.harvest(cell.drive())


# -- generated workloads ------------------------------------------------------


@pytest.mark.parametrize("make", [_small_stream, _small_lock])
@pytest.mark.parametrize("seed", [1, 5])
def test_generated_workloads_are_race_free_and_deterministic(make, seed):
    named = make(seed)
    assert cells._digest(named) == cells._digest(make(seed))
    assert cells._digest(named) != cells._digest(make(seed + 1))
    for key, workload, sched_seed in named:
        first = _outcome(cells.LiveCell(key, workload, sched_seed))
        again = _outcome(cells.LiveCell(key, workload, sched_seed))
        assert first.sites == {}
        assert first.events > 0
        assert (again.events, again.total_cycles) == (first.events, first.total_cycles)


def test_replay_cells_match_live_cells(tmp_path):
    named = _small_stream(3)
    prepared = cells._captured(named, str(tmp_path))
    assert prepared.encoded_events > 0 and prepared.encoded_bytes > 0
    assert prepared.digest == cells._captured(named, str(tmp_path)).digest
    for (key, workload, seed), replay_cell in zip(named, prepared.cells):
        live = _outcome(cells.LiveCell(key, workload, seed))
        replayed = _outcome(replay_cell)
        assert harness.check_outcome(replayed, vars(live), generated=True) == []


# -- timing helpers -------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _FakeCell:
    def __init__(self, clock, times, enter_cost=0.0):
        self.clock = clock
        self.times = iter(times)
        self.enter_cost = enter_cost

    def drive(self):
        self.clock.now += next(self.times)
        return "raw"

    def enter(self):
        self.clock.now += self.enter_cost

    def leave(self):
        self.clock.now += self.enter_cost


def test_best_of_rounds_keeps_each_fastest_and_stops_on_time():
    # Rounds take 5, 3 and 7 s; a round starts only while one more round
    # of the last round's length still fits in ``seconds``.
    for seconds, rounds_run in ((12, 3), (9, 2), (0, 2)):
        clock = _Clock()
        cells_ = [_FakeCell(clock, [3, 1, 2]), _FakeCell(clock, [2, 2, 5])]
        best, rounds = harness.best_of_rounds(
            cells_, seconds, on_result=lambda *a: None, min_rounds=2, clock=clock
        )
        assert (best, rounds) == ([1, 2], rounds_run)


def test_best_of_rounds_times_only_the_drive():
    clock = _Clock()
    seen = []
    best, rounds = harness.best_of_rounds(
        [_FakeCell(clock, [3, 1], enter_cost=100)], seconds=0,
        on_result=lambda index, raw, elapsed: seen.append((index, raw, elapsed)),
        min_rounds=2, clock=clock,
    )
    assert (best, rounds) == ([1], 2)
    assert seen == [(0, "raw", 3), (0, "raw", 1)]


def test_percentile_and_geomean():
    assert harness.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert harness.percentile([4, 1, 3, 2], 0.9) == pytest.approx(3.7)
    assert harness.percentile([7.0], 0.9) == 7.0
    assert harness.percentile(list(range(101)), 0.9) == 90
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    assert harness.geomean([2, 8]) == pytest.approx(4.0)


# -- correctness gate ---------------------------------------------------------


def test_pins_cover_every_registry_cell_and_match_table4():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    keys = [key for key, _, _ in cells.table_cells()]
    assert len(keys) == 129 and sorted(expected["table"]) == sorted(keys)
    outcomes = {k: SimpleNamespace(sites=v["sites"]) for k, v in expected["table"].items()}
    assert harness.union_races(outcomes, REGISTRY) == (57, [])
    for section in ("stream-large", "lock-live"):
        assert all(not pin["sites"] for pin in expected[section].values())


def test_check_outcome_flags_each_mismatch():
    pin = {"sites": {"k:1": "DR"}, "events": 10, "total_cycles": 100.0, "native_cycles": 50.0}
    good = SimpleNamespace(**pin)
    assert harness.check_outcome(good, pin, generated=False) == []
    close = SimpleNamespace(**{**pin, "total_cycles": 100.0 * (1 + 1e-12)})
    assert harness.check_outcome(close, pin, generated=False) == []
    bad = SimpleNamespace(sites={}, events=11, total_cycles=101.0, native_cycles=50.0)
    assert len(harness.check_outcome(bad, pin, generated=False)) == 3
    racy = SimpleNamespace(**pin)
    assert harness.check_outcome(racy, None, generated=True)


# -- ledger ---------------------------------------------------------------------


def _traced_cell(led):
    workload = get_workload("reduction")
    return cells.LiveCell("reduction/s1", led.wrap_workload(workload), 1)


def test_ledger_self_times_sum_to_the_root_span():
    led = ledger_mod.Ledger()
    cell = _traced_cell(led)
    original = runner.run_workload
    with led:
        begin = time.perf_counter_ns()
        cell.drive()
        wall = time.perf_counter_ns() - begin
    assert runner.run_workload is original
    accounts = led.take()
    root = accounts["runner:runner.run_workload"]
    assert root[0] == 1
    self_total = sum(account[1] for account in accounts.values())
    assert abs(self_total - root[2]) <= 0.01 * root[2]
    assert wall - root[2] <= 0.01 * wall
    layers = ledger_mod.by_layer(accounts)
    for layer in ("runner", "workloads", "gpu", "bus", "detector", "engine", "report"):
        assert layers[layer][0] > 0, layer
    assert led.take() == {}


def test_traced_result_validates_against_the_schema():
    led = ledger_mod.Ledger()
    cell = _traced_cell(led)
    with led:
        begin = time.perf_counter_ns()
        raw = cell.drive()
        wall = time.perf_counter_ns() - begin
    outcome = cell.harvest(raw)
    prepared = cells.Prepared([cell], digest="")
    metrics = bench_run._layer_metrics(
        led.take(), wall, outcome.events, [outcome], 1, prepared, {}
    )
    metrics["trace.overhead_pct"] = bench_run._metric(10.0, "%")
    doc = {
        "workload": "table-live", "mode": "traced", "seed": 1, "seconds": 1.0,
        "rounds": 1, "cells": 1, "events": outcome.events,
        "env": {"python": "3", "nproc": 1, "git_sha": None, "platform": "x"},
        "correct": True, "attempted": 1, "failed": 0, "metrics": metrics,
        "details": {"spans": "out/x.json", "import_s": 0.1, "setup_reps_s": [0.1],
                    "warmup_s": 0.1, "problems": []},
    }
    with open(os.path.join(HERE, "result.schema.json"), encoding="utf-8") as handle:
        schema = json.load(handle)
    assert validate(doc, schema) == []
    del doc["metrics"]["engine.ns_per_check"]
    assert validate(doc, schema)


def test_untraced_result_validates_against_the_schema():
    metric = {"value": 1.5, "unit": "x"}
    names = ("events_per_s", "report_ms_p50", "setup_s", "peak_rss_mb",
             "fail_rate", "sim_overhead_x")
    doc = {
        "workload": "lock-live", "mode": "untraced", "seed": 2, "seconds": 1.0,
        "rounds": 2, "cells": 8, "events": 100,
        "env": {"python": "3", "nproc": 1, "git_sha": "abc", "platform": "x"},
        "correct": True, "attempted": 24, "failed": 0,
        "metrics": {name: metric for name in names},
        "details": {"samples": {"report_ms_p50": 8}, "import_s": 0.1,
                    "setup_reps_s": [0.1], "warmup_s": 0.1, "problems": []},
    }
    with open(os.path.join(HERE, "result.schema.json"), encoding="utf-8") as handle:
        assert validate(doc, json.load(handle)) == []


# -- environment guard ----------------------------------------------------------


def test_environment_guard_rejects_shards(monkeypatch, capsys):
    assert harness.environment_problems({"IGUARD_SHARDS": "2"}) == ["IGUARD_SHARDS"]
    assert harness.environment_problems({"IGUARD_SHARDS": "", "IGUARD_LOG": "1"}) == []
    monkeypatch.setenv("IGUARD_SHARDS", "2")
    assert bench_run.main(["--workload", "table-live", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert "IGUARD_SHARDS" in out.err and out.out == ""
