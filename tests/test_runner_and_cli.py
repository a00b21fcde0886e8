"""Tests for the workload runner, report rendering, and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import IGuard
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import fmt_overhead, render_table, title
from repro.workloads import get_workload, run_suite, run_workload
from repro.workloads.base import Workload
from repro.workloads.runner import detector_name, measured_overhead

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(code_or_args, **env):
    """Run a fresh interpreter on ``src`` with extra environment."""
    environ = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, *code_or_args],
        capture_output=True, text=True, env=environ, timeout=300,
    )


class TestRunner:
    def test_native_run(self):
        result = run_workload(get_workload("b_reduce"), None, seeds=(1,))
        assert result.detector == "native"
        assert result.ran
        assert result.races == 0
        assert result.overhead == pytest.approx(1.0)

    def test_seed_union(self):
        w = get_workload("reduction")
        one = run_workload(w, IGuard, seeds=(1,))
        many = run_workload(w, IGuard, seeds=(1, 2, 3))
        assert many.races >= one.races

    def test_result_breakdown_keys(self):
        result = run_workload(get_workload("b_scan"), IGuard, seeds=(1,))
        assert set(result.breakdown) == {
            "native", "nvbit", "setup", "instrumentation", "detection", "misc"
        }

    def test_measured_overhead_helper(self):
        overhead = measured_overhead(get_workload("b_scan"), IGuard, seeds=(1,))
        assert overhead > 1.0

    def test_race_sites_are_sorted_tuples(self):
        result = run_workload(get_workload("1dconv"), IGuard, seeds=(1,))
        assert result.race_sites == tuple(sorted(result.race_sites))
        ip, race_type = result.race_sites[0]
        assert isinstance(ip, str) and race_type == "AS"

    def test_workload_type_tags(self):
        assert get_workload("conjugGMB").type_tags() == "CG (DR)"
        assert get_workload("uts").type_tags() == "AS, IL"
        assert get_workload("b_scan").type_tags() == ""

    def test_has_races(self):
        assert get_workload("uts").has_races
        assert not get_workload("b_scan").has_races

    def test_run_suite_matches_run_workload(self):
        requests = [
            (get_workload("b_scan"), IGuard, None),
            (get_workload("1dconv"), IGuard, None),
            (get_workload("b_reduce"), None, (1,)),
        ]
        results = run_suite(requests)
        assert results == [
            run_workload(workload, factory, seeds=seeds)
            for workload, factory, seeds in requests
        ]
        assert [r.workload for r in results] == ["b_scan", "1dconv", "b_reduce"]

    def test_run_suite_complex_binary_precheck(self):
        from repro.baselines import Barracuda

        workload = get_workload("louvain")
        assert workload.complex_binary
        result, = run_suite([(workload, Barracuda, None)])
        assert result.status == "unsupported"

    @pytest.mark.parametrize("detector", ["Barracuda", "CURD"])
    def test_replay_refuses_complex_binary_like_live(self, detector):
        import repro.baselines as baselines
        from repro.engine.replay import capture_workload, replay_workload

        factory = getattr(baselines, detector)
        workload = get_workload("cc")
        trace = capture_workload(workload)
        live = run_workload(workload, factory)
        assert live.status == "unsupported"
        assert replay_workload(trace, factory, "cc") == live


class TestDetectorName:
    def test_class_factory_is_not_instantiated(self):
        class Exploding(IGuard):
            name = "exploding"

            def __init__(self):
                raise AssertionError("factory must not be called for a name")

        assert detector_name(Exploding) == "exploding"

    def test_opaque_callable_falls_back(self):
        assert detector_name(lambda: IGuard()) == IGuard.name

    def test_none_is_native(self):
        assert detector_name(None) == "native"


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned widths
        assert "longer" in lines[3]

    def test_render_table_header_separator(self):
        text = render_table(["col"], [["v"]])
        assert "-" in text.splitlines()[1]

    def test_fmt_overhead(self):
        assert fmt_overhead(5.04) == "5.0x"
        assert fmt_overhead(123.456) == "123.5x"

    def test_title_underline(self):
        assert title("abc").splitlines()[1] == "==="


class TestCLI:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table4", "table5", "figure11", "figure12",
            "figure13", "figure14", "motivation",
        }

    def test_cli_runs_one(self, capsys):
        assert cli_main(["motivation"]) == 0
        out = capsys.readouterr().out
        assert "scoped fence" in out.lower()
        assert "[motivation completed" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])

    def test_profile_is_a_switch(self, capsys):
        # ``--profile`` takes no value, so the experiment name after it
        # stays an experiment name.
        assert cli_main(["--profile", "table1"]) == 0
        out = capsys.readouterr().out
        assert "--- cProfile: table1 (top 25) ---" in out
        assert "[table1 completed" in out

    def test_modules_have_run_and_render(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)
            assert callable(module.main)


@pytest.fixture(scope="module")
def torn_trace(tmp_path_factory):
    """A ``.ctr`` trace cut in the middle of its first chunk."""
    from repro.engine import capture_workload

    path = tmp_path_factory.mktemp("traces") / "torn.ctr"
    capture_workload(get_workload("reduction"), seeds=(1,)).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    return str(path)


def _one_error_line(capsys):
    captured = capsys.readouterr()
    errors = [
        line for line in captured.err.splitlines() if line.startswith("error:")
    ]
    assert len(errors) == 1, captured.err
    assert "Traceback" not in captured.err
    return errors[0]


class TestTraceFileErrors:
    """A bad trace file ends ``trace``/``explain`` with exit 2, one line."""

    @pytest.mark.parametrize("argv, salvage", [
        (["trace", "replay"], False),
        (["trace", "info"], True),
        (["trace", "convert"], True),
        (["explain", "--trace"], False),
    ])
    def test_torn_trace(self, torn_trace, tmp_path, capsys, argv, salvage):
        extra = [str(tmp_path / "out.ctr")] if argv[1] == "convert" else []
        assert cli_main(argv + [torn_trace] + extra) == 2
        line = _one_error_line(capsys)
        assert torn_trace in line
        assert "block 2" in line and "byte offset" in line
        assert ("--salvage" in line) is salvage

    @pytest.mark.parametrize("argv", [
        ["trace", "replay"], ["trace", "info"], ["explain", "--trace"],
    ])
    def test_missing_trace(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.ctr")
        assert cli_main(argv + [missing]) == 2
        line = _one_error_line(capsys)
        assert missing in line and "No such file" in line

    @pytest.mark.parametrize("argv", [
        ["trace", "replay"], ["trace", "info"], ["explain", "--trace"],
    ])
    def test_jsonl_trace_is_rejected(self, tmp_path, capsys, argv):
        legacy = tmp_path / "old.jsonl"
        legacy.write_text('{"t":"run","seed":1}\n')
        assert cli_main(argv + [str(legacy)]) == 2
        line = _one_error_line(capsys)
        assert str(legacy) in line and ".ctr or .ctr.gz" in line


class TestEntryPoints:
    @pytest.mark.parametrize("argv", [
        ["-m", "repro.workloads.runner", "--workload", "reduction"],
        ["-m", "repro.experiments.cli", "motivation"],
        ["-m", "repro.faults.fuzz", "--inputs", "1"],
        ["-m", "repro.experiments.table1"],
        ["-m", "repro.faults.recall", "--workloads", "warp-exchange"],
    ])
    def test_bad_log_level_exits_2_with_one_line(self, argv):
        done = _python(argv, IGUARD_LOG="verbose")
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        # ``python -m`` on a package submodule may add runpy's harmless
        # RuntimeWarning line; the entry point itself writes one line.
        lines = [
            line for line in done.stderr.splitlines()
            if not line.startswith("<frozen runpy>")
        ]
        assert len(lines) == 1, done.stderr
        assert "IGUARD_LOG" in lines[0] and "verbose" in lines[0]
        assert "debug, info, warn, warning, error" in lines[0]

    def test_entry_points_import_no_process_or_server_machinery(self):
        done = _python([
            "-c",
            "import sys, repro.experiments.cli, repro.workloads.runner; "
            "print(sorted({'multiprocessing', 'http.server'} "
            "& set(sys.modules)))",
        ])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def _argparse_exit(main, argv, capsys):
    """Run ``main(argv)``; it must exit 2 with one ``error:`` line."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1, captured.err
    assert "Traceback" not in captured.err
    return errors[0]


class TestArgumentErrors:
    """A bad workload name or seed list exits 2 with one error line."""

    @pytest.mark.parametrize("argv, message", [
        (["--workload", "nope"], "unknown workload 'nope'"),
        (["--workload", "reduction", "--seeds", "x"], "value: 'x'"),
    ])
    def test_runner(self, capsys, argv, message):
        from repro.workloads.runner import main

        assert message in _argparse_exit(main, argv, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["--workload", "nope"], "unknown workload 'nope'"),
        (["--workload", "reduction", "--seeds", "1,x"], "value: '1,x'"),
    ])
    def test_trace_capture(self, capsys, tmp_path, argv, message):
        argv = ["trace", "capture", "--out", str(tmp_path / "t.ctr")] + argv
        assert message in _argparse_exit(cli_main, argv, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["--workload", "nope"], "unknown workload 'nope'"),
        (["--workload", "reduction", "--seeds", "x"], "value: 'x'"),
    ])
    def test_explain(self, capsys, argv, message):
        assert message in _argparse_exit(cli_main, ["explain"] + argv, capsys)

    def test_recall(self, capsys):
        from repro.faults.recall import main

        line = _argparse_exit(main, ["--workloads", "nope"], capsys)
        assert "unknown fault pattern 'nope'" in line


class TestReplayReport:
    def test_trace_replay_writes_the_quarantine_block(self, tmp_path):
        # The runner's report writer: a replay that absorbed a poison
        # event reports it exactly as a live run would.
        import json

        from repro.engine import capture_workload
        from repro.engine.coltrace import save_columnar
        from repro.faults import quarantine
        from repro.gpu.events import LaunchEvent, MemoryEvent

        workload = get_workload("reduction")
        events = list(capture_workload(workload, seeds=workload.seeds[:1]))
        first_memory = next(
            i for i, e in enumerate(events) if isinstance(e, MemoryEvent)
        )
        first_launch = next(
            i for i, e in enumerate(events) if isinstance(e, LaunchEvent)
        )
        events.insert(first_launch, events.pop(first_memory))
        path = tmp_path / "poison.ctr"
        save_columnar(events, path)
        report = tmp_path / "r.json"
        quarantine.reset()
        try:
            assert cli_main([
                "trace", "replay", str(path), "--report-json", str(report),
            ]) == 0
        finally:
            quarantine.reset()
        payload = json.loads(report.read_text())
        assert payload["quarantine"] == {"events": 1, "kinds": {"TypeError": 1}}
