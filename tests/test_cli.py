"""The command-line front end."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transmit_defaults(self):
        args = build_parser().parse_args(["transmit"])
        assert args.message == "UFS!"
        assert args.interval_ms == 28.0
        assert not args.cross_processor

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "9", "transmit"])
        assert args.seed == 9

    def test_every_command_registered(self):
        parser = build_parser()
        for command in ("transmit", "characterize", "capacity",
                        "stress", "defenses", "fingerprint",
                        "filesize"):
            args = parser.parse_args([command])
            assert callable(args.handler)


class TestExecution:
    def test_transmit_runs(self, capsys):
        code = main(["--seed", "7", "transmit", "--message", "A",
                     "--interval-ms", "28"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sent:" in out
        assert "capacity" in out

    def test_transmit_traffic_mode(self, capsys):
        code = main(["--seed", "7", "transmit", "--message", "A",
                     "--traffic"])
        assert code == 0
        assert "BER" in capsys.readouterr().out

    def test_filesize_runs(self, capsys):
        code = main(["--seed", "3", "filesize", "--steps", "3",
                     "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "%" in out

    def test_compare_grades_the_papers_77_cells(self, capsys,
                                                monkeypatch):
        # The matrix itself is the Table 3 bench's job; a stub that
        # answers every cell as the paper does leaves only the grading.
        from repro.channels import comparison
        from repro.channels.scenarios import SCENARIOS

        def paper_matrix(**_):
            return [
                comparison.ComparisonCell(
                    channel=channel_cls.name, scenario=scenario.key,
                    functional=comparison.PAPER_TABLE3[
                        channel_cls.name].get(scenario.key, True),
                    error_rate=0.0,
                )
                for channel_cls in comparison.ALL_CHANNELS
                for scenario in SCENARIOS
            ]

        monkeypatch.setattr(comparison, "comparison_matrix", paper_matrix)
        assert main(["compare", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["paper_agreement"] == {"matched": 77, "graded": 77}
        assert len(results["cells"]) == 11 * len(SCENARIOS)

    def test_defenses_runs(self, capsys):
        code = main(["--seed", "21", "defenses", "--bits", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restricted_1500_1700" in out
        assert "functional" in out


class TestBadSizes:
    """A size that leaves nothing to measure is one ``error:`` line and
    exit 2, never a made-up result or a traceback."""

    @pytest.mark.parametrize("argv", [
        ["capacity", "--bits", "0", "--intervals", "20"],
        ["capacity", "--bits", "-3", "--intervals", "20"],
        ["capacity", "--bits", "0", "--backend", "batch"],
        ["capacity", "--bits", "0", "--backend", "analytical"],
        ["defenses", "--bits", "0"],
        ["defenses", "--bits", "0", "--backend", "batch"],
        ["defenses", "--bits", "0", "--backend", "analytical"],
        ["transmit", "--message", ""],
        ["stress", "--threads", "0"],
        ["stress", "--threads", "-1"],
        ["fingerprint", "--sites", "0"],
        ["fingerprint", "--sites", "2", "--trace-ms", "0"],
        ["fingerprint", "--sites", "2", "--trace-ms", "-1"],
        ["filesize", "--steps", "0"],
        ["filesize", "--steps", "-2"],
        ["filesize", "--steps", "1", "--trials", "0"],
    ])
    def test_rejected_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_empty_filesize_study_records_nothing(self, tmp_path,
                                                  capsys):
        store = tmp_path / "store"
        assert main(["trace", "record", "filesize", "--steps", "0",
                     "--cache-dir", str(store)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not list(store.glob("blobs/*.uftc"))

    @pytest.mark.parametrize("shape", [
        dict(sizes_kb=()),
        dict(calibration_runs=0),
        dict(trials=-1),
    ])
    def test_empty_filesize_study_rejected_before_any_system(
            self, shape, monkeypatch):
        from repro.errors import ConfigError
        from repro.platform.system import System
        from repro.sidechannel import run_filesize_study

        def no_work(*args, **kwargs):
            raise AssertionError("a System was built before validation")

        monkeypatch.setattr(System, "__init__", no_work)
        with pytest.raises(ConfigError, match="file-size study"):
            run_filesize_study(**shape)


CAPACITY_FAST = ["capacity", "--bits", "8", "--intervals", "28", "24"]


class TestTelemetry:
    def test_json_mode_emits_manifest(self, capsys):
        code = main(CAPACITY_FAST + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        manifest = json.loads(out)
        assert manifest["experiment"] == "capacity"
        counters = manifest["metrics"]["counters"]
        assert counters["engine.events_fired"] > 0
        assert counters["ufs.evaluations"] > 0
        assert counters["cache.loads"] > 0
        assert len(manifest["results"]["points"]) == 2
        assert "peak_capacity_bps" in manifest["results"]["summary"]

    def test_json_mode_suppresses_table(self, capsys):
        code = main(CAPACITY_FAST + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "capacity sweep" not in out  # no human table

    def test_telemetry_appends_jsonl(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        for _ in range(2):
            assert main(CAPACITY_FAST + ["--telemetry",
                                         str(log)]) == 0
        capsys.readouterr()
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["config_digest"] == second["config_digest"]
        assert (first["metrics"]["counters"]
                == second["metrics"]["counters"])

    def test_results_identical_with_telemetry_on_and_off(self,
                                                         tmp_path,
                                                         capsys):
        from repro.core.evaluation import capacity_sweep

        log = tmp_path / "runs.jsonl"
        assert main(CAPACITY_FAST + ["--telemetry", str(log),
                                     "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        plain = capacity_sweep(intervals_ms=(28.0, 24.0), bits=8,
                               seed=0)
        reported = manifest["results"]["points"]
        assert [p.capacity_bps for p in plain.points] == [
            p["capacity_bps"] for p in reported
        ]
        assert [p.error_rate for p in plain.points] == [
            p["error_rate"] for p in reported
        ]

    def test_stress_json_mode(self, capsys):
        code = main(["stress", "--threads", "1", "--bits", "8",
                     "--json"])
        manifest = json.loads(capsys.readouterr().out)
        assert code == 0
        assert manifest["experiment"] == "stress"
        assert len(manifest["results"]["cells"]) == 1
        assert manifest["metrics"]["counters"]["channel.bits_sent"] == 8
