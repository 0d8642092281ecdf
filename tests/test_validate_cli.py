"""The ``repro validate`` subcommand: fuzz, canary, replay, diff.

End-to-end CLI coverage: exit codes, the planted-fault canary flow
(plant → repro file → replay), the JSON contract and the flag plumbing
(``--seed``/``--workers`` accepted after the subcommand).  These tests
drive :func:`repro.cli.main` exactly the way CI does.
"""

import json

import pytest

from repro.cli import build_parser, main

SMALL = ["validate", "--scenarios", "3"]


class TestParser:
    def test_validate_is_registered(self):
        args = build_parser().parse_args(SMALL)
        assert callable(args.handler)
        assert args.scenarios == 3

    def test_seed_and_workers_accepted_after_subcommand(self):
        args = build_parser().parse_args(
            ["validate", "--seed", "7", "--workers", "2"]
        )
        assert args.seed == 7
        assert args.workers == 2

    def test_global_seed_survives_when_not_repeated(self):
        args = build_parser().parse_args(["--seed", "5", "validate"])
        assert args.seed == 5

    def test_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.scenarios == 100
        assert args.plant_fault is None
        assert args.replay is None
        assert not args.differential


class TestFuzzRuns:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["--seed", "2", *SMALL]) == 0
        assert "3/3 scenarios clean" in capsys.readouterr().out

    def test_seed_flag_after_subcommand(self, capsys):
        assert main([*SMALL, "--seed", "2"]) == 0
        assert "seed 2" in capsys.readouterr().out

    def test_json_contract(self, capsys):
        assert main([*SMALL, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "validate"
        assert payload["results"]["scenarios"] == 3
        assert payload["results"]["violations"] == 0

    def test_unknown_fault_is_a_clean_error(self, capsys):
        assert main([*SMALL, "--plant-fault", "nonsense"]) == 2
        assert "unknown fault" in capsys.readouterr().err


class TestPlantedFaultCanary:
    def test_plant_shrink_replay_loop(self, tmp_path, capsys):
        repro_dir = tmp_path / "repros"
        # 1. Plant: every scenario trips the grid oracle; exit 2.
        assert main([*SMALL, "--plant-fault", "off-grid-step",
                     "--repro-dir", str(repro_dir)]) == 2
        captured = capsys.readouterr()
        assert "repro file:" in captured.out
        repro_files = list(repro_dir.glob("repro-*.json"))
        assert len(repro_files) == 1
        # 2. The repro is minimal: at most 3 non-default parameters.
        payload = json.loads(repro_files[0].read_text())
        assert payload["fault"] == "off-grid-step"
        assert len(payload["non_default_params"]) <= 3
        # 3. Replay: the recorded failure still reproduces; exit 0.
        assert main(["validate", "--replay", str(repro_files[0])]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "frequency-grid" in out

    def test_stale_repro_exits_two(self, tmp_path, capsys):
        repro_dir = tmp_path / "repros"
        assert main([*SMALL, "--plant-fault", "off-grid-step",
                     "--repro-dir", str(repro_dir)]) == 2
        capsys.readouterr()
        repro_file = next(repro_dir.glob("repro-*.json"))
        # Strip the fault: the failure is "fixed", the repro is stale.
        payload = json.loads(repro_file.read_text())
        payload["fault"] = None
        repro_file.write_text(json.dumps(payload))
        assert main(["validate", "--replay", str(repro_file)]) == 2
        assert "no longer reproduces" in capsys.readouterr().err

    def test_replay_json_lists_minimal_params(self, tmp_path, capsys):
        repro_dir = tmp_path / "repros"
        assert main([*SMALL, "--plant-fault", "off-grid-step",
                     "--repro-dir", str(repro_dir)]) == 2
        capsys.readouterr()
        repro_file = next(repro_dir.glob("repro-*.json"))
        assert main(["validate", "--replay", str(repro_file),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "validate-replay"
        assert payload["results"]["reproduced"] is True
        assert len(payload["results"]["non_default_params"]) <= 3


class TestDifferential:
    def test_differential_suite_is_green(self, capsys, monkeypatch,
                                         differential_reports):
        # The shared run supplies the reports; this checks the table
        # and the exit code.  The --json test below runs the real suite.
        monkeypatch.setattr(
            "repro.validate.run_differential_suite",
            lambda *a, **k: differential_reports,
        )
        assert main(["validate", "--differential"]) == 0
        out = capsys.readouterr().out
        assert "serial-vs-parallel:capacity" in out
        assert "live-vs-replay:fingerprint" in out
        assert "MISMATCH" not in out

    def test_differential_json(self, capsys):
        assert main(["validate", "--differential", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "validate-differential"
        assert payload["results"]["mismatches"] == 0
        assert payload["results"]["checks"] >= 4


class TestWorkers:
    def test_parallel_run_matches_serial_output(self, capsys):
        assert main(["--seed", "4", *SMALL, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--seed", "4", *SMALL, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
