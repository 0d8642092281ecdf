"""The ``repro chaos`` subcommand and the hardened CLI exit paths.

Drives :func:`repro.cli.main` exactly the way the CI chaos gate does:
fault subsets, the JSON contract, unknown-fault errors, and the two
interruption paths (^C → 130, a dead worker pool → actionable exit 2).
The fault-name check itself lives in :func:`run_chaos`, so library
callers get it too.
"""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import ResilienceError
from repro.resilience.chaos import CHAOS_FAULTS, run_chaos

# A cheap, pool-free subset for CLI-level smoke runs.
FAST = ["chaos", "--faults", "crashing-trial", "flipped-crc",
        "half-written-temp"]


class TestParser:
    def test_chaos_is_registered(self):
        args = build_parser().parse_args(["chaos"])
        assert callable(args.handler)
        assert args.faults is None
        assert args.workdir is None

    def test_seed_and_workers_accepted_after_subcommand(self):
        args = build_parser().parse_args(
            ["chaos", "--seed", "7", "--workers", "2"]
        )
        assert args.seed == 7
        assert args.workers == 2

    def test_resume_and_retries_flags(self):
        args = build_parser().parse_args(
            ["capacity", "--resume", "ckpt/", "--retries", "2"]
        )
        assert args.resume == "ckpt/"
        assert args.retries == 2
        for command in ("capacity", "defenses", "validate"):
            assert build_parser().parse_args(
                [command, "--resume", "d/"]
            ).resume == "d/"

    def test_fingerprint_takes_no_resume(self):
        # Collection is one long-lived campaign: nothing to resume.
        with pytest.raises(SystemExit) as exit_info:
            main(["fingerprint", "--resume", "d/"])
        assert exit_info.value.code == 2


class TestChaosRuns:
    def test_fault_subset_exits_zero(self, capsys):
        assert main(FAST) == 0
        out = capsys.readouterr().out
        assert "3/3 faults contained" in out
        assert "ESCAPED" not in out

    def test_json_contract(self, capsys):
        assert main([*FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "chaos"
        results = payload["results"]
        assert results["contained"] == results["total"] == 3
        faults = [o["fault"] for o in results["outcomes"]]
        assert faults == ["crashing-trial", "flipped-crc",
                          "half-written-temp"]
        assert all(o["contained"] for o in results["outcomes"])

    def test_unknown_fault_is_a_clean_error(self, capsys):
        assert main(["chaos", "--faults", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown faults" in err
        assert "crashing-trial" in err  # lists the known ones

    def test_workdir_keeps_the_scratch_state(self, tmp_path, capsys):
        workdir = tmp_path / "chaos"
        assert main([*FAST, "--workdir", str(workdir)]) == 0
        capsys.readouterr()
        assert (workdir / "flipped_crc").is_dir()

    def test_escaped_fault_exits_two(self, capsys, monkeypatch):
        from repro.resilience import chaos as chaos_mod

        def all_escape(workdir, *, seed=0, workers=1, faults=None):
            return [chaos_mod.ChaosOutcome(
                fault="crashing-trial", mechanism="retrying runner",
                contained=False, detail="forced for the test",
            )]

        monkeypatch.setattr(chaos_mod, "run_chaos", all_escape)
        assert main(["chaos", "--faults", "crashing-trial"]) == 2
        assert "escaped containment" in capsys.readouterr().err

    def test_fault_names_stay_in_sync_with_help(self, monkeypatch):
        # run_chaos validates against the module's canonical tuple, so
        # a new fault only needs registering in one place.
        from repro.resilience import chaos as chaos_mod

        assert len(CHAOS_FAULTS) == 5
        assert len(set(CHAOS_FAULTS)) == len(CHAOS_FAULTS)
        assert set(chaos_mod._CHECKS) == set(CHAOS_FAULTS)
        chaos_parser = build_parser()._subparsers._group_actions[
            0].choices["chaos"]
        faults_help = next(action.help for action in chaos_parser._actions
                           if action.dest == "faults")
        for name in CHAOS_FAULTS:
            assert name in faults_help
        requested = []

        def record(workdir, *, seed=0, workers=1, faults=None):
            requested.extend(faults)
            return [chaos_mod.ChaosOutcome(
                fault=name, mechanism="stub", contained=True, detail="",
            ) for name in faults]

        monkeypatch.setattr(chaos_mod, "run_chaos", record)
        assert main(["chaos", "--faults", *CHAOS_FAULTS]) == 0
        assert requested == list(CHAOS_FAULTS)


class TestRunChaosNames:
    # A bare str is one name, not a sequence of characters.
    @pytest.mark.parametrize("faults", [("no-such-fault",), "no-such-fault"])
    def test_unknown_fault_raises(self, tmp_path, faults):
        with pytest.raises(ResilienceError,
                           match=r"unknown faults \['no-such-fault'\]"):
            run_chaos(tmp_path / "chaos", faults=faults)
        assert not (tmp_path / "chaos").exists()

    def test_bare_name_is_one_fault(self, tmp_path):
        outcomes = run_chaos(tmp_path / "chaos", faults="flipped-crc")
        assert [outcome.fault for outcome in outcomes] == ["flipped-crc"]
        assert outcomes[0].contained, outcomes[0].detail

    def test_worker_death_row_convicts_the_killer(self, tmp_path):
        (outcome,) = run_chaos(tmp_path / "chaos", faults="worker-death",
                               workers=2)
        assert outcome.contained, outcome.detail
        assert "convicted t1" in outcome.detail

    def test_half_written_temp_row_catches_a_listing_that_sees_temps(
            self, tmp_path, monkeypatch):
        from repro.trace.store import TraceStore

        def leaky_keys(self):
            return sorted(blob.stem for blob in self._blobs.glob("*.uftc*"))

        monkeypatch.setattr(TraceStore, "keys", leaky_keys)
        (outcome,) = run_chaos(tmp_path / "chaos",
                               faults="half-written-temp")
        assert not outcome.contained, outcome.detail


class TestInterruptionPaths:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_chaos", interrupted)
        assert main(["chaos"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_broken_pool_maps_to_actionable_error(self, capsys,
                                                  monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def dead_pool(args):
            raise BrokenProcessPool("pool died")

        monkeypatch.setattr(cli, "_cmd_capacity", dead_pool)
        assert main(["capacity"]) == 2
        err = capsys.readouterr().err
        assert "worker process died" in err
        assert "--workers" in err
        assert "--retries" in err

    def test_interrupt_beats_the_telemetry_wrapper(self, capsys,
                                                   monkeypatch,
                                                   tmp_path):
        # ^C inside the instrumented path must still exit 130, not
        # crash the manifest writer.
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_chaos", interrupted)
        assert main(["chaos", "--telemetry",
                     str(tmp_path / "t.jsonl")]) == 130
