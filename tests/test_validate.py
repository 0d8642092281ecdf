"""The validation subsystem: fuzzer, oracles, shrinker, canary."""

import dataclasses
import json

import pytest

from repro.errors import ValidationError
from repro.validate import (
    BASELINE,
    FuzzScenario,
    Observation,
    Violation,
    check_all,
    execute_scenario,
    generate_scenario,
    generate_scenarios,
    is_valid,
    load_repro,
    non_default_params,
    replay_repro,
    run_validation,
    shrink,
    write_repro,
)
from repro.validate.oracles import (
    oracle_capacity_bound,
    oracle_evaluation_spacing,
    oracle_frequency_grid,
    oracle_frequency_range,
    oracle_telemetry_transparent,
    oracle_time_monotonic,
)
from repro.validate.scenarios import ChannelParams, DefenseSpec, WorkloadSpec

#: One scenario per cross-field rule of ``is_valid``, each breaking that
#: rule and no other.
INVALID_SCENARIOS = {
    "three-sockets": dict(sockets=3),
    "25mhz-step": dict(ufs_step_mhz=25),
    "min-off-100mhz": dict(ufs_min_mhz=1250, ufs_step_mhz=50),
    "max-off-100mhz": dict(ufs_max_mhz=2350, ufs_step_mhz=50),
    "inverted-window": dict(ufs_min_mhz=2400, ufs_max_mhz=1200),
    "zero-period": dict(period_ms=0.0),
    "zero-run": dict(run_ms=0.0),
    "unknown-workload": dict(workloads=(WorkloadSpec(kind="spin"),)),
    "four-hops": dict(workloads=(WorkloadSpec(kind="traffic", hops=4),)),
    "workload-off-socket": dict(
        workloads=(WorkloadSpec(kind="traffic", socket=1),)),
    "workload-off-core": dict(
        workloads=(WorkloadSpec(kind="traffic", core=0),)),
    "two-workloads-one-core": dict(workloads=(
        WorkloadSpec(kind="traffic"), WorkloadSpec(kind="nop"))),
    "interval-under-10ms": dict(channel=ChannelParams(interval_ms=5.0)),
    "no-bits": dict(channel=ChannelParams(bits=0)),
    "unknown-sender-mode": dict(channel=ChannelParams(sender_mode="idle")),
    "unknown-defense": dict(defenses=(DefenseSpec(kind="pin"),)),
    "restrict-outside-window": dict(defenses=(
        DefenseSpec(kind="restrict", min_mhz=1000, max_mhz=2000),)),
    "randomize-zero-period": dict(defenses=(
        DefenseSpec(kind="randomize", period_ms=0.0),)),
}


class TestScenarioGeneration:
    def test_deterministic_in_seed_and_index(self):
        assert generate_scenario(7, 13) == generate_scenario(7, 13)

    def test_index_addressable_without_predecessors(self):
        # Name-keyed derivation: scenario 41 alone equals scenario 41
        # from a batch.
        batch = generate_scenarios(3, 42)
        assert batch[41] == generate_scenario(3, 41)

    def test_different_seeds_differ(self):
        a = [generate_scenario(0, i) for i in range(20)]
        b = [generate_scenario(1, i) for i in range(20)]
        assert a != b

    def test_all_generated_scenarios_are_valid(self):
        for index in range(200):
            scenario = generate_scenario(0, index)
            assert is_valid(scenario), scenario

    def test_fuzz_space_is_actually_explored(self):
        scenarios = generate_scenarios(0, 120)
        assert any(s.sockets == 2 for s in scenarios)
        assert any(s.ufs_step_mhz == 50 for s in scenarios)
        assert any(s.channel is not None for s in scenarios)
        assert any(s.defenses for s in scenarios)
        assert any(s.workloads for s in scenarios)
        assert any(s.check_telemetry for s in scenarios)
        kinds = {d.kind for s in scenarios for d in s.defenses}
        assert len(kinds) >= 3

    def test_randomize_defense_only_on_100mhz_grids(self):
        for scenario in generate_scenarios(0, 300):
            for defense in scenario.defenses:
                if defense.kind == "randomize":
                    assert scenario.ufs_step_mhz == 100

    def test_non_default_params_empty_for_baseline(self):
        assert non_default_params(BASELINE) == {}
        assert non_default_params(
            dataclasses.replace(BASELINE, index=9, seed=4)
        ) == {}

    def test_non_default_params_names_changes(self):
        scenario = dataclasses.replace(
            BASELINE, sockets=2, run_ms=200.0
        )
        assert set(non_default_params(scenario)) == {"sockets", "run_ms"}

    def test_validity_rejects_cross_field_nonsense(self):
        cross = dataclasses.replace(
            BASELINE, channel=ChannelParams(cross_processor=True)
        )
        assert not is_valid(cross)
        off_window = dataclasses.replace(
            BASELINE, defenses=(DefenseSpec(kind="fixed", freq_mhz=900),)
        )
        assert not is_valid(off_window)
        bad_step = dataclasses.replace(
            BASELINE, ufs_step_mhz=50,
            defenses=(DefenseSpec(kind="randomize"),),
        )
        assert not is_valid(bad_step)

    @pytest.mark.parametrize("changes", INVALID_SCENARIOS.values(),
                             ids=INVALID_SCENARIOS.keys())
    def test_validity_rejects_each_rule(self, changes):
        # The shrinker skips what this refuses instead of running it.
        assert is_valid(BASELINE)
        assert not is_valid(dataclasses.replace(BASELINE, **changes))


def _clean_observation(scenario: FuzzScenario) -> Observation:
    return execute_scenario(scenario)


class TestOracleUnits:
    """Each oracle trips on a hand-built bad observation."""

    def _obs(self, **overrides) -> Observation:
        base = dict(
            end_time_ns=100_000_000,
            run_ns=100_000_000,
            timelines=(((0, 1500), (50_000_000, 1600)),),
            snapshots=(
                tuple(
                    (10_000_000 * (k + 1), 1500, 1500)
                    for k in range(10)
                ),
            ),
            capacity=None,
            digest="d",
            telemetry_digest=None,
        )
        base.update(overrides)
        return Observation(**base)

    def test_clean_observation_passes_all(self):
        assert check_all(BASELINE, self._obs()) == []

    def test_time_monotonic_trips_on_short_run(self):
        obs = self._obs(end_time_ns=1)
        assert any(
            v.oracle == "time-monotonic"
            for v in oracle_time_monotonic(BASELINE, obs)
        )

    def test_time_monotonic_trips_on_reversed_timeline(self):
        obs = self._obs(timelines=(((5, 1500), (2, 1600)),))
        assert oracle_time_monotonic(BASELINE, obs)

    def test_grid_oracle_trips_off_grid(self):
        obs = self._obs(timelines=(((0, 1500), (10, 1551)),))
        [violation] = oracle_frequency_grid(BASELINE, obs)
        assert "1551" in violation.message

    def test_range_oracle_trips_outside_window(self):
        obs = self._obs(timelines=(((0, 1500), (10, 2500)),))
        [violation] = oracle_frequency_range(BASELINE, obs)
        assert "2500" in violation.message

    def test_spacing_oracle_trips_on_wrong_phase(self):
        obs = self._obs(snapshots=(((9_999_999, 1500, 1500),),))
        assert oracle_evaluation_spacing(BASELINE, obs)

    def test_spacing_oracle_trips_on_irregular_gap(self):
        obs = self._obs(snapshots=((
            (10_000_000, 1500, 1500),
            (20_000_000, 1500, 1500),
            (30_000_001, 1500, 1500),
        ),))
        assert oracle_evaluation_spacing(BASELINE, obs)

    def test_spacing_oracle_honours_socket_stagger(self):
        scenario = dataclasses.replace(BASELINE, sockets=2)
        obs = self._obs(
            timelines=(((0, 1500),), ((0, 1500),)),
            snapshots=(
                ((10_000_000, 1500, 1500), (20_000_000, 1500, 1500)),
                ((10_500_000, 1500, 1500), (20_500_000, 1500, 1500)),
            ),
        )
        assert oracle_evaluation_spacing(scenario, obs) == []

    def test_capacity_oracle_trips_above_shannon(self):
        from repro.core.evaluation import CapacityPoint

        bad = CapacityPoint(
            interval_ms=21.0, raw_rate_bps=47.6, error_rate=0.0,
            capacity_bps=100.0, bits=8,
        )
        obs = self._obs(capacity=bad)
        [violation] = oracle_capacity_bound(BASELINE, obs)
        assert "Shannon" in violation.message

    def test_capacity_oracle_trips_on_impossible_ber(self):
        from repro.core.evaluation import CapacityPoint

        bad = CapacityPoint(
            interval_ms=21.0, raw_rate_bps=47.6, error_rate=1.5,
            capacity_bps=0.0, bits=8,
        )
        assert oracle_capacity_bound(BASELINE, self._obs(capacity=bad))

    def test_telemetry_oracle_trips_on_digest_drift(self):
        obs = self._obs(digest="a", telemetry_digest="b")
        assert oracle_telemetry_transparent(BASELINE, obs)
        same = self._obs(digest="a", telemetry_digest="a")
        assert oracle_telemetry_transparent(BASELINE, same) == []

class TestExecution:
    def test_baseline_scenario_is_clean(self):
        obs = _clean_observation(BASELINE)
        assert check_all(BASELINE, obs) == []
        assert obs.snapshots[0], "PMU snapshots were not retained"

    def test_execution_is_deterministic(self):
        scenario = generate_scenario(5, 2)
        assert (
            execute_scenario(scenario).digest
            == execute_scenario(scenario).digest
        )

    def test_channel_scenario_yields_capacity(self):
        scenario = dataclasses.replace(
            BASELINE, channel=ChannelParams(interval_ms=12.0, bits=4)
        )
        obs = execute_scenario(scenario)
        assert obs.capacity is not None
        assert obs.capacity.bits == 4
        assert check_all(scenario, obs) == []

    def test_telemetry_scenario_carries_second_digest(self):
        scenario = dataclasses.replace(BASELINE, check_telemetry=True)
        obs = execute_scenario(scenario)
        assert obs.telemetry_digest == obs.digest
        assert check_all(scenario, obs) == []

class TestValidationRun:
    def test_small_fuzz_run_is_clean(self):
        report = run_validation(seed=0, count=6)
        assert report.ok
        assert report.count == 6
        report.raise_on_failure()  # must not raise

    def test_parallel_run_matches_serial(self):
        serial = run_validation(seed=1, count=4, workers=1)
        parallel = run_validation(seed=1, count=4, workers=2)
        assert serial.outcomes == parallel.outcomes

    def test_crashing_scenario_is_contained(self, monkeypatch):
        # Sabotage one scenario's execution; the others must still run.
        import repro.validate.runner as runner_mod

        real = runner_mod.execute_scenario

        def sabotaged(scenario, fault=None):
            if scenario.index == 1:
                raise RuntimeError("boom")
            return real(scenario, fault)

        monkeypatch.setattr(runner_mod, "execute_scenario", sabotaged)
        report = run_validation(seed=0, count=3, workers=1)
        assert not report.ok
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert "boom" in report.outcomes[1].error
        with pytest.raises(ValidationError, match="boom"):
            report.raise_on_failure()


class TestPlantedFaultCanary:
    """The end-to-end proof: plant a defect, catch it, shrink it,
    replay it from the emitted repro file."""

    def test_canary(self, tmp_path):
        report = run_validation(
            seed=0, count=3, fault="off-grid-step",
            repro_dir=tmp_path,
        )
        # Caught: every scenario trips the grid oracle.
        assert len(report.failures) == 3
        assert all(
            any(v.oracle == "frequency-grid" for v in o.violations)
            for o in report.failures
        )
        # Shrunk: the repro names at most 3 non-default parameters.
        assert report.repro_path is not None
        scenario, fault, violations = load_repro(report.repro_path)
        assert fault == "off-grid-step"
        assert len(non_default_params(scenario)) <= 3
        assert violations, "repro file records no violations"
        # Replayed: the file alone reproduces the failure.
        outcome = replay_repro(report.repro_path)
        assert not outcome.ok
        assert any(
            v.oracle == "frequency-grid" for v in outcome.violations
        )
        with pytest.raises(ValidationError):
            report.raise_on_failure()

    def test_range_fault_trips_range_oracle(self):
        report = run_validation(seed=0, count=1, fault="freq-above-max")
        assert not report.ok
        oracles = {
            v.oracle for o in report.failures for v in o.violations
        }
        assert "frequency-range" in oracles


class TestReproFile:
    def test_version_1_file_is_refused_by_version(self, tmp_path):
        # Version 1 scenarios could carry a core-side ``modulation``
        # regime; version 2 has no such field.  The version check must
        # refuse the file before the scenario is rebuilt from it.
        path = tmp_path / "repro.json"
        write_repro(path, BASELINE, None, ())
        payload = json.loads(path.read_text())
        payload["version"] = 1
        payload["scenario"]["modulation"] = {
            "kind": "turbo", "toggles": 4, "cores": 2, "duty_step": 8,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError,
                           match="has version 1, this build speaks 2"):
            load_repro(path)


class TestShrinker:
    def test_shrinks_to_relevant_params_only(self):
        # A synthetic predicate: the "bug" needs two sockets and a
        # 50 MHz step; everything else is noise the shrinker must shed.
        noisy = dataclasses.replace(
            generate_scenario(0, 0),
            sockets=2, ufs_step_mhz=50,
            ufs_min_mhz=1000, ufs_max_mhz=1400,
            run_ms=200.0, check_telemetry=True,
        )

        def fails(s):
            return s.sockets == 2 and s.ufs_step_mhz == 50

        minimal = shrink(noisy, fails)
        assert fails(minimal)
        diff = non_default_params(minimal)
        assert set(diff) <= {
            "sockets", "ufs_step_mhz", "ufs_min_mhz", "ufs_max_mhz",
        }
        assert minimal.run_ms == BASELINE.run_ms
        assert minimal.check_telemetry is False

    def test_returns_input_when_not_failing(self):
        scenario = generate_scenario(0, 3)
        assert shrink(scenario, lambda s: False) == scenario

    def test_never_proposes_invalid_candidates(self):
        # Shrinking a dual-socket cross-processor channel scenario must
        # not "minimise" into a one-socket cross-processor crash.
        scenario = dataclasses.replace(
            BASELINE, sockets=2,
            channel=ChannelParams(cross_processor=True),
        )
        seen = []

        def fails(s):
            seen.append(s)
            return s.channel is not None and s.channel.cross_processor

        minimal = shrink(scenario, fails)
        assert all(is_valid(s) for s in seen)
        assert minimal.sockets == 2

    def test_respects_attempt_budget(self):
        calls = []

        def fails(s):
            calls.append(s)
            return True

        shrink(generate_scenario(0, 7), fails, max_attempts=5)
        # One call checks the input itself; the budget caps the rest.
        assert len(calls) <= 6


class TestViolationRecord:
    def test_violation_carries_scenario_identity(self):
        report = run_validation(seed=9, count=2, fault="off-grid-step")
        violation = report.violations[0]
        assert isinstance(violation, Violation)
        assert violation.scenario_seed == 9
        assert violation.scenario_index in (0, 1)
