"""The deterministic parallel trial runner.

The contract under test: worker count changes wall time only — never
results, never order.  Trial functions used with ``workers > 1`` live at
module level so they pickle.
"""

import pytest

from repro.config import RunnerConfig
from repro.engine.parallel import (
    Trial,
    resolve_workers,
    run_trials,
)
from repro.errors import ConfigError
from repro.rng import child_rng, derive_seed


def _square(value: int, offset: int = 0) -> int:
    return value * value + offset


def _draw(seed: int) -> float:
    return float(child_rng(seed, "draw").random())


class TestRunTrials:
    def test_serial_runs_inline(self):
        # Closures are unpicklable, so this also proves workers=1 never
        # touches an executor.
        calls = []
        trials = [Trial(lambda i=i: calls.append(i)) for i in range(4)]
        assert run_trials(trials, workers=1) == [None] * 4
        assert calls == [0, 1, 2, 3]

    def test_results_in_submission_order(self):
        trials = [Trial(_square, dict(value=i)) for i in range(8)]
        assert run_trials(trials, workers=1) == [i * i for i in range(8)]

    def test_parallel_matches_serial(self):
        trials = [Trial(_square, dict(value=i, offset=3))
                  for i in range(10)]
        serial = run_trials(trials, workers=1)
        parallel = run_trials(trials, workers=3)
        assert parallel == serial

    def test_single_trial_never_spawns_a_pool(self):
        # A closure is unpicklable — proof the single-trial path stays
        # inline even when workers > 1.
        trials = [Trial(lambda: "inline")]
        assert run_trials(trials, workers=4) == ["inline"]

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            run_trials([Trial(_square, dict(value=1))], workers=-2)


class TestSeedSplitting:
    def test_seeds_are_a_function_of_seed_and_label_only(self):
        labels = [f"trial-{i}" for i in range(6)]
        seeds = [derive_seed(7, label) for label in labels]
        assert seeds == [derive_seed(7, label) for label in labels]
        # Dropping trials does not perturb the survivors' seeds.
        assert [derive_seed(7, label) for label in labels[:3]] == seeds[:3]

    def test_distinct_labels_distinct_streams(self):
        a, b = derive_seed(7, "x"), derive_seed(7, "y")
        assert a != b

    def test_seeded_draws_identical_across_worker_counts(self):
        seeds = [derive_seed(11, f"t{i}") for i in range(5)]
        trials = [Trial(_draw, dict(seed=seed)) for seed in seeds]
        assert run_trials(trials, workers=2) == run_trials(trials,
                                                           workers=1)


class TestResolveWorkers:
    def test_one_is_one(self):
        assert resolve_workers(1) == 1

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) == resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1)


class TestRunnerConfig:
    def test_default_is_serial(self):
        assert RunnerConfig().workers == 1

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunnerConfig.from_env().workers == 3

    def test_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert RunnerConfig.from_env().workers == 1

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigError):
            RunnerConfig.from_env()

    def test_validate_rejects_negative(self):
        with pytest.raises(ConfigError):
            RunnerConfig(workers=-1).validate()


class TestExperimentBitIdentity:
    """Serial and parallel experiment fan-outs return identical results."""

    def test_capacity_sweep_point_bit_identical(self):
        from repro.core.evaluation import capacity_sweep

        kwargs = dict(intervals_ms=(60.0, 45.0), bits=10, seed=0)
        serial = capacity_sweep(**kwargs, workers=1)
        parallel = capacity_sweep(**kwargs, workers=2)
        assert parallel == serial
        assert [p.interval_ms for p in parallel] == [60.0, 45.0]

    def test_fingerprint_collection_worker_invariant(self):
        from repro.sidechannel.fingerprint import collect_dataset
        from repro.validate.differential import equal_results

        kwargs = dict(num_sites=2, train_visits=1, test_visits=1,
                      trace_ms=250.0, seed=5)
        serial = collect_dataset(**kwargs, workers=1)
        parallel = collect_dataset(**kwargs, workers=2)
        assert equal_results(serial, parallel)
