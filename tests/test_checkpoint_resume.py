"""Checkpoint/resume across the long-running experiments (satellite).

The scenario under test everywhere: an experiment dies partway —
a crashed worker, a killed process, a ^C — and a re-run with the same
``checkpoint_dir`` resumes past the completed trials and returns
results bit-identical to a run that never failed.
"""

import pytest

from repro.core import evaluation
from repro.telemetry import MetricsRegistry
from repro.telemetry.context import using


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot().get("counters", {})


SHAPE = dict(intervals_ms=(28.0, 24.0), bits=8, seed=0)


# Captured at import time, before any monkeypatching, so the crashing
# wrapper below can reach the real implementation even from a pool
# worker that re-imports this module.
_REAL_DES = evaluation.des_capacity_points


class _CrashOnceAt:
    """A DES capacity runner that dies once at one sweep point.

    Module-level (hence pool-picklable); the sentinel lives on disk so
    the fault fires exactly once even when the sweep fans out across
    pool workers — the same discipline as
    :func:`repro.validate.faults.flaky_trial`.
    """

    def __init__(self, sentinel, interval_ms: float) -> None:
        self.sentinel = sentinel
        self.interval_ms = interval_ms

    def __call__(self, requests):
        if (requests[0].interval_ms == self.interval_ms
                and not self.sentinel.exists()):
            self.sentinel.write_text("tripped", encoding="utf-8")
            raise RuntimeError("injected mid-sweep crash")
        return _REAL_DES(requests)


class TestCapacitySweepResume:
    def test_interrupted_serial_sweep_resumes_bit_identically(
            self, tmp_path, monkeypatch):
        clean = evaluation.capacity_sweep(**SHAPE)
        monkeypatch.setattr(
            evaluation, "des_capacity_points",
            _CrashOnceAt(tmp_path / "crash", 24.0),
        )
        with pytest.raises(RuntimeError, match="mid-sweep"):
            evaluation.capacity_sweep(**SHAPE, checkpoint_dir=tmp_path)
        # The surviving point was checkpointed before the crash.
        assert list(tmp_path.glob("capacity_sweep-*.ckpt.json"))
        registry = MetricsRegistry()
        with using(registry):
            resumed = evaluation.capacity_sweep(
                **SHAPE, checkpoint_dir=tmp_path
            )
        assert resumed.points == clean.points  # bit-identical floats
        assert _counters(registry)["runner.checkpoint.skipped"] >= 1

    def test_killed_parallel_worker_then_parallel_resume(
            self, tmp_path, monkeypatch):
        """Kill a sweep worker mid-run; resume merges bit-identically.

        The pool forks, so the patched crash runs *inside a worker*;
        the sweep dies with the first point already checkpointed, and
        the parallel resume equals the uninterrupted serial run.
        """
        clean = evaluation.capacity_sweep(**SHAPE, workers=1)
        monkeypatch.setattr(
            evaluation, "des_capacity_points",
            _CrashOnceAt(tmp_path / "crash", 24.0),
        )
        with pytest.raises(RuntimeError, match="mid-sweep"):
            evaluation.capacity_sweep(**SHAPE, workers=2,
                                      checkpoint_dir=tmp_path)
        registry = MetricsRegistry()
        with using(registry):
            resumed = evaluation.capacity_sweep(**SHAPE, workers=2,
                                                checkpoint_dir=tmp_path)
        assert resumed.points == clean.points
        assert _counters(registry)["runner.checkpoint.skipped"] >= 1

    def test_checkpoint_keyed_by_shape(self, tmp_path):
        evaluation.capacity_sweep(**SHAPE, checkpoint_dir=tmp_path)
        other = dict(SHAPE, bits=10)
        registry = MetricsRegistry()
        with using(registry):
            evaluation.capacity_sweep(**other, checkpoint_dir=tmp_path)
        # Different bits → different key → nothing wrongly reused.
        assert "runner.checkpoint.skipped" not in _counters(registry)
        assert len(list(tmp_path.glob("*.ckpt.json"))) == 2


class TestDefensesResume:
    def test_rerun_skips_completed_defenses(self, tmp_path):
        from repro.defenses import evaluate_defenses

        kwargs = dict(bits=8, seed=0,
                      defenses=("none", "restricted_1500_1700"))
        clean = evaluate_defenses(**kwargs)
        first = evaluate_defenses(**kwargs, checkpoint_dir=tmp_path)
        registry = MetricsRegistry()
        with using(registry):
            resumed = evaluate_defenses(**kwargs,
                                        checkpoint_dir=tmp_path)
        assert resumed == first == clean
        assert _counters(registry)["runner.checkpoint.skipped"] == 2


class TestValidationResume:
    def test_rerun_skips_completed_scenarios(self, tmp_path,
                                             monkeypatch):
        from repro.validate import run_validation, runner

        clean = run_validation(seed=3, count=3)
        run_validation(seed=3, count=3, checkpoint_dir=tmp_path)

        # Every scenario is checkpointed, so the warm re-run must not
        # execute a single one — a crashing _run_one proves it.
        def _must_not_run(**kwargs):
            raise AssertionError("scenario re-executed despite "
                                 "checkpoint")

        monkeypatch.setattr(runner, "_run_one", _must_not_run)
        resumed = run_validation(seed=3, count=3,
                                 checkpoint_dir=tmp_path)
        assert resumed.ok
        assert resumed.count == clean.count
        assert resumed.failures == clean.failures


def _lost_trial_cases():
    """(module, trial body, runner, kwargs, kwarg -> value that fails,
    the label of that trial) for each checkpointed sweep runner."""
    from repro.defenses import evaluation as defenses

    return [
        pytest.param(
            evaluation, "des_capacity_points", evaluation.capacity_sweep,
            dict(SHAPE), ("interval_ms", 24.0), "interval-24",
            id="capacity_sweep",
        ),
        pytest.param(
            defenses, "des_defense_reports", defenses.evaluate_defenses,
            dict(bits=8, seed=0, defenses=("none", "fixed_max")),
            ("defense", "fixed_max"), "defense-fixed_max",
            id="evaluate_defenses",
        ),
    ]


class TestLostTrials:
    """A trial that still fails after its retries is a lost trial: the
    runner raises instead of returning a result with a hole, names the
    lost label, and leaves the survivors checkpointed."""

    @pytest.mark.parametrize(
        "module, body, runner, kwargs, fault, label", _lost_trial_cases()
    )
    def test_permanent_failure_names_the_lost_label(
            self, tmp_path, monkeypatch, module, body, runner, kwargs,
            fault, label):
        from repro.errors import ResilienceError
        from repro.resilience import RetryPolicy

        real = getattr(module, body)
        key, value = fault

        def fail_one(requests):
            # Each DES trial runs a one-request list.
            if getattr(requests[0], key) == value:
                raise ValueError("injected permanent fault")
            return real(requests)

        monkeypatch.setattr(module, body, fail_one)
        registry = MetricsRegistry()
        with using(registry):
            with pytest.raises(ResilienceError,
                               match=f"lost 1 of 2 .*: {label}$"):
                runner(**kwargs, checkpoint_dir=tmp_path,
                       retry=RetryPolicy(max_attempts=3,
                                         base_backoff_s=0.0))
        counters = _counters(registry)
        assert counters["runner.permanent_failures"] == 1
        assert "runner.retries" not in counters  # permanent: no re-run

        # The survivor was checkpointed and the lost trial was not.
        monkeypatch.setattr(module, body, real)
        registry = MetricsRegistry()
        with using(registry):
            runner(**kwargs, checkpoint_dir=tmp_path)
        assert _counters(registry)["runner.checkpoint.skipped"] == 1

    def test_single_attempt_des_sweep_names_label_and_seed(
            self, monkeypatch):
        """Each DES request is its own trial carrying its seed, so a
        lost point is reported with what it takes to re-run it."""
        from repro.errors import ResilienceError
        from repro.resilience import RetryPolicy

        def flaky(requests):
            if requests[0].interval_ms == 24.0:
                raise RuntimeError("injected transient fault")
            return _REAL_DES(requests)

        monkeypatch.setattr(evaluation, "des_capacity_points", flaky)
        registry = MetricsRegistry()
        with using(registry):
            with pytest.raises(ResilienceError,
                               match=r"lost 1 of 2 .*\(seed 7\): "
                                     r"interval-24$"):
                evaluation.capacity_sweep(
                    **dict(SHAPE, seed=7),
                    retry=RetryPolicy(max_attempts=1),
                )
        assert _counters(registry)["runner.permanent_failures"] == 1
