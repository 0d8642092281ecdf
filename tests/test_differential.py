"""Differential tests: every paired execution path is bit-identical.

Extends the serial==parallel guarantee beyond ``capacity_sweep`` to
``evaluate_defenses``, ``comparison_matrix`` and ``collect_dataset``,
and checks both trace-store pairs (cold vs warm cache, live vs pure
replay).  The backend checks hold the fastpath package to its
contract: ``batch`` bit-identical to DES (including on fuzzer-drawn
platforms, with every frequency on the UFS grid), ``analytical``
within its documented statistical tolerance.  Also unit-tests
:func:`equal_results`, the comparator all of those checks rely on — if
it ever went soft, the differential suite would pass vacuously.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.validate import differential, equal_results
from repro.validate.differential import (
    check_batch_frequency_grid,
    check_cold_vs_warm_store,
    check_des_vs_analytical_capacity,
    check_des_vs_batch_capacity,
    check_des_vs_batch_defenses,
    check_des_vs_batch_fuzz_platforms,
    check_live_vs_replay,
    check_serial_vs_parallel_capacity,
    check_serial_vs_parallel_defenses,
    check_serial_vs_parallel_matrix,
    run_differential_suite,
)


class TestEqualResults:
    def test_scalars(self):
        assert equal_results(1, 1)
        assert equal_results("x", "x")
        assert not equal_results(1, 2)

    def test_floats_are_exact(self):
        assert equal_results(0.1 + 0.2, 0.1 + 0.2)
        assert not equal_results(0.1 + 0.2, 0.3)

    def test_nan_arrays_compare_equal(self):
        a = np.array([1.0, np.nan])
        assert equal_results(a, a.copy())

    def test_dtype_mismatch_is_unequal(self):
        assert not equal_results(
            np.array([1, 2], dtype=np.int64),
            np.array([1, 2], dtype=np.float64),
        )

    def test_shape_mismatch_is_unequal(self):
        assert not equal_results(np.zeros(3), np.zeros((3, 1)))

    def test_array_vs_list_is_unequal(self):
        assert not equal_results(np.array([1.0]), [1.0])

    def test_dataclasses_compare_fieldwise(self):
        @dataclass
        class Point:
            xs: np.ndarray
            tag: str

        a = Point(np.array([1.0, 2.0]), "a")
        b = Point(np.array([1.0, 2.0]), "a")
        c = Point(np.array([1.0, 2.5]), "a")
        assert equal_results(a, b)
        assert not equal_results(a, c)

    def test_nested_containers(self):
        a = {"k": [np.array([1.0]), (2, 3)]}
        b = {"k": [np.array([1.0]), (2, 3)]}
        assert equal_results(a, b)
        assert not equal_results(a, {"k": [np.array([1.0]), (2, 4)]})
        assert not equal_results({"k": 1}, {"j": 1})


class TestSerialVsParallel:
    def test_capacity_sweep(self):
        report = check_serial_vs_parallel_capacity(seed=3)
        assert report.matched, report.detail

    def test_evaluate_defenses(self):
        report = check_serial_vs_parallel_defenses(
            seed=1, defenses=("none", "randomized"), bits=6
        )
        assert report.matched, report.detail

    def test_comparison_matrix(self):
        report = check_serial_vs_parallel_matrix(seed=2, bits=6)
        assert report.matched, report.detail


class TestTraceStorePaths:
    def test_cold_vs_warm_collect_dataset(self, tmp_path):
        report = check_cold_vs_warm_store(tmp_path, seed=5)
        assert report.matched, report.detail

    def test_live_vs_replay(self, tmp_path):
        report = check_live_vs_replay(tmp_path, seed=5)
        assert report.matched, report.detail


class TestBackendEquivalence:
    def test_des_vs_batch_capacity(self):
        report = check_des_vs_batch_capacity(seed=4)
        assert report.matched, report.detail

    def test_des_vs_batch_defenses_full_matrix(self):
        from repro.defenses.evaluation import DEFENSE_KEYS

        report = check_des_vs_batch_defenses(
            seed=2, defenses=DEFENSE_KEYS, bits=5
        )
        assert report.matched, report.detail

    def test_des_vs_batch_fuzz_platforms(self):
        report = check_des_vs_batch_fuzz_platforms(seed=6, count=2)
        assert report.matched, report.detail

    def test_batch_frequencies_stay_on_grid(self):
        report = check_batch_frequency_grid(seed=1)
        assert report.matched, report.detail

    def test_des_vs_analytical_within_tolerance(self):
        report = check_des_vs_analytical_capacity(seed=3)
        assert report.matched, report.detail


#: The suite's checks in the order ``run_differential_suite`` runs them
#: with no backend narrowing.
SUITE_ORDER = (
    "check_serial_vs_parallel_capacity",
    "check_serial_vs_parallel_defenses",
    "check_serial_vs_parallel_matrix",
    "check_cold_vs_warm_store",
    "check_live_vs_replay",
    "check_des_vs_batch_capacity",
    "check_des_vs_batch_defenses",
    "check_des_vs_batch_fuzz_platforms",
    "check_batch_frequency_grid",
    "check_des_vs_analytical_capacity",
)


class TestSuite:
    def test_suite_is_all_green(self, differential_reports):
        reports = differential_reports
        assert len(reports) == 10
        bad = [r for r in reports if not r.matched]
        assert not bad, bad

    def test_backend_narrows_the_suite(self, tmp_path, monkeypatch,
                                       differential_reports):
        # Each check replays its report from the shared full run, so
        # this exercises only the narrowing.
        for name, report in zip(SUITE_ORDER, differential_reports,
                                strict=True):
            monkeypatch.setattr(differential, name,
                                lambda *a, _report=report, **k: _report)
        names = [
            r.name
            for r in run_differential_suite(
                tmp_path, seed=0, backend="analytical"
            )
        ]
        assert "des-vs-analytical:capacity" in names
        assert not any(n.startswith("des-vs-batch") for n in names)
        assert len(names) == 6

    def test_suite_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ConfigError):
            run_differential_suite(tmp_path, backend="bogus")

    def test_mismatch_is_labelled(self):
        from repro.validate.differential import _report

        report = _report("x", 1.0, 2.0, "one vs two")
        assert not report.matched
        assert report.detail.startswith("MISMATCH")
