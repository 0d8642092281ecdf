"""Analysis helpers: entropy, capacity, statistics, tables."""

import numpy as np
import pytest

from repro.analysis import (
    binary_entropy,
    bit_error_rate,
    channel_capacity_bps,
    format_table,
    median_mhz,
    quantile_summary,
    top_k_accuracy,
)


class TestEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestCapacity:
    def test_error_free_capacity_is_raw_rate(self):
        assert channel_capacity_bps(47.6, 0.0) == pytest.approx(47.6)

    def test_half_error_rate_zero_capacity(self):
        assert channel_capacity_bps(100.0, 0.5) == pytest.approx(0.0)

    def test_paper_headline_number(self):
        # 47.6 bit/s raw at ~1.3 % BER gives ~46 bit/s (Section 4.3.2).
        capacity = channel_capacity_bps(47.6, 0.004)
        assert capacity == pytest.approx(46.0, abs=0.5)

    def test_errors_above_half_fold_back(self):
        assert channel_capacity_bps(100.0, 0.9) == pytest.approx(
            channel_capacity_bps(100.0, 0.1)
        )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            channel_capacity_bps(-1.0, 0.1)


class TestBitErrorRate:
    def test_counts_mismatches(self):
        assert bit_error_rate([1, 0, 1, 0], [1, 1, 1, 0]) == 0.25

    def test_empty_streams(self):
        assert bit_error_rate([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bit_error_rate([1], [1, 0])


class TestStats:
    def test_median(self):
        assert median_mhz([1500, 2400, 2100]) == 2100.0

    def test_quantile_summary_ordering(self):
        summary = quantile_summary(np.random.default_rng(0).normal(
            70, 2, 10_000
        ))
        assert summary.p1 < summary.q25 < summary.median
        assert summary.median < summary.q75 < summary.p99
        assert summary.mean == pytest.approx(70.0, abs=0.2)

    def test_quantile_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile_summary([])

    def test_top_k_accuracy(self):
        scores = np.array([
            [0.1, 0.7, 0.2],   # top1 = 1
            [0.5, 0.3, 0.2],   # top1 = 0
        ])
        assert top_k_accuracy(scores, [1, 1], 1) == 0.5
        assert top_k_accuracy(scores, [1, 1], 2) == 1.0

    def test_top_k_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), [0], 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_top_k_nonpositive_k_rejected(self, k):
        """``argsort(...)[:, -0:]`` keeps every column, so k = 0 would
        count every row as a hit."""
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="k must be"):
            top_k_accuracy(scores, [1, 0], k)

    def test_top_k_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            top_k_accuracy(np.zeros((0, 3)), [], 1)


class TestTables:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len({line.index("1") for line in lines if "1" in line})

    def test_title_included(self):
        text = format_table(["h"], [["v"]], title="Table X")
        assert text.splitlines()[0] == "Table X"

    def test_rows_rendered(self):
        text = format_table(["n"], [[i] for i in range(5)])
        assert text.count("\n") == 6  # header + rule + 5 rows
