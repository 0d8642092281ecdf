"""Analysis utilities: information theory, trace stats, table rendering,
machine-readable export."""

from .entropy import binary_entropy, channel_capacity_bps
from .export import (
    append_jsonl,
    capacity_sweep_to_csv,
    comparison_to_csv,
    corpus_to_csv,
    manifest_to_json,
    results_to_json,
    rows_to_csv,
    trace_to_csv,
    write_manifest,
)
from .stats import (
    bit_error_rate,
    median_mhz,
    quantile_summary,
    top_k_accuracy,
)
from .sparkline import frequency_sparkline, labelled_trace, sparkline
from .tables import format_table

__all__ = [
    "append_jsonl",
    "binary_entropy",
    "bit_error_rate",
    "capacity_sweep_to_csv",
    "channel_capacity_bps",
    "comparison_to_csv",
    "corpus_to_csv",
    "format_table",
    "frequency_sparkline",
    "labelled_trace",
    "manifest_to_json",
    "median_mhz",
    "quantile_summary",
    "results_to_json",
    "rows_to_csv",
    "sparkline",
    "top_k_accuracy",
    "trace_to_csv",
    "write_manifest",
]
