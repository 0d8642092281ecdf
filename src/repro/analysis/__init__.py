"""Analysis utilities: information theory, trace stats, table rendering,
machine-readable export."""

from .entropy import binary_entropy, channel_capacity_bps
from .export import (
    append_jsonl,
    results_to_json,
    write_manifest,
)
from .stats import (
    bit_error_rate,
    median_mhz,
    quantile_summary,
    top_k_accuracy,
)
from .tables import format_table

__all__ = [
    "append_jsonl",
    "binary_entropy",
    "bit_error_rate",
    "channel_capacity_bps",
    "format_table",
    "median_mhz",
    "quantile_summary",
    "results_to_json",
    "top_k_accuracy",
    "write_manifest",
]
