"""Result export: JSON serialisation of experiment artefacts.

The benchmark harness prints tables; downstream consumers (plotting
scripts, regression dashboards) want machine-readable forms.  This
module serialises results and run manifests to JSON and appends
manifests to JSONL logs, without pulling in any dependency beyond the
standard library.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "ndim"):  # numpy arrays and scalars
        return value.tolist() if value.ndim else value.item()
    return value


def results_to_json(results, *, indent: int = 2) -> str:
    """Serialise dataclass results (CapacityPoint lists, Table 3 cells,
    fingerprint results, ...) to JSON."""
    return json.dumps(_jsonable(results), indent=indent)


def append_jsonl(path, record) -> None:
    """Append one record as a JSON line to ``path`` (created if absent).

    JSONL is the manifest log format: one run per line, so repeated
    experiment invocations accumulate an audit trail instead of
    clobbering each other.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_jsonable(record)))
        handle.write("\n")


def write_manifest(path, manifest) -> None:
    """Append one run manifest to the JSONL log at ``path``."""
    append_jsonl(path, manifest)
