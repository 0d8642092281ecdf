"""Result export utilities."""

import json

import numpy as np

from repro.analysis.export import results_to_json
from repro.core.evaluation import CapacityPoint


class TestJson:
    def test_dataclass_round_trip(self):
        point = CapacityPoint(21.0, 47.6, 0.01, 44.0, 100)
        data = json.loads(results_to_json(point))
        assert data["interval_ms"] == 21.0
        assert data["bits"] == 100

    def test_nested_structures(self):
        payload = {"sweep": [CapacityPoint(10.0, 100.0, 0.3, 11.9, 50)],
                   "label": "cross-core"}
        data = json.loads(results_to_json(payload))
        assert data["sweep"][0]["capacity_bps"] == 11.9
        assert data["label"] == "cross-core"

    def test_numpy_values_serialised(self):
        payload = {"mean": np.float64(1.5),
                   "trace": np.array([1, 2, 3])}
        data = json.loads(results_to_json(payload))
        assert data["mean"] == 1.5
        assert data["trace"] == [1, 2, 3]
