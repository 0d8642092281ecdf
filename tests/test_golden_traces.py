"""Golden-trace regression: the simulator must reproduce the recorded
corpora in ``tests/golden/`` bit for bit.

A failure here means simulator behaviour drifted — UFS control law,
probe latency, RNG derivation, anything upstream of the collector.  If
the drift is intentional, regenerate the fixtures
(``PYTHONPATH=src python -m tests.golden.make_golden``) and commit them
with the change; if not, you just caught a regression before it
silently moved every experiment's numbers.
"""

import pytest

from repro.trace import read_corpus, write_corpus

from .golden import (
    GOLDEN_DIR,
    GOLDEN_SEED,
    golden_compare,
    golden_path,
    golden_presets,
    simulate_golden_traces,
)

PRESETS = sorted(golden_presets())
CORPORA = sorted(path.name for path in GOLDEN_DIR.glob("*.uftc"))


@pytest.mark.parametrize("name", CORPORA)
def test_corpus_round_trips_byte_for_byte(name, tmp_path):
    """Reading a golden corpus and writing it back reproduces the file:
    the corpus framing and the record codec are both lossless."""
    golden = GOLDEN_DIR / name
    meta, records = read_corpus(golden)
    copy = tmp_path / name
    write_corpus(copy, records, meta=meta)
    assert copy.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("preset", PRESETS)
class TestGoldenTraces:
    def test_fixture_is_present_and_well_formed(self, preset):
        meta, records = read_corpus(golden_path(preset))
        assert meta["preset"] == preset
        assert meta["seed"] == GOLDEN_SEED
        assert len(records) == 3
        assert [r.label for r in records] == [0, 1, 2]

    def test_resimulation_matches_bit_for_bit(self, preset):
        _, golden = read_corpus(golden_path(preset))
        fresh = simulate_golden_traces(preset)
        assert len(fresh) == len(golden)
        for index, (actual, expected) in enumerate(zip(fresh, golden)):
            diff = golden_compare(actual, expected)
            assert diff.ok, (
                f"{preset} trace {index}: {diff.reason} — simulator "
                "behaviour drifted from the golden recording (see "
                "tests/test_golden_traces.py docstring)"
            )


def test_presets_cover_distinct_platforms():
    """The golden set must keep exercising different control laws."""
    presets = golden_presets()
    digests = {repr(config) for config in presets.values()}
    assert len(digests) == len(presets)
