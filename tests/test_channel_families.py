"""End-to-end battery for the modulation channel families.

Locks down the three channels built on :mod:`repro.power.modulation` —
TurboCC, IChannels, ClockModCovert — exactly where the Table 3 harness
exercises them: per-scenario functionality against the expected
:data:`~repro.channels.comparison.EXTENDED_TABLE3` rows.
"""

import pytest

from repro.channels import (
    ALL_CHANNELS,
    CHANNELS_BY_NAME,
    EXTENDED_TABLE3,
    evaluate_channel,
)
from repro.channels.scenarios import scenario_by_key

MODULATION_CHANNELS = tuple(EXTENDED_TABLE3)

#: BER estimates on broken channels are coin flips; below ~24 bits the
#: sample variance can dip under the functionality threshold and
#: misgrade a stopped channel as working.
BITS = 24


class TestTable3Rows:
    def test_matrix_has_fourteen_rows(self):
        assert len(ALL_CHANNELS) == 14
        assert len(CHANNELS_BY_NAME) == 14  # names are unique

    def test_extended_rows_are_registered(self):
        assert set(EXTENDED_TABLE3) <= set(CHANNELS_BY_NAME)
        for name in EXTENDED_TABLE3:
            assert EXTENDED_TABLE3[name].keys() == \
                EXTENDED_TABLE3[MODULATION_CHANNELS[0]].keys()

    @pytest.mark.parametrize("channel", MODULATION_CHANNELS)
    def test_scenario_grid_matches_expected_row(self, channel):
        channel_cls = CHANNELS_BY_NAME[channel]
        expected_row = EXTENDED_TABLE3[channel]
        for key, expected in expected_row.items():
            cell = evaluate_channel(
                channel_cls, scenario_by_key(key), bits=BITS, seed=0
            )
            assert cell.functional == expected, (
                f"{channel} x {key}: functional={cell.functional} "
                f"(err={cell.error_rate}, note={cell.note!r}), "
                f"expected {expected}"
            )

    @pytest.mark.parametrize("channel", MODULATION_CHANNELS)
    def test_baseline_is_clean(self, channel):
        cell = evaluate_channel(
            CHANNELS_BY_NAME[channel], scenario_by_key("baseline"),
            bits=BITS, seed=0,
        )
        assert cell.functional
        assert cell.error_rate == 0.0

