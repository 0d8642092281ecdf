"""Raw receiver streams of the modulation channels, captured to traces.

The three modulation-layer channels (TurboCC, IChannels, clock
modulation) decode from one observable: the duration of the receiver's
timed reference loop.  This module snapshots that stream — every
``(time_ns, duration_ns)`` measurement of one transmission, calibration
included — as a :class:`~repro.sidechannel.tracer.TraceRecord`, the
same container the UFS attacker traces use, so the existing corpus
codec, golden comparator and :class:`~repro.trace.store.TraceStore`
all apply unchanged.

Two consumers:

* the golden corpora (``tests/golden/channel-*.uftc``) pin the streams
  bit-for-bit against simulator drift;
* :func:`capture_channel_trace` serves repeat captures from a
  :class:`~repro.trace.store.TraceStore`, which the differential suite
  uses to prove a warm (replayed) capture is bit-identical to a cold
  (simulated) one.
"""

from __future__ import annotations

import numpy as np

from ..core.evaluation import random_bits
from ..errors import ConfigError
from ..platform.system import System
from ..sidechannel.tracer import TraceRecord
from ..trace.store import TraceStore, cached_corpus
from .comparison import CHANNELS_BY_NAME
from .scenarios import scenario_by_key

__all__ = [
    "OBSERVING_CHANNELS",
    "capture_channel_trace",
    "simulate_channel_trace",
]

#: Channels whose receivers expose the raw observation stream this
#: module captures (the modulation-layer family).
OBSERVING_CHANNELS: tuple[str, ...] = (
    "TurboCC", "IChannels", "ClockModCovert",
)


def simulate_channel_trace(name: str, *, bits: int = 12,
                           seed: int = 0) -> TraceRecord:
    """Run one transmission and return the receiver's raw stream.

    The channel runs in the Table 3 ``baseline`` scenario.  The record
    carries the loop timestamps (ms) in ``times_ms`` and the loop
    durations (ns) in ``freqs_mhz`` — the codec is unit-agnostic; the
    field name reflects its original UFS use.  ``label`` is the payload
    size, so a corpus of several captures stays self-describing.
    """
    if name not in OBSERVING_CHANNELS:
        raise ConfigError(
            f"channel {name!r} does not expose an observation stream; "
            f"capturable: {list(OBSERVING_CHANNELS)}"
        )
    channel_cls = CHANNELS_BY_NAME[name]
    scenario = scenario_by_key("baseline")
    placement = scenario.placement
    system = System(
        scenario.platform(), security=scenario.security, seed=seed
    )
    channel = channel_cls(
        system,
        sender_socket=placement.sender_socket,
        sender_core=placement.sender_core,
        receiver_socket=placement.receiver_socket,
        receiver_core=placement.receiver_core,
        sender_domain=placement.sender_domain,
        receiver_domain=placement.receiver_domain,
    )
    channel.transmit(random_bits(bits, seed, f"capture-{name}"))
    observations = list(channel.observations)
    channel.shutdown()
    system.stop()
    return TraceRecord(
        label=bits,
        times_ms=np.array(
            [time_ns / 1e6 for time_ns, _ in observations]
        ),
        freqs_mhz=np.array([duration for _, duration in observations]),
    )


def capture_channel_trace(name: str, *, bits: int = 12, seed: int = 0,
                          store: TraceStore | None = None,
                          ) -> tuple[dict, list[TraceRecord]]:
    """A channel's raw stream, served from ``store`` when cached.

    Returns ``(meta, records)`` from
    :func:`~repro.trace.store.cached_corpus`: the first call under a
    given store simulates and populates the cache, later calls replay
    the blob — bit-identically, which the differential suite asserts.
    """
    return cached_corpus(
        store, f"channel/{name}", {"bits": bits},
        seed=seed, platform=scenario_by_key("baseline").platform(),
        meta={"channel": name, "seed": seed},
        simulate=lambda: [
            simulate_channel_trace(name, bits=bits, seed=seed)
        ],
    )
