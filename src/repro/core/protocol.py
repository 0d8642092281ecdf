"""The UF-variation channel protocol (Algorithm 1).

One bit per transmission interval.  The receiver compares the average
LLC latency near the beginning of the interval (T1) with the average
near the end (T2):

* ``T2 < T1``            → frequency rising          → bit 1
* ``T1 ~ T2 ~ T_freq_max`` → pinned at the maximum   → bit 1
* ``T2 > T1``            → frequency falling         → bit 0
* ``T1 ~ T2 ~ T_freq_min`` → resting at the minimum  → bit 0

``T_freq_max`` / ``T_freq_min`` are the pre-agreed calibration inputs
of Algorithm 1 — the latencies at the extreme active frequencies for
the receiver's probing distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PlatformConfig
from ..errors import ChannelError
from ..platform.latency import LatencyModel
from ..units import ms


@dataclass(frozen=True)
class ChannelConfig:
    """Tunable parameters of one UF-variation deployment."""

    interval_ns: int = ms(21)
    #: Length of each of the two measurement windows; the paper's
    #: receiver averages "the first and last 5 ms" of an interval.
    measure_ns: int = ms(5)
    #: Slack around the calibrated extremes when testing "at the
    #: extreme level" (one-sided; see :func:`decode_bit`).
    flat_tolerance_cycles: float = 2.0
    #: Minimum T1-T2 gap to call a trend.
    trend_margin_cycles: float = 0.8
    #: Probing distance of the receiver's eviction list (Figure 9 uses
    #: 1-hop latencies).
    hops: int = 1
    #: Addresses per measurement list (Listing 3).
    list_size: int = 20

    def validate(self) -> None:
        if self.interval_ns < 2 * self.measure_ns:
            raise ChannelError(
                "interval too short for two measurement windows"
            )
        if self.hops < 0 or self.list_size < 1:
            raise ChannelError("invalid probe geometry")

    @property
    def raw_rate_bps(self) -> float:
        """Raw transmission rate implied by the interval length."""
        return 1e9 / self.interval_ns


@dataclass(frozen=True)
class ChannelEndpoints:
    """The Algorithm 1 calibration inputs for one deployment."""

    t_freq_max_cycles: float
    t_freq_min_cycles: float

    def __post_init__(self) -> None:
        if self.t_freq_max_cycles >= self.t_freq_min_cycles:
            raise ChannelError(
                "latency at freq_max must be below latency at freq_min"
            )


def calibrate_endpoints(
    platform: PlatformConfig,
    latency_model: LatencyModel,
    *,
    hops: int,
    cross_processor: bool = False,
) -> ChannelEndpoints:
    """Compute the pre-agreed T_freq_max / T_freq_min calibration.

    ``freq_min`` is the minimum *active* frequency (the 1.5 GHz dither
    ceiling), not the MSR lower limit — the uncore never rests below it
    while the receiver keeps its core busy.  In the cross-processor
    deployment the receiver's socket is a coupling follower and peaks
    one step below the sender's socket (Section 3.4), so its effective
    maximum is lower by the coupling lag.
    """
    ufs = platform.ufs
    max_mhz = ufs.max_freq_mhz
    if cross_processor and platform.cross_socket_coupling:
        max_mhz = max(max_mhz - platform.coupling_lag_mhz,
                      ufs.min_freq_mhz)
    min_active = min(
        max(ufs.active_idle_high_mhz, ufs.min_freq_mhz), ufs.max_freq_mhz
    )
    if max_mhz <= min_active:
        # Degenerate window (e.g. the fixed-frequency countermeasure):
        # report a hair of separation so decoding falls through to the
        # trend rule and the channel's failure shows up as a 50 % BER
        # rather than a crash.
        return ChannelEndpoints(
            t_freq_max_cycles=latency_model.mean_llc_cycles(hops, max_mhz)
            - 1e-6,
            t_freq_min_cycles=latency_model.mean_llc_cycles(hops, max_mhz),
        )
    return ChannelEndpoints(
        t_freq_max_cycles=latency_model.mean_llc_cycles(hops, max_mhz),
        t_freq_min_cycles=latency_model.mean_llc_cycles(hops, min_active),
    )


def decode_bit(t1: float, t2: float, endpoints: ChannelEndpoints,
               config: ChannelConfig) -> int:
    """Algorithm 1's receiver decision.

    The "at the extreme" tests are one-sided: any latency at or *below*
    the freq_max calibration means the uncore is pinned at the maximum
    (bit 1), and any latency at or *above* the freq_min calibration
    means it is resting at — or dithering just below — the minimum
    active frequency (bit 0).  The one-sidedness matters because the
    idle uncore alternates between 1.4 and 1.5 GHz (Section 3.1), so a
    resting "0" produces latencies slightly above T_freq_min.
    """
    tol = config.flat_tolerance_cycles
    ceiling = endpoints.t_freq_max_cycles + tol
    floor = endpoints.t_freq_min_cycles - tol
    if t1 <= ceiling and t2 <= ceiling:
        return 1
    if t1 >= floor and t2 >= floor:
        return 0
    if t2 < t1 - config.trend_margin_cycles:
        return 1
    if t2 > t1 + config.trend_margin_cycles:
        return 0
    # Ambiguous (flat somewhere mid-range, or noise-drowned trend):
    # fall back to the bare trend sign.
    return 1 if t2 <= t1 else 0
