"""The closed-form (lumos-style) capacity/error estimator.

The batch backend shows that a trial's frequency lattice is fully
deterministic — all randomness lives in the receiver's measurement
noise.  This backend therefore reuses Phase A verbatim and replaces the
Phase B Monte-Carlo replay with probability calculus:

* A measurement window averages ``n`` timed loads split over segments
  of constant frequency, then adds one window-bias draw.  Its
  statistic is, exactly in expectation and to CLT accuracy in shape
  (``n`` is ~2000 per window), Gaussian with

  - mean  ``mu = sum(n_j * mean_j)/n + p*theta``  (the sparse
    exponential tail contributes ``p*theta`` per sample),
  - var   ``(sigma^2 + 2*p*theta^2 - (p*theta)^2)/n + w^2``  (tail
    variance plus the window jitter ``w``).

* ``decode_bit`` is a deterministic region of the ``(T1, T2)`` plane,
  so the per-bit probability of decoding a 1 is a 2-D Gaussian integral
  evaluated on a Gauss–Hermite grid against the *real*
  :func:`~repro.core.protocol.decode_bit` decision tree.

* The expected bit-error rate is the mean per-bit error probability;
  capacity applies the same ``raw * (1 - H(e))`` formula the DES uses.

**Documented tolerance.**  A DES run reports the *realised* error rate
of ``bits`` Bernoulli decodes, so against the analytical expectation it
scatters with standard deviation ``sqrt(sum p_i*(1-p_i))/bits``.  The
suite's acceptance band is four of those sigmas plus a 0.02 absolute
slack for the CLT/quadrature approximation error
(:func:`error_tolerance`); capacity is compared through the same band
mapped via the capacity formula's Lipschitz bound at the operating
point (the differential suite simply re-derives capacity from the
error band's endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.entropy import channel_capacity_bps
from ..cache.hierarchy import Level
from ..core.evaluation import CapacityPoint
from ..defenses.evaluation import DefenseReport
from ..platform.latency import LatencyModel
from ..telemetry.context import active_registry
from .backend import CapacityRequest, DefenseRequest
from .batch import (
    _PMU_STAGGER_NS,
    _lattices_for,
    _plans,
    _TrialPlan,
)
from ..core.protocol import calibrate_endpoints

__all__ = [
    "AnalyticalEstimate",
    "analytical_capacity_points",
    "analytical_defense_reports",
    "analytical_estimates",
    "error_tolerance",
]

#: Gauss–Hermite nodes per axis of the (T1, T2) integral.  48 nodes
#: put the quadrature error orders of magnitude below the statistical
#: tolerance.
_GH_NODES = 48


@dataclass(frozen=True)
class AnalyticalEstimate:
    """One trial's closed-form prediction plus its acceptance band."""

    #: Expected bit-error rate (mean per-bit error probability).
    error_rate: float
    #: Expected capacity via ``raw * (1 - H(e))``.
    capacity_bps: float
    #: Per-bit probabilities that the decoded bit differs from the sent
    #: bit, in payload order.
    bit_error_probs: tuple[float, ...]
    #: Documented tolerance: a DES realised error rate should land
    #: within ``error_rate +/- error_tolerance``.
    error_tolerance: float


def error_tolerance(bit_error_probs: Sequence[float],
                    slack: float = 0.02) -> float:
    """Acceptance band half-width for a realised DES error rate.

    Four standard deviations of the Poisson-binomial realised-BER
    distribution plus an absolute ``slack`` for the CLT and quadrature
    approximations.
    """
    bits = len(bit_error_probs)
    if bits == 0:
        return slack
    variance = sum(p * (1.0 - p) for p in bit_error_probs)
    return 4.0 * math.sqrt(variance) / bits + slack


def _window_moments(plan: _TrialPlan, model: LatencyModel,
                    times: list[int], freqs: list[int],
                    start: int, flows: float) -> tuple[float, float]:
    """Mean and variance of one measurement window's statistic."""
    from bisect import bisect_right

    config = plan.platform.latency
    period = plan.platform.ufs.period_ns
    offset = plan.receiver_socket * _PMU_STAGGER_NS
    deadline = start + plan.config.measure_ns
    hops = plan.config.hops
    now = start
    weighted = 0.0
    count = 0
    while now < deadline:
        step = (now - offset) // period + 1
        next_tick = offset + max(step, 1) * period
        seg_end = min(deadline, next_tick)
        mhz = freqs[bisect_right(times, now) - 1]
        mean_lat = model.mean_llc_cycles(hops, mhz)
        iter_ns = model.loop_iteration_ns(mean_lat, plan.receiver_core_mhz)
        samples = max(int((seg_end - now) / iter_ns), 1)
        weighted += samples * model.mean_cycles(
            Level.LLC, hops, mhz, flows
        )
        count += samples
        now = seg_end
    tail_p = config.noise_tail_prob
    tail_theta = config.noise_tail_cycles
    mean = weighted / count + tail_p * tail_theta
    per_sample_var = (
        config.noise_sigma_cycles ** 2
        + 2.0 * tail_p * tail_theta ** 2
        - (tail_p * tail_theta) ** 2
    )
    variance = per_sample_var / count + config.window_jitter_cycles ** 2
    return mean, variance


def _decode_one_probability(mu1: float, var1: float, mu2: float,
                            var2: float, endpoints, config,
                            nodes: tuple[np.ndarray, np.ndarray],
                            ) -> float:
    """P(decode_bit(T1, T2) == 1) for independent Gaussian T1/T2."""
    x, w = nodes
    t1 = mu1 + math.sqrt(2.0 * var1) * x
    t2 = mu2 + math.sqrt(2.0 * var2) * x
    weights = w / math.sqrt(math.pi)
    T1 = t1[:, None]
    T2 = t2[None, :]
    ceiling = endpoints.t_freq_max_cycles + config.flat_tolerance_cycles
    floor = endpoints.t_freq_min_cycles - config.flat_tolerance_cycles
    flat_high = (T1 <= ceiling) & (T2 <= ceiling)
    flat_low = ~flat_high & (T1 >= floor) & (T2 >= floor)
    remaining = ~flat_high & ~flat_low
    falling = remaining & (T2 < T1 - config.trend_margin_cycles)
    rising = (remaining & ~falling
              & (T2 > T1 + config.trend_margin_cycles))
    ambiguous = remaining & ~falling & ~rising
    ones = flat_high | falling | (ambiguous & (T2 <= T1))
    grid = weights[:, None] * weights[None, :]
    return float((grid * ones).sum())


def analytical_estimates(
    plans: list[_TrialPlan],
) -> list[AnalyticalEstimate]:
    """Closed-form per-trial estimates over shared Phase A lattices."""
    lattices = _lattices_for(plans)
    nodes = np.polynomial.hermite.hermgauss(_GH_NODES)
    registry = active_registry()
    if registry is not None:
        registry.inc("fastpath.analytical.evals", len(plans))
    estimates: list[AnalyticalEstimate] = []
    for plan, lattice in zip(plans, lattices):
        # The estimate never draws, so the model derives no stream.
        model = LatencyModel(plan.platform.latency, plan.seed)
        endpoints = calibrate_endpoints(
            plan.platform, model, hops=plan.config.hops,
            cross_processor=plan.cross,
        )
        times = [point[0] for point in lattice[plan.receiver_socket]]
        freqs = [point[1] for point in lattice[plan.receiver_socket]]
        interval = plan.config.interval_ns
        measure = plan.config.measure_ns
        probs: list[float] = []
        for index, bit in enumerate(plan.payload):
            flows = plan.mark_flows if bit else plan.space_flows
            mu1, var1 = _window_moments(
                plan, model, times, freqs, index * interval, flows
            )
            mu2, var2 = _window_moments(
                plan, model, times, freqs,
                (index + 1) * interval - measure, flows,
            )
            p_one = _decode_one_probability(
                mu1, var1, mu2, var2, endpoints, plan.config, nodes
            )
            probs.append(1.0 - p_one if bit else p_one)
        expected_error = (
            sum(probs) / len(probs) if probs else 0.0
        )
        raw_rate = 1e9 / interval
        estimates.append(
            AnalyticalEstimate(
                error_rate=expected_error,
                capacity_bps=channel_capacity_bps(
                    raw_rate, expected_error
                ),
                bit_error_probs=tuple(probs),
                error_tolerance=error_tolerance(probs),
            )
        )
    return estimates


def analytical_capacity_points(
    requests: Sequence[CapacityRequest],
) -> list[CapacityPoint]:
    """Instant capacity estimates matching ``measure_capacity``'s shape."""
    plans = _plans(requests)
    estimates = analytical_estimates(plans)
    return [
        CapacityPoint(
            interval_ms=request.interval_ms,
            raw_rate_bps=1e9 / plan.config.interval_ns,
            error_rate=estimate.error_rate,
            capacity_bps=estimate.capacity_bps,
            bits=request.bits,
        )
        for request, plan, estimate in zip(requests, plans, estimates)
    ]


def analytical_defense_reports(
    requests: Sequence[DefenseRequest],
) -> list[DefenseReport]:
    """Instant defense-outcome estimates matching the Table 3 shape."""
    plans = _plans(requests)
    estimates = analytical_estimates(plans)
    return [
        DefenseReport(
            defense=request.defense,
            error_rate=estimate.error_rate,
            capacity_bps=estimate.capacity_bps,
        )
        for request, estimate in zip(requests, estimates)
    ]
